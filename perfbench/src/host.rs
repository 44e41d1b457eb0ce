//! Host probes: how fast this host runs right now, and what the process
//! has used.
//!
//! On a shared VM the host's speed drifts by ±25% over minutes while
//! other tenants load it. Each rep is therefore bracketed by a probe whose
//! code is fixed here, independent of the repository, and the rep's host
//! or wall time is scaled to a reference host speed: `t_ref = t × probe /
//! CPU_PROBE_REF`. A change to the program moves the scaled figure exactly
//! as it moves the raw one; a change in the host's speed partly cancels.

use std::time::Instant;

/// Reference speed of [`CpuProbe`], in steps per second (typical of an
/// Intel Xeon 2.0 GHz 2-vCPU VM).
pub const CPU_PROBE_REF: f64 = 6.5e6;

/// Dependent random loads and stores over a 16 MiB table with xorshift
/// mixing: branch-light, cache-missing work like the simulator's. The
/// table is allocated once and kept, so probing never returns a large
/// block to the allocator (which would move glibc's mmap threshold and,
/// with it, the workload's peak RSS).
pub struct CpuProbe {
    table: Vec<u64>,
}

impl CpuProbe {
    const WORDS: usize = 1 << 21;
    /// Size of the table, MiB: the probe's share of the peak RSS.
    pub const TABLE_MIB: f64 = (Self::WORDS * 8) as f64 / (1u64 << 20) as f64;
    const STEPS: u64 = 1_000_000;

    pub fn new() -> Self {
        CpuProbe {
            table: (0..Self::WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
        }
    }

    /// Host speed now, as a multiple of [`CPU_PROBE_REF`].
    pub fn speed(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut idx = 0usize;
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.table[idx] ^ x;
            self.table[idx] = v;
            idx = v as usize & (Self::WORDS - 1);
        }
        std::hint::black_box(&self.table);
        Self::STEPS as f64 / t.elapsed().as_secs_f64() / CPU_PROBE_REF
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // utime and stime are fields 14 and 15 of the line, in clock ticks;
    // counting resumes after the parenthesised command name (field 2).
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}
