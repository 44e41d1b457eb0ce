//! perfbench — end-to-end and per-layer benchmark of the replicated-SoC
//! protocol stack.
//!
//! ```text
//! perfbench --workload <sim_steady|sim_recovery|tcp_durable> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one fixed-size workload run ("rep") about as often as
//! fits in `--seconds` on the reference host and reports medians over the
//! reps. Each rep is bracketed by host-speed probes, and host and wall
//! times are scaled to a reference host speed (see [`host`]). Both forms
//! of every host- and wall-time metric, scaled and as measured, go to
//! stderr, for the steadiness record.
//!
//! With `--trace 0` every rep calls the public entry points directly and
//! the end-to-end metrics are printed; with `--trace 1` reps alternate
//! between direct and wrapped ([`trace`]) calls and the per-layer ledger
//! is printed, with the tracing overhead. Every rep is checked, and a
//! failed check counts all of that rep's ops as failed. The last line of stdout is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.

mod host;
mod sim;
mod tcp;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use trace::Ledger;

/// Virtual-time figures of one run, in simulator cycles.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Virt {
    pub duration_cycles: u64,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

/// What one rep measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Committed ops.
    pub ops: u64,
    /// Host (simulator) or wall (TCP) seconds of the measured call.
    pub host_s: f64,
    /// Process CPU seconds during the measured call (TCP only).
    pub cpu_s: f64,
    /// Set-up spans, seconds: on TCP this rep's own cluster start-up; on
    /// the simulator the set-up probes run just before the rep.
    pub setup: Vec<f64>,
    /// Every output check passed.
    pub ok: bool,
    /// Digest of every simulated statistic (sim) or the converged state
    /// digest (TCP); identical on every rep of one seed.
    pub fingerprint: [u8; 32],
    pub virt: Virt,
    /// Wall-clock commit latency p50 and p99, µs (TCP only).
    pub wall_us: Option<(f64, f64)>,
    pub msgs: u64,
    pub retries: u64,
    /// Host speed around the rep (mean of the probes before and after it),
    /// as a multiple of the reference speed.
    pub speed: f64,
}

impl Rep {
    /// Seconds of the measured call: at reference host speed if `scaled`,
    /// else as measured.
    fn secs(&self, scaled: bool) -> f64 {
        if scaled {
            self.host_s * self.speed
        } else {
            self.host_s
        }
    }

    fn ops_per_s(&self, scaled: bool) -> f64 {
        self.ops as f64 / self.secs(scaled)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    SimSteady,
    SimRecovery,
    TcpDurable,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "sim_steady" => Some(Workload::SimSteady),
            "sim_recovery" => Some(Workload::SimRecovery),
            "tcp_durable" => Some(Workload::TcpDurable),
            _ => None,
        }
    }

    /// Ops every rep must commit.
    fn ops(self) -> u64 {
        match self {
            Workload::SimSteady => sim::STEADY_OPS,
            Workload::SimRecovery => sim::RECOVERY_OPS,
            Workload::TcpDurable => tcp::OPS,
        }
    }

    /// Nominal seconds of one rep and its probe on the reference host:
    /// a run makes `--seconds` / this many reps, so the work a run does
    /// depends on `--seconds` only, never on the host's speed.
    fn rep_seconds(self) -> f64 {
        match self {
            Workload::SimSteady => 0.8,
            Workload::SimRecovery => 14.0,
            Workload::TcpDurable => 2.5,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn hex(d: &[u8; 32]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Set-up probes per simulator run at least; the median is reported.
const SETUP_PROBES: usize = 16;
/// Reps a run makes at least.
const MIN_REPS: usize = 2;

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let (w, seed) = (args.workload, args.seed);
    let mut probe = host::CpuProbe::new();
    let mut speed = || probe.speed();

    // TCP first runs the simulator twin that gives the reference digest.
    let twin = match w {
        Workload::TcpDurable => {
            Some(tcp::twin(seed).ok_or("the simulator twin failed its checks")?)
        }
        _ => None,
    };
    let reference = twin.as_ref().map_or([0; 32], |t| t.1);
    let reps = ((args.seconds as f64 / w.rep_seconds()).round() as usize).max(MIN_REPS);
    // Set-up on the simulator is timed apart from the measured runs: probes
    // from nothing to the end of a fixed warm-up, spread over the run
    // just before each rep, so that they see the host as the reps do and
    // share the reps' host-speed probes. The first probe of each group is
    // run and dropped: it pays for the previous rep's teardown and the
    // host-speed probe's cache eviction, and read 1-3x the others. On TCP
    // each rep times its own cluster start-up.
    let probes = 1 + SETUP_PROBES.div_ceil(reps);
    let tmp = Path::new(".perfbench_tmp").join(std::process::id().to_string());
    let run_rep = |i: usize, sink: Option<&Arc<Mutex<Ledger>>>| -> Result<Rep, String> {
        if w == Workload::TcpDurable {
            let dir = tmp.join(format!("rep{i}"));
            let rep = tcp::rep(seed, &dir, sink, reference);
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(rep);
        }
        let setup = (0..probes)
            .map(|_| match w {
                Workload::SimSteady => sim::steady_setup(seed),
                _ => sim::recovery_setup(seed),
            })
            .collect::<Option<Vec<f64>>>()
            .ok_or("a set-up probe did not commit its ops")?
            .split_off(1);
        let rep = match w {
            Workload::SimSteady => sim::steady(seed, sink),
            _ => sim::recovery(seed, sink),
        };
        Ok(Rep { setup, ..rep })
    };

    // Measurement: direct reps, alternating with wrapped ones under
    // --trace 1.
    let sink = Arc::new(Mutex::new(Ledger::default()));
    let (mut direct, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Peak RSS through set-up and the first rep: one cluster's lifetime.
    // Later reps only add what the allocator keeps from earlier ones. The
    // probe's table is the benchmark's, not the program's.
    let mut peak_rss = 0.0;
    let mut before = speed();
    for i in 0..reps {
        let wrap = args.trace && i % 2 == 1;
        let mut rep = run_rep(i, wrap.then_some(&sink))?;
        let after = speed();
        rep.speed = (before + after) / 2.0;
        before = after;
        eprintln!(
            "perfbench: rep {i}{}: {} ops in {:.3} s, host speed {:.3}, {:.1} ops/s, {:.1} at reference speed, set-up {:.5?} s{}{}",
            if wrap { " (traced)" } else { "" },
            rep.ops,
            rep.host_s,
            rep.speed,
            rep.ops_per_s(false),
            rep.ops_per_s(true),
            rep.setup,
            rep.wall_us.map(|(p50, p99)| format!(", raw p50 {p50:.1} us p99 {p99:.1} us")).unwrap_or_default(),
            if rep.ok { "" } else { ", FAILED CHECKS" }
        );
        attempted += w.ops();
        if !rep.ok {
            failed += w.ops();
        }
        if i == 0 {
            peak_rss = host::peak_rss_mib() - host::CpuProbe::TABLE_MIB;
        }
        if wrap { &mut traced } else { &mut direct }.push(rep);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    // Every rep of one seed must reproduce the same simulated statistics
    // (sim) or converge on the same digest (TCP), traced or not; a rep
    // that does not fails all of its ops.
    let first = &direct[0];
    let diverged = direct
        .iter()
        .chain(&traced)
        .filter(|r| r.ok && (r.fingerprint != first.fingerprint || r.virt != first.virt))
        .count() as u64;
    failed += diverged * w.ops();
    let mut correct = failed == 0;
    eprintln!(
        "perfbench: {} direct + {} traced reps, fingerprint {}, median host speed {:.3}",
        direct.len(),
        traced.len(),
        hex(&first.fingerprint),
        median(direct.iter().map(|r| r.speed)),
    );

    let metrics = if args.trace {
        let ledger = sink.lock().map(|l| l.clone()).map_err(|_| "ledger lock poisoned")?;
        correct &= ledger.codec_errors == 0 && ledger.store_errors == 0;
        layer_metrics(w, &ledger, &traced, median(direct.iter().map(|r| r.ops_per_s(true))))
    } else {
        let setup: Vec<(f64, f64)> =
            direct.iter().flat_map(|r| r.setup.iter().map(|&t| (t, r.speed))).collect();
        eprintln!(
            "perfbench: host-time {{\"scaled\": {{{}}}, \"raw\": {{{}}}}}",
            json(&timed(w, &direct, &setup, true)),
            json(&timed(w, &direct, &setup, false)),
        );
        end_to_end(w, &direct, twin.as_ref().map(|t| &t.0), &setup, peak_rss)
    };
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>18.4} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json(&metrics)
    );
    Ok(())
}

/// The members of a JSON object of metrics, `"name": {"value", "unit"}`.
fn json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    body.join(", ")
}

/// The host- and wall-time end-to-end metrics, at reference host speed
/// if `scaled`, else as measured. `setup` holds each set-up span with the
/// host speed around it.
///
/// `commit_p50_us` and `commit_p99_us` apply to TCP only, where they are
/// the caller's wall-clock commit latency. A simulated op has no host-time
/// latency of its own, so on the simulator both carry the host time per
/// committed op (`1e6 / ops_per_s`): defined and never 0, as every metric
/// must be on every workload, and moving only with `ops_per_s`.
fn timed(w: Workload, direct: &[Rep], setup: &[(f64, f64)], scaled: bool) -> Metrics {
    let k = |t: f64, speed: f64| if scaled { t * speed } else { t };
    let ops_per_s = median(direct.iter().map(|r| r.ops_per_s(scaled)));
    let (p50, p99) = match w {
        Workload::TcpDurable => {
            let wall = |pick: fn((f64, f64)) -> f64| {
                median(direct.iter().map(|r| k(r.wall_us.map_or(0.0, pick), r.speed)))
            };
            (wall(|l| l.0), wall(|l| l.1))
        }
        _ => (1e6 / ops_per_s, 1e6 / ops_per_s),
    };
    vec![
        ("ops_per_s", ops_per_s, "1/s"),
        ("commit_p50_us", p50, "us"),
        ("commit_p99_us", p99, "us"),
        ("setup_s", median(setup.iter().map(|&(t, speed)| k(t, speed))), "s"),
    ]
}

/// The end-to-end metrics. Cycle metrics are the simulator's virtual
/// time. They apply to the simulator workloads only; on TCP they carry
/// the simulator twin's figures (same op log and protocol configuration),
/// which are defined and never 0 but cannot move with the TCP plane.
fn end_to_end(
    w: Workload,
    direct: &[Rep],
    twin: Option<&Virt>,
    setup: &[(f64, f64)],
    peak_rss: f64,
) -> Metrics {
    let virt = twin.unwrap_or(&direct[0].virt);
    let mut m = timed(w, direct, setup, true);
    m.extend([
        ("ops_per_kcycle", w.ops() as f64 * 1000.0 / virt.duration_cycles as f64, "1/kcycle"),
        ("commit_p50_cycles", virt.p50, "cycles"),
        ("commit_p99_cycles", virt.p99, "cycles"),
        ("commit_p999_cycles", virt.p999, "cycles"),
        ("outage_cycles", virt.max, "cycles"),
        ("peak_rss_mib", peak_rss, "MiB"),
    ]);
    m
}

/// The per-layer ledger of the traced reps. Every metric is printed on
/// every workload; a layer the workload bypasses reads 0. Times are at
/// reference host speed; counts are per rep.
fn layer_metrics(w: Workload, l: &Ledger, traced: &[Rep], direct_ops_per_s: f64) -> Metrics {
    let reps = traced.len() as f64;
    let ops = traced.iter().map(|r| r.ops).sum::<u64>().max(1) as f64;
    let speed = median(traced.iter().map(|r| r.speed));
    let host_ns = traced.iter().map(|r| r.host_s).sum::<f64>() * 1e9;
    let ns_per_op = |ns: f64| ns * speed / ops;
    let share = |ns: f64| ns / host_ns;
    let per_rep = |n: u64| n as f64 / reps;
    let sim = w != Workload::TcpDurable;
    let on_sim = |x: f64| if sim { x } else { 0.0 };
    let on_tcp = |x: f64| if sim { 0.0 } else { x };
    let node_ns = l.node_ns as f64;
    let driver_ns = (host_ns - node_ns).max(0.0);
    let measured_ns = node_ns + (l.encode_ns + l.decode_ns + l.persist_ns) as f64;
    let msgs: u64 = traced.iter().map(|r| r.msgs).sum();
    let retries: u64 = traced.iter().map(|r| r.retries).sum();
    let cpu_s: f64 = traced.iter().map(|r| r.cpu_s).sum();
    vec![
        ("driver.ns_per_op", on_sim(ns_per_op(driver_ns)), "ns/op"),
        ("driver.host_share", on_sim(share(driver_ns)), "share"),
        ("driver.msgs_per_op", on_sim(msgs as f64 / ops), "msgs/op"),
        ("driver.client_retries", on_sim(per_rep(retries)), "count"),
        ("bft.node_ns_per_op", ns_per_op(node_ns), "ns/op"),
        ("bft.host_share", share(node_ns), "share"),
        ("bft.inputs_per_op", l.inputs as f64 / ops, "inputs/op"),
        ("bft.sends_per_op", l.sends as f64 / ops, "msgs/op"),
        ("bft.macs_per_op", l.macs as f64 / ops, "macs/op"),
        ("bft.view_changes", l.view as f64, "count"),
        ("ckpt.step_ns_per_op", ns_per_op(l.ckpt_ns as f64), "ns/op"),
        ("ckpt.host_share", share(l.ckpt_ns as f64), "share"),
        ("ckpt.steps", per_rep(l.ckpt_steps), "count"),
        ("ckpt.stable_seq", l.stable_seq as f64, "seq"),
        ("cst.step_ns", l.cst_ns as f64 * speed / reps, "ns"),
        ("cst.transfers", per_rep(l.transfers), "count"),
        ("codec.encode_ns_per_op", ns_per_op(l.encode_ns as f64), "ns/op"),
        ("codec.decode_ns_per_op", ns_per_op(l.decode_ns as f64), "ns/op"),
        ("codec.bytes_per_op", l.codec_bytes as f64 / ops, "B/op"),
        ("store.persist_ns_per_op", ns_per_op(l.persist_ns as f64), "ns/op"),
        ("store.records_per_op", l.records as f64 / ops, "records/op"),
        ("store.bytes_per_op", l.store_bytes as f64 / ops, "B/op"),
        ("store.snapshots", per_rep(l.snapshots), "count"),
        ("plane.cpu_us_per_op", on_tcp(ns_per_op(cpu_s * 1e9) / 1e3), "us/op"),
        ("plane.other_us_per_op", on_tcp(ns_per_op(host_ns - measured_ns) / 1e3), "us/op"),
        ("plane.retransmits", on_tcp(per_rep(retries)), "count"),
        ("host.speed", speed, "ratio"),
        (
            "trace.overhead",
            1.0 - median(traced.iter().map(|r| r.ops_per_s(true))) / direct_ops_per_s,
            "share",
        ),
    ]
}
