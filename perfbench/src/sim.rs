//! The two simulator-plane workloads.
//!
//! * `sim_steady` — MinBFT f=1, 16 closed-loop clients × window 4,
//!   batch 8, flush 100, link occupancy 8 on the mesh placement (the F4
//!   configuration), no checkpoints, no faults, via `run_scenario`.
//! * `sim_recovery` — PBFT f=1, open-loop arrivals every 30 cycles over a
//!   262144-user hot set, 10-cycle links, batch 8, checkpoints every 128
//!   slots; the primary r0 is down over cycles 300k–400k (view change +
//!   CST catch-up) and r3 is rejuvenated at cycle 1M, via `run_open_loop`.
//!
//! The simulated interconnect and arrival schedule are fixed; the seed
//! draws the payloads, the issuing users and the provisioned keys. So the
//! virtual-time figures are the same on every seed, while the state the
//! replicas converge to differs. (With Poisson arrivals and jittered
//! links the recovery tail was bimodal across seeds — one or two view
//! changes — which no spread bound on `outage_cycles` can hold.)

use crate::trace::{Ledger, TracedCluster};
use crate::{Rep, Virt};
use rsoc_bft::adversary::{ReplicaScript, Scenario};
use rsoc_bft::api::{Cluster, ReplicaNode};
use rsoc_bft::minbft::MinBftCluster;
use rsoc_bft::pbft::PbftCluster;
use rsoc_bft::runner::{run_open_loop, run_scenario, LatencyModel, OpenLoopSpec, RunConfig};
use rsoc_crypto::Sha256;
use rsoc_sim::{Arrival, KeyDist, Window};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// sim_steady: closed-loop clients and requests each.
const STEADY_CLIENTS: u32 = 16;
const STEADY_REQUESTS: u64 = 4_000;
/// Ops per sim_steady run.
pub const STEADY_OPS: u64 = STEADY_CLIENTS as u64 * STEADY_REQUESTS;
const STEADY_WINDOW: usize = 4;

/// sim_recovery: ops per run (≈ 3M virtual cycles at mean gap 30).
pub const RECOVERY_OPS: u64 = 100_000;
/// Primary outage and backup rejuvenation, in virtual cycles.
const CRASH: (u64, u64) = (300_000, 400_000);
const REJUVENATE_AT: u64 = 1_000_000;

/// Ops the set-up probe drives to commit on a fresh cluster: a fixed
/// warm-up long enough (milliseconds) that timer resolution and
/// scheduling jitter do not set its spread.
const SETUP_OPS: u64 = 1_024;

fn steady_config(seed: u64, requests: u64) -> RunConfig {
    let n = 3u16;
    RunConfig::builder()
        .f(1)
        .clients(STEADY_CLIENTS)
        .requests_per_client(requests)
        .seed(seed)
        .latency(LatencyModel::MeshHops {
            replica_at: (0..n).map(|i| (i % 4, i / 4)).collect(),
            client_at: (0, 0),
            per_hop: 1,
            overhead: 3,
        })
        .max_cycles(200_000_000)
        .batch_size(8)
        .batch_flush(100)
        .link_occupancy(8)
        .client_window(STEADY_WINDOW)
        .client_timeout(4_000 * STEADY_WINDOW as u64)
        .request_patience(1_500 * STEADY_WINDOW as u64)
        .build()
}

fn recovery_config(seed: u64) -> RunConfig {
    RunConfig::builder()
        .f(1)
        .seed(seed)
        .latency(LatencyModel::Fixed(10))
        .max_cycles(200_000_000)
        .batch_size(8)
        .batch_flush(80)
        .checkpoint_interval(128)
        .build()
}

fn recovery_spec(total_ops: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        arrival: Arrival::Periodic { gap: 30 },
        mods: Vec::new(),
        users: KeyDist::HotSet { n: 262_144, hot: 512, hot_per_mille: 500 },
        total_ops,
    }
}

fn recovery_scenario() -> Scenario {
    Scenario::none()
        .script(0, ReplicaScript::correct().crash(Window::new(CRASH.0, CRASH.1)))
        .script(3, ReplicaScript::correct().rejuvenate_at(REJUVENATE_AT))
}

/// Hashes every node's final state into the fingerprint.
fn hash_nodes<C: Cluster>(h: &mut Sha256, cluster: &C) {
    for node in cluster.nodes() {
        let s = node.checkpoint_stats();
        h.update(&node.state_digest());
        for v in [node.committed_seq(), node.current_view(), s.stable_seq, s.transfers, s.rejected]
        {
            h.update(&v.to_le_bytes());
        }
    }
}

fn hash_u64s(h: &mut Sha256, values: &[u64]) {
    for v in values {
        h.update(&v.to_le_bytes());
    }
}

/// One sim_steady run; traced when a ledger sink is given.
pub fn steady(seed: u64, sink: Option<&Arc<Mutex<Ledger>>>) -> Rep {
    let cfg = steady_config(seed, STEADY_REQUESTS);
    let cluster = MinBftCluster::new(&cfg);
    match sink {
        None => steady_run(cluster, &cfg),
        Some(sink) => steady_run(TracedCluster::wrap(cluster, sink), &cfg),
    }
}

fn steady_run<C: Cluster>(mut cluster: C, cfg: &RunConfig) -> Rep {
    let t = Instant::now();
    let out = run_scenario(&mut cluster, cfg, &Scenario::none());
    let host_s = t.elapsed().as_secs_f64();
    let r = &out.report;
    let h = &r.commit_latency;
    let q = |x: f64| h.quantile(x).unwrap_or(0.0);
    let expected = u64::from(cfg.clients) * cfg.requests_per_client;
    let ok = r.safety_ok
        && r.committed == expected
        && r.requested == expected
        && h.count() as u64 == r.committed;
    let mut fp = Sha256::new();
    hash_u64s(
        &mut fp,
        &[r.committed, r.duration_cycles, r.messages_total, r.messages_protocol, r.client_retries],
    );
    for s in h.samples() {
        fp.update(&s.to_bits().to_le_bytes());
    }
    hash_nodes(&mut fp, &cluster);
    Rep {
        ops: r.committed,
        host_s,
        ok,
        fingerprint: fp.finalize(),
        virt: Virt {
            duration_cycles: r.duration_cycles,
            p50: q(0.5),
            p99: q(0.99),
            p999: q(0.999),
            max: q(1.0),
        },
        msgs: r.messages_total,
        retries: r.client_retries,
        ..Rep::default()
    }
}

/// One sim_recovery run; traced when a ledger sink is given.
pub fn recovery(seed: u64, sink: Option<&Arc<Mutex<Ledger>>>) -> Rep {
    let cfg = recovery_config(seed);
    let cluster = PbftCluster::new(&cfg);
    match sink {
        None => recovery_run(cluster, &cfg),
        Some(sink) => recovery_run(TracedCluster::wrap(cluster, sink), &cfg),
    }
}

fn recovery_run<C: Cluster>(mut cluster: C, cfg: &RunConfig) -> Rep {
    let spec = recovery_spec(RECOVERY_OPS);
    let scenario = recovery_scenario();
    let t = Instant::now();
    let r = run_open_loop(&mut cluster, cfg, &spec, &scenario);
    let host_s = t.elapsed().as_secs_f64();
    let q = |x: f64| r.latency.quantile(x).unwrap_or(0) as f64;
    let views = cluster.nodes().iter().map(|n| n.current_view()).max().unwrap_or(0);
    let transfers: u64 = cluster.nodes().iter().map(|n| n.checkpoint_stats().transfers).sum();
    // The faults must really have happened: a view change deposed the
    // crashed primary, and state transfer re-joined the wiped backup.
    let ok = r.safety_ok
        && r.issued == RECOVERY_OPS
        && r.committed == r.issued
        && r.latency.count() == r.committed
        && views >= 1
        && transfers >= 1;
    let mut fp = Sha256::new();
    hash_u64s(
        &mut fp,
        &[
            r.issued,
            r.committed,
            r.distinct_users,
            r.duration_cycles,
            r.messages_total,
            r.messages_protocol,
            r.retries,
        ],
    );
    let (idx, counts) = r.latency.to_sparse();
    hash_u64s(&mut fp, &idx);
    hash_u64s(&mut fp, &counts);
    hash_nodes(&mut fp, &cluster);
    Rep {
        ops: r.committed,
        host_s,
        ok,
        fingerprint: fp.finalize(),
        virt: Virt {
            duration_cycles: r.duration_cycles,
            p50: q(0.5),
            p99: q(0.99),
            p999: q(0.999),
            max: q(1.0),
        },
        msgs: r.messages_total,
        retries: r.retries,
        ..Rep::default()
    }
}

/// Set-up probe: key provisioning and cluster build, then the first
/// [`SETUP_OPS`] committed ops of a fresh cluster. Returns seconds, or
/// `None` if the probe did not commit what it issued.
pub fn steady_setup(seed: u64) -> Option<f64> {
    let cfg = steady_config(seed, SETUP_OPS / u64::from(STEADY_CLIENTS));
    let t = Instant::now();
    let mut cluster = MinBftCluster::new(&cfg);
    let r = run_scenario(&mut cluster, &cfg, &Scenario::none()).report;
    let s = t.elapsed().as_secs_f64();
    (r.committed == SETUP_OPS).then_some(s)
}

/// Set-up probe of sim_recovery (see [`steady_setup`]).
pub fn recovery_setup(seed: u64) -> Option<f64> {
    let cfg = recovery_config(seed);
    let t = Instant::now();
    let mut cluster = PbftCluster::new(&cfg);
    let r = run_open_loop(&mut cluster, &cfg, &recovery_spec(SETUP_OPS), &Scenario::none());
    let s = t.elapsed().as_secs_f64();
    (r.committed == SETUP_OPS).then_some(s)
}
