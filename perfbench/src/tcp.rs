//! The loopback TCP workload, `tcp_durable`: MinBFT f=1 with three
//! in-process serve loops, each durable in its own `rsoc_store` data
//! directory, checkpoints every 1024 ops, batch 1, 50 µs cycles; one
//! closed-loop caller (`run_cluster_client`, one logical client) with one
//! connection per replica.
//!
//! Every run builds a fresh cluster in fresh directories, since the same
//! op log replayed on an old cluster would be answered from the dedup
//! cache. The simulator runs the same op log once per process (the
//! "twin"): its final digest is what every replica must converge to,
//! and its virtual-time figures are the workload's cycle metrics.

use crate::trace::{Ledger, Traced};
use crate::{Rep, Virt};
use rsoc_bft::api::{Cluster, ReplicaNode};
use rsoc_bft::minbft::{MinBftCluster, MinBftMsg};
use rsoc_bft::runner::{run, LatencyModel, RunConfig};
use rsoc_sim::LogHistogram;
use rsoc_store::DataDir;
use rsoc_transport::{
    decode_envelope, encode_envelope, read_frame, serve, write_frame, ClientConfig, Envelope,
    Protocol, ServeReport, WallClock,
};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Ops per run.
pub const OPS: u64 = 8_000;
const F: u32 = 1;
const PAYLOAD: usize = 32;
const CHECKPOINT_INTERVAL: u64 = 1_024;
/// Node clock: one cycle is 50 µs.
const CYCLE_NS: u64 = 50_000;
/// Longest a set-up probe or shutdown waits on one replica.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

fn config(seed: u64) -> RunConfig {
    RunConfig::builder()
        .f(F)
        .seed(seed)
        .clients(1)
        .requests_per_client(OPS)
        .payload_size(PAYLOAD)
        .checkpoint_interval(CHECKPOINT_INTERVAL)
        .latency(LatencyModel::Fixed(10))
        .build()
}

/// The simulator run of the same op log and protocol configuration:
/// `(virtual figures, reference digest)`, or `None` if it failed.
pub fn twin(seed: u64) -> Option<(Virt, [u8; 32])> {
    let cfg = config(seed);
    let mut cluster = MinBftCluster::new(&cfg);
    let r = run(&mut cluster, &cfg);
    if !r.safety_ok || r.committed != OPS {
        return None;
    }
    let h = &r.commit_latency;
    let q = |x: f64| h.quantile(x).unwrap_or(0.0);
    let virt = Virt {
        duration_cycles: r.duration_cycles,
        p50: q(0.5),
        p99: q(0.99),
        p999: q(0.999),
        max: q(1.0),
    };
    Some((virt, cluster.nodes()[0].state_digest()))
}

/// Linear interpolation inside the log-histogram bucket holding the
/// nearest-rank `q`-quantile: the recorded bucket counts place the rank
/// within the bucket's value range. The bucket's bound alone (what
/// `LatencySummary` reports) is quantized to ~3% steps and would read the
/// same on most runs whatever changed within a step.
fn interpolated_quantile(h: &LogHistogram, q: f64) -> f64 {
    let (indices, counts) = h.to_sparse();
    let rank = (q * h.count() as f64).ceil().max(1.0);
    let mut below = 0u64;
    for (i, c) in indices.iter().zip(&counts) {
        if (below + c) as f64 >= rank {
            let (lo, hi) = LogHistogram::bucket_bounds(*i as usize);
            let width = (hi - lo + 1) as f64;
            return lo as f64 + width * (rank - below as f64) / *c as f64;
        }
        below += c;
    }
    0.0
}

/// Opens one client connection and sends its hello.
fn dial(addr: &str) -> io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(PROBE_TIMEOUT))?;
    write_frame(&mut s, &encode_envelope::<MinBftMsg>(&Envelope::HelloClient { ids: Vec::new() }))?;
    Ok(s)
}

/// The last step of set-up: a client connection to every replica whose
/// digest query is answered, which proves every serve loop is running.
/// The query changes no replica state.
fn probe(addrs: &[String]) -> io::Result<()> {
    for addr in addrs {
        let mut s = dial(addr)?;
        write_frame(&mut s, &encode_envelope::<MinBftMsg>(&Envelope::DigestQuery))?;
        loop {
            let body = read_frame(&mut s)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "probe: closed"))?;
            if let Some(Envelope::DigestReply { .. }) = decode_envelope::<MinBftMsg>(&body) {
                break;
            }
        }
    }
    Ok(())
}

/// Ends every serve loop still running (after a failed client run).
fn shutdown(addrs: &[String]) {
    for addr in addrs {
        if let Ok(mut s) = dial(addr) {
            let _ = write_frame(&mut s, &encode_envelope::<MinBftMsg>(&Envelope::Shutdown));
        }
    }
}

/// One replica's serve loop: through `Protocol::serve` untraced, or
/// through the few lines of its node extraction with the node wrapped.
fn serve_replica(
    id: u32,
    cfg: &RunConfig,
    listener: TcpListener,
    addrs: Vec<String>,
    dir: &Path,
    sink: Option<&Arc<Mutex<Ledger>>>,
) -> io::Result<ServeReport> {
    let clock = WallClock::new(CYCLE_NS);
    let data = dir.join(format!("r{id}"));
    let Some(sink) = sink else {
        return Protocol::MinBft.serve(id, cfg, listener, addrs, clock, Some(&data)).map(|r| r.0);
    };
    let mut nodes = MinBftCluster::new(cfg).into_nodes();
    let mut node = nodes.swap_remove(id as usize);
    let (store, state) = DataDir::open(&data)?;
    node.recover(state);
    let (tee, _) = DataDir::open(dir.join(format!("tee{id}")))?;
    serve(Traced::new(node, sink.clone()).with_tees(tee), listener, addrs, clock, Some(store))
}

/// One tcp_durable run in the empty directory `dir`; traced when a
/// ledger sink is given. `reference` is the twin's digest.
pub fn rep(seed: u64, dir: &Path, sink: Option<&Arc<Mutex<Ledger>>>, reference: [u8; 32]) -> Rep {
    let cfg = config(seed);
    let start = Instant::now();
    let listeners: io::Result<Vec<TcpListener>> =
        (0..Protocol::MinBft.cluster_size(F)).map(|_| TcpListener::bind("127.0.0.1:0")).collect();
    let Ok(listeners) = listeners else { return Rep::default() };
    let addrs: Vec<String> =
        listeners.iter().filter_map(|l| l.local_addr().ok()).map(|a| a.to_string()).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                let (cfg, addrs) = (&cfg, addrs.clone());
                scope.spawn(move || serve_replica(id as u32, cfg, listener, addrs, dir, sink))
            })
            .collect();
        let mut rep = Rep::default();
        let mut ok = probe(&addrs).is_ok();
        rep.setup = vec![start.elapsed().as_secs_f64()];
        let client = ClientConfig {
            addrs: addrs.clone(),
            clients: 1,
            requests_per_client: OPS,
            payload_size: PAYLOAD,
            seed,
            quorum: Protocol::MinBft.reply_quorum(F),
            op_timeout: Duration::from_millis(500),
            max_retries: 20,
            settle_timeout: Duration::from_secs(30),
        };
        let cpu = crate::host::cpu_seconds();
        let t = Instant::now();
        let report = if ok { Protocol::MinBft.client(&client).ok() } else { None };
        rep.host_s = t.elapsed().as_secs_f64();
        rep.cpu_s = crate::host::cpu_seconds() - cpu;
        if report.is_none() {
            shutdown(&addrs);
        }
        let served: Vec<Option<ServeReport>> =
            handles.into_iter().map(|h| h.join().ok().and_then(Result::ok)).collect();
        match report {
            Some(report) => {
                ok &= report.committed == OPS && report.digest == reference;
                for s in &served {
                    ok &= matches!(s, Some(s) if s.committed == OPS && s.digest == report.digest);
                }
                rep.ops = report.committed;
                rep.retries = report.retransmits;
                rep.wall_us = Some((
                    interpolated_quantile(&report.latency_hist, 0.5),
                    interpolated_quantile(&report.latency_hist, 0.99),
                ));
                rep.fingerprint = report.digest;
            }
            None => ok = false,
        }
        rep.ok = ok;
        rep
    })
}
