//! The traced run's wrappers: a [`ReplicaNode`] that times every call
//! into the real node and a [`Cluster`] that hands those wrapped nodes to
//! the unchanged simulator runner.
//!
//! Everything is measured from outside the program: host time around
//! `on_input`, the outbox classified by message kind, and the public
//! counters (`checkpoint_stats()`, `current_view()`, MinBFT `mac_ops()`).
//! On the TCP plane the wrapper also tees the codec (`encode_envelope` /
//! `decode_envelope` once per destination, as the plane's dispatch does)
//! and the store (`DataDir::persist` on a copy of every drained durable
//! event, written into a directory of the benchmark's own).

use rsoc_bft::adversary::ReplicaScript;
use rsoc_bft::api::{Cluster, Endpoint, Input, LogEntry, Outbox, ReplicaId, ReplicaNode, Reply};
use rsoc_bft::checkpoint::CheckpointStats;
use rsoc_bft::codec::{encode_frame, Wire};
use rsoc_bft::durable::{DurableEvent, RecoveredState, RecoveryReport};
use rsoc_bft::minbft::{MinBftMsg, MinBftReplica};
use rsoc_bft::pbft::{PbftMsg, PbftReplica};
use rsoc_bft::Request;
use rsoc_store::{DataDir, WalRecord};
use rsoc_transport::{decode_envelope, encode_envelope, Envelope};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a node type exposes to the wrappers beyond [`ReplicaNode`].
pub trait Probe: ReplicaNode {
    /// USIG certificates created plus verified (0 for protocols without).
    fn macs(&self) -> u64;
    /// Installs a fault script (the protocols' inherent `set_script`).
    fn install(&mut self, script: ReplicaScript);
    /// Whether the installed script makes this replica Byzantine.
    fn byzantine(&self) -> bool;
    /// True for a checkpoint voucher.
    fn is_voucher(msg: &Self::Msg) -> bool;
    /// True for a state-transfer response.
    fn is_transfer(msg: &Self::Msg) -> bool;
}

impl Probe for MinBftReplica {
    fn macs(&self) -> u64 {
        let (created, verified) = self.mac_ops();
        created + verified
    }
    fn install(&mut self, script: ReplicaScript) {
        self.set_script(script);
    }
    fn byzantine(&self) -> bool {
        self.script().is_byzantine()
    }
    fn is_voucher(msg: &MinBftMsg) -> bool {
        matches!(msg, MinBftMsg::Checkpoint(_))
    }
    fn is_transfer(msg: &MinBftMsg) -> bool {
        matches!(msg, MinBftMsg::StateResponse(_))
    }
}

impl Probe for PbftReplica {
    fn macs(&self) -> u64 {
        0
    }
    fn install(&mut self, script: ReplicaScript) {
        self.set_script(script);
    }
    fn byzantine(&self) -> bool {
        self.script().is_byzantine()
    }
    fn is_voucher(msg: &PbftMsg) -> bool {
        matches!(msg, PbftMsg::Checkpoint(_))
    }
    fn is_transfer(msg: &PbftMsg) -> bool {
        matches!(msg, PbftMsg::StateResponse(_))
    }
}

/// Per-layer totals, summed over every traced node (views and
/// watermarks take the maximum).
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub inputs: u64,
    pub node_ns: u64,
    pub sends: u64,
    pub ckpt_steps: u64,
    pub ckpt_ns: u64,
    pub cst_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub codec_bytes: u64,
    pub codec_errors: u64,
    pub persist_ns: u64,
    pub records: u64,
    pub store_bytes: u64,
    pub snapshots: u64,
    pub store_errors: u64,
    pub macs: u64,
    pub transfers: u64,
    pub view: u64,
    pub stable_seq: u64,
}

impl Ledger {
    pub fn merge(&mut self, o: &Ledger) {
        self.inputs += o.inputs;
        self.node_ns += o.node_ns;
        self.sends += o.sends;
        self.ckpt_steps += o.ckpt_steps;
        self.ckpt_ns += o.ckpt_ns;
        self.cst_ns += o.cst_ns;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.codec_bytes += o.codec_bytes;
        self.codec_errors += o.codec_errors;
        self.persist_ns += o.persist_ns;
        self.records += o.records;
        self.store_bytes += o.store_bytes;
        self.snapshots += o.snapshots;
        self.store_errors += o.store_errors;
        self.macs += o.macs;
        self.transfers += o.transfers;
        self.view = self.view.max(o.view);
        self.stable_seq = self.stable_seq.max(o.stable_seq);
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A node whose every call is delegated to the real one. Its ledger is
/// merged into the shared sink when the node is dropped, which is how
/// the totals leave a TCP serve loop that owns the node.
pub struct Traced<N: Probe> {
    inner: N,
    ledger: Ledger,
    sink: Arc<Mutex<Ledger>>,
    /// TCP plane only: encode/decode every outgoing message and persist
    /// a copy of every durable event here.
    store_tee: Option<DataDir>,
}

impl<N: Probe> Traced<N> {
    pub fn new(inner: N, sink: Arc<Mutex<Ledger>>) -> Self {
        Traced { inner, ledger: Ledger::default(), sink, store_tee: None }
    }

    /// Adds the codec and store tees of the TCP plane.
    pub fn with_tees(mut self, store: DataDir) -> Self {
        self.store_tee = Some(store);
        self
    }
}

impl<N: Probe> Drop for Traced<N> {
    fn drop(&mut self) {
        let s = self.inner.checkpoint_stats();
        self.ledger.macs = self.inner.macs();
        self.ledger.transfers = s.transfers;
        self.ledger.stable_seq = s.stable_seq;
        self.ledger.view = self.inner.current_view();
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.ledger);
        }
    }
}

impl<N> ReplicaNode for Traced<N>
where
    N: Probe,
    N::Msg: Wire,
{
    type Msg = N::Msg;

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_input(&mut self, input: Input<N::Msg>, now: u64, out: &mut Outbox<N::Msg>) {
        let first = out.msgs.len();
        let transfers = self.inner.checkpoint_stats().transfers;
        let t = Instant::now();
        self.inner.on_input(input, now, out);
        let ns = ns_since(t);
        let l = &mut self.ledger;
        l.inputs += 1;
        l.node_ns += ns;
        let sent = &out.msgs[first..];
        l.sends += sent.len() as u64;
        if sent.iter().any(|(_, m)| N::is_voucher(m)) {
            l.ckpt_steps += 1;
            l.ckpt_ns += ns;
        }
        if sent.iter().any(|(_, m)| N::is_transfer(m))
            || self.inner.checkpoint_stats().transfers > transfers
        {
            l.cst_ns += ns;
        }
        if self.store_tee.is_some() {
            let from = Endpoint::Replica(self.inner.id());
            for (_, msg) in sent {
                let env = Envelope::Msg { from, msg: msg.clone() };
                let t = Instant::now();
                let body = encode_envelope(&env);
                l.encode_ns += ns_since(t);
                let t = Instant::now();
                let back = decode_envelope::<N::Msg>(&body);
                l.decode_ns += ns_since(t);
                l.codec_bytes += body.len() as u64;
                if back.is_none() {
                    l.codec_errors += 1;
                }
            }
        }
    }

    fn committed_log(&self) -> &[LogEntry] {
        self.inner.committed_log()
    }

    fn make_request(req: Arc<Request>) -> N::Msg {
        N::make_request(req)
    }

    fn as_reply(msg: &N::Msg) -> Option<&Reply> {
        N::as_reply(msg)
    }

    fn state_digest(&self) -> [u8; 32] {
        self.inner.state_digest()
    }

    fn current_view(&self) -> u64 {
        self.inner.current_view()
    }

    fn committed_seq(&self) -> u64 {
        self.inner.committed_seq()
    }

    fn wipe(&mut self) {
        self.inner.wipe();
    }

    fn checkpoint_stats(&self) -> CheckpointStats {
        self.inner.checkpoint_stats()
    }

    fn checkpoint_history(&self) -> &[(u64, [u8; 32])] {
        self.inner.checkpoint_history()
    }

    fn enable_durability(&mut self) {
        self.inner.enable_durability();
    }

    fn drain_durable(&mut self, out: &mut Vec<DurableEvent>) {
        let first = out.len();
        self.inner.drain_durable(out);
        let Some(store) = self.store_tee.as_mut() else { return };
        let events = &out[first..];
        if events.is_empty() {
            return;
        }
        let l = &mut self.ledger;
        let t = Instant::now();
        if store.persist(events).is_err() {
            l.store_errors += 1;
        }
        l.persist_ns += ns_since(t);
        let mut buf = Vec::new();
        for event in events {
            match event {
                DurableEvent::Commit { seq, batch } => {
                    encode_frame(&WalRecord::Commit { seq: *seq, batch: batch.clone() }, &mut buf);
                    l.records += 1;
                }
                DurableEvent::UsigCounter(c) => {
                    encode_frame(&WalRecord::UsigCounter(*c), &mut buf);
                    l.records += 1;
                }
                DurableEvent::Stable { snapshot, .. } => {
                    l.store_bytes += snapshot.len() as u64;
                    l.snapshots += 1;
                }
            }
        }
        l.store_bytes += buf.len() as u64;
    }

    fn recover(&mut self, state: RecoveredState) -> RecoveryReport {
        self.inner.recover(state)
    }
}

/// A cluster of traced nodes, driven by the unchanged runner.
pub struct TracedCluster<N: Probe> {
    nodes: Vec<Traced<N>>,
    quorum: usize,
    name: &'static str,
}

impl<N: Probe> TracedCluster<N> {
    pub fn wrap<C: Cluster<Node = N>>(cluster: C, sink: &Arc<Mutex<Ledger>>) -> Self {
        let quorum = cluster.reply_quorum();
        let name = cluster.protocol_name();
        let nodes =
            cluster.into_nodes().into_iter().map(|n| Traced::new(n, sink.clone())).collect();
        TracedCluster { nodes, quorum, name }
    }
}

impl<N> Cluster for TracedCluster<N>
where
    N: Probe,
    N::Msg: Wire,
{
    type Node = Traced<N>;

    fn nodes_mut(&mut self) -> &mut [Traced<N>] {
        &mut self.nodes
    }

    fn nodes(&self) -> &[Traced<N>] {
        &self.nodes
    }

    fn reply_quorum(&self) -> usize {
        self.quorum
    }

    fn protocol_name(&self) -> &'static str {
        self.name
    }

    fn correct_replicas(&self) -> Vec<ReplicaId> {
        self.nodes.iter().filter(|n| !n.inner.byzantine()).map(|n| n.id()).collect()
    }

    fn set_script(&mut self, id: ReplicaId, script: ReplicaScript) {
        self.nodes[id.0 as usize].inner.install(script);
    }

    fn into_nodes(self) -> Vec<Traced<N>> {
        self.nodes
    }
}
