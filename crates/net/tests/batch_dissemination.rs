//! Batch dissemination over real sockets.
//!
//! Four [`NetNode`]s run: client transactions enter via
//! [`NetNode::submit_tx`], are batched and pushed to every peer on the
//! one link each node keeps to it, and the consensus layer orders only
//! 32-byte digests. A vertex enters a node's DAG only once the batches
//! it names are stored there, so every node resolves the digests back
//! to transaction bytes and produces byte-identical logs — including a
//! node behind a frame proxy that drops every batch a peer sends of its
//! own, which gets every peer batch from a third party through the
//! missing-batch fetch protocol.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dagrider_core::{NodeConfig, NodeMessage};
use dagrider_crypto::{deal_coin_keys, CoinKeys};
use dagrider_net::{read_frame, write_frame, NetConfig, NetNode, WireMsg};
use dagrider_rbc::{BrachaMessage, BrachaRbc};
use dagrider_types::{Committee, Decode, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Cluster {
    committee: Committee,
    addrs: Vec<SocketAddr>,
    keys: Vec<CoinKeys>,
    node_config: NodeConfig,
    seed: u64,
}

impl Cluster {
    fn prepare(n: usize, seed: u64, max_round: u64) -> (Self, Vec<TcpListener>) {
        let committee = Committee::new(n).unwrap();
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
        let node_config = NodeConfig::default().with_max_round(max_round);
        (Self { committee, addrs, keys, node_config, seed }, listeners)
    }

    fn start(
        &self,
        index: usize,
        listener: TcpListener,
        tune: impl FnOnce(NetConfig) -> NetConfig,
    ) -> NetNode {
        let config = NetConfig::new(
            self.committee,
            ProcessId::new(index as u32),
            self.addrs.clone(),
            self.node_config.clone(),
            self.keys[index].clone(),
            self.seed.wrapping_add(index as u64),
        )
        .with_sync_timeout(Duration::from_millis(500));
        NetNode::start::<BrachaRbc>(tune(config), Some(listener)).unwrap()
    }
}

fn await_quiescence(nodes: &[&NetNode], max_round: u64, grace: Duration, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    let mut lens: Vec<usize> = nodes.iter().map(|n| n.ordered_len()).collect();
    let mut stable_since = Instant::now();
    loop {
        assert!(Instant::now() < deadline, "cluster failed to quiesce within {timeout:?}");
        std::thread::sleep(Duration::from_millis(100));
        let now_lens: Vec<usize> = nodes.iter().map(|n| n.ordered_len()).collect();
        if now_lens != lens {
            lens = now_lens;
            stable_since = Instant::now();
        }
        let rounds_done = nodes.iter().all(|n| n.current_round().number() >= max_round);
        // Require every log at the same (non-zero) length before calling
        // the cluster quiesced: a node can trail by a whole wave while
        // its coin shares and retroactive commits drain, and sampling it
        // mid-catch-up reads as divergence when it is only lag.
        let converged = lens[0] > 0 && lens.iter().all(|&l| l == lens[0]);
        if rounds_done && converged && stable_since.elapsed() >= grace {
            return;
        }
    }
}

/// Asserts all ordered logs are identical **including the resolved
/// transaction payloads** (digest resolution must converge on the same
/// bytes everywhere), and returns node 0's log length.
fn assert_identical_logs_with_payloads(nodes: &[&NetNode]) -> usize {
    let reference: Vec<_> =
        nodes[0].ordered().iter().map(|o| (o.vertex, o.block.clone())).collect();
    for (i, node) in nodes.iter().enumerate().skip(1) {
        let log: Vec<_> = node.ordered().iter().map(|o| (o.vertex, o.block.clone())).collect();
        assert_eq!(log, reference, "node {i} ordered a different sequence or payloads");
    }
    reference.len()
}

fn marker(i: usize) -> Transaction {
    Transaction::synthetic(7000 + i as u64, 48)
}

fn ordered_marker(node: &NetNode, tx: &Transaction) -> bool {
    node.ordered().iter().any(|o| o.block.transactions().contains(tx))
}

#[test]
fn workers_disseminate_and_order_by_digest() {
    // Generous round budget: on a slow or loaded host rounds can outpace
    // the pushes, and a vertex that arrives ahead of its batch waits in
    // its peers' buffers — the budget must leave rounds after that.
    let max_round = 32;
    let (cluster, listeners) = Cluster::prepare(4, 777, max_round);
    let mut nodes: Vec<NetNode> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        nodes.push(cluster.start(i, listener, |c| c.with_workers(2)));
    }
    for (i, node) in nodes.iter().enumerate() {
        assert!(node.submit_tx(marker(i)));
    }

    let refs: Vec<&NetNode> = nodes.iter().collect();
    await_quiescence(&refs, max_round, Duration::from_millis(800), Duration::from_secs(60));
    let len = assert_identical_logs_with_payloads(&refs);
    assert!(len > 16, "only {len} vertices ordered in {max_round} rounds");
    for (i, node) in nodes.iter().enumerate() {
        // Everyone stored everyone's batches, each once: every node
        // sealed exactly one 48-byte marker batch.
        assert_eq!(node.batches_stored(), 4, "node {i} stored {}", node.batches_stored());
        assert_eq!(node.batch_payload_bytes(), 4 * 48, "node {i} miscounted payload bytes");
        for m in 0..nodes.len() {
            assert!(ordered_marker(node, &marker(m)), "node {i} never ordered marker {m}");
        }
    }
    for mut node in nodes {
        node.shutdown();
    }
}

/// A frame proxy in front of one node. Each connection it accepts is
/// forwarded to the node, frame by frame on a thread of its own, except
/// every batch message whose creator is the peer that sent its `Hello`:
/// the peer's pushes and its answers to fetches of its own batches
/// vanish.
struct Proxy {
    addr: SocketAddr,
    dropped: Arc<AtomicUsize>,
    forwarded: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl Proxy {
    fn start(target: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (dropped, forwarded) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let counts = (Arc::clone(&dropped), Arc::clone(&forwarded));
        let stopped = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let (dropped, forwarded) = (&*counts.0, &*counts.1);
            // The scope joins every forwarder; each ends when either side
            // closes its socket.
            std::thread::scope(|links| {
                while !stopped.load(Ordering::Relaxed) {
                    let Ok((inbound, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    links.spawn(move || forward(inbound, target, dropped, forwarded));
                }
            });
        });
        Self { addr, dropped, forwarded, stop, acceptor }
    }

    /// Stops accepting and joins every forwarder, so every node must be
    /// shut down first; returns (batches dropped, batches forwarded).
    fn stop(self) -> (usize, usize) {
        self.stop.store(true, Ordering::Relaxed);
        self.acceptor.join().unwrap();
        (self.dropped.load(Ordering::Relaxed), self.forwarded.load(Ordering::Relaxed))
    }
}

fn forward(
    mut inbound: TcpStream,
    target: SocketAddr,
    dropped: &AtomicUsize,
    forwarded: &AtomicUsize,
) {
    let _ = inbound.set_nonblocking(false);
    let Ok(mut outbound) = TcpStream::connect(target) else { return };
    let mut peer = None;
    while let Ok(frame) = read_frame(&mut inbound) {
        match WireMsg::from_bytes(&frame) {
            Ok(WireMsg::Hello(from)) => peer = Some(from),
            Ok(WireMsg::Engine(payload)) => {
                if let Ok(NodeMessage::<BrachaMessage>::Batch(batch)) =
                    NodeMessage::from_bytes(&payload)
                {
                    if Some(batch.creator()) == peer {
                        dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    forwarded.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => {}
        }
        if write_frame(&mut outbound, &frame).is_err() {
            return;
        }
    }
}

#[test]
fn blackholed_pushes_resolve_through_the_fetch_path() {
    // Same headroom rationale as above, plus fetch retries for the victim.
    let max_round = 32;
    let n = 4;
    let (cluster, listeners) = Cluster::prepare(n, 888, max_round);

    // Every other node reaches the victim through the proxy: the victim
    // sees none of their pushes, nor their answers for their own
    // batches, and can insert their digest vertices only once a third
    // party has answered its fetch.
    let victim = 3usize;
    let proxy = Proxy::start(cluster.addrs[victim]);
    let mut nodes: Vec<NetNode> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        nodes.push(cluster.start(i, listener, |mut c| {
            if i != victim {
                c.addrs[victim] = proxy.addr;
            }
            c
        }));
    }
    for (i, node) in nodes.iter().enumerate() {
        assert!(node.submit_tx(marker(i)));
    }

    let refs: Vec<&NetNode> = nodes.iter().collect();
    await_quiescence(&refs, max_round, Duration::from_millis(800), Duration::from_secs(90));
    let len = assert_identical_logs_with_payloads(&refs);
    assert!(len > 16, "only {len} vertices ordered in {max_round} rounds");
    for (i, node) in nodes.iter().enumerate() {
        for m in 0..n {
            assert!(ordered_marker(node, &marker(m)), "node {i} never ordered marker {m}");
        }
    }
    // The victim received no push, so every peer batch it holds came
    // through the fetch path — and it must hold all of them, each once,
    // to have resolved its (byte-identical) log above.
    assert_eq!(
        nodes[victim].batches_stored(),
        n,
        "victim resolved {} batches",
        nodes[victim].batches_stored()
    );
    for mut node in nodes {
        node.shutdown();
    }
    let (dropped, forwarded) = proxy.stop();
    assert!(dropped >= n - 1, "the proxy dropped {dropped} batches");
    assert!(forwarded >= n - 1, "the proxy forwarded {forwarded} batches");
}
