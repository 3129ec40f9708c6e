//! In-process TCP cluster integration: four [`NetNode`]s on localhost
//! ephemeral ports must reach agreement over real sockets, a node that
//! is torn down and replaced must rebuild the same log through the sync
//! protocol, and the reactor's edge checks must hold against raw
//! sockets.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dagrider_core::NodeConfig;
use dagrider_crypto::{deal_coin_keys, CoinKeys};
use dagrider_net::{
    read_frame, write_frame, NetConfig, NetNode, RejectReason, StoreConfig, WireMsg,
};
use dagrider_rbc::BrachaRbc;
use dagrider_store::FsyncPolicy;
use dagrider_types::{Batch, Committee, Decode, Encode, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Cluster {
    committee: Committee,
    addrs: Vec<std::net::SocketAddr>,
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

    fn start(&self, index: usize, listener: Option<TcpListener>) -> NetNode {
        let config = self.config(index);
        NetNode::start::<BrachaRbc>(config, listener).unwrap()
    }

    /// Like [`Cluster::start`] but with a durable store at `dir`:
    /// every durable event fsynced (the strictest policy) and a small
    /// snapshot cadence so restarts exercise the compaction path too.
    fn start_with_store(&self, index: usize, listener: Option<TcpListener>, dir: &Path) -> NetNode {
        let config = self.config(index).with_store(
            StoreConfig::new(dir.to_path_buf())
                .with_fsync(FsyncPolicy::Always)
                .with_snapshot_every(8),
        );
        NetNode::start::<BrachaRbc>(config, listener).unwrap()
    }

    fn config(&self, index: usize) -> NetConfig {
        NetConfig::new(
            self.committee,
            ProcessId::new(index as u32),
            self.addrs.clone(),
            self.node_config.clone(),
            self.keys[index].clone(),
            self.seed.wrapping_add(index as u64),
        )
        .with_sync_timeout(Duration::from_millis(500))
    }
}

/// A unique, disposable store directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dagrider-tcp-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Waits until every node's log is non-empty and stable for `grace`, or
/// panics after `timeout`.
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
        if rounds_done && lens.iter().all(|&l| l > 0) && stable_since.elapsed() >= grace {
            return;
        }
    }
}

fn assert_identical_logs(nodes: &[&NetNode]) -> usize {
    let reference: Vec<_> = nodes[0].ordered().iter().map(|o| o.vertex).collect();
    for (i, node) in nodes.iter().enumerate().skip(1) {
        let log: Vec<_> = node.ordered().iter().map(|o| o.vertex).collect();
        assert_eq!(log, reference, "node {i} ordered a different sequence");
    }
    reference.len()
}

/// `NetNode::start` refuses what it cannot run, before it binds or
/// spawns anything: an identity outside the committee (with a pre-bound
/// listener or without), coin keys dealt to another process, and an
/// address list without one entry per member.
#[test]
fn start_refuses_a_configuration_outside_the_committee() {
    use std::io::ErrorKind;

    let (cluster, _listeners) = Cluster::prepare(4, 444, 8);
    let refusal = |config: NetConfig, listener: Option<TcpListener>| {
        NetNode::start::<BrachaRbc>(config, listener).map(drop).unwrap_err().kind()
    };
    let mut stranger = cluster.config(0);
    stranger.me = ProcessId::new(4);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    assert_eq!(refusal(stranger.clone(), Some(listener)), ErrorKind::InvalidInput);
    assert_eq!(refusal(stranger, None), ErrorKind::InvalidInput);

    let mut borrowed_keys = cluster.config(0);
    borrowed_keys.coin_keys = cluster.keys[1].clone();
    assert_eq!(refusal(borrowed_keys, None), ErrorKind::InvalidInput);

    let mut short = cluster.config(0);
    short.addrs.pop();
    assert_eq!(refusal(short, None), ErrorKind::InvalidInput);
}

/// A node keeps one link per peer, whatever it passes to `with_workers`
/// (which the repository benchmark still calls). Node 0 runs with
/// `with_workers(4)`; peers 1–3 are bare listeners that keep every
/// stream they accept open for 2 s (a dropped stream would be redialed),
/// and each gets exactly one connection, opened with `Hello(0)`.
#[test]
fn a_node_opens_one_connection_per_peer_whatever_its_lane_count() {
    let (cluster, mut listeners) = Cluster::prepare(4, 414, 8);
    let config = cluster.config(0).with_workers(4);
    let node = NetNode::start::<BrachaRbc>(config, Some(listeners.remove(0))).unwrap();
    let mut accepted: Vec<Vec<std::net::TcpStream>> =
        listeners.iter().map(|_| Vec::new()).collect();
    for listener in &listeners {
        listener.set_nonblocking(true).unwrap();
    }
    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        for (listener, streams) in listeners.iter().zip(&mut accepted) {
            while let Ok((stream, _)) = listener.accept() {
                streams.push(stream);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for (peer, streams) in accepted.iter_mut().enumerate().map(|(i, s)| (i + 1, s)) {
        assert_eq!(streams.len(), 1, "peer {peer} got {} connections", streams.len());
        let stream = &mut streams[0];
        stream.set_nonblocking(false).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = WireMsg::from_bytes(&read_frame(stream).unwrap()).unwrap();
        assert_eq!(hello, WireMsg::Hello(ProcessId::new(0)), "peer {peer}'s first frame");
    }
    drop((accepted, node, listeners));
}

#[test]
fn four_nodes_agree_over_real_sockets() {
    let max_round = 16;
    let (cluster, listeners) = Cluster::prepare(4, 404, max_round);
    let mut nodes: Vec<NetNode> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        nodes.push(cluster.start(i, Some(listener)));
    }
    // One client transaction at node 2; it must be ordered everywhere.
    let tx = Transaction::synthetic(7, 24);
    assert!(nodes[2].submit_tx(tx.clone()));

    let refs: Vec<&NetNode> = nodes.iter().collect();
    await_quiescence(&refs, max_round, Duration::from_millis(800), Duration::from_secs(60));
    let len = assert_identical_logs(&refs);
    assert!(len > 16, "only {len} vertices ordered in {max_round} rounds");
    for node in &nodes {
        assert!(node.decided_wave().number() >= 1, "{} decided nothing", node.me());
        assert!(
            node.ordered().iter().any(|o| o.block.transactions().contains(&tx)),
            "{} never ordered the client transaction",
            node.me()
        );
    }
    for mut node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_killed_node_rejoins_via_sync_and_matches() {
    let max_round = 12;
    let (cluster, mut listeners) = Cluster::prepare(4, 505, max_round);
    let spare = listeners.pop().unwrap(); // node 3's pre-bound port
    let mut survivors: Vec<NetNode> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        survivors.push(cluster.start(i, Some(listener)));
    }
    // Node 3 runs briefly, then is torn down abruptly (threads killed,
    // sockets closed — the in-process analogue of SIGKILL). The kill is
    // gated on observed progress rather than wall time: however fast
    // the transport, node 3 must die with most of the run still ahead,
    // so the later rounds are built by a bare quorum (2f + 1 = 3 of 4,
    // every vertex referencing all three survivors) and the rejoining
    // node has real catch-up to do.
    let early = cluster.start(3, Some(spare));
    let kill_deadline = Instant::now() + Duration::from_secs(30);
    while survivors[0].current_round().number() < 2 && Instant::now() < kill_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let reclaimed_addr = early.local_addr();
    drop(early);

    // The survivors are a bare quorum (2f + 1 = 3 of 4): rounds keep
    // advancing without the dead node.
    let refs: Vec<&NetNode> = survivors.iter().collect();
    await_quiescence(&refs, max_round, Duration::from_millis(800), Duration::from_secs(60));
    assert_identical_logs(&refs);

    // The replacement reclaims the same address and must catch up purely
    // through sync replies (its peers' dialers reconnect via backoff).
    let listener = TcpListener::bind(reclaimed_addr).unwrap();
    let rejoined = cluster.start(3, Some(listener));
    let all: Vec<&NetNode> = survivors.iter().chain(std::iter::once(&rejoined)).collect();
    await_quiescence(&all, max_round, Duration::from_millis(800), Duration::from_secs(60));
    let len = assert_identical_logs(&all);
    assert!(len > 8, "only {len} vertices ordered");
    assert_eq!(rejoined.decided_wave(), survivors[0].decided_wave());

    drop(rejoined);
    for mut node in survivors {
        node.shutdown();
    }
}

#[test]
fn a_killed_node_restarts_from_its_local_store() {
    let max_round = 12;
    let (cluster, mut listeners) = Cluster::prepare(4, 707, max_round);
    let spare = listeners.pop().unwrap(); // node 3's pre-bound port
    let store_dir = scratch_dir("restart");
    let mut survivors: Vec<NetNode> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        survivors.push(cluster.start(i, Some(listener)));
    }
    // Node 3 runs with a durable store. The kill is gated on node 3's
    // *own* observed progress — it must have delivered something, so its
    // WAL (and, at a cadence of 8 vertices, its snapshot) holds real
    // state worth restarting from.
    let early = cluster.start_with_store(3, Some(spare), &store_dir);
    let kill_deadline = Instant::now() + Duration::from_secs(30);
    while (early.ordered_len() == 0 || early.current_round().number() < 4)
        && Instant::now() < kill_deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(early.ordered_len() > 0, "node 3 never made progress before the kill");
    assert!(early.store_healthy(), "the store went unhealthy during the run");
    let reclaimed_addr = early.local_addr();
    drop(early);

    // The survivors are a bare quorum: the run finishes without node 3.
    let refs: Vec<&NetNode> = survivors.iter().collect();
    await_quiescence(&refs, max_round, Duration::from_millis(800), Duration::from_secs(60));
    assert_identical_logs(&refs);

    // The replacement opens the same store directory: it must replay its
    // pre-crash state locally (recovered_events > 0) and then reach the
    // same log as everyone else through sync of just the missed suffix.
    let listener = TcpListener::bind(reclaimed_addr).unwrap();
    let rejoined = cluster.start_with_store(3, Some(listener), &store_dir);
    // Replay runs on the consensus thread right after spawn; give it a
    // moment before checking it actually happened.
    let replay_deadline = Instant::now() + Duration::from_secs(15);
    while rejoined.recovered_events() == 0 && Instant::now() < replay_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        rejoined.recovered_events() > 0,
        "restart must replay from the local store, not resync from scratch"
    );
    let all: Vec<&NetNode> = survivors.iter().chain(std::iter::once(&rejoined)).collect();
    await_quiescence(&all, max_round, Duration::from_millis(800), Duration::from_secs(60));
    let len = assert_identical_logs(&all);
    assert!(len > 8, "only {len} vertices ordered");
    assert_eq!(rejoined.decided_wave(), survivors[0].decided_wave());
    assert!(rejoined.store_healthy(), "the store went unhealthy across the restart");

    drop(rejoined);
    for mut node in survivors {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A node restarted from its store answers fetches for the batches it
/// recovered. Node 0 runs alone, seals one batch, and is restarted from
/// its store; the test then plays peer 1 over raw sockets and asks for
/// that batch. Only the store can have brought it back: no peer ever ran.
#[test]
fn a_restarted_node_serves_the_batches_it_recovered() {
    use std::io;
    use std::net::TcpStream;

    use dagrider_core::batch_digest;

    let (cluster, mut listeners) = Cluster::prepare(4, 909, 8);
    let listener = listeners.remove(0);
    // This test plays peer 1; peers 2 and 3 never accept. Every port
    // stays bound, so no other test can take one over.
    let peer = listeners.remove(0);
    peer.set_nonblocking(true).unwrap();
    let store_dir = scratch_dir("serve-recovered");
    let marker = Transaction::synthetic(9_090, 48);
    let batch = Batch::new(ProcessId::new(0), 0, vec![marker.clone()]);

    let first = cluster.start_with_store(0, Some(listener), &store_dir);
    assert!(first.submit_tx(marker));
    // The batch seals when the node's round first advances: when the
    // sync phase times out and the node goes live and starts.
    let deadline = Instant::now() + Duration::from_secs(15);
    while (first.batches_stored() == 0 || !first.is_live()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(first.batches_stored(), 1, "node 0 never stored its batch");
    let addr = first.local_addr();
    drop(first);
    // Discard the links the first run dialed to peer 1.
    while peer.accept().is_ok() {}

    let node = cluster.start_with_store(0, Some(TcpListener::bind(addr).unwrap()), &store_dir);
    let deadline = Instant::now() + Duration::from_secs(15);
    while node.recovered_events() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(node.recovered_events() >= 1, "the restart must replay the local store");

    // Node 0 writes to peer 1 on the one link it dials: accept it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut from_node = loop {
        assert!(Instant::now() < deadline, "node 0 never dialed peer 1");
        match peer.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let hello = WireMsg::from_bytes(&read_frame(&mut stream).unwrap()).unwrap();
                assert_eq!(hello, WireMsg::Hello(ProcessId::new(0)));
                break stream;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("accepting node 0's dial failed: {e}"),
        }
    };
    // ... and reads peer 1's requests on the link peer 1 dials.
    let mut to_node = TcpStream::connect(addr).unwrap();
    write_frame(&mut to_node, &WireMsg::Hello(ProcessId::new(1)).to_bytes()).unwrap();
    let request = WireMsg::BatchRequest { digests: vec![batch_digest(&batch)] };
    write_frame(&mut to_node, &request.to_bytes()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let served = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "node 0 never served the batch it recovered");
        from_node.set_read_timeout(Some(left)).unwrap();
        let Ok(frame) = read_frame(&mut from_node) else {
            panic!("node 0 never served the batch it recovered");
        };
        if let Ok(WireMsg::Batch(served)) = WireMsg::from_bytes(&frame) {
            break served;
        }
    };
    assert_eq!(served, batch);
    // Nothing was submitted since the restart: the recovered batch counts.
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.batches_stored() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(node.batches_stored() >= 1, "the recovered batch is not counted");

    drop((to_node, from_node, node, listeners));
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Opens a client session on `addr` and submits `tx` as `seq`.
fn client_submit(addr: std::net::SocketAddr, seq: u64, tx: Transaction) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    write_frame(&mut stream, &WireMsg::ClientHello.to_bytes()).unwrap();
    write_frame(&mut stream, &WireMsg::ClientSubmit { seq, tx }.to_bytes()).unwrap();
    stream
}

/// The node's reply to the one submission on `stream`.
fn client_reply(stream: &mut std::net::TcpStream) -> WireMsg {
    WireMsg::from_bytes(&read_frame(stream).unwrap()).unwrap()
}

/// Reads frames from `stream` until it has an ack and an ordered
/// notification for every seq in `1..=k`, or panics after `timeout`.
/// Returns how often each seq was notified, indexed by seq.
fn await_acks_and_notifications(
    stream: &mut std::net::TcpStream,
    k: u64,
    timeout: Duration,
) -> Vec<u32> {
    let deadline = Instant::now() + timeout;
    let mut acked = vec![0u32; k as usize + 1];
    let mut notified = vec![0u32; k as usize + 1];
    while acked[1..].contains(&0) || notified[1..].contains(&0) {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "acked {acked:?}, notified {notified:?} after {timeout:?}");
        stream.set_read_timeout(Some(left)).unwrap();
        match client_reply(stream) {
            WireMsg::ClientSubmitAck { seq } if (1..=k).contains(&seq) => {
                acked[seq as usize] += 1;
            }
            WireMsg::ClientOrdered { seq } if (1..=k).contains(&seq) => {
                notified[seq as usize] += 1;
            }
            other => panic!("unexpected frame to a subscribed client: {other:?}"),
        }
    }
    assert!(acked[1..].iter().all(|&n| n == 1), "each submission is acked once: {acked:?}");
    notified
}

/// A subscribed client hears `ClientOrdered` exactly once for each of its
/// transactions, over real sockets. A second client that submits the
/// same bytes as one of them and leaves at once takes nothing from it.
#[test]
fn subscribed_clients_are_notified_once_per_ordered_transaction() {
    let (mut cluster, listeners) = Cluster::prepare(4, 1_212, 0);
    // No round cap: the cluster runs until every transaction is ordered,
    // pruning as the TCP deployments do.
    cluster.node_config = NodeConfig::default().with_gc_depth(64);
    let nodes: Vec<NetNode> =
        listeners.into_iter().enumerate().map(|(i, l)| cluster.start(i, Some(l))).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while nodes.iter().any(|n| !n.is_live()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(nodes.iter().all(NetNode::is_live), "the cluster never went live");
    let addr = nodes[0].local_addr();
    let k = 8u64;
    let shared_seq = 3u64;
    let tx = |seq: u64| Transaction::synthetic(1_212_000 + seq, 40);

    let mut first = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut first, &WireMsg::ClientHello.to_bytes()).unwrap();
    write_frame(&mut first, &WireMsg::ClientSubscribe.to_bytes()).unwrap();

    // The second client subscribes, submits the bytes the first client
    // will send as `shared_seq`, and leaves once its submission is in:
    // the ack is written after the reactor drained it into the open
    // batch, so its copy is ordered too.
    let mut second = std::net::TcpStream::connect(addr).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    write_frame(&mut second, &WireMsg::ClientHello.to_bytes()).unwrap();
    write_frame(&mut second, &WireMsg::ClientSubscribe.to_bytes()).unwrap();
    let submit = WireMsg::ClientSubmit { seq: 1, tx: tx(shared_seq) };
    write_frame(&mut second, &submit.to_bytes()).unwrap();
    assert_eq!(client_reply(&mut second), WireMsg::ClientSubmitAck { seq: 1 });
    drop(second);

    for seq in 1..=k {
        write_frame(&mut first, &WireMsg::ClientSubmit { seq, tx: tx(seq) }.to_bytes()).unwrap();
    }
    let notified = await_acks_and_notifications(&mut first, k, Duration::from_secs(30));
    assert!(notified[1..].iter().all(|&n| n == 1), "notifications per seq: {notified:?}");

    // Once both copies of the shared bytes are ordered, a duplicate
    // notification would already be on its way.
    let shared = tx(shared_seq);
    let copies = || {
        nodes[0]
            .ordered()
            .iter()
            .flat_map(|o| o.block.transactions())
            .filter(|t| **t == shared)
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while copies() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(copies(), 2, "both copies of the shared bytes are ordered");
    first.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    if let Ok(frame) = read_frame(&mut first) {
        panic!("a frame after every seq was notified: {:?}", WireMsg::from_bytes(&frame));
    }
    drop((first, nodes));
}

#[test]
fn a_node_still_syncing_refuses_client_submissions() {
    // Node 0 alone, with a sync phase far longer than the test: it can
    // never finish syncing, so admission must answer `NotReady`.
    let (cluster, mut listeners) = Cluster::prepare(4, 111, 8);
    let config = cluster.config(0).with_sync_timeout(Duration::from_secs(600));
    let node = NetNode::start::<BrachaRbc>(config, Some(listeners.remove(0))).unwrap();
    let mut stream = client_submit(node.local_addr(), 1, Transaction::synthetic(1, 16));
    assert_eq!(
        client_reply(&mut stream),
        WireMsg::ClientReject { seq: 1, reason: RejectReason::NotReady }
    );
    assert!(!node.is_live());
    drop((stream, node, listeners));
}

/// A node seals no batch before its engine leaves genesis: a batch seals
/// when the round advances, and its own batch must not start the node
/// while it still syncs.
#[test]
fn a_node_seals_nothing_before_it_leaves_genesis() {
    // Node 0 alone; its peers' ports stay bound but never accept, and
    // its sync phase outlasts the test.
    let (cluster, mut listeners) = Cluster::prepare(4, 112, 8);
    let config = cluster.config(0).with_sync_timeout(Duration::from_secs(600));
    let node = NetNode::start::<BrachaRbc>(config, Some(listeners.remove(0))).unwrap();
    assert!(node.submit_tx(Transaction::synthetic(1, 16)));
    // Many sweeps of the reactor, none of which may seal.
    std::thread::sleep(Duration::from_millis(1_500));
    assert!(!node.is_live());
    assert_eq!(node.current_round().number(), 0, "the node left genesis while syncing");
    assert_eq!(node.batches_stored(), 0, "the node sealed a batch at genesis");
    drop((node, listeners));
}

/// A full batch seals at once, even at genesis, but a syncing node only
/// stores it: the node stays at genesis, and the batch's digest rides
/// its first vertex once the sync phase ends, so the batch is ordered.
#[test]
fn a_full_own_batch_waits_for_the_sync_phase_to_end() {
    use dagrider_net::BATCH_MAX_BYTES;

    let (cluster, mut listeners) = Cluster::prepare(4, 113, 16);
    let peers = listeners.split_off(1);
    // Node 0 syncs until every peer answers, long after the check below.
    let config = cluster.config(0).with_sync_timeout(Duration::from_secs(600));
    let first = NetNode::start::<BrachaRbc>(config, Some(listeners.remove(0))).unwrap();
    let halves: Vec<Transaction> =
        (1..=2).map(|tag| Transaction::synthetic(tag, BATCH_MAX_BYTES / 2)).collect();
    for tx in &halves {
        assert!(first.submit_tx(tx.clone()));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while first.batches_stored() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(first.batches_stored(), 1, "the full batch never sealed");
    std::thread::sleep(Duration::from_millis(300));
    assert!(!first.is_live());
    assert_eq!(first.current_round().number(), 0, "the node left genesis while syncing");

    let rest: Vec<NetNode> =
        peers.into_iter().enumerate().map(|(i, l)| cluster.start(i + 1, Some(l))).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let ordered =
        |tx: &Transaction| first.ordered().iter().any(|o| o.block.transactions().contains(tx));
    while !halves.iter().all(ordered) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(halves.iter().all(ordered), "the held batch was never ordered");
    drop((first, rest));
}

#[test]
fn admission_refuses_exactly_the_transactions_no_batch_can_hold() {
    use dagrider_net::BATCH_MAX_BYTES;

    let (cluster, listeners) = Cluster::prepare(4, 222, 8);
    let nodes: Vec<NetNode> =
        listeners.into_iter().enumerate().map(|(i, l)| cluster.start(i, Some(l))).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !nodes[0].is_live() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(nodes[0].is_live(), "node 0 never finished its sync phase");
    let addr = nodes[0].local_addr();
    let mut over = client_submit(addr, 1, Transaction::synthetic(1, BATCH_MAX_BYTES + 1));
    assert_eq!(
        client_reply(&mut over),
        WireMsg::ClientReject { seq: 1, reason: RejectReason::Oversized }
    );
    let mut fits = client_submit(addr, 2, Transaction::synthetic(2, BATCH_MAX_BYTES));
    assert_eq!(client_reply(&mut fits), WireMsg::ClientSubmitAck { seq: 2 });
    // The in-process entry draws the same line.
    assert!(!nodes[0].submit_tx(Transaction::synthetic(3, BATCH_MAX_BYTES + 1)));
    assert!(nodes[0].submit_tx(Transaction::synthetic(4, BATCH_MAX_BYTES)));
    drop((over, fits, nodes));
}

/// A peer link carries pushes and fetch answers alike, so a node stores
/// a batch from it only when the peer created the batch or a vertex the
/// node holds names it. The test plays peer 1 toward node 0, which runs
/// alone and submits nothing: every batch it stores came from here.
#[test]
fn a_peer_link_stores_only_its_peers_own_batches_unasked() {
    let (cluster, mut listeners) = Cluster::prepare(4, 333, 8);
    let node = cluster.start(0, Some(listeners.remove(0)));
    let mut stream = std::net::TcpStream::connect(node.local_addr()).unwrap();
    write_frame(&mut stream, &WireMsg::Hello(ProcessId::new(1)).to_bytes()).unwrap();
    // On one stream: a batch created by p2 that no vertex names, then
    // p1's own.
    for creator in [2, 1] {
        let tx = Transaction::synthetic(u64::from(creator), 32);
        let batch = Batch::new(ProcessId::new(creator), 0, vec![tx]);
        write_frame(&mut stream, &WireMsg::Batch(batch).to_bytes()).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.batches_stored() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    // p2's batch went first; a late store of it would show by now.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(node.batches_stored(), 1, "exactly p1's own batch is stored");
    drop((stream, node, listeners));
}

#[test]
fn shutdown_is_prompt_and_idempotent() {
    let (cluster, mut listeners) = Cluster::prepare(4, 606, 8);
    // Only start one node: its dialer never connects (peers absent), so
    // shutdown must reach a dialer in backoff and a parked reactor.
    let listener = listeners.remove(0);
    let mut node = cluster.start(0, Some(listener));
    std::thread::sleep(Duration::from_millis(200));
    let start = Instant::now();
    node.shutdown();
    node.shutdown(); // idempotent
    assert!(start.elapsed() < Duration::from_secs(5), "shutdown hung");
}
