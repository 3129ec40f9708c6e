//! A node's OS thread count. This binary holds a single test, so
//! `/proc/self/task` counts only the harness and the nodes it starts,
//! never the nodes of tests running beside it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dagrider_core::NodeConfig;
use dagrider_crypto::deal_coin_keys;
use dagrider_net::{read_frame, write_frame, NetConfig, NetNode, WireMsg};
use dagrider_rbc::BrachaRbc;
use dagrider_types::{Committee, Decode, Encode, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// OS threads in this process, per `/proc/self/task` (Linux).
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |entries| entries.count())
}

/// The reactor serves every peer and client socket, and the engine on
/// the consensus thread keeps the open batch, so a node without a store
/// runs three threads (consensus, reactor,
/// dialer) whatever its `workers` setting: four nodes with
/// `with_workers(4)` add exactly 4 × 3. Connecting clients spawns
/// none: the count holds while 48 client connections handshake,
/// submit, and get answered.
#[test]
fn thread_count_is_independent_of_lanes_and_client_connections() {
    const NODES: usize = 4;
    const THREADS_PER_NODE: usize = 3;

    let committee = Committee::new(NODES).unwrap();
    let listeners: Vec<TcpListener> =
        (0..NODES).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(808));
    let before = os_thread_count();
    assert!(before > 0, "/proc/self/task must be readable on Linux");

    let nodes: Vec<NetNode> = listeners
        .into_iter()
        .zip(keys)
        .enumerate()
        .map(|(i, (listener, keys))| {
            let config = NetConfig::new(
                committee,
                ProcessId::new(i as u32),
                addrs.clone(),
                NodeConfig::default().with_max_round(16),
                keys,
                808 + i as u64,
            )
            .with_sync_timeout(Duration::from_millis(500))
            .with_workers(4);
            NetNode::start::<BrachaRbc>(config, Some(listener)).unwrap()
        })
        .collect();
    // Progress implies the full mesh is dialed and every node is in its
    // steady state.
    let deadline = Instant::now() + Duration::from_secs(30);
    while nodes.iter().any(|n| n.current_round().number() < 1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = os_thread_count();
    assert_eq!(
        started - before,
        NODES * THREADS_PER_NODE,
        "{NODES} nodes with `with_workers(4)` took {before} -> {started} threads"
    );

    let mut clients: Vec<TcpStream> = (0..48u64)
        .map(|i| {
            let mut stream = TcpStream::connect(addrs[(i % 4) as usize]).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            write_frame(&mut stream, &WireMsg::ClientHello.to_bytes()).unwrap();
            let tx = Transaction::synthetic(1_000 + i, 16);
            write_frame(&mut stream, &WireMsg::ClientSubmit { seq: 1, tx }.to_bytes()).unwrap();
            stream
        })
        .collect();
    // Every connection is served — admission answers with an ack or a
    // typed reject, never silence — without a single thread appearing.
    for stream in &mut clients {
        let msg = WireMsg::from_bytes(&read_frame(stream).unwrap()).unwrap();
        assert!(
            matches!(
                msg,
                WireMsg::ClientSubmitAck { seq: 1 } | WireMsg::ClientReject { seq: 1, .. }
            ),
            "unexpected reply to a client submit: {msg:?}"
        );
    }
    let after = os_thread_count();
    assert_eq!(
        started, after,
        "48 client connections changed the process thread count ({started} -> {after})"
    );

    drop(clients);
    for mut node in nodes {
        node.shutdown();
    }
}
