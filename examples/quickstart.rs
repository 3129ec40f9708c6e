//! Quickstart: run a 4-process DAG-Rider committee twice — first over a
//! simulated asynchronous network, then over real TCP sockets — and
//! watch every process deliver the same totally ordered sequence of
//! blocks both times.
//!
//! The protocol itself lives in one place: the sans-I/O
//! [`DagRiderEngine`](dag_rider::core::DagRiderEngine). The simulation
//! drives it through the [`DagRiderNode`] adapter; the socket run drives
//! the *same engine* through [`NetNode`]. Nothing protocol-level changes
//! between the two halves of this example.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::net::TcpListener;
use std::time::{Duration, Instant};

use dag_rider::core::NodeConfig;
use dag_rider::crypto::deal_coin_keys;
use dag_rider::net::{NetConfig, NetNode};
use dag_rider::rbc::BrachaRbc;
use dag_rider::simactor::DagRiderNode;
use dag_rider::simnet::{Simulation, UniformScheduler};
use dag_rider::types::{Block, Committee, ProcessId, SeqNum, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A committee of n = 3f + 1 = 4 processes tolerating f = 1 fault.
    let committee = Committee::new(4)?;
    println!("committee: {committee}");

    // 2. Trusted-dealer setup for the threshold common coin (§2).
    let mut rng = StdRng::seed_from_u64(2021);
    let keys = deal_coin_keys(&committee, &mut rng);

    // 3. One DAG-Rider node per process, over Bracha reliable broadcast.
    //    `max_round` bounds the run so the simulation quiesces.
    let config = NodeConfig::default().with_max_round(24);
    let mut nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();

    // 4. Each process atomically broadcasts a few client transactions.
    for (i, node) in nodes.iter_mut().enumerate() {
        for seq in 1..=3u64 {
            let tx = Transaction::synthetic((i as u64) << 8 | seq, 48);
            node.a_bcast(Block::new(node.me(), SeqNum::new(seq), vec![tx]));
        }
    }

    // 5. Run to quiescence on an adversarially schedulable network
    //    (uniform random delays here — seed it differently and the
    //    schedule changes, but never the agreed order).
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 2021);
    sim.run();

    // 6. Inspect: all processes delivered the same order.
    let reference: Vec<_> = sim.actor(ProcessId::new(0)).ordered().to_vec();
    println!(
        "\np0 delivered {} vertices across {} waves:",
        reference.len(),
        sim.actor(ProcessId::new(0)).decided_wave()
    );
    for o in reference.iter().take(12) {
        println!("  {} (committed in {}, {} txs)", o.vertex, o.committed_in_wave, o.block.len());
    }
    if reference.len() > 12 {
        println!("  … and {} more", reference.len() - 12);
    }

    for p in sim.committee().members() {
        let log = sim.actor(p).ordered();
        let common = log.len().min(reference.len());
        assert_eq!(
            log[..common].iter().map(|o| o.vertex).collect::<Vec<_>>(),
            reference[..common].iter().map(|o| o.vertex).collect::<Vec<_>>(),
            "total order violated at {p}"
        );
        println!("{p}: {:>3} vertices delivered — consistent ✓", log.len());
    }

    println!(
        "\nnetwork: {} messages, {} bytes, {:.1} asynchronous time units",
        sim.metrics().messages_sent(),
        sim.metrics().bytes_sent(),
        sim.metrics().time_units(sim.now()),
    );

    // 7. Now the same engine over real TCP: four in-process nodes on
    //    localhost ephemeral ports. Each `NetNode` spawns its own
    //    transport threads; the engine inside is byte-for-byte the one
    //    the simulation just drove.
    println!("\n── the same engine over real TCP sockets ──");
    let max_round = 12u64;
    let keys = deal_coin_keys(&committee, &mut rng);
    let listeners: Vec<TcpListener> =
        committee.members().map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    let addrs: Vec<_> = listeners.iter().map(TcpListener::local_addr).collect::<Result<_, _>>()?;
    let tcp_nodes: Vec<NetNode> = committee
        .members()
        .zip(keys)
        .zip(listeners)
        .map(|((p, k), listener)| {
            let cfg = NetConfig::new(
                committee,
                p,
                addrs.clone(),
                NodeConfig::default().with_max_round(max_round),
                k,
                2021 + u64::from(p.index()),
            )
            .with_sync_timeout(Duration::from_millis(300));
            NetNode::start::<BrachaRbc>(cfg, Some(listener))
        })
        .collect::<Result<_, _>>()?;
    // A transaction enters the engine's open batch: the node's next
    // vertex seals it and carries its digest, and its bytes travel to the
    // peers in the batch's push, ahead of that vertex.
    tcp_nodes[1].submit_tx(Transaction::synthetic(7, 48));

    // Wait until every node exhausted its rounds and the logs stabilize.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut lens = vec![0usize; tcp_nodes.len()];
    let mut stable_since = Instant::now();
    loop {
        assert!(Instant::now() < deadline, "TCP cluster failed to quiesce");
        std::thread::sleep(Duration::from_millis(100));
        let now_lens: Vec<usize> = tcp_nodes.iter().map(NetNode::ordered_len).collect();
        if now_lens != lens {
            lens = now_lens;
            stable_since = Instant::now();
        }
        let done = tcp_nodes.iter().all(|n| n.current_round().number() >= max_round);
        if done
            && lens.iter().all(|&l| l > 0)
            && stable_since.elapsed() > Duration::from_millis(700)
        {
            break;
        }
    }
    let tcp_reference: Vec<_> = tcp_nodes[0].ordered().iter().map(|o| o.vertex).collect();
    for node in &tcp_nodes {
        let log: Vec<_> = node.ordered().iter().map(|o| o.vertex).collect();
        assert_eq!(log, tcp_reference, "total order violated at {} over TCP", node.me());
        println!("{}: {:>3} vertices delivered over TCP — consistent ✓", node.me(), log.len());
    }
    for mut node in tcp_nodes {
        node.shutdown();
    }
    Ok(())
}
