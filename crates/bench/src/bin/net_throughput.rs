//! **End-to-end throughput** — the first `BENCH_*` number measured
//! through the real stack instead of in-process DAG operations: an n-node
//! localhost TCP cluster under closed-loop client load, plus a fixed-load
//! simnet run of the same engine, reporting blocks/sec, ordered-tx/sec,
//! and p50/p99 submit→order latency.
//!
//! In the TCP phase, client transactions enter through
//! [`NetNode::submit_tx`], each node batches them and pushes every batch
//! to its peers on the one link it keeps to each, and consensus vertices
//! carry only digests. It keeps a fixed window of transactions in flight
//! per node (a submission
//! is outstanding until the submitting node orders it, and is then
//! replaced), warms up, then measures over a fixed wall-clock window.
//! The simnet phase runs the identical engine at fixed load through the
//! deterministic simulator, isolating protocol + codec CPU cost from
//! socket I/O, once with inline block payloads and once with digest
//! payloads. `--matrix` sweeps tx sizes {256 B, 1 KiB, 4 KiB} and
//! reports ordered tx/s and ordered bytes/s for each.
//!
//! With `--durable` every node keeps a durable store (checksummed WAL +
//! periodic snapshots) under a scratch directory, using the default
//! batched fsync policy — the cost of crash durability on the ordering
//! hot path. The acceptance bar is ≥ 0.85× of the non-durable
//! `BENCH_net_throughput.json` medians.
//!
//! ```sh
//! cargo run --release -p dagrider-bench --bin net_throughput -- --json out.json
//! cargo run --release -p dagrider-bench --bin net_throughput -- --durable
//! cargo run --release -p dagrider-bench --bin net_throughput -- --matrix
//! cargo run --release -p dagrider-bench --bin net_throughput -- --smoke
//! ```

use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use dagrider_core::{batch_digest, NodeConfig};
use dagrider_crypto::deal_coin_keys;
use dagrider_net::{NetConfig, NetNode, StoreConfig};
use dagrider_rbc::BrachaRbc;
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Simulation, UniformScheduler};
use dagrider_types::{Batch, Block, Committee, ProcessId, SeqNum, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Config {
    nodes: usize,
    warmup: Duration,
    measure: Duration,
    window: usize,
    txs_per_block: usize,
    tx_size: usize,
    sim_rounds: u64,
    durable: bool,
    matrix: bool,
    json: Option<String>,
}

impl Config {
    fn parse() -> Self {
        let mut cfg = Self {
            nodes: 4,
            warmup: Duration::from_secs(3),
            measure: Duration::from_secs(10),
            window: 8,
            txs_per_block: 32,
            tx_size: 256,
            sim_rounds: 64,
            durable: false,
            matrix: false,
            json: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
            match arg.as_str() {
                "--nodes" => cfg.nodes = value("--nodes").parse().expect("--nodes: usize"),
                "--warmup-secs" => {
                    cfg.warmup =
                        Duration::from_secs_f64(value("--warmup-secs").parse().expect("f64"));
                }
                "--measure-secs" => {
                    cfg.measure =
                        Duration::from_secs_f64(value("--measure-secs").parse().expect("f64"));
                }
                "--window" => cfg.window = value("--window").parse().expect("--window: usize"),
                "--txs-per-block" => {
                    cfg.txs_per_block = value("--txs-per-block").parse().expect("usize");
                }
                "--tx-size" => cfg.tx_size = value("--tx-size").parse().expect("usize"),
                "--sim-rounds" => cfg.sim_rounds = value("--sim-rounds").parse().expect("u64"),
                "--durable" => cfg.durable = true,
                "--matrix" => cfg.matrix = true,
                "--json" => cfg.json = Some(value("--json")),
                "--smoke" => {
                    cfg.warmup = Duration::from_millis(500);
                    cfg.measure = Duration::from_secs(2);
                    cfg.window = 4;
                    cfg.txs_per_block = 8;
                    cfg.tx_size = 32;
                    cfg.sim_rounds = 16;
                }
                other => panic!("unknown argument {other}"),
            }
        }
        cfg
    }
}

#[derive(Debug, Default)]
struct TcpResult {
    secs: f64,
    vertices: u64,
    blocks: u64,
    txs: u64,
    bytes: u64,
    p50_ms: f64,
    p99_ms: f64,
    dropped_frames: u64,
}

#[derive(Debug, Default)]
struct SimResult {
    wall_ms: f64,
    vertices: u64,
    txs: u64,
    txs_per_wallsec: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let index = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[index]
}

/// One client block: `txs_per_block` synthetic transactions whose tag
/// encodes (proposer, seq) so ordered blocks map back to submissions.
fn client_block(node: usize, seq: u64, cfg: &Config) -> Block {
    let base = (node as u64) << 40 | seq << 8;
    let txs: Vec<Transaction> = (0..cfg.txs_per_block)
        .map(|i| Transaction::synthetic(base | i as u64, cfg.tx_size))
        .collect();
    Block::new(ProcessId::new(node as u32), SeqNum::new(seq), txs)
}

fn payload_bytes(block: &Block) -> u64 {
    block.transactions().iter().map(|t| t.len() as u64).sum()
}

/// Scratch store directory for one node of a `--durable` run, keyed by
/// process id so concurrent invocations never collide.
fn store_dir(node: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "dagrider-net-throughput-{}-node{}",
        std::process::id(),
        node
    ))
}

/// Removes the scratch store directories left by a `--durable` run.
fn cleanup_store_dirs(cfg: &Config) {
    if cfg.durable {
        for i in 0..cfg.nodes {
            let _ = std::fs::remove_dir_all(store_dir(i));
        }
    }
}

/// Starts an n-node localhost cluster and waits for it to go live.
fn start_cluster(cfg: &Config) -> Vec<NetNode> {
    let n = cfg.nodes;
    let committee = Committee::new(n).expect("committee size");
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs = listeners.iter().map(|l| l.local_addr().expect("addr")).collect::<Vec<_>>();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(42));
    let node_config = NodeConfig::default().with_gc_depth(64);

    let mut nodes: Vec<NetNode> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut config = NetConfig::new(
            committee,
            ProcessId::new(i as u32),
            addrs.clone(),
            node_config.clone(),
            keys[i].clone(),
            42 + i as u64,
        )
        .with_sync_timeout(Duration::from_millis(500));
        if cfg.durable {
            // Default store policy: batched fsync (EveryN), periodic
            // snapshots — the production durability configuration.
            let dir = store_dir(i);
            let _ = std::fs::remove_dir_all(&dir);
            config = config.with_store(StoreConfig::new(dir));
        }
        nodes.push(NetNode::start::<BrachaRbc>(config, Some(listener)).expect("start node"));
    }

    let live_deadline = Instant::now() + Duration::from_secs(10);
    while !nodes.iter().all(NetNode::is_live) {
        assert!(Instant::now() < live_deadline, "cluster failed to go live");
        std::thread::sleep(Duration::from_millis(10));
    }
    nodes
}

/// Closed-loop load against a real localhost TCP cluster: transactions
/// enter via `submit_tx`, nodes batch and push them, vertices carry
/// digests. The window counts individual transactions — one is
/// outstanding from submission until the submitting node orders a block
/// of its own containing it, at which point a replacement is submitted.
fn run_tcp(cfg: &Config) -> TcpResult {
    let n = cfg.nodes;
    let nodes = start_cluster(cfg);

    // Per-node transaction window: `window` blocks' worth of transactions.
    let target = (cfg.window * cfg.txs_per_block) as u64;
    let mut submitted = vec![0u64; n];
    let mut own_ordered = vec![0u64; n];
    // Submission instants, popped in order as own transactions order:
    // batches preserve submission order, so this matches
    // transactions to instants closely enough for latency percentiles.
    let mut in_flight: Vec<VecDeque<Instant>> = vec![VecDeque::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for _ in 0..target {
            let tag = (i as u64) << 40 | submitted[i];
            submitted[i] += 1;
            in_flight[i].push_back(Instant::now());
            assert!(node.submit_tx(Transaction::synthetic(tag, cfg.tx_size)), "submit_tx refused");
        }
    }

    let mut cursors = vec![0usize; n];
    let warmup_end = Instant::now() + cfg.warmup;
    let mut measuring = false;
    let mut measure_start = Instant::now();
    let mut measure_end = measure_start + cfg.measure;
    let mut result = TcpResult::default();
    let mut latencies_ms: Vec<f64> = Vec::new();

    loop {
        let now = Instant::now();
        if !measuring && now >= warmup_end {
            measuring = true;
            measure_start = now;
            measure_end = now + cfg.measure;
        }
        if measuring && now >= measure_end {
            break;
        }
        for (i, node) in nodes.iter().enumerate() {
            let new = node.ordered_from(cursors[i]);
            cursors[i] += new.len();
            for ordered in &new {
                let block = &ordered.block;
                // Throughput is counted at node 0's log (all logs agree).
                if i == 0 && measuring {
                    result.vertices += 1;
                    if !block.transactions().is_empty() {
                        result.blocks += 1;
                        result.txs += block.transactions().len() as u64;
                        result.bytes += payload_bytes(block);
                    }
                }
                // A resolved digest block's proposer is the vertex source,
                // so blocks proposed by `i` in `i`'s own log retire that
                // node's in-flight transactions and refill the window.
                if block.proposer().as_usize() == i {
                    for _ in 0..block.transactions().len() {
                        own_ordered[i] += 1;
                        if let Some(at) = in_flight[i].pop_front() {
                            if measuring {
                                latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                    }
                }
            }
            while submitted[i] - own_ordered[i] < target {
                let tag = (i as u64) << 40 | submitted[i];
                submitted[i] += 1;
                in_flight[i].push_back(Instant::now());
                if !node.submit_tx(Transaction::synthetic(tag, cfg.tx_size)) {
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    result.secs = measure_start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    result.p50_ms = percentile(&latencies_ms, 0.5);
    result.p99_ms = percentile(&latencies_ms, 0.99);
    result.dropped_frames = nodes.iter().map(NetNode::dropped_frames).sum();

    for mut node in nodes {
        node.shutdown();
    }
    cleanup_store_dirs(cfg);
    result
}

/// One matrix cell: ordered tx/s and bytes/s for one tx size.
fn run_matrix(cfg: &Config) {
    const TX_SIZES: [usize; 3] = [256, 1024, 4096];
    println!(
        "matrix: n={} window={} txs/block={} warmup={:?} measure={:?} per cell",
        cfg.nodes, cfg.window, cfg.txs_per_block, cfg.warmup, cfg.measure
    );
    println!(
        "\n  {:>8} {:>12} {:>14} {:>9} {:>9}",
        "tx_size", "ordered_tx/s", "ordered_B/s", "p50_ms", "p99_ms"
    );
    let mut rows = Vec::new();
    for tx_size in TX_SIZES {
        let mut cell = cfg.clone();
        cell.tx_size = tx_size;
        let r = run_tcp(&cell);
        let txs_per_sec = r.txs as f64 / r.secs;
        let bytes_per_sec = r.bytes as f64 / r.secs;
        println!(
            "  {:>8} {:>12.1} {:>14.1} {:>9.1} {:>9.1}",
            tx_size, txs_per_sec, bytes_per_sec, r.p50_ms, r.p99_ms
        );
        assert!(r.txs > 0, "cell ({tx_size}B) ordered nothing — cluster stalled");
        rows.push(format!(
            concat!(
                "    {{\"tx_size\": {}, \"txs_per_sec\": {:.1}, ",
                "\"bytes_per_sec\": {:.1}, \"p50_ms\": {:.1}, \"p99_ms\": {:.1}, ",
                "\"dropped_frames\": {}}}"
            ),
            tx_size, txs_per_sec, bytes_per_sec, r.p50_ms, r.p99_ms, r.dropped_frames
        ));
    }
    if let Some(path) = &cfg.json {
        let json = format!(
            "{{\n  \"config\": {{\"nodes\": {}, \"window\": {}, \"txs_per_block\": {}, \
             \"measure_secs\": {:.1}}},\n  \"cells\": [\n{}\n  ]\n}}\n",
            cfg.nodes,
            cfg.window,
            cfg.txs_per_block,
            cfg.measure.as_secs_f64(),
            rows.join(",\n")
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}

/// Fixed-load run of the identical engine through the deterministic
/// simulator: protocol + codec CPU cost without socket I/O.
///
/// In digest mode the same client transactions are pre-staged as batches
/// in every engine's batch map (dissemination happens off the consensus
/// thread in the real runtime) and the vertices carry only digests —
/// what remains is exactly the consensus-path cost the decoupling is
/// meant to shrink.
fn run_simnet(cfg: &Config, digest_mode: bool) -> SimResult {
    let committee = Committee::new(cfg.nodes).expect("committee size");
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(42));
    let node_config = NodeConfig::default().with_max_round(cfg.sim_rounds).with_gc_depth(64);
    let mut nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, node_config.clone()))
        .collect();
    // Fixed load: one client block per round per node, enqueued up front.
    if digest_mode {
        let batches: Vec<Batch> = (0..cfg.nodes)
            .flat_map(|i| (1..=cfg.sim_rounds).map(move |seq| (i, seq)).collect::<Vec<_>>())
            .map(|(i, seq)| {
                let block = client_block(i, seq, cfg);
                Batch::new(ProcessId::new(i as u32), 0, block.transactions().to_vec())
            })
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            for batch in &batches {
                node.store_batch(batch.clone());
                if batch.creator().as_usize() == i {
                    node.enqueue_digests(vec![batch_digest(batch)]);
                }
            }
        }
    } else {
        for (i, node) in nodes.iter_mut().enumerate() {
            for seq in 1..=cfg.sim_rounds {
                node.a_bcast(client_block(i, seq, cfg));
            }
        }
    }
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 3), 42);
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed();

    let mut result = SimResult { wall_ms: wall.as_secs_f64() * 1e3, ..SimResult::default() };
    for ordered in sim.actor(ProcessId::new(0)).ordered() {
        result.vertices += 1;
        result.txs += ordered.block.transactions().len() as u64;
    }
    result.txs_per_wallsec = result.txs as f64 / wall.as_secs_f64();
    result
}

fn main() {
    let cfg = Config::parse();
    if cfg.matrix {
        run_matrix(&cfg);
        return;
    }
    println!(
        "net_throughput: n={} window={} txs/block={} tx_size={}B durable={} \
         warmup={:?} measure={:?}",
        cfg.nodes, cfg.window, cfg.txs_per_block, cfg.tx_size, cfg.durable, cfg.warmup, cfg.measure
    );

    let tcp = run_tcp(&cfg);
    let blocks_per_sec = tcp.blocks as f64 / tcp.secs;
    let txs_per_sec = tcp.txs as f64 / tcp.secs;
    let bytes_per_sec = tcp.bytes as f64 / tcp.secs;
    let vertices_per_sec = tcp.vertices as f64 / tcp.secs;
    println!(
        "\nTCP cluster ({} nodes, closed loop, digest payloads, {:.1} s):",
        cfg.nodes, tcp.secs
    );
    println!("  ordered vertices/sec  {vertices_per_sec:>10.1}");
    println!("  client blocks/sec     {blocks_per_sec:>10.1}");
    println!("  ordered tx/sec        {txs_per_sec:>10.1}");
    println!("  ordered bytes/sec     {bytes_per_sec:>10.1}");
    println!("  submit→order p50      {:>10.1} ms", tcp.p50_ms);
    println!("  submit→order p99      {:>10.1} ms", tcp.p99_ms);
    println!("  dropped frames        {:>10}", tcp.dropped_frames);
    assert!(tcp.txs > 0, "no client transactions ordered — cluster stalled");

    let sim = run_simnet(&cfg, false);
    println!("\nsimnet (fixed load, {} rounds, delays ∈ [1, 3]):", cfg.sim_rounds);
    println!("  wall time             {:>10.1} ms", sim.wall_ms);
    println!("  ordered vertices      {:>10}", sim.vertices);
    println!("  ordered tx/wall-sec   {:>10.1}", sim.txs_per_wallsec);
    assert!(sim.txs > 0, "no transactions ordered in simnet phase");

    // The same load with digest-carrying vertices: what the consensus
    // path alone costs once batch bytes disseminate off-thread.
    let sim_digest = run_simnet(&cfg, true);
    let consensus_speedup = sim_digest.txs_per_wallsec / sim.txs_per_wallsec;
    println!("\nsimnet, digest payloads (batches pre-staged, same load):");
    println!("  wall time             {:>10.1} ms", sim_digest.wall_ms);
    println!("  ordered tx/wall-sec   {:>10.1}", sim_digest.txs_per_wallsec);
    println!("  consensus-path speedup {:>9.2}x", consensus_speedup);
    assert!(sim_digest.txs > 0, "no transactions ordered in digest simnet phase");
    // Both phases submit the identical transaction load, but pre-start
    // digest submissions coalesce into a single queue entry (rounds beat
    // batches), so the digest run front-loads its payload and orders all
    // of it within the round horizon while the inline run's tail blocks
    // fall past the last decided wave. The tx/wall-sec ratio is already
    // rate-normalized; just pin that digest mode never orders *less*.
    assert!(
        sim_digest.txs >= sim.txs,
        "digest simnet ordered less ({} < {}) under the same submitted load",
        sim_digest.txs,
        sim.txs
    );

    if let Some(path) = &cfg.json {
        let json = format!(
            concat!(
                "{{\n",
                "  \"config\": {{\"nodes\": {}, \"window\": {}, \"txs_per_block\": {}, ",
                "\"tx_size\": {}, \"durable\": {}, \"measure_secs\": {:.1}}},\n",
                "  \"tcp\": {{\"vertices_per_sec\": {:.1}, \"blocks_per_sec\": {:.1}, ",
                "\"txs_per_sec\": {:.1}, \"bytes_per_sec\": {:.1}, ",
                "\"p50_ms\": {:.1}, \"p99_ms\": {:.1}, ",
                "\"dropped_frames\": {}}},\n",
                "  \"simnet\": {{\"wall_ms\": {:.1}, \"txs_per_wallsec\": {:.1}, ",
                "\"digest_txs_per_wallsec\": {:.1}, \"consensus_path_speedup\": {:.2}}}\n",
                "}}\n",
            ),
            cfg.nodes,
            cfg.window,
            cfg.txs_per_block,
            cfg.tx_size,
            cfg.durable,
            cfg.measure.as_secs_f64(),
            vertices_per_sec,
            blocks_per_sec,
            txs_per_sec,
            bytes_per_sec,
            tcp.p50_ms,
            tcp.p99_ms,
            tcp.dropped_frames,
            sim.wall_ms,
            sim.txs_per_wallsec,
            sim_digest.txs_per_wallsec,
            consensus_speedup,
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
