//! `trace-dag`: run a traced DAG-Rider simulation and print the
//! observability report — per-wave commit latency (ticks, §3 asynchronous
//! time units, rounds), ordering-lag distribution, per-process traffic.
//!
//! ```text
//! trace-dag [n] [seed] [max-round] [sparse-k]
//!     # defaults: 7 processes, seed 7, 24 rounds, sparse-k 0 (dense);
//!     # sparse-k > 0 runs Clownfish-style sparse-edge mode with that k
//! ```
//!
//! Every honest node's trace is also audited against the §4–§5 invariant
//! catalogue; exit code 0 means the report printed and the audit was
//! clean, 1 means violations were found, 2 means bad usage.

use std::process::ExitCode;

use dagrider_analysis::{DagAuditor, TraceReport};
use dagrider_core::NodeConfig;
use dagrider_crypto::deal_coin_keys;
use dagrider_rbc::BrachaRbc;
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Simulation, UniformScheduler};
use dagrider_trace::TraceRecord;
use dagrider_types::Committee;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut values = [7u64, 7, 24, 0];
    for (i, arg) in args.iter().enumerate() {
        match (i < values.len(), arg.parse::<u64>()) {
            (true, Ok(v)) => values[i] = v,
            _ => {
                eprintln!("usage: trace-dag [n] [seed] [max-round] [sparse-k]");
                return ExitCode::from(2);
            }
        }
    }
    let [n, seed, max_round, sparse_k] = values;
    let Ok(committee) = Committee::new(n as usize) else {
        eprintln!("trace-dag: n must be at least 4 (n = 3f + 1)");
        return ExitCode::from(2);
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    // Ring sized generously: a full run of R rounds emits a handful of
    // records per vertex per process, far under 64 per round per peer.
    let capacity = (max_round as usize + 1) * committee.n() * 64;
    let mut config = NodeConfig::default().with_max_round(max_round);
    if sparse_k > 0 {
        config = config.with_sparse_edges(sparse_k as usize, seed);
    }
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()).with_trace(capacity))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), seed);
    sim.run();

    let mut merged: Vec<TraceRecord> = Vec::new();
    let mut dropped = 0u64;
    for p in committee.members() {
        merged.extend(sim.actor(p).trace_records());
        dropped += sim.actor(p).tracer().map_or(0, |tracer| tracer.dropped());
    }
    let mode = match config.sparse_edges {
        Some(s) => format!("sparse k={}", s.k()),
        None => "dense".to_string(),
    };
    println!(
        "trace-dag: {committee}, seed {seed}, max round {max_round}, {mode}: {} records ({dropped} dropped)",
        merged.len(),
    );
    let report = TraceReport::build(&merged, sim.metrics(), sim.now());
    print!("{report}");

    let mut auditor = DagAuditor::new(committee);
    if let Some(sparse) = config.sparse_edges {
        auditor = auditor.with_sparse_edges(sparse);
    }
    let mut violations = auditor.audit_trace(&merged);
    for p in committee.members() {
        violations.extend(auditor.audit_dag(sim.actor(p).dag()));
        violations.extend(auditor.audit_commits(sim.actor(p).dag(), sim.actor(p).commits()));
    }
    if violations.is_empty() {
        println!("audit clean");
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            println!("violation: {violation}");
        }
        println!("{} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
