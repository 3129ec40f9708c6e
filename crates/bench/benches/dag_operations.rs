//! Criterion benchmarks of the DAG store: vertex insertion, the
//! `path` / `strong_path` reachability queries of Algorithm 1, the commit
//! rule's support count, causal-history collection, and the weak-edge
//! orphan scan — the per-wave CPU work of the ordering layer, swept over
//! committee sizes n ∈ {4, 16, 31} plus large-committee rows at
//! n ∈ {64, 128, 256} in dense and sparse-edge (k = 24) modes. The
//! `engine/handle` rows time one engine call of a long-running cluster at
//! two ages, to show whether the cost per call grows with run length.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, Criterion};
use dagrider_core::{Dag, DagRiderEngine, EngineInput, EngineOutput, NodeConfig};
use dagrider_crypto::deal_coin_keys;
use dagrider_rbc::BrachaRbc;
use dagrider_types::{
    Block, Committee, ProcessId, Round, SeqNum, SparseEdgeConfig, Time, Vertex, VertexBuilder,
    VertexRef, Wave,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Builds a fully connected DAG over `active` processes, `rounds` deep.
/// With `sparse` set, each vertex's strong edges are the config's
/// deterministic k-sample of the previous round (as in sparse mode).
fn build_dag_with(n: usize, active: usize, rounds: u64, sparse: Option<SparseEdgeConfig>) -> Dag {
    let committee = Committee::new(n).unwrap();
    let min_strong = sparse.map_or(committee.quorum(), |s| s.min_strong_edges(&committee));
    let mut dag = Dag::new(committee);
    for r in 1..=rounds {
        for p in 0..active as u32 {
            let source = ProcessId::new(p);
            let mut strong: Vec<VertexRef> = if r == 1 {
                (0..n as u32).map(|s| VertexRef::new(Round::GENESIS, ProcessId::new(s))).collect()
            } else {
                (0..active as u32)
                    .map(|s| VertexRef::new(Round::new(r - 1), ProcessId::new(s)))
                    .collect()
            };
            if let Some(s) = sparse {
                strong = s.sample(&committee, source, Round::new(r), strong);
            }
            let v = VertexBuilder::new(source, Round::new(r), Block::empty(source, SeqNum::new(r)))
                .strong_edges(strong)
                .build_with_min_strong(&committee, min_strong)
                .unwrap();
            dag.insert(v);
        }
    }
    dag
}

/// Dense variant (all previous-round vertices referenced).
fn build_dag(n: usize, active: usize, rounds: u64) -> Dag {
    build_dag_with(n, active, rounds, None)
}

/// The committee sizes swept by every benchmark: the paper's minimum
/// (f = 1), a mid-size deployment (f = 5), and f = 10.
const SIZES: [usize; 3] = [4, 16, 31];

/// Number of active (vertex-producing) processes: the `2f + 1` quorum.
fn active(n: usize) -> usize {
    Committee::new(n).unwrap().quorum()
}

fn bench_insert(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("dag/insert_40_rounds/n={n}"), |b| {
            b.iter(|| black_box(build_dag(n, active(n), 40)));
        });
    }
}

/// One round of every query family the ordering layer issues against a
/// 40-round DAG: deep strong/weak reachability, causal history, the
/// commit rule's support count, and the orphan scan.
fn bench_queries(c: &mut Criterion) {
    for n in SIZES {
        let active = active(n);
        let dag = build_dag(n, active, 40);
        let top = VertexRef::new(Round::new(40), ProcessId::new(0));
        let bottom = VertexRef::new(Round::new(1), ProcessId::new(active as u32 - 1));
        c.bench_function(&format!("dag/strong_path/depth=39/n={n}"), |b| {
            b.iter(|| assert!(dag.strong_path(black_box(top), black_box(bottom))));
        });
        c.bench_function(&format!("dag/path/depth=39/n={n}"), |b| {
            b.iter(|| assert!(dag.path(black_box(top), black_box(bottom))));
        });
        c.bench_function(&format!("dag/causal_history/depth=40/n={n}"), |b| {
            b.iter(|| black_box(dag.causal_history(top)).len());
        });

        // The commit rule: count last-round supporters of a wave leader.
        let wave = Wave::new(9);
        let leader = VertexRef::new(wave.first_round(), ProcessId::new(1));
        c.bench_function(&format!("dag/commit_rule_support/n={n}"), |b| {
            b.iter(|| {
                dag.round_vertices(wave.last_round())
                    .values()
                    .filter(|v: &&Vertex| dag.strong_path(v.reference(), black_box(leader)))
                    .count()
            });
        });

        // The weak-edge orphan scan of Algorithm 2 line 27.
        let frontier: Vec<VertexRef> =
            (0..active as u32).map(|s| VertexRef::new(Round::new(40), ProcessId::new(s))).collect();
        c.bench_function(&format!("dag/orphans_below/depth=38/n={n}"), |b| {
            b.iter(|| black_box(dag.orphans_below(black_box(&frontier), Round::new(38))).len());
        });
    }
}

/// Sample size of the sparse-edge k used by the large-committee rows
/// (the experiment default; threshold `n - k + 1` keeps commits safe).
const SPARSE_K: usize = 24;

/// Large-committee sweeps, dense vs sparse k = 24: per-vertex insert
/// cost and the query families at n ∈ {64, 128, 256}. Dense insert
/// closure work grows O(n) per vertex; the sparse rows are the
/// sub-linear counterpart the acceptance criteria compare against.
fn bench_large_committees(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let active = active(n);
        for (mode, sparse) in
            [("dense", None), ("sparse_k24", Some(SparseEdgeConfig::new(SPARSE_K, 7)))]
        {
            group.bench_function(&format!("insert_40_rounds/n={n}/{mode}"), |b| {
                b.iter(|| black_box(build_dag_with(n, active, 40, sparse)));
            });
        }
    }
    for n in [64usize, 128] {
        let active = active(n);
        for (mode, sparse) in
            [("dense", None), ("sparse_k24", Some(SparseEdgeConfig::new(SPARSE_K, 7)))]
        {
            let dag = build_dag_with(n, active, 40, sparse);
            let top = VertexRef::new(Round::new(40), ProcessId::new(0));
            let bottom = VertexRef::new(Round::new(1), ProcessId::new(active as u32 - 1));
            group.bench_function(&format!("strong_path/depth=39/n={n}/{mode}"), |b| {
                // Not asserted: a sparse DAG may legitimately lack this
                // specific deep path; the query cost is what's measured.
                b.iter(|| black_box(dag.strong_path(black_box(top), black_box(bottom))));
            });
            group.bench_function(&format!("causal_history/depth=40/n={n}/{mode}"), |b| {
                b.iter(|| black_box(dag.causal_history(top)).len());
            });
            let wave = Wave::new(9);
            let leader = VertexRef::new(wave.first_round(), ProcessId::new(1));
            group.bench_function(&format!("commit_rule_support/n={n}/{mode}"), |b| {
                b.iter(|| {
                    dag.round_vertices(wave.last_round())
                        .values()
                        .filter(|v: &&Vertex| dag.strong_path(v.reference(), black_box(leader)))
                        .count()
                });
            });
        }
    }
    group.finish();
}

/// The acceptance-criteria benchmark: a 64-round (16-wave) DAG at n = 31,
/// the deepest query workload in the suite.
fn bench_deep_queries(c: &mut Criterion) {
    let n = 31;
    let active = active(n);
    let dag = build_dag(n, active, 64);
    let top = VertexRef::new(Round::new(64), ProcessId::new(0));
    let bottom = VertexRef::new(Round::new(1), ProcessId::new(active as u32 - 1));
    c.bench_function("dag/strong_path/depth=63/n=31", |b| {
        b.iter(|| assert!(dag.strong_path(black_box(top), black_box(bottom))));
    });
    c.bench_function("dag/causal_history/depth=64/n=31", |b| {
        b.iter(|| black_box(dag.causal_history(top)).len());
    });
    let wave = Wave::new(15);
    let leader = VertexRef::new(wave.first_round(), ProcessId::new(1));
    c.bench_function("dag/commit_rule_support/64_rounds/n=31", |b| {
        b.iter(|| {
            dag.round_vertices(wave.last_round())
                .values()
                .filter(|v: &&Vertex| dag.strong_path(v.reference(), black_box(leader)))
                .count()
        });
    });
}

/// Four engines (`gc_depth(64)`, empty blocks, no round cap) wired by an
/// instant FIFO queue: a cluster that runs for as long as it is stepped.
struct FifoCluster {
    committee: Committee,
    engines: Vec<DagRiderEngine<BrachaRbc>>,
    rngs: Vec<StdRng>,
    wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)>,
    clock: u64,
}

impl FifoCluster {
    fn start() -> Self {
        let committee = Committee::new(4).unwrap();
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(11));
        let config = NodeConfig::default().with_gc_depth(64);
        let engines = committee
            .members()
            .zip(keys)
            .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
            .collect();
        let rngs = (0..4).map(|i| StdRng::seed_from_u64(200 + i)).collect();
        let mut cluster = FifoCluster { committee, engines, rngs, wire: VecDeque::new(), clock: 0 };
        for p in committee.members() {
            let i = p.as_usize();
            let outputs = cluster.engines[i].start(Time::ZERO, &mut cluster.rngs[i]).outputs;
            cluster.route(p, outputs);
        }
        cluster
    }

    fn route(&mut self, from: ProcessId, outputs: Vec<EngineOutput>) {
        for output in outputs {
            match output {
                EngineOutput::Send { to, payload } => {
                    self.wire.push_back((from, to, payload.to_vec()));
                }
                EngineOutput::Broadcast { payload } => {
                    for to in self.committee.others(from) {
                        self.wire.push_back((from, to, payload.to_vec()));
                    }
                }
                EngineOutput::SetTimer { .. } | EngineOutput::Ordered(_) => {}
            }
        }
    }

    /// Delivers the oldest message on the wire: one `handle` call.
    fn step(&mut self) {
        let (from, to, payload) = self.wire.pop_front().expect("an uncapped run never quiesces");
        self.clock += 1;
        let i = to.as_usize();
        let input = EngineInput::Message { from, payload };
        let outputs =
            self.engines[i].handle(Time::new(self.clock), input, &mut self.rngs[i]).outputs;
        self.route(to, outputs);
    }

    fn run_to(&mut self, round: u64) {
        while self.engines[0].current_round() < Round::new(round) {
            self.step();
        }
    }
}

/// The mean cost of one engine call near round 1,000 and near round
/// 10,000 of one cluster. Both rows sit far past the 64-round GC horizon,
/// so equal rows mean the cost per call does not grow with run length.
fn bench_engine_handle(c: &mut Criterion) {
    let mut cluster = FifoCluster::start();
    for round in [1_000u64, 10_000] {
        cluster.run_to(round);
        c.bench_function(&format!("engine/handle/n=4/gc=64/round={round}"), |b| {
            b.iter(|| cluster.step());
        });
    }
}

criterion_group!(
    benches,
    bench_insert,
    bench_queries,
    bench_deep_queries,
    bench_large_committees,
    bench_engine_handle
);
criterion_main!(benches);
