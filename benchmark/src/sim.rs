//! `sim_n16`: the engine alone, single-threaded, with no sockets —
//! sixteen `DagRiderNode<BrachaRbc>` actors in `dagrider_simnet`,
//! dense edges, `gc_depth(64)`, delays of 1–10 ticks, and one process
//! silent from the start (n = 16, f = 5), for a fixed number of rounds
//! well past the 64-round GC horizon.
//!
//! Vertices carry batch digests: every batch is pre-staged in every
//! engine's batch map before the run (dissemination happens off the
//! consensus thread in the real runtime), and each process hands its
//! engine the next round's digest as soon as it creates a vertex, so
//! every vertex names exactly one batch.
//!
//! Every actor sits inside [`Timed`], which watches public getters
//! after each callback: own-round advances (vertex creation instants)
//! and growth of the ordered log (ordering instants).
//! A traced run also times every callback and classifies it by what it
//! changed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dagrider_core::batch_digest;
use dagrider_core::NodeConfig;
use dagrider_crypto::{deal_coin_keys, CoinAggregator, CoinKeys};
use dagrider_rbc::BrachaRbc;
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Actor, Context, Simulation, UniformScheduler};
use dagrider_types::{Batch, BatchDigest, Committee, ProcessId, Transaction, VertexRef};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, peak_rss_mb, percentile, process_cpu_s, sorted, Outcome};

const N: usize = 16;
/// Waves whose elected leader is the silent process, where the seed
/// allows (see [`silent_process`]).
const SKIPPED_WAVES: usize = 2;
const ROUNDS: u64 = 96;
const GC_DEPTH: u64 = 64;
const DELAY_TICKS: (u64, u64) = (1, 10);
const TXS_PER_BATCH: usize = 4;
const TX_SIZE: usize = 128;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// `NodeMessage` wire tag of a coin share.
const COIN_TAG: u8 = 1;

/// Per-callback timings of a traced run, by what the call changed.
#[derive(Debug, Default)]
struct Timings {
    /// No vertex inserted, nothing ordered: reliable broadcast only.
    rbc_us: Vec<f32>,
    /// A coin share that ordered nothing.
    coin_us: Vec<f32>,
    /// A vertex entered the DAG.
    deliver_us: Vec<f32>,
    /// The ordered log grew.
    commit_us: Vec<f32>,
    /// `(sum µs, messages)` per round the handling process was in.
    by_round: Vec<(f64, u64)>,
    busy: Duration,
}

/// A `DagRiderNode` plus the benchmark's observations of it.
struct Timed {
    node: DagRiderNode<BrachaRbc>,
    traced: bool,
    round: u64,
    /// Wall instant each own round's vertex was created, by round.
    created: Vec<Option<Instant>>,
    /// Own digests still to propose, one per round.
    staged: VecDeque<BatchDigest>,
    /// `(vertex, wall instant)` as the ordered log grew.
    ordered_at: Vec<(VertexRef, Instant)>,
    timings: Timings,
}

impl Timed {
    /// Times one callback (when traced) and records what it changed.
    fn observe(&mut self, tag: Option<u8>, call: impl FnOnce(&mut DagRiderNode<BrachaRbc>)) {
        let before =
            self.traced.then(|| (self.node.dag().len(), self.node.ordered().len(), Instant::now()));
        call(&mut self.node);
        let now = Instant::now();
        let round = self.node.current_round().number();
        while self.round < round {
            self.round += 1;
            if let Some(slot) = self.created.get_mut(self.round as usize) {
                *slot = Some(now);
            }
            if let Some(digest) = self.staged.pop_front() {
                self.node.enqueue_digests(vec![digest]);
            }
        }
        let log = self.node.ordered();
        for ov in &log[self.ordered_at.len()..] {
            self.ordered_at.push((ov.vertex, now));
        }
        if let Some((dag_len, log_len, start)) = before {
            let spent = now - start;
            let us = spent.as_secs_f64() * 1e6;
            // What the call changed names the layer that did the work.
            let t = &mut self.timings;
            let bucket = if self.node.ordered().len() > log_len {
                &mut t.commit_us
            } else if self.node.dag().len() > dag_len {
                &mut t.deliver_us
            } else if tag == Some(COIN_TAG) {
                &mut t.coin_us
            } else {
                &mut t.rbc_us
            };
            bucket.push(us as f32);
            let slot = round as usize;
            if t.by_round.len() <= slot {
                t.by_round.resize(slot + 1, (0.0, 0));
            }
            t.by_round[slot].0 += us;
            t.by_round[slot].1 += 1;
            t.busy += spent;
        }
    }
}

impl Actor for Timed {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.observe(None, |node| node.init(ctx));
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        self.observe(payload.first().copied(), |node| node.on_message(from, payload, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        self.observe(None, |node| node.on_timer(tag, ctx));
    }
}

/// Transaction `i` of process `p`'s round-`r` batch: a unique tag up
/// front, seeded filler behind it.
fn staged_tx(p: usize, r: u64, i: usize, filler: &[u8]) -> Transaction {
    let tag = (p as u64) << 48 | r << 8 | i as u64;
    let mut bytes = tag.to_le_bytes().to_vec();
    bytes.extend_from_slice(&filler[8..]);
    Transaction::new(bytes)
}

fn tx_tag(tx: &Transaction) -> Option<(usize, u64, usize)> {
    let tag = u64::from_le_bytes(tx.payload().get(..8)?.try_into().ok()?);
    Some(((tag >> 48) as usize, (tag >> 8) & 0xff_ffff_ffff, (tag & 0xff) as usize))
}

/// The process to silence, so that every seed skips alike. Commit
/// latency is measured on vertices past the GC horizon (rounds above
/// [`GC_DEPTH`]), so the silent process's skipped-leader waves must all
/// fall before it, and never on wave 1. Among the processes other than 0
/// (which measures) that qualify, it is the one the seed's coin elects
/// leader of closest to [`SKIPPED_WAVES`] waves, lowest-numbered first.
fn silent_process(keys: &[CoinKeys], seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc011);
    let mut led: Vec<Vec<u64>> = vec![Vec::new(); N];
    for wave in 1..=ROUNDS / 4 {
        let mut coin = CoinAggregator::new(wave, keys[0].public());
        let leader = keys
            .iter()
            .find_map(|k| coin.add_share(k.share(wave, &mut rng)).ok().flatten())
            .expect("a full set of honest shares opens the coin");
        led[leader.as_usize()].push(wave);
    }
    let warm_up = 2..GC_DEPTH / 4;
    (1..N)
        .min_by_key(|&p| {
            let outside = led[p].iter().any(|w| !warm_up.contains(w));
            (outside || led[p].is_empty(), led[p].len().abs_diff(SKIPPED_WAVES), p)
        })
        .expect("n > 1")
}

/// Key dealing, choice of the silent process, actor construction and
/// batch staging.
fn build(seed: u64, traced: bool) -> (Vec<Timed>, usize) {
    let committee = Committee::new(N).expect("n = 16 is a valid committee");
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
    let silent = silent_process(&keys, seed);
    let config = NodeConfig::default().with_max_round(ROUNDS).with_gc_depth(GC_DEPTH);
    let mut filler = vec![0u8; TX_SIZE];
    rand::Rng::fill_bytes(&mut StdRng::seed_from_u64(seed ^ 0x5eed), &mut filler);
    let batches: Vec<Vec<Batch>> = (0..N)
        .map(|p| {
            (1..=ROUNDS)
                .map(|r| {
                    let txs: Vec<Transaction> =
                        (0..TXS_PER_BATCH).map(|i| staged_tx(p, r, i, &filler)).collect();
                    Batch::new(ProcessId::new(p as u32), 0, txs)
                })
                .collect()
        })
        .collect();
    let actors = committee
        .members()
        .zip(keys)
        .map(|(p, k)| {
            let mut node = DagRiderNode::new(committee, p, k, config.clone());
            for batch in batches.iter().flatten() {
                node.store_batch(batch.clone());
            }
            let mut staged: VecDeque<BatchDigest> =
                batches[p.as_usize()].iter().map(batch_digest).collect();
            if let Some(first) = staged.pop_front() {
                node.enqueue_digests(vec![first]);
            }
            Timed {
                node,
                traced,
                round: 0,
                created: vec![None; ROUNDS as usize + 2],
                staged,
                ordered_at: Vec::new(),
                timings: Timings::default(),
            }
        })
        .collect();
    (actors, silent)
}

/// One simulation's results.
struct SimRun {
    wall_s: f64,
    cpu_s: f64,
    /// Creation → ordering at every honest process, for vertices past
    /// the GC horizon, by the vertex's wave, each sorted.
    commit_ms: Vec<Vec<f64>>,
    vertices: u64,
    txs: u64,
    rounds: u64,
    waves: u64,
    silent: usize,
    /// Waves process 0 interpreted without committing their leader.
    skipped: Vec<u64>,
    /// The counts that must repeat exactly for a given seed.
    counts: Counts,
    timings: Timings,
    problems: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    msgs_per_vtx: f64,
    bytes_per_vtx: f64,
    direct: u64,
    indirect: u64,
    skipped: u64,
    retained: u64,
}

fn simulate((actors, silent): (Vec<Timed>, usize), seed: u64) -> SimRun {
    let committee = Committee::new(N).expect("n = 16 is a valid committee");
    let mut sim = Simulation::new(
        committee,
        actors,
        UniformScheduler::new(DELAY_TICKS.0, DELAY_TICKS.1),
        seed,
    );
    sim.crash(ProcessId::new(silent as u32), true);
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    sim.run();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let actors = sim.actors();
    let p0 = &actors[0];
    let log = p0.node.ordered();
    let mut commit_ms = vec![Vec::new(); ((ROUNDS - GC_DEPTH) / 4) as usize];
    for (v, at) in actors.iter().flat_map(|a| &a.ordered_at) {
        let round = v.round.number();
        let Some(created) = actors[v.source.as_usize()].created[round as usize] else { continue };
        if round > GC_DEPTH {
            let wave = ((round - GC_DEPTH - 1) / 4) as usize;
            commit_ms[wave].push(at.saturating_duration_since(created).as_secs_f64() * 1e3);
        }
    }
    let commit_ms = commit_ms.into_iter().map(sorted).collect();
    let vertices = log.len() as u64;
    let txs = log.iter().map(|ov| ov.block.transactions().len() as u64).sum();
    let commits = p0.node.commits();
    let outcome = |o| commits.iter().filter(|c| c.outcome == o).count() as u64;
    let metrics = sim.metrics();
    let counts = Counts {
        msgs_per_vtx: metrics.messages_sent() as f64 / vertices.max(1) as f64,
        bytes_per_vtx: metrics.bytes_sent() as f64 / vertices.max(1) as f64,
        direct: outcome(dagrider_core::WaveOutcome::Direct),
        indirect: outcome(dagrider_core::WaveOutcome::Indirect),
        skipped: outcome(dagrider_core::WaveOutcome::Skipped),
        retained: p0.node.dag().len() as u64,
    };

    // Output checks: honest logs agree on their common prefix; every
    // ordered transaction was staged and appears at most once per log.
    let mut problems = Vec::new();
    if vertices == 0 {
        problems.push("process 0 ordered nothing".to_string());
    }
    for p in sim.honest_processes() {
        let other = actors[p.as_usize()].node.ordered();
        if let Some(k) =
            log.iter().zip(other).position(|(a, b)| (a.vertex, &a.block) != (b.vertex, &b.block))
        {
            problems.push(format!(
                "process {} disagrees with process 0 at log position {k}",
                p.index()
            ));
        }
        let mut seen = vec![false; N * (ROUNDS as usize + 1) * TXS_PER_BATCH];
        for tx in other.iter().flat_map(|ov| ov.block.transactions()) {
            match tx_tag(tx) {
                Some((src, r, i)) if src < N && (1..=ROUNDS).contains(&r) && i < TXS_PER_BATCH => {
                    let slot = (src * (ROUNDS as usize + 1) + r as usize) * TXS_PER_BATCH + i;
                    if std::mem::replace(&mut seen[slot], true) {
                        problems.push(format!(
                            "process {}: batch ({src}, {r}) ordered twice",
                            p.index()
                        ));
                        break;
                    }
                }
                _ => {
                    problems.push(format!(
                        "process {}: ordered a transaction that was never staged",
                        p.index()
                    ));
                    break;
                }
            }
        }
    }
    let mut timings = Timings::default();
    for actor in actors {
        let t = &actor.timings;
        timings.rbc_us.extend(&t.rbc_us);
        timings.coin_us.extend(&t.coin_us);
        timings.deliver_us.extend(&t.deliver_us);
        timings.commit_us.extend(&t.commit_us);
        if timings.by_round.len() < t.by_round.len() {
            timings.by_round.resize(t.by_round.len(), (0.0, 0));
        }
        for (acc, (us, count)) in timings.by_round.iter_mut().zip(&t.by_round) {
            acc.0 += us;
            acc.1 += count;
        }
        timings.busy += t.busy;
    }
    SimRun {
        wall_s,
        cpu_s,
        commit_ms,
        vertices,
        txs,
        rounds: p0.node.current_round().number(),
        silent,
        skipped: commits
            .iter()
            .filter(|c| c.outcome == dagrider_core::WaveOutcome::Skipped)
            .map(|c| c.wave.number())
            .collect(),
        waves: p0.node.decided_wave().number(),
        counts,
        timings,
        problems,
    }
}

/// Set-ups (timed) and simulations: at least [`SETUPS`] set-ups, and
/// simulations back to back while another one fits in `secs`.
fn runs(seed: u64, secs: f64, traced: bool, setups: usize) -> (Vec<f64>, Vec<SimRun>) {
    let begin = Instant::now();
    let mut setup_s = Vec::new();
    let mut sims: Vec<SimRun> = Vec::new();
    loop {
        let t0 = Instant::now();
        let actors = build(seed, traced);
        setup_s.push(t0.elapsed().as_secs_f64());
        let elapsed = begin.elapsed().as_secs_f64();
        let fits = sims.last().is_none_or(|last| elapsed + last.wall_s <= secs);
        if fits {
            sims.push(simulate(actors, seed));
        } else if setup_s.len() >= setups {
            break;
        }
    }
    (setup_s, sims)
}

/// The median over waves of each wave's latency percentile `p`. A wave
/// whose leader is skipped delays its own vertices and the wave before
/// by a wave; this moves two waves' values, not the result.
fn by_wave(waves: &[Vec<f64>], p: f64) -> f64 {
    median(&waves.iter().map(|wave| percentile(wave, p)).collect::<Vec<_>>())
}

fn end_to_end(setup_s: &[f64], sims: &[SimRun], out: &mut Outcome) {
    let med = |f: &dyn Fn(&SimRun) -> f64| median(&sims.iter().map(f).collect::<Vec<_>>());
    out.push("setup_s", median(setup_s), "s");
    out.push("commit_p50_ms", med(&|s| by_wave(&s.commit_ms, 0.50)), "ms");
    out.push("commit_p99_ms", med(&|s| by_wave(&s.commit_ms, 0.99)), "ms");
    out.push("ordered_tx_per_s", med(&|s| s.txs as f64 / s.wall_s), "tx/s");
    out.push(
        "ordered_mb_per_s",
        med(&|s| (s.txs * TX_SIZE as u64) as f64 / s.wall_s / 1e6),
        "MB/s",
    );
    out.push("cpu_ms_per_ktx", med(&|s| s.cpu_s * 1e3 / (s.txs.max(1) as f64 / 1e3)), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push("sim_ordered_vtx_per_s", med(&|s| s.vertices as f64 / s.wall_s), "1/s");
    let first = &sims[0];
    eprintln!(
        "# {} simulation(s) of {ROUNDS} rounds, {:.3} s wall each (median); process {} silent, waves {:?} skipped; \
         {} commit samples, {} vertices and {} tx ordered at process 0",
        sims.len(),
        med(&|s| s.wall_s),
        first.silent,
        first.skipped,
        first.commit_ms.iter().map(Vec::len).sum::<usize>(),
        first.vertices,
        first.txs
    );
}

fn per_layer(traced: &SimRun, plain: &Outcome, out: &mut Outcome) {
    out.push("consensus.rounds_per_s", traced.rounds as f64 / traced.wall_s, "1/s");
    out.push("consensus.waves_per_s", traced.waves as f64 / traced.wall_s, "1/s");
    engine_metrics(traced, out);
    let vtx_per_s = traced.vertices as f64 / traced.wall_s;
    let commit_p50 = by_wave(&traced.commit_ms, 0.50);
    out.push("trace.overhead_commit_p50_ms", commit_p50 - plain.value("commit_p50_ms"), "ms");
    out.push("trace.overhead_vtx_per_s", plain.value("sim_ordered_vtx_per_s") - vtx_per_s, "1/s");
}

/// The engine's layers in a traced simulation: per-callback cost by
/// what the call changed, and the counts that repeat exactly.
fn engine_metrics(traced: &SimRun, out: &mut Outcome) {
    let t = &traced.timings;
    let us = |v: &[f32], p: f64| percentile(&sorted(v.iter().map(|&x| f64::from(x)).collect()), p);
    // Mean cost per message in the last quarter of rounds over the first.
    let quarter = (ROUNDS / 4) as usize;
    let mean = |rounds: std::ops::Range<usize>| {
        let (sum, n) = t
            .by_round
            .get(rounds)
            .unwrap_or_default()
            .iter()
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        sum / n.max(1) as f64
    };
    let late_over_early =
        mean(ROUNDS as usize + 1 - quarter..ROUNDS as usize + 1) / mean(1..quarter + 1);
    let c = traced.counts;
    out.push("rbc.msg_us_p50", us(&t.rbc_us, 0.50), "us");
    out.push("rbc.msg_us_p99", us(&t.rbc_us, 0.99), "us");
    out.push("core.deliver_us_p50", us(&t.deliver_us, 0.50), "us");
    out.push("core.deliver_us_p99", us(&t.deliver_us, 0.99), "us");
    out.push("ordering.commit_us_p50", us(&t.commit_us, 0.50), "us");
    out.push("coin.share_us_p50", us(&t.coin_us, 0.50), "us");
    out.push("engine.msg_us_late_over_early", late_over_early, "ratio");
    out.push("simnet.self_s", traced.wall_s - t.busy.as_secs_f64(), "s");
    out.push("simnet.msgs_per_vtx", c.msgs_per_vtx, "count");
    out.push("simnet.bytes_per_vtx", c.bytes_per_vtx, "B");
    out.push("ordering.direct", c.direct as f64, "count");
    out.push("ordering.indirect", c.indirect as f64, "count");
    out.push("ordering.skipped", c.skipped as f64, "count");
    out.push("dag.retained_vertices", c.retained as f64, "count");
    eprintln!(
        "# traced: {} rbc, {} coin, {} deliver, {} commit callbacks; {:.1} vertices/s traced",
        t.rbc_us.len(),
        t.coin_us.len(),
        t.deliver_us.len(),
        t.commit_us.len(),
        traced.vertices as f64 / traced.wall_s
    );
}

/// The engine's per-layer metrics from one traced simulation of `seed`,
/// for the traced run of a TCP workload: the rounds of a 4-node cluster
/// hide engine cost, so the engine's layers are timed here. Returns the
/// simulation's output-check problems.
pub fn engine_layers(seed: u64, out: &mut Outcome) -> Vec<String> {
    let traced = simulate(build(seed, true), seed);
    engine_metrics(&traced, out);
    traced.problems
}

/// Runs `sim_n16`. Untraced: the end-to-end metrics. Traced: one
/// untraced and one traced simulation of the same seed, reporting the
/// per-layer metrics and the difference between the two.
pub fn run(seed: u64, secs: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, sims) =
        runs(seed, if trace { 0.0 } else { secs }, false, if trace { 1 } else { SETUPS });
    let mut plain = Outcome::default();
    end_to_end(&setup_s, &sims, &mut plain);
    out.attempted = sims.iter().map(|s| s.vertices).sum();
    for s in &sims {
        out.problems.extend(s.problems.iter().cloned());
        if s.counts != sims[0].counts {
            out.problems.push(format!(
                "counts differ between runs of one seed: {:?} vs {:?}",
                s.counts, sims[0].counts
            ));
        }
    }
    if !trace {
        out.metrics = plain.metrics;
        return out;
    }
    let traced = simulate(build(seed, true), seed);
    out.problems.extend(traced.problems.iter().cloned());
    if traced.counts != sims[0].counts {
        out.problems
            .push(format!("tracing changed the run: {:?} vs {:?}", traced.counts, sims[0].counts));
    }
    per_layer(&traced, &plain, &mut out);
    out
}
