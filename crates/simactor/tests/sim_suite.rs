//! The pre-refactor `DagRiderNode` simulation suite, running unchanged
//! through the [`SimActor`](dagrider_simactor::SimActor) adapter — the
//! behavior-preservation proof for the sans-I/O engine extraction.

use std::collections::{BTreeMap, BTreeSet};

use dagrider_core::{
    batch_digest, DurableEvent, EngineEvent, EngineInput, EngineOutput, NodeConfig, Turn,
};
use dagrider_crypto::{deal_coin_keys, CoinKeys};
use dagrider_rbc::{AvidRbc, BrachaRbc, ProbabilisticRbc, ReliableBroadcast};
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Actor, Context, Simulation, UniformScheduler};
use dagrider_trace::TraceEvent;
use dagrider_types::{
    Batch, Block, Committee, ProcessId, Round, SeqNum, Time, Transaction, VertexRef, Wave,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn build_sim<B: ReliableBroadcast>(
    n: usize,
    seed: u64,
    max_round: u64,
) -> Simulation<DagRiderNode<B>, UniformScheduler> {
    let committee = Committee::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(max_round);
    let nodes = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::<B>::new(committee, p, k, config.clone()))
        .collect();
    Simulation::new(committee, nodes, UniformScheduler::new(1, 10), seed)
}

fn assert_total_order<B: ReliableBroadcast>(sim: &Simulation<DagRiderNode<B>, UniformScheduler>) {
    let committee = sim.committee();
    let logs: Vec<Vec<_>> = committee
        .members()
        .map(|p| sim.actor(p).ordered().iter().map(|o| o.vertex).collect())
        .collect();
    // Total order: every pair of logs must be prefix-comparable.
    for (i, a) in logs.iter().enumerate() {
        for b in logs.iter().skip(i + 1) {
            let common = a.len().min(b.len());
            assert_eq!(&a[..common], &b[..common], "logs diverge");
        }
    }
}

#[test]
fn bracha_stack_reaches_agreement() {
    let sim = {
        let mut s = build_sim::<BrachaRbc>(4, 11, 24);
        s.run();
        s
    };
    assert_total_order(&sim);
    let min_len = sim.committee().members().map(|p| sim.actor(p).ordered().len()).min().unwrap();
    assert!(min_len > 0, "at least one wave must commit");
    assert!(sim.actor(ProcessId::new(0)).decided_wave() >= Wave::new(1));
}

#[test]
fn avid_stack_reaches_agreement() {
    let mut sim = build_sim::<AvidRbc>(4, 13, 24);
    sim.run();
    assert_total_order(&sim);
    assert!(!sim.actor(ProcessId::new(0)).ordered().is_empty());
}

#[test]
fn probabilistic_stack_reaches_agreement() {
    let mut sim = build_sim::<ProbabilisticRbc>(4, 17, 24);
    sim.run();
    assert_total_order(&sim);
}

#[test]
fn client_blocks_ride_the_dag() {
    let mut sim = build_sim::<BrachaRbc>(4, 19, 24);
    let tx = Transaction::synthetic(99, 32);
    let block = Block::new(ProcessId::new(2), SeqNum::new(1), vec![tx.clone()]);
    sim.actor_mut(ProcessId::new(2)).a_bcast(block);
    sim.run();
    // The block is ordered at every process.
    for p in sim.committee().members() {
        let found = sim.actor(p).ordered().iter().any(|o| o.block.transactions().contains(&tx));
        assert!(found, "{p} did not order the client block");
    }
}

#[test]
fn seeds_change_schedules_but_never_order() {
    for seed in [1u64, 2, 3] {
        let mut sim = build_sim::<BrachaRbc>(4, seed, 16);
        sim.run();
        assert_total_order(&sim);
    }
}

#[test]
fn larger_committee_commits() {
    let mut sim = build_sim::<BrachaRbc>(7, 23, 16);
    sim.run();
    assert_total_order(&sim);
    assert!(sim.actor(ProcessId::new(0)).decided_wave() >= Wave::new(1));
}

#[test]
fn piggybacked_coin_commits_without_dedicated_share_messages() {
    // §5 footnote 1: shares ride the DAG. The protocol must still commit,
    // and (except for the end-of-run flush) no NodeMessage::Coin traffic
    // is needed.
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(24).with_piggyback_coin();
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 41);
    sim.run();
    assert_total_order(&sim);
    for p in committee.members() {
        assert!(
            sim.actor(p).decided_wave() >= Wave::new(4),
            "{p} only decided {}",
            sim.actor(p).decided_wave()
        );
    }
}

#[test]
fn piggyback_and_dedicated_modes_agree_on_message_overhead() {
    // Piggybacking removes the n·(n-1) dedicated share messages per wave
    // (minus the end-of-run flush).
    let run = |piggyback: bool| {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let keys = deal_coin_keys(&committee, &mut rng);
        let mut config = NodeConfig::default().with_max_round(20);
        config.piggyback_coin = piggyback;
        let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
            .members()
            .zip(keys)
            .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
            .collect();
        let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 43);
        sim.run();
        (sim.metrics().messages_sent(), sim.actor(ProcessId::new(0)).decided_wave())
    };
    let (dedicated_msgs, dedicated_wave) = run(false);
    let (piggyback_msgs, piggyback_wave) = run(true);
    assert!(piggyback_msgs < dedicated_msgs, "{piggyback_msgs} !< {dedicated_msgs}");
    assert!(dedicated_wave >= Wave::new(3) && piggyback_wave >= Wave::new(3));
}

#[test]
fn garbage_collection_prunes_without_breaking_order() {
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(47);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(40).with_gc_depth(8);
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 47);
    sim.run();
    assert_total_order(&sim);
    for p in committee.members() {
        let node = sim.actor(p);
        assert!(node.vertices_pruned() > 0, "{p} never pruned anything");
        assert!(node.dag().pruned_floor() > Round::new(1), "{p}'s GC floor never advanced");
        // Ordered output is unaffected: a 40-round run still orders nearly
        // everything.
        assert!(node.ordered().len() > 100, "{p} ordered {}", node.ordered().len());
    }
    // And the retained DAG is small: at most gc_depth + in-flight rounds
    // of vertices plus genesis.
    let node = sim.actor(ProcessId::new(0));
    assert!(node.dag().len() < 4 * 24, "GC left {} vertices in the DAG", node.dag().len());
}

#[test]
fn gc_and_piggyback_compose() {
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(53);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(32).with_gc_depth(8).with_piggyback_coin();
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 53);
    sim.run();
    assert_total_order(&sim);
    assert!(sim.actor(ProcessId::new(2)).decided_wave() >= Wave::new(5));
}

#[test]
fn own_vertex_latencies_are_positive_and_cover_ordered_vertices() {
    let mut sim = build_sim::<BrachaRbc>(4, 31, 20);
    sim.run();
    for p in sim.committee().members() {
        let node = sim.actor(p);
        let latencies = node.own_vertex_latencies();
        let own_ordered = node.ordered().iter().filter(|o| o.vertex.source == p).count();
        assert_eq!(latencies.len(), own_ordered, "{p}: every own ordered vertex measured");
        assert!(latencies.iter().all(|&(_, l)| l > 0), "{p}: zero-latency commit?");
        // (Rounds are *not* necessarily monotone in the log: a weak-edge
        // orphan can be delivered by a later wave than a younger vertex.
        // Each round appears at most once, though.)
        let mut rounds: Vec<_> = latencies.iter().map(|&(r, _)| r).collect();
        rounds.sort();
        rounds.dedup();
        assert_eq!(rounds.len(), latencies.len());
    }
}

#[test]
fn commit_latency_is_recorded() {
    let mut sim = build_sim::<BrachaRbc>(4, 29, 24);
    sim.run();
    let node = sim.actor(ProcessId::new(1));
    for window in node.ordered().windows(2) {
        assert!(window[0].delivered_at <= window[1].delivered_at);
    }
    assert!(!node.commits().is_empty());
}

/// Events a 12-round run of four processes takes with room to spare; a
/// run still busy after this many never goes idle.
const IDLE_BOUND: u64 = 200_000;

/// Runs `sim` for at most [`IDLE_BOUND`] events and asserts that it went
/// idle, then that every process ordered the same vertices with the same
/// payloads.
fn assert_idle_with_identical_logs(
    sim: &mut Simulation<DagRiderNode<BrachaRbc>, UniformScheduler>,
) {
    sim.run_until(IDLE_BOUND, |_| false);
    assert!(!sim.step(), "the run never went idle");
    let committee = sim.committee();
    let reference = sim.actor(ProcessId::new(0)).ordered();
    assert!(!reference.is_empty());
    for p in committee.members() {
        let log = sim.actor(p).ordered();
        let pairs = |log: &[dagrider_core::OrderedVertex]| -> Vec<(_, Block)> {
            log.iter().map(|o| (o.vertex, o.block.clone())).collect()
        };
        assert_eq!(pairs(log), pairs(reference), "{p} ordered a different sequence or payloads");
    }
}

/// Each process proposes the digest of its own pre-staged batch, and p3
/// lacks p0's. p3 fetches it over the simulated network, from p0 first,
/// and the run goes idle with every log equal, payloads included, and
/// p0's batch ordered everywhere.
#[test]
fn a_missing_batch_is_fetched_over_the_simulated_network() {
    let (same_wave, ordered) = fetch_a_missing_batch(53);
    assert!(same_wave && ordered, "every process must order p0's batch alike");
}

/// [`a_missing_batch_is_fetched_over_the_simulated_network`] over
/// 1,000 seeds: p3 lets p0's vertex in, the run goes idle, its logs
/// agree, and wherever p0's vertex is ordered it carries p0's
/// transactions. Printed, not asserted: the seeds whose processes
/// decided different last waves, and those in which no committed
/// leader's history held p0's vertex.
#[test]
fn a_missing_batch_is_fetched_on_every_seed() {
    let (mut split, mut unordered) = (Vec::new(), Vec::new());
    for seed in 0..SWEEP_SEEDS {
        let (same_wave, ordered) = fetch_a_missing_batch(seed);
        if !same_wave {
            split.push(seed);
        }
        if !ordered {
            unordered.push(seed);
        }
    }
    println!("{} of {SWEEP_SEEDS} seeds decided different last waves: {split:?}", split.len());
    println!("{} of {SWEEP_SEEDS} seeds never ordered p0's vertex: {unordered:?}", unordered.len());
}

/// One seed of [`a_missing_batch_is_fetched_over_the_simulated_network`].
/// Returns whether every process decided the same wave, and whether they
/// ordered p0's vertex.
fn fetch_a_missing_batch(seed: u64) -> (bool, bool) {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
    let config = NodeConfig::default().with_max_round(12);
    let batches: Vec<Batch> = committee
        .members()
        .map(|p| Batch::new(p, 0, vec![Transaction::synthetic(5_300 + u64::from(p.index()), 32)]))
        .collect();
    let (p0, p3) = (ProcessId::new(0), ProcessId::new(3));
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| {
            let mut node = DagRiderNode::new(committee, p, k, config.clone()).with_trace(1 << 14);
            for batch in &batches {
                if p != p3 || batch.creator() != p0 {
                    node.store_batch(batch.clone());
                }
            }
            node.enqueue_digests(vec![batch_digest(&batches[p.as_usize()])]);
            node
        })
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), seed);
    sim.run_until(IDLE_BOUND, |_| false);
    assert!(!sim.step(), "seed {seed}: the run never went idle");
    let logs: Vec<_> = committee
        .members()
        .map(|p| (p, sim.actor(p).decided_wave(), log_of(sim.actor(p).ordered())))
        .collect();
    let (_, same_wave) = assert_agreed(seed, &logs);

    let asked: Vec<ProcessId> = sim
        .actor(p3)
        .trace_records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::BatchFetchRequested { from, .. } => Some(from),
            _ => None,
        })
        .collect();
    assert_eq!(
        asked.first(),
        Some(&p0),
        "seed {seed}: p3's first request must ask the proposer: {asked:?}"
    );
    let named = |v: &&dagrider_types::Vertex| v.round() == Round::new(1) && v.source() == p0;
    let vertex = sim.actor(p0).dag().iter().find(named).expect("p0 proposed").reference();
    assert!(sim.actor(p3).dag().contains(vertex), "seed {seed}: p3 never let p0's vertex in");
    let mut ordered = false;
    for (p, _, log) in &logs {
        if let Some((_, block)) = log.iter().find(|(v, _)| *v == vertex) {
            assert_eq!(block.transactions(), batches[0].transactions(), "seed {seed}: at {p}");
            ordered = true;
        }
    }
    (same_wave, ordered)
}

/// Transactions handed to each engine's open batch before the run seal
/// into the round-1 vertices, travel to the peers as messages, and are
/// each ordered exactly once everywhere.
#[test]
fn transactions_sealed_at_start_travel_as_messages_and_order_once() {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(59));
    let config = NodeConfig::default().with_max_round(12);
    let txs_of = |p: ProcessId| -> Vec<Transaction> {
        (0..3).map(|i| Transaction::synthetic(u64::from(p.index()) * 100 + i, 64)).collect()
    };
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| {
            let mut node = DagRiderNode::new(committee, p, k, config.clone());
            let input = EngineInput::SubmitTransactions(txs_of(p));
            let turn = node.handle(Time::ZERO, input, &mut StdRng::seed_from_u64(0));
            assert!(turn.outputs.is_empty(), "an underfull batch waits for the round-1 vertex");
            node
        })
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 59);
    assert_idle_with_identical_logs(&mut sim);

    for p in committee.members() {
        let mut counts: BTreeMap<Transaction, usize> = BTreeMap::new();
        for ordered in sim.actor(p).ordered() {
            for tx in ordered.block.transactions() {
                *counts.entry(tx.clone()).or_insert(0) += 1;
            }
        }
        let submitted: Vec<Transaction> = committee.members().flat_map(txs_of).collect();
        assert_eq!(counts.len(), submitted.len(), "{p} ordered {counts:?}");
        for tx in &submitted {
            assert_eq!(counts.get(tx), Some(&1), "{p} ordered a transaction other than once");
        }
    }
}

/// Ticks a joining process's sync phase waits for peers' streams.
const SYNC_TIMEOUT: u64 = 100;
/// Timer tag of a restarting process's wake-up. The engine arms only its
/// own two tags, both near `u64::MAX`.
const WAKE_TAG: u64 = 0;
/// When a restarting process comes back: past any event of a run that
/// goes idle within [`IDLE_BOUND`] events, so its peers are idle then.
const WAKE_AT: u64 = 1 << 40;

/// How a process of the join sweeps comes up.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Joins at `init`, as a TCP node boots, and stays up.
    Boot,
    /// Never comes up: its peers' requests go unanswered.
    Silent,
    /// Joins at `init`, goes down once its round reaches `down_at`, and
    /// at its wake-up joins again with a fresh engine, first replaying the
    /// durable events its first life emitted if `replay`.
    Restart { down_at: Round, replay: bool },
}

/// A simulated process that boots through [`DagRiderEngine::join`] and
/// gets a `LinkUp` for every peer, which is what a TCP node does, and
/// that can go down and come back. Its node answers sync requests like
/// any [`DagRiderNode`].
///
/// [`DagRiderEngine::join`]: dagrider_core::DagRiderEngine::join
#[derive(Debug)]
struct Joiner {
    /// The running life: `None` while down, and for a silent process.
    node: Option<DagRiderNode<BrachaRbc>>,
    keys: CoinKeys,
    config: NodeConfig,
    plan: Plan,
    /// The durable events the first life emitted: its store.
    store: Vec<DurableEvent>,
    /// Every vertex a life of this process inserted.
    inserted: BTreeSet<VertexRef>,
    /// Sync messages its lives refused as unasked (or bytes that did not
    /// decode).
    rejected: u64,
    /// Whether the process came back.
    returned: bool,
}

impl Joiner {
    fn node(&self) -> &DagRiderNode<BrachaRbc> {
        self.node.as_ref().expect("the process is up")
    }

    /// Records a turn of the running life, routes it, and takes the
    /// process down when its plan says so.
    fn apply(&mut self, turn: Turn, ctx: &mut Context<'_>) {
        let Some(node) = self.node.as_mut() else { return };
        for event in &turn.events {
            match event {
                EngineEvent::VertexInserted(vertex) => {
                    self.inserted.insert(vertex.reference());
                }
                EngineEvent::Rejected { .. } => self.rejected += 1,
                _ => {}
            }
            if !self.returned {
                self.store.extend(event.clone().into_durable());
            }
        }
        node.apply(turn, ctx);
        if let Plan::Restart { down_at, .. } = self.plan {
            if !self.returned && node.current_round() >= down_at {
                self.node = None;
            }
        }
    }

    /// Starts a life: a fresh node, which replays the store if asked,
    /// joins, and learns that every peer's link is up.
    fn join(&mut self, replay: bool, ctx: &mut Context<'_>) {
        let (committee, me) = (ctx.committee(), ctx.me());
        let mut node = DagRiderNode::new(committee, me, self.keys.clone(), self.config.clone());
        if replay {
            for event in self.store.clone() {
                // As a restarting TCP node does: keep the ordered log and
                // the timers, drop the traffic peers saw long ago.
                let mut turn = node.replay_durable(event, ctx.now(), ctx.rng());
                turn.outputs.retain(|out| {
                    !matches!(out, EngineOutput::Send { .. } | EngineOutput::Broadcast { .. })
                });
                node.apply(turn, ctx);
            }
        }
        let turn = node.join(ctx.now(), SYNC_TIMEOUT);
        self.node = Some(node);
        self.apply(turn, ctx);
        for peer in committee.others(me) {
            self.handle(EngineInput::LinkUp(peer), ctx);
        }
    }

    fn handle(&mut self, input: EngineInput, ctx: &mut Context<'_>) {
        if let Some(node) = self.node.as_mut() {
            let turn = node.handle(ctx.now(), input, ctx.rng());
            self.apply(turn, ctx);
        }
    }
}

impl Actor for Joiner {
    fn init(&mut self, ctx: &mut Context<'_>) {
        match self.plan {
            Plan::Silent => {}
            Plan::Boot => self.join(false, ctx),
            Plan::Restart { .. } => {
                ctx.schedule(WAKE_AT, WAKE_TAG);
                self.join(false, ctx);
            }
        }
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        self.handle(EngineInput::Message { from, payload: payload.to_vec() }, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        match self.plan {
            Plan::Restart { replay, .. } if tag == WAKE_TAG => {
                self.returned = true;
                self.join(replay, ctx);
            }
            _ => self.handle(EngineInput::Timer { tag }, ctx),
        }
    }
}

/// Four [`Joiner`]s with `plans`, over uniform delays of 1–10 ticks.
fn join_sim(
    seed: u64,
    config: &NodeConfig,
    plans: [Plan; 4],
) -> Simulation<Joiner, UniformScheduler> {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
    let joiners = keys
        .into_iter()
        .zip(plans)
        .map(|(keys, plan)| Joiner {
            node: None,
            keys,
            config: config.clone(),
            plan,
            store: Vec::new(),
            inserted: BTreeSet::new(),
            rejected: 0,
            returned: false,
        })
        .collect();
    Simulation::new(committee, joiners, UniformScheduler::new(1, 10), seed)
}

/// A process's ordered log, payloads included.
type Log = Vec<(VertexRef, Block)>;

fn log_of(ordered: &[dagrider_core::OrderedVertex]) -> Log {
    ordered.iter().map(|o| (o.vertex, o.block.clone())).collect()
}

/// Asserts that the logs of a run's processes, each with the wave it
/// decided, agree: no two differ in their common prefix, and two that
/// decided the same wave ordered the same vertices with the same
/// payloads. Returns the longest log's length, which may be 0 (the coin
/// can elect a silent or crashed process in every wave), and whether
/// every process decided the same wave. A finite run can end without:
/// its last wave may commit directly at some processes and be skipped at
/// others, and no later wave orders that leader there.
fn assert_agreed(seed: u64, logs: &[(ProcessId, Wave, Log)]) -> (usize, bool) {
    for (i, (p, wave, log)) in logs.iter().enumerate() {
        for (q, other_wave, other) in &logs[i + 1..] {
            let common = log.len().min(other.len());
            assert_eq!(log[..common], other[..common], "seed {seed}: {p} and {q} diverge");
            if wave == other_wave {
                assert_eq!(log, other, "seed {seed}: {p} and {q} decided alike, ordered apart");
            }
        }
    }
    let longest = logs.iter().map(|(_, _, log)| log.len()).max().unwrap_or(0);
    (longest, logs.iter().all(|(_, wave, _)| *wave == logs[0].1))
}

/// Runs `sim` until it goes idle, then asserts that the logs of the
/// processes `up` agree ([`assert_agreed`], whose result it returns).
fn assert_idle_and_agreed(
    sim: &mut Simulation<Joiner, UniformScheduler>,
    up: &[ProcessId],
    seed: u64,
) -> (usize, bool) {
    sim.run_until(IDLE_BOUND, |_| false);
    assert!(!sim.step(), "seed {seed}: the run never went idle");
    let logs: Vec<_> = up
        .iter()
        .map(|&p| {
            let node = sim.actor(p).node();
            (p, node.decided_wave(), log_of(node.ordered()))
        })
        .collect();
    assert_agreed(seed, &logs)
}

/// Seeds each join sweep runs.
const SWEEP_SEEDS: u64 = 1_000;

/// All four processes boot through the join path, with `LinkUp` for every
/// peer. Odd seeds leave p3 silent, so the others leave the sync phase at
/// its deadline. Every run goes idle and its logs agree. Printed, not
/// asserted: the seeds whose longest log holds at most 16 vertices, and
/// those whose processes decided different last waves.
#[test]
fn processes_that_boot_through_the_join_path_agree() {
    let config = NodeConfig::default().with_max_round(16);
    let all: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
    let (mut short, mut split, mut rejected) = (Vec::new(), Vec::new(), 0);
    for seed in 0..SWEEP_SEEDS {
        let silent = seed % 2 == 1;
        let last = if silent { Plan::Silent } else { Plan::Boot };
        let mut sim = join_sim(seed, &config, [Plan::Boot, Plan::Boot, Plan::Boot, last]);
        let up = if silent { &all[..3] } else { &all[..] };
        let (longest, same_wave) = assert_idle_and_agreed(&mut sim, up, seed);
        rejected += up.iter().map(|&p| sim.actor(p).rejected).sum::<u64>();
        if longest <= 16 {
            short.push(seed);
        }
        if !same_wave {
            split.push(seed);
        }
    }
    println!("{} of {SWEEP_SEEDS} seeds ordered at most 16 vertices: {short:?}", short.len());
    println!("{} of {SWEEP_SEEDS} seeds decided different last waves: {split:?}", split.len());
    println!("{rejected} sync messages refused as unasked");
}

/// p3 goes down at a seeded round in [2, 6] and, once the others are
/// idle, comes back with a fresh engine and joins, first replaying its
/// store if `replay`. Garbage collection keeps every vertex p3 lacks
/// when it returns, and the run goes idle with equal logs and waves.
fn restart_sweep(replay: bool) {
    let config = NodeConfig::default().with_max_round(12).with_gc_depth(12);
    let p3 = ProcessId::new(3);
    let all: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
    let mut rejected = 0;
    for seed in 0..SWEEP_SEEDS {
        let down_at = Round::new(2 + StdRng::seed_from_u64(seed).random_range(0..5u64));
        let plans = [Plan::Boot, Plan::Boot, Plan::Boot, Plan::Restart { down_at, replay }];
        let mut sim = join_sim(seed, &config, plans);
        assert!(
            sim.run_until(IDLE_BOUND, |sim| sim.actor(p3).returned),
            "seed {seed}: p3 never came back"
        );
        // Its peers were idle, and its requests are still in flight.
        let dag = sim.actor(p3).node().dag();
        let lacked = all[..3]
            .iter()
            .flat_map(|&q| sim.actor(q).inserted.iter())
            .filter(|vertex| !dag.contains(**vertex))
            .map(|vertex| vertex.round)
            .min();
        if let Some(lowest) = lacked {
            for &q in &all[..3] {
                let floor = sim.actor(q).node().dag().pruned_floor();
                assert!(floor <= lowest, "seed {seed}: {q} pruned to {floor}, p3 lacks {lowest}");
            }
        }
        let (_, same_wave) = assert_idle_and_agreed(&mut sim, &all, seed);
        assert!(same_wave, "seed {seed}: the processes decided different waves");
        rejected += sim.actor(p3).rejected;
    }
    println!("p3 refused {rejected} sync messages as unasked");
}

#[test]
fn a_restarted_process_without_a_store_rejoins_and_agrees() {
    restart_sweep(false);
}

#[test]
fn a_restarted_process_with_its_store_rejoins_and_agrees() {
    restart_sweep(true);
}
