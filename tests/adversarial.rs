//! Adversarial end-to-end scenarios: network partitions (long finite
//! delays — the async model's version of a partition), a DAG-level
//! equivocator attacking through the broadcast layer, proposers whose
//! batches no process, or only one other process, can serve, and batch
//! retention under garbage collection.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use bytes::Bytes;
use dag_rider::core::{
    batch_digest, DagRiderEngine, EngineInput, EngineOutput, NodeConfig, NodeMessage,
    OrderedVertex, Turn, VertexPayload,
};
use dag_rider::crypto::deal_coin_keys;
use dag_rider::rbc::{BrachaKind, BrachaMessage, BrachaRbc, RbcAction, ReliableBroadcast};
use dag_rider::simactor::DagRiderNode;
use dag_rider::simnet::{
    Actor, Context, Either, PartitionScheduler, Simulation, Time, UniformScheduler,
};
use dag_rider::store::StoreSnapshot;
use dag_rider::types::{
    Batch, BatchDigest, Block, Committee, Decode, Encode, ProcessId, Round, SeqNum, Transaction,
    VertexBuilder, VertexRef, Wave,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Node = DagRiderNode<BrachaRbc>;
type Message = NodeMessage<BrachaMessage>;

/// During a partition no wave can commit (neither side has 2f+1); after
/// healing, progress resumes and total order holds.
#[test]
fn partition_stalls_then_heals() {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(61));
    let config = NodeConfig::default().with_max_round(24);
    let nodes: Vec<Node> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    // 2-2 split: neither side holds a 2f+1 = 3 quorum.
    let scheduler = PartitionScheduler::new(
        UniformScheduler::new(1, 6),
        [ProcessId::new(0), ProcessId::new(1)],
        3,
        Time::new(500),
    );
    let mut sim = Simulation::new(committee, nodes, scheduler, 61);

    // Run well into the partition: no process can pass round 1, because
    // completing it takes vertices from across the split.
    sim.run_until(100_000, |s| s.now() >= Time::new(400));
    for p in committee.members() {
        assert!(sim.actor(p).current_round() <= Round::new(1), "{p} advanced during the partition");
        assert_eq!(sim.actor(p).decided_wave(), Wave::new(0));
    }

    // Heal and drain: full progress, identical order.
    sim.run();
    let reference: Vec<VertexRef> =
        sim.actor(ProcessId::new(0)).ordered().iter().map(|o| o.vertex).collect();
    assert!(!reference.is_empty(), "no progress after healing");
    for p in committee.members() {
        let log: Vec<VertexRef> = sim.actor(p).ordered().iter().map(|o| o.vertex).collect();
        let common = log.len().min(reference.len());
        assert_eq!(&log[..common], &reference[..common], "{p} diverged");
        assert!(sim.actor(p).decided_wave() >= Wave::new(2), "{p} stalled after heal");
    }
}

/// A Byzantine process that builds **two different round-1 vertices** and
/// Bracha-INITs one to each half of the committee. Reliable broadcast must
/// neutralize the equivocation: correct processes agree on (at most) one.
struct DagEquivocator {
    committee: Committee,
    round: Round,
    payload_a: Vec<u8>,
    payload_b: Vec<u8>,
    inner: BrachaRbc,
}

impl DagEquivocator {
    fn new(committee: Committee, me: ProcessId) -> Self {
        let make = |tag: u64| {
            let block = Block::new(me, SeqNum::new(1), vec![Transaction::synthetic(tag, 16)]);
            let vertex = VertexBuilder::new(me, Round::new(1), block)
                .strong_edges(committee.members().map(|p| VertexRef::new(Round::GENESIS, p)))
                .build(&committee)
                .expect("structurally valid equivocating vertex");
            VertexPayload { vertex, coin_shares: Vec::new() }.to_bytes()
        };
        Self {
            committee,
            round: Round::new(1),
            payload_a: make(0xA),
            payload_b: make(0xB),
            inner: BrachaRbc::new(committee, me),
        }
    }
}

impl Actor for DagEquivocator {
    fn init(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me();
        for (i, to) in self.committee.others(me).enumerate() {
            let payload = if i % 2 == 0 { self.payload_a.clone() } else { self.payload_b.clone() };
            let init =
                BrachaMessage { source: me, round: self.round, kind: BrachaKind::Init(payload) };
            // Wrap as the node envelope (tag 0 = Rbc).
            let mut bytes = vec![0u8];
            init.encode(&mut bytes);
            ctx.send(to, Bytes::from(bytes));
        }
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        // Unwrap the node envelope, run an honest Bracha participant for
        // everyone's instances (so the run progresses), re-wrap outgoing.
        let Some((&tag, rest)) = payload.split_first() else { return };
        if tag != 0 {
            return;
        }
        let Ok(message) = BrachaMessage::from_bytes(rest) else { return };
        for action in self.inner.on_message(from, message, ctx.rng()) {
            if let RbcAction::Send(to, m) = action {
                let mut bytes = vec![0u8];
                m.encode(&mut bytes);
                ctx.send(to, Bytes::from(bytes));
            }
        }
    }
}

#[test]
fn dag_level_equivocation_is_neutralized() {
    for seed in [1u64, 5, 9, 14] {
        let committee = Committee::new(4).unwrap();
        let byz = ProcessId::new(3);
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
        let config = NodeConfig::default().with_max_round(16);
        let nodes: Vec<Either<Node, DagEquivocator>> = committee
            .members()
            .zip(keys)
            .map(|(p, k)| {
                if p == byz {
                    Either::Right(DagEquivocator::new(committee, p))
                } else {
                    Either::Left(DagRiderNode::new(committee, p, k, config.clone()))
                }
            })
            .collect();
        let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), seed);
        sim.mark_byzantine(byz);
        sim.run();

        // At most one equivocated vertex survives, and it's the same one
        // in every correct DAG (if present at all).
        let byz_ref = VertexRef::new(Round::new(1), byz);
        let survivors: Vec<Option<Block>> = committee
            .members()
            .filter(|&p| p != byz)
            .map(|p| {
                sim.actor(p).as_left().unwrap().dag().get(byz_ref).and_then(|v| v.block().cloned())
            })
            .collect();
        let present: Vec<&Block> = survivors.iter().flatten().collect();
        if let Some(first) = present.first() {
            assert!(
                present.iter().all(|b| b == first),
                "seed {seed}: correct processes hold different vertices for {byz_ref}"
            );
        }
        // And total order held throughout.
        let reference: Vec<VertexRef> = sim
            .actor(ProcessId::new(0))
            .as_left()
            .unwrap()
            .ordered()
            .iter()
            .map(|o| o.vertex)
            .collect();
        for p in [1u32, 2].map(ProcessId::new) {
            let log: Vec<VertexRef> =
                sim.actor(p).as_left().unwrap().ordered().iter().map(|o| o.vertex).collect();
            let common = log.len().min(reference.len());
            assert_eq!(&log[..common], &reference[..common], "seed {seed}: {p} diverged");
        }
    }
}

/// Progress and order survive a mid-run crash *plus* a partition that
/// isolates one of the survivors for a while.
#[test]
fn crash_plus_partition_combined() {
    let committee = Committee::new(7).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(67));
    let config = NodeConfig::default().with_max_round(20);
    let nodes: Vec<Node> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    // p6 isolated until t=300 (others: 6 ≥ 2f+1 = 5, so progress continues).
    let scheduler = PartitionScheduler::new(
        UniformScheduler::new(1, 6),
        [ProcessId::new(6)],
        3,
        Time::new(300),
    );
    let mut sim = Simulation::new(committee, nodes, scheduler, 67);
    sim.run_until(5_000, |_| false);
    sim.crash(ProcessId::new(0), true);
    sim.run();

    let survivors: Vec<ProcessId> = committee.members().filter(|p| p.index() != 0).collect();
    let reference: Vec<VertexRef> =
        sim.actor(survivors[0]).ordered().iter().map(|o| o.vertex).collect();
    assert!(!reference.is_empty());
    for &p in &survivors {
        let log: Vec<VertexRef> = sim.actor(p).ordered().iter().map(|o| o.vertex).collect();
        let common = log.len().min(reference.len());
        assert_eq!(&log[..common], &reference[..common], "{p} diverged");
        assert!(sim.actor(p).decided_wave() >= Wave::new(1), "{p} made no progress");
    }
}

/// Processes in every [`Harness`] run.
const N: usize = 4;

/// Four engines on a FIFO wire that carries their messages, batch
/// pushes, fetches and fetch answers included, one tick per input. A
/// timer fires no earlier than it is due, and a batch request addressed
/// to the `mute` engine is dropped. A batch that no engine holds is
/// fetched for as long as its vertex stays buffered, so [`Harness::run`]
/// stops at a virtual-time horizon.
///
/// Engines started by [`Harness::sealing`] seal a batch whenever their
/// round rises: they push it to their peers ahead of the vertex that
/// names it, store it, and enqueue its digest for their next vertex.
struct Harness {
    committee: Committee,
    engines: Vec<DagRiderEngine<BrachaRbc>>,
    rngs: Vec<StdRng>,
    /// Inputs in flight, first in first out.
    wire: VecDeque<(ProcessId, EngineInput)>,
    /// Armed timers as `(due tick, process, tag)`, earliest first.
    timers: BinaryHeap<Reverse<(u64, ProcessId, u64)>>,
    /// Every `(requester, asked)` pair of the fetch requests issued.
    fetches: Vec<(ProcessId, ProcessId)>,
    /// Each engine's `Ordered` outputs.
    logs: Vec<Vec<OrderedVertex>>,
    mute: Option<ProcessId>,
    /// The batch a process seals on reaching a round, when engines seal.
    seal: Option<Box<dyn Fn(ProcessId, Round) -> Batch>>,
    /// Each engine's round as of its last seal.
    sealed_round: Vec<Round>,
    /// Every batch sealed, with the round its sealer had reached.
    sealed: Vec<(Round, Batch)>,
    now: u64,
}

impl Harness {
    /// Four engines under `config`, none of them started.
    fn new(config: &NodeConfig, mute: Option<ProcessId>) -> Self {
        let committee = Committee::new(N).unwrap();
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(313));
        Self {
            committee,
            engines: committee
                .members()
                .zip(keys)
                .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
                .collect(),
            rngs: (0..N as u64).map(|i| StdRng::seed_from_u64(700 + i)).collect(),
            wire: VecDeque::new(),
            timers: BinaryHeap::new(),
            fetches: Vec::new(),
            logs: vec![Vec::new(); N],
            mute,
            seal: None,
            sealed_round: vec![Round::GENESIS; N],
            sealed: Vec::new(),
            now: 0,
        }
    }

    /// Starts four engines with `max_round(40)`. Engine `p` holds batch
    /// `b` when `holds(p, b)` and proposes the digest of `batches[p]`.
    fn start(
        batches: &[Batch],
        holds: impl Fn(ProcessId, usize) -> bool,
        mute: Option<ProcessId>,
    ) -> Self {
        let config = NodeConfig::default().with_max_round(40);
        Self::start_with(&config, batches, holds, |p| vec![p.as_usize()], mute)
    }

    /// Like [`Harness::start`] under `config`, with engine `p` proposing
    /// the digests of the batches `proposes(p)` lists.
    fn start_with(
        config: &NodeConfig,
        batches: &[Batch],
        holds: impl Fn(ProcessId, usize) -> bool,
        proposes: impl Fn(ProcessId) -> Vec<usize>,
        mute: Option<ProcessId>,
    ) -> Self {
        let mut harness = Self::new(config, mute);
        for p in harness.committee.members() {
            let i = p.as_usize();
            for (b, batch) in batches.iter().enumerate() {
                if holds(p, b) {
                    harness.engines[i].store_batch(batch.clone());
                }
            }
            // The digests ride the round-1 vertex.
            let digests = proposes(p).iter().map(|&b| batch_digest(&batches[b])).collect();
            harness.engines[i].enqueue_digests(digests);
            let turn = harness.engines[i].start(Time::ZERO, &mut harness.rngs[i]);
            harness.route(p, turn);
        }
        harness
    }

    /// Starts four engines with `gc_depth(GC_DEPTH)` and `max_round`,
    /// each holding every batch of `staged`, that seal `seal(p, round)`
    /// whenever their round rises.
    fn sealing(
        max_round: u64,
        staged: &[Batch],
        seal: impl Fn(ProcessId, Round) -> Batch + 'static,
    ) -> Self {
        let config = NodeConfig::default().with_max_round(max_round).with_gc_depth(GC_DEPTH);
        let mut harness = Self::new(&config, None);
        harness.seal = Some(Box::new(seal));
        for p in harness.committee.members() {
            let i = p.as_usize();
            for batch in staged {
                harness.engines[i].store_batch(batch.clone());
            }
            let turn = harness.engines[i].start(Time::ZERO, &mut harness.rngs[i]);
            harness.route(p, turn);
            harness.seal_if_advanced(p);
        }
        harness
    }

    fn route(&mut self, from: ProcessId, turn: Turn) {
        for out in turn.outputs {
            match out {
                EngineOutput::Send { to, payload } => {
                    if let Ok(NodeMessage::BatchRequest(_)) = Message::from_bytes(&payload) {
                        self.fetches.push((from, to));
                        if self.mute == Some(to) {
                            continue;
                        }
                    }
                    self.wire
                        .push_back((to, EngineInput::Message { from, payload: payload.to_vec() }));
                }
                EngineOutput::Broadcast { payload } => {
                    for to in self.committee.others(from) {
                        let payload = payload.to_vec();
                        self.wire.push_back((to, EngineInput::Message { from, payload }));
                    }
                }
                EngineOutput::SetTimer { delay, tag } => {
                    self.timers.push(Reverse((self.now + delay, from, tag)));
                }
                EngineOutput::Ordered(o) => self.logs[from.as_usize()].push(o),
            }
        }
    }

    /// Runs until nothing is in flight or armed, or until virtual time
    /// passes `horizon`. Each input in flight takes one tick; a due timer
    /// fires ahead of the wire.
    fn run(&mut self, horizon: u64) {
        self.run_checked(horizon, |_, _| {});
    }

    /// Like [`Harness::run`], calling `check` after every input with the
    /// engine that took it.
    fn run_checked(&mut self, horizon: u64, mut check: impl FnMut(&Self, ProcessId)) {
        loop {
            let due = self.timers.peek().is_some_and(|Reverse((at, ..))| *at <= self.now);
            let next = if due { None } else { self.wire.pop_front() };
            let (to, input) = if let Some(next) = next {
                self.now += 1;
                next
            } else if let Some(Reverse((at, p, tag))) = self.timers.pop() {
                self.now = self.now.max(at);
                (p, EngineInput::Timer { tag })
            } else {
                return;
            };
            if self.now > horizon {
                return;
            }
            self.feed(to, input);
            check(self, to);
        }
    }

    fn feed(&mut self, to: ProcessId, input: EngineInput) {
        let i = to.as_usize();
        let turn = self.engines[i].handle(Time::new(self.now), input, &mut self.rngs[i]);
        self.route(to, turn);
        self.seal_if_advanced(to);
    }

    /// Seals `p`'s next batch if engines seal and `p`'s round rose:
    /// pushes it to the peers, stores it, and enqueues its digest for the
    /// next vertex.
    fn seal_if_advanced(&mut self, p: ProcessId) {
        let i = p.as_usize();
        let round = self.engines[i].current_round();
        let Some(seal) = &self.seal else { return };
        if round <= self.sealed_round[i] {
            return;
        }
        let batch = seal(p, round);
        self.sealed_round[i] = round;
        self.sealed.push((round, batch.clone()));
        let payload = Message::Batch(batch.clone()).to_bytes();
        for q in self.committee.others(p) {
            self.wire.push_back((q, EngineInput::Message { from: p, payload: payload.clone() }));
        }
        self.engines[i].enqueue_digests(vec![batch_digest(&batch)]);
        self.engines[i].store_batch(batch);
    }

    /// The vertices of `p`'s ordered log.
    fn order(&self, p: u32) -> Vec<VertexRef> {
        self.logs[p as usize].iter().map(|o| o.vertex).collect()
    }

    /// How often each transaction occurs in process 0's log.
    fn ordered_counts(&self) -> BTreeMap<&Transaction, usize> {
        let mut counts = BTreeMap::new();
        for ordered in &self.logs[0] {
            for tx in ordered.block.transactions() {
                *counts.entry(tx).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Every log equals process 0's, payloads included.
    fn assert_identical_logs(&self) {
        let reference: Vec<_> = self.logs[0].iter().map(|o| (o.vertex, &o.block)).collect();
        for (p, log) in self.logs.iter().enumerate().skip(1) {
            let log: Vec<_> = log.iter().map(|o| (o.vertex, &o.block)).collect();
            assert_eq!(log, reference, "p{p} diverged");
        }
    }
}

/// One batch of one marker transaction per process.
fn marker_batches() -> Vec<Batch> {
    (0..4u32)
        .map(|p| {
            Batch::new(ProcessId::new(p), 0, vec![Transaction::synthetic(900 + u64::from(p), 32)])
        })
        .collect()
}

/// A Byzantine proposer names a batch that no process holds. Its vertex
/// never enters an honest DAG, so no honest process orders it, and the
/// honest logs keep growing without it instead of stalling behind it.
#[test]
fn a_vertex_naming_a_batch_no_process_holds_is_never_ordered() {
    let batches = marker_batches();
    let byz = ProcessId::new(3);
    let mut harness = Harness::start(&batches, |_, b| b != byz.as_usize(), None);
    harness.run(100_000);

    let phantom = VertexRef::new(Round::new(1), byz);
    let reference = harness.order(0);
    for p in 0..3u32 {
        let log = harness.order(p);
        assert_eq!(log, reference, "p{p} diverged");
        assert!(log.len() >= 140, "p{p} ordered only {} vertices", log.len());
        assert!(!log.contains(&phantom), "p{p} ordered the phantom vertex");
    }
    assert!(harness.fetches.iter().any(|&(_, asked)| asked == byz), "nobody asked the proposer");
}

/// A batch that only its proposer and one other process hold reaches
/// every honest process through the fetch path, although the proposer
/// answers no fetch: the others ask it first, then the holder.
#[test]
fn a_batch_one_honest_process_holds_resolves_everywhere() {
    let batches = marker_batches();
    let (holder, proposer) = (ProcessId::new(0), ProcessId::new(3));
    let holds = |p: ProcessId, b: usize| b != proposer.as_usize() || p == holder || p == proposer;
    let mut harness = Harness::start(&batches, holds, Some(proposer));
    harness.run(100_000);

    let vertex = VertexRef::new(Round::new(1), proposer);
    let payloads = |p: ProcessId| -> Vec<(VertexRef, Block)> {
        harness.logs[p.as_usize()].iter().map(|o| (o.vertex, o.block.clone())).collect()
    };
    let reference = payloads(holder);
    assert!(reference.len() >= 140, "p0 ordered only {} vertices", reference.len());
    for p in [1u32, 2].map(ProcessId::new) {
        let log = payloads(p);
        assert_eq!(log, reference, "{p} diverged");
        let (_, block) = log.iter().find(|(v, _)| *v == vertex).expect("p3's vertex was ordered");
        assert_eq!(block.transactions(), batches[proposer.as_usize()].transactions());
        let asked: Vec<ProcessId> = harness
            .fetches
            .iter()
            .filter(|&&(from, _)| from == p)
            .map(|&(_, asked)| asked)
            .collect();
        // The proposer first, then the other peers in id order.
        assert!(asked.starts_with(&[proposer, holder]), "{p} asked {asked:?}");
    }
}

/// A Byzantine proposer names a batch every process holds next to one
/// that none holds. Its vertex waits in every honest buffer until garbage
/// collection drops it, and the drop releases the batch that did arrive,
/// as nothing else names it, and ends the fetch of the other.
#[test]
fn a_buffered_vertex_that_gc_drops_releases_the_batches_it_named() {
    let byz = ProcessId::new(3);
    let mut batches = marker_batches();
    let shared = Batch::new(byz, 1, vec![Transaction::synthetic(999, 32)]);
    batches.push(shared.clone());
    let config = NodeConfig::default().with_max_round(40).with_gc_depth(8);
    let proposes =
        |p: ProcessId| if p == byz { vec![byz.as_usize(), 4] } else { vec![p.as_usize()] };
    let mut harness =
        Harness::start_with(&config, &batches, |_, b| b != byz.as_usize(), proposes, None);
    harness.run(100_000);

    assert!(harness.now < 100_000, "the fetch outlived the vertex");
    let phantom = VertexRef::new(Round::new(1), byz);
    let reference = harness.order(0);
    assert!(reference.len() >= 100, "p0 ordered only {} vertices", reference.len());
    for p in 0..3u32 {
        assert_eq!(harness.order(p), reference, "p{p} diverged");
        let engine = &harness.engines[p as usize];
        assert!(engine.dag().pruned_floor() > Round::new(1), "p{p} never collected round 1");
        assert!(!engine.dag().contains(phantom));
        assert!(engine.batch(&batch_digest(&shared)).is_none(), "p{p} kept the shared batch");
        // The markers rode round-1 vertices, which were collected too.
        assert_eq!(engine.batches_stored(), 0, "p{p} kept batches of collected rounds");
    }
}

// Batch retention under garbage collection. A node's batch map holds the
// batches that vertices at or above its GC floor name, those no vertex
// has named yet, and those whose digest waits for its next vertex; a
// floor move drops the rest. The runs below use `Harness::sealing`.

const GC_DEPTH: u64 = 8;
const TX_BYTES: usize = 16;

/// Virtual ticks a sealing run may take: far more than a 1,024-round run
/// needs, so a batch fetched forever ends the run instead of hanging it.
const SEALING_HORIZON: u64 = 1 << 24;

/// Rounds the delivered frontier may trail an engine's round by in the
/// sealing runs: the wave being decided, waves whose leader was skipped,
/// and vertices that wait for a later vertex's weak edge.
const FRONTIER_LAG: u64 = 32;

/// The most batches an engine may hold: one per process for each round
/// from its GC floor, `GC_DEPTH` below the frontier, up to the round
/// after its own, whose batches were pushed but not yet named.
const HELD_BOUND: usize = N * (GC_DEPTH + FRONTIER_LAG + 2) as usize;

/// The batch a process seals on reaching a round: one transaction
/// unique to the pair.
fn fresh_batch(p: ProcessId, round: Round) -> Batch {
    let tag = u64::from(p.index()) << 32 | round.number();
    Batch::new(p, 0, vec![Transaction::synthetic(tag, TX_BYTES)])
}

/// Over 1,024 rounds, every engine holds at most a bound set by
/// `gc_depth` and n, every log is the same, and every batch named by an
/// ordered vertex is ordered exactly once. Keeping every batch ever
/// stored passes the bound within the first 100 rounds.
#[test]
fn a_sealing_cluster_holds_only_the_batches_of_its_gc_window() {
    const ROUNDS: u64 = 1_024;
    let mut harness = Harness::sealing(ROUNDS, &[], fresh_batch);
    let mut held_max = 0;
    harness.run_checked(SEALING_HORIZON, |h, p| {
        let engine = &h.engines[p.as_usize()];
        let (round, held) = (engine.current_round(), engine.batches_stored());
        let window = round.number() - engine.dag().pruned_floor().number();
        assert!(window <= GC_DEPTH + FRONTIER_LAG, "{p} keeps {window} rounds at {round}");
        // The batches of the rounds the DAG keeps, and of the next one.
        assert!(held <= N * (window as usize + 2), "{p} holds {held} batches at {round}");
        held_max = held_max.max(held);
    });
    assert!(held_max <= HELD_BOUND);
    assert!(harness.engines.iter().all(|e| e.current_round() == Round::new(ROUNDS)));
    assert!(harness.fetches.is_empty(), "a batch was missing");
    assert!(held_max >= N * GC_DEPTH as usize, "the window never filled: {held_max}");
    harness.assert_identical_logs();

    let counts = harness.ordered_counts();
    let mut ordered = 0;
    for (round, batch) in &harness.sealed {
        let times = counts.get(&batch.transactions()[0]).copied().unwrap_or(0);
        assert!(times <= 1, "a batch of round {round} was ordered {times} times");
        // The batches of the last rounds ride vertices no leader orders.
        assert!(times == 1 || round.number() + 16 > ROUNDS, "a batch of {round} was never ordered");
        ordered += times;
    }
    assert_eq!(ordered, counts.len(), "a transaction no batch held was ordered");
}

/// A snapshot taken anywhere in a long GC run holds a batch for every
/// digest its DAG section names, and its batch section stays within the
/// bound the GC window sets, however long the run has been.
#[test]
fn snapshots_carry_the_batches_of_the_retained_window_only() {
    let mut harness = Harness::sealing(512, &[], fresh_batch);
    let mut snapshots = 0;
    harness.run_checked(SEALING_HORIZON, |h, p| {
        let engine = &h.engines[p.as_usize()];
        if p != ProcessId::new(0) || engine.current_round().number() % 64 != 0 {
            return;
        }
        let snapshot = StoreSnapshot::capture(engine);
        let held: BTreeMap<BatchDigest, &Batch> =
            snapshot.batches().iter().map(|b| (batch_digest(b), b)).collect();
        for entry in snapshot.dag().entries() {
            for digest in entry.vertex.payload().digests() {
                let vertex = entry.vertex.reference();
                assert!(held.contains_key(digest), "{vertex} names a batch the snapshot lacks");
            }
        }
        let bytes: usize = snapshot.batches().iter().map(Batch::payload_bytes).sum();
        assert!(
            bytes <= HELD_BOUND * TX_BYTES,
            "{bytes} batch bytes at {}",
            engine.current_round()
        );
        snapshots += 1;
    });
    assert!(snapshots >= 7, "only {snapshots} snapshots were taken");
}

/// p0 seals the same batch at rounds 40 and 60, so two of its vertices
/// name one digest. Collecting the first vertex's round keeps the batch,
/// which the second still names; the second vertex orders it again, and
/// collecting its round drops the batch.
#[test]
fn a_batch_named_again_outlives_the_first_vertex_that_named_it() {
    let (p0, first, second) = (ProcessId::new(0), Round::new(40), Round::new(60));
    let reused = fresh_batch(p0, first);
    let digest = batch_digest(&reused);
    let mut harness = Harness::sealing(160, &[], move |p, round| {
        if p == p0 && round == second {
            fresh_batch(p0, first)
        } else {
            fresh_batch(p, round)
        }
    });
    // The digests ride the vertices of the following rounds.
    let (first_vertex, second_vertex) = (first.next(), second.next());
    let mut kept_past_the_first = [false; N];
    harness.run_checked(SEALING_HORIZON, |h, p| {
        let engine = &h.engines[p.as_usize()];
        let floor = engine.dag().pruned_floor();
        if floor > first_vertex && floor <= second_vertex {
            assert!(engine.batch(&digest).is_some(), "{p} dropped a batch a retained vertex names");
            kept_past_the_first[p.as_usize()] = true;
        }
    });
    assert!(kept_past_the_first.iter().all(|&kept| kept), "no floor fell between the vertices");
    harness.assert_identical_logs();
    let counts = harness.ordered_counts();
    assert_eq!(counts.get(&reused.transactions()[0]), Some(&2), "each vertex orders the batch");
    for engine in &harness.engines {
        assert!(engine.dag().pruned_floor() > second_vertex);
        assert!(engine.batch(&digest).is_none(), "{} kept a batch nothing names", engine.me());
    }
}

/// A batch every engine stored before the run, which no vertex names
/// until p1 seals it at round 100, survives the floor moves before that
/// and is ordered once. Dropping batches no vertex has named yet would
/// leave p1's vertex waiting for it in every buffer.
#[test]
fn a_batch_no_vertex_names_yet_survives_floor_moves() {
    let p1 = ProcessId::new(1);
    let staged = Batch::new(p1, 0, vec![Transaction::synthetic(u64::MAX, TX_BYTES)]);
    let digest = batch_digest(&staged);
    let late = Round::new(100);
    let named = staged.clone();
    let mut harness = Harness::sealing(160, std::slice::from_ref(&staged), move |p, round| {
        if p == p1 && round == late {
            named.clone()
        } else {
            fresh_batch(p, round)
        }
    });
    harness.run_checked(SEALING_HORIZON, |h, p| {
        let engine = &h.engines[p.as_usize()];
        if engine.dag().pruned_floor() <= late {
            assert!(engine.batch(&digest).is_some(), "{p} dropped a batch no vertex named");
        }
    });
    assert!(harness.fetches.is_empty(), "a batch was missing");
    harness.assert_identical_logs();
    assert_eq!(harness.ordered_counts().get(&staged.transactions()[0]), Some(&1));
}

/// p0 seals the batch of round 40 again on reaching a later round, each
/// round from 52 to 68 in turn. Wherever that second seal falls against
/// the floor's passage over the first vertex's round, p0 keeps the batch
/// while its digest waits for p0's next vertex, so p0 never fetches it:
/// a peer that dropped it first fetches it back from p0. The second
/// vertex orders the batch again at every process. In one of these runs
/// (the seal at round 65) p0's floor passes round 41 while p0 is still
/// at round 65, before its next vertex names the digest.
#[test]
fn a_batch_sealed_again_is_ordered_again() {
    let (p0, first) = (ProcessId::new(0), Round::new(40));
    let reused = fresh_batch(p0, first);
    let mut fetched = false;
    for second in 52..=68 {
        let sealed_again = reused.clone();
        let mut harness = Harness::sealing(120, &[], move |p, round| {
            if p == p0 && round.number() == second {
                sealed_again.clone()
            } else {
                fresh_batch(p, round)
            }
        });
        harness.run(SEALING_HORIZON);
        harness.assert_identical_logs();
        let times = harness.ordered_counts().get(&reused.transactions()[0]).copied();
        assert_eq!(times, Some(2), "sealed again at round {second}");
        let asked: Vec<_> = harness.fetches.iter().filter(|&&(from, _)| from == p0).collect();
        assert!(asked.is_empty(), "p0 fetched its own batch, sealed again at {second}: {asked:?}");
        fetched |= !harness.fetches.is_empty();
    }
    assert!(fetched, "no process dropped the batch before the second vertex named it");
}
