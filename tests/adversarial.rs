//! Adversarial end-to-end scenarios: network partitions (long finite
//! delays — the async model's version of a partition), a DAG-level
//! equivocator attacking through the broadcast layer, and proposers
//! whose batches no process, or only one other process, can serve.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use dag_rider::core::{
    batch_digest, DagRiderEngine, EngineInput, EngineOutput, HashedBatch, NodeConfig,
    OrderedVertex, Turn, VertexPayload,
};
use dag_rider::crypto::deal_coin_keys;
use dag_rider::rbc::{BrachaKind, BrachaMessage, BrachaRbc, RbcAction, ReliableBroadcast};
use dag_rider::simactor::DagRiderNode;
use dag_rider::simnet::{
    Actor, Context, Either, PartitionScheduler, Simulation, Time, UniformScheduler,
};
use dag_rider::types::{
    Batch, Block, Committee, Decode, Encode, ProcessId, Round, SeqNum, Transaction, VertexBuilder,
    VertexRef, Wave,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Node = DagRiderNode<BrachaRbc>;

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

/// Four engines on a FIFO wire that also carries fetched batches. A
/// timer fires no earlier than it is due, and a `FetchBatches` is
/// answered from the asked engine's batch map unless that engine is
/// `mute`. A batch that no engine holds is
/// fetched for as long as its vertex stays buffered, so [`Harness::run`]
/// stops at a virtual-time horizon.
struct Harness {
    committee: Committee,
    engines: Vec<DagRiderEngine<BrachaRbc>>,
    rngs: Vec<StdRng>,
    /// Inputs in flight, first in first out: peer messages and batches.
    wire: VecDeque<(ProcessId, EngineInput)>,
    /// Armed timers as `(due tick, process, tag)`, earliest first.
    timers: BinaryHeap<Reverse<(u64, ProcessId, u64)>>,
    /// Every `(requester, asked)` pair of the fetch requests issued.
    fetches: Vec<(ProcessId, ProcessId)>,
    /// Each engine's `Ordered` outputs.
    logs: Vec<Vec<OrderedVertex>>,
    mute: Option<ProcessId>,
    now: u64,
}

impl Harness {
    /// Starts four engines with `max_round(40)`. Engine `p` holds batch
    /// `b` when `holds(p, b)` and proposes the digest of `batches[p]`.
    fn start(
        batches: &[Batch],
        holds: impl Fn(ProcessId, usize) -> bool,
        mute: Option<ProcessId>,
    ) -> Self {
        let committee = Committee::new(4).unwrap();
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(313));
        let config = NodeConfig::default().with_max_round(40);
        let mut harness = Self {
            committee,
            engines: committee
                .members()
                .zip(keys)
                .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
                .collect(),
            rngs: (0..4).map(|i| StdRng::seed_from_u64(700 + i)).collect(),
            wire: VecDeque::new(),
            timers: BinaryHeap::new(),
            fetches: Vec::new(),
            logs: vec![Vec::new(); 4],
            mute,
            now: 0,
        };
        for p in committee.members() {
            let i = p.as_usize();
            for (b, batch) in batches.iter().enumerate() {
                if holds(p, b) {
                    harness.engines[i].store_batch(batch.clone());
                }
            }
            // The submission moves the engine off genesis with the digest
            // in its round-1 vertex.
            let input = EngineInput::SubmitDigests(vec![batch_digest(&batches[i])]);
            let turn = harness.engines[i].handle(Time::ZERO, input, &mut harness.rngs[i]);
            harness.route(p, turn);
        }
        harness
    }

    fn route(&mut self, from: ProcessId, turn: Turn) {
        for out in turn.outputs {
            match out {
                EngineOutput::Send { to, payload } => {
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
                EngineOutput::FetchBatches { from: asked, digests } => {
                    self.fetches.push((from, asked));
                    if self.mute == Some(asked) {
                        continue;
                    }
                    for digest in digests {
                        if let Some(batch) = self.engines[asked.as_usize()].batch(&digest) {
                            let input = EngineInput::BatchStored(HashedBatch::new(batch.clone()));
                            self.wire.push_back((from, input));
                        }
                    }
                }
                EngineOutput::Ordered(o) => self.logs[from.as_usize()].push(o),
            }
        }
    }

    /// Runs until nothing is in flight or armed, or until virtual time
    /// passes `horizon`. Each input in flight takes one tick; a due timer
    /// fires ahead of the wire.
    fn run(&mut self, horizon: u64) {
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
            let i = to.as_usize();
            let turn = self.engines[i].handle(Time::new(self.now), input, &mut self.rngs[i]);
            self.route(to, turn);
        }
    }

    /// The vertices of `p`'s ordered log.
    fn order(&self, p: u32) -> Vec<VertexRef> {
        self.logs[p as usize].iter().map(|o| o.vertex).collect()
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
