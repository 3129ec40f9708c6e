//! The simulator adapter for the sans-I/O DAG-Rider engine.
//!
//! [`DagRiderEngine`] is a pure state
//! machine; this crate is the thin glue that runs it inside the
//! deterministic simulator: [`SimActor`] implements
//! [`dagrider_simnet::Actor`] by translating simulator callbacks into
//! [`EngineInput`]s and routing the returned
//! [`EngineOutput`]s back through the simulator's [`Context`]. It keeps
//! the process's ordered log ([`SimActor::ordered`]), stamps the returned
//! [`EngineEvent`](dagrider_core::EngineEvent)s with virtual time into an
//! optional trace ring ([`SimActor::with_trace`]), and keeps the few
//! counters simulation tests query.
//!
//! The adapter adds **no protocol logic** — every decision, every byte on
//! the wire, and every draw of randomness happens inside the engine;
//! batches and the sync streams a joining process asks for are engine
//! messages the simulator carries like any other. `init` calls
//! [`DagRiderEngine::start`]; a harness that boots or restarts a process
//! through the join path of a TCP node calls [`DagRiderEngine::join`]
//! and feeds [`EngineInput::LinkUp`] itself (`tests/sim_suite.rs`). That
//! is what makes the refactor behavior-preserving: a simulation run through
//! this adapter is event-for-event identical to the pre-refactor
//! `DagRiderNode` actor (the full pre-refactor test suite lives here,
//! unchanged except for imports, to prove it), and the very same engine
//! drives the real TCP cluster in `dagrider-net`.
//!
//! [`DagRiderNode`] is an alias for [`SimActor`] so existing harnesses,
//! benches, and tests keep reading naturally.
//!
//! # Example
//!
//! ```
//! use dagrider_simactor::DagRiderNode;
//! use dagrider_core::NodeConfig;
//! use dagrider_crypto::deal_coin_keys;
//! use dagrider_rbc::BrachaRbc;
//! use dagrider_simnet::{Simulation, UniformScheduler};
//! use dagrider_types::Committee;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let committee = Committee::new(4)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let keys = deal_coin_keys(&committee, &mut rng);
//! let config = NodeConfig::default().with_max_round(20);
//!
//! let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
//!     .members()
//!     .zip(keys)
//!     .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
//!     .collect();
//! let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 10), 7);
//! sim.run();
//!
//! // Every process ordered the same sequence of blocks.
//! let reference = sim.actor(dagrider_types::ProcessId::new(0)).ordered().to_vec();
//! assert!(!reference.is_empty());
//! for p in committee.members() {
//!     let log = sim.actor(p).ordered();
//!     assert!(log.iter().zip(&reference).all(|(a, b)| a.vertex == b.vertex));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common_core;

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use dagrider_core::{DagRiderEngine, EngineInput, EngineOutput, NodeConfig, OrderedVertex, Turn};
use dagrider_crypto::CoinKeys;
use dagrider_rbc::ReliableBroadcast;
use dagrider_simnet::{Actor, Context};
use dagrider_trace::{TraceEvent, TraceRecord, Tracer};
use dagrider_types::{Block, Committee, ProcessId, Round, Time};

/// A [`DagRiderEngine`] packaged as a simulator [`Actor`].
///
/// Dereferences to the engine, so all engine queries (`decided_wave()`,
/// `dag()`, …) read directly off a `SimActor`.
#[derive(Debug)]
pub struct SimActor<B> {
    engine: DagRiderEngine<B>,
    /// The `a_deliver` log: every `Ordered` output, in total order.
    ordered: Vec<OrderedVertex>,
    /// The trace ring (`None` unless [`SimActor::with_trace`]).
    tracer: Option<Tracer>,
    /// When each own vertex was created (for
    /// [`SimActor::own_vertex_latencies`]).
    created_at: BTreeMap<Round, Time>,
    /// Vertices garbage collection dropped so far.
    vertices_pruned: u64,
}

impl<B: ReliableBroadcast> SimActor<B> {
    /// Creates an actor for `me` with its dealt coin keys.
    pub fn new(
        committee: Committee,
        me: ProcessId,
        coin_keys: CoinKeys,
        config: NodeConfig,
    ) -> Self {
        Self {
            engine: DagRiderEngine::new(committee, me, coin_keys, config),
            ordered: Vec::new(),
            tracer: None,
            created_at: BTreeMap::new(),
            vertices_pruned: 0,
        }
    }

    /// Records the engine's trace events, stamped with virtual time, into
    /// a ring of `capacity` records (the oldest are overwritten once it is
    /// full; see [`Tracer::dropped`]).
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.tracer = Some(Tracer::new(self.engine.me(), capacity));
        self
    }

    /// The trace ring (`None` unless [`SimActor::with_trace`]).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The trace ring's contents, oldest first (empty when untraced).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.tracer.as_ref().map_or_else(Vec::new, Tracer::records)
    }

    /// The `a_deliver` log: every vertex (block) in its final total-order
    /// position, batch digests resolved to their transactions.
    pub fn ordered(&self) -> &[OrderedVertex] {
        &self.ordered
    }

    /// Vertices dropped by garbage collection so far.
    pub fn vertices_pruned(&self) -> u64 {
        self.vertices_pruned
    }

    /// Broadcast-to-delivery latency of this process's **own** vertices,
    /// in ticks: for every own vertex in the ordered log, the gap between
    /// creating it and `a_deliver`-ing it locally. This is the
    /// client-visible commit latency the §6.2 time-complexity analysis
    /// bounds.
    pub fn own_vertex_latencies(&self) -> Vec<(Round, u64)> {
        let me = self.engine.me();
        self.ordered
            .iter()
            .filter(|o| o.vertex.source == me)
            .filter_map(|o| {
                self.created_at
                    .get(&o.vertex.round)
                    .map(|&sent| (o.vertex.round, o.delivered_at.ticks() - sent.ticks()))
            })
            .collect()
    }

    /// `a_bcast(b, r)`: enqueues a block of transactions for atomic
    /// broadcast (Algorithm 3 lines 32–33). Blocks enqueued before the
    /// simulation starts ride the earliest vertices.
    pub fn a_bcast(&mut self, block: Block) {
        self.engine.enqueue_block(block);
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &DagRiderEngine<B> {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut DagRiderEngine<B> {
        &mut self.engine
    }

    /// Takes one engine turn at the simulator's current time: stamps its
    /// events into the trace ring and counters, then routes its outputs
    /// through the simulator context. Ordered outputs join the ordered log
    /// (queried after the run); everything else is I/O.
    pub fn apply(&mut self, turn: Turn, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.set_now(now);
        }
        for event in turn.events.iter().filter_map(dagrider_core::EngineEvent::trace) {
            match event {
                TraceEvent::VertexCreated { vertex } => {
                    self.created_at.insert(vertex.round, now);
                }
                TraceEvent::Pruned { dropped, .. } => self.vertices_pruned += dropped,
                _ => {}
            }
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.record(event);
            }
        }
        for output in turn.outputs {
            match output {
                EngineOutput::Send { to, payload } => ctx.send(to, payload),
                EngineOutput::Broadcast { payload } => ctx.broadcast_to_others(payload),
                EngineOutput::SetTimer { delay, tag } => ctx.schedule(delay, tag),
                EngineOutput::Ordered(o) => self.ordered.push(o),
            }
        }
    }
}

impl<B> Deref for SimActor<B> {
    type Target = DagRiderEngine<B>;

    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl<B> DerefMut for SimActor<B> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

impl<B: ReliableBroadcast> Actor for SimActor<B> {
    fn init(&mut self, ctx: &mut Context<'_>) {
        let turn = self.engine.start(ctx.now(), ctx.rng());
        self.apply(turn, ctx);
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        let input = EngineInput::Message { from, payload: payload.to_vec() };
        let turn = self.engine.handle(ctx.now(), input, ctx.rng());
        self.apply(turn, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        let turn = self.engine.handle(ctx.now(), EngineInput::Timer { tag }, ctx.rng());
        self.apply(turn, ctx);
    }
}

/// The familiar name for one simulated DAG-Rider process: a
/// [`DagRiderEngine`] behind the [`SimActor`] adapter.
pub type DagRiderNode<B> = SimActor<B>;
