//! The full DAG-Rider process as a **sans-I/O engine**: construction +
//! ordering + coin over a pluggable reliable broadcast, with no knowledge
//! of who drives it.
//!
//! [`DagRiderEngine`] is a pure state machine. Drivers — the deterministic
//! simulator (via the `dagrider-simactor` adapter), the real TCP runtime
//! (`dagrider-net`), or a test harness replaying a recorded run — feed it
//! typed [`EngineInput`]s and route the typed [`EngineOutput`]s it returns.
//! The engine performs no I/O, reads no clocks, and draws no entropy of its
//! own: the current [`Time`] and an explicit RNG are parameters of every
//! call, so identical input sequences produce byte-identical output
//! sequences (see the `engine_determinism` test in `dagrider-simactor`).
//!
//! # The engine/driver contract
//!
//! * **Inputs** — [`EngineInput::Message`] for every payload received from
//!   an authenticated peer, [`EngineInput::Timer`] when a timer requested
//!   via [`EngineOutput::SetTimer`] fires, [`EngineInput::SubmitBlock`]
//!   (inline) or [`EngineInput::SubmitDigests`] (digests of disseminated
//!   batches) for client payload (`a_bcast`), [`EngineInput::BatchStored`]
//!   for a batch's bytes, and [`EngineInput::SyncVertex`] for state
//!   transfer when a restarted process catches up. No input carries an
//!   unchecked claim: the engine checks what arrives, and a
//!   [`HashedBatch`] is built only by hashing. A restarting driver feeds
//!   its durable store through [`DagRiderEngine::replay_durable`].
//! * **Outputs** — [`EngineOutput::Send`] (unicast to one peer),
//!   [`EngineOutput::Broadcast`] (to every *other* process — self-routing
//!   is handled inside the engine), [`EngineOutput::SetTimer`], and
//!   [`EngineOutput::Ordered`] for every `a_deliver` in total order.
//!   Outputs must be routed in the order returned: the wire order is part
//!   of the deterministic replay contract. The engine keeps no ordered
//!   log: a driver that wants one keeps the `Ordered` outputs.
//! * **Events** — every call also returns the [`EngineEvent`]s it went
//!   through, in order, next to its outputs (one [`Turn`]). The engine
//!   keeps no copy: traces, write-ahead logs, and metrics are the
//!   driver's to build from the stream. A driver with a durable store
//!   persists a turn's durable events before it routes the turn's
//!   outputs.
//! * **Batches** — a vertex enters the DAG only once every batch it
//!   names is in the engine's batch map, so ordering resolves each
//!   digest at once. A buffered vertex that names a missing batch starts
//!   a fetch ([`EngineOutput::FetchBatches`] on [`FETCH_TIMER_TAG`]
//!   timers) that ends only when the batch arrives or garbage collection
//!   prunes the vertex. Garbage collection also drops every batch that
//!   only the collected vertices named; a batch no vertex has named yet
//!   stays.
//! * **Timers** — the fetch timer is the only one the engine requests.
//!   A driver fires each timer no earlier than its delay; every other
//!   [`EngineInput::Timer`] runs end-of-turn housekeeping only (the share
//!   flush; garbage collection runs only on turns that ordered a vertex),
//!   so drivers may safely deliver spurious timers.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use dagrider_crypto::{sha256, Coin, CoinKeys, CoinShare};
use dagrider_rbc::{RbcAction, ReliableBroadcast};
use dagrider_trace::TraceEvent;
use dagrider_types::{
    Batch, BatchDigest, Block, Committee, Decode, DecodeError, Encode, Payload, ProcessId, Round,
    SparseEdgeConfig, Time, Vertex, VertexRef, Wave,
};

use crate::construction::{DagCore, DagEvent};
use crate::dag::Dag;
use crate::durable::DurableEvent;
use crate::event::EngineEvent;
use crate::ordering::{CommitEvent, Delivery, OrderedVertex, Ordering};

/// The content address of a batch: SHA-256 over its encoded bytes. Wire
/// types live in `dagrider-types` (which cannot depend on the crypto
/// crate), so the digest function lives here, next to its main consumer.
pub fn batch_digest(batch: &Batch) -> BatchDigest {
    BatchDigest::new(*sha256(batch.to_bytes()).as_bytes())
}

/// A batch paired with its content digest. The fields are private and
/// [`HashedBatch::new`] is the only constructor, so the digest always
/// matches the batch: a driver may hash on any thread and hand the pair
/// to the engine ([`EngineInput::BatchStored`]), which stores it by that
/// digest without hashing again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashedBatch {
    digest: BatchDigest,
    batch: Batch,
}

impl HashedBatch {
    /// Hashes `batch` ([`batch_digest`]).
    pub fn new(batch: Batch) -> Self {
        Self { digest: batch_digest(&batch), batch }
    }

    /// The batch's content digest.
    pub fn digest(&self) -> BatchDigest {
        self.digest
    }

    /// The batch.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }
}

/// Timer tag reserved for fetching the missing batches of buffered
/// vertices.
pub const FETCH_TIMER_TAG: u64 = u64::MAX;
/// Ticks a missing batch gets to arrive by push before its first fetch
/// request, and between requests during the first rotation over the
/// peers.
pub const FETCH_RETRY_DELAY: u64 = 16;
/// How often the wait between two fetch requests for one batch doubles:
/// once after each full rotation over the peers, up to 64 times
/// [`FETCH_RETRY_DELAY`].
const FETCH_MAX_DOUBLINGS: usize = 6;

/// Wire envelope multiplexing the broadcast layer's traffic with the tiny
/// coin-share messages (§5 footnote 1: the coin can piggyback on the DAG;
/// we send shares as their own messages, which costs `O(n)` extra words
/// per wave — asymptotically free next to the broadcasts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMessage<M> {
    /// A reliable-broadcast protocol message.
    Rbc(M),
    /// A threshold-coin share for some wave.
    Coin(CoinShare),
}

impl<M: Encode> Encode for NodeMessage<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NodeMessage::Rbc(m) => {
                0u8.encode(buf);
                m.encode(buf);
            }
            NodeMessage::Coin(s) => {
                1u8.encode(buf);
                s.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            NodeMessage::Rbc(m) => m.encoded_len(),
            NodeMessage::Coin(s) => s.encoded_len(),
        }
    }
}

impl<M: Decode> Decode for NodeMessage<M> {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(NodeMessage::Rbc(M::decode(buf)?)),
            1 => Ok(NodeMessage::Coin(CoinShare::decode(buf)?)),
            _ => Err(DecodeError::Invalid("unknown node message tag")),
        }
    }
}

/// Configuration for a [`DagRiderEngine`].
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// Stop creating vertices after this round so finite runs quiesce
    /// (default: none — run forever).
    pub max_round: Option<Round>,
    /// **Ablation only**: build vertices without weak edges, knowingly
    /// breaking Validity (measured in `bench/bin/ablation_weak_edges`).
    pub disable_weak_edges: bool,
    /// Piggyback coin shares on the next vertex broadcast instead of
    /// sending dedicated share messages (§5 footnote 1: "the coin can be
    /// easily implemented as part of the DAG itself"). Must be uniform
    /// across the committee. Shares still go out as dedicated messages
    /// when no further vertex will carry them (end of a finite run).
    pub piggyback_coin: bool,
    /// Garbage-collect DAG rounds this far below the fully-delivered
    /// prefix (`None` = keep everything; real deployments prune).
    pub gc_depth: Option<u64>,
    /// Sparse-edge mode (Clownfish-style): vertices carry a deterministic
    /// `k`-sample of strong edges and direct commits clear the adjusted
    /// `max(f + 1, n - k + 1)` threshold. Must be uniform across the committee.
    /// `None` — or `k ≥ quorum` — is the dense paper protocol.
    pub sparse_edges: Option<SparseEdgeConfig>,
}

impl NodeConfig {
    /// Caps vertex creation at `round`.
    pub fn with_max_round(mut self, round: u64) -> Self {
        self.max_round = Some(Round::new(round));
        self
    }

    /// Piggybacks coin shares on vertex broadcasts (§5 footnote 1).
    pub fn with_piggyback_coin(mut self) -> Self {
        self.piggyback_coin = true;
        self
    }

    /// Enables garbage collection `depth` rounds behind the delivered
    /// prefix.
    pub fn with_gc_depth(mut self, depth: u64) -> Self {
        self.gc_depth = Some(depth);
        self
    }

    /// Enables sparse-edge mode: each vertex samples `k` strong edges
    /// deterministically under `seed`. Must be uniform across the
    /// committee.
    pub fn with_sparse_edges(mut self, k: usize, seed: u64) -> Self {
        self.sparse_edges = Some(SparseEdgeConfig::new(k, seed));
        self
    }
}

/// The reliable-broadcast payload: a vertex plus any piggybacked coin
/// shares (§5 footnote 1). With piggybacking off the share list is empty
/// and costs one byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPayload {
    /// The DAG vertex.
    pub vertex: Vertex,
    /// Coin shares revealed by the vertex's creator (normally 0 or 1; the
    /// share for wave `w` rides the round `4w + 1` vertex).
    pub coin_shares: Vec<CoinShare>,
}

impl Encode for VertexPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.vertex.encode(buf);
        self.coin_shares.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.vertex.encoded_len() + self.coin_shares.encoded_len()
    }
}

impl Decode for VertexPayload {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            vertex: dagrider_types::Vertex::decode(buf)?,
            coin_shares: Vec::<CoinShare>::decode(buf)?,
        })
    }
}

/// A typed input to the engine. All variants are data, never callbacks:
/// an input sequence can be recorded, serialized, and replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineInput {
    /// Bytes received from the authenticated peer `from`. The payload is
    /// untrusted wire input ([`NodeMessage`] encoding expected).
    Message {
        /// The authenticated sender (§2: recipients "can verify the
        /// sender's identity"; transports authenticate connections).
        from: ProcessId,
        /// The raw received bytes.
        payload: Vec<u8>,
    },
    /// A timer requested via [`EngineOutput::SetTimer`] fired.
    Timer {
        /// The tag given when the timer was set.
        tag: u64,
    },
    /// `a_bcast(b, r)`: a client block to atomically broadcast
    /// (Algorithm 3 lines 32–33).
    SubmitBlock(Block),
    /// State transfer: a vertex replayed by a peer so a restarted process
    /// can rebuild its DAG without re-running the original broadcasts.
    /// The vertex is structurally validated like any delivery; in this
    /// reproduction vertices carry no creator signature, so the embedded
    /// `(source, round)` is taken as attested (a production deployment
    /// would verify a signature here).
    SyncVertex(Vertex),
    /// `a_bcast` in digest mode: batch digests the worker layer finished
    /// disseminating, ready to ride the next vertex as its payload.
    SubmitDigests(Vec<BatchDigest>),
    /// A batch to keep in the engine's batch store (own assembly, a
    /// peer's dissemination stream, or a completed fetch), already hashed
    /// by whoever built the [`HashedBatch`]. Lets any buffered vertex
    /// waiting on its digest into the DAG.
    BatchStored(HashedBatch),
}

/// A typed effect returned by the engine. Drivers must route outputs in
/// the order returned — wire order is part of the replay contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutput {
    /// Put `payload` on the wire to `to` (never this process itself).
    Send {
        /// The destination process.
        to: ProcessId,
        /// The encoded [`NodeMessage`] bytes.
        payload: Bytes,
    },
    /// Put `payload` on the wire to every process **except** this one
    /// (self-routing is internal to the engine).
    Broadcast {
        /// The encoded [`NodeMessage`] bytes.
        payload: Bytes,
    },
    /// Ask the driver to feed back [`EngineInput::Timer`] with `tag`
    /// after `delay` ticks.
    SetTimer {
        /// Ticks to wait.
        delay: u64,
        /// Tag to echo back.
        tag: u64,
    },
    /// `a_deliver`: the next vertex (block) of the total order, batch
    /// digests resolved to the transactions they named.
    Ordered(OrderedVertex),
    /// Ask the driver to request the listed batches from peer `from`:
    /// buffered vertices name them and the local store lacks them. Sent
    /// when a [`FETCH_TIMER_TAG`] timer fires, rotating over the peers
    /// until the batches arrive.
    FetchBatches {
        /// The peer to ask.
        from: ProcessId,
        /// The missing digests.
        digests: Vec<BatchDigest>,
    },
}

/// What one engine call produced: the effects to route and the
/// transitions it went through, each in the order they happened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Turn {
    /// The effects, in routing order.
    pub outputs: Vec<EngineOutput>,
    /// The transitions, in the order they happened.
    pub events: Vec<EngineEvent>,
}

/// One DAG-Rider process as a sans-I/O state machine: the public face of
/// this crate.
///
/// Generic over the reliable-broadcast instantiation `B` — plug in
/// [`BrachaRbc`](dagrider_rbc::BrachaRbc),
/// [`ProbabilisticRbc`](dagrider_rbc::ProbabilisticRbc), or
/// [`AvidRbc`](dagrider_rbc::AvidRbc) to realize the three Table 1 rows.
///
/// Call [`DagRiderEngine::start`] exactly once, then
/// [`DagRiderEngine::handle`] for every input, and route the outputs of
/// each returned [`Turn`]. See the module docs for the full contract.
#[derive(Debug)]
pub struct DagRiderEngine<B> {
    committee: Committee,
    me: ProcessId,
    config: NodeConfig,
    rbc: B,
    core: DagCore,
    ordering: Ordering,
    coin: Coin,
    /// Shares awaiting a vertex to ride (piggyback mode only).
    pending_shares: Vec<CoinShare>,
    /// The node's batch store, by content digest: the batches that
    /// vertices at or above the GC floor name, and those no vertex has
    /// named yet. A GC pass drops a batch once every vertex naming it has
    /// left the DAG and the buffer (`maybe_gc`). The construction layer
    /// admits vertices against it, resolution reads it, drivers serve
    /// peer fetches from it ([`DagRiderEngine::batch`]), and snapshots
    /// capture it.
    batches: BTreeMap<BatchDigest, Batch>,
    /// Total transaction payload bytes across `batches`.
    batch_bytes: u64,
    /// Missing batches that buffered vertices name, with their fetch
    /// progress.
    fetches: BTreeMap<BatchDigest, Fetch>,
    /// Whether ordering delivered a vertex since the last GC pass — the
    /// only way the delivered frontier can advance (see `maybe_gc`).
    gc_due: bool,
    started: bool,
}

/// The fetch of one missing batch.
#[derive(Debug)]
struct Fetch {
    /// Requests issued so far.
    attempts: usize,
    /// When the next request is due.
    due: Time,
}

impl<B: ReliableBroadcast> DagRiderEngine<B> {
    /// Creates an engine for `me` with its dealt coin keys.
    pub fn new(
        committee: Committee,
        me: ProcessId,
        coin_keys: CoinKeys,
        config: NodeConfig,
    ) -> Self {
        let mut core = DagCore::new(committee, me, config.max_round);
        core.set_disable_weak_edges(config.disable_weak_edges);
        core.set_sparse_edges(config.sparse_edges);
        let mut ordering = Ordering::new(core.dag());
        if let Some(sparse) = config.sparse_edges {
            ordering.set_commit_threshold(sparse.commit_threshold(&committee));
        }
        Self {
            committee,
            me,
            rbc: B::new(committee, me),
            core,
            ordering,
            coin: Coin::new(coin_keys),
            pending_shares: Vec::new(),
            batches: BTreeMap::new(),
            batch_bytes: 0,
            fetches: BTreeMap::new(),
            gc_due: false,
            started: false,
            config,
        }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The committee.
    pub fn committee(&self) -> Committee {
        self.committee
    }

    /// Whether [`DagRiderEngine::start`] has run.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Enqueues a block for atomic broadcast **without** driving the
    /// protocol — the compatibility path for harnesses that inject client
    /// payload outside a driver turn (the block rides the next vertex).
    /// Prefer feeding [`EngineInput::SubmitBlock`] through
    /// [`DagRiderEngine::handle`], which also moves an engine that has not
    /// started off genesis.
    pub fn enqueue_block(&mut self, block: Block) {
        self.core.enqueue_block(block);
    }

    /// Enqueues a digest-list payload for atomic broadcast **without**
    /// driving the protocol — the digest-mode counterpart of
    /// [`DagRiderEngine::enqueue_block`]. Consecutive pre-start calls
    /// coalesce into one payload; prefer
    /// [`EngineInput::SubmitDigests`] through [`DagRiderEngine::handle`]
    /// in live drivers.
    pub fn enqueue_digests(&mut self, digests: Vec<BatchDigest>) {
        self.core.enqueue_digests(digests);
    }

    /// Stores a batch **without** driving the protocol — the harness
    /// counterpart of [`EngineInput::BatchStored`], for drivers that
    /// pre-stage batches before a run.
    pub fn store_batch(&mut self, batch: Batch) {
        if let Entry::Vacant(slot) = self.batches.entry(batch_digest(&batch)) {
            self.batch_bytes += batch.payload_bytes() as u64;
            slot.insert(batch);
        }
    }

    /// The batch-insert point of every turn: stores a batch, reports it
    /// when new, and lets in whatever buffered vertices waited on it.
    fn on_batch(
        &mut self,
        hashed: HashedBatch,
        turn: &mut Turn,
        now: Time,
        rng: &mut rand::rngs::StdRng,
    ) {
        let HashedBatch { digest, batch } = hashed;
        let Entry::Vacant(slot) = self.batches.entry(digest) else { return };
        self.batch_bytes += batch.payload_bytes() as u64;
        slot.insert(batch.clone());
        turn.events.push(EngineEvent::BatchStored { digest, batch });
        let dag_events = self.core.on_batch(&digest, &self.batches, &mut turn.events);
        self.advance(dag_events, turn, now, rng);
    }

    /// The single coin-share acceptance point: a share is taken only from
    /// its issuer, has its proof checked unless `proof_checked` (a share
    /// replayed from the durable store, accepted before the crash), is
    /// reported when the coin did not hold it yet (or refused, as
    /// [`EngineEvent::ShareRejected`]), and delivers whatever a completed
    /// election unlocks.
    fn accept_share(
        &mut self,
        from: ProcessId,
        share: CoinShare,
        proof_checked: bool,
        turn: &mut Turn,
        now: Time,
    ) {
        let accepted = if share.issuer() != from {
            None
        } else if proof_checked {
            self.coin.add_verified_share(share).ok()
        } else {
            self.coin.add_share(share).ok()
        };
        let Some(new) = accepted else {
            turn.events.push(EngineEvent::ShareRejected { from });
            return;
        };
        if new {
            turn.events.push(EngineEvent::ShareAccepted(share));
        }
        if let Some(leader) = self.coin.leader(share.instance()) {
            let wave = Wave::new(share.instance());
            let delivered =
                self.ordering.on_leader(wave, leader, self.core.dag(), now, &mut turn.events);
            self.deliver(delivered, turn, now);
        }
    }

    /// Batches the batch store holds now: garbage collection drops those
    /// that only collected vertices named.
    pub fn batches_stored(&self) -> usize {
        self.batches.len()
    }

    /// Total transaction payload bytes across the batches held now.
    pub fn batch_payload_bytes(&self) -> u64 {
        self.batch_bytes
    }

    /// The stored batch for `digest`, if this process holds it.
    pub fn batch(&self, digest: &BatchDigest) -> Option<&Batch> {
        self.batches.get(digest)
    }

    /// Whether a vertex at or above the GC floor, in the DAG or the
    /// construction buffer, names `digest` ([`DagCore::names_batch`]).
    pub fn names_batch(&self, digest: &BatchDigest) -> bool {
        self.core.names_batch(digest)
    }

    /// Per-wave commit outcomes (experiment bookkeeping).
    pub fn commits(&self) -> &[CommitEvent] {
        self.ordering.commits()
    }

    /// The local DAG view.
    pub fn dag(&self) -> &Dag {
        self.core.dag()
    }

    /// The construction layer's current round.
    pub fn current_round(&self) -> Round {
        self.core.round()
    }

    /// The highest wave whose leader this process committed.
    pub fn decided_wave(&self) -> Wave {
        self.ordering.decided_wave()
    }

    /// The batches the store holds now — those the retained DAG and the
    /// buffer name, and those no vertex has named yet: the batch section
    /// of a durable snapshot.
    pub fn stored_batches(&self) -> Vec<Batch> {
        self.batches.values().cloned().collect()
    }

    /// Every coin instance whose leader this process has opened, with the
    /// elected leader, ascending by instance — the leader section of a
    /// durable snapshot. The coin aggregators retain only combined group
    /// elements (proofs are dropped on acceptance), so a snapshot stores
    /// the *outcome* of each election; waves whose threshold was not yet
    /// reached at snapshot time are covered by the WAL's share records.
    pub fn coin_leaders(&self) -> Vec<(u64, ProcessId)> {
        self.coin.opened_leaders()
    }

    /// Replays one recovered durable event into the engine — the restart
    /// path. Events must be fed in log order, normally before
    /// [`DagRiderEngine::start`]. A vertex or batch replays exactly as
    /// its live input would, and a coin share as one whose proof was
    /// checked before it was persisted; the DAG and the coin then hold
    /// it, so a later sync duplicate reports no durable event. Identical
    /// event sequences rebuild byte-identical ordered logs (the
    /// determinism contract of the module docs). A recovering driver
    /// keeps the turn's `Ordered` outputs, which rebuild its log, and
    /// drops the rest: peers already processed the originals, and the
    /// store already holds the events.
    pub fn replay_durable(
        &mut self,
        event: DurableEvent,
        now: Time,
        rng: &mut rand::rngs::StdRng,
    ) -> Turn {
        let mut turn = Turn::default();
        match event {
            DurableEvent::Vertex(vertex) => {
                return self.handle(now, EngineInput::SyncVertex(vertex), rng);
            }
            DurableEvent::CoinShare(share) => {
                self.accept_share(share.issuer(), share, true, &mut turn, now);
            }
            DurableEvent::Batch(batch) => {
                self.on_batch(HashedBatch::new(batch), &mut turn, now, rng);
            }
            DurableEvent::Commit { wave, leader } => {
                let delivered =
                    self.ordering.on_leader(wave, leader, self.core.dag(), now, &mut turn.events);
                self.deliver(delivered, &mut turn, now);
            }
        }
        self.finish_turn(&mut turn);
        turn
    }

    /// All non-genesis vertices of the local DAG in ascending
    /// `(round, source)` order — the replay stream served to a restarted
    /// peer (each becomes an [`EngineInput::SyncVertex`] there).
    pub fn sync_vertices(&self) -> Vec<Vertex> {
        self.core.dag().iter().filter(|v| v.round() != Round::GENESIS).cloned().collect()
    }

    /// This process's own coin shares for a restarted peer, in wave
    /// order: one for each wave this process completed that its coin
    /// still keeps, from the garbage-collection floor up to the last
    /// wave it completed. A share for a wave still in progress would
    /// make the coin predictable before the wave ends (§2), so none is
    /// served. Share values are deterministic per (key, wave); only the
    /// proof nonce draws from `rng`, and any valid share combines to the
    /// same leader.
    pub fn sync_shares(&mut self, rng: &mut rand::rngs::StdRng) -> Vec<CoinShare> {
        let completed = self.core.last_wave_ready().number();
        (self.coin_floor().max(1)..=completed).map(|wave| self.coin.my_share(wave, rng)).collect()
    }

    /// The lowest wave the coin keeps: the wave before the one holding
    /// the DAG's garbage-collection floor (`maybe_gc` prunes the rest).
    fn coin_floor(&self) -> u64 {
        self.core.dag().pruned_floor().wave().number().saturating_sub(1)
    }

    /// Starts the protocol (Algorithm 2: broadcast the round-1 vertex).
    /// Must be called exactly once, before any [`DagRiderEngine::handle`].
    pub fn start(&mut self, now: Time, rng: &mut rand::rngs::StdRng) -> Turn {
        debug_assert!(!self.started, "start() is called once");
        self.started = true;
        let mut turn = Turn::default();
        let dag_events = self.core.start(&self.batches, &mut turn.events);
        self.advance(dag_events, &mut turn, now, rng);
        self.finish_turn(&mut turn);
        turn
    }

    /// Feeds one input and returns its turn: outputs in routing order,
    /// events in the order they happened.
    pub fn handle(&mut self, now: Time, input: EngineInput, rng: &mut rand::rngs::StdRng) -> Turn {
        let mut turn = Turn::default();
        match input {
            EngineInput::Message { from, payload } => {
                self.on_message(from, &payload, &mut turn, now, rng);
            }
            EngineInput::Timer { tag } => {
                if tag == FETCH_TIMER_TAG {
                    self.fetch_batches(now, &mut turn);
                }
                // Other timer turns are end-of-turn housekeeping only.
            }
            EngineInput::SubmitBlock(block) => {
                self.core.enqueue_block(block);
                // Before `start`, this moves a fresh engine off genesis.
                let dag_events = self.core.retry_propose(&self.batches, &mut turn.events);
                self.advance(dag_events, &mut turn, now, rng);
            }
            EngineInput::SyncVertex(vertex) => {
                let (source, round) = (vertex.source(), vertex.round());
                let dag_events =
                    self.core.on_vertex(vertex, source, round, &self.batches, &mut turn.events);
                self.advance(dag_events, &mut turn, now, rng);
            }
            EngineInput::SubmitDigests(digests) => {
                self.core.enqueue_digests(digests);
                let dag_events = self.core.retry_propose(&self.batches, &mut turn.events);
                self.advance(dag_events, &mut turn, now, rng);
            }
            EngineInput::BatchStored(hashed) => self.on_batch(hashed, &mut turn, now, rng),
        }
        self.finish_turn(&mut turn);
        turn
    }

    /// The Message-input body: decode the wire envelope, dispatch. The
    /// broadcast layer hashes what it needs, and coin shares take the
    /// verifying path.
    fn on_message(
        &mut self,
        from: ProcessId,
        payload: &[u8],
        turn: &mut Turn,
        now: Time,
        rng: &mut rand::rngs::StdRng,
    ) {
        match NodeMessage::<B::Message>::from_bytes(payload) {
            Ok(NodeMessage::Rbc(m)) => {
                let actions = self.rbc.on_message(from, m, rng);
                let mut queue = VecDeque::new();
                Self::enqueue(actions, &mut queue, &mut turn.events);
                self.drive(queue, turn, now, rng);
            }
            // Shares with bad proofs are rejected inside the coin.
            Ok(NodeMessage::Coin(share)) => self.accept_share(from, share, false, turn, now),
            Err(_) => turn.events.push(EngineEvent::Rejected { from }),
        }
    }

    /// Emits ordering-layer deliveries in total order. Every vertex in
    /// the DAG entered it with its batches local, so each delivery
    /// resolves at once.
    fn deliver(&mut self, deliveries: Vec<Delivery>, turn: &mut Turn, now: Time) {
        self.gc_due |= !deliveries.is_empty();
        for delivery in deliveries {
            let ordered = self.resolve(delivery, now, &mut turn.events);
            turn.outputs.push(EngineOutput::Ordered(ordered));
        }
    }

    /// Keeps one fetch going for every missing batch a buffered vertex
    /// names. A new fetch arms a timer for [`FETCH_RETRY_DELAY`], so a
    /// push still in flight is not fetched as well. Each fetch that is
    /// due asks the next peer in its rotation (the vertex's proposer
    /// first, then the others in id order) and re-arms, doubling the
    /// delay after each full rotation, [`FETCH_MAX_DOUBLINGS`] times at
    /// most. A fetch ends when its batch arrives or garbage collection
    /// prunes the vertices that name it.
    fn fetch_batches(&mut self, now: Time, turn: &mut Turn) {
        let missing = self.core.missing_batches(&self.batches);
        self.fetches.retain(|digest, _| missing.contains_key(digest));
        let peers = self.committee.n() - 1;
        let mut requests: BTreeMap<ProcessId, Vec<BatchDigest>> = BTreeMap::new();
        for (digest, proposer) in missing {
            let delay = match self.fetches.entry(digest) {
                Entry::Vacant(slot) => {
                    slot.insert(Fetch { attempts: 0, due: now + FETCH_RETRY_DELAY });
                    FETCH_RETRY_DELAY
                }
                Entry::Occupied(slot) => {
                    let fetch = slot.into_mut();
                    if fetch.due > now {
                        continue;
                    }
                    let from = fetch_target(self.committee, self.me, proposer, fetch.attempts);
                    requests.entry(from).or_default().push(digest);
                    fetch.attempts += 1;
                    let delay =
                        FETCH_RETRY_DELAY << (fetch.attempts / peers).min(FETCH_MAX_DOUBLINGS);
                    fetch.due = now + delay;
                    delay
                }
            };
            turn.outputs.push(EngineOutput::SetTimer { delay, tag: FETCH_TIMER_TAG });
        }
        for (from, digests) in requests {
            for &digest in &digests {
                turn.events.push(TraceEvent::BatchFetchRequested { digest, from }.into());
            }
            turn.outputs.push(EngineOutput::FetchBatches { from, digests });
        }
    }

    /// Materializes a delivery: inline blocks pass through; digest
    /// payloads concatenate their batches' transactions in digest-list
    /// order into one block.
    fn resolve(
        &self,
        delivery: Delivery,
        now: Time,
        events: &mut Vec<EngineEvent>,
    ) -> OrderedVertex {
        let block = match delivery.payload {
            Payload::Block(block) => block,
            Payload::Digests { proposer, seq, digests } => {
                let mut transactions = Vec::new();
                for &digest in &digests {
                    events.push(TraceEvent::DigestOrdered { digest }.into());
                    let batch = self
                        .batches
                        .get(&digest)
                        .expect("a vertex enters the DAG with its batches");
                    transactions.extend_from_slice(batch.transactions());
                    events.push(TraceEvent::BatchResolved { digest }.into());
                }
                Block::new(proposer, seq, transactions)
            }
        };
        OrderedVertex {
            vertex: delivery.vertex,
            block,
            committed_in_wave: delivery.committed_in_wave,
            delivered_at: now,
        }
    }

    /// Queues the actions one broadcast-layer call returned. Its phase
    /// transitions happened during the call, so they are reported now,
    /// ahead of the knock-on effects of its deliveries.
    fn enqueue(
        actions: Vec<RbcAction<B::Message>>,
        queue: &mut VecDeque<RbcAction<B::Message>>,
        events: &mut Vec<EngineEvent>,
    ) {
        for action in actions {
            match action {
                RbcAction::Phase(instance, phase) => {
                    let primitive = B::PRIMITIVE;
                    events.push(TraceEvent::RbcPhase { instance, primitive, phase }.into());
                }
                action => queue.push_back(action),
            }
        }
    }

    /// Acts on construction-layer events, then routes the broadcast
    /// actions they caused plus all their knock-on effects.
    fn advance(
        &mut self,
        dag_events: Vec<DagEvent>,
        turn: &mut Turn,
        now: Time,
        rng: &mut rand::rngs::StdRng,
    ) {
        let mut queue = VecDeque::new();
        self.handle_dag_events(dag_events, turn, &mut queue, now, rng);
        self.drive(queue, turn, now, rng);
    }

    /// Routes queued RBC actions plus all their knock-on effects.
    fn drive(
        &mut self,
        mut queue: VecDeque<RbcAction<B::Message>>,
        turn: &mut Turn,
        now: Time,
        rng: &mut rand::rngs::StdRng,
    ) {
        while let Some(action) = queue.pop_front() {
            match action {
                RbcAction::Send(to, m) => {
                    turn.outputs.push(EngineOutput::Send {
                        to,
                        payload: Bytes::from(NodeMessage::Rbc(m).to_bytes()),
                    });
                }
                RbcAction::Deliver(delivery) => {
                    let (source, round) = (delivery.source, delivery.round);
                    turn.events.push(
                        TraceEvent::VertexRbcDelivered { vertex: VertexRef::new(round, source) }
                            .into(),
                    );
                    let Ok(payload) = VertexPayload::from_bytes(&delivery.payload) else {
                        turn.events.push(EngineEvent::Rejected { from: source });
                        continue;
                    };
                    // Piggybacked shares are only valid from their issuer
                    // (the broadcast authenticates the vertex's creator).
                    for share in payload.coin_shares {
                        self.accept_share(source, share, false, turn, now);
                    }
                    let dag_events = self.core.on_vertex(
                        payload.vertex,
                        source,
                        round,
                        &self.batches,
                        &mut turn.events,
                    );
                    self.handle_dag_events(dag_events, turn, &mut queue, now, rng);
                }
                // `enqueue` reported phases when their call returned.
                RbcAction::Phase(..) => {}
            }
        }
    }

    fn handle_dag_events(
        &mut self,
        dag_events: Vec<DagEvent>,
        turn: &mut Turn,
        queue: &mut VecDeque<RbcAction<B::Message>>,
        now: Time,
        rng: &mut rand::rngs::StdRng,
    ) {
        for event in dag_events {
            match event {
                DagEvent::Broadcast(vertex) => {
                    let round = vertex.round();
                    let coin_shares = if self.config.piggyback_coin {
                        std::mem::take(&mut self.pending_shares)
                    } else {
                        Vec::new()
                    };
                    let payload = VertexPayload { vertex, coin_shares }.to_bytes();
                    let actions = self.rbc.rbcast(payload, round, rng);
                    Self::enqueue(actions, queue, &mut turn.events);
                }
                DagEvent::WaveReady(wave) => {
                    // Flip the coin only now that the wave is complete
                    // (line 35 — unpredictability requires revealing the
                    // share no earlier). The signal fires once per wave,
                    // so the share is reported once.
                    let share = self.coin.my_share(wave.number(), rng);
                    turn.events.push(EngineEvent::ShareAccepted(share));
                    if self.config.piggyback_coin {
                        // Ride the next vertex (the round 4w+1 broadcast,
                        // which immediately follows this event).
                        self.pending_shares.push(share);
                    } else {
                        let msg: NodeMessage<B::Message> = NodeMessage::Coin(share);
                        turn.outputs
                            .push(EngineOutput::Broadcast { payload: Bytes::from(msg.to_bytes()) });
                    }
                    let dag = self.core.dag();
                    let delivered =
                        self.ordering.on_wave_complete(wave, dag, now, &mut turn.events);
                    self.deliver(delivered, turn, now);
                    if let Some(leader) = self.coin.leader(wave.number()) {
                        let dag = self.core.dag();
                        let delivered =
                            self.ordering.on_leader(wave, leader, dag, now, &mut turn.events);
                        self.deliver(delivered, turn, now);
                    }
                }
                DagEvent::BatchesMissing => self.fetch_batches(now, turn),
            }
        }
    }

    /// End-of-turn housekeeping: flush shares that found no vertex to
    /// ride (finite runs stop broadcasting at `max_round`), then garbage
    /// collect if ordering delivered anything.
    fn finish_turn(&mut self, turn: &mut Turn) {
        for share in std::mem::take(&mut self.pending_shares) {
            let msg: NodeMessage<B::Message> = NodeMessage::Coin(share);
            turn.outputs.push(EngineOutput::Broadcast { payload: Bytes::from(msg.to_bytes()) });
        }
        if std::mem::take(&mut self.gc_due) {
            self.maybe_gc(&mut turn.events);
        }
    }

    /// Prunes every round strictly below the fully-delivered prefix minus
    /// the configured safety margin, and the batches only those rounds
    /// named.
    ///
    /// Only turns in which ordering delivered a vertex call this, and
    /// that skips no prune: a vertex joins the DAG undelivered, so
    /// inserts can hold the frontier back but never move it forward, and
    /// without a delivery `keep_from` cannot rise above the floor the
    /// last pass already set.
    fn maybe_gc(&mut self, events: &mut Vec<EngineEvent>) {
        let Some(depth) = self.config.gc_depth else { return };
        // The lowest round still holding an undelivered vertex bounds what
        // is safe to drop.
        let mut frontier =
            self.core.dag().lowest_retained_round().unwrap_or(dagrider_types::Round::new(1));
        let high = self.core.dag().highest_round();
        while frontier <= high
            && !self.core.dag().round_vertices(frontier).is_empty()
            && self
                .core
                .dag()
                .round_vertices(frontier)
                .values()
                .map(dagrider_types::Vertex::reference)
                .all(|r| self.ordering.is_delivered(r))
        {
            frontier = frontier.next();
        }
        let keep_from = dagrider_types::Round::new(frontier.number().saturating_sub(depth));
        if keep_from > self.core.dag().pruned_floor() {
            // Advancing the floor also rebases the reachability engine's
            // slot space and rebuilds retained closures (see Dag::prune_below),
            // so prune only when the floor actually moves.
            let (dropped, released) = self.core.prune_below(keep_from);
            if dropped > 0 {
                events
                    .push(TraceEvent::Pruned { floor: keep_from, dropped: dropped as u64 }.into());
            }
            // Every vertex that could still be ordered lies at or above
            // the floor, so no resolution needs these again.
            for digest in released {
                if let Some(batch) = self.batches.remove(&digest) {
                    self.batch_bytes -= batch.payload_bytes() as u64;
                }
            }
            self.ordering.prune_delivered_below(keep_from);
            self.rbc.prune(keep_from);
            // Coin aggregators for waves entirely below the floor.
            self.coin.prune(self.coin_floor());
        }
    }
}

/// The peer `me` asks on fetch attempt `attempt` for a batch that
/// `proposer`'s vertex names: the proposer first (it assembled the batch
/// or at least named it), then the remaining peers in id order, wrapping.
fn fetch_target(
    committee: Committee,
    me: ProcessId,
    proposer: ProcessId,
    attempt: usize,
) -> ProcessId {
    let others = committee.others(me).filter(|&p| p != proposer);
    let order: Vec<ProcessId> =
        (proposer != me).then_some(proposer).into_iter().chain(others).collect();
    order[attempt % order.len()]
}

#[cfg(test)]
mod tests {
    use dagrider_crypto::deal_coin_keys;
    use dagrider_rbc::BrachaRbc;
    use dagrider_types::{SeqNum, Transaction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn node_message_codec_roundtrip() {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let keys = deal_coin_keys(&committee, &mut rng);
        let share = {
            let mut coin = Coin::new(keys[0].clone());
            coin.my_share(3, &mut rng)
        };
        let msg: NodeMessage<dagrider_rbc::BrachaMessage> = NodeMessage::Coin(share);
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(NodeMessage::<dagrider_rbc::BrachaMessage>::from_bytes(&bytes).unwrap(), msg);

        let rbc_msg = dagrider_rbc::BrachaMessage {
            source: ProcessId::new(0),
            round: Round::new(1),
            kind: dagrider_rbc::BrachaKind::Init(vec![1, 2, 3]),
        };
        let msg = NodeMessage::Rbc(rbc_msg);
        let bytes = msg.to_bytes();
        assert_eq!(NodeMessage::<dagrider_rbc::BrachaMessage>::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn vertex_payload_codec_roundtrip() {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(59);
        let keys = deal_coin_keys(&committee, &mut rng);
        let share = Coin::new(keys[0].clone()).my_share(2, &mut rng);
        let payload =
            VertexPayload { vertex: Vertex::genesis(ProcessId::new(1)), coin_shares: vec![share] };
        let bytes = payload.to_bytes();
        assert_eq!(bytes.len(), payload.encoded_len());
        assert_eq!(VertexPayload::from_bytes(&bytes).unwrap(), payload);
        // Empty share list costs exactly one extra byte over the vertex.
        let bare =
            VertexPayload { vertex: Vertex::genesis(ProcessId::new(1)), coin_shares: Vec::new() };
        assert_eq!(bare.encoded_len(), bare.vertex.encoded_len() + 1);
    }

    /// A minimal in-test driver: four engines exchanging outputs through a
    /// FIFO queue, no simulator anywhere. Proves the engine is complete
    /// without `dagrider-simnet` (which this crate no longer depends on).
    #[test]
    fn four_engines_reach_agreement_without_any_driver_crate() {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let keys = deal_coin_keys(&committee, &mut rng);
        let config = NodeConfig::default().with_max_round(16);
        let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
            .members()
            .zip(keys)
            .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
            .collect();
        let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(100 + i)).collect();
        let tx = Transaction::synthetic(7, 16);
        engines[2].enqueue_block(Block::new(ProcessId::new(2), SeqNum::new(1), vec![tx.clone()]));

        // (from, to, payload) FIFO network with instant delivery; each
        // process's log is the sequence of its `Ordered` outputs.
        let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
        let mut logs: Vec<Vec<OrderedVertex>> = vec![Vec::new(); 4];
        let mut clock = 0u64;
        let mut route =
            |from: ProcessId,
             outs: Vec<EngineOutput>,
             wire: &mut VecDeque<(ProcessId, ProcessId, Vec<u8>)>| {
                for out in outs {
                    match out {
                        EngineOutput::Send { to, payload } => {
                            wire.push_back((from, to, payload.to_vec()));
                        }
                        EngineOutput::Broadcast { payload } => {
                            for to in committee.others(from) {
                                wire.push_back((from, to, payload.to_vec()));
                            }
                        }
                        EngineOutput::Ordered(o) => logs[from.as_usize()].push(o),
                        EngineOutput::SetTimer { .. } | EngineOutput::FetchBatches { .. } => {}
                    }
                }
            };
        for p in committee.members() {
            let outs =
                engines[p.as_usize()].start(Time::new(clock), &mut rngs[p.as_usize()]).outputs;
            route(p, outs, &mut wire);
        }
        while let Some((from, to, payload)) = wire.pop_front() {
            clock += 1;
            let input = EngineInput::Message { from, payload };
            let outs = engines[to.as_usize()]
                .handle(Time::new(clock), input, &mut rngs[to.as_usize()])
                .outputs;
            route(to, outs, &mut wire);
        }

        // Agreement: every pair of logs is prefix-comparable, and the
        // client block was ordered everywhere.
        let refs: Vec<Vec<VertexRef>> =
            logs.iter().map(|log| log.iter().map(|o| o.vertex).collect()).collect();
        for (i, a) in refs.iter().enumerate() {
            for b in refs.iter().skip(i + 1) {
                let common = a.len().min(b.len());
                assert_eq!(&a[..common], &b[..common], "logs diverge");
            }
        }
        for (e, log) in engines.iter().zip(&logs) {
            assert!(e.decided_wave() >= Wave::new(1), "{} decided nothing", e.me());
            assert!(
                log.iter().any(|o| o.block.transactions().contains(&tx)),
                "{} did not order the client block",
                e.me()
            );
        }
    }

    /// Runs four engines over an instant FIFO wire until no message is
    /// left; returns them, their RNGs, their dealt keys, and p0's log (the
    /// vertices of its `Ordered` outputs).
    fn quiesce(
        config: &NodeConfig,
        seed: u64,
    ) -> (Vec<DagRiderEngine<BrachaRbc>>, Vec<StdRng>, Vec<CoinKeys>, Vec<VertexRef>) {
        let committee = Committee::new(4).unwrap();
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
        let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
            .members()
            .zip(keys.clone())
            .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
            .collect();
        let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(seed + 17 + i)).collect();
        let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
        let mut reference: Vec<VertexRef> = Vec::new();
        let mut route =
            |from: ProcessId,
             outs: Vec<EngineOutput>,
             wire: &mut VecDeque<(ProcessId, ProcessId, Vec<u8>)>| {
                for out in outs {
                    match out {
                        EngineOutput::Send { to, payload } => {
                            wire.push_back((from, to, payload.to_vec()));
                        }
                        EngineOutput::Broadcast { payload } => {
                            for to in committee.others(from) {
                                wire.push_back((from, to, payload.to_vec()));
                            }
                        }
                        EngineOutput::Ordered(o) if from == ProcessId::new(0) => {
                            reference.push(o.vertex);
                        }
                        _ => {}
                    }
                }
            };
        for p in committee.members() {
            let outs = engines[p.as_usize()].start(Time::ZERO, &mut rngs[p.as_usize()]).outputs;
            route(p, outs, &mut wire);
        }
        while let Some((from, to, payload)) = wire.pop_front() {
            let outs = engines[to.as_usize()]
                .handle(
                    Time::ZERO,
                    EngineInput::Message { from, payload },
                    &mut rngs[to.as_usize()],
                )
                .outputs;
            route(to, outs, &mut wire);
        }
        (engines, rngs, keys, reference)
    }

    #[test]
    fn sync_vertices_rebuild_an_identical_ordered_log() {
        // Run four engines to quiescence, then rebuild a fifth process's
        // state purely from one engine's sync stream plus two peers' sync
        // shares — the restarted-process catch-up path of the TCP runtime.
        let config = NodeConfig::default().with_max_round(12);
        let (mut engines, mut rngs, keys, reference) = quiesce(&config, 33);
        assert!(!reference.is_empty());

        // A "restarted" p3: fresh engine, fed p0's sync stream and two
        // peers' coin shares (threshold f + 1 = 2). It must not start —
        // syncing precedes proposing.
        let committee = engines[0].committee();
        let mut fresh: DagRiderEngine<BrachaRbc> =
            DagRiderEngine::new(committee, ProcessId::new(3), keys[3].clone(), config);
        let mut fresh_rng = StdRng::seed_from_u64(999);
        let mut rebuilt: Vec<VertexRef> = Vec::new();
        let mut feed = |input: EngineInput| {
            for out in fresh.handle(Time::ZERO, input, &mut fresh_rng).outputs {
                if let EngineOutput::Ordered(o) = out {
                    rebuilt.push(o.vertex);
                }
            }
        };
        let vertices = engines[0].sync_vertices();
        assert!(!vertices.is_empty());
        for v in vertices {
            feed(EngineInput::SyncVertex(v));
        }
        for issuer in [0usize, 1] {
            for share in engines[issuer].sync_shares(&mut rngs[issuer]) {
                let msg: NodeMessage<dagrider_rbc::BrachaMessage> = NodeMessage::Coin(share);
                feed(EngineInput::Message {
                    from: ProcessId::new(issuer as u32),
                    payload: msg.to_bytes(),
                });
            }
        }
        let common = rebuilt.len().min(reference.len());
        assert!(common > 0, "sync rebuilt nothing");
        assert_eq!(&rebuilt[..common], &reference[..common]);
    }

    #[test]
    fn sync_shares_open_no_leader_for_a_wave_in_progress() {
        // Round 10 lies in wave 3, which no engine completes: the shares
        // two engines serve open waves 1 and 2, and reveal nothing that
        // would let one more share predict wave 3's leader.
        let (mut engines, mut rngs, keys, _) =
            quiesce(&NodeConfig::default().with_max_round(10), 5);
        for engine in &engines {
            assert_eq!(engine.dag().highest_round().wave(), Wave::new(3));
            assert_eq!(engine.core.last_wave_ready(), Wave::new(2));
        }
        let mut coin = Coin::new(keys[3].clone());
        for issuer in [0usize, 1] {
            for share in engines[issuer].sync_shares(&mut rngs[issuer]) {
                assert!(share.instance() <= 2, "served a share for wave {}", share.instance());
                coin.add_share(share).unwrap();
            }
        }
        assert!(coin.leader(1).is_some() && coin.leader(2).is_some());
        assert_eq!(coin.leader(3), None);
    }

    #[test]
    fn sync_shares_stay_within_the_coins_retained_waves() {
        // A long garbage-collected run completes 100 waves, but its coin
        // keeps only the last few: the served shares are those, and
        // serving them re-creates none of the pruned elections.
        let config = NodeConfig::default().with_max_round(400).with_gc_depth(16);
        let (mut engines, mut rngs, _, _) = quiesce(&config, 9);
        let engine = &mut engines[0];
        assert_eq!(engine.core.last_wave_ready(), Wave::new(100));
        let retained: Vec<u64> = engine.coin_leaders().iter().map(|&(wave, _)| wave).collect();
        let shares = engine.sync_shares(&mut rngs[0]);
        let served: Vec<u64> = shares.iter().map(CoinShare::instance).collect();
        assert!(!served.is_empty() && served.len() <= 8, "served waves {served:?}");
        assert!(served.iter().all(|wave| retained.contains(wave)), "{served:?} ⊄ {retained:?}");
        assert_eq!(engine.coin_leaders().len(), retained.len());
    }

    #[test]
    fn refused_wire_input_is_reported_and_never_accepted() {
        // Undecodable bytes are `Rejected`; a coin share relayed by a
        // process other than its issuer, and one whose proof was tampered
        // with, are each `ShareRejected`. None of them reaches the coin.
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let keys = deal_coin_keys(&committee, &mut rng);
        let mut engine: DagRiderEngine<BrachaRbc> = DagRiderEngine::new(
            committee,
            ProcessId::new(0),
            keys[0].clone(),
            NodeConfig::default(),
        );
        let coin = |share| NodeMessage::<dagrider_rbc::BrachaMessage>::Coin(share).to_bytes();
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        let share = Coin::new(keys[1].clone()).my_share(1, &mut rng);
        // The last byte ends the proof's response varint: flipping its low
        // bit keeps the share decodable and breaks the proof.
        let mut forged = coin(share);
        *forged.last_mut().unwrap() ^= 1;
        match NodeMessage::<dagrider_rbc::BrachaMessage>::from_bytes(&forged) {
            Ok(NodeMessage::Coin(bad)) => assert!(keys[0].public().verify(&bad).is_err()),
            other => panic!("the tampered share must still decode, got {other:?}"),
        }

        let cases = [
            (p1, vec![0xff, 0xee], EngineEvent::Rejected { from: p1 }),
            (p2, coin(share), EngineEvent::ShareRejected { from: p2 }),
            (p1, forged, EngineEvent::ShareRejected { from: p1 }),
        ];
        for (from, payload, expected) in cases {
            let turn = engine.handle(Time::ZERO, EngineInput::Message { from, payload }, &mut rng);
            assert_eq!(turn.events, vec![expected]);
            assert!(turn.outputs.is_empty());
        }
        // The untampered share from its issuer is accepted: the refusals
        // above came from the relay and the proof, not the share.
        let turn = engine.handle(
            Time::ZERO,
            EngineInput::Message { from: p1, payload: coin(share) },
            &mut rng,
        );
        assert_eq!(turn.events, vec![EngineEvent::ShareAccepted(share)]);
    }

    #[test]
    fn a_missing_batch_is_fetched_from_each_peer_in_turn_until_it_arrives() {
        // p0 holds p1's round-1 vertex, whose batch it lacks. Each fetch
        // the timer makes due asks the next peer, the proposer first, and
        // the wait doubles after each full rotation; the batch lets the
        // vertex in and ends the fetch.
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let keys = deal_coin_keys(&committee, &mut rng);
        let mut engine: DagRiderEngine<BrachaRbc> = DagRiderEngine::new(
            committee,
            ProcessId::new(0),
            keys[0].clone(),
            NodeConfig::default(),
        );
        let batch = Batch::new(ProcessId::new(1), 0, vec![Transaction::synthetic(5, 8)]);
        let digest = batch_digest(&batch);
        let p1 = ProcessId::new(1);
        let vertex = dagrider_types::VertexBuilder::new(
            p1,
            Round::new(1),
            Payload::Digests { proposer: p1, seq: SeqNum::new(1), digests: vec![digest] },
        )
        .strong_edges(committee.members().map(|p| VertexRef::new(Round::GENESIS, p)))
        .build(&committee)
        .unwrap();
        let reference = vertex.reference();

        // (asked peer, next timer delay) of one turn's fetch outputs.
        let fetched = |turn: Turn| {
            let mut asked = None;
            let mut delay = None;
            for out in turn.outputs {
                match out {
                    EngineOutput::FetchBatches { from, digests } => {
                        assert_eq!(digests, vec![digest]);
                        asked = Some(from.as_usize());
                    }
                    EngineOutput::SetTimer { delay: d, tag: FETCH_TIMER_TAG } => delay = Some(d),
                    _ => {}
                }
            }
            (asked, delay)
        };
        let turn = engine.handle(Time::new(100), EngineInput::SyncVertex(vertex), &mut rng);
        assert_eq!(fetched(turn), (None, Some(FETCH_RETRY_DELAY)), "the first request waits");
        assert!(!engine.dag().contains(reference));

        let mut now = 100;
        let timer = EngineInput::Timer { tag: FETCH_TIMER_TAG };
        let early = engine.handle(Time::new(now + 1), timer.clone(), &mut rng);
        assert_eq!(fetched(early), (None, None), "a timer that is not due asks nobody");
        let mut plan = Vec::new();
        let mut delay = FETCH_RETRY_DELAY;
        for _ in 0..7 {
            now += delay;
            let (asked, next) = fetched(engine.handle(Time::new(now), timer.clone(), &mut rng));
            plan.push((asked.unwrap(), next.unwrap()));
            delay = next.unwrap();
        }
        let d = FETCH_RETRY_DELAY;
        assert_eq!(
            plan,
            [(1, d), (2, d), (3, 2 * d), (1, 2 * d), (2, 2 * d), (3, 4 * d), (1, 4 * d)]
        );

        let stored = EngineInput::BatchStored(HashedBatch::new(batch));
        engine.handle(Time::new(now), stored, &mut rng);
        assert!(engine.dag().contains(reference), "the batch lets the vertex in");
        let after = engine.handle(Time::new(now + delay), timer, &mut rng);
        assert_eq!(fetched(after), (None, None), "the fetch ended with the batch");
    }

    #[test]
    fn engine_is_send_for_every_broadcast_layer() {
        // A compile-time check: the engine holds no shared handles, so a
        // driver may build it on one thread and run it on another.
        fn assert_send<T: Send>() {}
        assert_send::<DagRiderEngine<BrachaRbc>>();
        assert_send::<DagRiderEngine<dagrider_rbc::AvidRbc>>();
        assert_send::<DagRiderEngine<dagrider_rbc::ProbabilisticRbc>>();
    }
}
