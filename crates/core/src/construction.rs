//! DAG construction — Algorithm 2 of the paper, as a sans-io state
//! machine.
//!
//! [`DagCore`] consumes reliable-broadcast deliveries and emits
//! [`DagEvent`]s: vertices to `r_bcast` and `wave_ready(w)` signals for the
//! ordering layer. The logic is a direct transcription:
//!
//! * deliveries are structurally validated (≥ `2f+1` strong edges into the
//!   previous round; source/round must match what the broadcast attests)
//!   and parked in a **buffer** (lines 22–26);
//! * a buffered vertex moves into the DAG once every vertex it references
//!   is present (lines 6–9), keeping the DAG causally closed, and every
//!   batch its payload names is in the node's batch map, so a vertex this
//!   process inserts is one every correct process can insert and resolve;
//! * a garbage-collection pass releases the batches that only collected
//!   vertices named ([`DagCore::prune_below`]);
//! * when the current round holds ≥ `2f+1` vertices the process advances,
//!   signalling `wave_ready` every 4th round (lines 10–13), and broadcasts
//!   a new vertex with strong edges to everything it has in the completed
//!   round and weak edges to any orphans (lines 14–15, 16–21, 27–31);
//! * the process's own transactions fill one open batch, which seals once
//!   it holds [`BATCH_MAX_BYTES`] or when the process creates its next
//!   vertex, so that vertex names every transaction the process holds.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dagrider_rbc::RbcDelivery;
use dagrider_trace::TraceEvent;
use dagrider_types::{
    Batch, BatchDigest, Block, Committee, Decode, Payload, ProcessId, Round, SeqNum,
    SparseEdgeConfig, Transaction, Vertex, VertexBuilder, Wave,
};

use crate::dag::Dag;
use crate::engine::HashedBatch;
use crate::event::EngineEvent;

/// The open batch seals once its transaction payload reaches this size.
/// Drivers refuse a transaction larger than this, so a sealed batch
/// holds less than twice this much.
pub const BATCH_MAX_BYTES: usize = 64 * 1024;

/// An effect emitted by the construction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagEvent {
    /// `r_bcast(v, v.round)`: hand this vertex to the broadcast layer.
    Broadcast(Vertex),
    /// A wave completed locally (Algorithm 2 line 12) — the ordering layer
    /// should flip the coin for it.
    WaveReady(Wave),
    /// A vertex joined the buffer naming a batch the node lacks — fetch
    /// it ([`DagCore::missing_batches`] lists what is missing).
    BatchesMissing,
    /// The open batch sealed just before the vertex that names it was
    /// created: store it and push it to every peer ahead of that
    /// vertex's broadcast, which follows in the same event list.
    BatchSealed(HashedBatch),
}

/// The node's batch store, by content digest: the engine owns it, and
/// the buffer drain reads it.
type Batches = BTreeMap<BatchDigest, Batch>;

/// One entry of the proposal queue: an inline client block, or the
/// digest list of worker-disseminated batches (proposer and sequence
/// number get stamped when the vertex is created).
#[derive(Debug, Clone, PartialEq, Eq)]
enum QueuedPayload {
    Block(Block),
    Digests(Vec<BatchDigest>),
}

/// The construction state of one process (Algorithm 2).
#[derive(Debug)]
pub struct DagCore {
    committee: Committee,
    me: ProcessId,
    dag: Dag,
    /// Delivered vertices whose causal history or batches are not yet
    /// all local.
    buffer: Vec<Vertex>,
    /// The current round `r`.
    round: Round,
    /// Client payloads awaiting a vertex (`blocksToPropose`, generalized
    /// to also carry batch-digest lists in worker-dissemination mode).
    blocks_to_propose: VecDeque<QueuedPayload>,
    /// This process's open batch: transactions no batch holds yet.
    open: Vec<Transaction>,
    /// The transaction payload bytes of `open`.
    open_bytes: usize,
    next_seq: SeqNum,
    /// Stop creating vertices after this round, so simulations quiesce.
    max_round: Option<Round>,
    /// Rounds whose `wave_ready` already fired (monotone cursor).
    last_wave_signalled: u64,
    /// Disable weak edges (ablation only — breaks the Validity property;
    /// see `bench/bin/ablation_weak_edges`).
    disable_weak_edges: bool,
    /// Sparse-edge mode: sample `k` strong edges per vertex instead of
    /// all of round `r - 1`, and accept peers' vertices down to the
    /// sampled minimum. `None` (or a degenerate config) is dense mode.
    sparse: Option<SparseEdgeConfig>,
    /// Every batch digest a vertex at or above the GC floor names, with
    /// the highest round of such a vertex: this process's own vertices
    /// from their creation, and every other vertex from the moment it
    /// joins the buffer.
    naming_round: BTreeMap<BatchDigest, Round>,
    /// The digests of `naming_round` under their highest naming round:
    /// what a floor move past that round releases.
    named_at: BTreeMap<Round, Vec<BatchDigest>>,
}

impl DagCore {
    /// Creates the construction state. A process with no client block
    /// queued proposes an empty block instead of waiting (Algorithm 2
    /// line 17's `wait`): the paper assumes an infinite supply of blocks,
    /// and real systems send empty heartbeat blocks.
    pub fn new(committee: Committee, me: ProcessId, max_round: Option<Round>) -> Self {
        Self {
            committee,
            me,
            dag: Dag::new(committee),
            buffer: Vec::new(),
            round: Round::GENESIS,
            blocks_to_propose: VecDeque::new(),
            open: Vec::new(),
            open_bytes: 0,
            next_seq: SeqNum::new(1),
            max_round,
            last_wave_signalled: 0,
            disable_weak_edges: false,
            sparse: None,
            naming_round: BTreeMap::new(),
            named_at: BTreeMap::new(),
        }
    }

    /// **Ablation only**: stop adding weak edges to new vertices. This
    /// knowingly breaks Validity (starved processes' proposals are never
    /// ordered) and exists to measure exactly that in the benches.
    pub fn set_disable_weak_edges(&mut self, disable: bool) {
        self.disable_weak_edges = disable;
    }

    /// Enables sparse-edge mode: new vertices carry a deterministic
    /// k-sample of strong edges and delivered vertices are accepted down
    /// to `min(k, quorum)` strong edges. A degenerate config
    /// (`k ≥ quorum`) leaves behavior byte-identical to dense mode.
    pub fn set_sparse_edges(&mut self, sparse: Option<SparseEdgeConfig>) {
        self.sparse = sparse;
    }

    /// The minimum strong edges a delivered vertex must carry in the
    /// current mode.
    fn min_strong_edges(&self) -> usize {
        self.sparse.map_or(self.committee.quorum(), |s| s.min_strong_edges(&self.committee))
    }

    /// The local DAG view.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The current round `r`.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The last wave this process completed ([`DagEvent::WaveReady`]), or
    /// wave 0 before the first.
    pub(crate) fn last_wave_ready(&self) -> Wave {
        Wave::new(self.last_wave_signalled)
    }

    /// Vertices parked in the buffer (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Whether a vertex at or above the GC floor, in the DAG or the
    /// buffer, names `digest`.
    pub fn names_batch(&self, digest: &BatchDigest) -> bool {
        self.naming_round.contains_key(digest)
    }

    /// Enqueues a client block (`a_bcast` pushes here, Algorithm 3
    /// line 33).
    pub fn enqueue_block(&mut self, block: Block) {
        self.blocks_to_propose.push_back(QueuedPayload::Block(block));
    }

    /// Enqueues a digest-list payload: the named batches are sealed or
    /// staged, so the next vertex can carry their 32-byte names instead
    /// of the transaction bytes. The proposer and sequence number are
    /// stamped at vertex-creation time.
    ///
    /// Consecutive digest submissions coalesce into one queue entry: a
    /// node may seal several batches between two proposals (each full
    /// one at once, the rest at proposal), and a vertex can carry any
    /// number of 32-byte digests, so folding them together keeps the
    /// proposal backlog bounded by round progress instead of batch rate.
    pub fn enqueue_digests(&mut self, digests: Vec<BatchDigest>) {
        if let Some(QueuedPayload::Digests(tail)) = self.blocks_to_propose.back_mut() {
            tail.extend(digests);
        } else {
            self.blocks_to_propose.push_back(QueuedPayload::Digests(digests));
        }
    }

    /// Number of enqueued blocks not yet proposed.
    pub fn pending_blocks(&self) -> usize {
        self.blocks_to_propose.len()
    }

    /// Appends this process's transactions to its open batch, without
    /// driving the protocol. Each time the batch reaches
    /// [`BATCH_MAX_BYTES`] it seals at once, and its digest is queued for
    /// the next vertex. Returns the batches sealed, for the node to store
    /// and push; the rest waits for the next vertex this process creates.
    pub fn submit_transactions(&mut self, transactions: Vec<Transaction>) -> Vec<HashedBatch> {
        let mut sealed = Vec::new();
        for tx in transactions {
            self.open_bytes += tx.len();
            self.open.push(tx);
            if self.open_bytes >= BATCH_MAX_BYTES {
                sealed.push(self.seal());
            }
        }
        sealed
    }

    /// Seals the open batch as worker 0 and queues its digest, after any
    /// digest already queued, for the next vertex.
    fn seal(&mut self) -> HashedBatch {
        self.open_bytes = 0;
        let batch = HashedBatch::new(Batch::new(self.me, 0, std::mem::take(&mut self.open)));
        self.enqueue_digests(vec![batch.digest()]);
        batch
    }

    /// Starts the protocol: broadcasts the round-1 vertex. Must be called
    /// exactly once. Every method that can advance the DAG reads the
    /// node's batch map `batches` and reports its transitions (inserts,
    /// round advances, vertex creations, wave signals) into `events`, in
    /// the order they happen.
    pub fn start(&mut self, batches: &Batches, events: &mut Vec<EngineEvent>) -> Vec<DagEvent> {
        debug_assert_eq!(self.round, Round::GENESIS, "start() is called once");
        self.try_advance(batches, events)
    }

    /// A batch joined `batches`: drains the buffer again if a buffered
    /// vertex names it. A vertex enters the buffer only through
    /// [`DagCore::on_vertex`], whose advance loop already moved the
    /// process off genesis, so a batch stored before the protocol starts
    /// never starts it.
    pub fn on_batch(
        &mut self,
        digest: &BatchDigest,
        batches: &Batches,
        events: &mut Vec<EngineEvent>,
    ) -> Vec<DagEvent> {
        if self.buffer.iter().any(|v| v.payload().digests().contains(digest)) {
            self.try_advance(batches, events)
        } else {
            Vec::new()
        }
    }

    /// The batches that buffered vertices name and `batches` lacks, each
    /// with the source of a vertex that names it.
    pub fn missing_batches(&self, batches: &Batches) -> BTreeMap<BatchDigest, ProcessId> {
        let mut missing = BTreeMap::new();
        for vertex in &self.buffer {
            for digest in vertex.payload().digests() {
                if !batches.contains_key(digest) {
                    missing.entry(*digest).or_insert(vertex.source());
                }
            }
        }
        missing
    }

    /// Handles `r_deliver(v, round, source)` (Algorithm 2 lines 22–26):
    /// decodes, validates, buffers, and drains the buffer.
    pub fn on_rbc_delivery(
        &mut self,
        delivery: &RbcDelivery,
        batches: &Batches,
        events: &mut Vec<EngineEvent>,
    ) -> Vec<DagEvent> {
        let Ok(vertex) = Vertex::from_bytes(&delivery.payload) else {
            return Vec::new(); // malformed payload from a Byzantine source
        };
        self.on_vertex(vertex, delivery.source, delivery.round, batches, events)
    }

    /// Handles an already-decoded vertex whose `(source, round)` the
    /// broadcast layer attests as `attested_*` — the lines 22–26 checks.
    pub fn on_vertex(
        &mut self,
        vertex: Vertex,
        attested_source: ProcessId,
        attested_round: Round,
        batches: &Batches,
        events: &mut Vec<EngineEvent>,
    ) -> Vec<DagEvent> {
        // The reliable broadcast attests (source, round); the embedded
        // fields must match or the vertex is discarded (lines 23-24 set
        // them from the broadcast, we verify equality which is stricter).
        if vertex.source() != attested_source || vertex.round() != attested_round {
            return Vec::new();
        }
        // Line 25: structural validation (≥ 2f+1 strong edges into the
        // previous round — or the sampled minimum in sparse mode — and
        // weak edges strictly below).
        if vertex.validate_with_min_strong(&self.committee, self.min_strong_edges()).is_err() {
            return Vec::new();
        }
        if vertex.round() == Round::GENESIS {
            return Vec::new(); // genesis is hardcoded, never broadcast
        }
        if vertex.round() < self.dag.pruned_floor() {
            return Vec::new(); // straggler below the GC floor: already ordered
        }
        let lacks_batch = vertex.payload().digests().iter().any(|d| !batches.contains_key(d));
        self.note_named(vertex.payload().digests(), vertex.round());
        self.buffer.push(vertex);
        let mut out = self.try_advance(batches, events);
        if lacks_batch {
            out.push(DagEvent::BatchesMissing);
        }
        out
    }

    /// Garbage-collects DAG rounds strictly below `keep_from` (see
    /// [`Dag::prune_below`]); also drops any buffered stragglers below the
    /// floor. Returns the vertices dropped from the DAG, and the batch
    /// digests the floor releases: those that only vertices below
    /// `keep_from` named. A digest no vertex has named, or one queued
    /// for this process's next vertex, is never released. The work is
    /// per digest named in the collected rounds.
    pub fn prune_below(&mut self, keep_from: Round) -> (usize, Vec<BatchDigest>) {
        self.buffer.retain(|v| v.round() >= keep_from);
        let dropped = self.dag.prune_below(keep_from);
        let mut released = Vec::new();
        while let Some(collected) = self.named_at.first_entry() {
            if *collected.key() >= keep_from {
                break;
            }
            let (round, digests) = collected.remove_entry();
            for digest in digests {
                // A later vertex naming it moved the digest to its round.
                if self.naming_round.get(&digest) == Some(&round) {
                    self.naming_round.remove(&digest);
                    released.push(digest);
                }
            }
        }
        if !released.is_empty() && !self.blocks_to_propose.is_empty() {
            // A digest queued again (the same batch sealed twice) stays:
            // the next vertex names it anew when it is created.
            let queued: BTreeSet<&BatchDigest> = self
                .blocks_to_propose
                .iter()
                .flat_map(|payload| match payload {
                    QueuedPayload::Digests(digests) => digests.as_slice(),
                    QueuedPayload::Block(_) => &[],
                })
                .collect();
            released.retain(|digest| !queued.contains(digest));
        }
        (dropped, released)
    }

    /// Records that a vertex of `round` names `digests`.
    fn note_named(&mut self, digests: &[BatchDigest], round: Round) {
        for &digest in digests {
            // Genesis names nothing, so it stands for "not named yet".
            let highest = self.naming_round.entry(digest).or_insert(Round::GENESIS);
            if round > *highest {
                *highest = round;
                self.named_at.entry(round).or_default().push(digest);
            }
        }
    }

    /// Lines 5–15: drains the buffer into the DAG and advances rounds
    /// while possible.
    fn try_advance(&mut self, batches: &Batches, events: &mut Vec<EngineEvent>) -> Vec<DagEvent> {
        let mut out = Vec::new();
        loop {
            let mut progressed = false;

            // Lines 6–9: move buffered vertices whose edges are all
            // present and whose batches are all local. One pass may
            // unlock further vertices, hence the inner loop-until-fixpoint.
            loop {
                let mut moved_one = false;
                let mut i = 0;
                while i < self.buffer.len() {
                    let vertex = &self.buffer[i];
                    if self.dag.has_all_edges_of(vertex)
                        && vertex.payload().digests().iter().all(|d| batches.contains_key(d))
                    {
                        let vertex = self.buffer.swap_remove(i);
                        let reference = vertex.reference();
                        if self.dag.insert(vertex) {
                            let inserted = self.dag.get(reference).expect("insert returned true");
                            events.push(EngineEvent::VertexInserted(inserted.clone()));
                        }
                        moved_one = true;
                    } else {
                        i += 1;
                    }
                }
                if !moved_one {
                    break;
                }
                progressed = true;
            }

            // Lines 10–15: advance while the current round is complete.
            while self.dag.round_size(self.round) >= self.committee.quorum() {
                if self.round.completes_wave() {
                    let wave = self.round.wave();
                    if wave.number() > self.last_wave_signalled {
                        self.last_wave_signalled = wave.number();
                        events.push(TraceEvent::WaveReady { wave }.into());
                        out.push(DagEvent::WaveReady(wave));
                    }
                }
                if self.max_round.is_some_and(|max| self.round.next() > max) {
                    return out; // quiescence for finite experiments
                }
                self.round = self.round.next();
                // The vertex names every transaction this process holds.
                if !self.open.is_empty() {
                    out.push(DagEvent::BatchSealed(self.seal()));
                }
                let vertex = self.create_new_vertex(self.round);
                events.push(TraceEvent::RoundAdvanced { round: self.round }.into());
                events.push(TraceEvent::VertexCreated { vertex: vertex.reference() }.into());
                out.push(DagEvent::Broadcast(vertex));
                progressed = true;
            }

            if !progressed {
                return out;
            }
        }
    }

    /// `create_new_vertex(round)` (lines 16–21 and 27–31).
    fn create_new_vertex(&mut self, round: Round) -> Vertex {
        let payload: Payload = match self.blocks_to_propose.pop_front() {
            Some(QueuedPayload::Block(block)) => Payload::Block(block),
            Some(QueuedPayload::Digests(digests)) => {
                Payload::Digests { proposer: self.me, seq: self.next_seq, digests }
            }
            None => Payload::Block(Block::empty(self.me, self.next_seq)),
        };
        self.next_seq = self.next_seq.next();
        let prev = round.prev().expect("proposals are never in round 0");
        // Line 19: strong edges to *everything* we have in round - 1 —
        // or, in sparse mode, a deterministic k-sample of it that always
        // keeps the self-parent. `round_vertices` iterates sources in
        // ascending order, so `strong` is already sorted.
        let mut strong: Vec<_> =
            self.dag.round_vertices(prev).values().map(Vertex::reference).collect();
        if let Some(sparse) = self.sparse {
            strong = sparse.sample(&self.committee, self.me, round, strong);
        }
        // Lines 27–31: weak edges to orphans in rounds < round - 1. The
        // scan is closure-subtraction over the strong set's reachability
        // bitsets, so proposing stays cheap even with a deep DAG.
        let orphan_cutoff = Round::new(round.number().saturating_sub(2));
        let weak = if self.disable_weak_edges {
            Vec::new()
        } else {
            self.dag.orphans_below(&strong, orphan_cutoff)
        };
        // The vertex names its batches from now on, while its broadcast
        // is still in flight.
        self.note_named(payload.digests(), round);
        VertexBuilder::new(self.me, round, payload)
            .strong_edges(strong)
            .weak_edges(weak)
            .build_with_min_strong(&self.committee, self.min_strong_edges())
            .expect("a correct process builds valid vertices")
    }
}

#[cfg(test)]
mod tests {
    use dagrider_types::{Encode, Transaction, VertexRef};

    use super::*;

    fn committee() -> Committee {
        Committee::new(4).unwrap()
    }

    fn core(me: u32) -> DagCore {
        DagCore::new(committee(), ProcessId::new(me), None)
    }

    /// The batch map of a process that holds no batch: inline payloads
    /// name none.
    const NO_BATCHES: &Batches = &BTreeMap::new();

    fn delivery_of(vertex: &Vertex) -> RbcDelivery {
        RbcDelivery { source: vertex.source(), round: vertex.round(), payload: vertex.to_bytes() }
    }

    /// Extracts the single broadcast vertex from events.
    fn broadcast_vertex(events: &[DagEvent]) -> Option<&Vertex> {
        events.iter().find_map(|e| match e {
            DagEvent::Broadcast(v) => Some(v),
            DagEvent::WaveReady(_) | DagEvent::BatchesMissing | DagEvent::BatchSealed(_) => None,
        })
    }

    #[test]
    fn start_broadcasts_round_one_vertex_over_genesis() {
        let mut c = core(0);
        let events = c.start(NO_BATCHES, &mut Vec::new());
        let v = broadcast_vertex(&events).expect("round-1 vertex");
        assert_eq!(v.round(), Round::new(1));
        assert_eq!(v.strong_edges().len(), 4, "genesis has all n vertices");
        assert!(v.weak_edges().is_empty());
        assert_eq!(c.round(), Round::new(1));
    }

    #[test]
    fn round_advances_on_quorum_of_deliveries() {
        let mut c = core(0);
        let mut peers: Vec<DagCore> = (1..4).map(core).collect();
        let my_v = broadcast_vertex(&c.start(NO_BATCHES, &mut Vec::new())).unwrap().clone();
        // Deliver my own vertex back to me (validity of RBC).
        assert!(c.on_rbc_delivery(&delivery_of(&my_v), NO_BATCHES, &mut Vec::new()).is_empty());
        assert_eq!(c.round(), Round::new(1));
        // Two peers' round-1 vertices complete the quorum.
        let peer_vs: Vec<Vertex> = peers
            .iter_mut()
            .map(|p| broadcast_vertex(&p.start(NO_BATCHES, &mut Vec::new())).unwrap().clone())
            .collect();
        assert!(c
            .on_rbc_delivery(&delivery_of(&peer_vs[0]), NO_BATCHES, &mut Vec::new())
            .is_empty());
        let events = c.on_rbc_delivery(&delivery_of(&peer_vs[1]), NO_BATCHES, &mut Vec::new());
        let v2 = broadcast_vertex(&events).expect("round-2 vertex after quorum");
        assert_eq!(v2.round(), Round::new(2));
        assert_eq!(v2.strong_edges().len(), 3, "strong edges to everything seen in r1");
        assert_eq!(c.round(), Round::new(2));
    }

    #[test]
    fn buffer_holds_out_of_order_deliveries() {
        // Deliver a round-2 vertex before its round-1 predecessors: it
        // must wait in the buffer, then flush when the history arrives.
        let mut c = core(0);
        c.start(NO_BATCHES, &mut Vec::new());
        let mut makers: Vec<DagCore> = (0..4).map(core).collect();
        let r1: Vec<Vertex> = makers
            .iter_mut()
            .map(|m| broadcast_vertex(&m.start(NO_BATCHES, &mut Vec::new())).unwrap().clone())
            .collect();
        // Build a round-2 vertex at maker 1 by feeding it all of round 1.
        let mut r2 = None;
        for v in &r1 {
            let events = makers[1].on_rbc_delivery(&delivery_of(v), NO_BATCHES, &mut Vec::new());
            if let Some(v2) = broadcast_vertex(&events) {
                r2 = Some(v2.clone());
            }
        }
        let r2 = r2.expect("maker 1 advanced to round 2");
        assert!(c.on_rbc_delivery(&delivery_of(&r2), NO_BATCHES, &mut Vec::new()).is_empty());
        assert_eq!(c.buffered(), 1, "round-2 vertex parked");
        assert!(!c.dag().contains(r2.reference()));
        // Now deliver the round-1 vertices; the buffer flushes.
        for v in &r1 {
            c.on_rbc_delivery(&delivery_of(v), NO_BATCHES, &mut Vec::new());
        }
        assert_eq!(c.buffered(), 0);
        assert!(c.dag().contains(r2.reference()));
    }

    #[test]
    fn buffer_holds_a_vertex_until_its_batches_are_local() {
        // A round-1 vertex whose edges are all present waits while a
        // batch it names is missing, and moves once the batch is stored.
        let mut c = core(0);
        c.start(NO_BATCHES, &mut Vec::new());
        let batch = Batch::new(ProcessId::new(1), 0, vec![Transaction::synthetic(1, 8)]);
        let digest = BatchDigest::new([7; 32]);
        let mut maker = core(1);
        maker.enqueue_digests(vec![digest]);
        let v = broadcast_vertex(&maker.start(NO_BATCHES, &mut Vec::new())).unwrap().clone();
        let events = c.on_rbc_delivery(&delivery_of(&v), NO_BATCHES, &mut Vec::new());
        assert_eq!(events, [DagEvent::BatchesMissing]);
        assert_eq!(c.buffered(), 1, "the vertex waits for its batch");
        assert_eq!(c.missing_batches(NO_BATCHES), BTreeMap::from([(digest, ProcessId::new(1))]));

        let mut batches = BTreeMap::new();
        let other = BatchDigest::new([8; 32]);
        batches.insert(other, batch.clone());
        c.on_batch(&other, &batches, &mut Vec::new());
        assert_eq!(c.buffered(), 1, "a batch the vertex does not name changes nothing");
        batches.insert(digest, batch);
        c.on_batch(&digest, &batches, &mut Vec::new());
        assert_eq!(c.buffered(), 0);
        assert!(c.dag().contains(v.reference()));
        assert!(c.missing_batches(&batches).is_empty());
    }

    /// A vertex of `source` at `round` naming `digests`, with strong
    /// edges to every vertex of the round below.
    fn naming(source: u32, round: u64, digests: Vec<BatchDigest>) -> Vertex {
        let source = ProcessId::new(source);
        let below = Round::new(round - 1);
        let payload = Payload::Digests { proposer: source, seq: SeqNum::new(1), digests };
        VertexBuilder::new(source, Round::new(round), payload)
            .strong_edges(committee().members().map(|p| VertexRef::new(below, p)))
            .build(&committee())
            .unwrap()
    }

    #[test]
    fn prune_below_releases_what_only_collected_vertices_name() {
        let mut c = core(0);
        c.start(NO_BATCHES, &mut Vec::new());
        let [a, b, reused, own] = [1u8, 2, 3, 4].map(|i| BatchDigest::new([i; 32]));
        // Neither vertex has its parents or its batches: both wait in the
        // buffer, and both name what they carry.
        for vertex in [naming(1, 3, vec![a, b, reused]), naming(2, 6, vec![b])] {
            let (source, round) = (vertex.source(), vertex.round());
            c.on_vertex(vertex, source, round, NO_BATCHES, &mut Vec::new());
        }
        assert_eq!(c.buffered(), 2);
        assert!(c.names_batch(&a) && c.names_batch(&b));
        // Both digests wait for this process's next vertex: `own` was
        // never named, and `reused` is the same batch sealed again.
        c.enqueue_digests(vec![reused, own]);
        assert!(!c.names_batch(&own), "a queued digest is not named yet");
        let released = c.prune_below(Round::new(4)).1;
        assert_eq!(released, [a], "the round-6 vertex names b, and the next vertex the queued two");
        assert_eq!(c.buffered(), 1);
        assert!(!c.names_batch(&a), "only the collected vertex named a");
        assert!(c.names_batch(&b));
        assert_eq!(c.prune_below(Round::new(7)).1, [b]);
        assert!(c.prune_below(Round::new(9)).1.is_empty(), "a queued digest stays");
    }

    #[test]
    fn a_stored_batch_never_moves_a_process_off_genesis() {
        let mut c = core(0);
        let batches = BTreeMap::from([(
            BatchDigest::new([7; 32]),
            Batch::new(ProcessId::new(0), 0, Vec::new()),
        )]);
        assert!(c.on_batch(&BatchDigest::new([7; 32]), &batches, &mut Vec::new()).is_empty());
        assert_eq!(c.round(), Round::GENESIS);
    }

    #[test]
    fn malformed_payload_is_discarded() {
        let mut c = core(0);
        c.start(NO_BATCHES, &mut Vec::new());
        let garbage = RbcDelivery {
            source: ProcessId::new(1),
            round: Round::new(1),
            payload: vec![0xff, 0x00, 0xff],
        };
        assert!(c.on_rbc_delivery(&garbage, NO_BATCHES, &mut Vec::new()).is_empty());
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn source_round_mismatch_is_discarded() {
        // A Byzantine process embeds (source, round) that differ from what
        // the reliable broadcast attests.
        let mut c = core(0);
        c.start(NO_BATCHES, &mut Vec::new());
        let mut other = core(2);
        let v = broadcast_vertex(&other.start(NO_BATCHES, &mut Vec::new())).unwrap().clone();
        let lying = RbcDelivery {
            source: ProcessId::new(1), // RBC says p1, vertex says p2
            round: v.round(),
            payload: v.to_bytes(),
        };
        assert!(c.on_rbc_delivery(&lying, NO_BATCHES, &mut Vec::new()).is_empty());
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn too_few_strong_edges_is_discarded() {
        let mut c = core(0);
        c.start(NO_BATCHES, &mut Vec::new());
        let bad = VertexBuilder::new(
            ProcessId::new(1),
            Round::new(1),
            Block::empty(ProcessId::new(1), SeqNum::new(1)),
        )
        .strong_edges([VertexRef::new(Round::GENESIS, ProcessId::new(0))])
        .build_unchecked();
        let d = delivery_of(&bad);
        assert!(c.on_rbc_delivery(&d, NO_BATCHES, &mut Vec::new()).is_empty());
        assert_eq!(c.buffered(), 0, "line 25 drops it before buffering");
    }

    #[test]
    fn wave_ready_fires_every_fourth_round() {
        // Run four interconnected cores synchronously and collect one
        // core's events.
        let mut cores: Vec<DagCore> = (0..4).map(core).collect();
        let mut waves_seen = Vec::new();
        let mut queue: VecDeque<Vertex> = VecDeque::new();
        for c in cores.iter_mut() {
            for e in c.start(NO_BATCHES, &mut Vec::new()) {
                if let DagEvent::Broadcast(v) = e {
                    queue.push_back(v);
                }
            }
        }
        let mut steps = 0;
        while let Some(v) = queue.pop_front() {
            steps += 1;
            if steps > 2000 {
                break;
            }
            let d = delivery_of(&v);
            for (i, c) in cores.iter_mut().enumerate() {
                for e in c.on_rbc_delivery(&d, NO_BATCHES, &mut Vec::new()) {
                    match e {
                        DagEvent::Broadcast(nv) => {
                            if nv.round() <= Round::new(12) {
                                queue.push_back(nv);
                            }
                        }
                        DagEvent::WaveReady(w) => {
                            if i == 0 {
                                waves_seen.push(w);
                            }
                        }
                        DagEvent::BatchesMissing | DagEvent::BatchSealed(_) => {}
                    }
                }
            }
        }
        assert!(waves_seen.len() >= 2, "waves seen: {waves_seen:?}");
        assert_eq!(waves_seen[0], Wave::new(1));
        assert_eq!(waves_seen[1], Wave::new(2));
    }

    #[test]
    fn blocks_are_consumed_in_fifo_order() {
        let mut c = DagCore::new(committee(), ProcessId::new(0), None);
        let block1 =
            Block::new(ProcessId::new(0), SeqNum::new(1), vec![Transaction::synthetic(1, 8)]);
        let block2 =
            Block::new(ProcessId::new(0), SeqNum::new(2), vec![Transaction::synthetic(2, 8)]);
        c.enqueue_block(block1.clone());
        c.enqueue_block(block2);
        let events = c.start(NO_BATCHES, &mut Vec::new());
        let v = broadcast_vertex(&events).unwrap();
        assert_eq!(v.block(), Some(&block1));
        assert_eq!(c.pending_blocks(), 1);
    }

    #[test]
    fn max_round_quiesces() {
        let mut cores: Vec<DagCore> = (0..4)
            .map(|i| DagCore::new(committee(), ProcessId::new(i), Some(Round::new(2))))
            .collect();
        let mut queue: VecDeque<Vertex> = VecDeque::new();
        for c in cores.iter_mut() {
            for e in c.start(NO_BATCHES, &mut Vec::new()) {
                if let DagEvent::Broadcast(v) = e {
                    queue.push_back(v);
                }
            }
        }
        let mut max_round_seen = Round::GENESIS;
        while let Some(v) = queue.pop_front() {
            max_round_seen = max_round_seen.max(v.round());
            let d = delivery_of(&v);
            for c in cores.iter_mut() {
                for e in c.on_rbc_delivery(&d, NO_BATCHES, &mut Vec::new()) {
                    if let DagEvent::Broadcast(nv) = e {
                        queue.push_back(nv);
                    }
                }
            }
        }
        assert_eq!(max_round_seen, Round::new(2));
    }
}
