//! DAG vertices and vertex references (Algorithm 1).

use std::error::Error;
use std::fmt;

use crate::codec::{Decode, DecodeError, Encode};
use crate::{BatchDigest, Block, Committee, ProcessId, Round, SeqNum};

/// What a vertex carries as its client payload (Algorithm 1: `v.block`).
///
/// The original protocol inlines a full [`Block`] of transactions in every
/// vertex, so each transaction byte rides through reliable broadcast on
/// the consensus path. The Narwhal/Bullshark-style decoupling instead
/// disseminates transaction bytes in worker [`Batch`](crate::Batch)es and
/// has vertices name them by digest — the consensus path then pays 32
/// bytes per batch regardless of batch size. A vertex enters the DAG only
/// once the batches it names are local, and `a_deliver` resolves its
/// digests back to transactions from them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A full block of transactions, inlined (the paper's original form).
    Block(Block),
    /// Digests of worker-disseminated batches; the referenced transaction
    /// bytes travel outside the consensus path.
    Digests {
        /// The process that proposed this payload.
        proposer: ProcessId,
        /// The proposer-local sequence number (the `r` of `a_bcast(b, r)`).
        seq: SeqNum,
        /// The batches this payload orders, by digest.
        digests: Vec<BatchDigest>,
    },
}

impl Payload {
    /// The process that proposed this payload.
    pub fn proposer(&self) -> ProcessId {
        match self {
            Payload::Block(block) => block.proposer(),
            Payload::Digests { proposer, .. } => *proposer,
        }
    }

    /// The proposer-local sequence number.
    pub fn seq(&self) -> SeqNum {
        match self {
            Payload::Block(block) => block.seq(),
            Payload::Digests { seq, .. } => *seq,
        }
    }

    /// The batch digests this payload references (empty for inline blocks).
    pub fn digests(&self) -> &[BatchDigest] {
        match self {
            Payload::Block(_) => &[],
            Payload::Digests { digests, .. } => digests,
        }
    }

    /// Whether the payload inlines its transactions.
    pub const fn is_inline(&self) -> bool {
        matches!(self, Payload::Block(_))
    }

    /// Whether the payload carries neither transactions nor digests.
    pub fn is_empty(&self) -> bool {
        match self {
            Payload::Block(block) => block.is_empty(),
            Payload::Digests { digests, .. } => digests.is_empty(),
        }
    }
}

impl From<Block> for Payload {
    fn from(block: Block) -> Self {
        Payload::Block(block)
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Block(block) => write!(f, "{block}"),
            Payload::Digests { proposer, seq, digests } => {
                write!(f, "digests({proposer}{seq}: {} batches)", digests.len())
            }
        }
    }
}

impl Encode for Payload {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Block(block) => {
                0u8.encode(buf);
                block.encode(buf);
            }
            Payload::Digests { proposer, seq, digests } => {
                1u8.encode(buf);
                proposer.encode(buf);
                seq.encode(buf);
                digests.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Payload::Block(block) => block.encoded_len(),
            Payload::Digests { proposer, seq, digests } => {
                proposer.encoded_len() + seq.encoded_len() + digests.encoded_len()
            }
        }
    }
}

impl Decode for Payload {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Payload::Block(Block::decode(buf)?)),
            1 => Ok(Payload::Digests {
                proposer: ProcessId::decode(buf)?,
                seq: SeqNum::decode(buf)?,
                digests: Vec::<BatchDigest>::decode(buf)?,
            }),
            _ => Err(DecodeError::Invalid("unknown payload tag")),
        }
    }
}

/// A reference to a vertex by `(round, source)`.
///
/// Reliable broadcast rules out equivocation, so a round and a source
/// uniquely identify a vertex (§4); the paper notes (§6.2, footnote 2) that
/// edges therefore need only carry these two fields, which keeps a reference
/// at `O(log n + log r)` bits on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexRef {
    /// The round of the referenced vertex.
    pub round: Round,
    /// The process that broadcast the referenced vertex.
    pub source: ProcessId,
}

impl VertexRef {
    /// Creates a reference to the vertex broadcast by `source` in `round`.
    pub const fn new(round: Round, source: ProcessId) -> Self {
        Self { round, source }
    }
}

impl fmt::Display for VertexRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.source, self.round)
    }
}

impl Encode for VertexRef {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.source.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.round.encoded_len() + self.source.encoded_len()
    }
}

impl Decode for VertexRef {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self { round: Round::decode(buf)?, source: ProcessId::decode(buf)? })
    }
}

/// Structural validation error for a [`Vertex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexError {
    /// A strong edge does not point to the immediately preceding round
    /// (Algorithm 1: strong edges reference `v.round - 1`).
    StrongEdgeWrongRound {
        /// The vertex's round.
        round: Round,
        /// The offending edge.
        edge: VertexRef,
    },
    /// A weak edge does not point to a round `< v.round - 1`.
    WeakEdgeWrongRound {
        /// The vertex's round.
        round: Round,
        /// The offending edge.
        edge: VertexRef,
    },
    /// Fewer strong edges than the mode's minimum — `2f + 1` dense
    /// (Algorithm 2 line 25 discards such vertices at delivery), or
    /// `min(k, quorum)` in sparse-edge mode.
    TooFewStrongEdges {
        /// Strong edges present.
        found: usize,
        /// Required minimum.
        required: usize,
    },
    /// The vertex's source is not a committee member.
    UnknownSource(ProcessId),
    /// A non-genesis vertex has round 0.
    RoundZeroProposal,
}

impl fmt::Display for VertexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VertexError::StrongEdgeWrongRound { round, edge } => {
                write!(
                    f,
                    "strong edge {edge} of a round-{round} vertex must point to {}",
                    Round::new(round.number().saturating_sub(1))
                )
            }
            VertexError::WeakEdgeWrongRound { round, edge } => {
                write!(
                    f,
                    "weak edge {edge} of a round-{round} vertex must point below round {}",
                    Round::new(round.number().saturating_sub(1))
                )
            }
            VertexError::TooFewStrongEdges { found, required } => {
                write!(f, "vertex has {found} strong edges, needs at least {required}")
            }
            VertexError::UnknownSource(p) => write!(f, "source {p} is not a committee member"),
            VertexError::RoundZeroProposal => write!(f, "round 0 is reserved for genesis"),
        }
    }
}

impl Error for VertexError {}

/// A vertex of the DAG (Algorithm 1's `struct vertex`).
///
/// Carries the broadcasting process (`source`), the round, one [`Block`] of
/// transactions, at least `2f + 1` strong edges into the previous round, and
/// weak edges to otherwise-unreachable older vertices. Construct proposals
/// with [`VertexBuilder`] (which validates the structural invariants) or
/// genesis vertices with [`Vertex::genesis`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Vertex {
    source: ProcessId,
    round: Round,
    payload: Payload,
    // Both edge lists are kept sorted ascending and deduplicated — the
    // canonical order a `BTreeSet` would yield, so the wire encoding is
    // unchanged, `has_strong_edge_to` can binary-search, and builders
    // avoid per-edge tree rebalancing on the construction hot path.
    strong_edges: Vec<VertexRef>,
    weak_edges: Vec<VertexRef>,
}

impl Vertex {
    /// The hardcoded genesis vertex of `source` (Algorithm 1: `DAG[0]` is a
    /// predefined set of vertices). Genesis vertices carry no edges and an
    /// empty block.
    pub fn genesis(source: ProcessId) -> Self {
        Self {
            source,
            round: Round::GENESIS,
            payload: Payload::Block(Block::empty(source, SeqNum::new(0))),
            strong_edges: Vec::new(),
            weak_edges: Vec::new(),
        }
    }

    /// The process that broadcast this vertex.
    pub const fn source(&self) -> ProcessId {
        self.source
    }

    /// The vertex's DAG round.
    pub const fn round(&self) -> Round {
        self.round
    }

    /// The client payload the vertex carries: an inline block or a list
    /// of worker-batch digests.
    pub const fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The inline block of transactions, when the payload is inline.
    pub const fn block(&self) -> Option<&Block> {
        match &self.payload {
            Payload::Block(block) => Some(block),
            Payload::Digests { .. } => None,
        }
    }

    /// Consumes the vertex, returning its payload.
    pub fn into_payload(self) -> Payload {
        self.payload
    }

    /// The `(round, source)` reference identifying this vertex.
    pub const fn reference(&self) -> VertexRef {
        VertexRef { round: self.round, source: self.source }
    }

    /// Strong edges: references into round `round - 1`, sorted ascending.
    pub fn strong_edges(&self) -> &[VertexRef] {
        &self.strong_edges
    }

    /// Weak edges: references into rounds `< round - 1`, sorted ascending.
    pub fn weak_edges(&self) -> &[VertexRef] {
        &self.weak_edges
    }

    /// Iterates over all outgoing edges, strong first.
    pub fn edges(&self) -> impl Iterator<Item = &VertexRef> {
        self.strong_edges.iter().chain(self.weak_edges.iter())
    }

    /// Whether this vertex has a strong edge to `target`.
    pub fn has_strong_edge_to(&self, target: VertexRef) -> bool {
        self.strong_edges.binary_search(&target).is_ok()
    }

    /// Restores the sorted-and-deduplicated edge-list invariant.
    fn normalize_edges(&mut self) {
        self.strong_edges.sort_unstable();
        self.strong_edges.dedup();
        self.weak_edges.sort_unstable();
        self.weak_edges.dedup();
    }

    /// Validates the structural invariants the DAG layer checks at delivery
    /// (Algorithm 2 lines 22–26): the source is a member, strong edges point
    /// to the previous round and number at least `2f + 1`, weak edges point
    /// strictly below the previous round. Genesis vertices are exempt.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`VertexError`].
    pub fn validate(&self, committee: &Committee) -> Result<(), VertexError> {
        self.validate_with_min_strong(committee, committee.quorum())
    }

    /// [`Vertex::validate`] with an explicit strong-edge minimum, for
    /// sparse-edge mode where vertices legitimately carry only
    /// `min(k, quorum)` strong edges (see
    /// [`SparseEdgeConfig::min_strong_edges`](crate::SparseEdgeConfig::min_strong_edges)).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`VertexError`].
    pub fn validate_with_min_strong(
        &self,
        committee: &Committee,
        min_strong: usize,
    ) -> Result<(), VertexError> {
        if !committee.contains(self.source) {
            return Err(VertexError::UnknownSource(self.source));
        }
        if self.round == Round::GENESIS {
            return Ok(());
        }
        let prev = self.round.prev().expect("non-genesis round has a predecessor");
        for &edge in &self.strong_edges {
            if edge.round != prev {
                return Err(VertexError::StrongEdgeWrongRound { round: self.round, edge });
            }
        }
        for &edge in &self.weak_edges {
            if edge.round >= prev {
                return Err(VertexError::WeakEdgeWrongRound { round: self.round, edge });
            }
        }
        if self.strong_edges.len() < min_strong {
            return Err(VertexError::TooFewStrongEdges {
                found: self.strong_edges.len(),
                required: min_strong,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vertex({} strong:{} weak:{} {})",
            self.reference(),
            self.strong_edges.len(),
            self.weak_edges.len(),
            self.payload
        )
    }
}

impl Encode for Vertex {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source.encode(buf);
        self.round.encode(buf);
        self.payload.encode(buf);
        self.strong_edges.encode(buf);
        self.weak_edges.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.source.encoded_len()
            + self.round.encoded_len()
            + self.payload.encoded_len()
            + self.strong_edges.encoded_len()
            + self.weak_edges.encoded_len()
    }
}

impl Decode for Vertex {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let mut vertex = Self {
            source: ProcessId::decode(buf)?,
            round: Round::decode(buf)?,
            payload: Payload::decode(buf)?,
            strong_edges: Vec::<VertexRef>::decode(buf)?,
            weak_edges: Vec::<VertexRef>::decode(buf)?,
        };
        // A correct process encodes edges sorted and deduplicated (the
        // canonical order); normalizing here makes a Byzantine permutation
        // of the same edge set decode to the identical vertex.
        vertex.normalize_edges();
        Ok(vertex)
    }
}

/// Builder for proposal vertices (`create_new_vertex`, Algorithm 2 line 16).
///
/// ```
/// use dagrider_types::{Block, Committee, ProcessId, Round, SeqNum, VertexBuilder, VertexRef};
///
/// let committee = Committee::new(4)?;
/// let me = ProcessId::new(0);
/// let block = Block::empty(me, SeqNum::new(1));
/// let vertex = VertexBuilder::new(me, Round::new(1), block)
///     .strong_edges(committee.members().take(3)
///         .map(|p| VertexRef::new(Round::GENESIS, p)))
///     .build(&committee)?;
/// assert_eq!(vertex.strong_edges().len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VertexBuilder {
    vertex: Vertex,
}

impl VertexBuilder {
    /// Starts building a vertex for `source` in `round` carrying
    /// `payload` (a [`Block`] or a digest list — anything
    /// `Into<Payload>`).
    pub fn new(source: ProcessId, round: Round, payload: impl Into<Payload>) -> Self {
        Self {
            vertex: Vertex {
                source,
                round,
                payload: payload.into(),
                strong_edges: Vec::new(),
                weak_edges: Vec::new(),
            },
        }
    }

    /// Adds strong edges (must point to `round - 1`).
    pub fn strong_edges(mut self, edges: impl IntoIterator<Item = VertexRef>) -> Self {
        self.vertex.strong_edges.extend(edges);
        self
    }

    /// Adds weak edges (must point below `round - 1`).
    pub fn weak_edges(mut self, edges: impl IntoIterator<Item = VertexRef>) -> Self {
        self.vertex.weak_edges.extend(edges);
        self
    }

    /// Validates and returns the vertex.
    ///
    /// # Errors
    ///
    /// Returns a [`VertexError`] if any structural invariant is violated;
    /// additionally rejects proposals in round 0.
    pub fn build(self, committee: &Committee) -> Result<Vertex, VertexError> {
        self.build_with_min_strong(committee, committee.quorum())
    }

    /// [`VertexBuilder::build`] with an explicit strong-edge minimum, for
    /// sparse-edge mode (see
    /// [`Vertex::validate_with_min_strong`]).
    ///
    /// # Errors
    ///
    /// Returns a [`VertexError`] if any structural invariant is violated;
    /// additionally rejects proposals in round 0.
    pub fn build_with_min_strong(
        mut self,
        committee: &Committee,
        min_strong: usize,
    ) -> Result<Vertex, VertexError> {
        if self.vertex.round == Round::GENESIS {
            return Err(VertexError::RoundZeroProposal);
        }
        self.vertex.normalize_edges();
        self.vertex.validate_with_min_strong(committee, min_strong)?;
        Ok(self.vertex)
    }

    /// Returns the vertex without validation.
    ///
    /// Exists so tests and Byzantine actors can craft malformed vertices;
    /// correct-process code paths always use [`VertexBuilder::build`].
    pub fn build_unchecked(mut self) -> Vertex {
        self.vertex.normalize_edges();
        self.vertex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committee() -> Committee {
        Committee::new(4).unwrap()
    }

    fn genesis_refs(count: usize) -> Vec<VertexRef> {
        (0..count as u32).map(|i| VertexRef::new(Round::GENESIS, ProcessId::new(i))).collect()
    }

    fn valid_round1_vertex() -> Vertex {
        VertexBuilder::new(
            ProcessId::new(0),
            Round::new(1),
            Block::empty(ProcessId::new(0), SeqNum::new(1)),
        )
        .strong_edges(genesis_refs(3))
        .build(&committee())
        .unwrap()
    }

    #[test]
    fn genesis_vertices_validate() {
        let v = Vertex::genesis(ProcessId::new(1));
        assert_eq!(v.round(), Round::GENESIS);
        assert!(v.validate(&committee()).is_ok());
        assert!(v.payload().is_empty());
        assert!(v.block().is_some_and(Block::is_empty));
    }

    #[test]
    fn digest_payloads_roundtrip_and_expose_metadata() {
        let payload = Payload::Digests {
            proposer: ProcessId::new(2),
            seq: SeqNum::new(5),
            digests: vec![BatchDigest::new([1; 32]), BatchDigest::new([2; 32])],
        };
        assert_eq!(payload.proposer(), ProcessId::new(2));
        assert_eq!(payload.seq(), SeqNum::new(5));
        assert_eq!(payload.digests().len(), 2);
        assert!(!payload.is_inline());
        assert!(!payload.is_empty());
        let bytes = payload.to_bytes();
        assert_eq!(bytes.len(), payload.encoded_len());
        assert_eq!(Payload::from_bytes(&bytes).unwrap(), payload);

        let v = VertexBuilder::new(ProcessId::new(0), Round::new(1), payload.clone())
            .strong_edges(genesis_refs(3))
            .build(&committee())
            .unwrap();
        assert!(v.block().is_none());
        assert_eq!(v.payload(), &payload);
        let encoded = v.to_bytes();
        assert_eq!(Vertex::from_bytes(&encoded).unwrap(), v);
    }

    #[test]
    fn unknown_payload_tag_is_rejected() {
        assert!(matches!(
            Payload::from_bytes(&[9]),
            Err(DecodeError::Invalid("unknown payload tag"))
        ));
    }

    #[test]
    fn builder_accepts_valid_vertex() {
        let v = valid_round1_vertex();
        assert_eq!(v.reference(), VertexRef::new(Round::new(1), ProcessId::new(0)));
        assert_eq!(v.strong_edges().len(), 3);
    }

    #[test]
    fn builder_rejects_too_few_strong_edges() {
        let err = VertexBuilder::new(
            ProcessId::new(0),
            Round::new(1),
            Block::empty(ProcessId::new(0), SeqNum::new(1)),
        )
        .strong_edges(genesis_refs(2))
        .build(&committee())
        .unwrap_err();
        assert_eq!(err, VertexError::TooFewStrongEdges { found: 2, required: 3 });
    }

    #[test]
    fn builder_rejects_strong_edge_to_wrong_round() {
        let bad = VertexRef::new(Round::new(1), ProcessId::new(3));
        let err = VertexBuilder::new(
            ProcessId::new(0),
            Round::new(3),
            Block::empty(ProcessId::new(0), SeqNum::new(1)),
        )
        .strong_edges(vec![bad])
        .build(&committee())
        .unwrap_err();
        assert!(matches!(err, VertexError::StrongEdgeWrongRound { .. }));
    }

    #[test]
    fn builder_rejects_weak_edge_to_adjacent_round() {
        // A weak edge must point strictly below round - 1.
        let strong =
            (0..3u32).map(|i| VertexRef::new(Round::new(2), ProcessId::new(i))).collect::<Vec<_>>();
        let err = VertexBuilder::new(
            ProcessId::new(0),
            Round::new(3),
            Block::empty(ProcessId::new(0), SeqNum::new(1)),
        )
        .strong_edges(strong)
        .weak_edges(vec![VertexRef::new(Round::new(2), ProcessId::new(3))])
        .build(&committee())
        .unwrap_err();
        assert!(matches!(err, VertexError::WeakEdgeWrongRound { .. }));
    }

    #[test]
    fn builder_rejects_unknown_source() {
        let err = VertexBuilder::new(
            ProcessId::new(9),
            Round::new(1),
            Block::empty(ProcessId::new(9), SeqNum::new(1)),
        )
        .strong_edges(genesis_refs(3))
        .build(&committee())
        .unwrap_err();
        assert_eq!(err, VertexError::UnknownSource(ProcessId::new(9)));
    }

    #[test]
    fn builder_rejects_round_zero_proposal() {
        let err = VertexBuilder::new(
            ProcessId::new(0),
            Round::GENESIS,
            Block::empty(ProcessId::new(0), SeqNum::new(0)),
        )
        .build(&committee())
        .unwrap_err();
        assert_eq!(err, VertexError::RoundZeroProposal);
    }

    #[test]
    fn vertex_codec_roundtrip() {
        let v = valid_round1_vertex();
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(Vertex::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn reference_encoding_is_compact() {
        // §6.2 footnote 2: a reference is just (round, source) — a handful
        // of bytes, not a hash.
        let r = VertexRef::new(Round::new(100), ProcessId::new(31));
        assert!(r.encoded_len() <= 3);
    }

    #[test]
    fn edges_iterates_strong_then_weak() {
        let strong: Vec<_> = genesis_refs(3);
        let weak = VertexRef::new(Round::GENESIS, ProcessId::new(3));
        let v = VertexBuilder::new(
            ProcessId::new(1),
            Round::new(2),
            Block::empty(ProcessId::new(1), SeqNum::new(1)),
        )
        .strong_edges(strong.iter().map(|r| VertexRef::new(Round::new(1), r.source)))
        .weak_edges([weak])
        .build_unchecked();
        assert_eq!(v.edges().count(), 4);
        assert!(v.has_strong_edge_to(VertexRef::new(Round::new(1), ProcessId::new(0))));
        assert!(!v.has_strong_edge_to(weak));
    }
}
