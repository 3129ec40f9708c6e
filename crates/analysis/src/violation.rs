//! The typed invariant-violation catalogue.
//!
//! Every violation names the offending vertex (or wave) and cites the part
//! of the paper whose guarantee it breaks, so an audit report reads as a
//! checklist against §4–§5 of *All You Need is DAG*.

use std::fmt;

use dagrider_types::{BatchDigest, ProcessId, Round, VertexRef, Wave};

/// One violated protocol invariant, found by
/// [`DagAuditor`](crate::DagAuditor).
///
/// Variants are grouped by layer: structural DAG invariants (§4,
/// Algorithm 2), snapshot integrity, and ordering/commit-rule consistency
/// (§5, Algorithm 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// An edge points to a round at or above its vertex's round, breaking
    /// round monotonicity (§4, Algorithm 1: edges reference earlier
    /// rounds).
    NonMonotoneEdge {
        /// The offending vertex.
        vertex: VertexRef,
        /// The edge that fails to descend.
        edge: VertexRef,
    },
    /// Following edges returns to a vertex — the "DAG" has a cycle (§4:
    /// the structure must be a round-based DAG).
    CycleDetected {
        /// A vertex on the detected cycle.
        vertex: VertexRef,
    },
    /// A vertex references a vertex that is not present (and not below the
    /// garbage-collection floor) — causal closure is broken (§4, Claim 1;
    /// Algorithm 2 lines 6–9 only insert once all references are present).
    MissingEdgeTarget {
        /// The offending vertex.
        vertex: VertexRef,
        /// The absent reference.
        edge: VertexRef,
    },
    /// A non-genesis vertex has fewer than `2f + 1` strong edges (§4,
    /// Algorithm 2 lines 24–26 discard such vertices at delivery).
    InsufficientStrongEdges {
        /// The offending vertex.
        vertex: VertexRef,
        /// Strong edges present.
        found: usize,
        /// The `2f + 1` quorum required.
        required: usize,
    },
    /// A strong edge does not point to the immediately preceding round
    /// (§4, Algorithm 1: strong edges reference round `r - 1`).
    StrongEdgeWrongRound {
        /// The offending vertex.
        vertex: VertexRef,
        /// The misdirected strong edge.
        edge: VertexRef,
    },
    /// A weak edge points to round `r - 1` or above (§4, Algorithm 1: weak
    /// edges reference rounds `< r - 1`).
    WeakEdgeWrongRound {
        /// The offending vertex.
        vertex: VertexRef,
        /// The misdirected weak edge.
        edge: VertexRef,
    },
    /// A weak edge targets a vertex already reachable from the vertex's
    /// strong edges — correct processes only add weak edges to otherwise
    /// unreachable orphans (§4, Algorithm 2 lines 27–31).
    RedundantWeakEdge {
        /// The offending vertex.
        vertex: VertexRef,
        /// The already-reachable target.
        edge: VertexRef,
    },
    /// Two distinct vertices share a `(process, round)` slot — equivocation
    /// that reliable broadcast must have prevented (§2 integrity; §4).
    DuplicateVertex {
        /// The doubly-occupied slot.
        slot: VertexRef,
    },
    /// A vertex's source is not one of the `n = 3f + 1` committee members
    /// (§2: the process set is known).
    UnknownSource {
        /// The offending vertex.
        vertex: VertexRef,
        /// Its out-of-committee source.
        source: ProcessId,
    },
    /// A snapshot entry's recorded SHA-256 digest does not match the
    /// vertex bytes — the snapshot was corrupted or tampered with in
    /// transit (§2: links are authenticated; integrity is assumed, so it
    /// must be checked when a DAG crosses a trust boundary).
    DigestMismatch {
        /// The vertex whose bytes hash differently.
        vertex: VertexRef,
    },
    /// A commit event's leader vertex is absent from the wave's first
    /// round (§5, Algorithm 3 lines 46–50: `get_wave_vertex_leader` must
    /// return the vertex for the wave to resolve).
    MissingLeaderVertex {
        /// The wave whose commit lacks its leader vertex.
        wave: Wave,
        /// The elected leader process.
        leader: ProcessId,
    },
    /// A directly committed leader lacks `2f + 1` round-4 vertices with
    /// strong paths to it — the commit rule did not actually hold (§5,
    /// Algorithm 3 line 36).
    UnjustifiedCommit {
        /// The wave that claimed a direct commit.
        wave: Wave,
        /// The leader vertex.
        leader: VertexRef,
        /// Vertices of the wave's last round with strong paths to the
        /// leader.
        supporters: usize,
        /// The `2f + 1` quorum required.
        required: usize,
    },
    /// In sparse-edge mode, a directly committed leader lacks the
    /// adjusted sampled-support threshold `max(f + 1, n - k + 1)` of last-round
    /// vertices with strong paths to it — the commit was claimed without
    /// sufficient sampled support (§5, Algorithm 3 line 36, adapted per
    /// Clownfish's sparse sampling; see DESIGN.md "Sparse edges").
    SparseSupportViolation {
        /// The wave that claimed a direct commit.
        wave: Wave,
        /// The leader vertex.
        leader: VertexRef,
        /// Last-round vertices with strong (sampled) paths to the leader.
        supporters: usize,
        /// The adjusted threshold `max(f + 1, n - k + 1)` required.
        required: usize,
    },
    /// The incremental reachability engine disagrees with the BFS oracle:
    /// a `path`/`strong_path` bit probe returned one answer, a traversal
    /// of the actual edges returned the other. Every commit decision and
    /// delivery order flows through these queries (§5, Algorithm 3), so a
    /// divergence means the closure bitsets are corrupt.
    ReachabilityDivergence {
        /// The query's origin vertex.
        from: VertexRef,
        /// The query's target vertex.
        to: VertexRef,
        /// Whether the diverging query was `strong_path` (else `path`).
        strong_only: bool,
        /// The engine's (wrong, per the oracle) answer.
        engine: bool,
    },
    /// Two consecutively committed leaders are not connected by a strong
    /// path — the retroactive commit chain of Algorithm 3 lines 39–43
    /// (guaranteed by Lemma 1) is broken, which would let processes order
    /// divergent histories.
    BrokenLeaderChain {
        /// The earlier committed wave.
        earlier: Wave,
        /// Its leader vertex.
        earlier_leader: VertexRef,
        /// The later committed wave whose leader fails to reach it.
        later: Wave,
        /// The later leader vertex.
        later_leader: VertexRef,
    },
    /// A trace orders a vertex (`a_deliver`) that was never inserted into
    /// the DAG beforehand — ordering must only walk the causal history of
    /// vertices the DAG actually holds (§5, Algorithm 3 lines 51–57 over
    /// Algorithm 2's causally closed DAG).
    OrderedBeforeDelivered {
        /// The vertex ordered without a preceding insertion.
        vertex: VertexRef,
    },
    /// A trace commits the same wave's leader twice — `decidedWave`
    /// advances monotonically and each wave resolves at most once (§5,
    /// Algorithm 3 line 44).
    DuplicateWaveCommit {
        /// The doubly-committed wave.
        wave: Wave,
        /// The leader vertex of the second commit.
        leader: VertexRef,
    },
    /// A trace resolves a wave (commit or skip) with no preceding coin
    /// flip — leaders exist only after `choose_leader(w)` returns (§5,
    /// Algorithm 3 lines 34–35).
    CommitWithoutCoin {
        /// The wave resolved without its coin.
        wave: Wave,
        /// The claimed leader process.
        leader: ProcessId,
    },
    /// A trace advances to a round at or below an earlier one — the
    /// construction layer's round counter is strictly monotone (§4,
    /// Algorithm 2 lines 10–13).
    NonMonotoneRound {
        /// The round advanced to.
        round: Round,
        /// The highest round previously advanced to.
        previous: Round,
    },
    /// A trace orders the same vertex twice — `deliveredVertices`
    /// guarantees each vertex a single position in the total order (§5,
    /// Algorithm 3 lines 53–56).
    DuplicateOrdered {
        /// The doubly-ordered vertex.
        vertex: VertexRef,
    },
    /// A trace orders a batch digest that never resolves to a stored
    /// batch — with digest-carrying vertices, `a_deliver` of the
    /// transactions requires the batch itself, so an unresolved ordered
    /// digest means the total order's payload is incomplete (§5,
    /// Algorithm 3 lines 51-57; dissemination per the Narwhal
    /// decoupling, PAPERS.md "Bullshark").
    UnresolvedOrderedDigest {
        /// The process whose trace ordered the digest.
        process: ProcessId,
        /// The digest that never resolved.
        digest: BatchDigest,
    },
    /// A recovered process's rebuilt ordered log names a different vertex
    /// than its pre-crash log at the same position — replay delivered a
    /// history the process never had, breaking Total Order for the
    /// process against itself (§5, Algorithm 3 lines 51-57: the order is
    /// a deterministic function of the delivered DAG).
    RecoveryLogDivergence {
        /// Position in the ordered log where the two runs part ways.
        position: usize,
        /// The vertex the pre-crash log delivered there.
        expected: VertexRef,
        /// The vertex the recovered log delivered there.
        found: VertexRef,
    },
    /// A recovered process re-delivered the same vertex at the same log
    /// position but with different block bytes — the payload bound to a
    /// position in the total order changed across the crash (§5,
    /// Algorithm 3 lines 51-57: `a_deliver(m, ...)` fixes `m`).
    RecoveryPayloadMismatch {
        /// Position in the ordered log.
        position: usize,
        /// The vertex whose payload changed.
        vertex: VertexRef,
    },
    /// A recovery that was expected to be complete ends before
    /// re-delivering everything the pre-crash run had already delivered
    /// — a committed delivery was lost (§5, Algorithm 3 lines 51-57;
    /// durably delivered means delivered forever).
    RecoveryLostDelivery {
        /// First pre-crash log position the recovered log lacks.
        position: usize,
        /// The vertex delivered there before the crash.
        vertex: VertexRef,
    },
}

impl InvariantViolation {
    /// The paper section/algorithm whose guarantee this violation breaks.
    pub fn citation(&self) -> &'static str {
        match self {
            InvariantViolation::NonMonotoneEdge { .. }
            | InvariantViolation::CycleDetected { .. } => "§4, Algorithm 1 (round-based DAG)",
            InvariantViolation::MissingEdgeTarget { .. } => "§4, Claim 1 / Algorithm 2 lines 6-9",
            InvariantViolation::InsufficientStrongEdges { .. }
            | InvariantViolation::StrongEdgeWrongRound { .. } => "§4, Algorithm 2 lines 24-26",
            InvariantViolation::WeakEdgeWrongRound { .. }
            | InvariantViolation::RedundantWeakEdge { .. } => "§4, Algorithm 2 lines 27-31",
            InvariantViolation::DuplicateVertex { .. } => "§2 (RBC integrity) / §4",
            InvariantViolation::UnknownSource { .. } => "§2 (known process set, n = 3f+1)",
            InvariantViolation::DigestMismatch { .. } => "§2 (authenticated links)",
            InvariantViolation::MissingLeaderVertex { .. } => "§5, Algorithm 3 lines 46-50",
            InvariantViolation::ReachabilityDivergence { .. } => {
                "§4, Algorithm 1 (path / strong_path)"
            }
            InvariantViolation::UnjustifiedCommit { .. } => "§5, Algorithm 3 line 36",
            InvariantViolation::SparseSupportViolation { .. } => {
                "§5, Algorithm 3 line 36 (sparse-adjusted; Clownfish)"
            }
            InvariantViolation::BrokenLeaderChain { .. } => "§5, Algorithm 3 lines 39-43 / Lemma 1",
            InvariantViolation::OrderedBeforeDelivered { .. }
            | InvariantViolation::DuplicateOrdered { .. }
            | InvariantViolation::UnresolvedOrderedDigest { .. }
            | InvariantViolation::RecoveryLogDivergence { .. }
            | InvariantViolation::RecoveryPayloadMismatch { .. }
            | InvariantViolation::RecoveryLostDelivery { .. } => "§5, Algorithm 3 lines 51-57",
            InvariantViolation::DuplicateWaveCommit { .. } => "§5, Algorithm 3 line 44",
            InvariantViolation::CommitWithoutCoin { .. } => "§5, Algorithm 3 lines 34-35",
            InvariantViolation::NonMonotoneRound { .. } => "§4, Algorithm 2 lines 10-13",
        }
    }

    /// The vertex this violation is anchored to, when there is one.
    pub fn vertex(&self) -> Option<VertexRef> {
        match self {
            InvariantViolation::NonMonotoneEdge { vertex, .. }
            | InvariantViolation::CycleDetected { vertex }
            | InvariantViolation::MissingEdgeTarget { vertex, .. }
            | InvariantViolation::InsufficientStrongEdges { vertex, .. }
            | InvariantViolation::StrongEdgeWrongRound { vertex, .. }
            | InvariantViolation::WeakEdgeWrongRound { vertex, .. }
            | InvariantViolation::RedundantWeakEdge { vertex, .. }
            | InvariantViolation::UnknownSource { vertex, .. }
            | InvariantViolation::DigestMismatch { vertex } => Some(*vertex),
            InvariantViolation::DuplicateVertex { slot } => Some(*slot),
            InvariantViolation::ReachabilityDivergence { from, .. } => Some(*from),
            InvariantViolation::UnjustifiedCommit { leader, .. }
            | InvariantViolation::SparseSupportViolation { leader, .. } => Some(*leader),
            InvariantViolation::BrokenLeaderChain { later_leader, .. } => Some(*later_leader),
            InvariantViolation::MissingLeaderVertex { wave, leader }
            | InvariantViolation::CommitWithoutCoin { wave, leader } => {
                Some(VertexRef::new(wave.first_round(), *leader))
            }
            InvariantViolation::OrderedBeforeDelivered { vertex }
            | InvariantViolation::DuplicateOrdered { vertex } => Some(*vertex),
            InvariantViolation::RecoveryLogDivergence { found, .. } => Some(*found),
            InvariantViolation::RecoveryPayloadMismatch { vertex, .. }
            | InvariantViolation::RecoveryLostDelivery { vertex, .. } => Some(*vertex),
            InvariantViolation::DuplicateWaveCommit { leader, .. } => Some(*leader),
            InvariantViolation::NonMonotoneRound { .. }
            | InvariantViolation::UnresolvedOrderedDigest { .. } => None,
        }
    }

    /// The round the violation is anchored to (for sorting reports).
    pub fn round(&self) -> Round {
        self.vertex().map_or(Round::GENESIS, |v| v.round)
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::NonMonotoneEdge { vertex, edge } => {
                write!(f, "{vertex} has an edge to {edge}, at or above its own round")
            }
            InvariantViolation::CycleDetected { vertex } => {
                write!(f, "{vertex} lies on a cycle")
            }
            InvariantViolation::MissingEdgeTarget { vertex, edge } => {
                write!(f, "{vertex} references absent vertex {edge} (causal closure broken)")
            }
            InvariantViolation::InsufficientStrongEdges { vertex, found, required } => {
                write!(f, "{vertex} has {found} strong edges, needs >= {required}")
            }
            InvariantViolation::StrongEdgeWrongRound { vertex, edge } => {
                write!(f, "{vertex} has a strong edge to {edge}, not the previous round")
            }
            InvariantViolation::WeakEdgeWrongRound { vertex, edge } => {
                write!(f, "{vertex} has a weak edge to {edge}, not strictly below round - 1")
            }
            InvariantViolation::RedundantWeakEdge { vertex, edge } => {
                write!(
                    f,
                    "{vertex} has a weak edge to {edge}, which its strong edges already reach"
                )
            }
            InvariantViolation::DuplicateVertex { slot } => {
                write!(f, "two distinct vertices occupy slot {slot} (equivocation)")
            }
            InvariantViolation::UnknownSource { vertex, source } => {
                write!(f, "{vertex} was broadcast by non-member {source}")
            }
            InvariantViolation::DigestMismatch { vertex } => {
                write!(f, "{vertex}'s bytes do not hash to its recorded digest")
            }
            InvariantViolation::MissingLeaderVertex { wave, leader } => {
                write!(f, "wave {wave} committed leader {leader} whose vertex is absent")
            }
            InvariantViolation::ReachabilityDivergence { from, to, strong_only, engine } => {
                let query = if *strong_only { "strong_path" } else { "path" };
                write!(
                    f,
                    "{query}({from} -> {to}): engine answers {engine}, BFS oracle answers {}",
                    !engine
                )
            }
            InvariantViolation::UnjustifiedCommit { wave, leader, supporters, required } => {
                write!(
                    f,
                    "wave {wave} directly committed {leader} with {supporters} supporters, needs >= {required}"
                )
            }
            InvariantViolation::SparseSupportViolation { wave, leader, supporters, required } => {
                write!(
                    f,
                    "wave {wave} directly committed {leader} with {supporters} sampled supporters, \
                     needs >= {required}"
                )
            }
            InvariantViolation::BrokenLeaderChain {
                earlier,
                earlier_leader,
                later,
                later_leader,
            } => {
                write!(
                    f,
                    "committed leader {later_leader} (wave {later}) has no strong path to \
                     committed leader {earlier_leader} (wave {earlier})"
                )
            }
            InvariantViolation::OrderedBeforeDelivered { vertex } => {
                write!(f, "{vertex} was ordered before it was inserted into the DAG")
            }
            InvariantViolation::DuplicateWaveCommit { wave, leader } => {
                write!(f, "wave {wave} committed its leader twice (second: {leader})")
            }
            InvariantViolation::CommitWithoutCoin { wave, leader } => {
                write!(f, "wave {wave} resolved with leader {leader} before its coin flipped")
            }
            InvariantViolation::NonMonotoneRound { round, previous } => {
                write!(f, "round advanced to {round} at or below earlier round {previous}")
            }
            InvariantViolation::DuplicateOrdered { vertex } => {
                write!(f, "{vertex} appears twice in the ordered log")
            }
            InvariantViolation::UnresolvedOrderedDigest { process, digest } => {
                write!(
                    f,
                    "{process} ordered batch digest {digest} that never resolved to a stored batch"
                )
            }
            InvariantViolation::RecoveryLogDivergence { position, expected, found } => {
                write!(
                    f,
                    "recovered log delivers {found} at position {position} where the pre-crash \
                     log delivered {expected}"
                )
            }
            InvariantViolation::RecoveryPayloadMismatch { position, vertex } => {
                write!(
                    f,
                    "recovered log re-delivers {vertex} at position {position} with different \
                     block bytes"
                )
            }
            InvariantViolation::RecoveryLostDelivery { position, vertex } => {
                write!(
                    f,
                    "recovery lost {vertex}, delivered at position {position} before the crash"
                )
            }
        }?;
        write!(f, " [{}]", self.citation())
    }
}
