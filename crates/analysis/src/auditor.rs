//! The invariant auditor: machine-checks a DAG (live or snapshotted)
//! against the full §4–§5 invariant catalogue.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dagrider_core::{CommitEvent, Dag, OrderedVertex, WaveOutcome};
use dagrider_trace::{TraceEvent, TraceRecord};
use dagrider_types::{
    BatchDigest, Committee, ProcessId, Round, SparseEdgeConfig, Vertex, VertexRef, Wave,
};

use crate::snapshot::DagSnapshot;
use crate::violation::InvariantViolation;

/// Audits DAGs against the protocol's structural and ordering invariants.
///
/// The auditor is deliberately independent of the construction code paths
/// it checks: it re-derives every invariant from the paper rather than
/// calling [`Vertex::validate`], so a bug in the shared validation logic
/// cannot hide from it.
///
/// ```
/// use dagrider_analysis::DagAuditor;
/// use dagrider_core::Dag;
/// use dagrider_types::Committee;
///
/// let committee = Committee::new(4)?;
/// let auditor = DagAuditor::new(committee);
/// assert!(auditor.audit_dag(&Dag::new(committee)).is_empty());
/// # Ok::<(), dagrider_types::CommitteeError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DagAuditor {
    committee: Committee,
    /// Sparse-edge mode under audit: vertices legitimately carry only
    /// `min(k, quorum)` strong edges and direct commits clear the
    /// adjusted `max(f + 1, n - k + 1)` threshold. `None` = dense paper rules.
    sparse: Option<SparseEdgeConfig>,
}

/// An indexed, read-only view of a vertex set: the common shape behind
/// auditing a live [`Dag`] and a [`DagSnapshot`].
struct View<'a> {
    vertices: BTreeMap<VertexRef, &'a Vertex>,
    pruned_floor: Round,
}

impl<'a> View<'a> {
    fn get(&self, reference: VertexRef) -> Option<&'a Vertex> {
        self.vertices.get(&reference).copied()
    }

    /// Whether `reference` is either present or excused by garbage
    /// collection (its round was pruned; genesis is never pruned).
    fn resolves(&self, reference: VertexRef) -> bool {
        self.vertices.contains_key(&reference)
            || (reference.round < self.pruned_floor && reference.round != Round::GENESIS)
    }

    /// Every vertex reachable from `frontier` following **all** edges of
    /// present vertices (the frontier itself included). This is the
    /// causal history of the frontier, which in a causally closed DAG is
    /// stable under further insertions — the basis of the weak-edge
    /// redundancy check.
    fn reachable_from(&self, frontier: impl IntoIterator<Item = VertexRef>) -> BTreeSet<VertexRef> {
        let mut reachable: BTreeSet<VertexRef> = frontier.into_iter().collect();
        let mut queue: VecDeque<VertexRef> = reachable.iter().copied().collect();
        while let Some(current) = queue.pop_front() {
            if let Some(vertex) = self.get(current) {
                for &edge in vertex.edges() {
                    if reachable.insert(edge) {
                        queue.push_back(edge);
                    }
                }
            }
        }
        reachable
    }
}

impl DagAuditor {
    /// Creates an auditor for the given committee (dense paper rules).
    pub fn new(committee: Committee) -> Self {
        Self { committee, sparse: None }
    }

    /// Creates an auditor for the committee `dag` was built over.
    pub fn for_dag(dag: &Dag) -> Self {
        Self::new(dag.committee())
    }

    /// Audits against sparse-edge-mode rules: the strong-edge minimum
    /// drops to `min(k, quorum)` and direct commits are checked against
    /// the adjusted sampled-support threshold (as
    /// [`InvariantViolation::SparseSupportViolation`]).
    pub fn with_sparse_edges(mut self, sparse: SparseEdgeConfig) -> Self {
        self.sparse = Some(sparse);
        self
    }

    /// The committee the auditor checks against.
    pub fn committee(&self) -> Committee {
        self.committee
    }

    /// The strong-edge minimum in force (mode-dependent).
    fn min_strong_edges(&self) -> usize {
        self.sparse.map_or(self.committee.quorum(), |s| s.min_strong_edges(&self.committee))
    }

    /// Audits a live DAG's structural invariants, plus a differential
    /// check of the closure-bitset reachability engine against the BFS
    /// oracle. The [`Dag`] container itself rules out slot duplicates, so
    /// [`InvariantViolation::DuplicateVertex`] can only arise from the
    /// snapshot path.
    pub fn audit_dag(&self, dag: &Dag) -> Vec<InvariantViolation> {
        let view = View {
            vertices: dag.iter().map(|v| (v.reference(), v)).collect(),
            pruned_floor: dag.pruned_floor(),
        };
        let mut violations = self.audit_view(&view);
        violations.extend(self.audit_reachability(dag));
        sort_report(&mut violations);
        violations
    }

    /// Differential check of the reachability engine: for every vertex,
    /// one BFS sweep per edge family gives the ground-truth reachable set
    /// (O(V·E) total, not per query), and every `path` / `strong_path`
    /// bit probe must agree with it pairwise. The engine answers commit
    /// and delivery queries (§5, Algorithm 3), so any divergence is
    /// reported as [`InvariantViolation::ReachabilityDivergence`].
    pub fn audit_reachability(&self, dag: &Dag) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let refs: Vec<VertexRef> = dag.iter().map(Vertex::reference).collect();
        for &from in &refs {
            for strong_only in [true, false] {
                let oracle = dag.oracle_reachable(from, strong_only);
                for &to in &refs {
                    let engine =
                        if strong_only { dag.strong_path(from, to) } else { dag.path(from, to) };
                    if engine != oracle.contains(&to) {
                        violations.push(InvariantViolation::ReachabilityDivergence {
                            from,
                            to,
                            strong_only,
                            engine,
                        });
                    }
                }
            }
        }
        violations
    }

    /// Audits a serialized snapshot: digest integrity and slot uniqueness
    /// first, then the same structural checks as [`DagAuditor::audit_dag`]
    /// over the entries (first occupant of a duplicated slot wins).
    pub fn audit_snapshot(&self, snapshot: &DagSnapshot) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let mut vertices: BTreeMap<VertexRef, &Vertex> = BTreeMap::new();
        let mut duplicated: BTreeSet<VertexRef> = BTreeSet::new();
        for entry in snapshot.entries() {
            let reference = entry.vertex.reference();
            if !entry.digest_matches() {
                violations.push(InvariantViolation::DigestMismatch { vertex: reference });
            }
            if vertices.insert(reference, &entry.vertex).is_some() && duplicated.insert(reference) {
                violations.push(InvariantViolation::DuplicateVertex { slot: reference });
            }
        }
        let view = View { vertices, pruned_floor: snapshot.pruned_floor() };
        violations.extend(self.audit_view(&view));
        sort_report(&mut violations);
        violations
    }

    /// Audits a process's commit record against its DAG: direct commits
    /// must be justified by a `2f + 1` strong-path quorum (Algorithm 3
    /// line 36), committed leaders' vertices must exist, and consecutive
    /// committed leaders must chain by strong paths (lines 39–43 /
    /// Lemma 1 — this is the invariant whose violation would let two
    /// processes order divergent histories).
    pub fn audit_commits(&self, dag: &Dag, commits: &[CommitEvent]) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        // The bar direct commits must clear: the 2f + 1 quorum dense, or
        // the adjusted sampled-support threshold in sparse-edge mode.
        let quorum =
            self.sparse.map_or(self.committee.quorum(), |s| s.commit_threshold(&self.committee));
        let sparse_mode = self.sparse.is_some_and(|s| !s.is_degenerate(&self.committee));
        // Committed leaders by wave; a wave may appear twice in the record
        // (Skipped at interpretation, Indirect later) — only commits count.
        let mut committed: BTreeMap<Wave, VertexRef> = BTreeMap::new();
        for commit in commits {
            if commit.outcome == WaveOutcome::Skipped {
                continue;
            }
            let leader = VertexRef::new(commit.wave.first_round(), commit.leader);
            // Garbage collection may have dropped the evidence; nothing
            // left to check for such waves.
            if leader.round < dag.pruned_floor() {
                continue;
            }
            if !dag.contains(leader) {
                violations.push(InvariantViolation::MissingLeaderVertex {
                    wave: commit.wave,
                    leader: commit.leader,
                });
                continue;
            }
            committed.insert(commit.wave, leader);
            if commit.outcome == WaveOutcome::Direct {
                let supporters = dag
                    .round_vertices(commit.wave.last_round())
                    .values()
                    .filter(|u| dag.strong_path(u.reference(), leader))
                    .count();
                if supporters < quorum {
                    violations.push(if sparse_mode {
                        InvariantViolation::SparseSupportViolation {
                            wave: commit.wave,
                            leader,
                            supporters,
                            required: quorum,
                        }
                    } else {
                        InvariantViolation::UnjustifiedCommit {
                            wave: commit.wave,
                            leader,
                            supporters,
                            required: quorum,
                        }
                    });
                }
            }
        }
        // Adjacent committed leaders, in wave order, must be strongly
        // connected; transitivity then chains the whole sequence.
        for ((&earlier, &earlier_leader), (&later, &later_leader)) in
            committed.iter().zip(committed.iter().skip(1))
        {
            if !dag.strong_path(later_leader, earlier_leader) {
                violations.push(InvariantViolation::BrokenLeaderChain {
                    earlier,
                    earlier_leader,
                    later,
                    later_leader,
                });
            }
        }
        violations
    }

    /// Audits a crash recovery: the recovered process's DAG must pass
    /// the full structural audit, and its rebuilt ordered log must be
    /// **prefix-consistent** with the log it had delivered before the
    /// crash — same vertices at the same positions
    /// ([`InvariantViolation::RecoveryLogDivergence`]) carrying the same
    /// block bytes ([`InvariantViolation::RecoveryPayloadMismatch`]),
    /// with no vertex delivered twice. Wall-clock fields
    /// (`delivered_at`) and direct-vs-indirect bookkeeping
    /// (`committed_in_wave`) may legitimately differ across the crash
    /// and are not compared.
    ///
    /// With `expect_complete` (a node audited *after* it finished
    /// replay + rejoin sync), a recovered log shorter than the
    /// pre-crash log is a lost committed delivery
    /// ([`InvariantViolation::RecoveryLostDelivery`]). Without it (a
    /// store replayed in isolation, where losing an unsynced WAL suffix
    /// is the documented contract), a shorter-but-consistent prefix
    /// audits clean.
    pub fn audit_recovery(
        &self,
        dag: &Dag,
        pre_crash: &[OrderedVertex],
        recovered: &[OrderedVertex],
        expect_complete: bool,
    ) -> Vec<InvariantViolation> {
        let mut violations = self.audit_dag(dag);
        let mut seen: BTreeSet<VertexRef> = BTreeSet::new();
        for entry in recovered {
            if !seen.insert(entry.vertex) {
                violations.push(InvariantViolation::DuplicateOrdered { vertex: entry.vertex });
            }
        }
        for (position, (expected, found)) in pre_crash.iter().zip(recovered.iter()).enumerate() {
            if expected.vertex != found.vertex {
                violations.push(InvariantViolation::RecoveryLogDivergence {
                    position,
                    expected: expected.vertex,
                    found: found.vertex,
                });
            } else if expected.block != found.block {
                violations.push(InvariantViolation::RecoveryPayloadMismatch {
                    position,
                    vertex: expected.vertex,
                });
            }
        }
        if expect_complete && recovered.len() < pre_crash.len() {
            let position = recovered.len();
            violations.push(InvariantViolation::RecoveryLostDelivery {
                position,
                vertex: pre_crash[position].vertex,
            });
        }
        sort_report(&mut violations);
        violations
    }

    /// Audits a structured event trace (one process's or several merged):
    /// ordering must follow DAG insertion, waves resolve at most once and
    /// only after their coin flips, and each process's round counter is
    /// strictly monotone. State is tracked per process, so merged traces
    /// audit cleanly.
    ///
    /// The trace is assumed complete — audit only rings that report
    /// [`dagrider_trace::Tracer::dropped`] `== 0`, since a dropped
    /// `VertexInserted` record would falsely read as an
    /// ordered-before-delivered breach.
    pub fn audit_trace(&self, records: &[TraceRecord]) -> Vec<InvariantViolation> {
        #[derive(Default)]
        struct ProcessState {
            inserted: BTreeSet<VertexRef>,
            ordered: BTreeSet<VertexRef>,
            coins: BTreeSet<Wave>,
            committed: BTreeSet<Wave>,
            max_round: Option<Round>,
            // Batch digests this process ordered but has not (yet) resolved
            // to a stored batch; leftovers at end-of-trace are violations.
            unresolved_digests: BTreeSet<BatchDigest>,
        }
        let mut violations = Vec::new();
        let mut states: BTreeMap<ProcessId, ProcessState> = BTreeMap::new();
        let mut sorted: Vec<&TraceRecord> = records.iter().collect();
        sorted.sort_by_key(|r| (r.process, r.seq));
        for record in sorted {
            let state = states.entry(record.process).or_default();
            match record.event {
                TraceEvent::VertexInserted { vertex } => {
                    state.inserted.insert(vertex);
                }
                TraceEvent::VertexOrdered { vertex, .. } => {
                    if !state.ordered.insert(vertex) {
                        violations.push(InvariantViolation::DuplicateOrdered { vertex });
                    } else if !state.inserted.contains(&vertex) {
                        violations.push(InvariantViolation::OrderedBeforeDelivered { vertex });
                    }
                }
                TraceEvent::CoinFlipped { wave, .. } => {
                    state.coins.insert(wave);
                }
                TraceEvent::LeaderCommitted { wave, leader, .. } => {
                    if !state.committed.insert(wave) {
                        violations.push(InvariantViolation::DuplicateWaveCommit { wave, leader });
                    }
                    if !state.coins.contains(&wave) {
                        violations.push(InvariantViolation::CommitWithoutCoin {
                            wave,
                            leader: leader.source,
                        });
                    }
                }
                TraceEvent::LeaderSkipped { wave, leader } => {
                    if !state.coins.contains(&wave) {
                        violations.push(InvariantViolation::CommitWithoutCoin { wave, leader });
                    }
                }
                TraceEvent::RoundAdvanced { round } => {
                    if let Some(previous) = state.max_round {
                        if round <= previous {
                            violations
                                .push(InvariantViolation::NonMonotoneRound { round, previous });
                        }
                    }
                    state.max_round = Some(state.max_round.map_or(round, |p| p.max(round)));
                }
                TraceEvent::DigestOrdered { digest } => {
                    state.unresolved_digests.insert(digest);
                }
                TraceEvent::BatchResolved { digest } => {
                    state.unresolved_digests.remove(&digest);
                }
                TraceEvent::VertexCreated { .. }
                | TraceEvent::VertexRbcDelivered { .. }
                | TraceEvent::WaveReady { .. }
                | TraceEvent::Pruned { .. }
                | TraceEvent::RbcPhase { .. }
                | TraceEvent::BatchStored { .. }
                | TraceEvent::BatchFetchRequested { .. } => {}
            }
        }
        // A digest ordered into the log but never resolved means the
        // process's delivered payload is incomplete (fetch path failed
        // or the trace ended mid-resolution — either way, flag it).
        for (&process, state) in &states {
            for &digest in &state.unresolved_digests {
                violations.push(InvariantViolation::UnresolvedOrderedDigest { process, digest });
            }
        }
        sort_report(&mut violations);
        violations
    }

    /// The structural checks shared by the live and snapshot paths.
    fn audit_view(&self, view: &View<'_>) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let min_strong = self.min_strong_edges();
        for (&reference, vertex) in &view.vertices {
            if !self.committee.contains(reference.source) {
                violations.push(InvariantViolation::UnknownSource {
                    vertex: reference,
                    source: reference.source,
                });
            }
            if reference.round == Round::GENESIS {
                continue; // genesis vertices carry no edges to check
            }
            let prev = Round::new(reference.round.number() - 1);
            // Strong edges: all into round r - 1 (Algorithm 1), at least
            // 2f + 1 of them (Algorithm 2 line 25).
            for &edge in vertex.strong_edges() {
                if edge.round >= reference.round {
                    violations
                        .push(InvariantViolation::NonMonotoneEdge { vertex: reference, edge });
                } else if edge.round != prev {
                    violations
                        .push(InvariantViolation::StrongEdgeWrongRound { vertex: reference, edge });
                }
            }
            if vertex.strong_edges().len() < min_strong {
                violations.push(InvariantViolation::InsufficientStrongEdges {
                    vertex: reference,
                    found: vertex.strong_edges().len(),
                    required: min_strong,
                });
            }
            // Weak edges: strictly below round r - 1 (Algorithm 1).
            for &edge in vertex.weak_edges() {
                if edge.round >= reference.round {
                    violations
                        .push(InvariantViolation::NonMonotoneEdge { vertex: reference, edge });
                } else if edge.round >= prev {
                    violations
                        .push(InvariantViolation::WeakEdgeWrongRound { vertex: reference, edge });
                }
            }
            // Causal closure (Claim 1): every referenced vertex resolves.
            for &edge in vertex.edges() {
                if !view.resolves(edge) {
                    violations
                        .push(InvariantViolation::MissingEdgeTarget { vertex: reference, edge });
                }
            }
            // Weak-edge necessity (Algorithm 2 line 27): a correct process
            // only adds a weak edge to a vertex its strong frontier does
            // NOT already reach. Reachability from a fixed frontier is the
            // frontier's causal history, which causal closure makes stable
            // — so the creator's view and ours agree on it.
            if !vertex.weak_edges().is_empty() {
                let reachable = view.reachable_from(vertex.strong_edges().iter().copied());
                for &edge in vertex.weak_edges() {
                    if reachable.contains(&edge) {
                        violations.push(InvariantViolation::RedundantWeakEdge {
                            vertex: reference,
                            edge,
                        });
                    }
                }
            }
        }
        violations.extend(find_cycles(view));
        violations
    }
}

/// Depth-first search for cycles, reporting one violation per vertex that
/// closes a back edge. Round monotonicity already forbids cycles, but a
/// corrupted snapshot can contain them and they would otherwise hang
/// naive traversals — so the auditor detects them explicitly.
fn find_cycles(view: &View<'_>) -> Vec<InvariantViolation> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<VertexRef, Color> =
        view.vertices.keys().map(|&r| (r, Color::White)).collect();
    let mut on_cycle: BTreeSet<VertexRef> = BTreeSet::new();
    for &start in view.vertices.keys() {
        if color[&start] != Color::White {
            continue;
        }
        // Stack of (vertex, edges not yet explored).
        let mut stack: Vec<(VertexRef, Vec<VertexRef>)> = Vec::new();
        color.insert(start, Color::Gray);
        stack.push((start, edges_of(view, start)));
        while let Some((current, pending)) = stack.last_mut() {
            let Some(edge) = pending.pop() else {
                color.insert(*current, Color::Black);
                stack.pop();
                continue;
            };
            match color.get(&edge) {
                Some(Color::White) => {
                    color.insert(edge, Color::Gray);
                    stack.push((edge, edges_of(view, edge)));
                }
                Some(Color::Gray) => {
                    on_cycle.insert(edge); // back edge: `edge` is on a cycle
                }
                Some(Color::Black) | None => {}
            }
        }
    }
    on_cycle.into_iter().map(|vertex| InvariantViolation::CycleDetected { vertex }).collect()
}

fn edges_of(view: &View<'_>, reference: VertexRef) -> Vec<VertexRef> {
    view.get(reference).map_or_else(Vec::new, |v| v.edges().copied().collect())
}

/// Orders a report by anchor round, then textual form — stable and
/// readable regardless of discovery order.
fn sort_report(violations: &mut [InvariantViolation]) {
    violations.sort_by_key(|v| (v.round(), v.to_string()));
}
