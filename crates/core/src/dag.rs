//! The local DAG store (`DAG_i[]` of Algorithm 1) and its reachability
//! queries, backed by the incremental closure engine of [`crate::reach`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dagrider_types::{Committee, ProcessId, Round, Vertex, VertexRef};

use crate::reach::{Closure, SlotSpace, VertexClosures};

/// One process's view of the round-based DAG.
///
/// Invariants maintained by [`Dag::insert`]:
///
/// * round 0 holds the hardcoded genesis vertices (Algorithm 1);
/// * at most one vertex per `(round, source)` — reliable broadcast rules
///   out equivocation, and insertion enforces it locally;
/// * a vertex is only inserted once *all* vertices it references are
///   present, so the store is always **causally closed** (Claim 1).
///
/// Every vertex carries two closure bitsets (strong-only and
/// strong + weak), composed at insert time from its referenced vertices'
/// closures. All reachability queries — `path`, `strong_path`,
/// `causal_history`, `orphans_below` — are answered from these bitsets
/// without traversing the graph; the original BFS survives as the
/// `oracle_*` methods for differential testing.
#[derive(Debug, Clone)]
pub struct Dag {
    committee: Committee,
    /// Round 0: the genesis vertices, never collected.
    genesis: StoredRound,
    /// Rounds `base..=highest_round()`, oldest first. Garbage collection
    /// pops collected rounds off the front, so the store holds only the
    /// retained window, however long the DAG has been growing.
    window: VecDeque<StoredRound>,
    /// The round of `window[0]`: the pruned floor (at least 1), or lower
    /// after a prune past the top. The emptied window then starts one
    /// past the old highest round, and an insert above the floor fills
    /// the gap with empty rounds, which the next prune pops.
    base: u64,
    /// The `(round, source) -> bit` mapping shared by every closure.
    slots: SlotSpace,
    /// Rounds `1..pruned_floor` have been garbage-collected: their
    /// vertices were delivered and dropped. Edges into the collected
    /// region count as satisfied for causal closure.
    pruned_floor: Round,
}

/// One round of the store.
#[derive(Debug, Clone)]
struct StoredRound {
    /// The round's vertices, keyed by source.
    vertices: BTreeMap<ProcessId, Vertex>,
    /// `closures[source]` = the closure bitsets of `source`'s vertex —
    /// indexed by source so the insert-time composition loop resolves
    /// each edge's closures with two array indexes instead of a tree
    /// lookup.
    closures: Vec<Option<VertexClosures>>,
}

impl StoredRound {
    fn empty(n: usize) -> Self {
        Self { vertices: BTreeMap::new(), closures: vec![None; n] }
    }
}

impl Dag {
    /// Creates the DAG holding only the `n` genesis vertices.
    ///
    /// (The paper hardcodes `2f+1` genesis vertices; like every deployed
    /// descendant of DAG-Rider we hardcode all `n`, a superset, so round-1
    /// vertices can reference any subset of size ≥ `2f+1`.)
    pub fn new(committee: Committee) -> Self {
        let genesis = StoredRound {
            vertices: committee.members().map(|p| (p, Vertex::genesis(p))).collect(),
            closures: vec![Some(VertexClosures::default()); committee.n()],
        };
        Self {
            committee,
            genesis,
            window: VecDeque::new(),
            base: 1,
            slots: SlotSpace::new(committee.n()),
            pruned_floor: Round::new(0),
        }
    }

    /// The committee.
    pub fn committee(&self) -> Committee {
        self.committee
    }

    /// The highest round that holds at least one vertex.
    pub fn highest_round(&self) -> Round {
        Round::new(self.base + self.window.len() as u64 - 1)
    }

    /// The stored round `round`: genesis, or a round of the window.
    fn stored(&self, round: Round) -> Option<&StoredRound> {
        if round == Round::GENESIS {
            return Some(&self.genesis);
        }
        self.window.get(round.number().checked_sub(self.base)? as usize)
    }

    /// Mutable access to the stored round `round`.
    fn stored_mut(&mut self, round: Round) -> Option<&mut StoredRound> {
        if round == Round::GENESIS {
            return Some(&mut self.genesis);
        }
        self.window.get_mut(round.number().checked_sub(self.base)? as usize)
    }

    /// Genesis, then the rounds of the window, ascending.
    fn stored_rounds(&self) -> impl Iterator<Item = &StoredRound> {
        std::iter::once(&self.genesis).chain(&self.window)
    }

    /// The rounds of the window with their numbers, ascending.
    fn window_rounds(&self) -> impl Iterator<Item = (Round, &StoredRound)> {
        (self.base..).map(Round::new).zip(&self.window)
    }

    /// The vertices of `round`, keyed by source (empty map if none yet).
    pub fn round_vertices(&self, round: Round) -> &BTreeMap<ProcessId, Vertex> {
        static EMPTY: BTreeMap<ProcessId, Vertex> = BTreeMap::new();
        self.stored(round).map_or(&EMPTY, |stored| &stored.vertices)
    }

    /// Number of vertices in `round`.
    pub fn round_size(&self, round: Round) -> usize {
        self.round_vertices(round).len()
    }

    /// The vertex broadcast by `source` in `round`, if present.
    pub fn get(&self, reference: VertexRef) -> Option<&Vertex> {
        self.stored(reference.round)?.vertices.get(&reference.source)
    }

    /// Whether the referenced vertex is present.
    pub fn contains(&self, reference: VertexRef) -> bool {
        self.get(reference).is_some()
    }

    /// Whether every vertex `v` references (strong and weak) is present —
    /// the insertability condition of Algorithm 2 line 7. Edges into the
    /// garbage-collected region count as satisfied (those vertices were
    /// present, delivered, and dropped).
    pub fn has_all_edges_of(&self, v: &Vertex) -> bool {
        v.edges().all(|&e| e.round < self.pruned_floor || self.contains(e))
    }

    /// The garbage-collection floor: rounds below this (except genesis)
    /// have been dropped.
    pub fn pruned_floor(&self) -> Round {
        self.pruned_floor
    }

    /// Inserts `v` and computes its closure bitsets from its referenced
    /// vertices' closures. Returns `false` (and changes nothing) if a
    /// vertex with the same `(round, source)` is already present, or if
    /// `v` is a non-genesis straggler below the garbage-collection floor
    /// (its round has no slot anymore — and everything there was already
    /// delivered and dropped, so it carries no new information).
    ///
    /// # Panics
    ///
    /// Panics (debug assertion of the causal-closure invariant) if an edge
    /// of `v` is missing; callers must check [`Dag::has_all_edges_of`]
    /// first, as Algorithm 2 does.
    pub fn insert(&mut self, v: Vertex) -> bool {
        debug_assert!(self.has_all_edges_of(&v), "DAG must stay causally closed");
        let round = v.round();
        if round != Round::GENESIS && round < self.pruned_floor {
            return false;
        }
        let n = self.committee.n();
        while self.highest_round() < round {
            self.window.push_back(StoredRound::empty(n));
        }
        if self.contains(v.reference()) {
            return false;
        }
        let closures = self.close_over(&v);
        let stored =
            self.stored_mut(round).expect("the window reaches every round above the floor");
        stored.closures[v.source().as_usize()] = Some(closures);
        stored.vertices.insert(v.source(), v);
        true
    }

    /// Composes the closures of `v` from its referenced vertices: each
    /// present target contributes its own slot plus its whole closure.
    /// Edges into the garbage-collected region contribute nothing, which
    /// matches the BFS oracle (it cannot traverse absent vertices either).
    fn close_over(&self, v: &Vertex) -> VertexClosures {
        crate::reach::compose(&self.slots, v, |edge| self.closures_of(edge))
    }

    /// The closure bitsets of the referenced vertex, if present.
    fn closures_of(&self, reference: VertexRef) -> Option<&VertexClosures> {
        self.stored(reference.round)?.closures.get(reference.source.as_usize())?.as_ref()
    }

    /// `path(v, u)` of Algorithm 1: is there a path from `from` down to
    /// `to` using strong **and** weak edges? A single bit probe.
    pub fn path(&self, from: VertexRef, to: VertexRef) -> bool {
        self.probe(from, to, false)
    }

    /// `strong_path(v, u)` of Algorithm 1: a path using only strong edges.
    /// A single bit probe.
    pub fn strong_path(&self, from: VertexRef, to: VertexRef) -> bool {
        self.probe(from, to, true)
    }

    /// The bitset probe behind `path` / `strong_path`: `to` must be
    /// present (garbage-collected targets answer `false`), and must either
    /// equal `from` or sit in `from`'s closure.
    fn probe(&self, from: VertexRef, to: VertexRef, strong_only: bool) -> bool {
        if !self.contains(to) {
            return false;
        }
        if from == to {
            return true;
        }
        let Some(closures) = self.closures_of(from) else {
            return false;
        };
        let closure = if strong_only { &closures.strong } else { &closures.all };
        self.slots.slot(to).is_some_and(|slot| closure.contains(slot))
    }

    /// The causal history of `from`: every vertex reachable from it via
    /// strong or weak edges, **including** `from` itself, in ascending
    /// `(round, source)` order — the deterministic delivery order the
    /// ordering layer uses (Algorithm 3), so callers need not re-sort.
    ///
    /// Answered by iterating `from`'s closure bitset; every set bit is a
    /// retained vertex (pruning rebases the bits of collected rounds
    /// away), and `from` outranks its entire closure so it goes last.
    pub fn causal_history(&self, from: VertexRef) -> Vec<VertexRef> {
        if !self.contains(from) {
            return Vec::new();
        }
        let Some(closures) = self.closures_of(from) else {
            return Vec::new();
        };
        let mut order: Vec<VertexRef> =
            closures.all.ones().map(|slot| self.slots.reference(slot)).collect();
        order.push(from);
        order
    }

    /// The set of vertices in rounds `1..=below` **not** reachable from the
    /// given strong-edge frontier — the orphans that `set_weak_edges`
    /// (Algorithm 2 line 27) must point to. Computed by OR-ing the
    /// frontier's closures and subtracting from the retained rounds.
    pub fn orphans_below(&self, strong_edges: &[VertexRef], below: Round) -> Vec<VertexRef> {
        // Everything reachable from the strong frontier, as one union of
        // the frontier members' full closures (plus the members themselves)…
        let mut reachable = Closure::default();
        for &edge in strong_edges {
            if let Some(slot) = self.slots.slot(edge) {
                reachable.insert(slot);
            }
            if let Some(closures) = self.closures_of(edge) {
                reachable.union_with(&closures.all);
            }
        }
        // …subtracted from all retained vertices in rounds [1, below].
        let mut orphans = Vec::new();
        for (round, stored) in self.window_rounds().take_while(|&(round, _)| round <= below) {
            for &source in stored.vertices.keys() {
                let reference = VertexRef::new(round, source);
                let covered =
                    self.slots.slot(reference).is_some_and(|slot| reachable.contains(slot));
                if !covered {
                    orphans.push(reference);
                }
            }
        }
        orphans
    }

    /// Garbage-collects rounds strictly below `keep_from`, popping them
    /// off the front of the window. Safe once the ordering layer has
    /// delivered everything below: ordered history is never consulted
    /// again (Algorithm 3 walks only forward from `decidedWave`), and
    /// reachability queries against collected rounds simply return false.
    ///
    /// The closure slot space is truncated to the new floor, and every
    /// retained closure shifts its bits down by the slots dropped, so
    /// closures pay only for live rounds. The shift keeps the engine
    /// exactly equal to the BFS over what remains:
    ///
    /// * edges strictly descend in round, so a path between two retained
    ///   non-genesis vertices never dips below the floor, and those bits
    ///   only move;
    /// * genesis is kept, and once the floor passes round 1 a retained
    ///   vertex reaches genesis only through a weak edge into round 0.
    ///   Honest vertices have none (the orphan scan covers only retained
    ///   rounds), but a Byzantine one may. So the genesis bits are
    ///   cleared, and when a retained vertex has such an edge, the full
    ///   closures' genesis bits are recomputed from those edges, in
    ///   ascending round order. Strong closures never reach genesis
    ///   again.
    ///
    /// The cost is the rounds dropped plus one pass over the retained
    /// closures' words.
    ///
    /// Returns the number of vertices dropped.
    pub fn prune_below(&mut self, keep_from: Round) -> usize {
        // Round 0 (genesis) is held apart and kept: new joiners' round-1
        // vertices verify against it and it costs O(n).
        let mut dropped = 0;
        while self.base < keep_from.number() {
            let Some(round) = self.window.pop_front() else { break };
            dropped += round.vertices.len();
            self.base += 1;
        }
        self.pruned_floor = self.pruned_floor.max(keep_from);
        let removed = self.slots.advance_base(self.pruned_floor.number().max(1));
        if removed > 0 {
            let genesis = self.committee.n();
            for closures in self.window.iter_mut().flat_map(|round| round.closures.iter_mut()) {
                let Some(closures) = closures else { continue };
                for closure in [&mut closures.strong, &mut closures.all] {
                    closure.rebase(genesis, removed);
                    closure.clear_below(genesis);
                }
            }
            if self.iter().any(|v| v.weak_edges().iter().any(|e| e.round == Round::GENESIS)) {
                self.restore_genesis_reach();
            }
        }
        dropped
    }

    /// Recomputes the genesis bits of every retained full closure after
    /// a prune cleared them: a vertex reaches the genesis vertices its
    /// weak edges name, and those its retained targets reach. Ascending
    /// round order finishes every target before the vertices above it.
    fn restore_genesis_reach(&mut self) {
        let genesis = self.committee.n();
        for index in 0..self.window.len() {
            let mut row = Vec::new();
            for (&source, v) in &self.window[index].vertices {
                let mut reached = Vec::new();
                for &edge in v.edges() {
                    if edge.round == Round::GENESIS {
                        reached.push(edge.source.as_usize());
                    } else if let Some(target) = self.closures_of(edge) {
                        reached.extend(target.all.ones().take_while(|&slot| slot < genesis));
                    }
                }
                row.push((source, reached));
            }
            for (source, reached) in row {
                if let Some(closures) = &mut self.window[index].closures[source.as_usize()] {
                    for slot in reached {
                        closures.all.insert(slot);
                    }
                }
            }
        }
    }

    /// The lowest non-genesis round that still holds vertices (`None` if
    /// only genesis remains).
    pub fn lowest_retained_round(&self) -> Option<Round> {
        self.window_rounds().find(|(_, stored)| !stored.vertices.is_empty()).map(|(round, _)| round)
    }

    /// Iterates over every vertex in the DAG, by round then source.
    pub fn iter(&self) -> impl Iterator<Item = &Vertex> {
        self.stored_rounds().flat_map(|stored| stored.vertices.values())
    }

    /// Total number of vertices (including genesis).
    pub fn len(&self) -> usize {
        self.stored_rounds().map(|stored| stored.vertices.len()).sum()
    }

    /// Whether the DAG holds only genesis (it is never fully empty).
    pub fn is_empty(&self) -> bool {
        self.highest_round() == Round::GENESIS
    }

    // ------------------------------------------------------------------
    // The BFS oracle: the original traversal-based query implementations,
    // kept verbatim (minus the boxed edge iterator) as ground truth for
    // the differential proptests and `DagAuditor`'s divergence check.
    // ------------------------------------------------------------------

    /// BFS reference implementation of [`Dag::path`].
    pub fn oracle_path(&self, from: VertexRef, to: VertexRef) -> bool {
        self.oracle_reaches(from, to, false)
    }

    /// BFS reference implementation of [`Dag::strong_path`].
    pub fn oracle_strong_path(&self, from: VertexRef, to: VertexRef) -> bool {
        self.oracle_reaches(from, to, true)
    }

    fn oracle_reaches(&self, from: VertexRef, to: VertexRef, strong_only: bool) -> bool {
        if !self.contains(to) {
            return false; // includes garbage-collected targets
        }
        if from == to {
            return true;
        }
        if to.round >= from.round {
            return false;
        }
        /// One BFS edge visit; returns `true` when the target is hit.
        /// Only descends through vertices above the target round.
        fn visit(
            edge: VertexRef,
            to: VertexRef,
            visited: &mut BTreeSet<VertexRef>,
            frontier: &mut VecDeque<VertexRef>,
        ) -> bool {
            if edge == to {
                return true;
            }
            if edge.round > to.round && visited.insert(edge) {
                frontier.push_back(edge);
            }
            false
        }
        let mut visited: BTreeSet<VertexRef> = BTreeSet::new();
        let mut frontier = VecDeque::from([from]);
        while let Some(current) = frontier.pop_front() {
            let Some(vertex) = self.get(current) else { continue };
            for &edge in vertex.strong_edges() {
                if visit(edge, to, &mut visited, &mut frontier) {
                    return true;
                }
            }
            if !strong_only {
                for &edge in vertex.weak_edges() {
                    if visit(edge, to, &mut visited, &mut frontier) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// BFS reference implementation of [`Dag::causal_history`], in
    /// breadth-first discovery order (compare as sets: the engine returns
    /// ascending `(round, source)` order instead).
    pub fn oracle_causal_history(&self, from: VertexRef) -> Vec<VertexRef> {
        let mut visited: BTreeSet<VertexRef> = BTreeSet::new();
        let mut order = Vec::new();
        let mut frontier = VecDeque::new();
        if self.contains(from) {
            visited.insert(from);
            order.push(from);
            frontier.push_back(from);
        }
        while let Some(current) = frontier.pop_front() {
            let vertex = self.get(current).expect("visited vertices exist");
            for &edge in vertex.edges() {
                // Garbage-collected targets are skipped: they were already
                // delivered before their round was pruned.
                if self.contains(edge) && visited.insert(edge) {
                    order.push(edge);
                    frontier.push_back(edge);
                }
            }
        }
        order
    }

    /// Every vertex the BFS reaches from `from` (including `from` itself,
    /// if present), through strong edges only or all edges — the ground
    /// truth set for the auditor's differential reachability check.
    pub fn oracle_reachable(&self, from: VertexRef, strong_only: bool) -> BTreeSet<VertexRef> {
        let mut visited: BTreeSet<VertexRef> = BTreeSet::new();
        let mut frontier = VecDeque::new();
        if self.contains(from) {
            visited.insert(from);
            frontier.push_back(from);
        }
        while let Some(current) = frontier.pop_front() {
            let vertex = self.get(current).expect("visited vertices exist");
            for &edge in vertex.strong_edges() {
                if self.contains(edge) && visited.insert(edge) {
                    frontier.push_back(edge);
                }
            }
            if !strong_only {
                for &edge in vertex.weak_edges() {
                    if self.contains(edge) && visited.insert(edge) {
                        frontier.push_back(edge);
                    }
                }
            }
        }
        visited
    }

    /// BFS reference implementation of [`Dag::orphans_below`].
    pub fn oracle_orphans_below(&self, strong_edges: &[VertexRef], below: Round) -> Vec<VertexRef> {
        // Everything reachable from the strong frontier…
        let mut reachable: BTreeSet<VertexRef> = BTreeSet::new();
        let mut frontier: VecDeque<VertexRef> = strong_edges.iter().copied().collect();
        reachable.extend(strong_edges.iter().copied());
        while let Some(current) = frontier.pop_front() {
            if let Some(vertex) = self.get(current) {
                for &edge in vertex.edges() {
                    if reachable.insert(edge) {
                        frontier.push_back(edge);
                    }
                }
            }
        }
        // …subtracted from all vertices in rounds [1, below].
        let mut orphans = Vec::new();
        for r in 1..=below.number() {
            for &source in self.round_vertices(Round::new(r)).keys() {
                let reference = VertexRef::new(Round::new(r), source);
                if !reachable.contains(&reference) {
                    orphans.push(reference);
                }
            }
        }
        orphans
    }

    /// Test-only fault injection: flips `target`'s bit in `of`'s strong
    /// (or full) closure, desynchronizing the engine from the BFS oracle
    /// so tests can prove the differential audit actually fires. Returns
    /// `false` if `of` is absent or `target`'s round has no slot.
    #[doc(hidden)]
    pub fn poison_reachability_for_tests(
        &mut self,
        of: VertexRef,
        target: VertexRef,
        strong_only: bool,
    ) -> bool {
        let Some(slot) = self.slots.slot(target) else {
            return false;
        };
        let Some(closures) = self
            .stored_mut(of.round)
            .and_then(|stored| stored.closures.get_mut(of.source.as_usize()))
            .and_then(Option::as_mut)
        else {
            return false;
        };
        if strong_only {
            closures.strong.toggle(slot);
        } else {
            closures.all.toggle(slot);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use dagrider_types::{Block, SeqNum, VertexBuilder};

    use super::*;

    fn committee() -> Committee {
        Committee::new(4).unwrap()
    }

    /// Builds a vertex for `source` in `round` with strong edges to the
    /// given sources in `round - 1` and the given weak edges.
    fn vertex(source: u32, round: u64, strong_sources: &[u32], weak: &[(u64, u32)]) -> Vertex {
        let source = ProcessId::new(source);
        VertexBuilder::new(source, Round::new(round), Block::empty(source, SeqNum::new(round)))
            .strong_edges(
                strong_sources
                    .iter()
                    .map(|&s| VertexRef::new(Round::new(round - 1), ProcessId::new(s))),
            )
            .weak_edges(weak.iter().map(|&(r, s)| VertexRef::new(Round::new(r), ProcessId::new(s))))
            .build_unchecked()
    }

    /// A full round-1..=2 DAG over processes 0..=2 (process 3 is slow).
    fn two_round_dag() -> Dag {
        let mut dag = Dag::new(committee());
        for p in 0..3 {
            assert!(dag.insert(vertex(p, 1, &[0, 1, 2], &[])));
        }
        for p in 0..3 {
            assert!(dag.insert(vertex(p, 2, &[0, 1, 2], &[])));
        }
        dag
    }

    #[test]
    fn starts_with_genesis() {
        let dag = Dag::new(committee());
        assert!(dag.is_empty());
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.round_size(Round::GENESIS), 4);
        assert_eq!(dag.highest_round(), Round::GENESIS);
    }

    #[test]
    fn insert_rejects_equivocation() {
        let mut dag = Dag::new(committee());
        let v1 = vertex(0, 1, &[0, 1, 2], &[]);
        let v2 = vertex(0, 1, &[1, 2, 3], &[]);
        assert!(dag.insert(v1));
        assert!(!dag.insert(v2), "second vertex for (r1, p0) must be rejected");
        assert_eq!(dag.round_size(Round::new(1)), 1);
    }

    #[test]
    fn has_all_edges_detects_missing_predecessors() {
        let dag = Dag::new(committee());
        let ok = vertex(0, 1, &[0, 1, 2], &[]);
        assert!(dag.has_all_edges_of(&ok));
        let needs_round1 = vertex(0, 2, &[0, 1, 2], &[]);
        assert!(!dag.has_all_edges_of(&needs_round1));
    }

    #[test]
    fn strong_path_follows_only_strong_edges() {
        let mut dag = two_round_dag();
        // p3 wakes up in round 3 with a weak edge to a round-1 vertex of
        // its own that nobody referenced.
        assert!(dag.insert(vertex(3, 1, &[0, 1, 2], &[])));
        let v3 = vertex(0, 3, &[0, 1, 2], &[(1, 3)]);
        assert!(dag.insert(v3.clone()));

        let from = v3.reference();
        let weak_target = VertexRef::new(Round::new(1), ProcessId::new(3));
        assert!(dag.path(from, weak_target), "weak edges count for path()");
        assert!(!dag.strong_path(from, weak_target), "but not for strong_path()");
        // Strong connectivity to round-1 vertices it references via strong
        // chains still holds.
        let strong_target = VertexRef::new(Round::new(1), ProcessId::new(1));
        assert!(dag.strong_path(from, strong_target));
    }

    #[test]
    fn path_to_self_requires_presence() {
        let dag = two_round_dag();
        let present = VertexRef::new(Round::new(1), ProcessId::new(0));
        let absent = VertexRef::new(Round::new(1), ProcessId::new(3));
        assert!(dag.path(present, present));
        assert!(!dag.path(absent, absent));
    }

    #[test]
    fn no_upward_paths() {
        let dag = two_round_dag();
        let low = VertexRef::new(Round::new(1), ProcessId::new(0));
        let high = VertexRef::new(Round::new(2), ProcessId::new(0));
        assert!(!dag.path(low, high));
    }

    #[test]
    fn causal_history_includes_genesis_and_self() {
        let dag = two_round_dag();
        let from = VertexRef::new(Round::new(2), ProcessId::new(1));
        let history = dag.causal_history(from);
        assert!(history.contains(&from));
        // 1 (self) + 3 round-1 + 3 genesis referenced by round-1 vertices…
        // round-1 vertices reference genesis of sources 0,1,2.
        assert_eq!(history.len(), 7);
        assert!(history.iter().filter(|r| r.round == Round::GENESIS).all(|r| r.source.index() < 3));
    }

    #[test]
    fn causal_history_is_in_delivery_order() {
        let dag = two_round_dag();
        let from = VertexRef::new(Round::new(2), ProcessId::new(1));
        let history = dag.causal_history(from);
        let mut sorted = history.clone();
        sorted.sort_by_key(|r| (r.round, r.source));
        assert_eq!(history, sorted, "ascending (round, source) is the delivery order");
    }

    #[test]
    fn causal_history_of_absent_vertex_is_empty() {
        let dag = Dag::new(committee());
        let absent = VertexRef::new(Round::new(5), ProcessId::new(0));
        assert!(dag.causal_history(absent).is_empty());
    }

    #[test]
    fn orphans_below_finds_unreachable_vertices() {
        let mut dag = two_round_dag();
        // p3's round-1 vertex exists but no round-2 vertex points to it.
        assert!(dag.insert(vertex(3, 1, &[0, 1, 2], &[])));
        let strong: Vec<VertexRef> =
            (0..3).map(|s| VertexRef::new(Round::new(2), ProcessId::new(s))).collect();
        let orphans = dag.orphans_below(&strong, Round::new(1));
        assert_eq!(orphans, vec![VertexRef::new(Round::new(1), ProcessId::new(3))]);
    }

    #[test]
    fn orphans_below_empty_when_fully_connected() {
        let dag = two_round_dag();
        let strong: Vec<VertexRef> =
            (0..3).map(|s| VertexRef::new(Round::new(2), ProcessId::new(s))).collect();
        assert!(dag.orphans_below(&strong, Round::new(1)).is_empty());
    }

    #[test]
    fn weak_edge_restores_reachability_for_orphans() {
        let mut dag = two_round_dag();
        assert!(dag.insert(vertex(3, 1, &[0, 1, 2], &[])));
        // A round-3 vertex adds the weak edge Algorithm 2 prescribes…
        let v = vertex(0, 3, &[0, 1, 2], &[(1, 3)]);
        assert!(dag.insert(v.clone()));
        // …and now nothing below round 2 is orphaned from it.
        let orphans = dag.orphans_below(v.strong_edges(), Round::new(1));
        // orphans_below works on the strong frontier only, so p3@r1 is
        // still orphaned from the *frontier*; from the vertex itself the
        // weak edge covers it:
        assert_eq!(orphans, vec![VertexRef::new(Round::new(1), ProcessId::new(3))]);
        assert!(dag.path(v.reference(), VertexRef::new(Round::new(1), ProcessId::new(3))));
    }

    #[test]
    fn prune_below_drops_rounds_but_keeps_genesis() {
        let mut dag = two_round_dag();
        assert_eq!(dag.prune_below(Round::new(2)), 3, "the three round-1 vertices drop");
        assert_eq!(dag.round_size(Round::new(1)), 0);
        assert_eq!(dag.round_size(Round::GENESIS), 4);
        assert_eq!(dag.round_size(Round::new(2)), 3);
        assert_eq!(dag.pruned_floor(), Round::new(2));
        assert_eq!(dag.lowest_retained_round(), Some(Round::new(2)));
        // Idempotent and monotone.
        assert_eq!(dag.prune_below(Round::new(1)), 0);
        assert_eq!(dag.pruned_floor(), Round::new(2));
    }

    #[test]
    fn edges_into_pruned_region_count_as_satisfied() {
        let mut dag = two_round_dag();
        dag.prune_below(Round::new(2));
        // A round-3 vertex referencing round-2 (present) and a weak edge
        // into pruned round 1.
        let v = vertex(0, 3, &[0, 1, 2], &[(1, 0)]);
        assert!(dag.has_all_edges_of(&v), "pruned targets satisfy causal closure");
        assert!(dag.insert(v));
        // But reachability into the pruned region is simply false now.
        let from = VertexRef::new(Round::new(3), ProcessId::new(0));
        assert!(!dag.path(from, VertexRef::new(Round::new(1), ProcessId::new(0))));
    }

    #[test]
    fn stragglers_below_the_floor_are_rejected() {
        let mut dag = two_round_dag();
        dag.prune_below(Round::new(2));
        // A late round-1 vertex arrives after its round was collected: it
        // was already delivered (or never will be needed), so insert
        // refuses to resurrect it.
        assert!(!dag.insert(vertex(3, 1, &[0, 1, 2], &[])));
        assert_eq!(dag.round_size(Round::new(1)), 0);
    }

    #[test]
    fn queries_survive_pruning_and_rebasing() {
        let mut dag = two_round_dag();
        let v3 = vertex(0, 3, &[0, 1, 2], &[]);
        assert!(dag.insert(v3.clone()));
        dag.prune_below(Round::new(2));
        let from = v3.reference();
        // Retained-to-retained strong paths survive the closure rebase…
        for s in 0..3 {
            let target = VertexRef::new(Round::new(2), ProcessId::new(s));
            assert!(dag.strong_path(from, target));
            assert_eq!(dag.strong_path(from, target), dag.oracle_strong_path(from, target));
        }
        // …genesis matches the oracle: the only paths to it ran through
        // the collected round 1, so both sides answer false now…
        let genesis = VertexRef::new(Round::GENESIS, ProcessId::new(0));
        assert!(!dag.path(from, genesis));
        assert_eq!(dag.path(from, genesis), dag.oracle_path(from, genesis));
        // …and vertices inserted after the rebase compose correctly.
        let v4 = vertex(1, 4, &[0], &[]);
        assert!(dag.insert(v4.clone()));
        assert!(dag.strong_path(v4.reference(), VertexRef::new(Round::new(2), ProcessId::new(1))));
        let history = dag.causal_history(v4.reference());
        let oracle: BTreeSet<VertexRef> =
            dag.oracle_causal_history(v4.reference()).into_iter().collect();
        assert_eq!(history.iter().copied().collect::<BTreeSet<_>>(), oracle);
    }

    #[test]
    fn engine_matches_oracle_on_a_ragged_dag() {
        let mut dag = two_round_dag();
        assert!(dag.insert(vertex(3, 1, &[0, 1, 2], &[])));
        assert!(dag.insert(vertex(0, 3, &[0, 1, 2], &[(1, 3)])));
        assert!(dag.insert(vertex(1, 3, &[0, 1], &[])));
        let refs: Vec<VertexRef> = dag.iter().map(Vertex::reference).collect();
        for &from in &refs {
            for &to in &refs {
                assert_eq!(dag.path(from, to), dag.oracle_path(from, to), "{from} -> {to}");
                assert_eq!(
                    dag.strong_path(from, to),
                    dag.oracle_strong_path(from, to),
                    "strong {from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn poison_hook_desynchronizes_engine_from_oracle() {
        let mut dag = two_round_dag();
        let from = VertexRef::new(Round::new(2), ProcessId::new(0));
        let to = VertexRef::new(Round::new(1), ProcessId::new(1));
        assert!(dag.strong_path(from, to));
        assert!(dag.poison_reachability_for_tests(from, to, true));
        assert!(!dag.strong_path(from, to), "poisoned bit flips the engine answer");
        assert!(dag.oracle_strong_path(from, to), "the oracle is unaffected");
    }

    #[test]
    fn the_stored_window_stays_bounded_over_a_long_run() {
        let mut dag = Dag::new(committee());
        for r in 1..=10_000u64 {
            for p in 0..4 {
                assert!(dag.insert(vertex(p, r, &[0, 1, 2, 3], &[])));
            }
            let Some(keep_from) = r.checked_sub(8).filter(|&k| k >= 1) else { continue };
            let dropped = dag.prune_below(Round::new(keep_from));
            assert_eq!(dropped, if keep_from > 1 { 4 } else { 0 });
            assert!(dag.window.len() <= 10, "round {r}: {} stored rounds", dag.window.len());
            assert_eq!(dag.lowest_retained_round(), Some(Round::new(keep_from)));
            assert_eq!(dag.highest_round(), Round::new(r));
            assert_eq!(dag.len(), 4 + 4 * 9, "genesis plus nine full rounds");
        }
        // A prune past the top empties the window but keeps the top round…
        assert_eq!(dag.prune_below(Round::new(10_005)), 4 * 9);
        assert_eq!(dag.highest_round(), Round::new(10_000));
        assert_eq!(dag.lowest_retained_round(), None);
        assert_eq!(dag.len(), 4);
        assert!(!dag.is_empty());
        // …refuses stragglers below the floor, and inserts above it: the
        // edges into the collected gap count as satisfied.
        assert!(!dag.insert(vertex(0, 10_004, &[0, 1, 2], &[])));
        let v = vertex(1, 10_005, &[0, 1, 2], &[]);
        assert!(dag.has_all_edges_of(&v));
        assert!(dag.insert(v.clone()));
        assert!(dag.contains(v.reference()));
        assert_eq!(dag.highest_round(), Round::new(10_005));
        assert_eq!(dag.lowest_retained_round(), Some(Round::new(10_005)));
        assert_eq!(dag.round_size(Round::new(10_003)), 0);
        assert_eq!(dag.len(), 5);
        assert!(dag.window.len() <= 10);
        assert_eq!(dag.causal_history(v.reference()), vec![v.reference()]);
    }

    #[test]
    fn iter_and_len_agree() {
        let dag = two_round_dag();
        assert_eq!(dag.iter().count(), dag.len());
        assert_eq!(dag.len(), 4 + 3 + 3);
    }
}
