//! Differential proptests of the closure-bitset reachability engine
//! against the BFS oracle it replaced.
//!
//! Random DAGs — ragged participation, random strong-edge subsets, weak
//! edges, Byzantine equivocation attempts, and `prune_below`
//! interleavings — are driven through both implementations, and every
//! query family must agree exactly:
//!
//! * `path` / `strong_path` vs the oracle BFS, over all vertex pairs;
//! * `causal_history` vs the oracle's reachable set (plus the ascending
//!   `(round, source)` delivery-order contract the ordering layer relies
//!   on);
//! * `orphans_below` vs the oracle scan, for every frontier tried;
//! * `DagAuditor::audit_reachability` stays clean — and fires once a
//!   closure bit is deliberately poisoned.

use dag_rider::analysis::{DagAuditor, InvariantViolation};
use dag_rider::core::Dag;
use dag_rider::types::{Block, Committee, Round, SeqNum, Vertex, VertexBuilder, VertexRef};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Picks a random subset of `pool` with at least `min` elements.
fn subset(rng: &mut StdRng, pool: &[VertexRef], min: usize) -> Vec<VertexRef> {
    let mut picked: Vec<VertexRef> = pool.to_vec();
    while picked.len() > min && rng.random_bool(0.3) {
        let out = rng.random_range(0..picked.len());
        picked.remove(out);
    }
    picked
}

/// Grows `dag` by `rounds` further rounds of randomly ragged
/// participation: each round a random subset (≥ quorum, so the DAG can
/// keep advancing) of processes produces a vertex with a random
/// quorum-or-larger strong-edge subset of the previous round, plus an
/// occasional weak edge to a random older retained vertex and, from round
/// 2 up, a rarer weak edge to a random genesis vertex. Every inserted
/// vertex keeps the DAG causally closed. Equivocation attempts — a second
/// vertex for an occupied `(round, source)` slot — are injected and must
/// be rejected without disturbing the engine. Growth starts above the
/// highest round and at or above the pruned floor; strong edges into a
/// collected round name any of its slots, as they count as satisfied.
fn grow(dag: &mut Dag, rng: &mut StdRng, rounds: u64) {
    let committee = dag.committee();
    let quorum = committee.quorum();
    let start = (dag.highest_round().number() + 1).max(dag.pruned_floor().number());
    for r in start..start + rounds {
        let round = Round::new(r);
        let prev_round = Round::new(r - 1);
        let prev: Vec<VertexRef> = if prev_round < dag.pruned_floor() {
            committee.members().map(|p| VertexRef::new(prev_round, p)).collect()
        } else {
            dag.round_vertices(prev_round).keys().map(|&p| VertexRef::new(prev_round, p)).collect()
        };
        if prev.len() < quorum {
            return; // can't legally extend a starved round
        }
        let older: Vec<VertexRef> = dag
            .iter()
            .map(Vertex::reference)
            .filter(|v| v.round.number() + 1 < r && v.round != Round::GENESIS)
            .collect();
        for p in committee.members() {
            if dag.round_size(round) >= quorum && rng.random_bool(0.25) {
                continue; // this process sits the round out
            }
            let mut weak = Vec::new();
            if !older.is_empty() && rng.random_bool(0.5) {
                weak.push(older[rng.random_range(0..older.len())]);
            }
            if r >= 2 && rng.random_bool(0.1) {
                // Byzantine: an honest vertex never points a weak edge at
                // genesis, but validation lets one through.
                let target = rng.random_range(0..committee.n());
                weak.push(VertexRef::new(Round::GENESIS, committee.members().nth(target).unwrap()));
            }
            let builder = VertexBuilder::new(p, round, Block::empty(p, SeqNum::new(r)))
                .strong_edges(subset(rng, &prev, quorum))
                .weak_edges(weak);
            assert!(dag.insert(builder.build_unchecked()));
            if rng.random_bool(0.2) {
                // A Byzantine twin for the occupied slot must bounce off.
                let twin = VertexBuilder::new(p, round, Block::empty(p, SeqNum::new(r + 999)))
                    .strong_edges(prev.clone())
                    .build_unchecked();
                assert!(!dag.insert(twin), "equivocation for an occupied slot must be rejected");
            }
        }
    }
}

/// Asserts engine ≡ oracle on every query family, over all vertex pairs.
fn assert_equivalent(dag: &Dag) {
    let refs: Vec<VertexRef> = dag.iter().map(Vertex::reference).collect();
    for &from in &refs {
        for &to in &refs {
            assert_eq!(dag.path(from, to), dag.oracle_path(from, to), "path({from} -> {to})");
            assert_eq!(
                dag.strong_path(from, to),
                dag.oracle_strong_path(from, to),
                "strong_path({from} -> {to})"
            );
        }
        // Same membership as the oracle BFS, already in delivery order.
        let history = dag.causal_history(from);
        let engine_set: BTreeSet<VertexRef> = history.iter().copied().collect();
        let oracle_set: BTreeSet<VertexRef> = dag.oracle_causal_history(from).into_iter().collect();
        assert_eq!(engine_set, oracle_set, "causal_history({from})");
        assert_eq!(history.len(), engine_set.len(), "no duplicates in causal_history");
        let mut sorted = history.clone();
        sorted.sort_by_key(|r| (r.round, r.source));
        assert_eq!(history, sorted, "causal_history is in ascending (round, source) order");
    }
    // Orphan scans from every round's frontier, at every cutoff the
    // construction layer could pass.
    for r in 1..=dag.highest_round().number() {
        let frontier: Vec<VertexRef> = dag
            .round_vertices(Round::new(r))
            .keys()
            .map(|&p| VertexRef::new(Round::new(r), p))
            .collect();
        for below in [r.saturating_sub(2), r.saturating_sub(1)] {
            assert_eq!(
                dag.orphans_below(&frontier, Round::new(below)),
                dag.oracle_orphans_below(&frontier, Round::new(below)),
                "orphans_below(round {r} frontier, below {below})"
            );
        }
    }
    // The auditor's differential invariant agrees.
    let divergences = DagAuditor::for_dag(dag).audit_reachability(dag);
    assert_eq!(divergences, Vec::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine ≡ oracle on randomly grown DAGs with ragged participation,
    /// weak edges, and equivocation attempts.
    #[test]
    fn engine_matches_oracle_on_random_dags(seed in 0u64..10_000, big in proptest::bool::ANY) {
        let n = if big { 7 } else { 4 };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dag = Dag::new(Committee::new(n).expect("3f + 1"));
        grow(&mut dag, &mut rng, 8);
        assert_equivalent(&dag);
    }

    /// Engine ≡ oracle across three grow/prune cycles. The first prune
    /// lands at a random floor, the second a random step above it, and the
    /// third above the highest round, which empties the stored window and
    /// leaves a gap below the next insert. After each prune the oracle is
    /// rechecked and every collected vertex must bounce off as a
    /// straggler; then the DAG keeps growing above the floor and is
    /// rechecked again — closures shifted by the prune, with their genesis
    /// bits recomputed where a weak edge reaches genesis, and closures
    /// composed fresh after it must both agree with the oracle.
    #[test]
    fn engine_matches_oracle_under_pruning(seed in 0u64..10_000, floor in 2u64..7, gap in 0u64..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dag = Dag::new(Committee::new(4).expect("4 = 3f + 1"));
        grow(&mut dag, &mut rng, 8);
        for cycle in 0..3 {
            let highest = dag.highest_round();
            let keep_from = Round::new(match cycle {
                0 => floor,
                1 => dag.pruned_floor().number() + rng.random_range(1u64..5),
                _ => highest.number() + 1 + gap,
            });
            let stragglers: Vec<Vertex> = dag
                .iter()
                .filter(|v| v.round() != Round::GENESIS && v.round() < keep_from)
                .cloned()
                .collect();
            dag.prune_below(keep_from);
            assert_eq!(dag.highest_round(), highest, "cycle {cycle}: a prune keeps the top round");
            assert_eq!(dag.pruned_floor(), keep_from);
            assert!(dag.lowest_retained_round().is_none_or(|low| low >= keep_from));
            assert_equivalent(&dag);
            // Re-delivering a collected vertex must be refused, not resurrected.
            for vertex in stragglers {
                assert!(!dag.insert(vertex), "cycle {cycle}: stragglers below the floor are rejected");
            }
            grow(&mut dag, &mut rng, 6);
            assert!(dag.highest_round() > highest, "cycle {cycle}: growth resumes above the floor");
            assert_equivalent(&dag);
        }
    }

    /// Completeness: flipping a single closure bit anywhere makes the
    /// auditor report a `ReachabilityDivergence` naming that exact query.
    #[test]
    fn auditor_catches_any_poisoned_bit(seed in 0u64..10_000, strong in proptest::bool::ANY) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dag = Dag::new(Committee::new(4).expect("4 = 3f + 1"));
        grow(&mut dag, &mut rng, 6);
        let refs: Vec<VertexRef> = dag.iter().map(Vertex::reference).collect();
        let uppers: Vec<VertexRef> =
            refs.iter().copied().filter(|r| r.round != Round::GENESIS).collect();
        let of = uppers[rng.random_range(0..uppers.len())];
        // The poisoned bit must concern a present, strictly lower-round
        // target — the only bits a query can observe.
        let lowers: Vec<VertexRef> =
            refs.iter().copied().filter(|r| r.round < of.round).collect();
        let target = lowers[rng.random_range(0..lowers.len())];
        assert!(dag.poison_reachability_for_tests(of, target, strong));
        let divergences = DagAuditor::for_dag(&dag).audit_reachability(&dag);
        assert!(
            divergences.iter().any(|d| matches!(
                d,
                InvariantViolation::ReachabilityDivergence { from, to, strong_only, .. }
                    if *from == of && *to == target && *strong_only == strong
            )),
            "poisoned ({of} -> {target}, strong={strong}) must be reported, got {divergences:?}"
        );
    }
}
