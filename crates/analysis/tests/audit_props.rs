//! Auditor soundness and completeness tests.
//!
//! Two directions, mirroring what an auditor must get right:
//!
//! * **No false positives** — property tests run honest DAG-Rider
//!   simulations across seeds, schedulers, committee sizes, and crash
//!   faults, and require every audit to come back clean.
//! * **No false negatives** — directed adversarial tests take a known-good
//!   DAG (or build one by hand), apply exactly one corruption per
//!   violation class, and assert the auditor reports that exact variant.

use dagrider_analysis::{
    AuditedSimulation, DagAuditor, DagSnapshot, InvariantViolation, SnapshotEntry,
};
use dagrider_core::{CommitEvent, Dag, NodeConfig, WaveOutcome};
use dagrider_crypto::{deal_coin_keys, sha256};
use dagrider_rbc::BrachaRbc;
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Simulation, Time, UniformScheduler};
use dagrider_types::{
    Block, Committee, Decode, Encode, ProcessId, Round, SeqNum, Vertex, VertexBuilder, VertexRef,
    Wave,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn honest_sim(
    n: usize,
    seed: u64,
    max_round: u64,
    max_delay: u64,
) -> Simulation<DagRiderNode<BrachaRbc>, UniformScheduler> {
    let committee = Committee::new(n).expect("test committee sizes are 3f + 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(max_round);
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    Simulation::new(committee, nodes, UniformScheduler::new(1, max_delay), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every honest run — any seed, delay spread, and committee size —
    /// must audit clean on every process, DAG and commit record alike.
    #[test]
    fn honest_runs_audit_clean(seed in 0u64..10_000, max_delay in 2u64..20, big in proptest::bool::ANY) {
        let n = if big { 7 } else { 4 };
        let mut sim = honest_sim(n, seed, 16, max_delay);
        sim.run();
        sim.audit_honest().assert_clean();
    }

    /// Crash faults (up to f, mid-run, dropping in-flight messages) leave
    /// the survivors' DAGs and commit records invariant-clean.
    #[test]
    fn crashed_runs_audit_clean(seed in 0u64..10_000, victim in 0u32..4, after in 1u64..200) {
        let mut sim = honest_sim(4, seed, 16, 10);
        sim.initialize();
        sim.run_until(after, |_| false);
        sim.crash(ProcessId::new(victim), true);
        sim.run();
        sim.audit_honest().assert_clean();
    }

    /// Snapshots of honest DAGs survive the codec round trip and audit
    /// clean on the snapshot path too (digest checks included).
    #[test]
    fn honest_snapshots_audit_clean(seed in 0u64..10_000) {
        let mut sim = honest_sim(4, seed, 12, 10);
        sim.run();
        let auditor = DagAuditor::new(sim.committee());
        for p in sim.committee().members() {
            let snapshot = DagSnapshot::capture(sim.actor(p).dag());
            let decoded = DagSnapshot::from_bytes(&snapshot.to_bytes()).expect("roundtrip");
            prop_assert_eq!(auditor.audit_snapshot(&decoded), Vec::new());
        }
    }
}

// ---------------------------------------------------------------------------
// Directed adversarial mutations: one corruption, one expected variant.
// ---------------------------------------------------------------------------

/// A known-good 4-process snapshot (node 0's DAG after an honest run) that
/// each adversarial test corrupts in exactly one way.
fn base_snapshot() -> DagSnapshot {
    let mut sim = honest_sim(4, 42, 12, 10);
    sim.run();
    let snapshot = DagSnapshot::capture(sim.actor(ProcessId::new(0)).dag());
    assert_eq!(
        DagAuditor::new(snapshot.committee()).audit_snapshot(&snapshot),
        Vec::new(),
        "the base snapshot must audit clean before mutation"
    );
    snapshot
}

fn audit(snapshot: &DagSnapshot) -> Vec<InvariantViolation> {
    DagAuditor::new(snapshot.committee()).audit_snapshot(snapshot)
}

/// The highest round fully present in the snapshot, and that round's
/// references — the usual attachment point for crafted vertices.
fn full_round(snapshot: &DagSnapshot) -> (Round, Vec<VertexRef>) {
    let mut by_round: std::collections::BTreeMap<Round, Vec<VertexRef>> = Default::default();
    for reference in snapshot.references() {
        by_round.entry(reference.round).or_default().push(reference);
    }
    by_round
        .into_iter()
        .rfind(|(_, refs)| refs.len() == snapshot.committee().n())
        .expect("an honest run fills at least one round")
}

fn entry_of(vertex: Vertex) -> SnapshotEntry {
    SnapshotEntry { digest: sha256(vertex.to_bytes()), vertex }
}

fn craft(
    source: u32,
    round: Round,
    strong: impl IntoIterator<Item = VertexRef>,
    weak: impl IntoIterator<Item = VertexRef>,
) -> Vertex {
    VertexBuilder::new(
        ProcessId::new(source),
        round,
        Block::empty(ProcessId::new(source), SeqNum::new(99)),
    )
    .strong_edges(strong)
    .weak_edges(weak)
    .build_unchecked()
}

#[test]
fn detects_digest_mismatch() {
    let mut snapshot = base_snapshot();
    let entry = snapshot.entries_mut().last_mut().expect("non-empty snapshot");
    let tampered = entry.vertex.reference();
    entry.digest = sha256(b"not the vertex bytes");
    assert_eq!(audit(&snapshot), vec![InvariantViolation::DigestMismatch { vertex: tampered }]);
}

#[test]
fn detects_duplicate_vertex() {
    let mut snapshot = base_snapshot();
    let copy = snapshot.entries()[4].clone(); // a non-genesis entry
    let slot = copy.vertex.reference();
    snapshot.entries_mut().push(copy);
    assert_eq!(audit(&snapshot), vec![InvariantViolation::DuplicateVertex { slot }]);
}

#[test]
fn detects_non_monotone_edge() {
    let mut snapshot = base_snapshot();
    let (round, refs) = full_round(&snapshot);
    let next = Round::new(round.number() + 1);
    // Two crafted vertices in the same (new) round; `bad` takes a weak
    // edge sideways to its contemporary `peer` — round not strictly
    // decreasing, the defining non-monotone shape.
    let peer = craft(1, next, refs.clone(), []);
    let bad = craft(0, next, refs, [peer.reference()]);
    let (bad_ref, peer_ref) = (bad.reference(), peer.reference());
    snapshot.entries_mut().extend([entry_of(peer), entry_of(bad)]);
    assert_eq!(
        audit(&snapshot),
        vec![InvariantViolation::NonMonotoneEdge { vertex: bad_ref, edge: peer_ref }]
    );
}

#[test]
fn detects_strong_edge_wrong_round() {
    let mut snapshot = base_snapshot();
    let (round, refs) = full_round(&snapshot);
    let two_below = snapshot
        .references()
        .find(|r| r.round.number() + 2 == round.number() + 1)
        .expect("round - 1 is populated");
    // A strong edge skipping a round: DAG-Rider strong edges land in
    // round r - 1 exclusively (Algorithm 1).
    let bad = craft(0, Round::new(round.number() + 1), refs.into_iter().chain([two_below]), []);
    let bad_ref = bad.reference();
    snapshot.entries_mut().push(entry_of(bad));
    assert_eq!(
        audit(&snapshot),
        vec![InvariantViolation::StrongEdgeWrongRound { vertex: bad_ref, edge: two_below }]
    );
}

#[test]
fn detects_weak_edge_wrong_round() {
    let mut snapshot = base_snapshot();
    let (round, mut refs) = full_round(&snapshot);
    // Weak edges must reach strictly below round r - 1; pointing one at
    // round r - 1 (a vertex deliberately left out of the strong frontier,
    // so the redundancy rule cannot fire instead) is the violation.
    let sideways = refs.pop().expect("full round");
    let bad = craft(0, Round::new(round.number() + 1), refs, [sideways]);
    let bad_ref = bad.reference();
    snapshot.entries_mut().push(entry_of(bad));
    assert_eq!(
        audit(&snapshot),
        vec![InvariantViolation::WeakEdgeWrongRound { vertex: bad_ref, edge: sideways }]
    );
}

#[test]
fn detects_insufficient_strong_edges() {
    let mut snapshot = base_snapshot();
    let (round, refs) = full_round(&snapshot);
    let bad = craft(0, Round::new(round.number() + 1), refs.into_iter().take(2), []);
    let bad_ref = bad.reference();
    snapshot.entries_mut().push(entry_of(bad));
    assert_eq!(
        audit(&snapshot),
        vec![InvariantViolation::InsufficientStrongEdges {
            vertex: bad_ref,
            found: 2,
            required: 3
        }]
    );
}

#[test]
fn detects_missing_edge_target() {
    let mut snapshot = base_snapshot();
    // Remove a vertex some strong edge provably targets, so at least one
    // referrer is left dangling.
    let victim = snapshot
        .entries()
        .iter()
        .flat_map(|e| e.vertex.strong_edges().iter().copied())
        .find(|r| r.round != Round::GENESIS)
        .expect("strong edges target non-genesis vertices");
    snapshot.entries_mut().retain(|e| e.vertex.reference() != victim);
    // Everything still present that referenced the removed vertex now has
    // a dangling edge; causal closure (Claim 1) is exactly what broke.
    let violations = audit(&snapshot);
    assert!(!violations.is_empty(), "{victim} had referrers");
    assert!(
        violations.iter().all(
            |v| matches!(v, InvariantViolation::MissingEdgeTarget { edge, .. } if *edge == victim)
        ),
        "unexpected report: {violations:?}"
    );
}

#[test]
fn detects_redundant_weak_edge() {
    let mut snapshot = base_snapshot();
    let (round, refs) = full_round(&snapshot);
    let deep = snapshot
        .references()
        .find(|r| r.round.number() + 3 == round.number() + 1)
        .expect("three rounds below is populated");
    // `deep` is already in the causal history of the strong frontier, so
    // a correct process would never spend a weak edge on it
    // (Algorithm 2 line 27 only links orphans).
    let bad = craft(0, Round::new(round.number() + 1), refs, [deep]);
    let bad_ref = bad.reference();
    snapshot.entries_mut().push(entry_of(bad));
    assert_eq!(
        audit(&snapshot),
        vec![InvariantViolation::RedundantWeakEdge { vertex: bad_ref, edge: deep }]
    );
}

#[test]
fn detects_unknown_source() {
    let mut snapshot = base_snapshot();
    let (round, refs) = full_round(&snapshot);
    let bad = craft(7, Round::new(round.number() + 1), refs, []);
    let (bad_ref, source) = (bad.reference(), ProcessId::new(7));
    snapshot.entries_mut().push(entry_of(bad));
    assert_eq!(
        audit(&snapshot),
        vec![InvariantViolation::UnknownSource { vertex: bad_ref, source }]
    );
}

#[test]
fn detects_cycles() {
    let mut snapshot = base_snapshot();
    let (round, refs) = full_round(&snapshot);
    let next = Round::new(round.number() + 1);
    // Mutually referencing vertices. The non-monotone edges are reported
    // too (a cycle necessarily contains one), but the auditor must also
    // name the cycle itself — corrupted snapshots with cycles would
    // otherwise hang naive causal-history walks.
    let a_ref = VertexRef::new(next, ProcessId::new(0));
    let b = craft(1, next, refs.clone().into_iter().chain([a_ref]), []);
    let a = craft(0, next, refs.into_iter().chain([b.reference()]), []);
    snapshot.entries_mut().extend([entry_of(a), entry_of(b)]);
    let violations = audit(&snapshot);
    assert!(
        violations.iter().any(|v| matches!(v, InvariantViolation::CycleDetected { .. })),
        "cycle not reported: {violations:?}"
    );
}

// ---------------------------------------------------------------------------
// Commit-record violations, over hand-built DAGs with known connectivity.
// ---------------------------------------------------------------------------

/// A fully synchronous DAG over `rounds` rounds where every vertex's
/// strong edges are all of the previous round **except** `avoided`: no
/// strong path ever leads to `avoided`, which the commit tests exploit.
fn dag_avoiding(rounds: u64, avoided: VertexRef) -> Dag {
    let committee = Committee::new(4).expect("4 = 3f + 1");
    let mut dag = Dag::new(committee);
    for round in 1..=rounds {
        let round = Round::new(round);
        let prev = Round::new(round.number() - 1);
        let targets: Vec<VertexRef> = committee
            .members()
            .map(|p| VertexRef::new(prev, p))
            .filter(|&r| r != avoided)
            .collect();
        for p in committee.members() {
            let vertex = VertexBuilder::new(p, round, Block::empty(p, SeqNum::new(0)))
                .strong_edges(targets.clone())
                .build(&committee)
                .expect("crafted vertices are well-formed");
            assert!(dag.insert(vertex));
        }
    }
    dag
}

fn commit(wave: u64, leader: u32, outcome: WaveOutcome) -> CommitEvent {
    CommitEvent { wave: Wave::new(wave), leader: ProcessId::new(leader), outcome, at: Time::new(0) }
}

#[test]
fn detects_missing_leader_vertex() {
    let avoided = VertexRef::new(Round::new(1), ProcessId::new(0));
    let dag = dag_avoiding(8, avoided);
    let auditor = DagAuditor::for_dag(&dag);
    // Wave 3's first round (round 9) was never built.
    let violations = auditor.audit_commits(&dag, &[commit(3, 1, WaveOutcome::Direct)]);
    assert_eq!(
        violations,
        vec![InvariantViolation::MissingLeaderVertex {
            wave: Wave::new(3),
            leader: ProcessId::new(1)
        }]
    );
}

#[test]
fn detects_unjustified_commit() {
    // Process 0's round-1 vertex exists but nothing links back to it:
    // zero supporters, far short of the 2f + 1 the commit rule
    // (Algorithm 3 line 36) demands.
    let avoided = VertexRef::new(Round::new(1), ProcessId::new(0));
    let dag = dag_avoiding(4, avoided);
    let auditor = DagAuditor::for_dag(&dag);
    let violations = auditor.audit_commits(&dag, &[commit(1, 0, WaveOutcome::Direct)]);
    assert_eq!(
        violations,
        vec![InvariantViolation::UnjustifiedCommit {
            wave: Wave::new(1),
            leader: avoided,
            supporters: 0,
            required: 3
        }]
    );
}

#[test]
fn detects_sparse_support_violation_in_doctored_trace() {
    // Sparse-mode twin of `detects_unjustified_commit`: the same doctored
    // commit record — a direct commit of a leader nothing links back to —
    // must be reported as a `SparseSupportViolation` naming the adjusted
    // `max(f + 1, n − k + 1)` threshold when the auditor runs with the
    // cluster's sparse config, and as a plain `UnjustifiedCommit` when it
    // runs dense.
    let avoided = VertexRef::new(Round::new(1), ProcessId::new(0));
    let dag = dag_avoiding(4, avoided);
    // n = 4, k = 2: threshold max(f + 1, n − k + 1) = 3.
    let sparse = dagrider_types::SparseEdgeConfig::new(2, 7);
    let auditor = DagAuditor::for_dag(&dag).with_sparse_edges(sparse);
    let doctored = [commit(1, 0, WaveOutcome::Direct)];
    assert_eq!(
        auditor.audit_commits(&dag, &doctored),
        vec![InvariantViolation::SparseSupportViolation {
            wave: Wave::new(1),
            leader: avoided,
            supporters: 0,
            required: 3
        }]
    );
    // The dense auditor classifies the same corruption under the paper's
    // rule, so the two violation classes stay distinguishable in reports.
    assert!(matches!(
        DagAuditor::for_dag(&dag).audit_commits(&dag, &doctored)[..],
        [InvariantViolation::UnjustifiedCommit { .. }]
    ));
    // Soundness: a genuinely supported commit passes the sparse check —
    // every round-4 vertex retains a strong path to wave 1's leader p1.
    let honest = [commit(1, 1, WaveOutcome::Direct)];
    assert_eq!(auditor.audit_commits(&dag, &honest), Vec::new());
}

#[test]
fn detects_broken_leader_chain() {
    // Indirect outcomes skip the supporter check, isolating the chain
    // rule: wave 2's leader has no strong path to wave 1's, which is the
    // total-order-breaking shape (Algorithm 3 lines 39–43 / Lemma 1).
    let avoided = VertexRef::new(Round::new(1), ProcessId::new(0));
    let dag = dag_avoiding(8, avoided);
    let auditor = DagAuditor::for_dag(&dag);
    let commits = [commit(1, 0, WaveOutcome::Indirect), commit(2, 1, WaveOutcome::Indirect)];
    let violations = auditor.audit_commits(&dag, &commits);
    assert_eq!(
        violations,
        vec![InvariantViolation::BrokenLeaderChain {
            earlier: Wave::new(1),
            earlier_leader: avoided,
            later: Wave::new(2),
            later_leader: VertexRef::new(Round::new(5), ProcessId::new(1)),
        }]
    );
}

#[test]
fn honest_commit_records_audit_clean_against_peer_dags() {
    // Cross-check: any process's commit record must also be justified by
    // any other process's DAG once both have quiesced (the agreement
    // property the chain rule protects).
    let mut sim = honest_sim(4, 3, 16, 10);
    sim.run();
    let auditor = DagAuditor::new(sim.committee());
    for p in sim.committee().members() {
        for q in sim.committee().members() {
            let violations = auditor.audit_commits(sim.actor(q).dag(), sim.actor(p).commits());
            assert_eq!(violations, Vec::new(), "{p} commits vs {q} DAG");
        }
    }
}

#[test]
fn detects_reachability_divergence() {
    // Flip one closure bit via the fault-injection hook: the engine now
    // denies a strong path the BFS oracle can still traverse, and the
    // differential audit must catch exactly that disagreement.
    let avoided = VertexRef::new(Round::new(1), ProcessId::new(3));
    let mut dag = dag_avoiding(4, avoided);
    let auditor = DagAuditor::for_dag(&dag);
    assert_eq!(auditor.audit_dag(&dag), Vec::new(), "clean before poisoning");

    let from = VertexRef::new(Round::new(2), ProcessId::new(0));
    let to = VertexRef::new(Round::new(1), ProcessId::new(1));
    assert!(dag.poison_reachability_for_tests(from, to, true));
    let violations = auditor.audit_dag(&dag);
    assert_eq!(
        violations,
        vec![InvariantViolation::ReachabilityDivergence {
            from,
            to,
            strong_only: true,
            engine: false
        }]
    );
    // The hook toggles, so a second poke restores equivalence.
    assert!(dag.poison_reachability_for_tests(from, to, true));
    assert_eq!(auditor.audit_dag(&dag), Vec::new());
}
