//! Observability conformance: the structured event traces emitted by a
//! full DAG-Rider run are complete, causally consistent, and support the
//! §3 latency claims — checked deterministically across ≥ 32 seeds and
//! property-tested over random schedules and committee sizes.

use std::collections::{BTreeMap, BTreeSet};

use dag_rider::analysis::{DagAuditor, TraceReport};
use dag_rider::core::{NodeConfig, WaveOutcome};
use dag_rider::crypto::deal_coin_keys;
use dag_rider::rbc::BrachaRbc;
use dag_rider::simactor::DagRiderNode;
use dag_rider::simnet::{Simulation, UniformScheduler};
use dag_rider::trace::{TraceEvent, TraceRecord, Tracer};
use dag_rider::types::{Committee, VertexRef, Wave};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_ROUND: u64 = 16;

fn traced_run(
    n: usize,
    seed: u64,
    max_delay: u64,
) -> Simulation<DagRiderNode<BrachaRbc>, UniformScheduler> {
    let committee = Committee::new(n).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
    // Ample ring: never drop a record, so traces are complete and the
    // auditor's stream checks are sound.
    let capacity = (MAX_ROUND as usize + 1) * n * 64;
    let config = NodeConfig::default().with_max_round(MAX_ROUND);
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()).with_trace(capacity))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, max_delay), seed);
    sim.run();
    sim
}

/// Every committed wave must carry **exactly one** `LeaderCommitted`
/// record per process, and every `LeaderCommitted` must correspond to a
/// committed wave in the node's commit log.
fn assert_one_commit_event_per_wave(records: &[TraceRecord], node: &DagRiderNode<BrachaRbc>) {
    let mut commit_events: BTreeMap<Wave, usize> = BTreeMap::new();
    for record in records {
        if let TraceEvent::LeaderCommitted { wave, .. } = record.event {
            *commit_events.entry(wave).or_insert(0) += 1;
        }
    }
    let committed_waves: BTreeSet<Wave> = node
        .commits()
        .iter()
        .filter(|c| matches!(c.outcome, WaveOutcome::Direct | WaveOutcome::Indirect))
        .map(|c| c.wave)
        .collect();
    for (wave, count) in &commit_events {
        assert_eq!(*count, 1, "wave {wave} has {count} LeaderCommitted events");
        assert!(
            committed_waves.contains(wave),
            "trace commits wave {wave} but the commit log does not"
        );
    }
    for wave in &committed_waves {
        assert!(
            commit_events.contains_key(wave),
            "commit log commits wave {wave} but the trace never did"
        );
    }
}

/// `VertexOrdered` events must respect causal history: positions are
/// contiguous from zero, match the node's `ordered()` log, and no vertex
/// precedes any vertex its edges point to.
fn assert_ordering_respects_causal_history(
    records: &[TraceRecord],
    node: &DagRiderNode<BrachaRbc>,
) {
    let mut positions: BTreeMap<VertexRef, u64> = BTreeMap::new();
    let mut in_order: Vec<VertexRef> = Vec::new();
    for record in records {
        if let TraceEvent::VertexOrdered { vertex, position, .. } = record.event {
            assert_eq!(
                position,
                in_order.len() as u64,
                "ordering positions must be contiguous from zero"
            );
            assert!(positions.insert(vertex, position).is_none(), "{vertex} ordered twice");
            in_order.push(vertex);
        }
    }
    let log: Vec<VertexRef> = node.ordered().iter().map(|o| o.vertex).collect();
    assert_eq!(in_order, log, "trace ordering diverges from the ordered() log");
    // Causal respect: every edge of an ordered vertex that is itself
    // ordered must have been ordered first (Algorithm 3 lines 51–57 order
    // a leader's causal history before the leader).
    for (vertex, position) in &positions {
        let Some(v) = node.dag().get(*vertex) else { continue };
        for edge in v.edges() {
            if let Some(edge_position) = positions.get(edge) {
                assert!(
                    edge_position < position,
                    "{vertex} at position {position} ordered before its dependency \
                     {edge} at {edge_position}"
                );
            }
        }
    }
}

/// Per-wave commit latency from the report must be finite, positive, and
/// bounded by the run's elapsed time (in ticks and in §3 time units).
fn assert_latency_finite_and_bounded(report: &TraceReport) {
    assert!(!report.waves.is_empty(), "run committed no wave at all");
    assert!(report.max_correct_delay > 0, "no delivered correct-to-correct message");
    assert!(report.total_time_units.is_finite() && report.total_time_units > 0.0);
    for wave in &report.waves {
        assert!(wave.commits > 0, "wave {} reported with zero commits", wave.wave);
        assert!(wave.min_ticks <= wave.max_ticks);
        assert!(
            wave.max_ticks <= report.elapsed.ticks(),
            "wave {} latency {} exceeds elapsed {}",
            wave.wave,
            wave.max_ticks,
            report.elapsed
        );
        assert!(wave.mean_ticks.is_finite() && wave.mean_ticks > 0.0);
        assert!(
            wave.mean_time_units.is_finite() && wave.mean_time_units > 0.0,
            "wave {} has non-finite time-unit latency",
            wave.wave
        );
        assert!(
            wave.mean_time_units <= report.total_time_units,
            "wave {} latency {} time units exceeds the whole run ({})",
            wave.wave,
            wave.mean_time_units,
            report.total_time_units
        );
        assert!(wave.mean_rounds.is_finite() && wave.mean_rounds >= 0.0);
    }
}

fn check_run(n: usize, seed: u64, max_delay: u64) {
    let sim = traced_run(n, seed, max_delay);
    let committee = sim.committee();
    let auditor = DagAuditor::new(committee);
    let mut merged: Vec<TraceRecord> = Vec::new();
    for p in committee.members() {
        let node = sim.actor(p);
        let tracer = node.tracer().expect("traced run");
        assert_eq!(tracer.dropped(), 0, "{p}: ring too small, trace incomplete");
        let records = node.trace_records();
        assert!(!records.is_empty(), "{p}: no trace records");
        let violations = auditor.audit_trace(&records);
        assert!(violations.is_empty(), "{p}: trace audit failed: {violations:?}");
        assert_one_commit_event_per_wave(&records, node);
        assert_ordering_respects_causal_history(&records, node);
        merged.extend(records);
    }
    let report = TraceReport::build(&merged, sim.metrics(), sim.now());
    assert_latency_finite_and_bounded(&report);
    assert_eq!(
        report.ordered_total,
        committee.members().map(|p| sim.actor(p).ordered().len() as u64).sum::<u64>(),
        "report ordered_total diverges from the nodes' logs"
    );
}

/// The headline acceptance check: 32 distinct seeds, all clean.
#[test]
fn thirty_two_seeds_trace_clean_n4() {
    for seed in 0..32u64 {
        check_run(4, seed, 8);
    }
}

#[test]
fn traces_clean_at_n7() {
    for seed in [0u64, 7, 19, 42] {
        check_run(7, seed, 10);
    }
}

/// An untraced node stays untraced: no ring, no records, zero accounting.
#[test]
fn tracing_is_off_by_default() {
    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(1));
    let config = NodeConfig::default().with_max_round(8);
    let nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    let mut sim = Simulation::new(committee, nodes, UniformScheduler::new(1, 6), 1);
    sim.run();
    for p in committee.members() {
        let node = sim.actor(p);
        assert!(!node.ordered().is_empty(), "{p} must still make progress");
        assert!(node.tracer().is_none());
        assert!(node.trace_records().is_empty());
        assert_eq!(node.tracer().map_or(0, Tracer::recorded), 0);
    }
}

/// Batch-lifecycle observability: a digest-payload cluster — including a
/// straggler that must fetch a batch it never received — emits traces the
/// auditor accepts, and a trace whose resolution record is missing is
/// flagged as `UnresolvedOrderedDigest`.
#[test]
fn digest_lifecycle_traces_audit_clean_and_flag_missing_resolution() {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    use dag_rider::analysis::InvariantViolation;
    use dag_rider::core::{
        batch_digest, DagRiderEngine, EngineEvent, EngineInput, EngineOutput, NodeMessage, Turn,
    };
    use dag_rider::rbc::BrachaMessage;
    use dag_rider::types::{Batch, Decode, ProcessId, Round, Time, Transaction};

    /// The test's driver: an instant FIFO wire, the timers the engines
    /// armed as (due tick, process, tag), the fetch requests each sent,
    /// and each engine's event stream stamped with the time of its turn,
    /// as the simulator adapter stamps it.
    struct Driver {
        wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)>,
        timers: BinaryHeap<Reverse<(u64, ProcessId, u64)>>,
        fetches_sent: Vec<u64>,
        /// `Ordered` outputs per process.
        ordered: Vec<usize>,
        tracers: Vec<Tracer>,
    }

    impl Driver {
        fn route(&mut self, committee: Committee, from: ProcessId, at: Time, turn: Turn) {
            let tracer = &mut self.tracers[from.as_usize()];
            tracer.set_now(at);
            for event in turn.events.iter().filter_map(EngineEvent::trace) {
                tracer.record(event);
            }
            for out in turn.outputs {
                match out {
                    EngineOutput::Send { to, payload } => {
                        let request = NodeMessage::<BrachaMessage>::from_bytes(&payload);
                        if let Ok(NodeMessage::BatchRequest(_)) = request {
                            self.fetches_sent[from.as_usize()] += 1;
                        }
                        self.wire.push_back((from, to, payload.to_vec()));
                    }
                    EngineOutput::Broadcast { payload } => {
                        for to in committee.others(from) {
                            self.wire.push_back((from, to, payload.to_vec()));
                        }
                    }
                    EngineOutput::Ordered(_) => self.ordered[from.as_usize()] += 1,
                    EngineOutput::SetTimer { delay, tag } => {
                        self.timers.push(Reverse((at.ticks() + delay, from, tag)));
                    }
                }
            }
        }
    }

    let committee = Committee::new(4).unwrap();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(414));
    let config = NodeConfig::default().with_max_round(MAX_ROUND);
    let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
        .collect();
    let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(600 + i)).collect();
    let batches: Vec<Batch> = committee
        .members()
        .map(|p| Batch::new(p, 0, vec![Transaction::synthetic(90 + p.as_usize() as u64, 32)]))
        .collect();
    // Process 3 never receives process 0's batch by dissemination: the
    // vertex naming it waits in its buffer until the fetch path brings
    // the batch.
    let straggler = ProcessId::new(3);

    let mut driver = Driver {
        wire: VecDeque::new(),
        timers: BinaryHeap::new(),
        fetches_sent: vec![0; 4],
        ordered: vec![0; 4],
        tracers: committee.members().map(|p| Tracer::new(p, 8192)).collect(),
    };
    for p in committee.members() {
        let i = p.as_usize();
        for (b, batch) in batches.iter().enumerate() {
            if p == straggler && b == 0 {
                continue;
            }
            engines[i].store_batch(batch.clone());
        }
        engines[i].enqueue_digests(vec![batch_digest(&batches[i])]);
        let turn = engines[i].start(Time::ZERO, &mut rngs[i]);
        driver.route(committee, p, Time::ZERO, turn);
    }
    let mut t = 0u64;
    while !driver.wire.is_empty() || !driver.timers.is_empty() {
        assert!(t < 1_000_000, "the cluster never went idle");
        while let Some((from, to, payload)) = driver.wire.pop_front() {
            t += 1;
            let i = to.as_usize();
            let turn = engines[i].handle(
                Time::new(t),
                EngineInput::Message { from, payload },
                &mut rngs[i],
            );
            driver.route(committee, to, Time::new(t), turn);
        }
        // Fire the earliest timer once the wire is idle, no earlier than
        // it is due.
        if driver.wire.is_empty() {
            if let Some(Reverse((due, p, tag))) = driver.timers.pop() {
                t = t.max(due);
                let i = p.as_usize();
                let turn =
                    engines[i].handle(Time::new(t), EngineInput::Timer { tag }, &mut rngs[i]);
                driver.route(committee, p, Time::new(t), turn);
            }
        }
    }

    let auditor = DagAuditor::new(committee);
    for p in committee.members() {
        let i = p.as_usize();
        assert!(driver.ordered[i] > 0, "{p}: ordered nothing");
        assert_eq!(driver.ordered[i], driver.ordered[0]);
        let records: Vec<TraceRecord> = driver.tracers[i].records();
        assert_eq!(driver.tracers[i].dropped(), 0, "{p}: ring too small, trace incomplete");
        let ordered_digests =
            records.iter().filter(|r| matches!(r.event, TraceEvent::DigestOrdered { .. })).count();
        assert!(ordered_digests >= 4, "{p}: only {ordered_digests} digests ordered in trace");
        let violations = auditor.audit_trace(&records);
        assert!(violations.is_empty(), "{p}: digest trace audit failed: {violations:?}");
    }
    assert!(driver.fetches_sent[straggler.as_usize()] > 0, "straggler never fetched");
    let straggler_records = driver.tracers[straggler.as_usize()].records();
    let fetched = straggler_records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::BatchFetchRequested { .. }))
        .expect("straggler trace has no fetch request");
    // Process 0's digest rides its round-1 vertex, which the straggler
    // inserts only once the fetch brought the batch.
    let p0_vertex = VertexRef::new(Round::new(1), ProcessId::new(0));
    let inserted = straggler_records
        .iter()
        .position(|r| r.event == TraceEvent::VertexInserted { vertex: p0_vertex })
        .expect("straggler never inserted process 0's vertex");
    assert!(fetched < inserted, "straggler inserted {p0_vertex} before fetching its batch");

    // Strip the resolution records: every digest the straggler ordered now
    // dangles, and the auditor must say so.
    let tampered: Vec<TraceRecord> = straggler_records
        .iter()
        .filter(|r| !matches!(r.event, TraceEvent::BatchResolved { .. }))
        .cloned()
        .collect();
    let violations = auditor.audit_trace(&tampered);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            InvariantViolation::UnresolvedOrderedDigest { process, .. } if *process == straggler
        )),
        "tampered trace not flagged: {violations:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random schedules and committee sizes: the whole observability
    /// contract holds, not just on the curated seeds.
    #[test]
    fn traces_clean_under_random_schedules(
        seed in 0u64..10_000,
        max_delay in 2u64..20,
        wide in proptest::prelude::any::<bool>(),
    ) {
        let n = if wide { 7 } else { 4 };
        check_run(n, seed, max_delay);
    }
}
