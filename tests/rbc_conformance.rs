//! A conformance suite run against **all three** reliable-broadcast
//! instantiations: the §2 properties (Agreement, Integrity, Validity)
//! under random schedules, targeted adversarial delays, and crash faults.

use std::collections::{BTreeSet, VecDeque};

use dag_rider::rbc::{
    AvidRbc, BrachaRbc, ProbabilisticRbc, RbcAction, RbcProcess, ReliableBroadcast,
};
use dag_rider::simnet::{
    BandwidthScheduler, Scheduler, Simulation, TargetedScheduler, Time, UniformScheduler,
};
use dag_rider::trace::{RbcPhase, TraceEvent};
use dag_rider::types::{Committee, ProcessId, Round, VertexRef};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build<B: ReliableBroadcast, S: Scheduler>(
    n: usize,
    seed: u64,
    scheduler: S,
) -> Simulation<RbcProcess<B>, S> {
    let committee = Committee::new(n).unwrap();
    let actors: Vec<RbcProcess<B>> = committee
        .members()
        .map(|p| {
            RbcProcess::new(
                B::new(committee, p),
                vec![(Round::new(1), format!("payload-{p}").into_bytes())],
            )
        })
        .collect();
    Simulation::new(committee, actors, scheduler, seed)
}

/// Agreement + Integrity: all correct processes deliver the same set, at
/// most once per (source, round).
fn assert_conformance<B: ReliableBroadcast, S: Scheduler>(
    sim: &Simulation<RbcProcess<B>, S>,
    correct: &[ProcessId],
    min_deliveries: usize,
) {
    let canonical: Vec<_> = {
        let mut d = sim.actor(correct[0]).delivered().to_vec();
        d.sort_by_key(|x| (x.source, x.round));
        d
    };
    assert!(
        canonical.len() >= min_deliveries,
        "{}: only {} deliveries",
        B::name(),
        canonical.len()
    );
    for &p in correct {
        let mut d = sim.actor(p).delivered().to_vec();
        // Integrity: no duplicate (source, round).
        let mut keys: Vec<_> = d.iter().map(|x| (x.source, x.round)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), d.len(), "{}: duplicate delivery at {p}", B::name());
        // Agreement (at quiescence): same delivered set.
        d.sort_by_key(|x| (x.source, x.round));
        assert_eq!(d, canonical, "{}: {p} disagrees", B::name());
    }
}

fn random_schedule_case<B: ReliableBroadcast>(n: usize, seed: u64, max_delay: u64) {
    let mut sim = build::<B, _>(n, seed, UniformScheduler::new(1, max_delay));
    sim.run();
    let correct: Vec<ProcessId> = sim.committee().members().collect();
    // Validity: every correct sender's broadcast delivers.
    assert_conformance(&sim, &correct, n);
}

fn crash_case<B: ReliableBroadcast>(n: usize, seed: u64, victim: u32, after: u64) {
    let mut sim = build::<B, _>(n, seed, UniformScheduler::new(1, 10));
    sim.run_until(after, |_| false);
    sim.crash(ProcessId::new(victim), true);
    sim.run();
    let correct: Vec<ProcessId> =
        sim.committee().members().filter(|p| p.index() != victim).collect();
    // The crashed sender's broadcast may or may not deliver (all-or-none);
    // the other n-1 must.
    assert_conformance(&sim, &correct, n - 1);
}

fn targeted_delay_case<B: ReliableBroadcast>(n: usize, seed: u64, victim: u32) {
    let scheduler =
        TargetedScheduler::new(UniformScheduler::new(1, 6), [ProcessId::new(victim)], 300)
            .with_window(Time::ZERO, Time::new(300));
    let mut sim = build::<B, _>(n, seed, scheduler);
    sim.run();
    let correct: Vec<ProcessId> = sim.committee().members().collect();
    assert_conformance(&sim, &correct, n);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bracha_random_schedules(seed in 0u64..10_000, max_delay in 2u64..40) {
        random_schedule_case::<BrachaRbc>(4, seed, max_delay);
    }

    #[test]
    fn avid_random_schedules(seed in 0u64..10_000, max_delay in 2u64..40) {
        random_schedule_case::<AvidRbc>(4, seed, max_delay);
    }

    #[test]
    fn probabilistic_random_schedules(seed in 0u64..10_000, max_delay in 2u64..40) {
        random_schedule_case::<ProbabilisticRbc>(4, seed, max_delay);
    }

    #[test]
    fn bracha_crash(seed in 0u64..10_000, victim in 0u32..4, after in 10u64..200) {
        crash_case::<BrachaRbc>(4, seed, victim, after);
    }

    #[test]
    fn avid_crash(seed in 0u64..10_000, victim in 0u32..4, after in 10u64..200) {
        crash_case::<AvidRbc>(4, seed, victim, after);
    }

    #[test]
    fn probabilistic_crash(seed in 0u64..10_000, victim in 0u32..4, after in 10u64..200) {
        crash_case::<ProbabilisticRbc>(4, seed, victim, after);
    }

    #[test]
    fn bracha_targeted_delay(seed in 0u64..10_000, victim in 0u32..4) {
        targeted_delay_case::<BrachaRbc>(4, seed, victim);
    }

    #[test]
    fn avid_targeted_delay(seed in 0u64..10_000, victim in 0u32..4) {
        targeted_delay_case::<AvidRbc>(4, seed, victim);
    }

    #[test]
    fn probabilistic_targeted_delay(seed in 0u64..10_000, victim in 0u32..4) {
        targeted_delay_case::<ProbabilisticRbc>(4, seed, victim);
    }
}

// --- direct state-machine drives: crash-stop mid-broadcast, replays -------

/// A minimal sans-io network over bare RBC state machines: FIFO queue,
/// optional per-message duplication (replayed fragments), and crash-stop
/// processes whose messages vanish.
struct DirectNet<B: ReliableBroadcast> {
    procs: Vec<B>,
    queue: VecDeque<(ProcessId, ProcessId, B::Message)>,
    log: Vec<(ProcessId, ProcessId, B::Message)>,
    delivered: Vec<Vec<dag_rider::rbc::RbcDelivery>>,
    crashed: BTreeSet<ProcessId>,
    duplicate: bool,
    rng: StdRng,
}

impl<B: ReliableBroadcast> DirectNet<B> {
    fn new(n: usize, seed: u64, duplicate: bool) -> Self {
        let committee = Committee::new(n).unwrap();
        let procs: Vec<B> = committee.members().map(|p| B::new(committee, p)).collect();
        Self {
            procs,
            queue: VecDeque::new(),
            log: Vec::new(),
            delivered: vec![Vec::new(); n],
            crashed: BTreeSet::new(),
            duplicate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn apply(&mut self, at: ProcessId, actions: Vec<RbcAction<B::Message>>) {
        for action in actions {
            match action {
                RbcAction::Send(to, message) => {
                    self.queue.push_back((at, to, message.clone()));
                    if self.duplicate {
                        self.queue.push_back((at, to, message));
                    }
                }
                RbcAction::Deliver(delivery) => self.delivered[at.as_usize()].push(delivery),
                RbcAction::Phase(..) => {}
            }
        }
    }

    fn rbcast(&mut self, sender: ProcessId, payload: Vec<u8>, round: Round) {
        let actions = self.procs[sender.as_usize()].rbcast(payload, round, &mut self.rng);
        self.apply(sender, actions);
    }

    /// Drains the queue to quiescence; messages from or to crashed
    /// processes are dropped on the floor.
    fn run(&mut self) {
        while let Some((from, to, message)) = self.queue.pop_front() {
            if self.crashed.contains(&from) || self.crashed.contains(&to) {
                continue;
            }
            self.log.push((from, to, message.clone()));
            let actions = self.procs[to.as_usize()].on_message(from, message, &mut self.rng);
            self.apply(to, actions);
        }
    }

    /// Replays every message processed so far, in order, then drains any
    /// fallout — a full-trace replay attack.
    fn replay_everything(&mut self) {
        let log = std::mem::take(&mut self.log);
        for (from, to, message) in log {
            self.queue.push_back((from, to, message));
        }
        self.run();
    }

    fn deliveries_of(&self, p: ProcessId, source: ProcessId, round: Round) -> usize {
        self.delivered[p.as_usize()]
            .iter()
            .filter(|d| d.source == source && d.round == round)
            .count()
    }
}

/// The sender crash-stops mid-broadcast: only `reached` peers ever see its
/// opening messages, everything else from it vanishes. The surviving
/// correct processes must resolve all-or-none (Agreement/totality), never
/// a split where some deliver and some hang forever.
fn crash_stop_mid_broadcast_case<B: ReliableBroadcast>(seed: u64, reached: usize) {
    let n = 4;
    let sender = ProcessId::new(0);
    let round = Round::new(1);
    let mut net = DirectNet::<B>::new(n, seed, false);
    let actions = net.procs[0].rbcast(b"mid-broadcast".to_vec(), round, &mut net.rng);
    // Partition the opening volley: peers with index <= `reached` get their
    // messages, the rest were still in the sender's socket buffers.
    for action in actions {
        match action {
            RbcAction::Send(to, message) if to.as_usize() <= reached => {
                net.queue.push_back((sender, to, message));
            }
            RbcAction::Send(..) | RbcAction::Phase(..) => {}
            RbcAction::Deliver(delivery) => net.delivered[0].push(delivery),
        }
    }
    net.crashed.insert(sender);
    net.run();
    let counts: Vec<usize> =
        (1..n).map(|i| net.deliveries_of(ProcessId::new(i as u32), sender, round)).collect();
    assert!(counts.iter().all(|&c| c <= 1), "{}: duplicate delivery {counts:?}", B::name());
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "{}: crash mid-broadcast split the correct processes: {counts:?}",
        B::name()
    );
}

#[test]
fn crash_stop_mid_broadcast_all_or_none() {
    for reached in 0..4 {
        for seed in [1u64, 7, 23] {
            crash_stop_mid_broadcast_case::<BrachaRbc>(seed, reached);
            crash_stop_mid_broadcast_case::<AvidRbc>(seed, reached);
            crash_stop_mid_broadcast_case::<ProbabilisticRbc>(seed, reached);
        }
    }
}

/// Integrity under duplication and wholesale replay: every wire message is
/// delivered twice, then the entire message trace is replayed from the
/// start. Each process must still deliver each broadcast exactly once.
fn duplicate_and_replay_case<B: ReliableBroadcast>(seed: u64) {
    let n = 4;
    let round = Round::new(1);
    let mut net = DirectNet::<B>::new(n, seed, true);
    for i in 0..n {
        net.rbcast(ProcessId::new(i as u32), format!("payload-{i}").into_bytes(), round);
    }
    net.run();
    for p in 0..n {
        for source in 0..n {
            assert_eq!(
                net.deliveries_of(ProcessId::new(p as u32), ProcessId::new(source as u32), round),
                1,
                "{}: process {p} did not deliver source {source} exactly once \
                 under duplication",
                B::name()
            );
        }
    }
    net.replay_everything();
    for p in 0..n {
        for source in 0..n {
            assert_eq!(
                net.deliveries_of(ProcessId::new(p as u32), ProcessId::new(source as u32), round),
                1,
                "{}: replaying the full trace re-delivered source {source} at {p}",
                B::name()
            );
        }
    }
}

#[test]
fn duplicated_and_replayed_messages_deliver_once() {
    for seed in [2u64, 11, 31] {
        duplicate_and_replay_case::<BrachaRbc>(seed);
        duplicate_and_replay_case::<AvidRbc>(seed);
        duplicate_and_replay_case::<ProbabilisticRbc>(seed);
    }
}

// --- trace phase ordering --------------------------------------------------

/// Runs a traced simulation and returns, per (process, instance), the
/// sequence of [`RbcPhase`] events in recording order.
fn traced_phases<B: ReliableBroadcast>(
    n: usize,
    seed: u64,
) -> Vec<(ProcessId, Vec<(VertexRef, RbcPhase)>)> {
    let committee = Committee::new(n).unwrap();
    let actors: Vec<RbcProcess<B>> = committee
        .members()
        .map(|p| {
            RbcProcess::new(
                B::new(committee, p),
                vec![(Round::new(1), format!("payload-{p}").into_bytes())],
            )
            .with_trace(4096)
        })
        .collect();
    let mut sim = Simulation::new(committee, actors, UniformScheduler::new(1, 8), seed);
    sim.run();
    let correct: Vec<ProcessId> = sim.committee().members().collect();
    assert_conformance(&sim, &correct, n);
    committee
        .members()
        .map(|p| {
            let tracer = sim.actor(p).tracer().expect("every process is traced");
            assert_eq!(tracer.dropped(), 0, "phase ring overflowed at {p}");
            let phases = tracer
                .records()
                .into_iter()
                .filter_map(|r| match r.event {
                    TraceEvent::RbcPhase { instance, phase, .. } => Some((instance, phase)),
                    _ => None,
                })
                .collect();
            (p, phases)
        })
        .collect()
}

/// Shared assertions, per (process, instance): each phase fires at most
/// once; `Init` comes first and only ever at the instance's own source;
/// `Deliver`, when present, is the final phase (and, where the primitive
/// guarantees it, preceded by `Commit`). Note Witness-before-Commit is
/// deliberately *not* asserted: Bracha/AVID ready amplification (READY on
/// `f + 1` READYs) legally commits without this process ever echoing.
fn assert_phase_order(
    per_process: &[(ProcessId, Vec<(VertexRef, RbcPhase)>)],
    commit_before_deliver: bool,
    name: &str,
) {
    for (p, phases) in per_process {
        assert!(!phases.is_empty(), "{name}: {p} recorded no phase events");
        let mut instances: BTreeSet<VertexRef> = BTreeSet::new();
        for (instance, _) in phases {
            instances.insert(*instance);
        }
        for instance in instances {
            let seq: Vec<RbcPhase> =
                phases.iter().filter(|(i, _)| *i == instance).map(|(_, ph)| *ph).collect();
            let mut unique: Vec<RbcPhase> = seq.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(
                unique.len(),
                seq.len(),
                "{name}: {p} repeated a phase for {instance}: {seq:?}"
            );
            if seq.contains(&RbcPhase::Init) {
                assert_eq!(
                    instance.source, *p,
                    "{name}: {p} recorded Init for another process's instance"
                );
                assert_eq!(seq[0], RbcPhase::Init, "{name}: Init must come first");
            }
            if let Some(at) = seq.iter().position(|ph| *ph == RbcPhase::Deliver) {
                assert_eq!(
                    at,
                    seq.len() - 1,
                    "{name}: {p} kept changing phase after delivering {instance}: {seq:?}"
                );
                if commit_before_deliver {
                    assert!(
                        seq[..at].contains(&RbcPhase::Commit),
                        "{name}: {p} delivered {instance} without committing first: {seq:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn bracha_trace_phases_fire_in_protocol_order() {
    for seed in [3u64, 17] {
        let phases = traced_phases::<BrachaRbc>(4, seed);
        // Bracha only delivers after sending its own READY: Commit always
        // precedes Deliver.
        assert_phase_order(&phases, true, "bracha");
    }
}

#[test]
fn avid_trace_phases_fire_in_protocol_order() {
    for seed in [3u64, 17] {
        let phases = traced_phases::<AvidRbc>(4, seed);
        assert_phase_order(&phases, true, "avid");
    }
}

#[test]
fn probabilistic_trace_phases_fire_in_protocol_order() {
    for seed in [3u64, 17] {
        let phases = traced_phases::<ProbabilisticRbc>(4, seed);
        // Contagion may deliver off sampled readies without ever turning
        // ready itself, so Commit-before-Deliver is not guaranteed — but
        // phase order and Init locality still are.
        assert_phase_order(&phases, false, "probabilistic");
    }
}

#[test]
fn larger_committees_all_protocols() {
    random_schedule_case::<BrachaRbc>(10, 1, 12);
    random_schedule_case::<AvidRbc>(10, 2, 12);
    random_schedule_case::<ProbabilisticRbc>(10, 3, 12);
}

/// On a bandwidth-limited network, AVID's small fragments beat Bracha's
/// full-payload echoes in completion *time* as well as bytes — the
/// practical reason dispersal wins for payload-heavy workloads.
#[test]
fn avid_beats_bracha_on_bandwidth_limited_links() {
    let n = 7;
    let payload = vec![0x5au8; 20_000];
    let run = |avid: bool| -> u64 {
        let committee = Committee::new(n).unwrap();
        let scheduler = BandwidthScheduler::new(UniformScheduler::new(1, 3), 500);
        if avid {
            let actors: Vec<RbcProcess<AvidRbc>> = committee
                .members()
                .map(|p| {
                    let queue = if p.index() == 0 {
                        vec![(Round::new(1), payload.clone())]
                    } else {
                        Vec::new()
                    };
                    RbcProcess::new(AvidRbc::new(committee, p), queue)
                })
                .collect();
            let mut sim = Simulation::new(committee, actors, scheduler, 5);
            let done = sim.run_until(1_000_000, |s| {
                s.committee().members().all(|p| !s.actor(p).delivered().is_empty())
            });
            assert!(done, "avid failed to deliver");
            sim.now().ticks()
        } else {
            let actors: Vec<RbcProcess<BrachaRbc>> = committee
                .members()
                .map(|p| {
                    let queue = if p.index() == 0 {
                        vec![(Round::new(1), payload.clone())]
                    } else {
                        Vec::new()
                    };
                    RbcProcess::new(BrachaRbc::new(committee, p), queue)
                })
                .collect();
            let mut sim = Simulation::new(committee, actors, scheduler, 5);
            let done = sim.run_until(1_000_000, |s| {
                s.committee().members().all(|p| !s.actor(p).delivered().is_empty())
            });
            assert!(done, "bracha failed to deliver");
            sim.now().ticks()
        }
    };
    let avid_time = run(true);
    let bracha_time = run(false);
    assert!(
        avid_time < bracha_time,
        "avid {avid_time} ticks should beat bracha {bracha_time} ticks on slow links"
    );
}
