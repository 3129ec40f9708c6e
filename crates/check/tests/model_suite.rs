//! Bounded model-checking suite for the `dagrider-net` concurrency
//! surfaces, plus self-tests proving the checker catches seeded bugs.
//!
//! The positive checks run each surface under a bounded exhaustive
//! search (deterministic — the CI budget explores the same schedules
//! every run) and a short seeded random pass. The negative checks seed
//! a lock-order inversion and a lost wakeup and require the explorer to
//! find them and to replay the failure from its recorded schedule.

use dagrider_check::{
    check_surface, seeded_lock_order_inversion, seeded_lost_wakeup, seeded_reactor_wakeup_bug,
    surface, surfaces,
};
use dagrider_net::sync::model::{explore, replay, Config, FailureKind, Search};

/// CI-sized budget: small enough to finish on a single-core runner,
/// large enough to cover every interleaving the preemption bound
/// admits for these surfaces.
fn budget() -> Config {
    Config { max_iterations: 1_500, max_steps: 20_000, preemption_bound: Some(2) }
}

#[test]
fn every_surface_is_listed_and_resolvable() {
    let all = surfaces();
    assert!(all.len() >= 3, "need at least three real concurrency surfaces");
    for s in &all {
        assert!(surface(s.name).is_some(), "surface {} must resolve by name", s.name);
    }
    assert!(surface("no-such-surface").is_none());
}

#[test]
fn send_queue_accounting_survives_bounded_exhaustive_search() {
    let report =
        check_surface(&surface("send-queue").expect("registered"), &budget(), Search::Exhaustive);
    assert!(report.passed(), "send-queue failed: {:?}", report.failure);
}

#[test]
fn frame_pool_recycling_survives_bounded_exhaustive_search() {
    let report =
        check_surface(&surface("frame-pool").expect("registered"), &budget(), Search::Exhaustive);
    assert!(report.passed(), "frame-pool failed: {:?}", report.failure);
}

#[test]
fn reactor_wakeup_survives_bounded_exhaustive_search() {
    let report = check_surface(
        &surface("reactor-wakeup").expect("registered"),
        &budget(),
        Search::Exhaustive,
    );
    assert!(report.passed(), "reactor-wakeup failed: {:?}", report.failure);
}

#[test]
fn reactor_shutdown_survives_bounded_exhaustive_search() {
    let report = check_surface(
        &surface("reactor-shutdown").expect("registered"),
        &budget(),
        Search::Exhaustive,
    );
    assert!(report.passed(), "reactor-shutdown failed: {:?}", report.failure);
}

#[test]
fn surfaces_survive_seeded_random_schedules() {
    let config = Config { max_iterations: 150, max_steps: 20_000, preemption_bound: None };
    for s in surfaces() {
        let report = check_surface(&s, &config, Search::Random { seed: 0xda65 });
        assert!(
            report.passed(),
            "surface {} failed under random search: {:?}",
            s.name,
            report.failure
        );
    }
}

#[test]
fn seeded_lock_order_inversion_is_caught_and_replays() {
    let report = explore(&budget(), Search::Exhaustive, seeded_lock_order_inversion);
    let failure = report.failure.expect("the AB/BA inversion must be found");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected a deadlock, got {:?}",
        failure.kind
    );
    assert!(!failure.schedule.is_empty(), "failure must carry a replayable schedule");

    // The printed schedule alone must reproduce the same deadlock.
    let replayed = replay(&failure.schedule, seeded_lock_order_inversion)
        .expect("replaying the recorded schedule must fail again");
    assert!(
        matches!(replayed.kind, FailureKind::Deadlock { .. }),
        "replay diverged: {:?}",
        replayed.kind
    );
}

#[test]
fn seeded_lock_order_inversion_is_caught_by_random_search_too() {
    let config = Config { max_iterations: 2_000, max_steps: 20_000, preemption_bound: None };
    let report = explore(&config, Search::Random { seed: 7 }, seeded_lock_order_inversion);
    let failure = report.failure.expect("random search should also trip the inversion");
    assert!(failure.seed.is_some(), "random-mode failures must record their seed");
}

#[test]
fn seeded_lost_wakeup_is_caught_as_a_deadlock() {
    let report = explore(&budget(), Search::Exhaustive, seeded_lost_wakeup);
    let failure = report.failure.expect("the lost wakeup must be found");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected the consumer to hang, got {:?}",
        failure.kind
    );
}

#[test]
fn seeded_reactor_wakeup_bug_is_caught_and_replays() {
    let report = explore(&budget(), Search::Exhaustive, seeded_reactor_wakeup_bug);
    let failure = report.failure.expect("the latch-less wake must be found");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected the reactor to park forever, got {:?}",
        failure.kind
    );
    let replayed = replay(&failure.schedule, seeded_reactor_wakeup_bug)
        .expect("replaying the recorded schedule must fail again");
    assert!(
        matches!(replayed.kind, FailureKind::Deadlock { .. }),
        "replay diverged: {:?}",
        replayed.kind
    );
}

#[test]
fn failure_report_prints_seed_and_schedule() {
    let report = explore(&budget(), Search::Exhaustive, seeded_lock_order_inversion);
    let failure = report.failure.expect("inversion found");
    let rendered = format!("{failure}");
    assert!(
        rendered.contains("replayable schedule"),
        "report must include the schedule: {rendered}"
    );
    assert!(rendered.contains("DEADLOCK"), "report must name the failure kind: {rendered}");
}
