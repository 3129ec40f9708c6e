//! Kill-and-restart equivalence: a process restarted from its durable
//! store must rebuild a **byte-identical prefix** of the ordered log it
//! had delivered before the crash.
//!
//! The suite runs a real four-engine agreement (the in-test FIFO driver,
//! no simulator) with one node recording its durable event stream, then
//! pins three properties over that stream:
//!
//! * **full replay** — replaying every event into a fresh engine rebuilds
//!   the exact ordered log ([`DagAuditor::audit_recovery`] with
//!   `expect_complete`),
//! * **snapshot + tail replay** — a mid-run [`StoreSnapshot`] plus the
//!   post-capture tail rebuilds the same log, pinning the compaction
//!   path,
//! * **crash-point matrix** — for *every* prefix of the stream (a crash
//!   between any two appends), replay audits clean, never double-orders,
//!   and never delivers anything the pre-crash run did not.
//!
//! A final group drives the same events through a real [`DurableStore`]
//! on disk with injected faults at several append boundaries, and checks
//! the auditor actually fires on doctored logs (divergence, payload
//! mismatch, lost delivery).

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;

use dag_rider::analysis::{DagAuditor, InvariantViolation};
use dag_rider::core::{
    DagRiderEngine, DurableEvent, EngineEvent, EngineInput, EngineOutput, NodeConfig, NodeMessage,
    OrderedVertex,
};
use dag_rider::crypto::deal_coin_keys;
use dag_rider::rbc::{BrachaMessage, BrachaRbc};
use dag_rider::store::{
    replay_into, DurableStore, FaultKind, FaultPlan, FsyncPolicy, StoreSnapshot,
};
use dag_rider::types::{Block, Committee, Encode, ProcessId, SeqNum, Time, Transaction, Wave};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 7;
const OBSERVER: usize = 0;

/// Everything the crash-recovery properties need from one pre-crash run:
/// the observer node's durable stream, a mid-run snapshot with the count
/// of events drained before its capture, and the ordered log to compare
/// recovered logs against.
struct Recorded {
    committee: Committee,
    events: Vec<DurableEvent>,
    snapshot: StoreSnapshot,
    snapshot_at: usize,
    ordered: Vec<OrderedVertex>,
    /// The observer's answer to a sync request at the end of the run:
    /// the engine messages of its sync stream.
    sync: Vec<Vec<u8>>,
}

/// The durable subset of a turn's events — what the runtime persists.
fn durable(events: Vec<EngineEvent>) -> Vec<DurableEvent> {
    events.into_iter().filter_map(EngineEvent::into_durable).collect()
}

/// Runs four engines to agreement through an instant-delivery FIFO wire,
/// keeping the observer node's durable events. A snapshot of the
/// observer is captured the first time its ordered log is non-empty.
fn record_run(seed: u64) -> Recorded {
    let committee = Committee::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let config = NodeConfig::default().with_max_round(16);
    let mut engines: Vec<DagRiderEngine<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderEngine::new(committee, p, k, config.clone()))
        .collect();
    let mut rngs: Vec<StdRng> = (0..4).map(|i| StdRng::seed_from_u64(100 + i)).collect();
    let tx = Transaction::synthetic(seed, 16);
    engines[2].enqueue_block(Block::new(ProcessId::new(2), SeqNum::new(1), vec![tx]));

    let mut events: Vec<DurableEvent> = Vec::new();
    let mut snapshot: Option<(usize, StoreSnapshot)> = None;
    let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
    // The observer's log: its `Ordered` outputs.
    let mut ordered: Vec<OrderedVertex> = Vec::new();
    let mut clock = 0u64;
    let mut route = |from: ProcessId,
                     outs: Vec<EngineOutput>,
                     wire: &mut VecDeque<(ProcessId, ProcessId, Vec<u8>)>| {
        for out in outs {
            match out {
                EngineOutput::Send { to, payload } => {
                    wire.push_back((from, to, payload.to_vec()));
                }
                EngineOutput::Broadcast { payload } => {
                    for to in committee.others(from) {
                        wire.push_back((from, to, payload.to_vec()));
                    }
                }
                EngineOutput::Ordered(o) if from.as_usize() == OBSERVER => ordered.push(o),
                EngineOutput::SetTimer { .. } | EngineOutput::Ordered(_) => {}
            }
        }
    };
    for p in committee.members() {
        let turn = engines[p.as_usize()].start(Time::new(clock), &mut rngs[p.as_usize()]);
        if p.as_usize() == OBSERVER {
            events.extend(durable(turn.events));
        }
        route(p, turn.outputs, &mut wire);
    }
    while let Some((from, to, payload)) = wire.pop_front() {
        clock += 1;
        let input = EngineInput::Message { from, payload };
        let turn = engines[to.as_usize()].handle(Time::new(clock), input, &mut rngs[to.as_usize()]);
        let delivered = turn.outputs.iter().any(|o| matches!(o, EngineOutput::Ordered(_)));
        route(to, turn.outputs, &mut wire);
        if to.as_usize() == OBSERVER {
            events.extend(durable(turn.events));
            // Capture at the observer's first delivery. Mirror the
            // runtime's single-producer discipline: capture only after
            // persisting, so the snapshot supersedes exactly the events
            // recorded so far.
            if snapshot.is_none() && delivered {
                snapshot = Some((events.len(), StoreSnapshot::capture(&engines[OBSERVER])));
            }
        }
    }
    assert!(!ordered.is_empty(), "the run must order something to be worth recovering");
    let (snapshot_at, snapshot) = snapshot.expect("a snapshot must have been captured mid-run");
    assert!(snapshot_at < events.len(), "events must continue past the snapshot capture");
    let request = NodeMessage::<BrachaMessage>::SyncRequest.to_bytes();
    let input = EngineInput::Message { from: ProcessId::new(1), payload: request };
    let answer = engines[OBSERVER].handle(Time::new(clock), input, &mut rngs[OBSERVER]).outputs;
    let sync = answer
        .into_iter()
        .filter_map(|out| match out {
            EngineOutput::Send { payload, .. } => Some(payload.to_vec()),
            _ => None,
        })
        .collect();
    Recorded { committee, events, snapshot, snapshot_at, ordered, sync }
}

/// A fresh observer engine: same committee, identity, coin key, and
/// config as the pre-crash run — what a restarting process constructs.
fn fresh_observer(committee: Committee) -> DagRiderEngine<BrachaRbc> {
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(SEED));
    let key = keys.into_iter().nth(OBSERVER).unwrap();
    let config = NodeConfig::default().with_max_round(16);
    DagRiderEngine::new(committee, ProcessId::new(OBSERVER as u32), key, config)
}

/// Replays a snapshot + tail into a fresh observer and returns it with
/// the `Ordered` outputs its replay emitted.
fn recover(
    committee: Committee,
    snapshot: Option<&StoreSnapshot>,
    tail: &[DurableEvent],
) -> (DagRiderEngine<BrachaRbc>, Vec<OrderedVertex>) {
    let mut engine = fresh_observer(committee);
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut replayed = Vec::new();
    replay_into(&mut engine, snapshot, tail, Time::ZERO, &mut rng, |out| {
        if let EngineOutput::Ordered(o) = out {
            replayed.push(o);
        }
    });
    (engine, replayed)
}

/// Byte-identity of two ordered logs on the replicated axes: the vertex
/// reference and the block bytes. (`delivered_at` / `committed_in_wave`
/// are local observations and may legitimately differ.)
fn assert_logs_identical(expected: &[OrderedVertex], got: &[OrderedVertex]) {
    assert_eq!(expected.len(), got.len(), "log lengths differ");
    for (i, (a, b)) in expected.iter().zip(got).enumerate() {
        assert_eq!(a.vertex, b.vertex, "position {i}: different vertex");
        assert_eq!(a.block.to_bytes(), b.block.to_bytes(), "position {i}: different block bytes");
    }
}

#[test]
fn full_wal_replay_rebuilds_the_exact_ordered_log() {
    let run = record_run(SEED);
    let (engine, replayed) = recover(run.committee, None, &run.events);
    assert_logs_identical(&run.ordered, &replayed);
    let report =
        DagAuditor::new(run.committee).audit_recovery(engine.dag(), &run.ordered, &replayed, true);
    assert!(report.is_empty(), "recovery audit must be clean: {report:?}");
}

#[test]
fn snapshot_plus_tail_replay_rebuilds_the_exact_ordered_log() {
    let run = record_run(SEED);
    let tail = &run.events[run.snapshot_at..];
    let (engine, replayed) = recover(run.committee, Some(&run.snapshot), tail);
    assert_logs_identical(&run.ordered, &replayed);
    let report =
        DagAuditor::new(run.committee).audit_recovery(engine.dag(), &run.ordered, &replayed, true);
    assert!(report.is_empty(), "snapshot recovery audit must be clean: {report:?}");
}

#[test]
fn every_crash_point_recovers_a_clean_prefix() {
    // A crash between any two appends loses a suffix of the stream but
    // must never lose prefix-consistency: the recovered log is a prefix
    // of the pre-crash log, with nothing reordered, duplicated, or
    // invented. This is the store's whole safety contract.
    let run = record_run(SEED);
    let auditor = DagAuditor::new(run.committee);
    let mut last_len = 0usize;
    for cut in 0..=run.events.len() {
        let (engine, recovered) = recover(run.committee, None, &run.events[..cut]);
        assert!(
            recovered.len() <= run.ordered.len(),
            "crash at {cut}: recovered more than was ever delivered"
        );
        assert_logs_identical(&run.ordered[..recovered.len()], &recovered);
        assert!(
            recovered.len() >= last_len,
            "crash at {cut}: a longer prefix recovered fewer deliveries"
        );
        last_len = recovered.len();
        let report = auditor.audit_recovery(engine.dag(), &run.ordered, &recovered, false);
        assert!(report.is_empty(), "crash at {cut}: audit must be clean: {report:?}");
    }
    assert_eq!(last_len, run.ordered.len(), "the full stream must recover the full log");
}

#[test]
fn faulted_stores_on_disk_recover_clean_prefixes() {
    // The same property through real files: append the recorded stream
    // into a DurableStore with a fault armed at an append boundary,
    // reopen, replay what survived, and audit.
    let run = record_run(SEED);
    let auditor = DagAuditor::new(run.committee);
    let boundaries = [1u64, 5, run.events.len() as u64 / 2, run.events.len() as u64 - 1];
    let faults = [FaultKind::Crash, FaultKind::Torn { keep: 5 }, FaultKind::BitFlip { bit: 13 }];
    for (case, (&at_append, &kind)) in
        boundaries.iter().flat_map(|b| faults.iter().map(move |f| (b, f))).enumerate()
    {
        let dir = scratch_dir(&format!("fault-{case}"));
        {
            let (mut store, _) = DurableStore::open(&dir, FsyncPolicy::EveryN(4)).unwrap();
            store.set_fault(FaultPlan { at_append, kind });
            for event in &run.events {
                store.append(event).unwrap();
                store.commit().unwrap();
            }
            assert!(store.is_dead(), "case {case}: fault must have fired");
        }
        let (_, recovered) = DurableStore::open(&dir, FsyncPolicy::EveryN(4)).unwrap();
        assert_eq!(
            recovered.tail,
            run.events[..at_append as usize],
            "case {case}: the intact prefix and nothing else must survive"
        );
        if matches!(kind, FaultKind::Crash) {
            assert!(recovered.wal_defect.is_none(), "case {case}: clean crash leaves no defect");
        } else {
            assert!(recovered.wal_defect.is_some(), "case {case}: damage must be classified");
        }
        let (engine, replayed) = recover(run.committee, None, &recovered.tail);
        let report = auditor.audit_recovery(engine.dag(), &run.ordered, &replayed, false);
        assert!(report.is_empty(), "case {case}: audit must be clean: {report:?}");
        assert_logs_identical(&run.ordered[..replayed.len()], &replayed);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_auditor_fires_on_doctored_recovery_logs() {
    let run = record_run(SEED);
    let (engine, clean) = recover(run.committee, None, &run.events);
    let auditor = DagAuditor::new(run.committee);
    assert!(clean.len() >= 2, "need at least two deliveries to doctor");

    // Swapped entries: divergence at the first swapped position.
    let mut swapped = clean.clone();
    swapped.swap(0, 1);
    let report = auditor.audit_recovery(engine.dag(), &run.ordered, &swapped, true);
    assert!(
        report.iter().any(|v| matches!(v, InvariantViolation::RecoveryLogDivergence { .. })),
        "swapped log must report divergence: {report:?}"
    );

    // Same vertex, different block bytes: payload mismatch.
    let mut forged = clean.clone();
    forged[0].block =
        Block::new(ProcessId::new(3), SeqNum::new(99), vec![Transaction::synthetic(999, 8)]);
    let report = auditor.audit_recovery(engine.dag(), &run.ordered, &forged, true);
    assert!(
        report.iter().any(|v| matches!(v, InvariantViolation::RecoveryPayloadMismatch { .. })),
        "forged block must report a payload mismatch: {report:?}"
    );

    // A truncated log after a *complete* recovery: lost delivery.
    let truncated = &clean[..clean.len() - 1];
    let report = auditor.audit_recovery(engine.dag(), &run.ordered, truncated, true);
    assert!(
        report.iter().any(|v| matches!(v, InvariantViolation::RecoveryLostDelivery { .. })),
        "short complete log must report a lost delivery: {report:?}"
    );
    // ...but the same truncation audits clean when incompleteness is
    // the contract (store-only replay of an unsynced suffix).
    let report = auditor.audit_recovery(engine.dag(), &run.ordered, truncated, false);
    assert!(report.is_empty(), "incomplete-tolerant audit must accept a clean prefix");

    // Duplicate delivery is caught regardless of the reference log.
    let mut duplicated = clean.clone();
    let repeat = duplicated[0].clone();
    duplicated.push(repeat);
    let report = auditor.audit_recovery(engine.dag(), &run.ordered, &duplicated, false);
    assert!(
        report.iter().any(|v| matches!(v, InvariantViolation::DuplicateOrdered { .. })),
        "re-delivery must be reported: {report:?}"
    );
}

#[test]
fn replay_commits_waves_in_order_and_exactly_once() {
    // Replay drives the engine through its normal input path, so the
    // broadcast layer may emit echo traffic (the runtime drops it; peers
    // saw the originals long ago) — but the *ordering* side must be a
    // clean rebuild: waves commit monotonically, every delivery streams
    // through the sink exactly once, and the rebuilt log matches.
    let run = record_run(SEED);
    let mut rng = StdRng::seed_from_u64(1);
    let mut streamed: Vec<OrderedVertex> = Vec::new();
    replay_into(
        &mut fresh_observer(run.committee),
        Some(&run.snapshot),
        &run.events[run.snapshot_at..],
        Time::ZERO,
        &mut rng,
        |out| {
            if let EngineOutput::Ordered(o) = out {
                streamed.push(o);
            }
        },
    );
    let waves: Vec<Wave> = streamed.iter().map(|o| o.committed_in_wave).collect();
    assert!(
        waves.windows(2).all(|w| w[0] <= w[1]),
        "replay committed waves out of order: {waves:?}"
    );
    // The streamed deliveries are the pre-crash log exactly — no
    // delivery is duplicated into the sink or withheld from it.
    assert_logs_identical(&run.ordered, &streamed);
}

#[test]
fn recovered_state_persists_nothing_when_peers_resend_it() {
    // After a full replay the DAG and the coin already hold everything
    // the pre-crash process knew, so joining, taking a peer's re-sent
    // sync stream (the DAG the observer itself served at the end of the
    // run) and every coin share of the log must produce no durable event.
    let run = record_run(SEED);
    let (mut engine, _) = recover(run.committee, None, &run.events);
    let mut rng = StdRng::seed_from_u64(2);
    let peer = ProcessId::new(1);
    let mut persisted = durable(engine.join(Time::ZERO, 1_000).events);
    assert!(run.sync.len() > 1);
    persisted
        .extend(durable(engine.handle(Time::ZERO, EngineInput::LinkUp(peer), &mut rng).events));
    for payload in run.sync {
        let input = EngineInput::Message { from: peer, payload };
        persisted.extend(durable(engine.handle(Time::ZERO, input, &mut rng).events));
    }
    let shares: Vec<_> = run
        .events
        .iter()
        .filter_map(|e| match e {
            DurableEvent::CoinShare(share) => Some(*share),
            _ => None,
        })
        .collect();
    assert!(!shares.is_empty());
    for share in shares {
        let payload = NodeMessage::<BrachaMessage>::Coin(share).to_bytes();
        let input = EngineInput::Message { from: share.issuer(), payload };
        persisted.extend(durable(engine.handle(Time::ZERO, input, &mut rng).events));
    }
    assert_eq!(persisted, Vec::new());
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dagrider-store-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}
