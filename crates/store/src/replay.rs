//! Deterministic replay of recovered state into a fresh engine.
//!
//! Replay order matters and is fixed:
//!
//! 1. **Snapshot batches** — so digest-carrying vertices resolve their
//!    transactions locally instead of emitting fetches,
//! 2. **Snapshot vertices** (genesis excluded; [`Dag`] iteration is
//!    round-major ascending, so causal parents always precede children
//!    and nothing parks in the delivery buffer),
//! 3. **Snapshot leaders** as [`DurableEvent::Commit`] records — waves
//!    whose coin this node had already opened re-commit without the
//!    shares, which the aggregator cannot re-serialize,
//! 4. **WAL tail** in append order — the events the engine acted on
//!    after the snapshot was captured.
//!
//! Replay is *silent*: the events of every replayed turn are dropped
//! (the store already holds them) and its [`EngineOutput`]s are handed
//! to the caller's sink, which typically drops the
//! `Send`/`Broadcast`/timer traffic (peers saw it long ago) and keeps
//! only the `Ordered` deliveries to rebuild the published log. Determinism of the engine guarantees the rebuilt
//! order is a byte-identical prefix of what the process had delivered
//! before the crash — the property `DagAuditor::audit_recovery` and the
//! kill-and-restart suite pin.
//!
//! [`Dag`]: dagrider_core::Dag

use dagrider_core::{DagRiderEngine, DurableEvent, EngineOutput};
use dagrider_rbc::ReliableBroadcast;
use dagrider_types::{Round, Time, Wave};
use rand::rngs::StdRng;

use crate::snapshot::StoreSnapshot;

/// Counts of what a [`replay_into`] call fed to the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Non-genesis vertices replayed from the snapshot DAG.
    pub snapshot_vertices: usize,
    /// Worker batches restored from the snapshot.
    pub snapshot_batches: usize,
    /// Opened coin leaders re-committed from the snapshot.
    pub snapshot_leaders: usize,
    /// WAL tail records replayed.
    pub wal_events: usize,
}

impl ReplayStats {
    /// Total events replayed across all sources.
    #[must_use]
    pub fn total(&self) -> usize {
        self.snapshot_vertices + self.snapshot_batches + self.snapshot_leaders + self.wal_events
    }
}

/// Replays `snapshot` and the WAL `tail` into `engine`, forwarding
/// every engine output to `on_output`.
///
/// The engine must be freshly constructed (same committee, identity,
/// coin key, and config as the pre-crash run). Once replayed, the DAG
/// and the coin hold the recovered prefix, so later turns report none of
/// it as durable again.
pub fn replay_into<B, F>(
    engine: &mut DagRiderEngine<B>,
    snapshot: Option<&StoreSnapshot>,
    tail: &[DurableEvent],
    now: Time,
    rng: &mut StdRng,
    mut on_output: F,
) -> ReplayStats
where
    B: ReliableBroadcast,
    F: FnMut(EngineOutput),
{
    let mut stats = ReplayStats::default();
    let mut feed = |engine: &mut DagRiderEngine<B>, event: DurableEvent, rng: &mut StdRng| {
        for output in engine.replay_durable(event, now, rng).outputs {
            on_output(output);
        }
    };
    if let Some(snapshot) = snapshot {
        for batch in snapshot.batches() {
            feed(engine, DurableEvent::Batch(batch.clone()), rng);
            stats.snapshot_batches += 1;
        }
        for entry in snapshot.dag().entries() {
            if entry.vertex.round() == Round::GENESIS {
                continue;
            }
            feed(engine, DurableEvent::Vertex(entry.vertex.clone()), rng);
            stats.snapshot_vertices += 1;
        }
        for &(wave, leader) in snapshot.leaders() {
            feed(engine, DurableEvent::Commit { wave: Wave::new(wave), leader }, rng);
            stats.snapshot_leaders += 1;
        }
    }
    for event in tail {
        feed(engine, event.clone(), rng);
        stats.wal_events += 1;
    }
    stats
}
