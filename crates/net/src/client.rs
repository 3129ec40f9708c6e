//! The client submission front end: admission accounting and the
//! ordered-notification matcher.
//!
//! Client sockets are owned by the reactor (`crate::reactor`), which
//! performs admission inline: every [`WireMsg::ClientSubmit`] is either
//! admitted into that client's bounded queue (acked) or refused with a
//! typed [`WireMsg::ClientReject`] — load is shed at the socket edge,
//! before the consensus thread feels it. This module holds the pieces
//! around that:
//!
//! * [`AdmissionStats`] — cumulative counters the reactor bumps and
//!   [`NetNode::admission_stats`](crate::NetNode::admission_stats) reads.
//! * [`frontend_loop`] — the subscriber matcher thread: it receives
//!   `(client, seq, tx-hash)` triples from the reactor as submissions
//!   drain toward the worker lanes, tails the published ordered log,
//!   and routes a [`WireMsg::ClientOrdered`] back through the reactor
//!   when a subscribed client's transaction lands in the total order.
//!
//! Matching is by transaction content hash, which makes ordered
//! notifications *best effort* under adversarial duplicates: two
//! in-flight submissions with identical bytes match in admission order.
//! That is inherent to content-addressed batching (the batch layer
//! carries no client identity, by design — consensus stays client-blind)
//! and is exactly what a submit/subscribe client can observe anyway.
//!
//! [`WireMsg::ClientSubmit`]: crate::wire::WireMsg::ClientSubmit
//! [`WireMsg::ClientReject`]: crate::wire::WireMsg::ClientReject
//! [`WireMsg::ClientOrdered`]: crate::wire::WireMsg::ClientOrdered

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use crate::reactor::ReactorCmd;
use crate::runtime::{lock_unpoisoned, Published};
use crate::signal::{Shutdown, Waker};
use crate::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use crate::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use crate::wire::WireMsg;

/// Entries the matcher retains before it starts refusing new ones —
/// bounds memory when subscribers outrun ordering.
const MAX_WAITING: usize = 1 << 20;

/// Dead-client tombstones tolerated before the waiting map is swept.
const DEAD_SWEEP: usize = 1024;

/// How often the matcher polls the ordered log when idle.
const FRONTEND_TICK: Duration = Duration::from_millis(5);

/// Cumulative per-node client admission counters, written by the reactor
/// and read through [`NetNode::admission_stats`](crate::NetNode::admission_stats).
/// All four are monotone over a node's lifetime.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    accepted: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    queue_high_water: AtomicU64,
}

/// One read of [`AdmissionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Submissions admitted into a client queue (acked).
    pub accepted: u64,
    /// Admitted transactions drained onward into a worker lane.
    pub coalesced: u64,
    /// Submissions refused with a typed reject (queue full, oversized,
    /// or node not yet live).
    pub shed: u64,
    /// Deepest any single client queue has ever been.
    pub queue_high_water: u64,
}

impl AdmissionStats {
    /// Records one admitted submission and the resulting queue depth.
    pub fn record_accept(&self, queue_depth: usize) {
        self.accepted.fetch_add(1, AtomicOrdering::Relaxed);
        self.queue_high_water.fetch_max(queue_depth as u64, AtomicOrdering::Relaxed);
    }

    /// Records one admitted transaction drained toward consensus.
    pub fn record_coalesce(&self) {
        self.coalesced.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Records one refused submission.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Reads all four counters (relaxed; counters are monotone).
    pub fn snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            accepted: self.accepted.load(AtomicOrdering::Relaxed),
            coalesced: self.coalesced.load(AtomicOrdering::Relaxed),
            shed: self.shed.load(AtomicOrdering::Relaxed),
            queue_high_water: self.queue_high_water.load(AtomicOrdering::Relaxed),
        }
    }
}

/// FNV-1a over transaction bytes: the content key admission and the
/// matcher agree on. Not cryptographic — a collision only misroutes a
/// best-effort notification between two byte-identical submissions.
pub(crate) fn tx_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reactor → frontend traffic.
pub(crate) enum FrontendMsg {
    /// A subscribed client's submission was drained toward consensus;
    /// notify `client` with `seq` once a transaction hashing to `hash`
    /// is ordered.
    Admitted {
        /// The reactor-assigned client connection id.
        client: u64,
        /// The client's correlation number for this submission.
        seq: u64,
        /// Content hash of the submitted transaction.
        hash: u64,
    },
    /// The client connection closed; its waiting entries are garbage.
    ClientGone {
        /// The departed client's connection id.
        client: u64,
    },
}

/// The subscriber matcher thread: consumes [`FrontendMsg`]s, tails the
/// ordered log, and hands `ClientOrdered` notifications back to the
/// reactor (which owns the client sockets).
///
/// Each pass takes the new log tail *first* and only then drains every
/// queued message. The reactor sends a transaction's `Admitted` before
/// it hands the transaction to a worker lane, so every transaction in
/// the tail already has its entry among the drained messages; matching
/// one message per pass instead would scan past a transaction whose
/// entry still waited in the channel, and never notify it.
pub(crate) fn frontend_loop(
    rx: &Receiver<FrontendMsg>,
    published: &Published,
    reactor: &Sender<ReactorCmd>,
    waker: &Waker,
    stop: &Shutdown,
) {
    let mut waiting: HashMap<u64, VecDeque<(u64, u64)>> = HashMap::new();
    let mut total_waiting = 0usize;
    let mut dead: HashSet<u64> = HashSet::new();
    let mut cursor = 0usize;
    loop {
        if stop.is_signalled() {
            return;
        }
        let first = match rx.recv_timeout(FRONTEND_TICK) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };

        let fresh = {
            let log = lock_unpoisoned(&published.ordered);
            let fresh: Vec<_> = log
                .get(cursor..)
                .map(|tail| {
                    tail.iter().flat_map(|v| v.block.transactions().iter().cloned()).collect()
                })
                .unwrap_or_default();
            cursor = log.len();
            fresh
        };
        for msg in first.into_iter().chain(std::iter::from_fn(|| rx.try_recv().ok())) {
            match msg {
                FrontendMsg::Admitted { client, seq, hash } => {
                    if total_waiting < MAX_WAITING && !dead.contains(&client) {
                        waiting.entry(hash).or_default().push_back((client, seq));
                        total_waiting += 1;
                    }
                }
                FrontendMsg::ClientGone { client } => {
                    dead.insert(client);
                    if dead.len() >= DEAD_SWEEP {
                        for entries in waiting.values_mut() {
                            entries.retain(|(c, _)| !dead.contains(c));
                        }
                        waiting.retain(|_, entries| !entries.is_empty());
                        total_waiting = waiting.values().map(VecDeque::len).sum();
                        dead.clear();
                    }
                }
            }
        }
        let mut notified = false;
        for tx in &fresh {
            let hash = tx_hash(tx.as_ref());
            let Some(entries) = waiting.get_mut(&hash) else { continue };
            while let Some((client, seq)) = entries.pop_front() {
                total_waiting -= 1;
                if dead.contains(&client) {
                    continue; // tombstoned: fall through to the next waiter
                }
                let msg = WireMsg::ClientOrdered { seq };
                if reactor.send(ReactorCmd::ClientSend { client, msg }).is_err() {
                    return; // reactor gone: the node is stopping
                }
                notified = true;
                break; // one notification per ordered transaction
            }
            if entries.is_empty() {
                waiting.remove(&hash);
            }
        }
        if notified {
            waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hash_is_stable_and_content_sensitive() {
        assert_eq!(tx_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(tx_hash(b"abc"), tx_hash(b"abc"));
        assert_ne!(tx_hash(b"abc"), tx_hash(b"abd"));
        assert_ne!(tx_hash(b"abc"), tx_hash(b"ab"));
    }

    #[test]
    fn admission_stats_are_cumulative_and_high_water_is_a_max() {
        let stats = AdmissionStats::default();
        assert_eq!(stats.snapshot(), AdmissionSnapshot::default());
        stats.record_accept(3);
        stats.record_accept(7);
        stats.record_accept(2);
        stats.record_coalesce();
        stats.record_shed();
        stats.record_shed();
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queue_high_water, 7, "high water keeps the max, not the last depth");
    }

    #[test]
    fn admissions_queued_behind_an_ordered_tail_are_all_notified() {
        use dagrider_core::OrderedVertex;
        use dagrider_types::{Block, ProcessId, Round, SeqNum, Time, Transaction, VertexRef, Wave};

        use crate::sync::mpsc;

        // Both transactions are already in the published log while both
        // `Admitted` entries still wait in the channel.
        let txs = vec![Transaction::synthetic(1, 16), Transaction::synthetic(2, 16)];
        let published = Published::default();
        lock_unpoisoned(&published.ordered).push(OrderedVertex {
            vertex: VertexRef::new(Round::new(1), ProcessId::new(0)),
            block: Block::new(ProcessId::new(0), SeqNum::new(1), txs.clone()),
            committed_in_wave: Wave::new(1),
            delivered_at: Time::ZERO,
        });
        let (admitted, rx) = mpsc::channel();
        for (seq, tx) in (0u64..).zip(&txs) {
            let hash = tx_hash(tx.as_ref());
            assert!(admitted.send(FrontendMsg::Admitted { client: 7, seq, hash }).is_ok());
        }
        // The loop returns once the channel is drained and disconnected.
        drop(admitted);
        let (reactor, commands) = mpsc::channel();
        frontend_loop(&rx, &published, &reactor, &Waker::new(), &Shutdown::new());

        let mut notified = Vec::new();
        while let Ok(ReactorCmd::ClientSend { client, msg }) = commands.try_recv() {
            assert_eq!(client, 7);
            assert_eq!(msg, WireMsg::ClientOrdered { seq: notified.len() as u64 });
            notified.push(client);
        }
        assert_eq!(notified.len(), 2, "every ordered transaction is notified");
    }
}
