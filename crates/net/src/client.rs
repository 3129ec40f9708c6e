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
//! * `Matcher` (crate-private) — the ordered-notification matcher the
//!   reactor keeps beside its client sessions: an entry per subscribed
//!   submission drained toward consensus, taken when a
//!   transaction with its bytes lands in the total order, so the reactor
//!   can queue a [`WireMsg::ClientOrdered`] on that client's socket.
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

use std::collections::{HashMap, VecDeque};

use crate::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Entries the matcher retains before it starts refusing new ones —
/// bounds memory when subscribers outrun ordering.
const MAX_WAITING: usize = 1 << 20;

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
    /// Admitted transactions drained onward to consensus, for the
    /// engine's open batch.
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
fn tx_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Subscribed submissions waiting for their transaction to be ordered:
/// the ordered-notification matcher. The reactor owns it next to the
/// client sessions, records an entry before it hands the transaction to
/// consensus, and takes entries as the ordered log grows, so an
/// entry always exists before its transaction can appear in the log.
///
/// Entries are keyed by [`tx_hash`] and queue in admission order, so
/// byte-identical transactions are notified oldest first. Client ids are
/// never reused, so a departed client's entry needs no tombstone: it is
/// dropped when a transaction with its bytes is ordered, and the next
/// waiter with the same bytes takes the notification.
#[derive(Debug, Default)]
pub(crate) struct Matcher {
    by_hash: HashMap<u64, VecDeque<(u64, u64)>>,
    len: usize,
}

impl Matcher {
    /// Records that `client` waits for its submission `seq` of `tx` to be
    /// ordered. Records nothing once [`MAX_WAITING`] entries wait: that
    /// client then gets no notification for `seq`.
    pub(crate) fn admit(&mut self, client: u64, seq: u64, tx: &[u8]) {
        if self.len < MAX_WAITING {
            self.by_hash.entry(tx_hash(tx)).or_default().push_back((client, seq));
            self.len += 1;
        }
    }

    /// Whether no entry waits.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes the `(client, seq)` to notify now that `tx` is ordered: the
    /// oldest entry for its bytes whose client is still `connected`.
    /// Entries of departed clients ahead of it are dropped.
    pub(crate) fn take(
        &mut self,
        tx: &[u8],
        connected: impl Fn(u64) -> bool,
    ) -> Option<(u64, u64)> {
        let hash = tx_hash(tx);
        let entries = self.by_hash.get_mut(&hash)?;
        let mut found = None;
        while let Some((client, seq)) = entries.pop_front() {
            self.len -= 1;
            if connected(client) {
                found = Some((client, seq));
                break;
            }
        }
        if entries.is_empty() {
            self.by_hash.remove(&hash);
        }
        found
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
    fn identical_bytes_are_notified_in_admission_order() {
        let mut matcher = Matcher::default();
        matcher.admit(7, 0, b"same");
        matcher.admit(8, 5, b"other");
        matcher.admit(9, 1, b"same");
        matcher.admit(7, 2, b"same");
        let connected = |_| true;
        assert_eq!(matcher.take(b"same", connected), Some((7, 0)));
        assert_eq!(matcher.take(b"same", connected), Some((9, 1)));
        assert_eq!(matcher.take(b"same", connected), Some((7, 2)));
        assert_eq!(matcher.take(b"same", connected), None, "one notification per entry");
        assert_eq!(matcher.take(b"unseen", connected), None);
        assert!(!matcher.is_empty());
        assert_eq!(matcher.take(b"other", connected), Some((8, 5)));
        assert!(matcher.is_empty());
    }

    #[test]
    fn a_departed_clients_entry_falls_through_to_the_next_waiter() {
        let mut matcher = Matcher::default();
        matcher.admit(1, 10, b"tx");
        matcher.admit(2, 20, b"tx");
        matcher.admit(3, 30, b"tx");
        // Clients 1 and 2 left: both entries go as the bytes are ordered.
        assert_eq!(matcher.take(b"tx", |client| client == 3), Some((3, 30)));
        assert!(matcher.is_empty());
        // With no connected waiter, the departed entries are still dropped.
        matcher.admit(4, 40, b"tx");
        assert_eq!(matcher.take(b"tx", |_| false), None);
        assert!(matcher.is_empty());
    }

    #[test]
    fn an_entry_past_max_waiting_is_refused() {
        let mut matcher = Matcher::default();
        for seq in 0..MAX_WAITING as u64 {
            matcher.admit(1, seq, b"tx");
        }
        matcher.admit(2, 0, b"late");
        assert_eq!(matcher.take(b"late", |_| true), None, "the cap refuses new entries");
        // Taking one entry makes room for exactly one more.
        assert_eq!(matcher.take(b"tx", |_| true), Some((1, 0)));
        matcher.admit(2, 1, b"late");
        matcher.admit(2, 2, b"late");
        assert_eq!(matcher.take(b"late", |_| true), Some((2, 1)));
        assert_eq!(matcher.take(b"late", |_| true), None);
    }
}
