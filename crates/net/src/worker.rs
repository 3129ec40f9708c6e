//! Worker channels: transaction batching and peer-to-peer dissemination.
//!
//! This is the Narwhal-style decoupling of data dissemination from
//! consensus (PAPERS.md, "Bullshark"): client transactions go to worker
//! channels, never to the consensus thread.
//!
//! Each worker runs a **batcher** thread that drains its transaction
//! channel, assembles size/time-bounded [`Batch`]es, hashes each sealed
//! batch into a [`HashedBatch`], and fans it out to every peer through
//! that peer's bounded [`SendQueue`] (one frame encoding shared by all
//! peers via [`FramePool`]) before handing it to consensus, whose engine
//! holds the node's only copy. The queues themselves are drained by the
//! reactor (`crate::reactor`), which owns the dedicated worker-lane
//! connections announced with [`WireMsg::WorkerHello`] — sealing rings
//! the reactor's waker so the fan-out hits the wire without waiting for
//! the next sweep tick.
//!
//! Inbound, the reactor classifies `WorkerHello` connections and hashes
//! each pushed batch before handing it to the consensus thread; consensus
//! acknowledges on the consensus connection ([`WireMsg::BatchAck`]) and
//! releases the digest into a vertex payload once a quorum has
//! acknowledged (or an ack timeout expires — the engine's bounded fetch
//! path covers stragglers).
//!
//! Consensus therefore carries a 32-byte digest per batch regardless of
//! transaction size; throughput scales with worker count and network
//! bandwidth instead of the consensus thread.

use std::time::{Duration, Instant};

use dagrider_core::HashedBatch;
use dagrider_types::{Batch, BatchDigest, ProcessId, Transaction};

use crate::frame::FramePool;
use crate::queue::SendQueue;
use crate::runtime::Event;
use crate::signal::{Shutdown, Waker};
use crate::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use crate::sync::Arc;
use crate::wire::WireMsg;

/// A worker seals its pending batch once transaction payload reaches
/// this size. The reactor refuses a client transaction larger than this:
/// it could never be disseminated.
pub const BATCH_MAX_BYTES: usize = 64 * 1024;

/// A worker seals an underfull batch once its oldest transaction is this
/// old, so a trickle of traffic still reaches consensus promptly.
const BATCH_INTERVAL: Duration = Duration::from_millis(10);

/// Batch assembly bounds for one worker channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchPolicy {
    /// Seal as soon as pending transaction payload reaches this size.
    pub max_bytes: usize,
    /// Seal at this age even if underfull, so a trickle of transactions
    /// still reaches consensus promptly.
    pub max_delay: Duration,
}

/// Accumulates transactions and decides when a batch is due.
#[derive(Debug)]
pub(crate) struct Assembler {
    policy: BatchPolicy,
    pending: Vec<Transaction>,
    pending_bytes: usize,
    oldest: Option<Instant>,
}

impl Assembler {
    pub(crate) fn new(policy: BatchPolicy) -> Self {
        Self { policy, pending: Vec::new(), pending_bytes: 0, oldest: None }
    }

    /// Adds one transaction; returns `true` when the batch is now full
    /// and should seal immediately.
    pub(crate) fn push(&mut self, tx: Transaction, now: Instant) -> bool {
        self.oldest.get_or_insert(now);
        self.pending_bytes += tx.len();
        self.pending.push(tx);
        self.pending_bytes >= self.policy.max_bytes
    }

    /// Whether the pending batch's age bound has expired at `now`.
    pub(crate) fn overdue(&self, now: Instant) -> bool {
        self.oldest.is_some_and(|at| now.duration_since(at) >= self.policy.max_delay)
    }

    /// How long the batcher may sleep before the age bound fires.
    pub(crate) fn nap(&self, now: Instant) -> Duration {
        match self.oldest {
            None => self.policy.max_delay,
            Some(at) => (at + self.policy.max_delay).saturating_duration_since(now),
        }
    }

    /// Takes the pending transactions, resetting the assembler. Empty
    /// when nothing is pending — workers never seal empty batches.
    pub(crate) fn take(&mut self) -> Vec<Transaction> {
        self.pending_bytes = 0;
        self.oldest = None;
        std::mem::take(&mut self.pending)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Everything a batcher needs to seal and publish a batch: its identity
/// plus the fan-out queues and consensus channel it writes to.
pub(crate) struct BatchLane<'a> {
    pub me: ProcessId,
    pub worker: u32,
    pub peer_queues: &'a [Arc<SendQueue>],
    pub consensus: &'a Sender<Event>,
    /// Rung after a seal fans out, so the reactor drains the peer
    /// queues immediately instead of on its next sweep tick.
    pub waker: &'a Waker,
}

/// The batcher thread body for worker channel `lane.worker` of process
/// `lane.me`: drain the transaction channel, seal batches bounded by
/// [`BATCH_MAX_BYTES`] and [`BATCH_INTERVAL`], fan them out, and hand
/// each sealed batch to consensus (which releases the digest after ack
/// quorum).
pub(crate) fn batch_loop(lane: &BatchLane<'_>, rx: &Receiver<Transaction>, stop: &Shutdown) {
    let frames = FramePool::new();
    let mut assembler =
        Assembler::new(BatchPolicy { max_bytes: BATCH_MAX_BYTES, max_delay: BATCH_INTERVAL });
    loop {
        let now = Instant::now();
        if stop.is_signalled() {
            return;
        }
        if assembler.overdue(now) {
            seal(lane, &mut assembler, &frames);
        }
        // Cap the nap so a signalled shutdown is noticed promptly even
        // with an idle channel and a long age bound.
        let nap = assembler.nap(now).clamp(Duration::from_millis(1), Duration::from_millis(50));
        match rx.recv_timeout(nap) {
            Ok(tx) => {
                if assembler.push(tx, Instant::now()) {
                    seal(lane, &mut assembler, &frames);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Shutdown: flush what is pending, then exit.
                seal(lane, &mut assembler, &frames);
                return;
            }
        }
    }
}

/// Seals the pending transactions into a batch: hash it, encode one
/// frame shared by every peer queue, and hand it to consensus.
fn seal(lane: &BatchLane<'_>, assembler: &mut Assembler, frames: &FramePool) {
    if assembler.is_empty() {
        return;
    }
    let batch = HashedBatch::new(Batch::new(lane.me, lane.worker, assembler.take()));
    let frame = frames.encode_with(|buf| WireMsg::encode_batch_into(batch.batch(), buf));
    for queue in lane.peer_queues {
        queue.push(frame.clone());
    }
    lane.waker.wake();
    let _ = lane.consensus.send(Event::OwnBatch(batch));
}

/// A digest sealed by a local worker, awaiting peer acknowledgements
/// before consensus proposes it. Tracked by the consensus thread.
#[derive(Debug)]
pub(crate) struct PendingAck {
    /// The digest being acknowledged.
    pub digest: BatchDigest,
    /// Peers that have acknowledged so far.
    pub acked: Vec<ProcessId>,
    /// When the ack wait expires and the digest is released anyway —
    /// the engine's fetch path covers any peer that missed the push.
    pub deadline: Instant,
}

impl PendingAck {
    /// Records an ack from `peer`; returns the total distinct acks.
    pub(crate) fn record(&mut self, peer: ProcessId) -> usize {
        if !self.acked.contains(&peer) {
            self.acked.push(peer);
        }
        self.acked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(tag: u64, size: usize) -> Transaction {
        Transaction::synthetic(tag, size)
    }

    #[test]
    fn assembler_seals_on_size() {
        let mut a =
            Assembler::new(BatchPolicy { max_bytes: 64, max_delay: Duration::from_secs(10) });
        let now = Instant::now();
        assert!(!a.push(tx(1, 32), now), "32 of 64 bytes: not full");
        assert!(a.push(tx(2, 32), now), "64 of 64 bytes: full");
        let txs = a.take();
        assert_eq!(txs.len(), 2);
        assert!(a.is_empty());
        assert!(!a.overdue(now + Duration::from_secs(60)), "empty assembler is never overdue");
    }

    #[test]
    fn assembler_seals_on_age() {
        let mut a = Assembler::new(BatchPolicy {
            max_bytes: 1 << 20,
            max_delay: Duration::from_millis(10),
        });
        let start = Instant::now();
        a.push(tx(1, 8), start);
        assert!(!a.overdue(start));
        assert!(a.overdue(start + Duration::from_millis(10)));
        assert!(a.nap(start) <= Duration::from_millis(10));
        assert_eq!(a.take().len(), 1);
    }

    #[test]
    fn pending_ack_counts_distinct_peers() {
        let mut pending = PendingAck {
            digest: BatchDigest::new([1; 32]),
            acked: Vec::new(),
            deadline: Instant::now(),
        };
        assert_eq!(pending.record(ProcessId::new(1)), 1);
        assert_eq!(pending.record(ProcessId::new(1)), 1, "duplicate ack does not double-count");
        assert_eq!(pending.record(ProcessId::new(2)), 2);
    }
}
