//! Worker lanes: transaction batching and peer-to-peer dissemination.
//!
//! This is the Narwhal-style decoupling of data dissemination from
//! consensus (PAPERS.md, "Bullshark"): client transactions go to worker
//! lanes, never to the consensus thread.
//!
//! A [`Lane`] is one open batch ([`Assembler`]) plus the lane's bounded
//! [`SendQueue`] toward each peer. The reactor (`crate::reactor`) owns
//! every lane: it fills them round-robin from drained client submissions
//! and from `NetNode::submit_tx`, and seals a lane once its batch is full
//! or its oldest transaction is `BATCH_INTERVAL` old. Sealing hashes the
//! batch into a [`HashedBatch`], encodes one frame that every peer queue
//! shares ([`FramePool`]), and hands the batch to consensus, whose engine
//! holds the node's only copy. The reactor writes those queues to the
//! dedicated worker-lane connections announced with
//! [`WireMsg::WorkerHello`]. Nothing in this module spawns a thread or
//! blocks.
//!
//! Inbound, the reactor classifies `WorkerHello` connections and hashes
//! each pushed batch before handing it to the consensus thread; consensus
//! acknowledges on the consensus connection ([`WireMsg::BatchAck`]) and
//! releases the digest into a vertex payload once a quorum has
//! acknowledged (or an ack timeout expires — the engine's bounded fetch
//! path covers stragglers).
//!
//! Consensus therefore carries a 32-byte digest per batch regardless of
//! transaction size.

use std::time::{Duration, Instant};

use dagrider_core::HashedBatch;
use dagrider_types::{Batch, BatchDigest, ProcessId, Transaction};

use crate::frame::FramePool;
use crate::queue::SendQueue;
use crate::runtime::Event;
use crate::sync::mpsc::Sender;
use crate::sync::Arc;
use crate::wire::WireMsg;

/// A lane seals its open batch once transaction payload reaches this
/// size. Client admission and `NetNode::submit_tx` refuse a transaction
/// larger than this, so a sealed batch holds less than twice this much.
pub const BATCH_MAX_BYTES: usize = 64 * 1024;

/// A lane seals an underfull batch once its oldest transaction is this
/// old, so a trickle of traffic still reaches consensus promptly.
const BATCH_INTERVAL: Duration = Duration::from_millis(10);

/// Batch assembly bounds for one worker lane.
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

    /// Takes the pending transactions, resetting the assembler.
    pub(crate) fn take(&mut self) -> Vec<Transaction> {
        self.pending_bytes = 0;
        self.oldest = None;
        std::mem::take(&mut self.pending)
    }
}

/// One worker lane, owned by the reactor: the open batch and the lane's
/// queue toward each peer's worker connection.
pub(crate) struct Lane {
    me: ProcessId,
    worker: u32,
    /// The open batch. The reactor seals it when [`Assembler::push`]
    /// reports it full or [`Assembler::overdue`] reports it due, so a
    /// sealed batch is never empty.
    pub(crate) open: Assembler,
    peer_queues: Vec<Arc<SendQueue>>,
}

impl Lane {
    /// Lane `worker` of process `me`, fanning out to `peer_queues` and
    /// bounded by [`BATCH_MAX_BYTES`] and `BATCH_INTERVAL`.
    pub(crate) fn new(me: ProcessId, worker: u32, peer_queues: Vec<Arc<SendQueue>>) -> Self {
        let policy = BatchPolicy { max_bytes: BATCH_MAX_BYTES, max_delay: BATCH_INTERVAL };
        Self { me, worker, open: Assembler::new(policy), peer_queues }
    }

    /// Seals the open batch: hashes it, encodes one frame that every peer
    /// queue shares, and hands the batch to consensus, which holds its
    /// digest until enough peers acknowledge.
    pub(crate) fn seal(&mut self, frames: &FramePool, consensus: &Sender<Event>) {
        let batch = HashedBatch::new(Batch::new(self.me, self.worker, self.open.take()));
        let frame = frames.encode_with(|buf| WireMsg::encode_batch_into(batch.batch(), buf));
        for queue in &self.peer_queues {
            queue.push(frame.clone());
        }
        let _ = consensus.send(Event::OwnBatch(batch));
    }
}

/// A digest one of the node's own lanes sealed, awaiting peer
/// acknowledgements before consensus proposes it. Tracked by the
/// consensus thread.
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
        assert_eq!(a.take().len(), 2);
        assert!(a.take().is_empty(), "take resets the assembler");
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
