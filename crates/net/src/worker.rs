//! Worker lanes: transaction batching and peer-to-peer dissemination.
//!
//! This is the Narwhal-style decoupling of data dissemination from
//! consensus (PAPERS.md, "Bullshark"): client transactions go to worker
//! lanes, never to the consensus thread.
//!
//! A [`Lane`] is one open batch ([`Assembler`]) plus the lane's bounded
//! [`SendQueue`] toward each peer. The reactor (`crate::reactor`) owns
//! every lane: it fills the lane its node's current round picks from
//! drained client submissions and from `NetNode::submit_tx`, and seals
//! that lane once its batch is full or the round advances. Sealing
//! hashes the batch into a [`HashedBatch`], encodes one frame that every
//! peer queue shares ([`FramePool`]), and hands the batch to consensus,
//! whose engine holds the node's only copy. The reactor writes those
//! queues to the dedicated worker-lane connections announced with
//! [`WireMsg::WorkerHello`]. Nothing in this module spawns a thread or
//! blocks.
//!
//! Consensus stores each own batch and proposes its digest in the node's
//! next vertex at once. Inbound, the reactor classifies `WorkerHello`
//! connections and hashes each pushed batch before handing it to the
//! consensus thread, whose engine stores it. A peer's vertex enters the
//! DAG only once the batches it names are stored; one that arrives
//! ahead of its push waits in the buffer, and the engine fetches what
//! is still missing once its fetch timer fires.
//!
//! Consensus therefore carries a 32-byte digest per batch regardless of
//! transaction size.

use dagrider_core::HashedBatch;
use dagrider_types::{Batch, ProcessId, Transaction};

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

/// Accumulates one lane's open batch and says when it is full.
#[derive(Debug, Default)]
pub(crate) struct Assembler {
    pending: Vec<Transaction>,
    pending_bytes: usize,
}

impl Assembler {
    /// Adds one transaction; returns `true` when the batch has reached
    /// [`BATCH_MAX_BYTES`] and should seal immediately.
    pub(crate) fn push(&mut self, tx: Transaction) -> bool {
        self.pending_bytes += tx.len();
        self.pending.push(tx);
        self.pending_bytes >= BATCH_MAX_BYTES
    }

    /// Whether the batch holds no transaction.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Takes the pending transactions, resetting the assembler.
    pub(crate) fn take(&mut self) -> Vec<Transaction> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending)
    }
}

/// One worker lane, owned by the reactor: the open batch and the lane's
/// queue toward each peer's worker connection.
pub(crate) struct Lane {
    me: ProcessId,
    worker: u32,
    /// The open batch. The reactor seals it when [`Assembler::push`]
    /// reports it full, or when the round that filled it has passed and
    /// it is not empty, so a sealed batch is never empty.
    pub(crate) open: Assembler,
    peer_queues: Vec<Arc<SendQueue>>,
}

impl Lane {
    /// Lane `worker` of process `me`, fanning out to `peer_queues`.
    pub(crate) fn new(me: ProcessId, worker: u32, peer_queues: Vec<Arc<SendQueue>>) -> Self {
        Self { me, worker, open: Assembler::default(), peer_queues }
    }

    /// Seals the open batch: hashes it, encodes one frame that every peer
    /// queue shares, and hands the batch to consensus, which proposes its
    /// digest in the node's next vertex.
    pub(crate) fn seal(&mut self, frames: &FramePool, consensus: &Sender<Event>) {
        let batch = HashedBatch::new(Batch::new(self.me, self.worker, self.open.take()));
        let frame = frames.encode_with(|buf| WireMsg::encode_batch_into(batch.batch(), buf));
        for queue in &self.peer_queues {
            queue.push(frame.clone());
        }
        let _ = consensus.send(Event::OwnBatch(batch));
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
        let half = BATCH_MAX_BYTES / 2;
        let mut a = Assembler::default();
        assert!(a.is_empty());
        assert!(!a.push(tx(1, half - 1)));
        assert!(!a.push(tx(2, half)), "one byte short of the bound: not full");
        assert!(a.push(tx(3, 1)), "at the bound: full");
        assert_eq!(a.take().len(), 3);
        assert!(a.is_empty(), "take resets the assembler");
        assert!(!a.push(tx(4, half)), "the byte count restarts after take");
        assert!(a.push(tx(5, half)));
    }
}
