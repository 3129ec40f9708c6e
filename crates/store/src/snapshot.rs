//! Compacted store snapshots: a [`DagSnapshot`] plus the extra engine
//! state a recovering node needs that the DAG alone does not carry.
//!
//! A snapshot captures three things from a live engine:
//!
//! 1. the retained DAG (every vertex above the GC floor, digested per
//!    entry — the `DAGSNAP1` format shared with `dagrider-analysis`),
//! 2. the **opened coin leaders** `(wave, leader)` for every wave whose
//!    share threshold this process has already crossed — the coin
//!    aggregator drops share proofs after opening, so individual shares
//!    cannot be re-serialized, but the opened result is all replay
//!    needs, and
//! 3. the **worker batches** currently in the engine's batch store, so
//!    digest-carrying vertices can resolve to transactions without
//!    refetching from peers. Garbage collection drops the batches that
//!    only collected vertices named, so these are the batches the
//!    retained DAG and the buffer name, plus those no vertex has named
//!    yet: the section is bounded by the GC window, not by the node's
//!    history.
//!
//! Installing a snapshot truncates the WAL: the snapshot supersedes
//! every record appended before it, and the WAL restarts empty as the
//! tail beyond the snapshot.

use dagrider_analysis::DagSnapshot;
use dagrider_core::DagRiderEngine;
use dagrider_rbc::ReliableBroadcast;
use dagrider_types::{Batch, Decode, DecodeError, Encode, ProcessId};

/// Magic prefix of the store snapshot file format (the nested DAG
/// section carries its own `DAGSNAP1` magic).
const MAGIC: [u8; 8] = *b"DAGSTOR1";

/// A compacted checkpoint of one node's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    dag: DagSnapshot,
    leaders: Vec<(u64, ProcessId)>,
    batches: Vec<Batch>,
}

impl StoreSnapshot {
    /// Captures a snapshot of `engine`'s durable state: retained DAG,
    /// opened coin leaders, and the worker batches the store holds now.
    /// The copy runs on the caller's thread.
    #[must_use]
    pub fn capture<B: ReliableBroadcast>(engine: &DagRiderEngine<B>) -> Self {
        Self {
            dag: DagSnapshot::capture(engine.dag()),
            leaders: engine.coin_leaders(),
            batches: engine.stored_batches(),
        }
    }

    /// Assembles a snapshot from already-separated parts.
    #[must_use]
    pub fn from_parts(
        dag: DagSnapshot,
        leaders: Vec<(u64, ProcessId)>,
        batches: Vec<Batch>,
    ) -> Self {
        Self { dag, leaders, batches }
    }

    /// The captured DAG section.
    #[must_use]
    pub fn dag(&self) -> &DagSnapshot {
        &self.dag
    }

    /// Opened coin results as `(wave number, leader)` pairs, ascending.
    #[must_use]
    pub fn leaders(&self) -> &[(u64, ProcessId)] {
        &self.leaders
    }

    /// Worker batches held in the batch store at capture time.
    #[must_use]
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }
}

impl Encode for StoreSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        MAGIC.encode(buf);
        self.dag.encode(buf);
        self.leaders.encode(buf);
        self.batches.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        MAGIC.encoded_len()
            + self.dag.encoded_len()
            + self.leaders.encoded_len()
            + self.batches.encoded_len()
    }
}

impl Decode for StoreSnapshot {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let magic = <[u8; 8]>::decode(buf)?;
        if magic != MAGIC {
            return Err(DecodeError::Invalid("not a store snapshot (bad magic)"));
        }
        let dag = DagSnapshot::decode(buf)?;
        let leaders = Vec::<(u64, ProcessId)>::decode(buf)?;
        let batches = Vec::<Batch>::decode(buf)?;
        Ok(Self { dag, leaders, batches })
    }
}
