//! **Durable DAG store** — crash recovery for DAG-Rider nodes.
//!
//! DAG-Rider's engine is a deterministic sans-I/O state machine: feed it
//! the same inputs and it emits byte-identical outputs. This crate
//! exploits that determinism for durability. Instead of checkpointing
//! opaque engine internals, a node appends the small set of
//! **engine-visible durable events** — delivered vertices, accepted coin
//! shares, stored worker batches, ordering commits — to a write-ahead
//! log ([`Wal`]), and recovery simply replays them into a fresh engine
//! ([`replay_into`]). Periodically the log is compacted into a
//! [`StoreSnapshot`] (the retained DAG in the `DAGSNAP1` format shared
//! with `dagrider-analysis`, plus opened coin leaders and the batches
//! the engine still holds: those the retained DAG names and those no
//! vertex has named yet), after which the WAL restarts empty.
//!
//! The crash-safety contract is deliberately modest: the store is a
//! **recovery accelerator**, not the safety root. Losing an unsynced WAL
//! suffix — or the entire store — is equivalent to having crashed
//! earlier; the recovering node replays what it has and then uses the
//! ordinary rejoin-sync path to fetch only the missed suffix from
//! peers, who by quorum intersection hold everything a correct node
//! ever delivered. What the store *must* guarantee is the converse:
//! replay never delivers anything the pre-crash run did not, in an
//! order it did not — the prefix property the kill-and-restart
//! equivalence tests and `DagAuditor::audit_recovery` pin.
//!
//! [`DurableStore`] manages the directory (`dag.wal` + `dag.snap`),
//! group-commit [`FsyncPolicy`]s, atomic snapshot installation, and a
//! [`FaultPlan`] hook that simulates a kill, torn write, or bit-flip at
//! any chosen append boundary for the fault-injection test matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod replay;
mod snapshot;
mod store;
mod wal;

pub use crc::crc32;
pub use replay::{replay_into, ReplayStats};
pub use snapshot::StoreSnapshot;
pub use store::{
    DurableStore, FaultKind, FaultPlan, FsyncPolicy, Recovered, SNAPSHOT_FILE, WAL_FILE,
};
pub use wal::{
    encode_record, scan_wal, Wal, WalDefect, WalScan, MAX_RECORD_LEN, RECORD_HEADER_LEN,
};
