//! Protocol invariant auditing for the DAG-Rider reproduction.
//!
//! DAG-Rider's safety argument (§4–§5 of *All You Need is DAG*) rests on a
//! small catalogue of structural invariants — the DAG is acyclic and
//! round-monotone, every vertex carries a `2f + 1` strong-edge quorum into
//! the previous round, weak edges point only to otherwise-unreachable
//! orphans, reliable broadcast rules out slot duplicates — plus the
//! ordering layer's commit rule and leader chain. This crate re-derives
//! each invariant from the paper and machine-checks it, independently of
//! the code paths that are supposed to maintain it:
//!
//! * [`DagAuditor`] checks a live [`Dag`](dagrider_core::Dag), a
//!   serialized [`DagSnapshot`], or a commit record, returning a typed
//!   [`InvariantViolation`] (with paper citation) per breach;
//! * [`AuditedSimulation`] wires the auditor into simnet runs: it audits
//!   every honest process of a finished run;
//! * [`TraceReport`] digests structured event traces into per-wave commit
//!   latencies (ticks, §3 asynchronous time units, rounds), ordering-lag
//!   distributions, and per-process traffic;
//! * the `audit-dag` binary audits snapshot files and the `trace-dag`
//!   binary prints trace reports from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditor;
pub mod report;
pub mod snapshot;
pub mod verify;
pub mod violation;

pub use auditor::DagAuditor;
pub use report::{LagStats, ProcessTraffic, TraceReport, WaveLatency};
pub use snapshot::{DagSnapshot, SnapshotEntry};
pub use verify::{AuditReport, AuditedSimulation};
pub use violation::InvariantViolation;
