//! The engine's event stream: every transition an engine call went
//! through, returned next to the call's outputs.
//!
//! The engine keeps none of it. Each driver routes the stream where it
//! needs it: the simulator adapter stamps [`EngineEvent::trace`] with
//! virtual time into a trace ring, the TCP runtime persists
//! [`EngineEvent::into_durable`] before it routes the call's outputs, and
//! tests keep the raw stream.

use dagrider_crypto::CoinShare;
use dagrider_trace::TraceEvent;
use dagrider_types::{Batch, BatchDigest, ProcessId, Vertex};

use crate::durable::DurableEvent;

/// One transition of a [`DagRiderEngine`](crate::DagRiderEngine) call.
/// Each transition appears once, in the order it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A transition of the trace taxonomy. Wave commits and skips are
    /// also durable (see [`EngineEvent::into_durable`]).
    Trace(TraceEvent),
    /// A vertex new to this process joined the local DAG (Algorithm 2
    /// lines 6–9): traced as `VertexInserted`, persisted as
    /// [`DurableEvent::Vertex`].
    VertexInserted(Vertex),
    /// A batch new to this process joined the local batch store: traced
    /// as `BatchStored`, persisted as [`DurableEvent::Batch`].
    BatchStored {
        /// The batch's content digest.
        digest: BatchDigest,
        /// The stored batch.
        batch: Batch,
    },
    /// The coin accepted a share it did not hold yet (this process's own
    /// share included): persisted as [`DurableEvent::CoinShare`].
    ShareAccepted(CoinShare),
    /// Wire input from `from` failed to decode.
    Rejected {
        /// The authenticated peer the input came from.
        from: ProcessId,
    },
    /// The coin refused a share from `from`: its proof failed, or it was
    /// issued by another process.
    ShareRejected {
        /// The authenticated peer the share came from.
        from: ProcessId,
    },
}

impl From<TraceEvent> for EngineEvent {
    fn from(event: TraceEvent) -> Self {
        EngineEvent::Trace(event)
    }
}

impl EngineEvent {
    /// The trace record this event contributes, if any.
    pub fn trace(&self) -> Option<TraceEvent> {
        match self {
            EngineEvent::Trace(event) => Some(*event),
            EngineEvent::VertexInserted(vertex) => {
                Some(TraceEvent::VertexInserted { vertex: vertex.reference() })
            }
            EngineEvent::BatchStored { digest, .. } => {
                Some(TraceEvent::BatchStored { digest: *digest })
            }
            EngineEvent::ShareAccepted(_)
            | EngineEvent::Rejected { .. }
            | EngineEvent::ShareRejected { .. } => None,
        }
    }

    /// The fact a restart needs, if this event is one. A driver with a
    /// durable store must persist it before it routes the outputs of the
    /// call that returned it.
    pub fn into_durable(self) -> Option<DurableEvent> {
        match self {
            EngineEvent::VertexInserted(vertex) => Some(DurableEvent::Vertex(vertex)),
            EngineEvent::BatchStored { batch, .. } => Some(DurableEvent::Batch(batch)),
            EngineEvent::ShareAccepted(share) => Some(DurableEvent::CoinShare(share)),
            EngineEvent::Trace(TraceEvent::LeaderCommitted { wave, leader, .. }) => {
                Some(DurableEvent::Commit { wave, leader: leader.source })
            }
            EngineEvent::Trace(TraceEvent::LeaderSkipped { wave, leader }) => {
                Some(DurableEvent::Commit { wave, leader })
            }
            EngineEvent::Trace(_)
            | EngineEvent::Rejected { .. }
            | EngineEvent::ShareRejected { .. } => None,
        }
    }
}
