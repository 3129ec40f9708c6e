//! **DAG-Rider** — the asynchronous Byzantine Atomic Broadcast protocol of
//! Keidar, Kokoris-Kogias, Naor & Spiegelman, *All You Need is DAG*
//! (PODC 2021).
//!
//! The protocol is two independent layers:
//!
//! 1. **DAG construction** ([`DagCore`], paper §4 / Algorithm 2): each
//!    process reliably broadcasts one vertex per round carrying a block of
//!    transactions, ≥ `2f+1` *strong edges* to the previous round, and
//!    *weak edges* to any older vertex it cannot otherwise reach. Vertices
//!    park in a buffer until their causal history is complete, so the local
//!    DAG ([`Dag`]) is always causally closed.
//! 2. **Zero-overhead ordering** ([`Ordering`], paper §5 / Algorithm 3):
//!    rounds are grouped into waves of 4. When a wave completes, a global
//!    perfect coin retroactively elects its leader vertex; the leader
//!    *commits* if ≥ `2f+1` vertices of the wave's last round have strong
//!    paths to it. Committed leaders chain backwards through strong paths,
//!    and each leader's causal history is atomically delivered in a
//!    deterministic order. **No communication beyond the DAG itself** is
//!    needed (the coin shares piggyback as tiny messages).
//!
//! [`DagRiderEngine`] assembles both layers over any
//! [`ReliableBroadcast`](dagrider_rbc::ReliableBroadcast) instantiation as a
//! **sans-I/O state machine**: drivers feed it typed [`EngineInput`]s and
//! route the typed [`EngineOutput`]s it returns, next to the
//! [`EngineEvent`]s each call went through. This crate performs no
//! I/O and depends on no runtime — the deterministic simulator drives it
//! through the `dagrider-simactor` adapter, and the real TCP cluster
//! drives it from `dagrider-net`.
//!
//! # Quickstart
//!
//! ```
//! use dagrider_core::{DagRiderEngine, EngineOutput, NodeConfig};
//! use dagrider_crypto::deal_coin_keys;
//! use dagrider_rbc::BrachaRbc;
//! use dagrider_types::{Committee, ProcessId, Time};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let committee = Committee::new(4)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut keys = deal_coin_keys(&committee, &mut rng);
//! let config = NodeConfig::default().with_max_round(20);
//!
//! let mut engine: DagRiderEngine<BrachaRbc> =
//!     DagRiderEngine::new(committee, ProcessId::new(0), keys.remove(0), config);
//!
//! // Starting the engine proposes the round-1 vertex: the outputs are the
//! // reliable-broadcast sends the driver must put on the wire.
//! let turn = engine.start(Time::ZERO, &mut rng);
//! assert!(turn.outputs.iter().any(|o| matches!(o, EngineOutput::Send { .. })));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod construction;
mod dag;
mod durable;
mod engine;
mod event;
mod ordering;
mod reach;
pub mod render;

pub use construction::{DagCore, DagEvent, BATCH_MAX_BYTES};
pub use dag::Dag;
pub use durable::DurableEvent;
pub use engine::{
    batch_digest, DagRiderEngine, EngineInput, EngineOutput, HashedBatch, NodeConfig, NodeMessage,
    Turn, VertexPayload, FETCH_RETRY_DELAY, FETCH_TIMER_TAG,
};
pub use event::EngineEvent;
pub use ordering::{CommitEvent, Delivery, OrderedVertex, Ordering, WaveOutcome};
