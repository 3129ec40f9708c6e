//! Reliable broadcast instantiations for DAG-Rider.
//!
//! The paper (§2) abstracts its communication layer behind a *reliable
//! broadcast* with *Agreement*, *Integrity*, and *Validity*, and shows
//! (Table 1) how different instantiations trade communication complexity
//! for assumptions:
//!
//! | Instantiation | Per-broadcast bits | DAG-Rider amortized/decision |
//! |---------------|--------------------|------------------------------|
//! | [`BrachaRbc`] — Bracha \[11\] | `O(n²·M)` | `O(n²)` |
//! | [`ProbabilisticRbc`] — gossip/sample à la Guerraoui et al. \[25\] | `O(n·log n·M)` whp | `O(n·log n)`, `(1-ε)` liveness |
//! | [`AvidRbc`] — Cachin–Tessaro verifiable information dispersal \[14\] | `O(n·M + n²·log n)` | `O(n)` with `n log n` batching |
//!
//! All three are **sans-io state machines** implementing
//! [`ReliableBroadcast`]: they consume decoded messages and emit
//! [`RbcAction`]s (sends, deliveries, and the phases each instance
//! reaches). [`RbcProcess`] adapts any of them
//! to a `dagrider-simnet` [`Actor`](dagrider_simnet::Actor) for standalone
//! operation, and `dagrider-core` embeds them beneath the DAG layer.
//!
//! The interface mirrors the paper exactly: [`ReliableBroadcast::rbcast`]
//! is `r_bcast_k(m, r)`; an [`RbcAction::Deliver`] is
//! `r_deliver_i(m, r, p_k)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod avid;
mod bracha;
pub mod byzantine;
mod probabilistic;
mod process;

pub use api::{RbcAction, RbcDelivery, ReliableBroadcast};
pub use avid::{AvidMessage, AvidRbc};
pub use bracha::{BrachaKind, BrachaMessage, BrachaRbc};
pub use probabilistic::{ProbConfig, ProbKind, ProbMessage, ProbabilisticRbc};
pub use process::RbcProcess;
