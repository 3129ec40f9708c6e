//! The reliable broadcast abstraction (§2 of the paper).

use dagrider_trace::{RbcPhase, RbcPrimitive};
use dagrider_types::{Committee, Decode, Encode, ProcessId, Round, VertexRef};
use rand::rngs::StdRng;

/// A reliable-broadcast delivery: the paper's `r_deliver_i(m, r, p_k)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RbcDelivery {
    /// `p_k` — the process that called `r_bcast(m, r)`.
    pub source: ProcessId,
    /// `r` — the broadcast's round number.
    pub round: Round,
    /// `m` — the delivered payload bytes.
    pub payload: Vec<u8>,
}

/// An effect emitted by a broadcast state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbcAction<M> {
    /// Put `message` on the wire to another process. (Self-routing is
    /// handled inside the state machines; `Send` targets are always other
    /// processes.)
    Send(ProcessId, M),
    /// Output `r_deliver` to the layer above.
    Deliver(RbcDelivery),
    /// The instance carrying this vertex slot reached a phase at this
    /// process. Nothing to route: drivers that trace report it as a
    /// `TraceEvent::RbcPhase` of [`ReliableBroadcast::PRIMITIVE`].
    Phase(VertexRef, RbcPhase),
}

impl<M> RbcAction<M> {
    /// The delivery, if this action is one.
    pub fn as_delivery(&self) -> Option<&RbcDelivery> {
        match self {
            RbcAction::Deliver(d) => Some(d),
            RbcAction::Send(..) | RbcAction::Phase(..) => None,
        }
    }
}

/// A multi-instance reliable broadcast endpoint for one process.
///
/// One value of this type handles *all* broadcast instances — an instance
/// is identified by `(source, round)`, matching the paper's convention that
/// each process broadcasts at most one message per round (its DAG vertex).
///
/// # Guarantees (§2)
///
/// * **Agreement** — if a correct process delivers `(m, r, p_k)`, every
///   correct process eventually delivers it (with probability 1; the
///   probabilistic instantiation achieves this whp).
/// * **Integrity** — at most one delivery per `(r, p_k)`, regardless of `m`.
/// * **Validity** — a correct sender's broadcast is eventually delivered by
///   all correct processes.
pub trait ReliableBroadcast {
    /// The wire message type of this instantiation.
    type Message: Encode + Decode + Clone + std::fmt::Debug;

    /// Which primitive this is, for the phases it reports.
    const PRIMITIVE: RbcPrimitive;

    /// Creates the endpoint for process `me`. `seed` feeds any local
    /// randomness (only the probabilistic instantiation uses it).
    fn new(committee: Committee, me: ProcessId, seed: u64) -> Self;

    /// The committee this endpoint serves.
    fn committee(&self) -> Committee;

    /// This endpoint's process id.
    fn me(&self) -> ProcessId;

    /// `r_bcast_me(payload, round)`: starts reliably broadcasting. Correct
    /// callers use strictly increasing rounds and broadcast at most once
    /// per round.
    fn rbcast(
        &mut self,
        payload: Vec<u8>,
        round: Round,
        rng: &mut StdRng,
    ) -> Vec<RbcAction<Self::Message>>;

    /// Handles a decoded protocol message from `from` (an authenticated
    /// peer id; the message contents are untrusted).
    fn on_message(
        &mut self,
        from: ProcessId,
        message: Self::Message,
        rng: &mut StdRng,
    ) -> Vec<RbcAction<Self::Message>>;

    /// A short human-readable name for reports ("bracha", "avid", …).
    fn name() -> &'static str;

    /// Garbage-collects per-instance state for rounds strictly below
    /// `before`. Safe once the layer above has consumed those rounds; the
    /// default implementation keeps everything.
    fn prune(&mut self, before: Round) {
        let _ = before;
    }
}
