//! Byzantine actor implementations for fault-injection tests and
//! experiments.
//!
//! The model (§2) allows up to `f` processes to behave arbitrarily. These
//! actors realize the canonical attacks against the broadcast layer:
//! equivocation (which the RBC quorums must neutralize) and muteness
//! (which the DAG layer must tolerate by advancing on `2f + 1` vertices).

use bytes::Bytes;
use dagrider_simnet::{Actor, Context};
use dagrider_types::{Encode, ProcessId, Round};

use crate::bracha::{BrachaKind, BrachaMessage};

/// A Byzantine process that stays completely silent: it never broadcasts
/// and ignores all traffic. Indistinguishable from a crash to its peers.
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentActor;

impl Actor for SilentActor {
    fn on_message(&mut self, _from: ProcessId, _payload: &[u8], _ctx: &mut Context<'_>) {}
}

/// A Byzantine Bracha sender that **equivocates**: it `INIT`s payload `a`
/// to one half of the committee and payload `b` to the other half, then
/// participates honestly in the echo/ready phases for whatever it receives
/// (maximizing confusion).
///
/// Reliable broadcast must ensure that correct processes deliver at most
/// one of the two payloads — and all the same one (Agreement + Integrity).
#[derive(Debug)]
pub struct BrachaEquivocator {
    round: Round,
    payload_a: Vec<u8>,
    payload_b: Vec<u8>,
    inner: crate::bracha::BrachaRbc,
}

impl BrachaEquivocator {
    /// Creates an equivocator that will send `payload_a` / `payload_b` for
    /// its vertex in `round`.
    pub fn new(
        committee: dagrider_types::Committee,
        me: ProcessId,
        round: Round,
        payload_a: Vec<u8>,
        payload_b: Vec<u8>,
    ) -> Self {
        use crate::api::ReliableBroadcast;
        Self { round, payload_a, payload_b, inner: crate::bracha::BrachaRbc::new(committee, me) }
    }
}

impl Actor for BrachaEquivocator {
    fn init(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me();
        let committee = ctx.committee();
        for (i, to) in committee.others(me).enumerate() {
            let payload = if i % 2 == 0 { self.payload_a.clone() } else { self.payload_b.clone() };
            let msg =
                BrachaMessage { source: me, round: self.round, kind: BrachaKind::Init(payload) };
            ctx.send(to, Bytes::from(msg.to_bytes()));
        }
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        use crate::api::{RbcAction, ReliableBroadcast};
        use dagrider_types::Decode;
        // Participate "honestly" in everyone's instances so the run makes
        // progress; the damage was done in init.
        if let Ok(message) = BrachaMessage::from_bytes(payload) {
            for action in self.inner.on_message(from, message, ctx.rng()) {
                if let RbcAction::Send(to, m) = action {
                    ctx.send(to, Bytes::from(m.to_bytes()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dagrider_simnet::{Either, Simulation, UniformScheduler};
    use dagrider_types::Committee;

    use super::*;
    use crate::api::ReliableBroadcast;
    use crate::bracha::BrachaRbc;
    use crate::process::RbcProcess;

    type Mixed = Either<RbcProcess<BrachaRbc>, BrachaEquivocator>;

    #[test]
    fn equivocation_never_splits_correct_processes() {
        for seed in 0..20u64 {
            let committee = Committee::new(4).unwrap();
            let byz = ProcessId::new(3);
            let actors: Vec<Mixed> = committee
                .members()
                .map(|p| {
                    if p == byz {
                        Either::Right(BrachaEquivocator::new(
                            committee,
                            p,
                            Round::new(1),
                            b"AAAA".to_vec(),
                            b"BBBB".to_vec(),
                        ))
                    } else {
                        Either::Left(RbcProcess::new(BrachaRbc::new(committee, p), Vec::new()))
                    }
                })
                .collect();
            let mut sim = Simulation::new(committee, actors, UniformScheduler::new(1, 10), seed);
            sim.mark_byzantine(byz);
            sim.run();
            // Collect what each correct process delivered for (p3, r1).
            let outcomes: Vec<Option<Vec<u8>>> = committee
                .members()
                .filter(|&p| p != byz)
                .map(|p| {
                    sim.actor(p)
                        .as_left()
                        .unwrap()
                        .delivered()
                        .iter()
                        .find(|d| d.source == byz)
                        .map(|d| d.payload.clone())
                })
                .collect();
            // Integrity + agreement: all deliveries (if any) are the same
            // payload, one of the two equivocated values.
            let delivered: Vec<&Vec<u8>> = outcomes.iter().flatten().collect();
            if let Some(first) = delivered.first() {
                assert!(
                    delivered.iter().all(|p| p == first),
                    "seed {seed}: correct processes split: {outcomes:?}"
                );
                assert!(**first == b"AAAA".to_vec() || **first == b"BBBB".to_vec());
            }
        }
    }

    #[test]
    fn silent_process_does_not_block_others() {
        let committee = Committee::new(4).unwrap();
        let silent = ProcessId::new(0);
        let actors: Vec<Either<RbcProcess<BrachaRbc>, SilentActor>> = committee
            .members()
            .map(|p| {
                if p == silent {
                    Either::Right(SilentActor)
                } else {
                    Either::Left(RbcProcess::new(
                        BrachaRbc::new(committee, p),
                        vec![(Round::new(1), format!("from-{p}").into_bytes())],
                    ))
                }
            })
            .collect();
        let mut sim = Simulation::new(committee, actors, UniformScheduler::new(1, 10), 5);
        sim.mark_byzantine(silent);
        sim.run();
        for p in committee.members().filter(|&p| p != silent) {
            let delivered = sim.actor(p).as_left().unwrap().delivered();
            assert_eq!(delivered.len(), 3, "{p} should deliver the three correct broadcasts");
        }
    }
}
