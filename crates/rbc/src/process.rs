//! Adapter running any [`ReliableBroadcast`] as a simulator [`Actor`].

use bytes::Bytes;
use dagrider_simnet::{Actor, Context};
use dagrider_trace::{TraceEvent, Tracer};
use dagrider_types::{Decode, Encode, ProcessId, Round};

use crate::api::{RbcAction, RbcDelivery, ReliableBroadcast};

/// A standalone reliable-broadcast process: broadcasts a queue of payloads
/// on startup and records everything it delivers.
///
/// Used by the RBC property tests and the communication-complexity
/// benchmarks; the full protocol stack embeds the state machines directly.
#[derive(Debug)]
pub struct RbcProcess<B> {
    rbc: B,
    to_broadcast: Vec<(Round, Vec<u8>)>,
    delivered: Vec<RbcDelivery>,
    decode_failures: usize,
    tracer: Option<Tracer>,
}

impl<B: ReliableBroadcast> RbcProcess<B> {
    /// Creates a process that will `r_bcast` each `(round, payload)` pair
    /// at startup.
    pub fn new(rbc: B, to_broadcast: Vec<(Round, Vec<u8>)>) -> Self {
        Self { rbc, to_broadcast, delivered: Vec::new(), decode_failures: 0, tracer: None }
    }

    /// Records the endpoint's phase events, stamped with the simulator's
    /// virtual clock, into a ring of `capacity` records.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.tracer = Some(Tracer::new(self.rbc.me(), capacity));
        self
    }

    /// The phase-event ring (`None` unless [`RbcProcess::with_trace`]).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Everything delivered so far, in delivery order.
    pub fn delivered(&self) -> &[RbcDelivery] {
        &self.delivered
    }

    /// Messages that failed to decode (malformed/malicious wire bytes).
    pub fn decode_failures(&self) -> usize {
        self.decode_failures
    }

    /// The underlying broadcast endpoint.
    pub fn rbc(&self) -> &B {
        &self.rbc
    }

    fn apply(&mut self, actions: Vec<RbcAction<B::Message>>, ctx: &mut Context<'_>) {
        for action in actions {
            match action {
                RbcAction::Send(to, message) => {
                    ctx.send(to, Bytes::from(message.to_bytes()));
                }
                RbcAction::Deliver(delivery) => self.delivered.push(delivery),
                RbcAction::Phase(instance, phase) => {
                    if let Some(tracer) = self.tracer.as_mut() {
                        tracer.set_now(ctx.now());
                        let primitive = B::PRIMITIVE;
                        tracer.record(TraceEvent::RbcPhase { instance, primitive, phase });
                    }
                }
            }
        }
    }
}

impl<B: ReliableBroadcast> Actor for RbcProcess<B> {
    fn init(&mut self, ctx: &mut Context<'_>) {
        let queued = std::mem::take(&mut self.to_broadcast);
        for (round, payload) in queued {
            let actions = self.rbc.rbcast(payload, round, ctx.rng());
            self.apply(actions, ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        match B::Message::from_bytes(payload) {
            Ok(message) => {
                let actions = self.rbc.on_message(from, message, ctx.rng());
                self.apply(actions, ctx);
            }
            Err(_) => self.decode_failures += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use dagrider_simnet::{Simulation, UniformScheduler};
    use dagrider_types::Committee;

    use super::*;
    use crate::avid::AvidRbc;
    use crate::bracha::BrachaRbc;
    use crate::probabilistic::ProbabilisticRbc;

    fn all_deliver_identically<B: ReliableBroadcast>(n: usize, seed: u64) {
        let committee = Committee::new(n).unwrap();
        let actors: Vec<RbcProcess<B>> = committee
            .members()
            .map(|p| {
                RbcProcess::new(
                    B::new(committee, p),
                    vec![(Round::new(1), format!("payload-from-{p}").into_bytes())],
                )
            })
            .collect();
        let mut sim = Simulation::new(committee, actors, UniformScheduler::new(1, 20), seed);
        sim.run();
        let reference: Vec<_> = {
            let mut d = sim.actor(ProcessId::new(0)).delivered().to_vec();
            d.sort_by_key(|x| (x.source, x.round));
            d
        };
        assert_eq!(reference.len(), n, "{}: everyone's broadcast delivers", B::name());
        for p in committee.members() {
            let mut d = sim.actor(p).delivered().to_vec();
            d.sort_by_key(|x| (x.source, x.round));
            assert_eq!(d, reference, "{}: {p} disagrees", B::name());
        }
    }

    #[test]
    fn bracha_full_stack_agreement() {
        all_deliver_identically::<BrachaRbc>(4, 1);
        all_deliver_identically::<BrachaRbc>(7, 2);
    }

    #[test]
    fn avid_full_stack_agreement() {
        all_deliver_identically::<AvidRbc>(4, 3);
        all_deliver_identically::<AvidRbc>(7, 4);
    }

    #[test]
    fn probabilistic_full_stack_agreement() {
        all_deliver_identically::<ProbabilisticRbc>(4, 5);
        all_deliver_identically::<ProbabilisticRbc>(7, 6);
    }

    #[test]
    fn malformed_bytes_are_counted_not_crashing() {
        use dagrider_simnet::Either;

        /// Broadcasts undecodable garbage to everyone at startup.
        struct GarbageSender;
        impl Actor for GarbageSender {
            fn init(&mut self, ctx: &mut Context<'_>) {
                ctx.broadcast_to_others(Bytes::from_static(&[0xff, 0xff, 0xff, 0xff]));
            }
            fn on_message(&mut self, _: ProcessId, _: &[u8], _: &mut Context<'_>) {}
        }

        let committee = Committee::new(4).unwrap();
        let actors: Vec<Either<RbcProcess<BrachaRbc>, GarbageSender>> = committee
            .members()
            .map(|p| {
                if p == ProcessId::new(3) {
                    Either::Right(GarbageSender)
                } else {
                    Either::Left(RbcProcess::new(
                        BrachaRbc::new(committee, p),
                        vec![(Round::new(1), b"ok".to_vec())],
                    ))
                }
            })
            .collect();
        let mut sim = Simulation::new(committee, actors, UniformScheduler::new(1, 5), 9);
        sim.mark_byzantine(ProcessId::new(3));
        sim.run();
        for p in [0u32, 1, 2].map(ProcessId::new) {
            let actor = sim.actor(p).as_left().unwrap();
            assert_eq!(actor.decode_failures(), 1, "{p} should have seen garbage");
            // The honest broadcasts still delivered despite the garbage.
            assert_eq!(actor.delivered().len(), 3);
        }
    }
}
