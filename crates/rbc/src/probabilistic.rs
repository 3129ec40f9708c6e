//! Probabilistic (sample-based) reliable broadcast, modeled on Guerraoui
//! et al.'s *Scalable Byzantine Reliable Broadcast* (the paper's reference
//! \[25\]).
//!
//! Every per-instance interaction uses random samples of size
//! `s = O(log n)` instead of all-to-all traffic, in the three stages of
//! the original protocol:
//!
//! * **Murmur** (gossip): the payload floods along random gossip samples —
//!   each process forwards once, so the payload costs `O(n·s·|M|)` bits
//!   total instead of `O(n²·|M|)`.
//! * **Sieve** (echo): each process *subscribes* to a random echo sample;
//!   subscribed processes send it their (digest-sized) echoes directly.
//!   Enough matching echoes from the sample rule out equivocation whp.
//! * **Contagion** (ready/deliver): likewise with ready subscriptions —
//!   an amplification threshold (a few sampled readies → issue your own)
//!   and a higher delivery threshold over an independent delivery sample.
//!
//! Subscriptions are what make the thresholds concentrate: once every
//! correct process has echoed, a process hears from *all* correct members
//! of its own sample (no push-sampling variance), so the residual failure
//! probability `ε` comes only from samples unluckily packed with faulty
//! processes. All guarantees hold whp — the Table 1 row
//! "DAG-Rider + \[25\]": amortized `O(n log n)` at `(1-ε)` liveness.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dagrider_crypto::{sha256, Digest};
use dagrider_trace::{RbcPhase, RbcPrimitive};
use dagrider_types::{Committee, Decode, DecodeError, Encode, ProcessId, Round, VertexRef};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::api::{RbcAction, RbcDelivery, ReliableBroadcast};

/// Tuning for the sample-based broadcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbConfig {
    /// Sample size multiplier: `s = clamp(ceil(factor · ln n), 3, n-1)`.
    pub sample_factor: f64,
    /// Fraction of the echo sample that must echo one digest to turn
    /// ready.
    pub echo_threshold: f64,
    /// Fraction of the ready sample that triggers ready amplification.
    pub ready_threshold: f64,
    /// Fraction of the delivery sample required to deliver.
    pub deliver_threshold: f64,
}

impl Default for ProbConfig {
    fn default() -> Self {
        Self {
            sample_factor: 3.0,
            echo_threshold: 0.55,
            ready_threshold: 0.3,
            deliver_threshold: 0.6,
        }
    }
}

impl ProbConfig {
    /// The sample size for an `n`-process committee.
    pub fn sample_size(&self, n: usize) -> usize {
        let s = (self.sample_factor * (n as f64).ln()).ceil() as usize;
        s.clamp(3, n.saturating_sub(1).max(1))
    }
}

/// The phase of a [`ProbMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbKind {
    /// Gossiped payload (murmur).
    Gossip(Vec<u8>),
    /// Subscription request: "send me your echoes and/or readies for this
    /// instance" (sieve/contagion sampling).
    Subscribe {
        /// Subscribe to the target's echo.
        echo: bool,
        /// Subscribe to the target's ready.
        ready: bool,
    },
    /// Digest echo, sent to echo-subscribers (sieve).
    Echo(Digest),
    /// Delivery commitment, sent to ready-subscribers (contagion).
    Ready(Digest),
}

/// A probabilistic-broadcast message, tagged with its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbMessage {
    /// The broadcasting process of the instance.
    pub source: ProcessId,
    /// The instance's round number.
    pub round: Round,
    /// The phase payload.
    pub kind: ProbKind,
}

impl Encode for ProbMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source.encode(buf);
        self.round.encode(buf);
        match &self.kind {
            ProbKind::Gossip(p) => {
                0u8.encode(buf);
                p.encode(buf);
            }
            ProbKind::Subscribe { echo, ready } => {
                1u8.encode(buf);
                echo.encode(buf);
                ready.encode(buf);
            }
            ProbKind::Echo(d) => {
                2u8.encode(buf);
                d.encode(buf);
            }
            ProbKind::Ready(d) => {
                3u8.encode(buf);
                d.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let kind_len = match &self.kind {
            ProbKind::Gossip(p) => p.encoded_len(),
            ProbKind::Subscribe { .. } => 2,
            ProbKind::Echo(_) | ProbKind::Ready(_) => 32,
        };
        self.source.encoded_len() + self.round.encoded_len() + 1 + kind_len
    }
}

impl Decode for ProbMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let source = ProcessId::decode(buf)?;
        let round = Round::decode(buf)?;
        let tag = u8::decode(buf)?;
        let kind = match tag {
            0 => ProbKind::Gossip(Vec::<u8>::decode(buf)?),
            1 => ProbKind::Subscribe { echo: bool::decode(buf)?, ready: bool::decode(buf)? },
            2 => ProbKind::Echo(Digest::decode(buf)?),
            3 => ProbKind::Ready(Digest::decode(buf)?),
            _ => return Err(DecodeError::Invalid("unknown probabilistic phase tag")),
        };
        Ok(Self { source, round, kind })
    }
}

#[derive(Debug, Default)]
struct Instance {
    initialized: bool,
    gossiped: bool,
    /// The digest we echoed, if any (first payload wins).
    echoed: Option<Digest>,
    readied: Option<Digest>,
    delivered: bool,
    payload: Option<Vec<u8>>,
    payload_digest: Option<Digest>,
    /// Who we sample (we subscribed to them).
    echo_sample: Vec<ProcessId>,
    ready_sample: Vec<ProcessId>,
    delivery_sample: Vec<ProcessId>,
    /// Who subscribed to us.
    echo_subscribers: BTreeSet<ProcessId>,
    ready_subscribers: BTreeSet<ProcessId>,
    /// digest → sampled processes whose echo/ready we received.
    echoes: BTreeMap<Digest, BTreeSet<ProcessId>>,
    readies: BTreeMap<Digest, BTreeSet<ProcessId>>,
}

/// Probabilistic reliable broadcast endpoint. See the module docs above.
#[derive(Debug)]
pub struct ProbabilisticRbc {
    committee: Committee,
    me: ProcessId,
    config: ProbConfig,
    sample_size: usize,
    instances: BTreeMap<(ProcessId, Round), Instance>,
}

enum Step {
    Send(ProcessId, ProbMessage),
    SendSample(ProbMessage),
    Deliver(RbcDelivery),
    Phase(RbcPhase),
}

impl ProbabilisticRbc {
    /// Creates an endpoint with custom thresholds.
    pub fn with_config(committee: Committee, me: ProcessId, config: ProbConfig) -> Self {
        let sample_size = config.sample_size(committee.n());
        Self { committee, me, config, sample_size, instances: BTreeMap::new() }
    }

    /// The sample size `s` in use.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    fn threshold(&self, fraction: f64) -> usize {
        ((fraction * self.sample_size as f64).ceil() as usize).max(1)
    }

    /// A fresh random sample of `s` *other* processes.
    fn sample(&self, rng: &mut StdRng) -> Vec<ProcessId> {
        let n = self.committee.n();
        let mut picked = BTreeSet::new();
        let want = self.sample_size.min(n - 1);
        while picked.len() < want {
            let candidate = ProcessId::new(rng.random_range(0..n as u32));
            if candidate != self.me {
                picked.insert(candidate);
            }
        }
        picked.into_iter().collect()
    }

    /// First-touch setup for an instance: draw the three samples and
    /// subscribe to them (one combined message per distinct target).
    fn ensure_instance(
        &mut self,
        key: (ProcessId, Round),
        rng: &mut StdRng,
        steps: &mut Vec<Step>,
    ) {
        if self.instances.get(&key).is_some_and(|i| i.initialized) {
            return;
        }
        let echo_sample = self.sample(rng);
        let ready_sample = self.sample(rng);
        let delivery_sample = self.sample(rng);
        let mut wants: BTreeMap<ProcessId, (bool, bool)> = BTreeMap::new();
        for &p in &echo_sample {
            wants.entry(p).or_default().0 = true;
        }
        for &p in ready_sample.iter().chain(&delivery_sample) {
            wants.entry(p).or_default().1 = true;
        }
        for (p, (echo, ready)) in wants {
            steps.push(Step::Send(
                p,
                ProbMessage {
                    source: key.0,
                    round: key.1,
                    kind: ProbKind::Subscribe { echo, ready },
                },
            ));
        }
        let instance = self.instances.entry(key).or_default();
        instance.initialized = true;
        instance.echo_sample = echo_sample;
        instance.ready_sample = ready_sample;
        instance.delivery_sample = delivery_sample;
    }

    fn process(
        &mut self,
        from: ProcessId,
        message: ProbMessage,
        rng: &mut StdRng,
    ) -> Vec<RbcAction<ProbMessage>> {
        let mut actions = Vec::new();
        let mut work = VecDeque::from([(from, message)]);
        while let Some((sender, msg)) = work.pop_front() {
            let instance = VertexRef::new(msg.round, msg.source);
            let mut steps = Vec::new();
            self.ensure_instance((msg.source, msg.round), rng, &mut steps);
            steps.extend(self.handle(sender, msg));
            for out in steps {
                match out {
                    Step::Send(to, m) if to == self.me => work.push_back((self.me, m)),
                    Step::Send(to, m) => actions.push(RbcAction::Send(to, m)),
                    Step::SendSample(m) => {
                        work.push_back((self.me, m.clone()));
                        for to in self.sample(rng) {
                            actions.push(RbcAction::Send(to, m.clone()));
                        }
                    }
                    Step::Deliver(d) => actions.push(RbcAction::Deliver(d)),
                    Step::Phase(phase) => actions.push(RbcAction::Phase(instance, phase)),
                }
            }
        }
        actions
    }

    fn handle(&mut self, from: ProcessId, msg: ProbMessage) -> Vec<Step> {
        let echo_threshold = self.threshold(self.config.echo_threshold);
        let ready_threshold = self.threshold(self.config.ready_threshold);
        let deliver_threshold = self.threshold(self.config.deliver_threshold);
        let key = (msg.source, msg.round);
        let source = msg.source;
        let round = msg.round;
        let instance = self.instances.get_mut(&key).expect("ensured by caller");
        let mut steps = Vec::new();
        match msg.kind {
            ProbKind::Gossip(payload) => {
                if instance.payload.is_none() {
                    let digest = sha256(&payload);
                    instance.payload = Some(payload.clone());
                    instance.payload_digest = Some(digest);
                    if !instance.gossiped {
                        instance.gossiped = true;
                        steps.push(Step::SendSample(ProbMessage {
                            source,
                            round,
                            kind: ProbKind::Gossip(payload),
                        }));
                    }
                    if instance.echoed.is_none() {
                        instance.echoed = Some(digest);
                        steps.push(Step::Phase(RbcPhase::Witness));
                        let echo = ProbMessage { source, round, kind: ProbKind::Echo(digest) };
                        for &sub in &instance.echo_subscribers {
                            steps.push(Step::Send(sub, echo.clone()));
                        }
                    }
                }
            }
            ProbKind::Subscribe { echo, ready } => {
                if echo {
                    instance.echo_subscribers.insert(from);
                    if let Some(digest) = instance.echoed {
                        steps.push(Step::Send(
                            from,
                            ProbMessage { source, round, kind: ProbKind::Echo(digest) },
                        ));
                    }
                }
                if ready {
                    instance.ready_subscribers.insert(from);
                    if let Some(digest) = instance.readied {
                        steps.push(Step::Send(
                            from,
                            ProbMessage { source, round, kind: ProbKind::Ready(digest) },
                        ));
                    }
                }
            }
            ProbKind::Echo(digest) => {
                // Only echoes from our echo sample count toward the
                // sieve threshold.
                if instance.echo_sample.contains(&from) {
                    instance.echoes.entry(digest).or_default().insert(from);
                    if instance.echoes[&digest].len() >= echo_threshold {
                        Self::turn_ready(instance, source, round, digest, &mut steps);
                    }
                }
            }
            ProbKind::Ready(digest) => {
                let in_ready = instance.ready_sample.contains(&from);
                let in_delivery = instance.delivery_sample.contains(&from);
                if in_ready || in_delivery {
                    instance.readies.entry(digest).or_default().insert(from);
                    let got = &instance.readies[&digest];
                    // Contagion amplification over the ready sample.
                    let ready_count =
                        instance.ready_sample.iter().filter(|p| got.contains(p)).count();
                    if ready_count >= ready_threshold {
                        Self::turn_ready(instance, source, round, digest, &mut steps);
                    }
                }
            }
        }
        // Delivery check after every transition: enough delivery-sample
        // readies for the digest of a payload we hold.
        let instance = self.instances.get_mut(&key).expect("exists");
        if !instance.delivered {
            if let (Some(payload), Some(digest)) = (&instance.payload, instance.payload_digest) {
                if let Some(got) = instance.readies.get(&digest) {
                    let delivery_count =
                        instance.delivery_sample.iter().filter(|p| got.contains(p)).count();
                    if delivery_count >= deliver_threshold {
                        instance.delivered = true;
                        steps.push(Step::Phase(RbcPhase::Deliver));
                        steps.push(Step::Deliver(RbcDelivery {
                            source,
                            round,
                            payload: payload.clone(),
                        }));
                    }
                }
            }
        }
        steps
    }

    /// Issues our ready for `digest` (once) to all ready-subscribers.
    fn turn_ready(
        instance: &mut Instance,
        source: ProcessId,
        round: Round,
        digest: Digest,
        steps: &mut Vec<Step>,
    ) {
        if instance.readied.is_some() {
            return;
        }
        instance.readied = Some(digest);
        steps.push(Step::Phase(RbcPhase::Commit));
        let ready = ProbMessage { source, round, kind: ProbKind::Ready(digest) };
        for &sub in &instance.ready_subscribers {
            steps.push(Step::Send(sub, ready.clone()));
        }
    }
}

impl ReliableBroadcast for ProbabilisticRbc {
    type Message = ProbMessage;
    const PRIMITIVE: RbcPrimitive = RbcPrimitive::Probabilistic;

    fn new(committee: Committee, me: ProcessId) -> Self {
        Self::with_config(committee, me, ProbConfig::default())
    }

    fn committee(&self) -> Committee {
        self.committee
    }

    fn me(&self) -> ProcessId {
        self.me
    }

    fn rbcast(
        &mut self,
        payload: Vec<u8>,
        round: Round,
        rng: &mut StdRng,
    ) -> Vec<RbcAction<ProbMessage>> {
        let gossip = ProbMessage { source: self.me, round, kind: ProbKind::Gossip(payload) };
        let mut actions = vec![RbcAction::Phase(VertexRef::new(round, self.me), RbcPhase::Init)];
        actions.extend(self.process(self.me, gossip, rng));
        actions
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        message: ProbMessage,
        rng: &mut StdRng,
    ) -> Vec<RbcAction<ProbMessage>> {
        self.process(from, message, rng)
    }

    fn prune(&mut self, before: Round) {
        self.instances.retain(|&(_, r), _| r >= before);
    }

    fn name() -> &'static str {
        "probabilistic"
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn setup(n: usize, seed: u64) -> (Vec<ProbabilisticRbc>, StdRng) {
        let committee = Committee::new(n).unwrap();
        let endpoints = committee.members().map(|p| ProbabilisticRbc::new(committee, p)).collect();
        (endpoints, StdRng::seed_from_u64(seed))
    }

    fn run_to_quiescence(
        endpoints: &mut [ProbabilisticRbc],
        initial: Vec<(ProcessId, RbcAction<ProbMessage>)>,
        rng: &mut StdRng,
    ) -> Vec<Vec<RbcDelivery>> {
        let mut delivered: Vec<Vec<RbcDelivery>> = vec![Vec::new(); endpoints.len()];
        let mut queue: VecDeque<(ProcessId, RbcAction<ProbMessage>)> = initial.into();
        while let Some((actor, action)) = queue.pop_front() {
            match action {
                RbcAction::Send(to, m) => {
                    for a in endpoints[to.as_usize()].on_message(actor, m, rng) {
                        queue.push_back((to, a));
                    }
                }
                RbcAction::Deliver(d) => delivered[actor.as_usize()].push(d),
                RbcAction::Phase(..) => {}
            }
        }
        delivered
    }

    #[test]
    fn broadcast_reaches_everyone() {
        // Subscriptions remove the push-sampling variance, so in a
        // fault-free synchronous drain every process delivers.
        for n in [4usize, 7, 13, 19] {
            for seed in [1u64, 2, 3] {
                let (mut eps, mut rng) = setup(n, seed);
                let actions = eps[0].rbcast(b"gossip".to_vec(), Round::new(1), &mut rng);
                let initial = actions.into_iter().map(|a| (ProcessId::new(0), a)).collect();
                let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
                let count = delivered.iter().filter(|d| !d.is_empty()).count();
                assert_eq!(count, n, "n={n} seed={seed}: only {count} delivered");
                for d in &delivered {
                    assert_eq!(d[0].payload, b"gossip");
                }
            }
        }
    }

    #[test]
    fn integrity_no_double_delivery() {
        let (mut eps, mut rng) = setup(7, 7);
        let a1 = eps[0].rbcast(b"first".to_vec(), Round::new(1), &mut rng);
        let a2 = eps[0].rbcast(b"second".to_vec(), Round::new(1), &mut rng);
        let initial = a1.into_iter().chain(a2).map(|a| (ProcessId::new(0), a)).collect();
        let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
        for d in &delivered {
            assert!(d.len() <= 1, "double delivery: {d:?}");
        }
    }

    #[test]
    fn sample_size_scales_logarithmically() {
        let config = ProbConfig::default();
        assert!(config.sample_size(4) <= 4);
        let s16 = config.sample_size(16);
        assert!(s16 > 3 && s16 < 16);
        let s100 = config.sample_size(100);
        assert!(s100 < 20, "s(100) = {s100} should be O(log n)");
    }

    #[test]
    fn sample_excludes_self_and_has_no_duplicates() {
        let committee = Committee::new(13).unwrap();
        let rbc = ProbabilisticRbc::new(committee, ProcessId::new(5));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let sample = rbc.sample(&mut rng);
            assert_eq!(sample.len(), rbc.sample_size().min(12));
            assert!(!sample.contains(&ProcessId::new(5)));
            let unique: BTreeSet<_> = sample.iter().collect();
            assert_eq!(unique.len(), sample.len());
        }
    }

    #[test]
    fn message_codec_roundtrip() {
        let digest = sha256(b"x");
        for kind in [
            ProbKind::Gossip(vec![1, 2, 3]),
            ProbKind::Subscribe { echo: true, ready: false },
            ProbKind::Echo(digest),
            ProbKind::Ready(digest),
        ] {
            let msg = ProbMessage { source: ProcessId::new(2), round: Round::new(4), kind };
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(ProbMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn non_sampled_echoes_do_not_count() {
        // A flood of echoes from processes outside my echo sample must
        // not push me past the sieve threshold.
        let committee = Committee::new(31).unwrap();
        let me = ProcessId::new(0);
        let mut rbc = ProbabilisticRbc::new(committee, me);
        let mut rng = StdRng::seed_from_u64(1);
        let digest = sha256(b"attack");
        // Initialize the instance so samples exist.
        let mut steps = Vec::new();
        rbc.ensure_instance((ProcessId::new(1), Round::new(1)), &mut rng, &mut steps);
        let sample = rbc.instances[&(ProcessId::new(1), Round::new(1))].echo_sample.clone();
        let mut sent_ready = false;
        for p in committee.members().filter(|p| *p != me && !sample.contains(p)) {
            let msg = ProbMessage {
                source: ProcessId::new(1),
                round: Round::new(1),
                kind: ProbKind::Echo(digest),
            };
            for a in rbc.on_message(p, msg, &mut rng) {
                if matches!(a, RbcAction::Send(_, ProbMessage { kind: ProbKind::Ready(_), .. })) {
                    sent_ready = true;
                }
            }
        }
        assert!(!sent_ready, "echoes outside the sample must not trigger ready");
    }

    #[test]
    fn communication_is_subquadratic_in_messages() {
        // Count wire messages for one broadcast at n = 100: O(n·s) with
        // s = ceil(3 ln 100) = 14. The constant is ~6.5 (subscriptions ≈
        // 2n·s, gossip n·s, echoes n·s, readies 2n·s), so assert < 10·n·s
        // — which also sits below n² = 10000 and *shrinks* relative to n²
        // as n grows.
        let n = 100;
        let (mut eps, mut rng) = setup(n, 11);
        let mut wire_messages = 0usize;
        let actions = eps[0].rbcast(vec![0u8; 16], Round::new(1), &mut rng);
        let mut queue: VecDeque<(ProcessId, RbcAction<ProbMessage>)> =
            actions.into_iter().map(|a| (ProcessId::new(0), a)).collect();
        while let Some((actor, action)) = queue.pop_front() {
            match action {
                RbcAction::Send(to, m) => {
                    wire_messages += 1;
                    for a in eps[to.as_usize()].on_message(actor, m, &mut rng) {
                        queue.push_back((to, a));
                    }
                }
                RbcAction::Deliver(_) | RbcAction::Phase(..) => {}
            }
        }
        let s = eps[0].sample_size();
        assert!(
            wire_messages < 10 * n * s,
            "expected O(n·s) messages, got {wire_messages} vs 10·n·s = {}",
            10 * n * s
        );
    }
}
