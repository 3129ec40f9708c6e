//! Bracha's classic reliable broadcast (the paper's reference \[11\]).
//!
//! Three phases per instance — `INIT`, `ECHO`, `READY` — all carrying the
//! full payload, giving the textbook `O(n²·M)` bits per broadcast that
//! yields Table 1's "DAG-Rider + \[11\]: amortized `O(n²)`" row:
//!
//! * the sender `INIT`s its payload to everyone;
//! * on the first `INIT` of an instance, a process `ECHO`s the payload;
//! * on `2f+1` matching `ECHO`s (or `f+1` matching `READY`s — the
//!   amplification step), a process sends `READY`;
//! * on `2f+1` matching `READY`s it delivers.
//!
//! Quorum intersection makes equivocation unwinnable: two different
//! payloads for one `(source, round)` can never both gather `2f+1` echoes,
//! because an honest process echoes only the first `INIT` it sees.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dagrider_crypto::{sha256, Digest};
use dagrider_trace::{RbcPhase, RbcPrimitive};
use dagrider_types::{Committee, Decode, DecodeError, Encode, ProcessId, Round, VertexRef};
use rand::rngs::StdRng;

use crate::api::{RbcAction, RbcDelivery, ReliableBroadcast};

/// The phase of a [`BrachaMessage`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BrachaKind {
    /// The sender's initial payload dissemination.
    Init(Vec<u8>),
    /// A witness echo of the payload.
    Echo(Vec<u8>),
    /// A commitment to deliver the payload.
    Ready(Vec<u8>),
}

impl BrachaKind {
    fn payload(&self) -> &[u8] {
        match self {
            BrachaKind::Init(p) | BrachaKind::Echo(p) | BrachaKind::Ready(p) => p,
        }
    }
}

/// A Bracha protocol message, tagged with its instance `(source, round)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BrachaMessage {
    /// The broadcasting process of the instance.
    pub source: ProcessId,
    /// The instance's round number.
    pub round: Round,
    /// The phase and payload.
    pub kind: BrachaKind,
}

impl Encode for BrachaMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source.encode(buf);
        self.round.encode(buf);
        let (tag, payload): (u8, &Vec<u8>) = match &self.kind {
            BrachaKind::Init(p) => (0, p),
            BrachaKind::Echo(p) => (1, p),
            BrachaKind::Ready(p) => (2, p),
        };
        tag.encode(buf);
        dagrider_types::encode_bytes(payload, buf);
    }

    fn encoded_len(&self) -> usize {
        let payload = self.kind.payload();
        self.source.encoded_len()
            + self.round.encoded_len()
            + 1
            + dagrider_types::bytes_encoded_len(payload)
    }
}

impl Decode for BrachaMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let source = ProcessId::decode(buf)?;
        let round = Round::decode(buf)?;
        let tag = u8::decode(buf)?;
        let payload = dagrider_types::decode_bytes(buf)?;
        let kind = match tag {
            0 => BrachaKind::Init(payload),
            1 => BrachaKind::Echo(payload),
            2 => BrachaKind::Ready(payload),
            _ => return Err(DecodeError::Invalid("unknown bracha phase tag")),
        };
        Ok(Self { source, round, kind })
    }
}

/// Per-instance protocol state.
#[derive(Debug, Default)]
struct Instance {
    echoed: bool,
    readied: bool,
    delivered: bool,
    /// payload digest → processes that echoed it (payload kept aside).
    echoes: BTreeMap<Digest, BTreeSet<ProcessId>>,
    readies: BTreeMap<Digest, BTreeSet<ProcessId>>,
    payloads: BTreeMap<Digest, Vec<u8>>,
}

/// Bracha reliable broadcast endpoint. See the module docs above.
#[derive(Debug)]
pub struct BrachaRbc {
    committee: Committee,
    me: ProcessId,
    instances: BTreeMap<(ProcessId, Round), Instance>,
}

impl BrachaRbc {
    /// Number of live instances (diagnostics).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Runs the state machine on `(from, message)` plus any self-addressed
    /// follow-ups, accumulating wire sends and deliveries. Follow-ups
    /// carry the digest their step already knows, so one payload is hashed
    /// at most once per instance.
    fn process(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
    ) -> Vec<RbcAction<BrachaMessage>> {
        let mut actions = Vec::new();
        let mut work = VecDeque::from([(from, message, None)]);
        while let Some((sender, msg, digest)) = work.pop_front() {
            let instance = VertexRef::new(msg.round, msg.source);
            for out in self.handle(sender, msg, digest) {
                match out {
                    Step::SendAll(m, d) => {
                        // Route to self immediately; wire the rest.
                        work.push_back((self.me, m.clone(), d));
                        for to in self.committee.others(self.me) {
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

    /// One transition of the instance state machine.
    fn handle(&mut self, from: ProcessId, msg: BrachaMessage, digest: Option<Digest>) -> Vec<Step> {
        // An INIT is only meaningful from the claimed source itself — the
        // network authenticates senders (§2), so spoofed INITs are dropped.
        if matches!(msg.kind, BrachaKind::Init(_)) && from != msg.source {
            return Vec::new();
        }
        let quorum = self.committee.quorum();
        let small_quorum = self.committee.small_quorum();
        let key = (msg.source, msg.round);
        let instance = self.instances.entry(key).or_default();
        let mut steps = Vec::new();
        match msg.kind {
            BrachaKind::Init(payload) => {
                // Nothing has hashed the payload yet: the echo's own step
                // does, once.
                if !instance.echoed {
                    instance.echoed = true;
                    steps.push(Step::Phase(RbcPhase::Witness));
                    steps.push(Step::SendAll(
                        BrachaMessage {
                            source: msg.source,
                            round: msg.round,
                            kind: BrachaKind::Echo(payload),
                        },
                        None,
                    ));
                }
            }
            BrachaKind::Echo(payload) => {
                let digest = digest.unwrap_or_else(|| resolve_digest(&instance.payloads, &payload));
                instance.payloads.entry(digest).or_insert(payload);
                instance.echoes.entry(digest).or_default().insert(from);
                if instance.echoes[&digest].len() >= quorum && !instance.readied {
                    instance.readied = true;
                    steps.push(Step::Phase(RbcPhase::Commit));
                    let payload = instance.payloads[&digest].clone();
                    steps.push(Step::SendAll(
                        BrachaMessage {
                            source: msg.source,
                            round: msg.round,
                            kind: BrachaKind::Ready(payload),
                        },
                        Some(digest),
                    ));
                }
            }
            BrachaKind::Ready(payload) => {
                let digest = digest.unwrap_or_else(|| resolve_digest(&instance.payloads, &payload));
                instance.payloads.entry(digest).or_insert(payload);
                instance.readies.entry(digest).or_default().insert(from);
                let count = instance.readies[&digest].len();
                if count >= small_quorum && !instance.readied {
                    instance.readied = true;
                    steps.push(Step::Phase(RbcPhase::Commit));
                    let payload = instance.payloads[&digest].clone();
                    steps.push(Step::SendAll(
                        BrachaMessage {
                            source: msg.source,
                            round: msg.round,
                            kind: BrachaKind::Ready(payload),
                        },
                        Some(digest),
                    ));
                }
                if count >= quorum && !instance.delivered {
                    instance.delivered = true;
                    steps.push(Step::Phase(RbcPhase::Deliver));
                    steps.push(Step::Deliver(RbcDelivery {
                        source: msg.source,
                        round: msg.round,
                        payload: instance.payloads[&digest].clone(),
                    }));
                }
            }
        }
        steps
    }
}

/// The digest of `payload`, recovered by byte comparison against payloads
/// this instance has already hashed (the overwhelmingly common case — all
/// honest copies of one broadcast carry identical bytes, and a memcmp is
/// far cheaper than SHA-256), falling back to hashing for bytes never seen.
fn resolve_digest(known: &BTreeMap<Digest, Vec<u8>>, payload: &[u8]) -> Digest {
    known
        .iter()
        .find_map(|(d, p)| (p.as_slice() == payload).then_some(*d))
        .unwrap_or_else(|| sha256(payload))
}

enum Step {
    SendAll(BrachaMessage, Option<Digest>),
    Deliver(RbcDelivery),
    Phase(RbcPhase),
}

impl ReliableBroadcast for BrachaRbc {
    type Message = BrachaMessage;
    const PRIMITIVE: RbcPrimitive = RbcPrimitive::Bracha;

    fn new(committee: Committee, me: ProcessId, _seed: u64) -> Self {
        Self { committee, me, instances: BTreeMap::new() }
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
        _rng: &mut StdRng,
    ) -> Vec<RbcAction<BrachaMessage>> {
        let init = BrachaMessage { source: self.me, round, kind: BrachaKind::Init(payload) };
        let mut actions = vec![RbcAction::Phase(VertexRef::new(round, self.me), RbcPhase::Init)];
        actions.extend(self.committee.others(self.me).map(|to| RbcAction::Send(to, init.clone())));
        actions.extend(self.process(self.me, init));
        actions
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
        _rng: &mut StdRng,
    ) -> Vec<RbcAction<BrachaMessage>> {
        self.process(from, message)
    }

    fn prune(&mut self, before: Round) {
        self.instances.retain(|&(_, r), _| r >= before);
    }

    fn name() -> &'static str {
        "bracha"
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn setup(n: usize) -> (Vec<BrachaRbc>, StdRng) {
        let committee = Committee::new(n).unwrap();
        let endpoints = committee.members().map(|p| BrachaRbc::new(committee, p, 0)).collect();
        (endpoints, StdRng::seed_from_u64(1))
    }

    /// Synchronously routes all actions until quiescence; returns
    /// deliveries per process.
    fn run_to_quiescence(
        endpoints: &mut [BrachaRbc],
        initial: Vec<(ProcessId, RbcAction<BrachaMessage>)>,
        rng: &mut StdRng,
    ) -> Vec<Vec<RbcDelivery>> {
        let mut delivered: Vec<Vec<RbcDelivery>> = vec![Vec::new(); endpoints.len()];
        let mut queue: VecDeque<(ProcessId, RbcAction<BrachaMessage>)> = initial.into();
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
    fn correct_sender_delivers_everywhere() {
        let (mut eps, mut rng) = setup(4);
        let sender = ProcessId::new(0);
        let actions = eps[0].rbcast(b"block".to_vec(), Round::new(1), &mut rng);
        let initial = actions.into_iter().map(|a| (sender, a)).collect();
        let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "process {i}");
            assert_eq!(d[0].payload, b"block");
            assert_eq!(d[0].source, sender);
            assert_eq!(d[0].round, Round::new(1));
        }
    }

    #[test]
    fn integrity_no_double_delivery() {
        let (mut eps, mut rng) = setup(4);
        let sender = ProcessId::new(1);
        let a1 = eps[1].rbcast(b"x".to_vec(), Round::new(1), &mut rng);
        // A confused (or malicious) sender re-broadcasts the same instance
        // with a different payload; the first echo wins.
        let a2 = eps[1].rbcast(b"y".to_vec(), Round::new(1), &mut rng);
        let initial = a1.into_iter().chain(a2).map(|a| (sender, a)).collect();
        let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
        for d in &delivered {
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].payload, b"x");
        }
    }

    #[test]
    fn spoofed_init_is_ignored() {
        let (mut eps, mut rng) = setup(4);
        // p1 fabricates an INIT claiming p0 as source.
        let forged = BrachaMessage {
            source: ProcessId::new(0),
            round: Round::new(1),
            kind: BrachaKind::Init(b"forged".to_vec()),
        };
        let actions = eps[2].on_message(ProcessId::new(1), forged, &mut rng);
        assert!(actions.is_empty());
    }

    #[test]
    fn concurrent_instances_do_not_interfere() {
        let (mut eps, mut rng) = setup(4);
        let mut initial = Vec::new();
        for (i, payload) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            let p = ProcessId::new(i as u32);
            for a in eps[i].rbcast(payload.to_vec(), Round::new(1), &mut rng) {
                initial.push((p, a));
            }
        }
        let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
        for d in &delivered {
            assert_eq!(d.len(), 4);
            let mut payloads: Vec<&[u8]> = d.iter().map(|x| x.payload.as_slice()).collect();
            payloads.sort();
            assert_eq!(payloads, vec![b"a".as_slice(), b"b", b"c", b"d"]);
        }
    }

    #[test]
    fn ready_amplification_delivers_without_init() {
        // A process that misses INIT and all ECHOs still delivers from
        // f + 1 READYs (amplification) — here we simulate by feeding
        // READYs directly.
        let (mut eps, mut rng) = setup(4);
        let msg = |kind| BrachaMessage { source: ProcessId::new(0), round: Round::new(1), kind };
        let mut actions = Vec::new();
        for peer in [1u32, 2, 3] {
            actions.extend(eps[3].on_message(
                ProcessId::new(peer),
                msg(BrachaKind::Ready(b"v".to_vec())),
                &mut rng,
            ));
        }
        let deliveries: Vec<_> = actions.iter().filter_map(RbcAction::as_delivery).collect();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].payload, b"v");
        // And it amplified its own READY to others.
        assert!(actions.iter().any(|a| matches!(
            a,
            RbcAction::Send(_, BrachaMessage { kind: BrachaKind::Ready(_), .. })
        )));
    }

    #[test]
    fn message_codec_roundtrip() {
        for kind in [
            BrachaKind::Init(vec![1, 2, 3]),
            BrachaKind::Echo(vec![]),
            BrachaKind::Ready(vec![255; 40]),
        ] {
            let msg = BrachaMessage { source: ProcessId::new(3), round: Round::new(9), kind };
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(BrachaMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_phase_tag_is_rejected() {
        let msg = BrachaMessage {
            source: ProcessId::new(0),
            round: Round::new(1),
            kind: BrachaKind::Init(vec![]),
        };
        let mut bytes = msg.to_bytes();
        // Tag byte sits after source (1 byte) and round (1 byte).
        bytes[2] = 9;
        assert!(BrachaMessage::from_bytes(&bytes).is_err());
    }

    #[test]
    fn resolve_digest_memoizes_and_falls_back() {
        let mut known = BTreeMap::new();
        let payload = b"abc".to_vec();
        let digest = sha256(&payload);
        known.insert(digest, payload.clone());
        assert_eq!(resolve_digest(&known, &payload), digest);
        // Unseen bytes hash fresh — including a same-length near-miss.
        assert_eq!(resolve_digest(&known, b"abd"), sha256(b"abd"));
        assert_eq!(resolve_digest(&BTreeMap::new(), b""), sha256(b""));
    }

    #[test]
    fn prune_discards_old_instances() {
        let (mut eps, mut rng) = setup(4);
        let _ = eps[0].rbcast(b"old".to_vec(), Round::new(1), &mut rng);
        let _ = eps[0].rbcast(b"new".to_vec(), Round::new(5), &mut rng);
        assert_eq!(eps[0].instance_count(), 2);
        eps[0].prune(Round::new(3));
        assert_eq!(eps[0].instance_count(), 1);
    }
}
