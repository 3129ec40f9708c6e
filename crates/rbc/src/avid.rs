//! Cachin–Tessaro asynchronous verifiable information dispersal (the
//! paper's reference \[14\]), used as the communication-optimal reliable
//! broadcast.
//!
//! Instead of echoing the full payload as Bracha does, the sender
//! Reed–Solomon-encodes it into `n` fragments (`k = f + 1` suffice to
//! reconstruct), commits to them with a Merkle root, and *disperses* one
//! authenticated fragment per process. Each process echoes only **its own
//! fragment** to everyone; `2f + 1` valid echoes for one root allow
//! reconstruction (and a consistency re-encode check), after which the
//! usual `READY` round with amplification drives delivery.
//!
//! Per-broadcast bits: `n` processes each send `n` echoes of size
//! `|M|/(f+1) + O(log n)` — i.e. `O(n·|M| + n²·log n)`, which is what lets
//! DAG-Rider reach amortized `O(n)` per decision with `n log n` batching
//! (§6.2).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dagrider_crypto::{Digest, MerkleProof, MerkleTree, ReedSolomon, Shard};
use dagrider_trace::{RbcPhase, RbcPrimitive};
use dagrider_types::{Committee, Decode, DecodeError, Encode, ProcessId, Round, VertexRef};
use rand::rngs::StdRng;

use crate::api::{RbcAction, RbcDelivery, ReliableBroadcast};

/// The phase of an [`AvidMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AvidKind {
    /// The sender hands a process its authenticated fragment.
    Disperse {
        /// Merkle root over all `n` fragments.
        root: Digest,
        /// The recipient's fragment.
        shard: Shard,
        /// Inclusion proof of `shard` under `root`.
        proof: MerkleProof,
    },
    /// A process republishes its own fragment as a witness.
    Echo {
        /// Merkle root being echoed.
        root: Digest,
        /// The echoing process's fragment.
        shard: Shard,
        /// Inclusion proof.
        proof: MerkleProof,
    },
    /// Commitment to deliver the payload committed by `root`.
    Ready {
        /// The root being committed.
        root: Digest,
    },
}

/// An AVID protocol message, tagged with its instance `(source, round)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvidMessage {
    /// The broadcasting process of the instance.
    pub source: ProcessId,
    /// The instance's round number.
    pub round: Round,
    /// The phase payload.
    pub kind: AvidKind,
}

impl Encode for AvidMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source.encode(buf);
        self.round.encode(buf);
        match &self.kind {
            AvidKind::Disperse { root, shard, proof } => {
                0u8.encode(buf);
                root.encode(buf);
                shard.encode(buf);
                proof.encode(buf);
            }
            AvidKind::Echo { root, shard, proof } => {
                1u8.encode(buf);
                root.encode(buf);
                shard.encode(buf);
                proof.encode(buf);
            }
            AvidKind::Ready { root } => {
                2u8.encode(buf);
                root.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let kind_len = match &self.kind {
            AvidKind::Disperse { root, shard, proof } | AvidKind::Echo { root, shard, proof } => {
                root.encoded_len() + shard.encoded_len() + proof.encoded_len()
            }
            AvidKind::Ready { root } => root.encoded_len(),
        };
        self.source.encoded_len() + self.round.encoded_len() + 1 + kind_len
    }
}

impl Decode for AvidMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let source = ProcessId::decode(buf)?;
        let round = Round::decode(buf)?;
        let tag = u8::decode(buf)?;
        let kind = match tag {
            0 | 1 => {
                let root = Digest::decode(buf)?;
                let shard = Shard::decode(buf)?;
                let proof = MerkleProof::decode(buf)?;
                if tag == 0 {
                    AvidKind::Disperse { root, shard, proof }
                } else {
                    AvidKind::Echo { root, shard, proof }
                }
            }
            2 => AvidKind::Ready { root: Digest::decode(buf)? },
            _ => return Err(DecodeError::Invalid("unknown avid phase tag")),
        };
        Ok(Self { source, round, kind })
    }
}

#[derive(Debug, Default)]
struct Instance {
    echoed: bool,
    readied: bool,
    delivered: bool,
    /// root → fragments observed via valid echoes (keyed by shard index).
    echo_shards: BTreeMap<Digest, BTreeMap<u8, Shard>>,
    /// root → who echoed it.
    echo_senders: BTreeMap<Digest, BTreeSet<ProcessId>>,
    /// root → who sent READY.
    readies: BTreeMap<Digest, BTreeSet<ProcessId>>,
    /// Reconstructed-and-verified payload with its root.
    payload: Option<(Digest, Vec<u8>)>,
    /// Roots whose reconstruction failed the re-encode check (a bad
    /// dealer); never retried.
    bad_roots: BTreeSet<Digest>,
}

/// AVID reliable broadcast endpoint. See the module docs above.
#[derive(Debug)]
pub struct AvidRbc {
    committee: Committee,
    me: ProcessId,
    rs: ReedSolomon,
    instances: BTreeMap<(ProcessId, Round), Instance>,
}

enum Step {
    SendAll(AvidMessage),
    Deliver(RbcDelivery),
    Phase(RbcPhase),
}

impl AvidRbc {
    /// Number of live instances (diagnostics).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    fn process(&mut self, from: ProcessId, message: AvidMessage) -> Vec<RbcAction<AvidMessage>> {
        let mut actions = Vec::new();
        let mut work = VecDeque::from([(from, message)]);
        while let Some((sender, msg)) = work.pop_front() {
            let instance = VertexRef::new(msg.round, msg.source);
            for out in self.handle(sender, msg) {
                match out {
                    Step::SendAll(m) => {
                        work.push_back((self.me, m.clone()));
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

    fn handle(&mut self, from: ProcessId, msg: AvidMessage) -> Vec<Step> {
        let key = (msg.source, msg.round);
        match msg.kind {
            AvidKind::Disperse { root, shard, proof } => {
                // Only the instance's source disperses, and only our own
                // fragment is acceptable.
                if from != msg.source
                    || shard.index != self.me.index() as u8
                    || proof.index() != u64::from(shard.index)
                    || !proof.verify(root, &shard.data)
                {
                    return Vec::new();
                }
                let instance = self.instances.entry(key).or_default();
                if instance.echoed {
                    return Vec::new();
                }
                instance.echoed = true;
                vec![
                    Step::Phase(RbcPhase::Witness),
                    Step::SendAll(AvidMessage {
                        source: msg.source,
                        round: msg.round,
                        kind: AvidKind::Echo { root, shard, proof },
                    }),
                ]
            }
            AvidKind::Echo { root, shard, proof } => {
                // Each process may echo exactly its own fragment.
                if shard.index != from.index() as u8
                    || proof.index() != u64::from(shard.index)
                    || !proof.verify(root, &shard.data)
                {
                    return Vec::new();
                }
                let instance = self.instances.entry(key).or_default();
                instance.echo_shards.entry(root).or_default().insert(shard.index, shard);
                instance.echo_senders.entry(root).or_default().insert(from);
                self.advance(key, msg.source, msg.round)
            }
            AvidKind::Ready { root } => {
                let instance = self.instances.entry(key).or_default();
                instance.readies.entry(root).or_default().insert(from);
                self.advance(key, msg.source, msg.round)
            }
        }
    }

    /// Re-evaluates an instance's reconstruction / ready / deliver rules.
    fn advance(&mut self, key: (ProcessId, Round), source: ProcessId, round: Round) -> Vec<Step> {
        let quorum = self.committee.quorum();
        let small_quorum = self.committee.small_quorum();
        let rs = self.rs;
        let me_is_fresh = |instance: &Instance, root: &Digest| {
            instance.payload.as_ref().is_none_or(|(r, _)| r != root)
        };

        let instance = self.instances.get_mut(&key).expect("instance exists");
        let mut steps = Vec::new();

        // Reconstruct once a root has 2f+1 echo witnesses (or f+1 readies
        // with at least k fragments available — the late-joiner path).
        let candidate_roots: Vec<Digest> = instance
            .echo_shards
            .keys()
            .copied()
            .filter(|root| !instance.bad_roots.contains(root))
            .collect();
        for root in candidate_roots {
            if instance.payload.is_some() {
                break;
            }
            let echo_backing = instance.echo_senders.get(&root).map_or(0, BTreeSet::len) >= quorum;
            let ready_backing =
                instance.readies.get(&root).map_or(0, BTreeSet::len) >= small_quorum;
            let Some(fragments) = instance.echo_shards.get(&root) else { continue };
            if (echo_backing || ready_backing)
                && fragments.len() >= rs.data_shards()
                && me_is_fresh(instance, &root)
            {
                let shards: Vec<Shard> = fragments.values().cloned().collect();
                match rs.decode(&shards) {
                    Ok(payload) if Self::consistent(rs, &payload, root) => {
                        instance.payload = Some((root, payload));
                    }
                    _ => {
                        instance.bad_roots.insert(root);
                    }
                }
            }
        }

        // READY when we hold the verified payload of a quorum-echoed root,
        // or by f+1 READY amplification.
        if !instance.readied {
            let echo_ready = instance.payload.as_ref().is_some_and(|(root, _)| {
                instance.echo_senders.get(root).map_or(0, BTreeSet::len) >= quorum
            });
            let amplified_root = instance
                .readies
                .iter()
                .find(|(_, who)| who.len() >= small_quorum)
                .map(|(root, _)| *root);
            let root = if echo_ready {
                instance.payload.as_ref().map(|(r, _)| *r)
            } else {
                amplified_root
            };
            if let Some(root) = root {
                instance.readied = true;
                steps.push(Step::Phase(RbcPhase::Commit));
                steps.push(Step::SendAll(AvidMessage {
                    source,
                    round,
                    kind: AvidKind::Ready { root },
                }));
            }
        }

        // DELIVER on 2f+1 READYs for a root whose payload we reconstructed.
        if !instance.delivered {
            if let Some((root, payload)) = &instance.payload {
                if instance.readies.get(root).map_or(0, BTreeSet::len) >= quorum {
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
        steps
    }

    /// The dealer-consistency check: re-encode the reconstructed payload
    /// and verify it commits to exactly `root`.
    fn consistent(rs: ReedSolomon, payload: &[u8], root: Digest) -> bool {
        let shards = rs.encode(payload);
        let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
        MerkleTree::build(&leaves).map(|t| t.root()) == Ok(root)
    }
}

impl ReliableBroadcast for AvidRbc {
    type Message = AvidMessage;
    const PRIMITIVE: RbcPrimitive = RbcPrimitive::Avid;

    fn new(committee: Committee, me: ProcessId) -> Self {
        Self {
            committee,
            me,
            rs: ReedSolomon::for_committee(&committee),
            instances: BTreeMap::new(),
        }
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
    ) -> Vec<RbcAction<AvidMessage>> {
        let shards = self.rs.encode(&payload);
        let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
        let tree = MerkleTree::build(&leaves).expect("committee has at least one member");
        let root = tree.root();
        let mut actions = vec![RbcAction::Phase(VertexRef::new(round, self.me), RbcPhase::Init)];
        let mut own = None;
        for (member, shard) in self.committee.members().zip(shards) {
            let proof = tree.prove(shard.index as usize).expect("index in range");
            let msg = AvidMessage {
                source: self.me,
                round,
                kind: AvidKind::Disperse { root, shard, proof },
            };
            if member == self.me {
                own = Some(msg);
            } else {
                actions.push(RbcAction::Send(member, msg));
            }
        }
        let own = own.expect("self is a committee member");
        actions.extend(self.process(self.me, own));
        actions
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        message: AvidMessage,
        _rng: &mut StdRng,
    ) -> Vec<RbcAction<AvidMessage>> {
        self.process(from, message)
    }

    fn prune(&mut self, before: Round) {
        self.instances.retain(|&(_, r), _| r >= before);
    }

    fn name() -> &'static str {
        "avid"
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn setup(n: usize) -> (Vec<AvidRbc>, StdRng) {
        let committee = Committee::new(n).unwrap();
        let endpoints = committee.members().map(|p| AvidRbc::new(committee, p)).collect();
        (endpoints, StdRng::seed_from_u64(1))
    }

    fn run_to_quiescence(
        endpoints: &mut [AvidRbc],
        initial: Vec<(ProcessId, RbcAction<AvidMessage>)>,
        rng: &mut StdRng,
    ) -> Vec<Vec<RbcDelivery>> {
        let mut delivered: Vec<Vec<RbcDelivery>> = vec![Vec::new(); endpoints.len()];
        let mut queue: VecDeque<(ProcessId, RbcAction<AvidMessage>)> = initial.into();
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
        let payload: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
        let sender = ProcessId::new(2);
        let actions = eps[2].rbcast(payload.clone(), Round::new(3), &mut rng);
        let initial = actions.into_iter().map(|a| (sender, a)).collect();
        let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "process {i}");
            assert_eq!(d[0].payload, payload);
            assert_eq!(d[0].source, sender);
        }
    }

    #[test]
    fn larger_committee_roundtrip() {
        let (mut eps, mut rng) = setup(7);
        let payload = vec![7u8; 777];
        let actions = eps[0].rbcast(payload.clone(), Round::new(1), &mut rng);
        let initial = actions.into_iter().map(|a| (ProcessId::new(0), a)).collect();
        let delivered = run_to_quiescence(&mut eps, initial, &mut rng);
        assert!(delivered.iter().all(|d| d.len() == 1 && d[0].payload == payload));
    }

    #[test]
    fn echo_bytes_are_a_fraction_of_payload() {
        // The whole point of AVID: each process's echo carries |M|/(f+1)
        // + O(log n) bytes, not |M|.
        let (mut eps, mut rng) = setup(10);
        let payload = vec![9u8; 9000];
        let actions = eps[0].rbcast(payload.clone(), Round::new(1), &mut rng);
        let disperse_len = actions
            .iter()
            .filter_map(|a| match a {
                RbcAction::Send(_, m) => Some(m.encoded_len()),
                _ => None,
            })
            .max()
            .unwrap();
        // k = f + 1 = 4, so a fragment is ~2250 bytes plus Merkle overhead.
        assert!(disperse_len < payload.len() / 2, "disperse message {disperse_len} bytes");
    }

    #[test]
    fn tampered_fragment_is_ignored() {
        let (mut eps, mut rng) = setup(4);
        let actions = eps[0].rbcast(vec![1u8; 64], Round::new(1), &mut rng);
        // Find the disperse destined to p1 and corrupt its shard.
        let (to, mut msg) = actions
            .iter()
            .find_map(|a| match a {
                RbcAction::Send(to, m) if *to == ProcessId::new(1) => Some((*to, m.clone())),
                _ => None,
            })
            .unwrap();
        if let AvidKind::Disperse { ref mut shard, .. } = msg.kind {
            shard.data[0] ^= 0xff;
        }
        let out = eps[to.as_usize()].on_message(ProcessId::new(0), msg, &mut rng);
        assert!(out.is_empty(), "corrupted disperse must be dropped");
    }

    #[test]
    fn echo_of_foreign_fragment_is_ignored() {
        let (mut eps, mut rng) = setup(4);
        let actions = eps[0].rbcast(vec![2u8; 64], Round::new(1), &mut rng);
        // p1's legitimate disperse, replayed by p2 as *its* echo.
        let msg = actions
            .iter()
            .find_map(|a| match a {
                RbcAction::Send(to, m) if *to == ProcessId::new(1) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        let echo = if let AvidKind::Disperse { root, shard, proof } = msg.kind {
            AvidMessage {
                source: ProcessId::new(0),
                round: Round::new(1),
                kind: AvidKind::Echo { root, shard, proof },
            }
        } else {
            unreachable!()
        };
        let out = eps[3].on_message(ProcessId::new(2), echo, &mut rng);
        assert!(out.is_empty(), "a process may only echo its own fragment");
    }

    #[test]
    fn inconsistent_dealer_is_not_delivered() {
        // A Byzantine dealer builds a Merkle root over garbage fragments
        // that do not come from one RS codeword; reconstruction fails the
        // re-encode check everywhere, so nobody delivers.
        let committee = Committee::new(4).unwrap();
        let (mut eps, mut rng) = setup(4);
        let rs = ReedSolomon::for_committee(&committee);
        let mut shards = rs.encode(&[3u8; 100]);
        // Corrupt one fragment *before* committing, so proofs verify but
        // the codeword is inconsistent.
        shards[2].data[0] ^= 0x55;
        let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
        let tree = MerkleTree::build(&leaves).unwrap();
        let root = tree.root();
        let mut initial = Vec::new();
        for (member, shard) in committee.members().zip(shards) {
            let proof = tree.prove(shard.index as usize).unwrap();
            let msg = AvidMessage {
                source: ProcessId::new(0),
                round: Round::new(1),
                kind: AvidKind::Disperse { root, shard, proof },
            };
            initial.push((member, RbcAction::Send(member, msg)));
        }
        // Route the disperses as if sent by p0.
        let mut queue: VecDeque<(ProcessId, RbcAction<AvidMessage>)> = VecDeque::new();
        for (to, action) in initial {
            if let RbcAction::Send(_, m) = action {
                for a in eps[to.as_usize()].on_message(ProcessId::new(0), m, &mut rng) {
                    queue.push_back((to, a));
                }
            }
        }
        let mut delivered = 0;
        while let Some((actor, action)) = queue.pop_front() {
            match action {
                RbcAction::Send(to, m) => {
                    for a in eps[to.as_usize()].on_message(actor, m, &mut rng) {
                        queue.push_back((to, a));
                    }
                }
                RbcAction::Deliver(_) => delivered += 1,
                RbcAction::Phase(..) => {}
            }
        }
        assert_eq!(delivered, 0, "inconsistent dispersal must never deliver");
    }

    #[test]
    fn message_codec_roundtrip() {
        let committee = Committee::new(4).unwrap();
        let rs = ReedSolomon::for_committee(&committee);
        let shards = rs.encode(b"codec");
        let leaves: Vec<&[u8]> = shards.iter().map(|s| s.data.as_slice()).collect();
        let tree = MerkleTree::build(&leaves).unwrap();
        let msgs = vec![
            AvidMessage {
                source: ProcessId::new(1),
                round: Round::new(2),
                kind: AvidKind::Disperse {
                    root: tree.root(),
                    shard: shards[0].clone(),
                    proof: tree.prove(0).unwrap(),
                },
            },
            AvidMessage {
                source: ProcessId::new(1),
                round: Round::new(2),
                kind: AvidKind::Echo {
                    root: tree.root(),
                    shard: shards[1].clone(),
                    proof: tree.prove(1).unwrap(),
                },
            },
            AvidMessage {
                source: ProcessId::new(1),
                round: Round::new(2),
                kind: AvidKind::Ready { root: tree.root() },
            },
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(AvidMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn prune_discards_old_instances() {
        let (mut eps, mut rng) = setup(4);
        let _ = eps[0].rbcast(vec![1], Round::new(1), &mut rng);
        let _ = eps[0].rbcast(vec![2], Round::new(8), &mut rng);
        assert_eq!(eps[0].instance_count(), 2);
        eps[0].prune(Round::new(2));
        assert_eq!(eps[0].instance_count(), 1);
    }
}
