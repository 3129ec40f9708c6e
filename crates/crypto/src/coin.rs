//! The global perfect coin of §2, as a threshold coin à la
//! Cachin–Kursawe–Shoup ("Random oracles in Constantinople", the paper's
//! reference \[13\]).
//!
//! A trusted dealer Shamir-shares a master secret `s` with threshold
//! `f + 1` ([`deal_coin_keys`]). For coin instance `w`, each process reveals
//! the share `σ_i = H̃(w)^{s_i}` where `H̃` hashes into the group with
//! unknown discrete log. Any `f + 1` *valid* shares combine by Lagrange
//! interpolation in the exponent to the unique value `H̃(w)^s`, which hashes
//! to the elected [`ProcessId`]. Shares carry Chaum–Pedersen DLEQ proofs
//! (Fiat–Shamir with SHA-256) so Byzantine shares are rejected rather than
//! corrupting the coin.
//!
//! The four properties of §2 hold: **Agreement** (interpolation of any
//! `f + 1` correct shares is the same group element), **Termination** (once
//! `f + 1` processes reveal, everyone can combine), **Unpredictability**
//! (fewer than `f + 1` shares reveal nothing about `H̃(w)^s` to an
//! adversary that cannot compute discrete logs), and **Fairness** (the
//! output is a hash, uniform over the `n` processes up to negligible bias).
//!
//! ```
//! use dagrider_crypto::{deal_coin_keys, CoinAggregator};
//! use dagrider_types::Committee;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let committee = Committee::new(4)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let keys = deal_coin_keys(&committee, &mut rng);
//!
//! // Wave 3 completes: two processes reveal their shares (f + 1 = 2).
//! let mut agg = CoinAggregator::new(3, keys[0].public());
//! assert_eq!(agg.add_share(keys[0].share(3, &mut rng))?, None);
//! let leader = agg.add_share(keys[1].share(3, &mut rng))?.expect("threshold met");
//! assert!(committee.contains(leader));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use dagrider_types::{Committee, Decode, DecodeError, Encode, ProcessId};
use rand::Rng;

use crate::field::{GroupElement, Scalar};
use crate::sha256::sha256_parts;
use crate::shamir::{lagrange_at_zero, share_secret, ShamirShare};

/// Errors raised while aggregating coin shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinError {
    /// A share for a different coin instance was offered.
    WrongInstance {
        /// The aggregator's instance.
        expected: u64,
        /// The share's instance.
        found: u64,
    },
    /// The issuer is not a committee member.
    UnknownIssuer(ProcessId),
    /// The DLEQ proof did not verify — the share is forged or corrupted.
    InvalidShare(ProcessId),
}

impl fmt::Display for CoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoinError::WrongInstance { expected, found } => {
                write!(f, "share for instance {found}, aggregator expects {expected}")
            }
            CoinError::UnknownIssuer(p) => write!(f, "share issuer {p} is not a member"),
            CoinError::InvalidShare(p) => write!(f, "share from {p} failed DLEQ verification"),
        }
    }
}

impl Error for CoinError {}

/// A Chaum–Pedersen proof that `log_g(vk) = log_h(σ)` — i.e. that a coin
/// share was computed with the issuer's dealt secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DleqProof {
    challenge: Scalar,
    response: Scalar,
}

impl Encode for DleqProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.challenge.encode(buf);
        self.response.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.challenge.encoded_len() + self.response.encoded_len()
    }
}

impl Decode for DleqProof {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self { challenge: Scalar::decode(buf)?, response: Scalar::decode(buf)? })
    }
}

fn dleq_challenge(
    instance: u64,
    issuer: ProcessId,
    base: GroupElement,
    vk: GroupElement,
    share: GroupElement,
    commit_g: GroupElement,
    commit_h: GroupElement,
) -> Scalar {
    Scalar::from_hash(&[
        b"dagrider.coin.dleq",
        &instance.to_be_bytes(),
        &issuer.index().to_be_bytes(),
        &base.value().to_be_bytes(),
        &vk.value().to_be_bytes(),
        &share.value().to_be_bytes(),
        &commit_g.value().to_be_bytes(),
        &commit_h.value().to_be_bytes(),
    ])
}

/// One process's revealed coin share for a given instance, with its proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoinShare {
    instance: u64,
    issuer: ProcessId,
    value: GroupElement,
    proof: DleqProof,
}

impl CoinShare {
    /// The coin instance (wave number) this share opens.
    pub const fn instance(&self) -> u64 {
        self.instance
    }

    /// The process that issued the share.
    pub const fn issuer(&self) -> ProcessId {
        self.issuer
    }
}

impl Encode for CoinShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.instance.encode(buf);
        self.issuer.encode(buf);
        self.value.encode(buf);
        self.proof.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.instance.encoded_len()
            + self.issuer.encoded_len()
            + self.value.encoded_len()
            + self.proof.encoded_len()
    }
}

impl Decode for CoinShare {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            instance: u64::decode(buf)?,
            issuer: ProcessId::decode(buf)?,
            value: GroupElement::decode(buf)?,
            proof: DleqProof::decode(buf)?,
        })
    }
}

/// The public half of the dealt keys: everyone's verification keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinPublicKeys {
    threshold: usize,
    verification_keys: Vec<GroupElement>,
}

impl CoinPublicKeys {
    /// Number of committee members.
    pub fn n(&self) -> usize {
        self.verification_keys.len()
    }

    /// Shares needed to open an instance (`f + 1`).
    pub const fn threshold(&self) -> usize {
        self.threshold
    }

    /// The verification key `g^{s_i}` of `issuer`, if a member.
    pub fn verification_key(&self, issuer: ProcessId) -> Option<GroupElement> {
        self.verification_keys.get(issuer.as_usize()).copied()
    }

    /// Verifies a share's DLEQ proof against the issuer's verification key.
    pub fn verify(&self, share: &CoinShare) -> Result<(), CoinError> {
        let base = instance_base(share.instance);
        let vk =
            self.verification_key(share.issuer).ok_or(CoinError::UnknownIssuer(share.issuer))?;
        // Recompute the commitments from the response: a = g^z · vk^{-c},
        // b = h^z · σ^{-c}. Both vk and σ lie in the order-q subgroup
        // (enforced by `GroupElement::decode` on wire input), so x^{-c} is
        // x^{q-c} — four exponentiations total instead of the naive six
        // with Fermat inverses.
        let g = GroupElement::generator();
        let c = share.proof.challenge;
        let z = share.proof.response;
        let commit_g = g.pow(z).mul(vk.pow(-c));
        let commit_h = base.pow(z).mul(share.value.pow(-c));
        let expected =
            dleq_challenge(share.instance, share.issuer, base, vk, share.value, commit_g, commit_h);
        if expected == c {
            Ok(())
        } else {
            Err(CoinError::InvalidShare(share.issuer))
        }
    }
}

/// A process's dealt coin key material (its secret share plus everyone's
/// verification keys).
#[derive(Debug, Clone)]
pub struct CoinKeys {
    owner: ProcessId,
    secret: Scalar,
    public: CoinPublicKeys,
}

impl CoinKeys {
    /// Assembles key material from parts — the constructor used by the
    /// *distributed* setup ([`crate::dkg`]), where no dealer ever knows
    /// the master secret. The caller (i.e. the DKG) is responsible for
    /// consistency: `secret` must be the evaluation at `owner.index() + 1`
    /// of the polynomial committed by `verification_keys`.
    pub fn from_parts(
        owner: ProcessId,
        secret: Scalar,
        threshold: usize,
        verification_keys: Vec<GroupElement>,
    ) -> Self {
        Self { owner, secret, public: CoinPublicKeys { threshold, verification_keys } }
    }

    /// The owning process.
    pub const fn owner(&self) -> ProcessId {
        self.owner
    }

    /// The public verification keys.
    pub const fn public(&self) -> &CoinPublicKeys {
        &self.public
    }

    /// Produces this process's share for `instance`, with a fresh DLEQ
    /// proof (`rng` supplies only the proof nonce; the share value is
    /// deterministic).
    pub fn share(&self, instance: u64, rng: &mut impl Rng) -> CoinShare {
        let base = instance_base(instance);
        let value = base.pow(self.secret);
        let vk = self.public.verification_key(self.owner).expect("owner is a member");
        let nonce = loop {
            let k = Scalar::new(rng.next_u64());
            if !k.is_zero() {
                break k;
            }
        };
        let g = GroupElement::generator();
        let commit_g = g.pow(nonce);
        let commit_h = base.pow(nonce);
        let challenge = dleq_challenge(instance, self.owner, base, vk, value, commit_g, commit_h);
        let response = nonce + challenge * self.secret;
        Self::assemble_share(instance, self.owner, value, challenge, response)
    }

    fn assemble_share(
        instance: u64,
        issuer: ProcessId,
        value: GroupElement,
        challenge: Scalar,
        response: Scalar,
    ) -> CoinShare {
        CoinShare { instance, issuer, value, proof: DleqProof { challenge, response } }
    }
}

/// The per-instance base `H̃(w)`, a group element of unknown discrete log.
fn instance_base(instance: u64) -> GroupElement {
    GroupElement::hash_to_group(&[b"dagrider.coin.instance", &instance.to_be_bytes()])
}

/// Trusted-dealer setup (§2: "one assumes that a trusted dealer is used to
/// set up the random keys"): Shamir-shares a fresh master secret with
/// threshold `f + 1` and hands each member its [`CoinKeys`].
pub fn deal_coin_keys(committee: &Committee, rng: &mut impl Rng) -> Vec<CoinKeys> {
    let secret = loop {
        let s = Scalar::new(rng.next_u64());
        if !s.is_zero() {
            break s;
        }
    };
    let shares = share_secret(secret, committee.n(), committee.small_quorum(), rng)
        .expect("committee sizes satisfy 0 < f + 1 <= n");
    let verification_keys: Vec<GroupElement> =
        shares.iter().map(|s| GroupElement::generator_pow(s.y)).collect();
    let public = CoinPublicKeys { threshold: committee.small_quorum(), verification_keys };
    committee
        .members()
        .zip(shares)
        .map(|(owner, share)| CoinKeys { owner, secret: share.y, public: public.clone() })
        .collect()
}

/// Collects verified shares for one coin instance and opens it at the
/// threshold.
#[derive(Debug, Clone)]
pub struct CoinAggregator {
    instance: u64,
    public: CoinPublicKeys,
    shares: BTreeMap<ProcessId, GroupElement>,
    opened: Option<ProcessId>,
}

impl CoinAggregator {
    /// Creates an aggregator for `instance`.
    pub fn new(instance: u64, public: &CoinPublicKeys) -> Self {
        Self { instance, public: public.clone(), shares: BTreeMap::new(), opened: None }
    }

    /// The instance being aggregated.
    pub const fn instance(&self) -> u64 {
        self.instance
    }

    /// The elected leader, if the threshold has been met.
    pub const fn opened(&self) -> Option<ProcessId> {
        self.opened
    }

    /// Number of distinct valid shares collected so far.
    pub fn share_count(&self) -> usize {
        self.shares.len()
    }

    /// Adds a share. Returns `Some(leader)` the first time the threshold is
    /// met (and on every later call once opened). Duplicate shares from the
    /// same issuer are ignored.
    ///
    /// # Errors
    ///
    /// Rejects shares for other instances, from non-members, or with
    /// invalid proofs ([`CoinError`]); the aggregator state is unchanged on
    /// error.
    pub fn add_share(&mut self, share: CoinShare) -> Result<Option<ProcessId>, CoinError> {
        if share.instance != self.instance {
            return Err(CoinError::WrongInstance {
                expected: self.instance,
                found: share.instance,
            });
        }
        self.public.verify(&share)?;
        self.shares.entry(share.issuer).or_insert(share.value);
        if self.opened.is_none() && self.shares.len() >= self.public.threshold() {
            self.opened = Some(self.combine());
        }
        Ok(self.opened)
    }

    /// Adds a share whose DLEQ proof the caller has *already* verified
    /// (its own fresh share, or one replayed from a durable log that only
    /// records checked shares), skipping the proof check here.
    /// Instance and membership checks still apply, so a mis-routed share
    /// cannot corrupt the aggregator.
    ///
    /// # Errors
    ///
    /// Rejects shares for other instances or from non-members.
    pub fn add_verified_share(&mut self, share: CoinShare) -> Result<Option<ProcessId>, CoinError> {
        if share.instance != self.instance {
            return Err(CoinError::WrongInstance {
                expected: self.instance,
                found: share.instance,
            });
        }
        if self.public.verification_key(share.issuer).is_none() {
            return Err(CoinError::UnknownIssuer(share.issuer));
        }
        debug_assert!(
            self.public.verify(&share).is_ok(),
            "add_verified_share called with an unverified share"
        );
        self.shares.entry(share.issuer).or_insert(share.value);
        if self.opened.is_none() && self.shares.len() >= self.public.threshold() {
            self.opened = Some(self.combine());
        }
        Ok(self.opened)
    }

    /// Combines the first `threshold` collected shares by Lagrange
    /// interpolation in the exponent and hashes the group element to a
    /// process id.
    fn combine(&self) -> ProcessId {
        let points: Vec<ShamirShare> = self
            .shares
            .keys()
            .take(self.public.threshold())
            // Dealer evaluated at x = index + 1; the y is unused here.
            .map(|p| ShamirShare { x: u64::from(p.index()) + 1, y: Scalar::ZERO })
            .collect();
        let mut combined = GroupElement::ONE;
        for (i, issuer) in self.shares.keys().take(self.public.threshold()).enumerate() {
            let lambda = lagrange_at_zero(&points, i);
            let sigma = self.shares[issuer];
            combined = combined.mul(sigma.pow(lambda));
        }
        let digest = sha256_parts(&[
            b"dagrider.coin.output",
            &self.instance.to_be_bytes(),
            &combined.value().to_be_bytes(),
        ]);
        ProcessId::new((digest.prefix_u64() % self.public.n() as u64) as u32)
    }
}

/// Convenience wrapper holding one process's keys and the aggregators of
/// all live coin instances.
///
/// This is the object protocol nodes embed: [`Coin::my_share`] when a wave
/// completes, [`Coin::add_share`] on receipt, [`Coin::leader`] to query.
#[derive(Debug, Clone)]
pub struct Coin {
    keys: CoinKeys,
    aggregators: BTreeMap<u64, CoinAggregator>,
}

impl Coin {
    /// Wraps dealt keys.
    pub fn new(keys: CoinKeys) -> Self {
        Self { keys, aggregators: BTreeMap::new() }
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.keys.owner()
    }

    /// Produces (and locally records) this process's share for `instance`.
    pub fn my_share(&mut self, instance: u64, rng: &mut impl Rng) -> CoinShare {
        let share = self.keys.share(instance, rng);
        // A correct process counts its own share toward the threshold; the
        // proof was just made from this process's own key.
        let _ = self.add_verified_share(share);
        share
    }

    /// Adds a received share. Returns `true` when the share is new to
    /// this coin and `false` for a duplicate of its issuer's share; query
    /// [`Coin::leader`] for the outcome.
    ///
    /// # Errors
    ///
    /// Propagates [`CoinError`] for invalid shares.
    pub fn add_share(&mut self, share: CoinShare) -> Result<bool, CoinError> {
        let aggregator = self.aggregator(share.instance());
        let known = aggregator.shares.contains_key(&share.issuer());
        aggregator.add_share(share)?;
        Ok(!known)
    }

    /// Adds a share already verified by the caller (see
    /// [`CoinAggregator::add_verified_share`]); returns whether it is new,
    /// like [`Coin::add_share`].
    ///
    /// # Errors
    ///
    /// Propagates [`CoinError`] for mis-routed shares.
    pub fn add_verified_share(&mut self, share: CoinShare) -> Result<bool, CoinError> {
        let aggregator = self.aggregator(share.instance());
        let known = aggregator.shares.contains_key(&share.issuer());
        aggregator.add_verified_share(share)?;
        Ok(!known)
    }

    /// The aggregator of `instance`, created on first use.
    fn aggregator(&mut self, instance: u64) -> &mut CoinAggregator {
        let public = &self.keys.public;
        self.aggregators.entry(instance).or_insert_with(|| CoinAggregator::new(instance, public))
    }

    /// The leader elected by `instance`, if open.
    pub fn leader(&self, instance: u64) -> Option<ProcessId> {
        self.aggregators.get(&instance).and_then(CoinAggregator::opened)
    }

    /// Every opened instance with its elected leader, ascending by
    /// instance — the recoverable outcome of past elections. Aggregators
    /// keep only combined group elements (proofs are dropped on
    /// acceptance), so this, not the share set, is what a durable
    /// snapshot can persist.
    pub fn opened_leaders(&self) -> Vec<(u64, ProcessId)> {
        self.aggregators
            .iter()
            .filter_map(|(&instance, agg)| agg.opened().map(|leader| (instance, leader)))
            .collect()
    }

    /// Drops aggregator state for instances `< before` (garbage
    /// collection for long runs).
    pub fn prune(&mut self, before: u64) {
        self.aggregators.retain(|&w, _| w >= before);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn setup(n: usize, seed: u64) -> (Committee, Vec<CoinKeys>, StdRng) {
        let committee = Committee::new(n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = deal_coin_keys(&committee, &mut rng);
        (committee, keys, rng)
    }

    #[test]
    fn agreement_any_threshold_subset_elects_same_leader() {
        let (committee, keys, mut rng) = setup(7, 3);
        let instance = 42;
        let shares: Vec<CoinShare> = keys.iter().map(|k| k.share(instance, &mut rng)).collect();
        let mut leaders = Vec::new();
        // Every 3-subset of 7 shares must open to the same leader.
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    let mut agg = CoinAggregator::new(instance, keys[0].public());
                    agg.add_share(shares[a]).unwrap();
                    agg.add_share(shares[b]).unwrap();
                    let leader = agg.add_share(shares[c]).unwrap().unwrap();
                    leaders.push(leader);
                }
            }
        }
        assert!(leaders.windows(2).all(|w| w[0] == w[1]));
        assert!(committee.contains(leaders[0]));
    }

    #[test]
    fn termination_threshold_shares_suffice() {
        let (committee, keys, mut rng) = setup(4, 9);
        let mut agg = CoinAggregator::new(1, keys[0].public());
        assert_eq!(agg.add_share(keys[2].share(1, &mut rng)).unwrap(), None);
        let leader = agg.add_share(keys[3].share(1, &mut rng)).unwrap();
        assert!(leader.is_some_and(|l| committee.contains(l)));
    }

    #[test]
    fn distinct_instances_give_independent_leaders() {
        let (_, keys, mut rng) = setup(4, 5);
        let mut leaders = Vec::new();
        for instance in 0..64u64 {
            let mut agg = CoinAggregator::new(instance, keys[0].public());
            agg.add_share(keys[0].share(instance, &mut rng)).unwrap();
            let leader = agg.add_share(keys[1].share(instance, &mut rng)).unwrap().unwrap();
            leaders.push(leader);
        }
        // Not all equal (probability 4^-63 if fair).
        assert!(leaders.iter().any(|&l| l != leaders[0]));
    }

    #[test]
    fn fairness_empirical_distribution_is_roughly_uniform() {
        let (committee, keys, mut rng) = setup(4, 11);
        let trials = 1200;
        let mut counts = vec![0usize; committee.n()];
        for instance in 0..trials {
            let mut agg = CoinAggregator::new(instance, keys[0].public());
            agg.add_share(keys[1].share(instance, &mut rng)).unwrap();
            let leader = agg.add_share(keys[2].share(instance, &mut rng)).unwrap().unwrap();
            counts[leader.as_usize()] += 1;
        }
        let expected = trials as f64 / committee.n() as f64;
        for (i, &count) in counts.iter().enumerate() {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(deviation < 0.25, "process {i} elected {count}/{trials} times");
        }
    }

    #[test]
    fn forged_shares_are_rejected() {
        let (_, keys, mut rng) = setup(4, 13);
        let mut agg = CoinAggregator::new(7, keys[0].public());
        // A Byzantine process claims a share it did not compute from its
        // dealt secret: reuse p1's value under p2's name.
        let honest = keys[1].share(7, &mut rng);
        let forged = CoinShare { issuer: ProcessId::new(2), ..honest };
        assert_eq!(agg.add_share(forged), Err(CoinError::InvalidShare(ProcessId::new(2))));
        // The same value under a name outside the committee.
        let stranger = CoinShare { issuer: ProcessId::new(99), ..honest };
        assert_eq!(
            keys[0].public().verify(&stranger),
            Err(CoinError::UnknownIssuer(ProcessId::new(99)))
        );
        assert_eq!(agg.share_count(), 0);
    }

    #[test]
    fn tampered_value_fails_verification() {
        let (_, keys, mut rng) = setup(4, 17);
        let mut share = keys[0].share(3, &mut rng);
        share.value = share.value.mul(GroupElement::generator());
        assert_eq!(
            keys[1].public().verify(&share),
            Err(CoinError::InvalidShare(ProcessId::new(0)))
        );
    }

    #[test]
    fn wrong_instance_is_rejected() {
        let (_, keys, mut rng) = setup(4, 19);
        let mut agg = CoinAggregator::new(1, keys[0].public());
        let share = keys[0].share(2, &mut rng);
        assert_eq!(agg.add_share(share), Err(CoinError::WrongInstance { expected: 1, found: 2 }));
    }

    #[test]
    fn duplicate_shares_do_not_double_count() {
        let (_, keys, mut rng) = setup(4, 23);
        let mut agg = CoinAggregator::new(1, keys[0].public());
        let share = keys[0].share(1, &mut rng);
        agg.add_share(share).unwrap();
        agg.add_share(share).unwrap();
        assert_eq!(agg.share_count(), 1);
        assert_eq!(agg.opened(), None);
    }

    #[test]
    fn coin_wrapper_opens_with_own_plus_one_share() {
        let (committee, keys, mut rng) = setup(4, 29);
        let mut coin = Coin::new(keys[0].clone());
        let my_share = coin.my_share(5, &mut rng);
        assert_eq!(coin.leader(5), None);
        assert!(coin.add_share(keys[1].share(5, &mut rng)).unwrap(), "a peer's share is new");
        let leader = coin.leader(5).unwrap();
        assert!(committee.contains(leader));
        // Re-adding a share already held is accepted but reported as old.
        assert!(!coin.add_share(my_share).unwrap());
        assert!(!coin.add_verified_share(keys[1].share(5, &mut rng)).unwrap());
        assert_eq!(coin.leader(5), Some(leader));
    }

    #[test]
    fn coin_share_codec_roundtrip() {
        let (_, keys, mut rng) = setup(4, 31);
        let share = keys[2].share(77, &mut rng);
        let bytes = share.to_bytes();
        assert_eq!(bytes.len(), share.encoded_len());
        let decoded = CoinShare::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, share);
        // And the decoded share still verifies.
        keys[0].public().verify(&decoded).unwrap();
    }

    #[test]
    fn add_verified_share_matches_add_share() {
        let (committee, keys, mut rng) = setup(4, 43);
        let shares: Vec<CoinShare> = keys.iter().map(|k| k.share(9, &mut rng)).collect();
        let mut checked = CoinAggregator::new(9, keys[0].public());
        let mut trusted = CoinAggregator::new(9, keys[0].public());
        for &share in &shares {
            keys[0].public().verify(&share).unwrap();
            let a = checked.add_share(share).unwrap();
            let b = trusted.add_verified_share(share).unwrap();
            assert_eq!(a, b);
        }
        let leader = trusted.opened().unwrap();
        assert!(committee.contains(leader));
        // Duplicates still collapse.
        trusted.add_verified_share(shares[0]).unwrap();
        assert_eq!(trusted.share_count(), 4);
    }

    #[test]
    fn add_verified_share_still_rejects_misrouted_shares() {
        let (_, keys, mut rng) = setup(4, 47);
        let mut agg = CoinAggregator::new(1, keys[0].public());
        let wrong_instance = keys[0].share(2, &mut rng);
        assert_eq!(
            agg.add_verified_share(wrong_instance),
            Err(CoinError::WrongInstance { expected: 1, found: 2 })
        );
        let stranger = CoinShare { issuer: ProcessId::new(9), ..keys[1].share(1, &mut rng) };
        assert_eq!(
            agg.add_verified_share(stranger),
            Err(CoinError::UnknownIssuer(ProcessId::new(9)))
        );
        assert_eq!(agg.share_count(), 0);
    }

    #[test]
    fn prune_drops_old_instances() {
        let (_, keys, mut rng) = setup(4, 37);
        let mut coin = Coin::new(keys[0].clone());
        for w in 0..5 {
            let _ = coin.my_share(w, &mut rng);
            coin.add_share(keys[1].share(w, &mut rng)).unwrap();
        }
        assert!(coin.leader(0).is_some());
        coin.prune(3);
        assert_eq!(coin.leader(0), None);
        assert!(coin.leader(4).is_some());
    }
}
