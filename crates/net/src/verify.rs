//! The verification worker pool: expensive checks off the consensus
//! thread.
//!
//! Readers hand every inbound engine payload to a [`VerifyPool`] instead
//! of the consensus channel. Worker threads decode the
//! [`NodeMessage`] envelope and do the CPU-heavy part of admission:
//!
//! * **RBC messages** — compute the SHA-256 payload digest the broadcast
//!   layer would otherwise hash on the consensus thread. A small memo of
//!   recently hashed payloads turns the `n`-fold echo/ready copies of one
//!   broadcast into byte-compares instead of repeated hashing.
//! * **Coin shares** — verify the Chaum–Pedersen DLEQ proof, batched per
//!   drain so one wave's shares amortize the `H̃(w)` hash-to-group
//!   exponentiation ([`CoinPublicKeys::verify_batch`]). Invalid shares
//!   are dropped here (counted, never forwarded).
//!
//! Surviving inputs reach the engine as [`EngineInput::PreVerified`]
//! values, which skip re-verification — the typed contract that makes
//! "the pool really did the work" a checkable invariant (`cargo xtask
//! lint` confines the pre-verified constructors to this crate and the
//! test drivers).
//!
//! [`EngineInput::PreVerified`]: dagrider_core::EngineInput::PreVerified

use std::collections::VecDeque;
use std::marker::PhantomData;

use dagrider_core::{NodeMessage, VerifiedInput};
use dagrider_crypto::{sha256, CoinPublicKeys, CoinShare, Digest};
use dagrider_rbc::ReliableBroadcast;
use dagrider_types::{Decode, ProcessId};

use crate::runtime::Event;
use crate::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use crate::sync::mpsc::{self, Receiver, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, Mutex, MutexGuard, PoisonError};
use crate::wire::WireMsg;

/// Payloads hashed most recently, kept for byte-compare reuse. A Bracha
/// broadcast shows up as one INIT plus `~2(n-1)` echo/ready copies of the
/// same bytes; a handful of slots absorbs several interleaved instances.
const DIGEST_MEMO_CAPACITY: usize = 8;

/// Jobs drained per worker wake-up. Bounds per-batch latency while still
/// letting a burst of coin shares verify as one batch.
const MAX_BATCH: usize = 32;

/// One unit of inbound wire traffic awaiting verification.
struct Job {
    from: ProcessId,
    payload: Vec<u8>,
}

/// Digest memoization by exact byte comparison — `sha256` is an order of
/// magnitude slower than `memcmp` at vertex sizes, and all honest copies
/// of one broadcast carry identical bytes.
#[derive(Default)]
struct DigestMemo {
    entries: VecDeque<(Digest, Vec<u8>)>,
}

impl DigestMemo {
    fn digest_of(&mut self, payload: &[u8]) -> Digest {
        if let Some((digest, _)) = self.entries.iter().find(|(_, p)| p.as_slice() == payload) {
            return *digest;
        }
        let digest = sha256(payload);
        if self.entries.len() == DIGEST_MEMO_CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back((digest, payload.to_vec()));
        digest
    }
}

/// Type-erased handle the non-generic [`NetNode`](crate::NetNode) and
/// reactor keep.
pub(crate) trait PoolControl: Send + Sync + std::fmt::Debug {
    /// Queues an inbound engine payload for verification. Returns
    /// `false` once the pool is shut down.
    fn submit_job(&self, from: ProcessId, payload: Vec<u8>) -> bool;
    /// Closes the job queue and joins the workers. Idempotent.
    fn shutdown_pool(&self);
    /// Coin shares dropped for failing DLEQ verification.
    fn rejected_shares(&self) -> u64;
    /// Largest batch any worker has drained in one wake-up — a
    /// saturation gauge: pinned at 1 the pool is keeping up, at
    /// [`MAX_BATCH`] inbound verification is backlogged.
    fn batch_high_water(&self) -> u64;
}

/// The worker pool. Generic over the reliable-broadcast instantiation so
/// workers can decode `NodeMessage<B::Message>` and compute the digests
/// `B` expects.
pub(crate) struct VerifyPool<B> {
    jobs: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    rejected: Arc<AtomicU64>,
    batch_high_water: Arc<AtomicU64>,
    _rbc: PhantomData<fn() -> B>,
}

impl<B> std::fmt::Debug for VerifyPool<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyPool").field("rejected", &self.rejected).finish_non_exhaustive()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<B: ReliableBroadcast + 'static> VerifyPool<B> {
    /// Spawns `workers` verification threads feeding `events`.
    pub fn new(workers: usize, public: CoinPublicKeys, events: Sender<Event>) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let shared_rx = Arc::new(Mutex::new(rx));
        let rejected = Arc::new(AtomicU64::new(0));
        let batch_high_water = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&shared_rx);
                let events = events.clone();
                let public = public.clone();
                let rejected = Arc::clone(&rejected);
                let high_water = Arc::clone(&batch_high_water);
                thread::spawn(move || {
                    worker_loop::<B>(&rx, &public, &events, &rejected, &high_water);
                })
            })
            .collect();
        Self {
            jobs: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            rejected,
            batch_high_water,
            _rbc: PhantomData,
        }
    }
}

impl<B: ReliableBroadcast + 'static> PoolControl for VerifyPool<B> {
    fn submit_job(&self, from: ProcessId, payload: Vec<u8>) -> bool {
        match &*lock(&self.jobs) {
            Some(tx) => tx.send(Job { from, payload }).is_ok(),
            None => false,
        }
    }

    fn shutdown_pool(&self) {
        drop(lock(&self.jobs).take());
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }

    fn rejected_shares(&self) -> u64 {
        self.rejected.load(AtomicOrdering::Relaxed)
    }

    fn batch_high_water(&self) -> u64 {
        self.batch_high_water.load(AtomicOrdering::Relaxed)
    }
}

/// A decoded job awaiting its verdict (coin shares index into the batch
/// handed to `verify_batch`).
enum Item {
    Rbc {
        from: ProcessId,
        payload: Vec<u8>,
        digest: Option<Digest>,
    },
    Coin {
        from: ProcessId,
        share: CoinShare,
        slot: usize,
    },
    /// Undecodable bytes are forwarded on the *unverified* path so the
    /// engine still reports them (`EngineEvent::Rejected`).
    Undecodable {
        from: ProcessId,
        payload: Vec<u8>,
    },
}

fn worker_loop<B: ReliableBroadcast>(
    rx: &Mutex<Receiver<Job>>,
    public: &CoinPublicKeys,
    events: &Sender<Event>,
    rejected: &AtomicU64,
    batch_high_water: &AtomicU64,
) {
    let mut memo = DigestMemo::default();
    loop {
        // Take one job (blocking), then drain whatever else is queued up
        // to the batch bound — coin shares in one drain verify as a batch.
        let mut batch = Vec::new();
        {
            let rx = lock(rx);
            match rx.recv() {
                Ok(job) => batch.push(job),
                Err(_) => return, // pool shut down
            }
            while batch.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
        }
        batch_high_water.fetch_max(batch.len() as u64, AtomicOrdering::Relaxed);

        let mut items = Vec::with_capacity(batch.len());
        let mut shares = Vec::new();
        for Job { from, payload } in batch {
            match NodeMessage::<B::Message>::from_bytes(&payload) {
                Ok(NodeMessage::Rbc(m)) => {
                    let digest = B::payload_bytes(&m).map(|p| memo.digest_of(p));
                    items.push(Item::Rbc { from, payload, digest });
                }
                Ok(NodeMessage::Coin(share)) => {
                    items.push(Item::Coin { from, share, slot: shares.len() });
                    shares.push(share);
                }
                Err(_) => items.push(Item::Undecodable { from, payload }),
            }
        }
        let verdicts = public.verify_batch(&shares);

        for item in items {
            let event = match item {
                Item::Rbc { from, payload, digest } => {
                    Event::Verified(VerifiedInput::Message { from, payload, digest })
                }
                Item::Coin { from, share, slot } => {
                    if verdicts[slot].is_ok() {
                        Event::Verified(VerifiedInput::CoinShare { from, share })
                    } else {
                        rejected.fetch_add(1, AtomicOrdering::Relaxed);
                        continue;
                    }
                }
                Item::Undecodable { from, payload } => {
                    Event::Net { from, msg: WireMsg::Engine(payload) }
                }
            };
            if events.send(event).is_err() {
                return; // consensus thread gone
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use dagrider_crypto::deal_coin_keys;
    use dagrider_rbc::{BrachaKind, BrachaMessage, BrachaRbc};
    use dagrider_types::{Committee, Encode, Round};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn recv_verified(rx: &Receiver<Event>) -> VerifiedInput {
        match rx.recv_timeout(Duration::from_secs(5)).expect("pool produced an event") {
            Event::Verified(v) => v,
            _ => panic!("expected a Verified event"),
        }
    }

    #[test]
    fn rbc_messages_come_back_with_the_correct_digest() {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let keys = deal_coin_keys(&committee, &mut rng);
        let (tx, rx) = mpsc::channel();
        let pool = VerifyPool::<BrachaRbc>::new(1, keys[0].public().clone(), tx);

        let msg = BrachaMessage {
            source: ProcessId::new(1),
            round: Round::new(1),
            kind: BrachaKind::Echo(b"vertex bytes".to_vec()),
        };
        let payload = NodeMessage::Rbc(msg).to_bytes();
        assert!(pool.submit_job(ProcessId::new(1), payload.clone()));
        match recv_verified(&rx) {
            VerifiedInput::Message { from, payload: got, digest } => {
                assert_eq!(from, ProcessId::new(1));
                assert_eq!(got, payload);
                assert_eq!(digest, Some(sha256(b"vertex bytes")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(pool.batch_high_water() >= 1, "draining a job must move the high-water mark");
        pool.shutdown_pool();
        assert!(!pool.submit_job(ProcessId::new(1), Vec::new()), "submit after shutdown");
    }

    #[test]
    fn valid_shares_pass_and_forged_shares_are_dropped_with_a_count() {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let keys = deal_coin_keys(&committee, &mut rng);
        let (tx, rx) = mpsc::channel();
        let pool = VerifyPool::<BrachaRbc>::new(1, keys[0].public().clone(), tx);

        let good = keys[1].share(3, &mut rng);
        pool.submit_job(ProcessId::new(1), NodeMessage::<BrachaMessage>::Coin(good).to_bytes());
        match recv_verified(&rx) {
            VerifiedInput::CoinShare { from, share } => {
                assert_eq!(from, ProcessId::new(1));
                assert_eq!(share, good);
            }
            other => panic!("unexpected {other:?}"),
        }

        // A share relabeled under another issuer fails DLEQ and vanishes.
        let mut bytes = NodeMessage::<BrachaMessage>::Coin(keys[2].share(3, &mut rng)).to_bytes();
        // Re-encode under a different issuer by decoding/tweaking is not
        // possible from outside the crypto crate; instead corrupt the
        // encoded share so it still decodes but fails verification: flip
        // the instance (proof binds it).
        bytes[1] ^= 1; // instance varint byte inside the share
        pool.submit_job(ProcessId::new(2), bytes);
        // The drop is asynchronous; poll the counter.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.rejected_shares() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.rejected_shares(), 1);
        pool.shutdown_pool();
    }

    #[test]
    fn undecodable_payloads_fall_back_to_the_unverified_path() {
        let committee = Committee::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let keys = deal_coin_keys(&committee, &mut rng);
        let (tx, rx) = mpsc::channel();
        let pool = VerifyPool::<BrachaRbc>::new(1, keys[0].public().clone(), tx);
        pool.submit_job(ProcessId::new(2), vec![0xff, 0xee]);
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Event::Net { from, msg: WireMsg::Engine(payload) } => {
                assert_eq!(from, ProcessId::new(2));
                assert_eq!(payload, vec![0xff, 0xee]);
            }
            _ => panic!("expected raw fallback"),
        }
        pool.shutdown_pool();
    }

    #[test]
    fn digest_memo_reuses_and_evicts() {
        let mut memo = DigestMemo::default();
        let d1 = memo.digest_of(b"aaa");
        assert_eq!(d1, sha256(b"aaa"));
        assert_eq!(memo.digest_of(b"aaa"), d1);
        assert_eq!(memo.entries.len(), 1, "repeat hit must not duplicate");
        for i in 0..DIGEST_MEMO_CAPACITY {
            memo.digest_of(format!("filler-{i}").as_bytes());
        }
        assert_eq!(memo.entries.len(), DIGEST_MEMO_CAPACITY);
        // "aaa" was evicted but still hashes correctly.
        assert_eq!(memo.digest_of(b"aaa"), sha256(b"aaa"));
    }
}
