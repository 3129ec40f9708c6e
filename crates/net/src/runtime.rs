//! The TCP cluster runtime: threads, sockets, and the consensus loop.
//!
//! One [`NetNode`] is one DAG-Rider process on a real network. It runs
//! three threads, four with a store — independent of peer count and
//! client count:
//!
//! * **consensus** — owns the sans-I/O [`DagRiderEngine`] and is the only
//!   thread that touches protocol state. It drains one event channel fed
//!   by everything else, a burst of queued events per wake-up, and feeds
//!   peer payloads to the engine raw: the engine hashes each broadcast
//!   payload once per instance and checks each coin share's proof. It
//!   forwards the durable subset of each engine turn's events to the
//!   flusher before routing the turn's outputs.
//! * **reactor** — owns *every* socket: the listener, one inbound and
//!   one outbound link per peer, and all client sessions, swept in
//!   non-blocking readiness loops (see `crate::reactor`). Client
//!   admission, load shedding, round-robin fairness, and matching
//!   ordered transactions back to subscribed clients' submissions live
//!   here, at the socket edge. It also owns the node's open batch: it
//!   fills it, seals and hashes it, and queues its frame on every peer's
//!   link. The open batch is the node's only way in for transactions:
//!   [`NetNode::submit_tx`] and the client protocol both feed it, and
//!   consensus orders only batch digests. Every peer batch, pushed or
//!   fetched, is hashed here too.
//! * **dialer** — the one place TCP `connect` happens; hands connected,
//!   handshaken, non-blocking links to the reactor and redials dead
//!   ones with capped jittered [`Backoff`](crate::Backoff).
//! * **flusher** (when a [`StoreConfig`] is set) — owns the
//!   [`DurableStore`]: drains groups of durable events off a channel,
//!   appends them to the write-ahead log, fsyncs per policy, and
//!   installs compacted snapshots — every disk wait lives here, never
//!   on the consensus thread (see [`crate::wal`]).
//!
//! A (re)starting node first replays its durable store (snapshot + WAL
//! tail) into the fresh engine, then asks every peer for its retained
//! DAG ([`WireMsg::SyncRequest`]) — covering just the suffix it missed
//! — and only calls `engine.start()` if, after the sync phase, it is
//! still at the genesis round — a rejoining process resumes organically
//! from the replayed and synced vertices instead, which keeps its
//! pre-crash proposals from being equivocated where peers would notice.

use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dagrider_core::{
    DagRiderEngine, DurableEvent, EngineEvent, EngineInput, EngineOutput, HashedBatch, NodeConfig,
    NodeMessage, OrderedVertex, Turn,
};
use dagrider_crypto::CoinKeys;
use dagrider_rbc::ReliableBroadcast;
use dagrider_store::{replay_into, DurableStore, FsyncPolicy, Recovered, StoreSnapshot};
use dagrider_types::{
    Batch, BatchDigest, Committee, Encode, ProcessId, Round, Time, Transaction, Wave,
};

use crate::client::{AdmissionSnapshot, AdmissionStats};
use crate::frame::FramePool;
use crate::queue::SendQueue;
use crate::reactor::{dialer_loop, reactor_main, DialRequest, ReactorConfig, BATCH_MAX_BYTES};
use crate::signal::{Shutdown, Waker};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use crate::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, Mutex, MutexGuard, PoisonError};
use crate::wal::{wal_channel, wal_flush_loop, WalHandle};
use crate::wire::WireMsg;

/// Configuration for one cluster process.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The committee this process belongs to.
    pub committee: Committee,
    /// This process's identity.
    pub me: ProcessId,
    /// Listen address of every committee member, indexed by process id.
    pub addrs: Vec<SocketAddr>,
    /// Protocol configuration handed to the engine.
    pub node: NodeConfig,
    /// This process's dealt threshold-coin keys.
    pub coin_keys: CoinKeys,
    /// Seed for this process's protocol randomness.
    pub seed: u64,
    /// How long to wait for peers' sync replies before starting the
    /// protocol anyway.
    pub sync_timeout: Duration,
    /// Durable store configuration; `None` runs the node ephemeral (a
    /// crash recovers over peer sync alone).
    pub store: Option<StoreConfig>,
}

/// Where and how a node persists its durable state (see
/// [`crate::wal`] and the `dagrider-store` crate).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding this node's WAL and snapshot. Must be private
    /// to the node (one store directory per process identity).
    pub dir: PathBuf,
    /// When appended records are fsynced (group-commit policy).
    pub fsync: FsyncPolicy,
    /// Install a compacted snapshot (and truncate the WAL) every this
    /// many persisted vertex events; `0` disables compaction.
    pub snapshot_every: u64,
}

impl StoreConfig {
    /// A store rooted at `dir` with batched fsync (every 64 records)
    /// and compaction every 512 vertices.
    #[must_use]
    pub fn new(dir: PathBuf) -> Self {
        Self { dir, fsync: FsyncPolicy::EveryN(64), snapshot_every: 512 }
    }

    /// Overrides the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Overrides the snapshot cadence (`0` disables compaction).
    #[must_use]
    pub fn with_snapshot_every(mut self, vertices: u64) -> Self {
        self.snapshot_every = vertices;
        self
    }
}

impl NetConfig {
    /// A configuration with production-ish defaults: 2 s sync phase, no
    /// store.
    pub fn new(
        committee: Committee,
        me: ProcessId,
        addrs: Vec<SocketAddr>,
        node: NodeConfig,
        coin_keys: CoinKeys,
        seed: u64,
    ) -> Self {
        Self {
            committee,
            me,
            addrs,
            node,
            coin_keys,
            seed,
            sync_timeout: Duration::from_secs(2),
            store: None,
        }
    }

    /// Overrides the sync-phase timeout.
    #[must_use]
    pub fn with_sync_timeout(mut self, timeout: Duration) -> Self {
        self.sync_timeout = timeout;
        self
    }

    /// Does nothing: a node keeps one open batch and one link per peer,
    /// and seals every batch as worker 0. The repository benchmark calls
    /// it, so deleting it waits for that benchmark's next version.
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Enables the durable store: WAL appends off-thread, periodic
    /// snapshots, and replay-from-store on restart.
    #[must_use]
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }
}

/// Everything that can wake the consensus thread.
pub(crate) enum Event {
    /// A decoded wire message from an identified peer.
    Net { from: ProcessId, msg: WireMsg },
    /// The reactor sealed, hashed and queued one of this node's batches:
    /// hand it to the engine's batch map, then its digest to the engine's
    /// next vertex.
    OwnBatch(HashedBatch),
    /// Peer `from`'s link carried a batch, pushed or fetched, which the
    /// reactor hashed: the engine stores it if `from` created it or a
    /// vertex the engine holds names it.
    PeerBatch { from: ProcessId, batch: HashedBatch },
    /// The dialer (re-)established the link to `peer`.
    LinkUp(ProcessId),
    /// Stop the consensus loop.
    Shutdown,
}

/// State the consensus thread publishes for cross-thread queries (the
/// reactor's admission gate and its ordered-notification sweep read it
/// too).
#[derive(Debug, Default)]
pub(crate) struct Published {
    /// The node's ordered log: every `Ordered` output of its engine.
    pub(crate) ordered: Mutex<Vec<OrderedVertex>>,
    /// The ordered log's length, stored (`Release`) under its mutex after
    /// each append; an `Acquire` load (the reactor's, or
    /// [`NetNode::ordered_len`]) sees the log grow without taking the
    /// mutex, and a length it reads never exceeds the log it then locks.
    pub(crate) ordered_len: AtomicU64,
    /// The engine's current round; the reactor seals its open batch when
    /// it rises.
    pub(crate) round: AtomicU64,
    pub(crate) decided_wave: AtomicU64,
    pub(crate) synced: AtomicBool,
    pub(crate) recovered: AtomicU64,
    /// Batches the engine has stored since the node started, recovered
    /// ones included, and their payload bytes: running totals, which
    /// garbage collection does not lower.
    pub(crate) batches: AtomicU64,
    pub(crate) batch_bytes: AtomicU64,
    /// Coin shares the engine refused (`EngineEvent::ShareRejected`).
    pub(crate) rejected_shares: AtomicU64,
    /// The largest burst of events one consensus wake-up took.
    pub(crate) max_burst: AtomicU64,
}

/// What routing engine outputs leaves for the consensus loop: the
/// timers to fire, as (fire-at, tag) and unordered (few and coarse), and
/// the ordered vertices to publish at the end of the iteration.
#[derive(Default)]
struct Routed {
    timers: Vec<(Instant, u64)>,
    ordered: Vec<OrderedVertex>,
}

/// Consensus-side durability state: the flusher handle, what the store
/// recovered at open, and the snapshot-cadence counter.
struct DurableCtx {
    handle: WalHandle,
    recovered: Option<Recovered>,
    snapshot_every: u64,
    vertices_since_snapshot: u64,
}

pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Millisecond-granularity engine clock anchored at process start.
fn engine_now(epoch: Instant) -> Time {
    Time::new(u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX))
}

/// One DAG-Rider process on real TCP sockets.
///
/// Dropping (or [`NetNode::shutdown`]) stops every thread gracefully:
/// queues are closed and drained, the reactor drops every socket it
/// owns, and all owned threads are joined.
#[derive(Debug)]
pub struct NetNode {
    me: ProcessId,
    committee: Committee,
    addr: SocketAddr,
    tx: Sender<Event>,
    published: Arc<Published>,
    queues: Vec<Arc<SendQueue>>,
    waker: Arc<Waker>,
    admission: Arc<AdmissionStats>,
    submitted: Sender<Transaction>,
    store_healthy: Option<Arc<AtomicBool>>,
    stop: Arc<Shutdown>,
    threads: Vec<JoinHandle<()>>,
}

impl NetNode {
    /// Starts the process: binds `config.addrs[me]` (or adopts
    /// `listener`, which lets callers pre-bind port 0 to pick free
    /// ports), spawns the transport threads, and launches the consensus
    /// loop with reliable-broadcast implementation `B`.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `config.me` is not a
    /// committee member, the coin keys belong to another process, or the
    /// address list does not have one entry per member; otherwise an
    /// error if the listen address cannot be bound or the store cannot be
    /// opened.
    pub fn start<B: ReliableBroadcast + 'static>(
        config: NetConfig,
        listener: Option<TcpListener>,
    ) -> io::Result<Self> {
        let me = config.me;
        let committee = config.committee;
        if !committee.contains(me) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "me is not a committee member",
            ));
        }
        if config.coin_keys.owner() != me {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the coin keys belong to another process",
            ));
        }
        if config.addrs.len() != committee.n() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "need one address per committee member",
            ));
        }
        let listener = match listener {
            Some(l) => l,
            None => TcpListener::bind(config.addrs[me.as_usize()])?,
        };
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (tx, rx) = mpsc::channel::<Event>();
        let stop = Arc::new(Shutdown::new());
        let published = Arc::new(Published::default());
        let waker = Arc::new(Waker::new());
        let admission = Arc::new(AdmissionStats::default());
        let queues: Vec<Arc<SendQueue>> =
            (0..committee.n()).map(|_| Arc::new(SendQueue::new(QUEUE_CAPACITY))).collect();

        // The reactor's feeds: links the dialer connected, and redial
        // requests back to the dialer.
        let (dialed_tx, dialed_rx) = mpsc::channel();
        let (redial_tx, redial_rx) = mpsc::channel::<DialRequest>();

        let mut threads = Vec::new();

        let (submitted, submitted_rx) = mpsc::channel::<Transaction>();

        // Seed one link per peer; the dialer (re)establishes them.
        for peer in committee.others(me) {
            let _ = redial_tx.send(DialRequest {
                peer,
                addr: config.addrs[peer.as_usize()],
                queue: Arc::clone(&queues[peer.as_usize()]),
            });
        }
        {
            let dial_waker = Arc::clone(&waker);
            let dial_consensus = tx.clone();
            let dial_stop = Arc::clone(&stop);
            threads.push(thread::spawn(move || {
                dialer_loop(me, &redial_rx, &dialed_tx, &dial_waker, &dial_consensus, &dial_stop);
            }));
        }

        // The reactor: every socket lives on this one thread.
        {
            let reactor_config = ReactorConfig {
                committee,
                me,
                listener,
                dialed: dialed_rx,
                waker: Arc::clone(&waker),
                consensus: tx.clone(),
                peers: committee.others(me).map(|p| Arc::clone(&queues[p.as_usize()])).collect(),
                submitted: submitted_rx,
                redial: redial_tx,
                stats: Arc::clone(&admission),
                published: Arc::clone(&published),
                stop: Arc::clone(&stop),
            };
            threads.push(thread::spawn(move || reactor_main(reactor_config)));
        }

        // The durable store and its flusher thread. Opened here (not in
        // the consensus thread) so a broken store directory fails
        // `start` loudly instead of killing the node mid-protocol, and
        // so every fsync lives on the flusher, never on consensus.
        let mut durable = None;
        let mut store_healthy = None;
        if let Some(store_cfg) = config.store.clone() {
            let (wal_store, recovered) = DurableStore::open(&store_cfg.dir, store_cfg.fsync)?;
            let (handle, jobs) = wal_channel();
            store_healthy = Some(handle.health());
            threads.push(thread::spawn(move || {
                let mut sink = wal_store;
                wal_flush_loop(&mut sink, &jobs);
            }));
            durable = Some(DurableCtx {
                handle,
                recovered: Some(recovered),
                snapshot_every: store_cfg.snapshot_every,
                vertices_since_snapshot: 0,
            });
        }

        {
            let state = Arc::clone(&published);
            let consensus_queues = queues.clone();
            let consensus_stop = Arc::clone(&stop);
            let consensus_waker = Arc::clone(&waker);
            threads.push(thread::spawn(move || {
                consensus_loop::<B>(
                    config,
                    rx,
                    &consensus_queues,
                    &state,
                    &consensus_stop,
                    durable,
                    &consensus_waker,
                );
            }));
        }

        Ok(Self {
            me,
            committee,
            addr,
            tx,
            published,
            queues,
            waker,
            admission,
            submitted,
            store_healthy,
            stop,
            threads,
        })
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The committee.
    pub fn committee(&self) -> Committee {
        self.committee
    }

    /// The bound listen address (useful with pre-bound port 0 listeners).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Submits one transaction for atomic broadcast through the node's
    /// open batch: its bytes travel in the batch, pushed to every peer,
    /// and consensus orders the batch digest.
    /// Returns `false` for a transaction longer than [`BATCH_MAX_BYTES`],
    /// which client admission refuses as `Oversized` too, and once the
    /// node has shut down.
    pub fn submit_tx(&self, tx: Transaction) -> bool {
        if tx.len() > BATCH_MAX_BYTES || self.submitted.send(tx).is_err() {
            return false;
        }
        self.waker.wake();
        true
    }

    /// Batches the engine has stored since the node started (own,
    /// received, fetched, and recovered from the durable store): a
    /// running total. The engine's batch map holds fewer, as garbage
    /// collection drops the batches of collected rounds.
    pub fn batches_stored(&self) -> usize {
        self.published.batches.load(AtomicOrdering::Relaxed) as usize
    }

    /// Total transaction payload bytes across the batches counted by
    /// [`NetNode::batches_stored`]: a running total.
    pub fn batch_payload_bytes(&self) -> u64 {
        self.published.batch_bytes.load(AtomicOrdering::Relaxed)
    }

    /// Snapshot of the ordered log so far.
    pub fn ordered(&self) -> Vec<OrderedVertex> {
        lock_unpoisoned(&self.published.ordered).clone()
    }

    /// Length of the ordered log so far. Reads the length the consensus
    /// thread stores after each append, so it never takes the log's
    /// mutex.
    pub fn ordered_len(&self) -> usize {
        self.published.ordered_len.load(AtomicOrdering::Acquire) as usize
    }

    /// The ordered log from position `start` onward — an incremental
    /// cursor read for pollers that already consumed the prefix.
    pub fn ordered_from(&self, start: usize) -> Vec<OrderedVertex> {
        let log = lock_unpoisoned(&self.published.ordered);
        log.get(start..).map(<[OrderedVertex]>::to_vec).unwrap_or_default()
    }

    /// Highest wave this process has decided.
    pub fn decided_wave(&self) -> Wave {
        Wave::new(self.published.decided_wave.load(AtomicOrdering::Relaxed))
    }

    /// The engine's current DAG round.
    pub fn current_round(&self) -> Round {
        Round::new(self.published.round.load(AtomicOrdering::Relaxed))
    }

    /// Whether the start-up sync phase has finished and the protocol is
    /// live.
    pub fn is_live(&self) -> bool {
        self.published.synced.load(AtomicOrdering::Relaxed)
    }

    /// Events replayed from the local durable store at startup (0 when
    /// no store is configured or the directory was fresh).
    pub fn recovered_events(&self) -> u64 {
        self.published.recovered.load(AtomicOrdering::Relaxed)
    }

    /// Whether the durable store is still writing cleanly. `true` when
    /// no store is configured; latched `false` forever on the first
    /// flusher I/O error (the node keeps running — recovery falls back
    /// to peer sync).
    pub fn store_healthy(&self) -> bool {
        self.store_healthy.as_ref().is_none_or(|h| h.load(AtomicOrdering::Relaxed))
    }

    /// Total outbound frames dropped to queue overflow, across every
    /// peer's queue.
    pub fn dropped_frames(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped()).sum()
    }

    /// Coin shares the engine refused: a failed proof, or a share relayed
    /// by a process other than its issuer.
    pub fn rejected_shares(&self) -> u64 {
        self.published.rejected_shares.load(AtomicOrdering::Relaxed)
    }

    /// The largest burst of events the consensus thread drained, and
    /// verified, in one wake-up (1 = keeping up; at the burst bound of
    /// 64, consensus is backlogged).
    pub fn verify_batch_depth(&self) -> u64 {
        self.published.max_burst.load(AtomicOrdering::Relaxed)
    }

    /// Cumulative client admission counters: accepted, drained, shed,
    /// and the deepest any single client queue has been.
    pub fn admission_stats(&self) -> AdmissionSnapshot {
        self.admission.snapshot()
    }

    /// Stops every thread and joins them. Idempotent — signalling is a
    /// one-shot latch and every drain below tolerates repetition; the
    /// double-shutdown path is model-checked by `dagrider-check`. Also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.signal();
        // Unpark the reactor so it observes the signal immediately and
        // drops every socket it owns.
        self.waker.wake();
        let _ = self.tx.send(Event::Shutdown);
        for queue in &self.queues {
            queue.close();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Events one consensus wake-up takes before it fires timers, publishes
/// progress and rings the reactor.
const MAX_BURST: u64 = 64;

/// Outbound queue capacity per peer link, in frames (drop-oldest
/// beyond). Batches and engine frames share it.
const QUEUE_CAPACITY: usize = 4096;

/// How long the consensus thread waits for an event before it fires due
/// timers anyway (timer resolution, shutdown latency).
const TICK: Duration = Duration::from_millis(25);

/// The consensus thread: sync phase, then the event loop driving the
/// engine until shutdown. Each wake-up takes a burst of queued events
/// and ends by ringing the reactor's waker once, so frames the engine
/// pushed hit the wire without waiting for the reactor's idle tick.
fn consensus_loop<B: ReliableBroadcast>(
    config: NetConfig,
    rx: Receiver<Event>,
    queues: &[Arc<SendQueue>],
    published: &Published,
    stop: &Shutdown,
    durable: Option<DurableCtx>,
    waker: &Waker,
) {
    let committee = config.committee;
    let me = config.me;
    let mut engine: DagRiderEngine<B> =
        DagRiderEngine::new(committee, me, config.coin_keys, config.node);
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(config.seed);
    let epoch = Instant::now();
    let mut durable = durable;
    let mut recovered_state = durable.as_mut().and_then(|ctx| ctx.recovered.take());

    let mut routed = Routed::default();
    // Encode buffers recycle through this pool: steady-state outbound
    // traffic allocates nothing.
    let frames = FramePool::new();
    let route = |outs: Vec<EngineOutput>, routed: &mut Routed| {
        for out in outs {
            match out {
                EngineOutput::Send { to, payload } => {
                    let frame =
                        frames.encode_with(|buf| WireMsg::encode_engine_into(&payload, buf));
                    queues[to.as_usize()].push(frame);
                }
                EngineOutput::Broadcast { payload } => {
                    // Encoded exactly once; every queue holds a refcounted
                    // handle to the same buffer.
                    let frame =
                        frames.encode_with(|buf| WireMsg::encode_engine_into(&payload, buf));
                    for to in committee.others(me) {
                        queues[to.as_usize()].push(frame.clone());
                    }
                }
                EngineOutput::SetTimer { delay, tag } => {
                    routed.timers.push((Instant::now() + Duration::from_millis(delay), tag));
                }
                EngineOutput::FetchBatches { from, digests } => {
                    // A buffered vertex names batches that never arrived
                    // by push: ask `from` on the consensus connection.
                    queues[from.as_usize()].push(frames.encode(&WireMsg::BatchRequest { digests }));
                }
                EngineOutput::Ordered(ordered) => routed.ordered.push(ordered),
            }
        }
    };

    // Every engine turn goes through `emit`: first group-persist the
    // turn's durable events (a channel send to the flusher — the fsync
    // happens off-thread), *then* route the outputs to the wire, so a
    // WAL append always precedes the network effects it justifies.
    // Refused coin shares and stored batches are counted; the rest of
    // the stream is dropped. Snapshot cadence counts persisted vertex
    // events. The capture copies the retained DAG and the batches it
    // names on this thread, which stalls consensus for as long as that
    // copy takes, and the tmp-write/fsync/rename/truncate sequence runs
    // on the flusher.
    let mut emit = |engine: &DagRiderEngine<B>, turn: Turn, routed: &mut Routed| {
        for event in &turn.events {
            match event {
                EngineEvent::ShareRejected { .. } => {
                    published.rejected_shares.fetch_add(1, AtomicOrdering::Relaxed);
                }
                EngineEvent::BatchStored { batch, .. } => count_batch(published, batch),
                _ => {}
            }
        }
        if let Some(ctx) = durable.as_mut() {
            let events: Vec<DurableEvent> =
                turn.events.into_iter().filter_map(EngineEvent::into_durable).collect();
            if !events.is_empty() {
                let vertices =
                    events.iter().filter(|e| matches!(e, DurableEvent::Vertex(_))).count() as u64;
                ctx.handle.persist(events);
                if ctx.snapshot_every > 0 {
                    ctx.vertices_since_snapshot += vertices;
                    if ctx.vertices_since_snapshot >= ctx.snapshot_every {
                        ctx.vertices_since_snapshot = 0;
                        ctx.handle.snapshot(StoreSnapshot::capture(engine));
                    }
                }
            }
        }
        route(turn.outputs, routed);
    };

    // Replay the local store into the fresh engine before anything
    // touches the network. The recovered prefix re-derives silently —
    // its events are already in the store, `Send`/`Broadcast` are
    // dropped (peers saw the original traffic long ago), and `Ordered`
    // re-deliveries are published with the first iteration's progress.
    // The DAG and the coin now hold the prefix, so only *new* events
    // reach the WAL. The sync phase below then fetches just the suffix
    // missed while down.
    if let Some(rec) = recovered_state.take() {
        let mut replay_outs = Vec::new();
        let stats = replay_into(
            &mut engine,
            rec.snapshot.as_ref(),
            &rec.tail,
            engine_now(epoch),
            &mut rng,
            |out| match out {
                EngineOutput::Send { .. } | EngineOutput::Broadcast { .. } => {}
                other => replay_outs.push(other),
            },
        );
        route(replay_outs, &mut routed);
        published.recovered.store(stats.total() as u64, AtomicOrdering::Relaxed);
        // The recovered batches start the running totals.
        published.batches.store(engine.batches_stored() as u64, AtomicOrdering::Relaxed);
        published.batch_bytes.store(engine.batch_payload_bytes(), AtomicOrdering::Relaxed);
    }

    // Sync phase: ask every peer for its retained DAG as links come up;
    // go live once all have answered or the timeout expires. A sync
    // stream can arrive with holes — a TCP write "succeeds" into the
    // socket buffer of a connection that is already dying, and only the
    // *next* write observes the error, so the writer's requeue-on-error
    // never recovers the swallowed frame. `SyncEnd` therefore carries
    // the served vertex count; a shortfall triggers a bounded
    // re-request (re-served vertices are idempotent for the engine).
    const SYNC_RETRIES: u32 = 3;
    let mut awaiting_sync: BTreeSet<ProcessId> = committee.others(me).collect();
    let mut sync_received = vec![0u64; committee.n()];
    let mut sync_retries = vec![SYNC_RETRIES; committee.n()];
    let mut sync_deadline = Instant::now() + config.sync_timeout;
    let mut live = false;

    loop {
        let mut next = match rx.recv_timeout(TICK) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if stop.is_signalled() {
            return;
        }
        // One wake-up takes every event already queued, up to
        // `MAX_BURST`; each turn still persists before it routes.
        let mut burst = 0;
        while let Some(event) = next.take() {
            burst += 1;
            match event {
                Event::Net { from, msg } => match msg {
                    WireMsg::Engine(payload) => {
                        let input = EngineInput::Message { from, payload };
                        let turn = engine.handle(engine_now(epoch), input, &mut rng);
                        emit(&engine, turn, &mut routed);
                    }
                    WireMsg::SyncRequest => {
                        serve_sync(&mut engine, &mut rng, &queues[from.as_usize()], &frames);
                    }
                    WireMsg::SyncVertex(vertex) => {
                        sync_received[from.as_usize()] += 1;
                        let input = EngineInput::SyncVertex(vertex);
                        let turn = engine.handle(engine_now(epoch), input, &mut rng);
                        emit(&engine, turn, &mut routed);
                    }
                    WireMsg::SyncEnd { served } => {
                        if sync_received[from.as_usize()] >= served {
                            awaiting_sync.remove(&from);
                        } else if !live && sync_retries[from.as_usize()] > 0 {
                            // The stream arrived short of what the peer put on
                            // the wire: a dying connection swallowed frames.
                            // Ask again, and give the retry a fresh window.
                            sync_retries[from.as_usize()] -= 1;
                            sync_received[from.as_usize()] = 0;
                            queues[from.as_usize()].push(frames.encode(&WireMsg::SyncRequest));
                            sync_deadline = Instant::now() + config.sync_timeout;
                        } else {
                            awaiting_sync.remove(&from);
                        }
                    }
                    WireMsg::BatchRequest { digests } => {
                        serve_batches(&engine, &digests, &queues[from.as_usize()], &frames);
                    }
                    // Handshake frames are consumed by the reactor, which
                    // sends batches as `PeerBatch`; client frames never
                    // reach consensus (admission happens at the socket
                    // edge).
                    WireMsg::Hello(_)
                    | WireMsg::Batch(_)
                    | WireMsg::ClientHello
                    | WireMsg::ClientSubmit { .. }
                    | WireMsg::ClientSubmitAck { .. }
                    | WireMsg::ClientReject { .. }
                    | WireMsg::ClientSubscribe
                    | WireMsg::ClientOrdered { .. } => {}
                },
                Event::OwnBatch(batch) => {
                    // The reactor sealed and queued this batch for our peers:
                    // store it, then let the next vertex name it. Each link
                    // carries the batch ahead of that vertex, but a peer can
                    // deliver the vertex first from other peers' READYs and
                    // hold it in its buffer until the batch arrives.
                    let digest = batch.digest();
                    let turn =
                        engine.handle(engine_now(epoch), EngineInput::BatchStored(batch), &mut rng);
                    emit(&engine, turn, &mut routed);
                    if live {
                        let input = EngineInput::SubmitDigests(vec![digest]);
                        let turn = engine.handle(engine_now(epoch), input, &mut rng);
                        emit(&engine, turn, &mut routed);
                    } else {
                        // A batch seals once full, whatever the round, but a
                        // digest submitted before `start` would move the
                        // engine off genesis: queue it without driving the
                        // protocol, for the node's next vertex.
                        engine.enqueue_digests(vec![digest]);
                    }
                }
                Event::PeerBatch { from, batch } => {
                    // A peer pushes only its own batches unasked; any other
                    // is a fetch answer, wanted while a vertex names it. An
                    // honest answer that arrives after GC pruned that vertex
                    // looks like an unasked one, so neither closes the link.
                    if batch.batch().creator() == from || engine.names_batch(&batch.digest()) {
                        let input = EngineInput::BatchStored(batch);
                        let turn = engine.handle(engine_now(epoch), input, &mut rng);
                        emit(&engine, turn, &mut routed);
                    }
                }
                Event::LinkUp(peer) => {
                    if !live {
                        sync_received[peer.as_usize()] = 0;
                        queues[peer.as_usize()].push(frames.encode(&WireMsg::SyncRequest));
                    }
                }
                Event::Shutdown => return,
            }
            if burst < MAX_BURST {
                next = rx.try_recv().ok();
            }
        }
        published.max_burst.fetch_max(burst, AtomicOrdering::Relaxed);

        // Fire due timers.
        let now_instant = Instant::now();
        let mut i = 0;
        while i < routed.timers.len() {
            if routed.timers[i].0 <= now_instant {
                let (_, tag) = routed.timers.swap_remove(i);
                let turn = engine.handle(engine_now(epoch), EngineInput::Timer { tag }, &mut rng);
                emit(&engine, turn, &mut routed);
            } else {
                i += 1;
            }
        }

        // Leave the sync phase. A fresh process is still at genesis and
        // must start (propose its round-1 vertex); a rejoining one has
        // already advanced off the synced vertices and must *not* —
        // `start()` is a genesis-only entry point.
        if !live && (awaiting_sync.is_empty() || Instant::now() >= sync_deadline) {
            live = true;
            published.synced.store(true, AtomicOrdering::Relaxed);
            if engine.current_round() == Round::GENESIS && !engine.is_started() {
                let turn = engine.start(engine_now(epoch), &mut rng);
                emit(&engine, turn, &mut routed);
            }
        }

        // Publish progress for cross-thread queries.
        if !routed.ordered.is_empty() {
            let mut log = lock_unpoisoned(&published.ordered);
            log.append(&mut routed.ordered);
            published.ordered_len.store(log.len() as u64, AtomicOrdering::Release);
        }
        published.round.store(engine.current_round().number(), AtomicOrdering::Relaxed);
        published.decided_wave.store(engine.decided_wave().number(), AtomicOrdering::Relaxed);

        // Anything this iteration queued or ordered reaches the wire, and
        // the subscribed clients, after one reactor sweep, as does the
        // seal a round advance triggers — ring the bell rather than wait
        // for its tick.
        waker.wake();
    }
}

/// Adds one stored batch to the node's running totals.
fn count_batch(published: &Published, batch: &Batch) {
    published.batches.fetch_add(1, AtomicOrdering::Relaxed);
    published.batch_bytes.fetch_add(batch.payload_bytes() as u64, AtomicOrdering::Relaxed);
}

/// Serves a peer's missing-batch fetch from the engine's batch store:
/// one [`WireMsg::Batch`] frame per digest we hold. Digests we lack are
/// skipped — the requester's engine asks the next peer when its fetch
/// timer fires, so silence is a valid answer.
fn serve_batches<B: ReliableBroadcast>(
    engine: &DagRiderEngine<B>,
    digests: &[BatchDigest],
    queue: &SendQueue,
    frames: &FramePool,
) {
    for digest in digests {
        if let Some(batch) = engine.batch(digest) {
            queue.push(frames.encode_with(|buf| WireMsg::encode_batch_into(batch, buf)));
        }
    }
}

/// Streams our retained DAG to a catching-up peer: every non-genesis
/// vertex in ascending `(round, source)` order, then our own coin share
/// for each completed wave the coin still keeps
/// ([`DagRiderEngine::sync_shares`]; `f + 1` peers answering reconstructs
/// those coins), then `SyncEnd` carrying the vertex count so the
/// requester can detect in-flight loss and re-request.
fn serve_sync<B: ReliableBroadcast>(
    engine: &mut DagRiderEngine<B>,
    rng: &mut rand::rngs::StdRng,
    queue: &SendQueue,
    frames: &FramePool,
) {
    let mut served = 0u64;
    for vertex in engine.sync_vertices() {
        queue.push(frames.encode(&WireMsg::SyncVertex(vertex)));
        served += 1;
    }
    for share in engine.sync_shares(rng) {
        let msg = NodeMessage::<B::Message>::Coin(share);
        queue.push(frames.encode_with(|buf| WireMsg::encode_engine_into(&msg.to_bytes(), buf)));
    }
    queue.push(frames.encode(&WireMsg::SyncEnd { served }));
}
