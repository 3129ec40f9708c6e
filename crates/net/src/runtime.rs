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
//!   payload once per instance and each peer batch once, and checks each
//!   coin share's proof. It forwards the durable subset of each engine
//!   turn's events to the flusher before routing the turn's outputs, which
//!   are sends, broadcasts, timers and ordered vertices only: batch
//!   pushes, fetches and fetch answers are engine messages like any
//!   other. Transactions reach it on a channel of their own, which
//!   [`NetNode::submit_tx`] and the reactor's client admission both feed;
//!   before each event it hands whatever the channel holds to the
//!   engine's open batch. The engine seals that batch once full or when
//!   it creates its next vertex, which then names it, and broadcasts the
//!   batch ahead of that vertex. Consensus orders only batch digests.
//! * **reactor** — owns *every* socket: the listener, one inbound and
//!   one outbound link per peer, and all client sessions, swept in
//!   non-blocking readiness loops (see `crate::reactor`). Client
//!   admission, load shedding, round-robin fairness, and matching
//!   ordered transactions back to subscribed clients' submissions live
//!   here, at the socket edge.
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
//! tail) into the fresh engine, then joins ([`DagRiderEngine::join`],
//! with [`NetConfig::sync_timeout`] as the deadline) and tells the engine
//! of every link the dialer brings up; the engine runs the sync phase
//! itself, and [`NetNode::is_live`] reads it after each burst.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dagrider_core::{
    DagRiderEngine, DurableEvent, EngineEvent, EngineInput, EngineOutput, NodeConfig,
    OrderedVertex, Turn, BATCH_MAX_BYTES,
};
use dagrider_crypto::CoinKeys;
use dagrider_rbc::ReliableBroadcast;
use dagrider_store::{replay_into, DurableStore, FsyncPolicy, Recovered, StoreSnapshot};
use dagrider_types::{Batch, Committee, ProcessId, Round, Time, Transaction, Wave};

use crate::client::{AdmissionSnapshot, AdmissionStats};
use crate::frame::FramePool;
use crate::queue::SendQueue;
use crate::reactor::{dialer_loop, reactor_main, DialRequest, ReactorConfig};
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
    /// How long the engine's sync phase waits for peers' sync streams,
    /// from its last request, before it goes live anyway.
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

    /// Does nothing: a node's engine keeps one open batch, the node keeps
    /// one link per peer, and every batch seals as worker 0. The
    /// repository benchmark calls it, so deleting it waits for that
    /// benchmark's next version.
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
    /// The engine payload of an identified peer's `Engine` frame.
    Message { from: ProcessId, payload: Vec<u8> },
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
    /// The engine's current round, for [`NetNode::current_round`].
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

        // Transactions for the engine's open batch, from `submit_tx` and
        // the reactor's client admission.
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
                listener,
                dialed: dialed_rx,
                waker: Arc::clone(&waker),
                consensus: tx.clone(),
                submitted: submitted.clone(),
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
                    Inbox { events: rx, transactions: submitted_rx },
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

    /// Submits one transaction for atomic broadcast through the engine's
    /// open batch: its bytes travel in the batch, pushed to every peer,
    /// and consensus orders the batch digest. Consensus takes it before
    /// its next event, and the node's next vertex names it.
    /// Returns `false` for a transaction longer than [`BATCH_MAX_BYTES`],
    /// which client admission refuses as `Oversized` too, and once the
    /// node has shut down.
    pub fn submit_tx(&self, tx: Transaction) -> bool {
        tx.len() <= BATCH_MAX_BYTES && self.submitted.send(tx).is_ok()
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

/// The consensus thread's two channels: the events that wake it, and the
/// transactions for the engine's open batch (from [`NetNode::submit_tx`]
/// and client admission), whose sends wake nothing.
struct Inbox {
    events: Receiver<Event>,
    transactions: Receiver<Transaction>,
}

/// Events one consensus wake-up takes before it fires timers, publishes
/// progress and rings the reactor.
const MAX_BURST: u64 = 64;

/// Outbound queue capacity per peer link, in frames (drop-oldest
/// beyond). Batches share it with every other engine frame.
const QUEUE_CAPACITY: usize = 4096;

/// Engine payloads longer than this take a frame pool of their own. No
/// vertex, broadcast-layer or coin frame comes near it; batches of more
/// than a few transactions pass it.
const LARGE_FRAME_BYTES: usize = 4 * 1024;

/// How long the consensus thread waits for an event before it fires due
/// timers anyway (timer resolution, shutdown latency).
const TICK: Duration = Duration::from_millis(25);

/// The consensus thread: replays the store and joins, then drives the
/// engine until shutdown. Each wake-up takes a burst of queued events,
/// handing the engine the submitted transactions before each, and ends by
/// ringing the reactor's waker once, so frames the engine pushed hit the
/// wire without waiting for the reactor's idle tick.
fn consensus_loop<B: ReliableBroadcast>(
    config: NetConfig,
    inbox: Inbox,
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
    // Encode buffers recycle through these pools: steady-state outbound
    // traffic allocates nothing. Payloads past `LARGE_FRAME_BYTES`
    // (batches, up to twice `BATCH_MAX_BYTES`) keep a pool of their own:
    // a buffer never shrinks, and one that carried a batch and then went
    // round with the vertex frames would keep its size there.
    let frames = FramePool::new();
    let large_frames = FramePool::new();
    let engine_frame = |payload: &[u8]| {
        let pool = if payload.len() > LARGE_FRAME_BYTES { &large_frames } else { &frames };
        pool.encode_with(|buf| WireMsg::encode_engine_into(payload, buf))
    };
    let route = |outs: Vec<EngineOutput>, routed: &mut Routed| {
        for out in outs {
            match out {
                EngineOutput::Send { to, payload } => {
                    queues[to.as_usize()].push(engine_frame(&payload));
                }
                EngineOutput::Broadcast { payload } => {
                    // Encoded exactly once; every queue holds a refcounted
                    // handle to the same buffer.
                    let frame = engine_frame(&payload);
                    for to in committee.others(me) {
                        queues[to.as_usize()].push(frame.clone());
                    }
                }
                EngineOutput::SetTimer { delay, tag } => {
                    routed.timers.push((Instant::now() + Duration::from_millis(delay), tag));
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

    // The engine runs the sync phase from here (see the module docs).
    let timeout = u64::try_from(config.sync_timeout.as_millis()).unwrap_or(u64::MAX);
    let turn = engine.join(engine_now(epoch), timeout);
    emit(&engine, turn, &mut routed);

    loop {
        let mut next = match inbox.events.recv_timeout(TICK) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if stop.is_signalled() {
            return;
        }
        // One wake-up takes every event already queued, up to
        // `MAX_BURST`; each turn still persists before it routes. Before
        // each event, and once more after the last, the engine takes the
        // transactions submitted so far, so the vertex any event makes
        // names them.
        let mut burst = 0;
        loop {
            let mut transactions = Vec::new();
            while let Ok(tx) = inbox.transactions.try_recv() {
                transactions.push(tx);
            }
            if !transactions.is_empty() {
                let input = EngineInput::SubmitTransactions(transactions);
                let turn = engine.handle(engine_now(epoch), input, &mut rng);
                emit(&engine, turn, &mut routed);
            }
            let Some(event) = next.take() else { break };
            burst += 1;
            let input = match event {
                Event::Message { from, payload } => EngineInput::Message { from, payload },
                Event::LinkUp(peer) => EngineInput::LinkUp(peer),
                Event::Shutdown => return,
            };
            let turn = engine.handle(engine_now(epoch), input, &mut rng);
            emit(&engine, turn, &mut routed);
            if burst < MAX_BURST {
                next = inbox.events.try_recv().ok();
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

        // Publish progress for cross-thread queries.
        if !routed.ordered.is_empty() {
            let mut log = lock_unpoisoned(&published.ordered);
            log.append(&mut routed.ordered);
            published.ordered_len.store(log.len() as u64, AtomicOrdering::Release);
        }
        published.round.store(engine.current_round().number(), AtomicOrdering::Relaxed);
        published.decided_wave.store(engine.decided_wave().number(), AtomicOrdering::Relaxed);
        published.synced.store(engine.is_live(), AtomicOrdering::Relaxed);

        // Anything this iteration queued or ordered reaches the wire, and
        // the subscribed clients, after one reactor sweep — ring the bell
        // rather than wait for its tick.
        waker.wake();
    }
}

/// Adds one stored batch to the node's running totals.
fn count_batch(published: &Published, batch: &Batch) {
    published.batches.fetch_add(1, AtomicOrdering::Relaxed);
    published.batch_bytes.fetch_add(batch.payload_bytes() as u64, AtomicOrdering::Relaxed);
}
