//! The readiness-based reactor: one thread owns every socket.
//!
//! PR 4's engine/driver split made the network layer a driver; this
//! module makes the driver *event-driven*. Instead of ~3 OS threads per
//! peer (reader, writer, accept) plus one writer per worker lane — a
//! layout whose thread count grows with cluster size and admits no
//! client-connection story — a single reactor thread sweeps every
//! socket in non-blocking mode:
//!
//! * **inbound** — the listener plus all accepted connections. A
//!   connection's first frame classifies it: [`WireMsg::Hello`] (peer
//!   consensus link), [`WireMsg::WorkerHello`] (peer batch push
//!   stream), or [`WireMsg::ClientHello`] (client submit/subscribe
//!   session). Each connection carries its own incremental
//!   [`FrameReader`], so frames split across reads reassemble without a
//!   blocking `read_exact`.
//! * **outbound** — every dialed link ([`OutLink`]), draining the same
//!   bounded [`SendQueue`]s the per-peer writer threads used to drain,
//!   now via the non-blocking [`SendQueue::try_pop`]. A link takes up to
//!   [`MAX_IOV`] queued frames into its [`Outbox`] and writes them with
//!   one `write_vectored` call, carrying partial-write state across frame
//!   boundaries. Dead links are handed back to the dialer thread for
//!   backoff redial; every frame taken but not fully sent is requeued
//!   first.
//! * **clients** — admission control at the socket edge: bounded
//!   per-client queues, typed [`WireMsg::ClientReject`]s when load must
//!   shed, round-robin draining into the worker lanes (or inline
//!   coalesced blocks when `workers == 0`), per-connection reply queues
//!   for acks and ordered notifications. Client sockets are swept in
//!   rotating chunks so ten thousand idle connections cannot starve
//!   peer traffic.
//!
//! The reactor never blocks on I/O: when a full sweep makes no
//! progress, it parks on a [`Waker`] — the same flag-under-mutex shape
//! as [`Shutdown`], explored by `dagrider-check` — which every producer
//! (consensus routing frames, batchers sealing, the dialer registering
//! links, the client frontend) rings after publishing work. `cargo
//! xtask lint` verifies no blocking call reaches the sweep functions.
//!
//! Dialing stays on its own thread ([`dialer_loop`]): `connect` is the
//! one operation `std::net` offers no non-blocking form for (without
//! raw fd access, which `forbid(unsafe_code)` rules out), and it must
//! never stall the sweep. Likewise `accept` and the handshake write
//! live in helpers outside the lint-patrolled sweep — the listener is
//! non-blocking, so they only ever fail fast.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dagrider_core::batch_digest;
use dagrider_types::{Block, Committee, Decode, Encode, ProcessId, SeqNum, Transaction};

use crate::backoff::Backoff;
use crate::client::{tx_hash, AdmissionStats, FrontendMsg};
use crate::frame::{write_frame, Fill, Frame, FramePool, FrameReader};
use crate::queue::{Pop, SendQueue};
use crate::runtime::{Event, Published};
use crate::signal::{Shutdown, Waker};
use crate::sync::atomic::Ordering as AtomicOrdering;
use crate::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use crate::sync::Arc;
use crate::wire::{RejectReason, WireMsg};

/// Inbound connections accepted per sweep (keeps one accept storm from
/// starving established traffic).
const ACCEPT_BUDGET: usize = 256;

/// Client sockets read per sweep, as a rotating window over all of
/// them. Peer and worker connections are swept every time; clients — of
/// which there may be tens of thousands, mostly idle — take turns.
const CLIENT_SWEEP_CHUNK: usize = 2048;

/// Admitted transactions drained toward consensus per sweep, round-robin
/// across clients so one firehose client cannot monopolize a sweep.
const DRAIN_BUDGET: usize = 1024;

/// Read calls per connection per sweep (16 KiB each): bounds how long
/// one fast peer can hold the sweep.
const CONN_FILLS: usize = 4;

/// Reply frames buffered per client before the oldest notification is
/// dropped (acks and ordered notifications are best-effort toward a
/// client that stops reading).
const REPLY_QUEUE_CAP: usize = 4096;

/// How long the reactor parks when a full sweep made no progress.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// Frames one `write_vectored` call offers a socket.
const MAX_IOV: usize = 64;

/// How long the dialer waits for one TCP connect.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Which protocol stream an outbound link carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LinkKind {
    /// The consensus connection to `peer` (engine traffic, sync, acks).
    Consensus {
        /// The peer being dialed.
        peer: ProcessId,
    },
    /// Worker lane `worker`'s batch push stream to `peer`.
    Worker {
        /// The peer being dialed.
        peer: ProcessId,
        /// The local worker channel index.
        worker: u32,
    },
}

/// One connected outbound link: a non-blocking socket draining a
/// bounded [`SendQueue`] through its [`Outbox`].
pub(crate) struct OutLink {
    stream: TcpStream,
    kind: LinkKind,
    addr: SocketAddr,
    queue: Arc<SendQueue>,
    /// Frames taken from `queue` but not yet fully written.
    unsent: Outbox,
}

/// Frames bound for one socket, oldest first, with how many bytes of
/// the front frame already went out; the frames behind it are untouched,
/// so a write that stops anywhere resumes where it left off.
#[derive(Default)]
struct Outbox {
    frames: VecDeque<Frame>,
    offset: usize,
}

impl Outbox {
    /// Offers up to [`MAX_IOV`] frames to `out` in one `write_vectored`
    /// call and drops what it took. Returns whether the call took every
    /// byte offered; `false` means the socket buffer is full for now.
    fn write_to<W: Write>(&mut self, out: &mut W) -> io::Result<bool> {
        let mut iov = [IoSlice::new(&[]); MAX_IOV];
        let count = self.frames.len().min(MAX_IOV);
        let mut offered = 0;
        for (i, (slot, frame)) in iov.iter_mut().zip(&self.frames).enumerate() {
            let skip = if i == 0 { self.offset } else { 0 };
            *slot = IoSlice::new(&frame.wire_bytes()[skip..]);
            offered += slot.len();
        }
        let written = loop {
            match out.write_vectored(&iov[..count]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        self.advance(written);
        Ok(written == offered)
    }

    /// Marks `written` more bytes as sent: pops every frame they complete
    /// and leaves the offset inside the next.
    fn advance(&mut self, mut written: usize) {
        while let Some(front) = self.frames.front() {
            let left = front.wire_bytes().len() - self.offset;
            if written < left {
                self.offset += written;
                return;
            }
            written -= left;
            self.frames.pop_front();
            self.offset = 0;
        }
    }

    /// Puts every frame not fully sent back at the front of `queue`, in
    /// order. A new connection starts a fresh frame stream, so a
    /// partly-sent frame is retried whole.
    fn requeue(self, queue: &SendQueue) {
        for frame in self.frames.into_iter().rev() {
            queue.requeue_front(frame);
        }
    }
}

/// A link the dialer should (re)establish.
pub(crate) struct DialRequest {
    /// What the link carries (decides the handshake frame).
    pub kind: LinkKind,
    /// The peer address to dial.
    pub addr: SocketAddr,
    /// The bounded queue the link will drain once connected.
    pub queue: Arc<SendQueue>,
}

/// Work handed to the reactor thread from outside.
pub(crate) enum ReactorCmd {
    /// The dialer connected and handshook a link; adopt its socket.
    Register(Box<OutLink>),
    /// The frontend wants `msg` pushed to client connection `client`
    /// (dropped silently if the client is gone or unsubscribed).
    ClientSend {
        /// The reactor-assigned client connection id.
        client: u64,
        /// The notification to enqueue.
        msg: WireMsg,
    },
}

/// What an inbound connection turned out to be.
enum ConnRole {
    /// First frame not yet seen.
    Handshake,
    /// A peer's consensus connection.
    Peer(ProcessId),
    /// A peer worker lane's batch push stream.
    WorkerIn(ProcessId),
}

/// One inbound peer/handshake connection.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    role: ConnRole,
}

/// One client session, owned entirely by the reactor thread (so its
/// queues need no locks).
struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    subscribed: bool,
    /// Admitted-but-not-yet-drained submissions, bounded by
    /// `client_queue_capacity`.
    pending: VecDeque<(u64, Transaction)>,
    /// Outbound acks/rejects/notifications awaiting socket readiness.
    replies: Outbox,
}

/// Verdict after handling one inbound frame.
enum Verdict {
    Keep,
    Dead,
    ToClient,
}

/// Everything the reactor thread needs, handed over at spawn.
pub(crate) struct ReactorConfig {
    pub me: ProcessId,
    pub committee: Committee,
    pub listener: TcpListener,
    pub cmds: Receiver<ReactorCmd>,
    pub waker: Arc<Waker>,
    pub consensus: Sender<Event>,
    pub worker_txs: Vec<Sender<Transaction>>,
    pub frontend: Sender<FrontendMsg>,
    pub redial: Sender<DialRequest>,
    pub stats: Arc<AdmissionStats>,
    pub published: Arc<Published>,
    pub stop: Arc<Shutdown>,
    pub client_queue_capacity: usize,
    pub max_tx_bytes: usize,
}

/// The reactor thread body: build the sweep state and loop until
/// shutdown.
pub(crate) fn reactor_main(config: ReactorConfig) {
    let mut reactor = Reactor {
        config,
        links: Vec::new(),
        conns: Vec::new(),
        clients: HashMap::new(),
        client_ids: Vec::new(),
        stale_ids: 0,
        sweep_cursor: 0,
        drain_cursor: 0,
        next_client: 1,
        next_worker: 0,
        next_block_seq: 0,
        reply_dirty: Vec::new(),
        frames: FramePool::new(),
    };
    reactor.reactor_loop();
}

struct Reactor {
    config: ReactorConfig,
    links: Vec<OutLink>,
    conns: Vec<Conn>,
    clients: HashMap<u64, ClientConn>,
    /// Sweep/drain rotation order; ids of departed clients linger until
    /// the next compaction (`stale_ids` counts them).
    client_ids: Vec<u64>,
    stale_ids: usize,
    sweep_cursor: usize,
    drain_cursor: usize,
    next_client: u64,
    next_worker: usize,
    next_block_seq: u64,
    /// Clients with queued replies to flush this sweep.
    reply_dirty: Vec<u64>,
    frames: FramePool,
}

/// Outcome of pumping one outbound link.
enum LinkPump {
    Progress,
    Idle,
    Closed,
    Broken,
}

impl Reactor {
    /// The poll loop. `cargo xtask lint` bans every blocking call in
    /// here and in the sweep functions below — the only wait is the
    /// waker park when a full sweep made no progress.
    fn reactor_loop(&mut self) {
        loop {
            if self.config.stop.is_signalled() {
                return;
            }
            let mut progress = self.handle_cmds();
            progress |= self.accept_pending();
            progress |= self.flush_links();
            progress |= self.sweep_conns();
            progress |= self.sweep_clients();
            progress |= self.drain_admission();
            progress |= self.flush_replies();
            if !progress {
                self.config.waker.wait_timeout(IDLE_WAIT);
            }
        }
    }

    /// Adopts dialed links and frontend notifications. Never blocks:
    /// the command channel is drained with `try_recv`.
    fn handle_cmds(&mut self) -> bool {
        let mut progress = false;
        while let Ok(cmd) = self.config.cmds.try_recv() {
            progress = true;
            match cmd {
                ReactorCmd::Register(link) => self.links.push(*link),
                ReactorCmd::ClientSend { client, msg } => {
                    if let Some(conn) = self.clients.get_mut(&client) {
                        if conn.subscribed {
                            Self::queue_reply(conn, &self.frames, &msg);
                            self.reply_dirty.push(client);
                        }
                    }
                }
            }
        }
        progress
    }

    /// Accepts pending inbound connections (bounded per sweep). Lives
    /// outside the lint-patrolled sweep because of the `accept` token;
    /// the listener is non-blocking, so this never waits.
    fn accept_pending(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPT_BUDGET {
            match self.config.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.conns.push(Conn {
                        stream,
                        reader: FrameReader::new(),
                        role: ConnRole::Handshake,
                    });
                    progress = true;
                }
                Err(_) => break, // WouldBlock or transient: next sweep retries
            }
        }
        progress
    }

    /// Drains every outbound queue into its link, resuming partial
    /// writes. A broken link's unsent frames are requeued at the front
    /// and the link goes back to the dialer.
    fn flush_links(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.links.len() {
            let link = &mut self.links[i];
            match Self::pump_link(&mut link.stream, &mut link.unsent, &link.queue) {
                LinkPump::Progress => {
                    progress = true;
                    i += 1;
                }
                LinkPump::Idle => i += 1,
                LinkPump::Closed => {
                    // Queue closed and drained: the node is shutting down.
                    drop(self.links.swap_remove(i));
                }
                LinkPump::Broken => {
                    let link = self.links.swap_remove(i);
                    self.redial_link(link);
                    progress = true;
                }
            }
        }
        progress
    }

    /// Writes as much of one link's queue as the socket accepts: tops
    /// `unsent` up from `queue` and offers it in one `write_vectored`
    /// call, until the queue is empty or the socket is full.
    fn pump_link<W: Write>(stream: &mut W, unsent: &mut Outbox, queue: &SendQueue) -> LinkPump {
        let mut progress = false;
        loop {
            let mut closed = false;
            while unsent.frames.len() < MAX_IOV {
                match queue.try_pop() {
                    Pop::Frame(frame) => unsent.frames.push_back(frame),
                    Pop::TimedOut => break,
                    Pop::Closed => {
                        closed = true;
                        break;
                    }
                }
            }
            if unsent.frames.is_empty() {
                return match (closed, progress) {
                    (true, _) => LinkPump::Closed,
                    (false, true) => LinkPump::Progress,
                    (false, false) => LinkPump::Idle,
                };
            }
            match unsent.write_to(stream) {
                Ok(true) => progress = true,
                Ok(false) => return LinkPump::Progress,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return if progress { LinkPump::Progress } else { LinkPump::Idle };
                }
                Err(_) => return LinkPump::Broken,
            }
        }
    }

    /// Requeues a broken link's unsent frames and asks the dialer to
    /// re-establish it.
    fn redial_link(&self, link: OutLink) {
        let OutLink { kind, addr, queue, unsent, .. } = link;
        unsent.requeue(&queue);
        let _ = self.config.redial.send(DialRequest { kind, addr, queue });
    }

    /// Sweeps every peer/handshake connection: non-blocking reads into
    /// the per-connection [`FrameReader`], then frame dispatch.
    fn sweep_conns(&mut self) -> bool {
        let mut progress = false;
        let mut conns = std::mem::take(&mut self.conns);
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let mut verdict = Verdict::Keep;
            'io: for _ in 0..CONN_FILLS {
                // Dispatch whatever is already buffered first, so a
                // promoted or dead connection stops reading immediately.
                loop {
                    match conn.reader.next_frame() {
                        Ok(Some(bytes)) => {
                            progress = true;
                            match self.on_conn_frame(&mut conn.role, &bytes) {
                                Verdict::Keep => {}
                                other => {
                                    verdict = other;
                                    break 'io;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            verdict = Verdict::Dead;
                            break 'io;
                        }
                    }
                }
                match conn.reader.fill_from(&mut conn.stream) {
                    Ok(Fill::Read(_)) => progress = true,
                    Ok(Fill::WouldBlock) => break,
                    Ok(Fill::Eof) | Err(_) => {
                        // Dispatch what already arrived, then drop.
                        while let Ok(Some(bytes)) = conn.reader.next_frame() {
                            if !matches!(self.on_conn_frame(&mut conn.role, &bytes), Verdict::Keep)
                            {
                                break;
                            }
                        }
                        verdict = Verdict::Dead;
                        break 'io;
                    }
                }
            }
            match verdict {
                Verdict::Keep => i += 1,
                Verdict::Dead => {
                    drop(conns.swap_remove(i));
                    progress = true;
                }
                Verdict::ToClient => {
                    let conn = conns.swap_remove(i);
                    self.adopt_client(conn);
                    progress = true;
                }
            }
        }
        self.conns = conns;
        progress
    }

    /// Handles one frame on a peer/handshake connection.
    fn on_conn_frame(&mut self, role: &mut ConnRole, bytes: &[u8]) -> Verdict {
        let Ok(msg) = WireMsg::from_bytes(bytes) else { return Verdict::Dead };
        match role {
            ConnRole::Handshake => match msg {
                WireMsg::Hello(from) if self.config.committee.contains(from) => {
                    *role = ConnRole::Peer(from);
                    Verdict::Keep
                }
                WireMsg::WorkerHello { from, .. } if self.config.committee.contains(from) => {
                    *role = ConnRole::WorkerIn(from);
                    Verdict::Keep
                }
                WireMsg::ClientHello => Verdict::ToClient,
                _ => Verdict::Dead,
            },
            ConnRole::Peer(from) => {
                let from = *from;
                match msg {
                    WireMsg::Hello(_) => Verdict::Keep,
                    WireMsg::ClientHello
                    | WireMsg::ClientSubmit { .. }
                    | WireMsg::ClientSubmitAck { .. }
                    | WireMsg::ClientReject { .. }
                    | WireMsg::ClientSubscribe
                    | WireMsg::ClientOrdered { .. } => Verdict::Dead, // protocol abuse
                    other => {
                        if self.config.consensus.send(Event::Net { from, msg: other }).is_ok() {
                            Verdict::Keep
                        } else {
                            Verdict::Dead
                        }
                    }
                }
            }
            ConnRole::WorkerIn(from) => {
                let from = *from;
                // Worker push streams carry only the peer's own batches;
                // anything else is protocol abuse and drops the stream.
                let WireMsg::Batch(batch) = msg else { return Verdict::Dead };
                if batch.creator() != from {
                    return Verdict::Dead;
                }
                let digest = batch_digest(&batch);
                if self.config.consensus.send(Event::PeerBatch { from, digest, batch }).is_ok() {
                    Verdict::Keep
                } else {
                    Verdict::Dead
                }
            }
        }
    }

    /// Promotes a handshaken connection into a client session.
    fn adopt_client(&mut self, conn: Conn) {
        let id = self.next_client;
        self.next_client += 1;
        self.clients.insert(
            id,
            ClientConn {
                stream: conn.stream,
                reader: conn.reader,
                subscribed: false,
                pending: VecDeque::new(),
                replies: Outbox::default(),
            },
        );
        self.client_ids.push(id);
    }

    /// Sweeps a rotating chunk of client sockets: reads, admission, and
    /// reply queuing. Bounded per sweep so huge client counts cannot
    /// starve peer traffic.
    fn sweep_clients(&mut self) -> bool {
        if self.client_ids.is_empty() {
            return false;
        }
        let mut progress = false;
        let chunk = CLIENT_SWEEP_CHUNK.min(self.client_ids.len());
        for _ in 0..chunk {
            if self.client_ids.is_empty() {
                break;
            }
            self.sweep_cursor %= self.client_ids.len();
            let id = self.client_ids[self.sweep_cursor];
            self.sweep_cursor += 1;
            progress |= self.read_client(id);
        }
        // Compact departed ids once they dominate the rotation.
        if self.stale_ids > 0 && self.stale_ids * 2 > self.client_ids.len() {
            self.client_ids.retain(|id| self.clients.contains_key(id));
            self.stale_ids = 0;
            self.sweep_cursor = 0;
            self.drain_cursor = 0;
        }
        progress
    }

    /// Reads one client socket and performs admission on every complete
    /// submission. Shedding is always a typed reject, never silence.
    fn read_client(&mut self, id: u64) -> bool {
        let Some(client) = self.clients.get_mut(&id) else { return false };
        let mut progress = false;
        let mut dead = false;
        let mut new_replies = false;
        'io: for _ in 0..CONN_FILLS {
            loop {
                match client.reader.next_frame() {
                    Ok(Some(bytes)) => {
                        progress = true;
                        match WireMsg::from_bytes(&bytes) {
                            Ok(WireMsg::ClientSubmit { seq, tx }) => {
                                let reply = if tx.len() > self.config.max_tx_bytes {
                                    self.config.stats.record_shed();
                                    WireMsg::ClientReject { seq, reason: RejectReason::Oversized }
                                } else if !self
                                    .config
                                    .published
                                    .synced
                                    .load(AtomicOrdering::Relaxed)
                                {
                                    self.config.stats.record_shed();
                                    WireMsg::ClientReject { seq, reason: RejectReason::NotReady }
                                } else if client.pending.len() >= self.config.client_queue_capacity
                                {
                                    self.config.stats.record_shed();
                                    WireMsg::ClientReject { seq, reason: RejectReason::QueueFull }
                                } else {
                                    client.pending.push_back((seq, tx));
                                    self.config.stats.record_accept(client.pending.len());
                                    WireMsg::ClientSubmitAck { seq }
                                };
                                Self::queue_reply(client, &self.frames, &reply);
                                new_replies = true;
                            }
                            Ok(WireMsg::ClientSubscribe) => client.subscribed = true,
                            Ok(WireMsg::ClientHello) => {}
                            _ => {
                                dead = true;
                                break 'io;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break 'io;
                    }
                }
            }
            match client.reader.fill_from(&mut client.stream) {
                Ok(Fill::Read(_)) => progress = true,
                Ok(Fill::WouldBlock) => break,
                Ok(Fill::Eof) | Err(_) => {
                    dead = true;
                    break 'io;
                }
            }
        }
        if dead {
            self.drop_client(id);
            return true;
        }
        if new_replies {
            self.reply_dirty.push(id);
        }
        progress
    }

    /// Appends one reply frame, shedding the oldest when the client
    /// stops reading (replies are best-effort toward a stalled client).
    fn queue_reply(client: &mut ClientConn, frames: &FramePool, msg: &WireMsg) {
        let replies = &mut client.replies.frames;
        if replies.len() >= REPLY_QUEUE_CAP {
            // Never evict the frame mid-write at the front.
            if replies.len() > 1 {
                replies.remove(1);
            }
        }
        replies.push_back(frames.encode(msg));
    }

    /// Removes a departed client and tells the frontend to forget its
    /// waiting notifications.
    fn drop_client(&mut self, id: u64) {
        if self.clients.remove(&id).is_some() {
            self.stale_ids += 1;
            let _ = self.config.frontend.send(FrontendMsg::ClientGone { client: id });
        }
    }

    /// Round-robin drain of admitted submissions toward consensus: into
    /// the worker lanes when the batch layer is on, or coalesced into
    /// inline blocks when `workers == 0`. Budgeted per sweep — this is
    /// the per-client fairness point.
    fn drain_admission(&mut self) -> bool {
        if self.client_ids.is_empty() {
            return false;
        }
        let mut budget = DRAIN_BUDGET;
        let mut idle_streak = 0usize;
        let mut coalesced: Vec<Transaction> = Vec::new();
        let mut coalesced_bytes = 0usize;
        let mut drained = false;
        while budget > 0 && idle_streak < self.client_ids.len() {
            self.drain_cursor %= self.client_ids.len();
            let id = self.client_ids[self.drain_cursor];
            self.drain_cursor += 1;
            let Some(client) = self.clients.get_mut(&id) else {
                idle_streak += 1;
                continue;
            };
            let Some((seq, tx)) = client.pending.pop_front() else {
                idle_streak += 1;
                continue;
            };
            idle_streak = 0;
            budget -= 1;
            drained = true;
            self.config.stats.record_coalesce();
            if client.subscribed {
                let hash = tx_hash(tx.as_ref());
                let _ = self.config.frontend.send(FrontendMsg::Admitted { client: id, seq, hash });
            }
            if self.config.worker_txs.is_empty() {
                coalesced_bytes += tx.len();
                coalesced.push(tx);
                if coalesced_bytes >= self.config.max_tx_bytes {
                    self.submit_block(std::mem::take(&mut coalesced));
                    coalesced_bytes = 0;
                }
            } else {
                let at = self.next_worker;
                self.next_worker = self.next_worker.wrapping_add(1);
                let lane = &self.config.worker_txs[at % self.config.worker_txs.len()];
                let _ = lane.send(tx);
            }
        }
        if !coalesced.is_empty() {
            self.submit_block(coalesced);
        }
        drained
    }

    /// Submits one coalesced inline block (the `workers == 0` path).
    fn submit_block(&mut self, txs: Vec<Transaction>) {
        let block = Block::new(self.config.me, SeqNum::new(self.next_block_seq), txs);
        self.next_block_seq += 1;
        let _ = self.config.consensus.send(Event::Submit(block));
    }

    /// Flushes queued reply frames for every client marked dirty,
    /// resuming partial writes.
    fn flush_replies(&mut self) -> bool {
        if self.reply_dirty.is_empty() {
            return false;
        }
        let dirty = std::mem::take(&mut self.reply_dirty);
        let mut progress = false;
        for id in dirty {
            let Some(client) = self.clients.get_mut(&id) else { continue };
            match Self::pump_client_replies(&mut client.stream, &mut client.replies) {
                Ok((drained, wrote)) => {
                    progress |= wrote;
                    if !drained {
                        self.reply_dirty.push(id);
                    }
                }
                Err(_) => {
                    self.drop_client(id);
                    progress = true;
                }
            }
        }
        progress
    }

    /// Writes as much of one client's reply queue as the socket accepts,
    /// [`MAX_IOV`] frames per `write_vectored` call. Returns `(fully
    /// drained, wrote anything)`.
    fn pump_client_replies<W: Write>(
        stream: &mut W,
        replies: &mut Outbox,
    ) -> io::Result<(bool, bool)> {
        let mut wrote = false;
        while !replies.frames.is_empty() {
            match replies.write_to(stream) {
                Ok(all) => {
                    wrote = true;
                    if !all {
                        return Ok((false, true));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((false, wrote)),
                Err(e) => return Err(e),
            }
        }
        Ok((true, wrote))
    }
}

/// The dialer thread: the one place TCP `connect` happens. Each
/// requested link is dialed with capped jittered backoff; a connected
/// socket gets its handshake frame written (still blocking — the frame
/// is a handful of bytes), is flipped to non-blocking, and is handed to
/// the reactor. Consensus links additionally raise [`Event::LinkUp`] so
/// the sync protocol re-requests on every reconnect, exactly as the
/// per-peer writer threads used to.
pub(crate) fn dialer_loop(
    me: ProcessId,
    rx: &Receiver<DialRequest>,
    reactor: &Sender<ReactorCmd>,
    waker: &Waker,
    consensus: &Sender<Event>,
    stop: &Shutdown,
) {
    let mut backoffs: HashMap<LinkKind, Backoff> = HashMap::new();
    let mut pending: Vec<(DialRequest, Instant)> = Vec::new();
    loop {
        if stop.is_signalled() {
            return;
        }
        let now = Instant::now();
        let nap = pending
            .iter()
            .map(|(_, due)| due.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(50))
            .clamp(Duration::from_millis(1), Duration::from_millis(50));
        match rx.recv_timeout(nap) {
            Ok(req) => pending.push((req, Instant::now())),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        while let Ok(req) = rx.try_recv() {
            pending.push((req, Instant::now()));
        }
        let now = Instant::now();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].1 > now || stop.is_signalled() {
                i += 1;
                continue;
            }
            let (req, _) = pending.swap_remove(i);
            match dial(me, &req) {
                Ok(link) => {
                    if let Some(backoff) = backoffs.get_mut(&req.kind) {
                        backoff.reset();
                    }
                    if let LinkKind::Consensus { peer } = req.kind {
                        let _ = consensus.send(Event::LinkUp(peer));
                    }
                    if reactor.send(ReactorCmd::Register(Box::new(link))).is_err() {
                        return; // reactor gone: the node is stopping
                    }
                    waker.wake();
                }
                Err(_) => {
                    let backoff = backoffs.entry(req.kind).or_insert_with(|| {
                        let seed = jitter_seed(me, req.kind);
                        Backoff::new(Duration::from_millis(50), Duration::from_secs(2))
                            .with_jitter(30, seed)
                    });
                    let due = Instant::now() + backoff.next_delay();
                    pending.push((req, due));
                }
            }
        }
    }
}

/// Per-link jitter seed so a cluster-wide peer death does not redial in
/// lockstep.
fn jitter_seed(me: ProcessId, kind: LinkKind) -> u64 {
    match kind {
        LinkKind::Consensus { peer } => (me.as_usize() as u64) << 32 | peer.as_usize() as u64,
        LinkKind::Worker { peer, worker } => {
            (me.as_usize() as u64) << 48 | u64::from(worker) << 32 | peer.as_usize() as u64
        }
    }
}

/// One connection attempt: connect with a timeout, write the handshake
/// frame, flip to non-blocking.
fn dial(me: ProcessId, req: &DialRequest) -> io::Result<OutLink> {
    let mut stream = TcpStream::connect_timeout(&req.addr, DIAL_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    let hello = match req.kind {
        LinkKind::Consensus { .. } => WireMsg::Hello(me),
        LinkKind::Worker { worker, .. } => WireMsg::WorkerHello { from: me, worker },
    };
    write_frame(&mut stream, &hello.to_bytes())?;
    stream.set_nonblocking(true)?;
    Ok(OutLink {
        stream,
        kind: req.kind,
        addr: req.addr,
        queue: Arc::clone(&req.queue),
        unsent: Outbox::default(),
    })
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;

    /// A non-blocking socket stand-in: call `i` takes at most
    /// `limits[i % len]` bytes across the offered slices, and a zero
    /// limit is a full socket (`WouldBlock`). `fail_at: Some(k)` breaks
    /// the connection once `k` calls have taken bytes.
    struct Trickle {
        out: Vec<u8>,
        limits: Vec<usize>,
        calls: usize,
        /// Where in `out` each accepting call ended.
        ends: Vec<usize>,
        fail_at: Option<usize>,
    }

    impl Trickle {
        fn new(limits: Vec<usize>) -> Self {
            Self { out: Vec::new(), limits, calls: 0, ends: Vec::new(), fail_at: None }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut room = self.limits[self.calls % self.limits.len()];
            self.calls += 1;
            if room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if self.fail_at == Some(self.ends.len()) {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            let start = self.out.len();
            for buf in bufs {
                let n = room.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            self.ends.push(self.out.len());
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j) as u8).collect()
    }

    fn queued(payloads: &[Vec<u8>]) -> SendQueue {
        let queue = SendQueue::new(1024);
        for p in payloads {
            assert!(queue.push(Frame::from_payload(p)));
        }
        queue
    }

    /// Every frame the wire carried, decoded through a [`FrameReader`].
    fn decode(wire: &[u8]) -> Vec<Vec<u8>> {
        let mut reader = FrameReader::new();
        let mut src = Cursor::new(wire.to_vec());
        while let Ok(Fill::Read(_)) = reader.fill_from(&mut src) {}
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().expect("well-formed stream") {
            frames.push(frame);
        }
        assert_eq!(reader.buffered(), 0, "a frame was cut short");
        frames
    }

    /// Pumps `queue` through `writer` until both it and the outbox are
    /// empty.
    fn pump_dry(writer: &mut Trickle, queue: &SendQueue) {
        let mut unsent = Outbox::default();
        for _ in 0..100_000 {
            match Reactor::pump_link(writer, &mut unsent, queue) {
                LinkPump::Progress | LinkPump::Idle => {}
                LinkPump::Closed | LinkPump::Broken => panic!("link died"),
            }
            if unsent.frames.is_empty() && queue.is_empty() {
                return;
            }
        }
        panic!("pump never drained the queue");
    }

    #[test]
    fn vectored_writes_resume_mid_frame_and_keep_every_byte() {
        // Wire lengths 7, 16 and 4; the socket is full once, after the
        // first write. The middle frame spans three writes: 4 of its
        // bytes ride the second behind the first frame's tail, 6 the
        // third, and its last 6 lead the fourth ahead of the last frame.
        let payloads = vec![payload(0, 3), payload(1, 12), payload(2, 0)];
        let mut writer = Trickle::new(vec![5, 0, 6, 6, 100]);
        pump_dry(&mut writer, &queued(&payloads));
        assert_eq!(writer.ends, vec![5, 11, 17, 27]);
        assert_eq!(decode(&writer.out), payloads);

        // Many frames, more than one vectored call can offer, under
        // every limit from one byte per call up, with a full socket
        // every fifth call: the stream is byte-identical and in order.
        let sizes = [3, 12, 0, 1, 40, 300, 7, 64, 2, 1000];
        let payloads: Vec<Vec<u8>> = (0..150).map(|i| payload(i, sizes[i % sizes.len()])).collect();
        for k in [1, 2, 7, 33, 4096, 1 << 20] {
            let mut seed = 0x9e37_79b9_u64 ^ k as u64;
            let limits = (0..97)
                .map(|i| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if i % 5 == 4 {
                        0
                    } else {
                        1 + (seed % k as u64) as usize
                    }
                })
                .collect();
            let mut writer = Trickle::new(limits);
            pump_dry(&mut writer, &queued(&payloads));
            assert_eq!(decode(&writer.out), payloads, "limit {k}");

            // The client reply path shares the outbox.
            let mut writer = Trickle::new(writer.limits);
            let mut replies = Outbox::default();
            replies.frames.extend(payloads.iter().map(|p| Frame::from_payload(p)));
            while !matches!(Reactor::pump_client_replies(&mut writer, &mut replies), Ok((true, _)))
            {
            }
            assert_eq!(decode(&writer.out), payloads, "limit {k}, replies");
        }
    }

    #[test]
    fn a_broken_link_requeues_its_unsent_frames_in_order() {
        // Wire lengths 7, 9, 4, 5, 104: the first call takes the first
        // frame and 3 bytes of the second, then the connection breaks.
        let payloads: Vec<Vec<u8>> =
            [3, 5, 0, 1, 100].iter().enumerate().map(|(i, &len)| payload(i, len)).collect();
        let queue = queued(&payloads);
        let mut writer = Trickle::new(vec![10]);
        writer.fail_at = Some(1);
        let mut unsent = Outbox::default();
        assert!(matches!(Reactor::pump_link(&mut writer, &mut unsent, &queue), LinkPump::Progress));
        assert!(matches!(Reactor::pump_link(&mut writer, &mut unsent, &queue), LinkPump::Broken));
        assert_eq!(decode(&writer.out[..7]), payloads[..1]);

        // A frame queued while the link was dying stays behind the
        // requeued ones.
        let late = payload(9, 2);
        queue.push(Frame::from_payload(&late));
        unsent.requeue(&queue);
        let mut expected: Vec<Frame> =
            payloads[1..].iter().map(|p| Frame::from_payload(p)).collect();
        expected.push(Frame::from_payload(&late));
        for frame in expected {
            assert_eq!(queue.try_pop(), Pop::Frame(frame));
        }
        assert_eq!(queue.try_pop(), Pop::TimedOut);
    }
}
