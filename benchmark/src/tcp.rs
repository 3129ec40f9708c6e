//! The two TCP workloads: an in-process 4-node `NetNode` cluster (2
//! worker lanes, `gc_depth(64)`, Bracha RBC) driven through the real
//! client wire protocol by a one-thread generator over two client
//! connections — connection 0 to node 0, connection 1 to node 1.
//!
//! `small_open` submits 128 B transactions on a seeded Poisson schedule
//! (open loop) and times each one from its due instant; `large_durable`
//! keeps a fixed window of 4 KiB transactions in flight per connection
//! (closed loop) against nodes with durable stores and times each one
//! from its submit instant. A run is made of segments, each on a fresh
//! cluster: the open loop measures all of `--seconds` in one segment,
//! the closed loop repeats fixed-size segments (see [`Load::Closed`]).
//! Every segment ends with a drain: submissions stop at the end of the
//! measured window and the generator waits for every outstanding
//! notification (up to [`DRAIN`]); whatever is still missing then
//! counts as failed.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dagrider_core::NodeConfig;
use dagrider_crypto::deal_coin_keys;
use dagrider_net::{Fill, FrameReader, NetConfig, NetNode, StoreConfig, WireMsg};
use dagrider_rbc::BrachaRbc;
use dagrider_types::{Committee, Decode, Encode, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{
    dir_bytes, median, peak_rss_mb, percentile, process_cpu_s, rss_mb, sorted, thread_cpu_s,
    Outcome,
};

const NODES: usize = 4;
const WORKERS: usize = 2;
const CONNS: usize = 2;
const GC_DEPTH: u64 = 64;
/// Unmeasured lead-in of the open loop: the cluster reaches its steady
/// round cadence.
const WARMUP: Duration = Duration::from_millis(1500);
/// Longest wait for outstanding notifications after the window closes.
const DRAIN: Duration = Duration::from_secs(5);
/// Extra wait for notifications of transactions already in the log
/// before a missing one counts as dropped.
const GRACE: Duration = Duration::from_secs(2);
/// Cluster set-ups per untraced run, at least; `setup_s` is their median.
const SETUPS: usize = 21;
/// Slices of the open loop's measured window. A latency percentile is
/// the median of its per-slice values, so one stall moves one slice,
/// not the result. A closed-loop segment is one slice.
const SLICES: usize = 10;
/// How often the traced run reads the submitting nodes' ordered logs.
const LOG_POLL: Duration = Duration::from_millis(1);
/// A run whose resident memory passes this many MB stops with an error
/// instead of exhausting the host: every ordered byte stays in memory
/// several times over, so memory grows with the work a segment does.
const MEMORY_GUARD_MB: f64 = 4096.0;
/// No notification for this long while submitting is a stall.
const STALL: Duration = Duration::from_secs(20);

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Seeded Poisson arrivals at a fixed aggregate rate, measured for
    /// all of `--seconds` on one cluster after [`WARMUP`].
    Open { tx_per_s: f64 },
    /// A fixed number of transactions in flight per connection, on
    /// fixed-size segments: each segment is a fresh cluster that orders
    /// `warm_txs` unmeasured and then `segment_txs` measured
    /// transactions. Fixed work keeps every segment's state (stores,
    /// logs, memory) the same size whatever the host's speed. Segments
    /// repeat while another fits in `--seconds`.
    Closed { window: usize, warm_txs: u64, segment_txs: u64 },
}

impl Load {
    /// Whether the unmeasured lead-in is over, `since` the segment's
    /// start with `notified` notifications so far.
    fn warmed(self, since: Duration, notified: u64) -> bool {
        match self {
            Self::Open { .. } => since >= WARMUP,
            Self::Closed { warm_txs, .. } => notified >= warm_txs,
        }
    }

    /// Whether the measured window is complete, `since` it opened with
    /// `notified` notifications inside it.
    fn measured(self, since: Duration, notified: u64, secs: f64) -> bool {
        match self {
            Self::Open { .. } => since.as_secs_f64() >= secs,
            Self::Closed { segment_txs, .. } => notified >= segment_txs,
        }
    }

    /// Slices a segment's window is cut into for latency percentiles.
    fn slices(self) -> usize {
        match self {
            Self::Open { .. } => SLICES,
            Self::Closed { .. } => 1,
        }
    }
}

/// One TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub tx_size: usize,
    pub load: Load,
    pub durable: bool,
}

pub const SMALL_OPEN: Workload =
    Workload { tx_size: 128, load: Load::Open { tx_per_s: 5_000.0 }, durable: false };

pub const LARGE_DURABLE: Workload = Workload {
    tx_size: 4096,
    load: Load::Closed { window: 16, warm_txs: 512, segment_txs: 2048 },
    durable: true,
};

/// Transaction tags carry this marker in their top 16 bits, the
/// connection in the next 8 and the per-connection sequence number in
/// the low 40, so any ordered transaction maps back to its request.
const TAG_MARK: u64 = 0xda6b << 48;

fn tag(conn: usize, seq: u64) -> u64 {
    TAG_MARK | (conn as u64) << 40 | seq
}

fn untag(tx: &Transaction) -> Option<(usize, usize)> {
    let head: [u8; 8] = tx.payload().get(..8)?.try_into().ok()?;
    let tag = u64::from_le_bytes(head);
    (tag >> 48 == TAG_MARK >> 48)
        .then_some((((tag >> 40) & 0xff) as usize, (tag & ((1 << 40) - 1)) as usize))
}

/// One request's life, as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Open loop: the scheduled instant; closed loop: when the freed
    /// slot was observed (the instant the request became due).
    due: Instant,
    /// When its frame was fully written to the socket.
    sent: Option<Instant>,
    acked: Option<Instant>,
    /// When it first appeared in the submitting node's ordered log
    /// (traced only).
    logged: Option<Instant>,
    notified: Option<Instant>,
    rejected: bool,
}

/// One framed client connection, nonblocking.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    out_head: usize,
    /// Requests whose frames are queued but not yet fully written.
    unsent: Vec<usize>,
    reqs: Vec<Req>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Self {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_head: 0,
            unsent: Vec::new(),
            reqs: Vec::new(),
        };
        conn.queue(&WireMsg::ClientHello);
        conn.queue(&WireMsg::ClientSubscribe);
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.out_head < conn.out.len() {
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "client handshake stalled"));
            }
            if !conn.flush(Instant::now())? {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(conn)
    }

    fn queue(&mut self, msg: &WireMsg) {
        let payload = msg.to_bytes();
        self.out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&payload);
    }

    /// Queues request `seq`'s submission.
    fn submit(&mut self, conn: usize, due: Instant, filler: &[u8]) {
        let seq = self.reqs.len();
        let mut bytes = Vec::with_capacity(filler.len());
        bytes.extend_from_slice(&tag(conn, seq as u64).to_le_bytes());
        bytes.extend_from_slice(&filler[8..]);
        self.queue(&WireMsg::ClientSubmit { seq: seq as u64, tx: Transaction::new(bytes) });
        self.reqs.push(Req {
            due,
            sent: None,
            acked: None,
            logged: None,
            notified: None,
            rejected: false,
        });
        self.unsent.push(seq);
    }

    /// Writes what the socket accepts; returns whether anything moved.
    fn flush(&mut self, now: Instant) -> io::Result<bool> {
        let mut moved = false;
        while self.out_head < self.out.len() {
            match self.stream.write(&self.out[self.out_head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_head += n;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_head == self.out.len() {
            self.out.clear();
            self.out_head = 0;
            for seq in self.unsent.drain(..) {
                self.reqs[seq].sent = Some(now);
            }
        } else if self.out_head > 1 << 20 {
            self.out.drain(..self.out_head);
            self.out_head = 0;
        }
        Ok(moved)
    }

    /// Reads and decodes every frame available right now.
    fn read(&mut self, into: &mut Vec<WireMsg>) -> io::Result<()> {
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                let msg = WireMsg::from_bytes(&frame)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
                into.push(msg);
                continue;
            }
            match self.reader.fill_from(&mut self.stream)? {
                Fill::Read(_) => {}
                Fill::WouldBlock => return Ok(()),
                Fill::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
            }
        }
    }
}

/// The seeded Poisson arrival schedule of the open loop.
struct Arrivals {
    rng: StdRng,
    tx_per_s: f64,
    next: Instant,
}

impl Arrivals {
    /// Returns the current arrival (due instant, connection) and draws
    /// the next one.
    fn pop(&mut self) -> (Instant, usize) {
        let due = self.next;
        let unit = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.next += Duration::from_secs_f64(-(1.0 - unit).ln() / self.tx_per_s);
        (due, (self.rng.next_u64() & 1) as usize)
    }
}

/// A live cluster plus its connected clients.
struct Cluster {
    nodes: Vec<NetNode>,
    conns: Vec<Conn>,
}

impl Cluster {
    fn start(seed: u64, store_root: Option<&Path>) -> Result<Self, String> {
        let committee = Committee::new(NODES).map_err(|e| format!("committee: {e:?}"))?;
        let listeners = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("bind: {e}"))?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("local addr: {e}"))?;
        let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
        let mut nodes = Vec::with_capacity(NODES);
        for (i, listener) in listeners.into_iter().enumerate() {
            let mut config = NetConfig::new(
                committee,
                ProcessId::new(i as u32),
                addrs.clone(),
                NodeConfig::default().with_gc_depth(GC_DEPTH),
                keys[i].clone(),
                seed.wrapping_add(i as u64),
            )
            .with_sync_timeout(Duration::from_millis(500))
            .with_workers(WORKERS);
            if let Some(root) = store_root {
                config = config.with_store(StoreConfig::new(root.join(format!("node{i}"))));
            }
            nodes.push(
                NetNode::start::<BrachaRbc>(config, Some(listener))
                    .map_err(|e| format!("start node {i}: {e}"))?,
            );
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while !nodes.iter().all(NetNode::is_live) {
            if Instant::now() > deadline {
                return Err("cluster did not go live within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let conns = (0..CONNS)
            .map(|c| Conn::connect(nodes[c].local_addr()))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("client connect: {e}"))?;
        Ok(Self { nodes, conns })
    }
}

/// Readings at one edge of the measured window.
#[derive(Debug, Clone, Copy)]
struct Edge {
    at: Instant,
    /// Notifications the generator had received.
    notified: u64,
    cpu_s: f64,
    gen_cpu_s: f64,
    round: u64,
    wave: u64,
    log_len: usize,
    batches: usize,
}

impl Edge {
    fn read(nodes: &[NetNode], at: Instant, notified: u64) -> Self {
        Self {
            at,
            notified,
            cpu_s: process_cpu_s(),
            gen_cpu_s: thread_cpu_s(),
            round: nodes[0].current_round().number(),
            wave: nodes[0].decided_wave().number(),
            log_len: nodes[0].ordered_len(),
            batches: nodes[0].batches_stored(),
        }
    }
}

/// The generator loop's state.
struct Generator<'a> {
    wl: &'a Workload,
    filler: Vec<u8>,
    traced: bool,
    submitting: bool,
    /// Submitted, not yet notified or refused.
    outstanding: usize,
    /// Notifications received so far.
    notified: u64,
    last_notify: Instant,
    problems: Vec<String>,
    inbox: Vec<WireMsg>,
}

impl Generator<'_> {
    fn submit(&mut self, conns: &mut [Conn], conn: usize, due: Instant) {
        conns[conn].submit(conn, due, &self.filler);
        self.outstanding += 1;
    }

    /// Flushes, reads and handles every connection once.
    fn pump(&mut self, conns: &mut [Conn]) -> Result<bool, String> {
        let mut moved = false;
        for c in 0..conns.len() {
            let now = Instant::now();
            moved |= conns[c].flush(now).map_err(|e| format!("connection {c} write: {e}"))?;
            let mut inbox = std::mem::take(&mut self.inbox);
            conns[c].read(&mut inbox).map_err(|e| format!("connection {c} read: {e}"))?;
            moved |= !inbox.is_empty();
            let now = Instant::now();
            for msg in inbox.drain(..) {
                self.handle(conns, c, msg, now);
            }
            self.inbox = inbox;
        }
        Ok(moved)
    }

    fn handle(&mut self, conns: &mut [Conn], c: usize, msg: WireMsg, now: Instant) {
        let (seq, kind) = match msg {
            WireMsg::ClientSubmitAck { seq } => (seq, 0),
            WireMsg::ClientReject { seq, .. } => (seq, 1),
            WireMsg::ClientOrdered { seq } => (seq, 2),
            other => {
                self.problems.push(format!("connection {c}: unexpected {other:?}"));
                return;
            }
        };
        let Some(req) = conns[c].reqs.get_mut(seq as usize) else {
            self.problems.push(format!("connection {c}: reply for unsubmitted seq {seq}"));
            return;
        };
        match kind {
            0 => {
                req.acked.get_or_insert(now);
                return;
            }
            1 if req.notified.is_none() && !req.rejected => req.rejected = true,
            2 if req.notified.is_none() && !req.rejected => {
                req.notified = Some(now);
                self.last_notify = now;
                self.notified += 1;
            }
            _ => {
                self.problems.push(format!("connection {c}: seq {seq} answered twice"));
                return;
            }
        }
        self.outstanding -= 1;
        if self.submitting {
            if let Load::Closed { .. } = self.wl.load {
                self.submit(conns, c, now);
            }
        }
    }
}

/// Reads the submitting nodes' new log entries and stamps `logged`.
fn poll_logs(nodes: &[NetNode], conns: &mut [Conn], cursors: &mut [usize], now: Instant) {
    for (c, conn) in conns.iter_mut().enumerate() {
        let fresh = nodes[c].ordered_from(cursors[c]);
        cursors[c] += fresh.len();
        for tx in fresh.iter().flat_map(|v| v.block.transactions()) {
            if let Some((owner, seq)) = untag(tx) {
                if owner == c {
                    if let Some(req) = conn.reqs.get_mut(seq) {
                        req.logged.get_or_insert(now);
                    }
                }
            }
        }
    }
}

/// Everything one segment measured, before it becomes metrics.
struct Run {
    setup_s: Vec<f64>,
    secs: f64,
    start: Edge,
    end: Edge,
    end_of_run: Instant,
    conns: Vec<Conn>,
    /// `VmHWM` when the window closed: the process's peak so far.
    peak_rss_mb: f64,
    problems: Vec<String>,
    log_window_txs: u64,
    log_total_txs: u64,
    shed: u64,
    queue_high_water: u64,
    dropped_frames: u64,
    verify_high_water: u64,
    rejected_shares: u64,
    stored_mb: f64,
    store_bytes: u64,
    stores_healthy: bool,
}

impl Run {
    /// Requests due inside the measured window.
    fn measured(&self) -> impl Iterator<Item = &Req> {
        let (from, to) = (self.start.at, self.end.at);
        self.conns.iter().flat_map(|c| &c.reqs).filter(move |r| (from..to).contains(&r.due))
    }

    fn failed(&self) -> u64 {
        self.measured().filter(|r| r.rejected || r.notified.is_none()).count() as u64
    }

    /// Notifications received inside the measured window.
    fn window_notified(&self) -> u64 {
        self.end.notified - self.start.notified
    }

    fn tx_per_s(&self) -> f64 {
        self.window_notified() as f64 / self.secs
    }

    /// Due → notified, in ms, per slice of the window (by due instant),
    /// each sorted. A request that failed counts as at least as late as
    /// the end of the segment.
    fn commit_ms(&self, slices: usize) -> Vec<Vec<f64>> {
        let end = self.end_of_run;
        let span = (self.end.at - self.start.at).as_secs_f64();
        let mut out = vec![Vec::new(); slices];
        for r in self.measured() {
            let done = if r.rejected { end } else { r.notified.unwrap_or(end) };
            let k = ((r.due - self.start.at).as_secs_f64() / span * slices as f64) as usize;
            out[k.min(slices - 1)].push(ms(done - r.due));
        }
        out.into_iter().map(sorted).collect()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One segment: `setups` cluster set-ups (the last one is driven), the
/// warm-up, the measured window, the drain, and the output checks.
fn run_segment(
    wl: &Workload,
    seed: u64,
    secs: f64,
    traced: bool,
    setups: usize,
    scratch: &Path,
    segment: u64,
) -> Result<Run, String> {
    let store_root = wl.durable.then(|| scratch.join("stores"));
    let mut setup_s = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for _ in 0..setups {
        drop(cluster.take());
        if let Some(root) = &store_root {
            let _ = std::fs::remove_dir_all(root);
        }
        let t0 = Instant::now();
        cluster = Some(Cluster::start(seed, store_root.as_deref())?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Cluster { nodes, mut conns } = cluster.ok_or("no set-up ran")?;

    let mut filler = vec![0u8; wl.tx_size.max(8)];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a6_f11e ^ segment.rotate_left(32));
    rng.fill_bytes(&mut filler);

    let begin = Instant::now();
    let mut gen = Generator {
        wl,
        filler,
        traced,
        submitting: true,
        outstanding: 0,
        notified: 0,
        last_notify: begin,
        problems: Vec::new(),
        inbox: Vec::new(),
    };
    let mut arrivals = match wl.load {
        Load::Open { tx_per_s } => Some(Arrivals { rng, tx_per_s, next: begin }),
        Load::Closed { window, .. } => {
            for c in 0..CONNS {
                for _ in 0..window {
                    gen.submit(&mut conns, c, begin);
                }
            }
            None
        }
    };
    let mut cursors = vec![0usize; CONNS];
    let mut next_poll = begin;
    let mut next_guard = begin;
    let mut start_edge: Option<Edge> = None;
    let mut end_edge = None;
    let mut drain_until = None;
    loop {
        let now = Instant::now();
        if start_edge.is_none() && wl.load.warmed(now - begin, gen.notified) {
            start_edge = Some(Edge::read(&nodes, now, gen.notified));
        }
        if let Some(start) = start_edge.filter(|_| gen.submitting) {
            if wl.load.measured(now - start.at, gen.notified - start.notified, secs) {
                gen.submitting = false;
                end_edge = Some(Edge::read(&nodes, now, gen.notified));
                drain_until = Some(now + DRAIN);
            }
        }
        if let Some(arrivals) = arrivals.as_mut() {
            while gen.submitting && arrivals.next <= now {
                let (due, conn) = arrivals.pop();
                gen.submit(&mut conns, conn, due);
            }
        }
        let moved = gen.pump(&mut conns)?;
        if gen.traced && now >= next_poll {
            poll_logs(&nodes, &mut conns, &mut cursors, now);
            next_poll = now + LOG_POLL;
        }
        if drain_until.is_some_and(|until| gen.outstanding == 0 || now >= until) {
            break;
        }
        if now >= next_guard {
            if rss_mb() > MEMORY_GUARD_MB {
                return Err(format!("resident memory passed {MEMORY_GUARD_MB} MB"));
            }
            next_guard = now + Duration::from_millis(100);
        }
        if gen.submitting && now.duration_since(gen.last_notify) > STALL {
            return Err(format!("no notification for {STALL:?}: consensus or client path stalled"));
        }
        if !moved {
            let nap = arrivals.as_ref().map_or(Duration::from_micros(200), |a| {
                a.next.saturating_duration_since(Instant::now()).min(Duration::from_micros(200))
            });
            std::thread::sleep(nap);
        }
    }
    let end_of_run = Instant::now();
    let peak = peak_rss_mb();
    let (start, end) =
        (start_edge.ok_or("window never opened")?, end_edge.ok_or("window never closed")?);

    let (log_window_txs, log_total_txs) =
        check_logs(&nodes, &mut conns, &mut gen, (start.log_len, end.log_len))?;
    // The client-notified rate must match what node 0 actually ordered.
    let notified = end.notified - start.notified;
    let ratio = notified as f64 / log_window_txs.max(1) as f64;
    if !(0.5..=2.0).contains(&ratio) {
        gen.problems.push(format!(
            "client-notified {notified} vs node 0 log {log_window_txs} transactions in the window"
        ));
    }

    let admission: Vec<_> = nodes.iter().map(NetNode::admission_stats).collect();
    let run = Run {
        setup_s,
        secs: (end.at - start.at).as_secs_f64(),
        start,
        end,
        end_of_run,
        peak_rss_mb: peak,
        problems: gen.problems,
        log_window_txs,
        log_total_txs,
        shed: admission.iter().map(|a| a.shed).sum(),
        queue_high_water: admission.iter().map(|a| a.queue_high_water).max().unwrap_or(0),
        dropped_frames: nodes.iter().map(NetNode::dropped_frames).sum(),
        verify_high_water: nodes.iter().map(NetNode::verify_batch_depth).max().unwrap_or(0),
        rejected_shares: nodes.iter().map(NetNode::rejected_shares).sum(),
        stored_mb: nodes[0].batch_payload_bytes() as f64 / 1e6,
        store_bytes: store_root.as_deref().map_or(0, dir_bytes),
        stores_healthy: wl.durable && nodes.iter().all(NetNode::store_healthy),
        conns,
    };
    drop(nodes);
    if let Some(root) = &store_root {
        let _ = std::fs::remove_dir_all(root);
    }
    Ok(run)
}

/// The output checks, run after the window with the cluster still up:
/// every node's log agrees with node 0's on their common prefix, holds
/// only submitted transactions, each at most once; every notified
/// request is in its node's log and every logged, admitted request got
/// its notification. Returns node 0's client transaction count inside
/// the window's log positions and in total.
fn check_logs(
    nodes: &[NetNode],
    conns: &mut [Conn],
    gen: &mut Generator<'_>,
    window: (usize, usize),
) -> Result<(u64, u64), String> {
    let mut problems = Vec::new();
    let mut reference: Vec<(u64, u32, u32, u64)> = Vec::new();
    let mut in_own_log: Vec<Vec<bool>> = conns.iter().map(|c| vec![false; c.reqs.len()]).collect();
    let (mut window_txs, mut total_txs) = (0u64, 0u64);
    for (i, node) in nodes.iter().enumerate() {
        let mut seen: Vec<Vec<bool>> = conns.iter().map(|c| vec![false; c.reqs.len()]).collect();
        let mut prints = Vec::new();
        let mut foreign = 0u64;
        let mut duplicates = 0u64;
        for (pos, ov) in node.ordered().iter().enumerate() {
            let mut fold = 0u64;
            for tx in ov.block.transactions() {
                match untag(tx) {
                    Some((c, seq)) if c < conns.len() && seq < conns[c].reqs.len() => {
                        duplicates += u64::from(std::mem::replace(&mut seen[c][seq], true));
                        fold = fold.rotate_left(7) ^ tag(c, seq as u64);
                        if c == i {
                            in_own_log[c][seq] = true;
                        }
                    }
                    _ => foreign += 1,
                }
            }
            let txs = ov.block.transactions().len() as u64;
            if i == 0 {
                total_txs += txs;
                if (window.0..window.1).contains(&pos) {
                    window_txs += txs;
                }
            }
            prints.push((ov.vertex.round.number(), ov.vertex.source.index(), txs as u32, fold));
        }
        if foreign > 0 {
            problems.push(format!("node {i}: {foreign} ordered transactions were never submitted"));
        }
        if duplicates > 0 {
            problems.push(format!("node {i}: {duplicates} transactions ordered more than once"));
        }
        if i == 0 {
            reference = prints;
        } else if let Some(k) = reference.iter().zip(&prints).position(|(a, b)| a != b) {
            problems.push(format!("node {i} disagrees with node 0 at log position {k}"));
        }
    }

    // Logged and admitted requests whose notification is still in
    // flight get a grace period before they count as dropped.
    let missing = |conns: &[Conn]| {
        conns
            .iter()
            .enumerate()
            .flat_map(|(c, conn)| {
                let own = &in_own_log[c];
                conn.reqs
                    .iter()
                    .enumerate()
                    .filter(move |(s, r)| own[*s] && r.notified.is_none() && !r.rejected)
            })
            .count()
    };
    let grace_end = Instant::now() + GRACE;
    while missing(conns) > 0 && Instant::now() < grace_end {
        if !gen.pump(conns)? {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let dropped = missing(conns);
    if dropped > 0 {
        problems.push(format!("{dropped} ordered transactions were never notified"));
    }
    let phantom = conns
        .iter()
        .enumerate()
        .flat_map(|(c, conn)| conn.reqs.iter().enumerate().map(move |(s, r)| (c, s, r)))
        .filter(|(c, s, r)| r.notified.is_some() && !in_own_log[*c][*s])
        .count();
    if phantom > 0 {
        problems.push(format!(
            "{phantom} notifications for transactions not in the submitting node's log"
        ));
    }
    gen.problems.append(&mut problems);
    Ok((window_txs, total_txs))
}

/// Median over segments of one per-segment value.
fn seg_median(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of a run's segments: latency percentiles are
/// medians over every slice of every segment, peak memory is the first
/// segment's, the rest are medians over segments.
fn end_to_end(wl: &Workload, runs: &[Run], out: &mut Outcome) {
    let commit: Vec<Vec<f64>> = runs.iter().flat_map(|r| r.commit_ms(wl.load.slices())).collect();
    let sliced =
        |p: f64| median(&commit.iter().map(|slice| percentile(slice, p)).collect::<Vec<_>>());
    let setup_s: Vec<f64> = runs.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    out.push("setup_s", median(&setup_s), "s");
    out.push("commit_p50_ms", sliced(0.50), "ms");
    out.push("commit_p99_ms", sliced(0.99), "ms");
    out.push("ordered_tx_per_s", seg_median(runs, Run::tx_per_s), "tx/s");
    out.push(
        "ordered_mb_per_s",
        seg_median(runs, |r| r.tx_per_s() * wl.tx_size as f64 / 1e6),
        "MB/s",
    );
    out.push(
        "cpu_ms_per_ktx",
        seg_median(runs, |r| {
            (r.end.cpu_s - r.start.cpu_s) * 1e3 / (r.window_notified().max(1) as f64 / 1e3)
        }),
        "ms",
    );
    // Memory is not fully handed back when a cluster stops, so only the
    // first segment, in a fresh process, measures a peak of its own.
    out.push("peak_rss_mb", runs[0].peak_rss_mb, "MB");
    out.push(
        "sim_ordered_vtx_per_s",
        seg_median(runs, |r| (r.end.log_len - r.start.log_len) as f64 / r.secs),
        "1/s",
    );
    eprintln!(
        "# {} segment(s) of {:.2} s measured (median); {} commit samples in {} slices; \
         node 0 ordered {} tx in the windows ({} in total)",
        runs.len(),
        seg_median(runs, |r| r.secs),
        commit.iter().map(Vec::len).sum::<usize>(),
        commit.len(),
        runs.iter().map(|r| r.log_window_txs).sum::<u64>(),
        runs.iter().map(|r| r.log_total_txs).sum::<u64>()
    );
}

/// The per-layer metrics of traced segments, plus the tracing overhead
/// against the untraced segments of the same seed. Stage latencies pool
/// every segment's requests; counts add up over segments.
fn per_layer(wl: &Workload, traced: &[Run], plain: &Outcome, out: &mut Outcome) {
    let mut e2e = Outcome::default();
    end_to_end(wl, traced, &mut e2e);
    let stage_ms = |from: fn(&Req) -> Option<Instant>, to: fn(&Req) -> Option<Instant>| {
        sorted(
            traced
                .iter()
                .flat_map(Run::measured)
                .filter_map(|r| Some(ms(to(r)?.saturating_duration_since(from(r)?))))
                .collect(),
        )
    };
    let total = |f: fn(&Run) -> f64| traced.iter().map(f).sum::<f64>();
    let late = stage_ms(|r| Some(r.due), |r| r.sent);
    let ack = stage_ms(|r| r.sent, |r| r.acked);
    let order = stage_ms(|r| r.acked, |r| r.logged);
    let notify = stage_ms(|r| r.logged, |r| r.notified);
    let secs = total(|r| r.secs);
    let batches = total(|r| r.end.batches.saturating_sub(r.start.batches) as f64);
    out.push("loadgen.late_p99_ms", percentile(&late, 0.99), "ms");
    out.push("loadgen.cpu_s", total(|r| r.end.gen_cpu_s - r.start.gen_cpu_s), "s");
    out.push("client.ack_p50_ms", percentile(&ack, 0.50), "ms");
    out.push("client.ack_p99_ms", percentile(&ack, 0.99), "ms");
    out.push("admission.shed", total(|r| r.shed as f64), "count");
    out.push(
        "admission.queue_high_water",
        traced.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
        "count",
    );
    out.push("consensus.order_lag_p50_ms", percentile(&order, 0.50), "ms");
    out.push("consensus.order_lag_p99_ms", percentile(&order, 0.99), "ms");
    out.push(
        "consensus.rounds_per_s",
        total(|r| (r.end.round - r.start.round) as f64) / secs,
        "1/s",
    );
    out.push("consensus.waves_per_s", total(|r| (r.end.wave - r.start.wave) as f64) / secs, "1/s");
    out.push("client.notify_lag_p50_ms", percentile(&notify, 0.50), "ms");
    out.push("client.notify_lag_p99_ms", percentile(&notify, 0.99), "ms");
    out.push("batch.count", batches, "count");
    out.push("batch.txs_mean", total(|r| r.log_window_txs as f64) / batches.max(1.0), "count");
    out.push("batch.stored_mb", seg_median(traced, |r| r.stored_mb), "MB");
    out.push("net.dropped_frames", total(|r| r.dropped_frames as f64), "count");
    out.push(
        "verify.batch_high_water",
        traced.iter().map(|r| r.verify_high_water).max().unwrap_or(0) as f64,
        "count",
    );
    out.push("verify.rejected_shares", total(|r| r.rejected_shares as f64), "count");
    out.push(
        "store.mb_per_ktx",
        total(|r| r.store_bytes as f64) / 1e6 / (total(|r| r.log_total_txs as f64).max(1.0) / 1e3),
        "MB",
    );
    out.push(
        "store.healthy",
        f64::from(u8::from(traced.iter().all(|r| r.stores_healthy))),
        "count",
    );
    out.push(
        "trace.overhead_commit_p50_ms",
        e2e.value("commit_p50_ms") - plain.value("commit_p50_ms"),
        "ms",
    );
    out.push(
        "trace.overhead_vtx_per_s",
        plain.value("sim_ordered_vtx_per_s") - e2e.value("sim_ordered_vtx_per_s"),
        "1/s",
    );
    eprintln!(
        "# traced: {} ack, {} order-lag, {} notify-lag samples; commit p50 {:.3} ms traced vs {:.3} ms untraced",
        ack.len(),
        order.len(),
        notify.len(),
        e2e.value("commit_p50_ms"),
        plain.value("commit_p50_ms")
    );
}

/// Segments back to back: the open loop's one segment measures all of
/// `secs`; closed-loop segments repeat while another fits in `secs`.
fn segments(
    wl: &Workload,
    seed: u64,
    secs: f64,
    traced: bool,
    setups: usize,
    scratch: &Path,
) -> Result<Vec<Run>, String> {
    let begin = Instant::now();
    let mut runs = Vec::new();
    loop {
        let t0 = Instant::now();
        let setups = if runs.is_empty() { setups } else { 1 };
        runs.push(run_segment(wl, seed, secs, traced, setups, scratch, runs.len() as u64)?);
        let last = t0.elapsed();
        if matches!(wl.load, Load::Open { .. }) || (begin.elapsed() + last).as_secs_f64() > secs {
            return Ok(runs);
        }
    }
}

/// Runs one TCP workload. Untraced: the end-to-end metrics. Traced: an
/// untraced run and then a traced run of the same seed, reporting the
/// per-layer metrics and the difference between the two.
pub fn run(
    wl: &Workload,
    seed: u64,
    secs: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plain = segments(wl, seed, secs, false, if trace { 1 } else { SETUPS }, scratch)?;
    let mut plain_out = Outcome::default();
    end_to_end(wl, &plain, &mut plain_out);
    out.attempted = plain.iter().map(|r| r.measured().count() as u64).sum();
    out.failed = plain.iter().map(Run::failed).sum();
    out.problems = plain.iter().flat_map(|r| r.problems.iter().cloned()).collect();
    if !trace {
        out.metrics = plain_out.metrics;
        return Ok(out);
    }
    drop(plain);
    let traced = segments(wl, seed, secs, true, 1, scratch)?;
    out.problems.extend(traced.iter().flat_map(|r| r.problems.iter().cloned()));
    per_layer(wl, &traced, &plain_out, &mut out);
    Ok(out)
}

/// Where a run keeps its durable stores: inside the benchmark's own
/// directory, removed when the run ends.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".scratch")
        .join(format!("run-{}", std::process::id()))
}
