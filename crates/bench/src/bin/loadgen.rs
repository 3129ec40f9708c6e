//! **Client submission load generator** — drives thousands of concurrent
//! framed submit/subscribe clients against an in-process localhost
//! cluster running the reactor runtime, and reports ordered tx/s plus
//! p50/p99/p999 submit→ordered latency.
//!
//! Every client is one real TCP connection speaking the client wire
//! protocol: `ClientHello`, `ClientSubscribe`, then a closed loop of
//! `ClientSubmit` with `--window` transactions in flight, refilled the
//! moment the node pushes the matching `ClientOrdered` notification.
//! The generator itself is a single nonblocking sweep loop over all
//! client sockets — the same readiness discipline as the node's reactor
//! — so ten thousand connections cost ten thousand sockets, not ten
//! thousand threads, on either side.
//!
//! The node side proves the reactor's scaling claim: client sockets and
//! the open batch are owned by each node's reactor thread, so a node runs
//! three threads no matter how many clients connect.
//!
//! At the default 10 000 connections the process needs roughly 2×
//! that many file descriptors (both ends are in-process); raise the
//! limit first, e.g. `ulimit -n 65536`.
//!
//! ```sh
//! ulimit -n 65536
//! cargo run --release -p dagrider-bench --bin loadgen
//! cargo run --release -p dagrider-bench --bin loadgen -- --clients 2000
//! cargo run --release -p dagrider-bench --bin loadgen -- --smoke
//! ```

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dagrider_core::NodeConfig;
use dagrider_crypto::deal_coin_keys;
use dagrider_net::{Fill, FrameReader, NetConfig, NetNode, WireMsg};
use dagrider_rbc::BrachaRbc;
use dagrider_types::{Committee, Decode, Encode, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Config {
    clients: usize,
    nodes: usize,
    window: usize,
    tx_size: usize,
    warmup: Duration,
    measure: Duration,
    json: Option<String>,
    /// Target an externally started cluster (`cluster --serve`) instead
    /// of spawning one in-process — spreads the fd budget over multiple
    /// processes, which is what lets a 10 000-connection run fit under
    /// a 20 000-descriptor limit.
    connect: Option<Vec<SocketAddr>>,
}

impl Config {
    fn parse() -> Self {
        let mut cfg = Self {
            clients: 10_000,
            nodes: 4,
            window: 2,
            tx_size: 128,
            warmup: Duration::from_secs(3),
            measure: Duration::from_secs(10),
            json: None,
            connect: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
            match arg.as_str() {
                "--clients" => cfg.clients = value("--clients").parse().expect("usize"),
                "--nodes" => cfg.nodes = value("--nodes").parse().expect("usize"),
                "--window" => cfg.window = value("--window").parse().expect("usize"),
                "--tx-size" => cfg.tx_size = value("--tx-size").parse().expect("usize"),
                "--warmup-secs" => {
                    cfg.warmup =
                        Duration::from_secs_f64(value("--warmup-secs").parse().expect("f64"));
                }
                "--measure-secs" => {
                    cfg.measure =
                        Duration::from_secs_f64(value("--measure-secs").parse().expect("f64"));
                }
                "--json" => cfg.json = Some(value("--json")),
                "--connect" => {
                    cfg.connect = Some(
                        value("--connect")
                            .split(',')
                            .map(|a| a.parse().expect("--connect: host:port[,host:port...]"))
                            .collect(),
                    );
                }
                "--smoke" => {
                    cfg.clients = 64;
                    cfg.warmup = Duration::from_millis(500);
                    cfg.measure = Duration::from_secs(2);
                    cfg.tx_size = 32;
                }
                other => panic!("unknown argument {other}"),
            }
        }
        cfg
    }
}

/// One framed submit/subscribe connection in the sweep loop.
struct Client {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames not yet accepted by the socket.
    pending_out: Vec<u8>,
    /// Outstanding submissions: `(seq, submitted_at)`, at most `window`.
    in_flight: Vec<(u64, Instant)>,
    next_seq: u64,
}

impl Client {
    /// Appends one frame (`4-byte LE length + payload`) to the out
    /// buffer; it drains on the next flush.
    fn queue(&mut self, msg: &WireMsg) {
        let payload = msg.to_bytes();
        self.pending_out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending_out.extend_from_slice(&payload);
    }

    /// Writes as much of the out buffer as the socket accepts right now.
    /// Returns `false` if the connection died.
    fn flush(&mut self) -> bool {
        while !self.pending_out.is_empty() {
            match self.stream.write(&self.pending_out) {
                Ok(0) => return false,
                Ok(n) => {
                    self.pending_out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// Globally unique transaction tag: client id in the high bits, the
/// client's own sequence number below — distinct bytes per submission,
/// which is what the node's content-hash matcher keys on.
fn tag(client: usize, seq: u64) -> u64 {
    (client as u64) << 24 | seq
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let index = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[index]
}

/// Starts the cluster and waits for it to go live.
fn start_cluster(cfg: &Config) -> Vec<NetNode> {
    let committee = Committee::new(cfg.nodes).expect("committee size");
    let listeners: Vec<TcpListener> =
        (0..cfg.nodes).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().expect("addr")).collect();
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(4242));
    let node_config = NodeConfig::default().with_gc_depth(64);
    let mut nodes = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let config = NetConfig::new(
            committee,
            ProcessId::new(i as u32),
            addrs.clone(),
            node_config.clone(),
            keys[i].clone(),
            4242 + i as u64,
        )
        .with_sync_timeout(Duration::from_millis(500));
        nodes.push(NetNode::start::<BrachaRbc>(config, Some(listener)).expect("start node"));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !nodes.iter().all(NetNode::is_live) {
        assert!(Instant::now() < deadline, "cluster failed to go live");
        std::thread::sleep(Duration::from_millis(10));
    }
    nodes
}

/// Connects `cfg.clients` connections round-robin over the nodes and
/// queues each one's handshake plus initial submission window.
fn connect_clients(cfg: &Config, addrs: &[SocketAddr]) -> Vec<Client> {
    let mut clients = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        let addr = addrs[i % addrs.len()];
        let mut last_err = None;
        let mut stream = None;
        // The listen backlog is finite; a refused connect under a
        // thundering herd is retried, not fatal.
        for attempt in 0..50 {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(2 * (attempt + 1)));
                }
            }
        }
        let Some(stream) = stream else {
            panic!(
                "client {i}/{} failed to connect: {:?} — if this is EMFILE, raise the fd limit \
                 (e.g. `ulimit -n 65536`)",
                cfg.clients, last_err
            );
        };
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut client = Client {
            stream,
            reader: FrameReader::new(),
            pending_out: Vec::new(),
            in_flight: Vec::with_capacity(cfg.window),
            next_seq: 0,
        };
        client.queue(&WireMsg::ClientHello);
        client.queue(&WireMsg::ClientSubscribe);
        for _ in 0..cfg.window {
            let seq = client.next_seq;
            client.next_seq += 1;
            client.queue(&WireMsg::ClientSubmit {
                seq,
                tx: Transaction::synthetic(tag(i, seq), cfg.tx_size),
            });
            client.in_flight.push((seq, Instant::now()));
        }
        client.flush();
        clients.push(client);
    }
    clients
}

#[derive(Debug, Default)]
struct Totals {
    ordered: u64,
    acks: u64,
    rejects: u64,
    dead_clients: u64,
}

fn main() {
    let cfg = Config::parse();
    println!(
        "loadgen: clients={} nodes={} window={} tx_size={}B warmup={:?} measure={:?}",
        cfg.clients, cfg.nodes, cfg.window, cfg.tx_size, cfg.warmup, cfg.measure
    );
    // In-process cluster by default; `--connect` targets a cluster that
    // is already serving (e.g. `cluster --serve`).
    let (nodes, addrs): (Vec<NetNode>, Vec<SocketAddr>) = match &cfg.connect {
        Some(addrs) => {
            println!("targeting external cluster at {addrs:?}");
            (Vec::new(), addrs.clone())
        }
        None => {
            let nodes = start_cluster(&cfg);
            let addrs = nodes.iter().map(NetNode::local_addr).collect();
            (nodes, addrs)
        }
    };

    let connect_start = Instant::now();
    let mut clients = connect_clients(&cfg, &addrs);
    println!("connected {} clients in {:?}", clients.len(), connect_start.elapsed());

    let mut totals = Totals::default();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut dead: Vec<bool> = vec![false; clients.len()];
    let warmup_end = Instant::now() + cfg.warmup;
    let mut measuring = false;
    let mut measure_start = Instant::now();
    let mut measure_end = measure_start + cfg.measure;
    let mut measured_ordered = 0u64;
    let mut log_cursor_at_start = 0usize;
    let mut last_progress = Instant::now();

    loop {
        let now = Instant::now();
        if !measuring && now >= warmup_end {
            measuring = true;
            measure_start = now;
            measure_end = now + cfg.measure;
            log_cursor_at_start = nodes.first().map_or(0, NetNode::ordered_len);
        }
        if measuring && now >= measure_end {
            break;
        }
        assert!(
            last_progress.elapsed() < Duration::from_secs(30),
            "consensus stall: no ordered notification for 30 s \
             ({measured_ordered} ordered so far)"
        );

        let mut progress = false;
        for (i, client) in clients.iter_mut().enumerate() {
            if dead[i] {
                continue;
            }
            if !client.flush() {
                dead[i] = true;
                totals.dead_clients += 1;
                continue;
            }
            // Drain every complete frame, then top the buffer up once.
            loop {
                let frame = match client.reader.next_frame() {
                    Ok(Some(frame)) => Some(frame),
                    Ok(None) => None,
                    Err(_) => {
                        dead[i] = true;
                        break;
                    }
                };
                let Some(frame) = frame else {
                    match client.reader.fill_from(&mut client.stream) {
                        Ok(Fill::Read(_)) => continue,
                        Ok(Fill::WouldBlock) => break,
                        Ok(Fill::Eof) | Err(_) => {
                            dead[i] = true;
                            break;
                        }
                    }
                };
                progress = true;
                match WireMsg::from_bytes(&frame) {
                    Ok(WireMsg::ClientSubmitAck { .. }) => totals.acks += 1,
                    Ok(WireMsg::ClientReject { seq, .. }) => {
                        // Not admitted: the slot is still ours — resubmit
                        // the same payload and restart its clock.
                        totals.rejects += 1;
                        if let Some(entry) = client.in_flight.iter_mut().find(|(s, _)| *s == seq) {
                            entry.1 = Instant::now();
                            client.queue(&WireMsg::ClientSubmit {
                                seq,
                                tx: Transaction::synthetic(tag(i, seq), cfg.tx_size),
                            });
                        }
                    }
                    Ok(WireMsg::ClientOrdered { seq }) => {
                        totals.ordered += 1;
                        if let Some(at) = client.in_flight.iter().position(|(s, _)| *s == seq) {
                            let (_, submitted) = client.in_flight.swap_remove(at);
                            if measuring {
                                measured_ordered += 1;
                                latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                            }
                            last_progress = Instant::now();
                            // Closed loop: refill the window.
                            let seq = client.next_seq;
                            client.next_seq += 1;
                            client.queue(&WireMsg::ClientSubmit {
                                seq,
                                tx: Transaction::synthetic(tag(i, seq), cfg.tx_size),
                            });
                            client.in_flight.push((seq, Instant::now()));
                        }
                    }
                    _ => {
                        dead[i] = true;
                        break;
                    }
                }
            }
            if dead[i] {
                totals.dead_clients += 1;
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let secs = measure_start.elapsed().as_secs_f64();
    // Cross-check against the ordered log when the cluster is in-process;
    // an external cluster only exposes the notification stream.
    let cluster_per_sec: Option<f64> = nodes.first().map(|node| {
        let txs: u64 = node
            .ordered_from(log_cursor_at_start)
            .iter()
            .map(|o| o.block.transactions().len() as u64)
            .sum();
        txs as f64 / secs
    });
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let live = clients.len() as u64 - totals.dead_clients;
    let notified_per_sec = measured_ordered as f64 / secs;
    let p50 = percentile(&latencies_ms, 0.5);
    let p99 = percentile(&latencies_ms, 0.99);
    let p999 = percentile(&latencies_ms, 0.999);

    println!("\nloadgen ({} clients, closed loop, {:.1} s measured):", live, secs);
    println!("  ordered notifications/sec {notified_per_sec:>10.1}");
    match cluster_per_sec {
        Some(rate) => println!("  cluster ordered tx/sec    {rate:>10.1}"),
        None => println!("  cluster ordered tx/sec       (external cluster)"),
    }
    println!("  submit→ordered p50        {p50:>10.1} ms");
    println!("  submit→ordered p99        {p99:>10.1} ms");
    println!("  submit→ordered p999       {p999:>10.1} ms");
    println!(
        "  acks {} rejects {} dead clients {}",
        totals.acks, totals.rejects, totals.dead_clients
    );

    assert!(measured_ordered > 0, "no submissions ordered — the client path is stalled");
    assert_eq!(totals.dead_clients, 0, "client connections died under load");

    for mut node in nodes {
        node.shutdown();
    }

    if let Some(path) = &cfg.json {
        let json = format!(
            concat!(
                "{{\n",
                "  \"config\": {{\"clients\": {}, \"nodes\": {}, ",
                "\"window\": {}, \"tx_size\": {}, \"measure_secs\": {:.1}}},\n",
                "  \"result\": {{\"live_clients\": {}, \"notified_per_sec\": {:.1}, ",
                "\"cluster_txs_per_sec\": {}, \"p50_ms\": {:.1}, \"p99_ms\": {:.1}, ",
                "\"p999_ms\": {:.1}, \"rejects\": {}}}\n",
                "}}\n",
            ),
            cfg.clients,
            cfg.nodes,
            cfg.window,
            cfg.tx_size,
            cfg.measure.as_secs_f64(),
            live,
            notified_per_sec,
            cluster_per_sec.map_or("null".to_owned(), |rate| format!("{rate:.1}")),
            p50,
            p99,
            p999,
            totals.rejects,
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
