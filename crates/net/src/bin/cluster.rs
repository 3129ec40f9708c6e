//! Multi-process localhost DAG-Rider cluster.
//!
//! With no arguments, acts as the **parent**: picks `n = 4` free ports,
//! launches one child OS process per committee member, has each submit a
//! marker transaction, waits for every child to quiesce and dump its
//! ordered log, and verifies the logs are **identical** — the atomic
//! broadcast total-order property, demonstrated over real TCP.
//!
//! Each child's marker is batched, pushed to every peer on the one link
//! the child keeps to it, and ordered by digest — the full decoupled
//! data path end to end.
//!
//! With `--restart`, the parent additionally SIGKILLs one child mid-run
//! and relaunches it; the replacement must rejoin through the sync
//! protocol (and reconnect backoff) and still produce the same log.
//!
//! With `--store`, each child persists a durable store (WAL + snapshots)
//! under the run directory. Combined with `--restart`, the relaunched
//! child replays its predecessor's store first and syncs only the suffix
//! it missed — the kill-and-restart recovery path over real processes.
//!
//! With `--serve`, the parent instead brings up a **long-lived** cluster
//! for external clients: children run with an effectively unbounded round
//! horizon, the parent prints `SERVING addr1,addr2,...` once the ports
//! are known, and everything stays up until the parent is killed. This is
//! the deployment target for the `loadgen` client front-end bench — each
//! child process carries only its own share of accepted client sockets,
//! so a 10 000-connection run never hits a single process's fd limit.
//!
//! Children are invoked as `cluster --child <i> --addrs ... --out FILE`;
//! they write one line per ordered vertex followed by a `DONE` marker,
//! then linger to serve sync requests until the parent kills them.
//!
//! Logs and stores go under `--dir`, or else a fresh
//! `$TMPDIR/dagrider-cluster-<pid>` that a passing run removes; a failed
//! run keeps it and prints its path.
//!
//! ```text
//! cargo run --release -p dagrider-net --bin cluster
//! cargo run --release -p dagrider-net --bin cluster -- --restart
//! cargo run --release -p dagrider-net --bin cluster -- --serve
//! ```

#![forbid(unsafe_code)]

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use dagrider_core::NodeConfig;
use dagrider_crypto::deal_coin_keys;
use dagrider_net::{NetConfig, NetNode, StoreConfig};
use dagrider_rbc::BrachaRbc;
use dagrider_store::FsyncPolicy;
use dagrider_types::{Committee, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Committee-wide seed: coin-key dealing must agree across processes.
const DEFAULT_SEED: u64 = 2026;
const DEFAULT_MAX_ROUND: u64 = 24;
/// A child declares quiescence once its log stopped growing this long.
const STABLE_GRACE: Duration = Duration::from_millis(1500);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result =
        if args.iter().any(|a| a == "--child") { child_main(&args) } else { parent_main(&args) };
    if let Err(message) = result {
        eprintln!("cluster: {message}");
        std::process::exit(1);
    }
}

/// Returns the value following `key`, if present.
fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match arg_value(args, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad value for {key}: {raw}")),
    }
}

/// The marker transaction child `i` submits, recognizable by every child.
fn marker_tx(i: usize) -> Transaction {
    Transaction::synthetic(1000 + i as u64, 16)
}

// ---------------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------------

/// What the parent runs, parsed from its arguments.
struct Launch {
    n: usize,
    seed: u64,
    restart: bool,
    store: bool,
    serve: bool,
    max_round: u64,
    timeout: Duration,
}

fn parent_main(args: &[String]) -> Result<(), String> {
    let serve = args.iter().any(|a| a == "--serve");
    // A serving cluster has no round horizon: it runs until killed.
    let default_round = if serve { u64::MAX / 2 } else { DEFAULT_MAX_ROUND };
    let launch = Launch {
        n: parse_arg(args, "--n", 4)?,
        seed: parse_arg(args, "--seed", DEFAULT_SEED)?,
        restart: args.iter().any(|a| a == "--restart"),
        store: args.iter().any(|a| a == "--store"),
        serve,
        max_round: parse_arg(args, "--max-round", default_round)?,
        timeout: Duration::from_secs(parse_arg(args, "--timeout-secs", 120u64)?),
    };
    let given = arg_value(args, "--dir");
    let owned = given.is_none();
    let dir = match given {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("dagrider-cluster-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let verdict = run_cluster(&launch, &dir);
    match &verdict {
        // A run directory of our own goes once the run has passed; the
        // logs and stores of a failed run stay for a post-mortem.
        Ok(()) if owned => {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(()) => {}
        Err(_) => eprintln!("cluster: run directory kept at {}", dir.display()),
    }
    verdict
}

/// Launches the children with their logs and stores in `dir`, then
/// serves until one dies, or runs them to quiescence and verifies them.
fn run_cluster(launch: &Launch, dir: &Path) -> Result<(), String> {
    let Launch { n, seed, restart, store, serve, max_round, timeout } = *launch;
    let addrs = free_addrs(n)?;
    let addr_list = addrs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let out_path = |i: usize| dir.join(format!("node{i}.log"));
    let spawn_child = |i: usize| -> Result<Child, String> {
        let mut child_args = vec![
            "--child".to_owned(),
            i.to_string(),
            "--addrs".to_owned(),
            addr_list.clone(),
            "--seed".to_owned(),
            seed.to_string(),
            "--max-round".to_owned(),
            max_round.to_string(),
            "--out".to_owned(),
            out_path(i).display().to_string(),
        ];
        if serve {
            child_args.push("--serve".to_owned());
        }
        let stdin = if serve {
            // Serving children watch their stdin: when this parent dies
            // (killed by any signal), the pipe EOFs and they exit too,
            // instead of lingering as orphans that keep burning CPU.
            std::process::Stdio::piped()
        } else {
            std::process::Stdio::inherit()
        };
        if store {
            // A fixed per-index path: a restarted child reopens its
            // predecessor's store and recovers from it.
            child_args.push("--store-dir".to_owned());
            child_args.push(dir.join(format!("store-node{i}")).display().to_string());
        }
        Command::new(&exe)
            .args(child_args)
            .stdin(stdin)
            .spawn()
            .map_err(|e| format!("spawn child {i}: {e}"))
    };

    eprintln!(
        "cluster: n={n} seed={seed} max_round={max_round} restart={restart} store={store} dir={}",
        dir.display()
    );
    let mut children: Vec<Child> = (0..n).map(spawn_child).collect::<Result<_, _>>()?;

    // Serving mode: announce the addresses and stay up until killed,
    // failing loudly if any child dies underneath the clients.
    if serve {
        use std::io::Write as _;
        println!("SERVING {addr_list}");
        let _ = std::io::stdout().flush();
        let dead = 'watch: loop {
            for (i, child) in children.iter_mut().enumerate() {
                if let Ok(Some(status)) = child.try_wait() {
                    break 'watch format!("serving child {i} exited: {status}");
                }
            }
            dagrider_net::sync::thread::sleep(Duration::from_millis(500));
        };
        for mut child in children {
            let _ = child.kill();
            let _ = child.wait();
        }
        return Err(dead);
    }

    // Mid-run crash: SIGKILL the last process, then bring up a fresh
    // replacement that must catch up purely through the sync protocol.
    if restart {
        let victim = n - 1;
        dagrider_net::sync::thread::sleep(Duration::from_millis(600));
        let _ = children[victim].kill();
        let _ = children[victim].wait();
        let _ = std::fs::remove_file(out_path(victim));
        eprintln!("cluster: SIGKILLed and restarting node {victim}");
        children[victim] = spawn_child(victim)?;
    }

    let verdict = wait_and_verify(dir, n, restart, timeout, &mut children, &out_path);
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    verdict
}

/// Binds `n` ephemeral localhost ports to discover free addresses, then
/// releases them for the children to claim.
fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe ports: {e}"))?;
    listeners.iter().map(|l| l.local_addr().map_err(|e| format!("local_addr: {e}"))).collect()
}

/// Polls for every child's `DONE` marker, then checks all ordered logs
/// are identical and contain the surviving processes' markers.
fn wait_and_verify(
    _dir: &Path,
    n: usize,
    restart: bool,
    timeout: Duration,
    children: &mut [Child],
    out_path: &dyn Fn(usize) -> PathBuf,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    let finished = |i: usize| -> Option<Vec<String>> {
        let text = std::fs::read_to_string(out_path(i)).ok()?;
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        (lines.pop()? == "DONE").then_some(lines)
    };

    let logs: Vec<Vec<String>> = loop {
        if Instant::now() >= deadline {
            return Err(format!("timed out after {timeout:?} waiting for children"));
        }
        for (i, child) in children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                if finished(i).is_none() {
                    return Err(format!("child {i} exited early: {status}"));
                }
            }
        }
        let done: Vec<_> = (0..n).map(finished).collect();
        if done.iter().all(Option::is_some) {
            break done.into_iter().flatten().collect();
        }
        dagrider_net::sync::thread::sleep(Duration::from_millis(150));
    };

    // Total order: byte-identical logs everywhere.
    for i in 1..n {
        if logs[i] != logs[0] {
            let diverge = logs[0]
                .iter()
                .zip(&logs[i])
                .position(|(a, b)| a != b)
                .unwrap_or(logs[0].len().min(logs[i].len()));
            return Err(format!(
                "node {i} log diverges from node 0 at entry {diverge} \
                 (lengths {} vs {})",
                logs[0].len(),
                logs[i].len()
            ));
        }
    }
    if logs[0].is_empty() {
        return Err("cluster quiesced with an empty ordered log".into());
    }

    // Validity: in an uninterrupted run every process's marker must be
    // ordered (each seals when its process's round first advances, and
    // its digest rides one of that process's early vertices). A mid-run
    // kill can orphan early vertices whose weak-edge carriers died with
    // the victim — validity is only *eventual*, and the run is truncated
    // at `max_round` — so the restart mode requires at least one marker.
    let has_marker = |i: usize| {
        let token = format!("m{i}");
        logs[0].iter().any(|l| l.split_whitespace().any(|t| t == token))
    };
    let ordered_markers = (0..n).filter(|&i| has_marker(i)).count();
    if restart {
        if ordered_markers == 0 {
            return Err("no marker transaction was ever ordered".into());
        }
    } else {
        for i in 0..n {
            if !has_marker(i) {
                return Err(format!("marker of node {i} never ordered"));
            }
        }
    }

    println!(
        "PASS: {n} processes agreed on {} ordered vertices ({ordered_markers} marker blocks){}",
        logs[0].len(),
        if restart { ", including a SIGKILLed+restarted process" } else { "" }
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Child
// ---------------------------------------------------------------------------

fn child_main(args: &[String]) -> Result<(), String> {
    let index: usize = parse_arg(args, "--child", usize::MAX)?;
    let seed: u64 = parse_arg(args, "--seed", DEFAULT_SEED)?;
    let max_round: u64 = parse_arg(args, "--max-round", DEFAULT_MAX_ROUND)?;
    let serve = args.iter().any(|a| a == "--serve");
    let out = arg_value(args, "--out").ok_or("--out is required")?;
    let addrs: Vec<SocketAddr> = arg_value(args, "--addrs")
        .ok_or("--addrs is required")?
        .split(',')
        .map(|a| a.parse().map_err(|_| format!("bad address: {a}")))
        .collect::<Result<_, _>>()?;

    let n = addrs.len();
    if index >= n {
        return Err(format!("--child {index} out of range for {n} addresses"));
    }
    let committee = Committee::new(n).map_err(|e| e.to_string())?;
    let me = ProcessId::new(u32::try_from(index).map_err(|e| e.to_string())?);

    // Every process deals the same key set from the shared seed and keeps
    // its own share — standing in for a distributed key-generation setup.
    let mut key_rng = StdRng::seed_from_u64(seed);
    let mut keys = deal_coin_keys(&committee, &mut key_rng);
    let my_keys = keys.swap_remove(index);

    let mut node_config = NodeConfig::default().with_max_round(max_round);
    if serve {
        // Unbounded horizon: prune aggressively, so the DAG window and the
        // batches it names stay flat. The ordered log still grows.
        node_config = node_config.with_gc_depth(64);
    }
    let process_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(index as u64);
    let mut config =
        NetConfig::new(committee, me, addrs.clone(), node_config, my_keys, process_seed);
    if let Some(store_dir) = arg_value(args, "--store-dir") {
        // Sync every group commit: a SIGKILLed child must find its full
        // pre-kill state on disk. Snapshot often so short runs compact.
        config = config.with_store(
            StoreConfig::new(PathBuf::from(store_dir))
                .with_fsync(FsyncPolicy::Always)
                .with_snapshot_every(64),
        );
    }

    // A restarted process can race the kernel's teardown of its
    // predecessor's socket, so retry the bind briefly.
    let listener = bind_with_retry(addrs[index], Duration::from_secs(10))?;
    let node =
        NetNode::start::<BrachaRbc>(config, Some(listener)).map_err(|e| format!("start: {e}"))?;

    // Submit our marker immediately, into the engine's open batch: the
    // node's first vertex seals it and names it, and the batch is pushed
    // to every peer ahead of that vertex (on localhost the whole run can
    // finish in under a second — waiting for the sync phase could miss
    // the last proposal round).
    node.submit_tx(marker_tx(index));

    // Serving mode: no quiescence, no log dump — run until the parent
    // goes away, ordering whatever the client front end feeds us. The
    // parent holds our stdin pipe; EOF means it died (however it died)
    // and we must not linger as an orphan.
    if serve {
        use std::io::Read as _;
        let mut sink = [0u8; 64];
        loop {
            match std::io::stdin().lock().read(&mut sink) {
                Ok(0) | Err(_) => return Ok(()),
                Ok(_) => {}
            }
        }
    }

    // Wait for quiescence: rounds exhausted and the log stable.
    let mut last_len = 0;
    let mut stable_since = Instant::now();
    loop {
        dagrider_net::sync::thread::sleep(Duration::from_millis(100));
        let len = node.ordered_len();
        if len != last_len {
            last_len = len;
            stable_since = Instant::now();
        }
        if node.current_round().number() >= max_round
            && len > 0
            && stable_since.elapsed() >= STABLE_GRACE
        {
            break;
        }
    }

    // Dump the ordered log: one line per vertex, tagging any marker
    // transactions the block carried, then the DONE terminator.
    let markers: Vec<Transaction> = (0..n).map(marker_tx).collect();
    let mut text = String::new();
    for entry in node.ordered() {
        use std::fmt::Write as _;
        let _ = write!(
            text,
            "r{} p{} w{}",
            entry.vertex.round.number(),
            entry.vertex.source.as_usize(),
            entry.committed_in_wave.number()
        );
        for tx in entry.block.transactions() {
            if let Some(i) = markers.iter().position(|m| m == tx) {
                let _ = write!(text, " m{i}");
            }
        }
        text.push('\n');
    }
    text.push_str("DONE\n");
    std::fs::write(&out, text).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!(
        "node {index}: ordered {} vertices, decided wave {}, {} frames dropped, \
         largest consensus burst {}, {} events replayed from store",
        node.ordered_len(),
        node.decided_wave().number(),
        node.dropped_frames(),
        node.verify_batch_depth(),
        node.recovered_events()
    );
    if !node.store_healthy() {
        return Err(format!("node {index}: durable store reported write failures"));
    }

    // Linger: keep serving sync requests (a restarted peer rebuilds its
    // DAG from us) until the parent kills this process.
    loop {
        dagrider_net::sync::thread::sleep(Duration::from_secs(1));
    }
}

fn bind_with_retry(addr: SocketAddr, budget: Duration) -> Result<TcpListener, String> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if Instant::now() >= deadline => return Err(format!("bind {addr}: {e}")),
            Err(_) => dagrider_net::sync::thread::sleep(Duration::from_millis(200)),
        }
    }
}
