//! The repository benchmark. One workload per invocation:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload small_open --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `small_open`, `large_durable` (TCP cluster, see `tcp.rs`)
//! and `sim_n16` (engine in the simulator, see `sim.rs`; it can be run
//! by name but is not in `BENCHMARK.json`). With `--trace 0` it prints
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run. `small_open`'s traced run also times the
//! engine's layers in one traced `sim_n16` simulation. Every invocation
//! checks the outputs; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`, and the
//! exit code is non-zero when a check failed. See `README.md` here for what
//! each workload and metric is for.

mod report;
mod sim;
mod tcp;

use std::process::ExitCode;

use report::Outcome;

/// Every end-to-end metric, printed by every untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("ordered_tx_per_s", "tx/s"),
    ("ordered_mb_per_s", "MB/s"),
    ("cpu_ms_per_ktx", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_ordered_vtx_per_s", "1/s"),
];

/// Every per-layer metric, printed by every traced run. A metric of a
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.cpu_s", "s"),
    ("client.ack_p50_ms", "ms"),
    ("client.ack_p99_ms", "ms"),
    ("admission.shed", "count"),
    ("admission.queue_high_water", "count"),
    ("consensus.order_lag_p50_ms", "ms"),
    ("consensus.order_lag_p99_ms", "ms"),
    ("consensus.rounds_per_s", "1/s"),
    ("consensus.waves_per_s", "1/s"),
    ("client.notify_lag_p50_ms", "ms"),
    ("client.notify_lag_p99_ms", "ms"),
    ("batch.count", "count"),
    ("batch.txs_mean", "count"),
    ("batch.stored_mb", "MB"),
    ("net.dropped_frames", "count"),
    ("verify.batch_high_water", "count"),
    ("verify.rejected_shares", "count"),
    ("store.mb_per_ktx", "MB"),
    ("store.healthy", "count"),
    ("rbc.msg_us_p50", "us"),
    ("rbc.msg_us_p99", "us"),
    ("core.deliver_us_p50", "us"),
    ("core.deliver_us_p99", "us"),
    ("ordering.commit_us_p50", "us"),
    ("coin.share_us_p50", "us"),
    ("engine.msg_us_late_over_early", "ratio"),
    ("simnet.self_s", "s"),
    ("simnet.msgs_per_vtx", "count"),
    ("simnet.bytes_per_vtx", "B"),
    ("ordering.direct", "count"),
    ("ordering.indirect", "count"),
    ("ordering.skipped", "count"),
    ("dag.retained_vertices", "count"),
    ("trace.overhead_commit_p50_ms", "ms"),
    ("trace.overhead_vtx_per_s", "1/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Output of a short command, first line, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint every recorded result carries.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::env::var("BENCH_COMMIT")
        .unwrap_or_else(|_| command_line("git", &["rev-parse", "--short", "HEAD"]));
    format!(
        "# host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={commit} workload={} seed={} seconds={} trace={}",
        command_line("rustc", &["-V"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload small_open|large_durable|sim_n16 --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint(&args));
    let result = match args.workload.as_str() {
        "small_open" | "large_durable" => {
            let wl =
                if args.workload == "small_open" { &tcp::SMALL_OPEN } else { &tcp::LARGE_DURABLE };
            let scratch = tcp::scratch_dir();
            let mut result = tcp::run(wl, args.seed, args.seconds, args.trace, &scratch);
            if args.trace && args.workload == "small_open" {
                if let Ok(out) = result.as_mut() {
                    let problems = sim::engine_layers(args.seed, out);
                    out.problems.extend(problems);
                }
            }
            let _ = std::fs::remove_dir_all(&scratch);
            if let Some(parent) = scratch.parent() {
                let _ = std::fs::remove_dir(parent);
            }
            result
        }
        "sim_n16" => Ok(sim::run(args.seed, args.seconds, args.trace)),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out: Outcome = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Outcome {
        problems: std::mem::take(&mut out.problems),
        attempted: out.attempted,
        failed: out.failed,
        metrics: Vec::new(),
    };
    for &(name, unit) in names {
        let value = out.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        ordered.push(name, value, unit);
        println!("# {name:<32} {value:>16.4} {unit}");
    }
    println!(
        "# attempted {} failed {} failed_ratio {:.6}",
        ordered.attempted,
        ordered.failed,
        ordered.failed as f64 / ordered.attempted.max(1) as f64
    );
    for problem in &ordered.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    println!("{}", ordered.json());
    if ordered.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
