//! Measurement plumbing shared by the workloads: the metric record, the
//! run outcome, percentiles, and the `/proc` readers for CPU time and
//! peak memory.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and whether the outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness violations; empty means the outputs checked out.
    pub problems: Vec<String>,
    /// Operations the measured window attempted.
    pub attempted: u64,
    /// Of those, how many were refused, lost, or never completed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending in place and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// mainstream architecture (`getconf CLK_TCK`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in seconds from a `/proc/.../stat` file.
fn cpu_seconds(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else { return f64::NAN };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return f64::NAN };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// CPU seconds the whole process has used so far.
pub fn process_cpu_s() -> f64 {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds("/proc/thread-self/stat")
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of the process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
