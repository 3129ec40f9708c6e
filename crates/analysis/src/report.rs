//! Commit-latency and ordering-lag reporting from structured traces.
//!
//! [`TraceReport::build`] digests the trace rings of a finished simulation
//! into the quantities the paper's §6.2 analysis bounds: per-wave commit
//! latency in virtual ticks, in the paper's asynchronous time units (§3 —
//! elapsed ticks over the maximum delivered correct-to-correct delay), and
//! in DAG rounds; plus the ordering lag of every delivered vertex (DAG
//! insertion → `a_deliver`) and per-process traffic totals.

use std::collections::BTreeMap;
use std::fmt;

use dagrider_simnet::{Metrics, Time};
use dagrider_trace::{TraceEvent, TraceRecord};
use dagrider_types::{ProcessId, Round, VertexRef, Wave};

/// Aggregated commit latency for one wave, over every process that
/// committed its leader.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveLatency {
    /// The wave.
    pub wave: Wave,
    /// Processes that committed the wave's leader (directly or
    /// retroactively).
    pub commits: usize,
    /// How many of those commits were direct (Algorithm 3 line 36).
    pub direct: usize,
    /// Minimum ticks from entering the wave's first round to the commit.
    pub min_ticks: u64,
    /// Maximum such latency.
    pub max_ticks: u64,
    /// Mean such latency.
    pub mean_ticks: f64,
    /// Mean latency in asynchronous time units (§3).
    pub mean_time_units: f64,
    /// Mean rounds the committing process advanced past the wave's first
    /// round before the commit.
    pub mean_rounds: f64,
}

/// Distribution summary of per-vertex ordering lag (ticks between DAG
/// insertion and `a_deliver` at the same process).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LagStats {
    /// Vertices measured.
    pub count: u64,
    /// Smallest lag.
    pub min: u64,
    /// Largest lag.
    pub max: u64,
    /// Mean lag.
    pub mean: f64,
    /// Counts per power-of-two bucket: `buckets[i]` counts lags in
    /// `[2^i, 2^(i+1))` (`buckets[0]` includes lag 0).
    pub buckets: Vec<u64>,
}

/// One process's traffic and trace totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessTraffic {
    /// The process.
    pub process: ProcessId,
    /// Messages it put on the wire (send-time accounting).
    pub messages: u64,
    /// Bytes it put on the wire.
    pub bytes: u64,
    /// Trace records it contributed.
    pub records: u64,
    /// Frames its TCP send queues discarded under drop-oldest
    /// backpressure (zero in simulation, which has no bounded queues).
    pub dropped_frames: u64,
    /// The largest burst of events its consensus thread drained, and
    /// verified, in one wake-up (1 = it kept up; larger = a backlog
    /// formed). Zero in simulation.
    pub verify_batch_depth: u64,
    /// Missing-batch fetch requests this process issued: it ordered a
    /// digest whose batch never arrived by dissemination and had to ask
    /// a peer. Zero when worker push streams keep up.
    pub batch_fetches: u64,
    /// Client transactions this process's front end admitted (final
    /// `ClientAdmission` sample; zero in simulation and for nodes
    /// serving no clients).
    pub client_accepted: u64,
    /// Admitted transactions coalesced into dissemination batches.
    pub client_coalesced: u64,
    /// Client submissions shed with a typed reject (queue full,
    /// oversized, or node not ready).
    pub client_shed: u64,
    /// High-water mark of any single client's pending-submission queue.
    pub client_queue_high_water: u64,
}

/// The full observability report for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-wave commit latencies, ascending by wave.
    pub waves: Vec<WaveLatency>,
    /// Ordering-lag distribution across all processes.
    pub ordering_lag: LagStats,
    /// Batch-resolve wait distribution: for every ordered digest, ticks
    /// between `DigestOrdered` and its `BatchResolved` (0 = the batch
    /// was already local when its digest reached the front of the
    /// order; larger = `a_deliver` stalled on dissemination or fetch).
    pub batch_resolve: LagStats,
    /// Per-process traffic, ascending by id.
    pub per_process: Vec<ProcessTraffic>,
    /// The §3 time-unit denominator (max delivered correct-to-correct
    /// delay).
    pub max_correct_delay: u64,
    /// Virtual time at the end of the run.
    pub elapsed: Time,
    /// Elapsed asynchronous time units at the end of the run.
    pub total_time_units: f64,
    /// Total `a_deliver`s observed in the traces.
    pub ordered_total: u64,
}

impl TraceReport {
    /// Builds the report from merged trace records (any number of
    /// processes) plus the run's [`Metrics`] and final virtual time.
    ///
    /// Latency definitions, per process:
    ///
    /// * **wave commit latency** — ticks from the process's first event in
    ///   the wave's first round (`RoundAdvanced` or `VertexInserted`) to
    ///   its `LeaderCommitted` record for the wave;
    /// * **ordering lag** — ticks from a vertex's `VertexInserted` to its
    ///   `VertexOrdered` record.
    pub fn build(records: &[TraceRecord], metrics: &Metrics, now: Time) -> Self {
        // Per process: the earliest timestamp seen for each round, the
        // current max round, and per-vertex insertion times.
        let mut round_entered: BTreeMap<(ProcessId, Round), Time> = BTreeMap::new();
        let mut max_round: BTreeMap<ProcessId, Round> = BTreeMap::new();
        let mut inserted_at: BTreeMap<(ProcessId, VertexRef), Time> = BTreeMap::new();
        let mut record_counts: BTreeMap<ProcessId, u64> = BTreeMap::new();
        let mut wave_latencies: BTreeMap<Wave, Vec<(u64, u64, bool)>> = BTreeMap::new();
        let mut lags: Vec<u64> = Vec::new();
        let mut resolve_waits: Vec<u64> = Vec::new();
        let mut fetch_counts: BTreeMap<ProcessId, u64> = BTreeMap::new();
        let mut admission: BTreeMap<ProcessId, [u64; 4]> = BTreeMap::new();

        let mut sorted: Vec<&TraceRecord> = records.iter().collect();
        sorted.sort_by_key(|r| (r.process, r.seq));
        for record in sorted {
            *record_counts.entry(record.process).or_default() += 1;
            let mut note_round = |round: Round, at: Time| {
                round_entered.entry((record.process, round)).or_insert(at);
            };
            match record.event {
                TraceEvent::RoundAdvanced { round } => {
                    note_round(round, record.at);
                    let entry = max_round.entry(record.process).or_insert(round);
                    *entry = (*entry).max(round);
                }
                TraceEvent::VertexInserted { vertex } => {
                    note_round(vertex.round, record.at);
                    inserted_at.entry((record.process, vertex)).or_insert(record.at);
                }
                TraceEvent::VertexOrdered { vertex, .. } => {
                    if let Some(&at) = inserted_at.get(&(record.process, vertex)) {
                        lags.push(record.at.ticks().saturating_sub(at.ticks()));
                    }
                }
                TraceEvent::BatchResolved { waited, .. } => {
                    resolve_waits.push(waited);
                }
                TraceEvent::BatchFetchRequested { .. } => {
                    *fetch_counts.entry(record.process).or_default() += 1;
                }
                TraceEvent::ClientAdmission { accepted, coalesced, shed, queue_high_water } => {
                    // Counters are cumulative; the last sample in seq
                    // order is the run's total.
                    admission.insert(record.process, [accepted, coalesced, shed, queue_high_water]);
                }
                TraceEvent::LeaderCommitted { wave, direct, .. } => {
                    let entered = round_entered
                        .get(&(record.process, wave.first_round()))
                        .map_or(0, |t| t.ticks());
                    let ticks = record.at.ticks().saturating_sub(entered);
                    let rounds = max_round
                        .get(&record.process)
                        .map_or(0, |r| r.number().saturating_sub(wave.first_round().number()));
                    wave_latencies.entry(wave).or_default().push((ticks, rounds, direct));
                }
                _ => {}
            }
        }

        let denominator = metrics.max_correct_delay();
        let waves = wave_latencies
            .into_iter()
            .map(|(wave, samples)| {
                let commits = samples.len();
                let direct = samples.iter().filter(|s| s.2).count();
                let min_ticks = samples.iter().map(|s| s.0).min().unwrap_or(0);
                let max_ticks = samples.iter().map(|s| s.0).max().unwrap_or(0);
                let mean_ticks = mean(samples.iter().map(|s| s.0));
                let mean_rounds = mean(samples.iter().map(|s| s.1));
                let mean_time_units =
                    if denominator == 0 { 0.0 } else { mean_ticks / denominator as f64 };
                WaveLatency {
                    wave,
                    commits,
                    direct,
                    min_ticks,
                    max_ticks,
                    mean_ticks,
                    mean_time_units,
                    mean_rounds,
                }
            })
            .collect();

        let per_process = record_counts
            .iter()
            .map(|(&process, &records)| {
                let adm = admission.get(&process).copied().unwrap_or_default();
                ProcessTraffic {
                    process,
                    messages: metrics.messages_sent_by(process),
                    bytes: metrics.bytes_sent_by(process),
                    records,
                    dropped_frames: 0,
                    verify_batch_depth: 0,
                    batch_fetches: fetch_counts.get(&process).copied().unwrap_or(0),
                    client_accepted: adm[0],
                    client_coalesced: adm[1],
                    client_shed: adm[2],
                    client_queue_high_water: adm[3],
                }
            })
            .collect();

        Self {
            waves,
            ordering_lag: lag_stats(&lags),
            batch_resolve: lag_stats(&resolve_waits),
            per_process,
            max_correct_delay: denominator,
            elapsed: now,
            total_time_units: metrics.time_units(now),
            ordered_total: lags.len() as u64,
        }
    }

    /// Attaches the TCP runtime's health counters to `process`'s traffic
    /// row, inserting a fresh row (zero simulated traffic) when the
    /// process contributed no trace records. The simulator never calls
    /// this; the cluster driver does, from [`NetNode`] accessors.
    ///
    /// [`NetNode`]: ../dagrider_net/struct.NetNode.html
    pub fn set_net_counters(
        &mut self,
        process: ProcessId,
        dropped_frames: u64,
        verify_batch_depth: u64,
    ) {
        let row = match self.per_process.iter_mut().find(|p| p.process == process) {
            Some(row) => row,
            None => {
                let at = self.per_process.partition_point(|p| p.process < process);
                self.per_process.insert(
                    at,
                    ProcessTraffic {
                        process,
                        messages: 0,
                        bytes: 0,
                        records: 0,
                        dropped_frames: 0,
                        verify_batch_depth: 0,
                        batch_fetches: 0,
                        client_accepted: 0,
                        client_coalesced: 0,
                        client_shed: 0,
                        client_queue_high_water: 0,
                    },
                );
                &mut self.per_process[at]
            }
        };
        row.dropped_frames = dropped_frames;
        row.verify_batch_depth = verify_batch_depth;
    }
}

fn mean(values: impl IntoIterator<Item = u64>) -> f64 {
    let mut sum = 0u64;
    let mut count = 0u64;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

fn lag_stats(lags: &[u64]) -> LagStats {
    if lags.is_empty() {
        return LagStats::default();
    }
    let max = lags.iter().copied().max().unwrap_or(0);
    let mut buckets = vec![0u64; bucket_of(max) + 1];
    for &lag in lags {
        buckets[bucket_of(lag)] += 1;
    }
    LagStats {
        count: lags.len() as u64,
        min: lags.iter().copied().min().unwrap_or(0),
        max,
        mean: mean(lags.iter().copied()),
        buckets,
    }
}

/// The power-of-two bucket index of `lag`: 0 for lags in `[0, 2)`, 1 for
/// `[2, 4)`, and so on.
fn bucket_of(lag: u64) -> usize {
    (64 - lag.max(1).leading_zeros() - 1) as usize
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} ticks = {:.2} time units (max correct delay {})",
            self.elapsed.ticks(),
            self.total_time_units,
            self.max_correct_delay,
        )?;
        writeln!(f, "per-wave commit latency:")?;
        writeln!(
            f,
            "  {:>5} {:>8} {:>7} {:>10} {:>12} {:>11} {:>7}",
            "wave", "commits", "direct", "ticks", "time units", "min..max", "rounds"
        )?;
        for w in &self.waves {
            writeln!(
                f,
                "  {:>5} {:>8} {:>7} {:>10.1} {:>12.2} {:>11} {:>7.1}",
                w.wave.number(),
                w.commits,
                w.direct,
                w.mean_ticks,
                w.mean_time_units,
                format!("{}..{}", w.min_ticks, w.max_ticks),
                w.mean_rounds,
            )?;
        }
        let lag = &self.ordering_lag;
        writeln!(
            f,
            "ordering lag ({} vertices): min {} mean {:.1} max {} ticks",
            lag.count, lag.min, lag.mean, lag.max
        )?;
        let tallest = lag.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in lag.buckets.iter().enumerate() {
            let bar = "#".repeat(((n * 40).div_ceil(tallest)) as usize);
            writeln!(f, "  [{:>6}, {:>6}) {:>6} {bar}", 1u64 << i, 1u64 << (i + 1), n)?;
        }
        let resolve = &self.batch_resolve;
        if resolve.count > 0 {
            writeln!(
                f,
                "batch resolve wait ({} digests): min {} mean {:.1} max {} ticks",
                resolve.count, resolve.min, resolve.mean, resolve.max
            )?;
        }
        writeln!(f, "per-process traffic:")?;
        writeln!(
            f,
            "  {:>4} {:>9} {:>11} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6} {:>5}",
            "proc",
            "messages",
            "bytes",
            "records",
            "dropped",
            "vdepth",
            "fetches",
            "accepted",
            "coalesced",
            "shed",
            "qhw"
        )?;
        for p in &self.per_process {
            writeln!(
                f,
                "  {:>4} {:>9} {:>11} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6} {:>5}",
                p.process,
                p.messages,
                p.bytes,
                p.records,
                p.dropped_frames,
                p.verify_batch_depth,
                p.batch_fetches,
                p.client_accepted,
                p.client_coalesced,
                p.client_shed,
                p.client_queue_high_water
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use dagrider_trace::Tracer;

    use super::*;

    #[test]
    fn bucket_indexing_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
    }

    #[test]
    fn empty_trace_builds_an_empty_report() {
        let metrics = Metrics::new(4);
        let report = TraceReport::build(&[], &metrics, Time::new(10));
        assert!(report.waves.is_empty());
        assert_eq!(report.ordering_lag.count, 0);
        assert_eq!(report.ordered_total, 0);
        // Rendering must not panic on the empty report.
        assert!(report.to_string().contains("per-wave commit latency"));
    }

    #[test]
    fn wave_latency_measured_from_first_round_entry() {
        let mut tracer = Tracer::new(ProcessId::new(0), 64);
        tracer.set_now(Time::new(10));
        tracer.record(TraceEvent::RoundAdvanced { round: Round::new(1) });
        tracer.set_now(Time::new(30));
        tracer.record(TraceEvent::RoundAdvanced { round: Round::new(5) });
        tracer.set_now(Time::new(50));
        tracer.record(TraceEvent::LeaderCommitted {
            wave: Wave::new(1),
            leader: VertexRef::new(Round::new(1), ProcessId::new(2)),
            direct: true,
        });
        let metrics = Metrics::new(4);
        let report = TraceReport::build(&tracer.records(), &metrics, Time::new(60));
        assert_eq!(report.waves.len(), 1);
        let w = &report.waves[0];
        assert_eq!(w.wave, Wave::new(1));
        assert_eq!(w.commits, 1);
        assert_eq!(w.direct, 1);
        assert_eq!(w.min_ticks, 40, "t50 commit - t10 round entry");
        assert!((w.mean_rounds - 4.0).abs() < 1e-9, "advanced to r5 from r1");
    }

    #[test]
    fn net_counters_attach_to_existing_rows_and_insert_missing_ones() {
        let mut tracer = Tracer::new(ProcessId::new(1), 64);
        tracer.set_now(Time::new(5));
        tracer.record(TraceEvent::RoundAdvanced { round: Round::new(1) });
        let metrics = Metrics::new(4);
        let mut report = TraceReport::build(&tracer.records(), &metrics, Time::new(10));

        // Process 1 has a traffic row from its trace records; process 0
        // does not and must be inserted in id order.
        report.set_net_counters(ProcessId::new(1), 7, 3);
        report.set_net_counters(ProcessId::new(0), 2, 1);
        assert_eq!(report.per_process.len(), 2);
        assert_eq!(report.per_process[0].process, ProcessId::new(0));
        assert_eq!(report.per_process[0].dropped_frames, 2);
        assert_eq!(report.per_process[1].records, 1, "trace totals survive the setter");
        assert_eq!(report.per_process[1].dropped_frames, 7);
        assert_eq!(report.per_process[1].verify_batch_depth, 3);

        let rendered = report.to_string();
        assert!(rendered.contains("dropped"), "{rendered}");
        assert!(rendered.contains("vdepth"), "{rendered}");
    }

    #[test]
    fn batch_resolve_waits_and_fetch_counts_are_tallied() {
        use dagrider_types::BatchDigest;
        let d = BatchDigest::new([7u8; 32]);
        let mut tracer = Tracer::new(ProcessId::new(2), 64);
        tracer.set_now(Time::new(10));
        tracer.record(TraceEvent::DigestOrdered { digest: d });
        tracer.record(TraceEvent::BatchFetchRequested { digest: d, from: ProcessId::new(0) });
        tracer.set_now(Time::new(18));
        tracer.record(TraceEvent::BatchResolved { digest: d, waited: 8 });
        let metrics = Metrics::new(4);
        let report = TraceReport::build(&tracer.records(), &metrics, Time::new(20));
        assert_eq!(report.batch_resolve.count, 1);
        assert_eq!(report.batch_resolve.min, 8);
        assert_eq!(report.batch_resolve.max, 8);
        assert_eq!(report.per_process.len(), 1);
        assert_eq!(report.per_process[0].batch_fetches, 1);

        let rendered = report.to_string();
        assert!(rendered.contains("batch resolve wait (1 digests)"), "{rendered}");
        assert!(rendered.contains("fetches"), "{rendered}");
    }

    #[test]
    fn admission_columns_report_the_last_cumulative_sample() {
        let mut tracer = Tracer::new(ProcessId::new(0), 64);
        tracer.set_now(Time::new(5));
        tracer.record(TraceEvent::ClientAdmission {
            accepted: 10,
            coalesced: 8,
            shed: 0,
            queue_high_water: 3,
        });
        tracer.set_now(Time::new(9));
        tracer.record(TraceEvent::ClientAdmission {
            accepted: 120,
            coalesced: 118,
            shed: 3,
            queue_high_water: 42,
        });
        let metrics = Metrics::new(4);
        let report = TraceReport::build(&tracer.records(), &metrics, Time::new(10));
        assert_eq!(report.per_process.len(), 1);
        let p = &report.per_process[0];
        assert_eq!(p.client_accepted, 120, "later sample wins");
        assert_eq!(p.client_coalesced, 118);
        assert_eq!(p.client_shed, 3);
        assert_eq!(p.client_queue_high_water, 42);

        let rendered = report.to_string();
        assert!(rendered.contains("accepted"), "{rendered}");
        assert!(rendered.contains("qhw"), "{rendered}");
    }

    #[test]
    fn ordering_lag_pairs_insert_and_order_per_process() {
        let mut tracer = Tracer::new(ProcessId::new(1), 64);
        let v = VertexRef::new(Round::new(1), ProcessId::new(0));
        tracer.set_now(Time::new(5));
        tracer.record(TraceEvent::VertexInserted { vertex: v });
        tracer.set_now(Time::new(25));
        tracer.record(TraceEvent::VertexOrdered { vertex: v, wave: Wave::new(1), position: 0 });
        let metrics = Metrics::new(4);
        let report = TraceReport::build(&tracer.records(), &metrics, Time::new(30));
        assert_eq!(report.ordering_lag.count, 1);
        assert_eq!(report.ordering_lag.min, 20);
        assert_eq!(report.ordering_lag.max, 20);
    }
}
