//! Per-layer metrics read off the span store and the driver loop's log.
//! `_s` metrics are mean seconds per round unless the README's glossary
//! says "per call".

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::{self, Json};
use crate::run::{Metric, RunLog, Specific};
use crate::trace::{self_times, Span};

/// One worker's trace file: its header and `(name, round, seconds)` spans.
pub struct WorkerTrace {
    serve_secs: f64,
    peak_rss_mb: f64,
    spans: Vec<(String, u32, f64)>,
}

pub fn read_worker_traces(files: &[PathBuf]) -> Result<Vec<WorkerTrace>, String> {
    files
        .iter()
        .map(|file| {
            let at = |e: String| format!("{}: {e}", file.display());
            let text = std::fs::read_to_string(file).map_err(|e| at(e.to_string()))?;
            let mut lines = text.lines();
            let header = json::parse(lines.next().unwrap_or_default()).map_err(at)?;
            let number = |value: &Json, key: &str| {
                value
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at(format!("missing {key}")))
            };
            let mut trace = WorkerTrace {
                serve_secs: number(&header, "serve_s")?,
                peak_rss_mb: number(&header, "peak_rss_mb")?,
                spans: Vec::new(),
            };
            for line in lines {
                let span = json::parse(line).map_err(at)?;
                let name = span.get("name").and_then(Json::as_str).unwrap_or_default();
                let secs = (number(&span, "end_ns")? - number(&span, "start_ns")?) * 1e-9;
                trace
                    .spans
                    .push((name.to_string(), number(&span, "round")? as u32, secs));
            }
            Ok(trace)
        })
        .collect()
}

#[derive(Default, Clone, Copy)]
struct Total {
    calls: usize,
    secs: f64,
}

impl Total {
    fn add(&mut self, secs: f64) {
        self.calls += 1;
        self.secs += secs;
    }

    fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs / self.calls as f64
        }
    }
}

/// Metrics of the algorithm, session, schedule, runner and net layers: the
/// ones every workload measures, and the workload-specific ones (pick
/// counters where the run is asynchronous, `net.*` and `snapshot` where it is
/// distributed). `width` is the workload's configured threads or workers;
/// `picks` is the scheduler decorator's `(calls, ns)` over `pick_next`.
pub fn from_spans(
    spans: &[Span],
    workers: &[WorkerTrace],
    width: usize,
    picks: (u64, u64),
) -> (Vec<Metric>, Vec<Specific>) {
    let mut totals: BTreeMap<&str, Total> = BTreeMap::new();
    let mut phase_by_round: BTreeMap<u32, f64> = BTreeMap::new();
    for span in spans {
        totals.entry(span.name).or_default().add(span.secs());
        if span.name == "runner.client_phase" {
            *phase_by_round.entry(span.round).or_default() += span.secs();
        }
    }
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let rounds = total("round").calls.max(1) as f64;
    let per_round = |name: &str| total(name).secs / rounds;

    let own = self_times(spans);
    let round_self: u64 = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| own[&s.id])
        .sum();

    // Worker side: busy time per (worker, round), and the same totals.
    let mut worker_update = Total::default();
    let mut worker_restore = Total::default();
    let mut slowest_by_round: BTreeMap<u32, f64> = BTreeMap::new();
    for worker in workers {
        let mut busy_by_round: BTreeMap<u32, f64> = BTreeMap::new();
        for (name, round, secs) in &worker.spans {
            match name.as_str() {
                "client_update" => worker_update.add(*secs),
                "restore" => worker_restore.add(*secs),
                _ => continue,
            }
            *busy_by_round.entry(*round).or_default() += secs;
        }
        for (round, busy) in busy_by_round {
            let slowest = slowest_by_round.entry(round).or_default();
            *slowest = slowest.max(busy);
        }
    }
    let dispatch_wait = phase_by_round
        .iter()
        .map(|(round, phase)| phase - slowest_by_round.get(round).copied().unwrap_or(0.0))
        .sum::<f64>()
        / rounds;
    let served: f64 = workers.iter().map(|w| w.serve_secs).sum();
    let worker_busy = worker_update.secs + worker_restore.secs;

    // Client updates run in this process or in the workers, never both.
    let mut updates = total("client_update");
    updates.calls += worker_update.calls;
    updates.secs += worker_update.secs;
    let phase_secs = total("runner.client_phase").secs;
    let evaluations = total("evaluate_global").calls + total("evaluate_client").calls;

    let common = vec![
        ("algorithms.setup_s", total("setup").secs),
        ("algorithms.client_update_s", updates.per_call()),
        ("algorithms.client_update_calls", updates.calls as f64),
        ("algorithms.aggregate_s", per_round("aggregate")),
        (
            "algorithms.evaluate_global_s",
            total("evaluate_global").per_call(),
        ),
        (
            "algorithms.evaluate_client_s",
            total("evaluate_client").per_call(),
        ),
        ("algorithms.evaluate_calls", evaluations as f64),
        ("fl.session.evaluate_s", total("evaluate").per_call()),
        ("fl.session.self_s", round_self as f64 * 1e-9 / rounds),
        ("fl.schedule.plan_s", per_round("schedule.plan")),
        ("fl.runner.client_phase_s", phase_secs / rounds),
        (
            "fl.runner.parallel_efficiency",
            updates.secs / (width as f64 * phase_secs).max(f64::MIN_POSITIVE),
        ),
    ];
    let mut specific = Vec::new();
    if picks.0 > 0 {
        specific.extend([
            ("fl.schedule.picks", "count", picks.0 as f64),
            (
                "fl.schedule.pick_next_ns",
                "ns",
                picks.1 as f64 / picks.0 as f64,
            ),
        ]);
    }
    if !workers.is_empty() {
        specific.extend([
            ("algorithms.snapshot_s", "s", per_round("snapshot")),
            ("net.dispatch_wait_s", "s", dispatch_wait),
            (
                "net.worker.restore_s",
                "s",
                worker_restore.secs / (rounds * workers.len() as f64),
            ),
            ("net.worker.client_update_s", "s", worker_update.per_call()),
            (
                "net.worker.idle_share",
                "ratio",
                1.0 - worker_busy / served.max(f64::MIN_POSITIVE),
            ),
            (
                "net.worker.peak_rss_mb",
                "MB",
                workers.iter().map(|w| w.peak_rss_mb).fold(0.0, f64::max),
            ),
        ]);
    }
    (common, specific)
}

/// Counts the session layer exposes through its event stream and report.
pub fn from_log(log: &RunLog, rounds: usize) -> Vec<Metric> {
    let dispatched = log.count("client-dispatched");
    let landed = log.count("update-arrived") + log.lost_updates();
    let report = log.report.as_ref();
    vec![
        ("fl.session.events", log.total_events() as f64),
        ("fl.updates_dispatched", dispatched as f64),
        ("fl.updates_aggregated", log.aggregated_updates as f64),
        ("fl.updates_failed", log.lost_updates() as f64),
        (
            "fl.in_flight_discarded",
            dispatched.saturating_sub(landed) as f64,
        ),
        (
            "fl.payload_bytes_per_round",
            report.map_or(0.0, |r| r.total_payload_bytes() as f64) / rounds.max(1) as f64,
        ),
        (
            "fl.mean_staleness",
            report.map_or(0.0, |r| r.mean_staleness()),
        ),
    ]
}

/// `plan + client_phase + aggregate + evaluate + self` against the mean
/// round wall-clock, both in seconds: equal by construction (self time is
/// the residual) unless spans were mis-parented.
pub fn round_reconstruction(spans: &[Span], metrics: &[Metric]) -> (f64, f64) {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let rounds: Vec<&Span> = spans.iter().filter(|s| s.name == "round").collect();
    let evaluate: f64 = spans
        .iter()
        .filter(|s| s.name == "evaluate")
        .map(Span::secs)
        .sum();
    let n = rounds.len().max(1) as f64;
    let parts = value("fl.schedule.plan_s")
        + value("fl.runner.client_phase_s")
        + value("algorithms.aggregate_s")
        + evaluate / n
        + value("fl.session.self_s");
    (parts, rounds.iter().map(|s| s.secs()).sum::<f64>() / n)
}
