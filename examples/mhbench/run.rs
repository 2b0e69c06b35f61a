//! Running one workload through the real `ExperimentSpec` →
//! `FlEngine::session` → `Session::next_event` loop: set-up (several times,
//! timed), the driver loop, worker processes for the distributed workload,
//! and the correctness checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mhfl_algorithms::build_algorithm;
use mhfl_fl::{
    ClientRunner, ClientScheduler, FederationContext, FlAlgorithm, FlEngine, InProcessRunner,
    MetricsReport, RoundEvent, Session,
};
use mhfl_net::cli::spec_fingerprint;
use mhfl_net::{serve, Conn, Endpoint, Listener, RemoteRunner, WorkerOptions, WorkerPool};

use crate::json::{self, Json};
use crate::layers;
use crate::probes;
use crate::stats;
use crate::trace::{write_spans, TracedAlgorithm, TracedRunner, TracedScheduler, Tracer};
use crate::workloads::Workload;

/// Set-ups timed per untraced run; `setup_s` is their median and the last
/// one is the one the run uses.
const SETUP_REPS: usize = 5;

/// How long the server waits for a worker to connect, and for any single
/// read from one (workers heartbeat every 500 ms). Past it the worker counts
/// as dead and the workload fails instead of hanging.
const POOL_TIMEOUT: Duration = Duration::from_secs(10);

/// Wall-clock cap on one driver loop. A run that reaches it is stopped and
/// fails its checks, so a pathological slowdown cannot hang the benchmark.
const RUN_CAP: Duration = Duration::from_secs(120);

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// A metric `BENCHMARK.json` declares, as `(name, value)`; the unit is there.
pub type Metric = (&'static str, f64);

/// A per-layer metric only some workloads have, as `(name, unit, value)`:
/// `BENCHMARK.json` declares what every workload measures, so these carry
/// their unit themselves and appear in the full report only.
pub type Specific = (&'static str, &'static str, f64);

/// What one child process (one workload, traced or not) hands back.
pub struct Outcome {
    /// The metrics `BENCHMARK.json` declares for this pass.
    pub metrics: Vec<Metric>,
    pub specific: Vec<Specific>,
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<Check>,
    /// Everything else the full report prints per workload (digest, rounds,
    /// sample count, percentile used, accuracy, wall-clock, ...).
    pub detail: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The worker child processes of one distributed set-up. Always reaped:
/// [`finish`](Workers::finish) on the normal path, `Drop` on every other.
pub struct Workers {
    children: Mutex<Vec<Child>>,
    span_files: Vec<PathBuf>,
}

impl Workers {
    fn spawn(
        w: &Workload,
        seed: u64,
        endpoint: &Endpoint,
        spans_dir: Option<&Path>,
    ) -> Result<Workers, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut workers = Workers {
            children: Mutex::new(Vec::new()),
            span_files: Vec::new(),
        };
        for index in 0..w.workers {
            let mut command = Command::new(&exe);
            command.arg("--worker").arg(endpoint.to_string()).args([
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
            ]);
            if let Some(dir) = spans_dir {
                let file = dir.join(format!("{}.worker{index}.spans.jsonl", w.name));
                command.arg("--spans").arg(&file);
                workers.span_files.push(file);
            }
            let child = command
                .spawn()
                .map_err(|e| format!("spawning worker {index}: {e}"))?;
            workers.children.lock().expect("children lock").push(child);
        }
        Ok(workers)
    }

    fn any_exited(&self) -> bool {
        self.children
            .lock()
            .expect("children lock")
            .iter_mut()
            .any(|child| !matches!(child.try_wait(), Ok(None)))
    }

    /// Waits for every worker to exit — they do as soon as the dropped pool
    /// has sent `Shutdown` — killing any that outlive the pool timeout.
    /// `Err` names every worker that was killed or exited non-zero.
    pub fn finish(&mut self) -> Result<(), String> {
        let children = std::mem::take(&mut *self.children.lock().expect("children lock"));
        let deadline = Instant::now() + POOL_TIMEOUT;
        let mut problems = Vec::new();
        for (index, mut child) in children.into_iter().enumerate() {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Ok(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(None) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break Err("did not exit after shutdown; killed".to_string());
                    }
                    Err(e) => break Err(format!("wait failed: {e}")),
                }
            };
            match status {
                Ok(status) if status.success() => {}
                Ok(status) => problems.push(format!("worker {index} exited with {status}")),
                Err(problem) => problems.push(format!("worker {index} {problem}")),
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        if let Ok(mut children) = self.children.lock() {
            for child in children.iter_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Accepts the pool, guarded: `WorkerPool::accept_with_timeout` blocks in
/// `accept()` for a worker that never connects, so a watchdog pokes the
/// listener with a silent connection — which fails the handshake with a
/// typed error — once a worker has exited or the pool timeout has passed.
fn accept_pool(
    listener: &Listener,
    endpoint: &Endpoint,
    workers: &Workers,
    count: usize,
    fingerprint: u64,
    num_clients: usize,
) -> Result<WorkerPool, String> {
    let (done, waiting) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let started = Instant::now();
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                waiting.recv_timeout(Duration::from_millis(20))
            {
                if started.elapsed() > POOL_TIMEOUT || workers.any_exited() {
                    drop(Conn::connect(endpoint));
                    return;
                }
            }
        });
        let pool = WorkerPool::accept_with_timeout(
            listener,
            count,
            fingerprint,
            num_clients,
            POOL_TIMEOUT,
        );
        drop(done);
        pool.map_err(|e| format!("accepting workers: {e}"))
    })
}

/// The re-exec'd worker child: connect back, serve dispatches until the
/// server shuts the run down, and (traced pass) report the spans of its own
/// algorithm decorator through a file on exit.
pub fn worker_main(
    endpoint: &str,
    w: &Workload,
    seed: u64,
    spans: Option<&Path>,
) -> Result<(), String> {
    let endpoint = Endpoint::parse(endpoint).map_err(|e| e.to_string())?;
    let spec = w.spec(seed);
    let conn = Conn::connect_within(&endpoint, POOL_TIMEOUT).map_err(|e| e.to_string())?;
    let ctx = w.build_context(&spec).map_err(|e| e.to_string())?;
    let mut algorithm = build_algorithm(w.method);
    let tracer = spans.map(|_| Tracer::new());
    if let Some(tracer) = &tracer {
        algorithm = Box::new(TracedAlgorithm::in_worker(algorithm, Arc::clone(tracer)));
    }
    let options = WorkerOptions {
        name: format!("mhbench-{}", std::process::id()),
        ..WorkerOptions::default()
    };
    let started = Instant::now();
    let report = serve(
        conn,
        spec_fingerprint(&spec),
        algorithm.as_mut(),
        &ctx,
        options,
    )
    .map_err(|e| e.to_string())?;
    if let (Some(path), Some(tracer)) = (spans, tracer) {
        let mut spans = tracer.take_spans();
        // `restore` carries no round argument: it belongs to the dispatch
        // whose client updates follow it.
        let mut round = 0;
        for span in spans.iter_mut().rev() {
            if span.name == "restore" {
                span.round = round;
            } else {
                round = span.round;
            }
        }
        let header = Json::obj()
            .with("worker", report.worker_index)
            .with("serve_s", started.elapsed().as_secs_f64())
            .with("peak_rss_mb", peak_rss_mb())
            .with("dispatches", report.dispatches)
            .with("updates_sent", report.updates_sent);
        write_spans(path, Some(&header), &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Spec seed of the `federation`-th session of a run: the first runs on
/// `seed` itself, the others far enough away that the runs of neighbouring
/// `--seed` values share no federation.
fn federation_seed(seed: u64, federation: usize) -> u64 {
    seed.wrapping_add(federation as u64 * 1_000_003)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a session borrows from, built in the order a user builds it:
/// context, algorithm, and (distributed) the worker pool.
pub struct Rig {
    pub ctx: FederationContext,
    pub algorithm: Box<dyn FlAlgorithm>,
    runner: Option<Box<dyn ClientRunner>>,
    tracer: Option<Arc<Tracer>>,
    pub workers: Option<Workers>,
    pub build_context_secs: f64,
    pub accept_secs: f64,
}

impl Rig {
    /// `distributed = false` on the distributed workload builds its
    /// in-process reference. With a tracer, every decorator is installed
    /// (and workers trace into `spans_dir`); without one, none is.
    pub fn build(
        w: &Workload,
        seed: u64,
        distributed: bool,
        tracer: Option<&Arc<Tracer>>,
        spans_dir: &Path,
    ) -> Result<Rig, String> {
        let spec = w.spec(seed);
        let started = Instant::now();
        let ctx = w.build_context(&spec).map_err(|e| e.to_string())?;
        let build_context_secs = started.elapsed().as_secs_f64();
        let mut algorithm = build_algorithm(w.method);
        if let Some(tracer) = tracer {
            algorithm = Box::new(TracedAlgorithm::new(algorithm, Arc::clone(tracer)));
        }

        let mut workers = None;
        let mut accept_secs = 0.0;
        let remote = if distributed && w.workers > 0 {
            // An ephemeral port, so two invocations cannot collide.
            let listener =
                Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).map_err(|e| e.to_string())?;
            let endpoint = listener.local_endpoint().map_err(|e| e.to_string())?;
            let spawned =
                Workers::spawn(w, seed, &endpoint, tracer.is_some().then_some(spans_dir))?;
            let started = Instant::now();
            let pool = accept_pool(
                &listener,
                &endpoint,
                &spawned,
                w.workers,
                spec_fingerprint(&spec),
                ctx.num_clients(),
            )?;
            accept_secs = started.elapsed().as_secs_f64();
            workers = Some(spawned);
            Some(RemoteRunner::new(pool))
        } else {
            None
        };
        let runner: Option<Box<dyn ClientRunner>> = match (remote, tracer) {
            (Some(inner), Some(tracer)) => Some(Box::new(TracedRunner {
                inner,
                tracer: Arc::clone(tracer),
            })),
            (Some(inner), None) => Some(Box::new(inner)),
            (None, Some(tracer)) => Some(Box::new(TracedRunner {
                inner: InProcessRunner,
                tracer: Arc::clone(tracer),
            })),
            (None, None) => None,
        };
        Ok(Rig {
            ctx,
            algorithm,
            runner,
            tracer: tracer.cloned(),
            workers,
            build_context_secs,
            accept_secs,
        })
    }

    /// Opens the session (which runs the algorithm's `setup`).
    pub fn open(&mut self, engine: FlEngine) -> Result<Session<'_>, String> {
        let mut session = engine
            .session(self.algorithm.as_mut(), &self.ctx)
            .map_err(|e| e.to_string())?;
        if let Some(runner) = self.runner.take() {
            session.set_client_runner(runner);
        }
        if let Some(tracer) = &self.tracer {
            let inner: Box<dyn ClientScheduler> = engine.config().schedule.build();
            session.set_scheduler(Box::new(TracedScheduler {
                inner,
                tracer: Arc::clone(tracer),
            }));
        }
        Ok(session)
    }

    /// Reaps the workers (after the session, and with it the pool, is gone).
    pub fn finish(&mut self) -> Result<(), String> {
        match self.workers.as_mut() {
            Some(workers) => workers.finish(),
            None => Ok(()),
        }
    }
}

/// What the driver loop saw.
#[derive(Default)]
pub struct RunLog {
    /// Wall-clock between consecutive `RoundCompleted` events (the first
    /// from the first `next_event` call).
    pub round_secs: Vec<f64>,
    /// First `next_event` call to `RunCompleted`.
    pub wall_secs: f64,
    pub events: BTreeMap<&'static str, usize>,
    pub aggregated_updates: usize,
    pub report: Option<MetricsReport>,
    pub error: Option<String>,
    pub clock_monotone: bool,
    /// First client of round 1's selection: the one the layer probes use.
    pub probe_client: Option<usize>,
}

impl RunLog {
    pub fn count(&self, kind: &str) -> usize {
        self.events.get(kind).copied().unwrap_or(0)
    }

    pub fn total_events(&self) -> usize {
        self.events.values().sum()
    }

    /// Updates that were dispatched and then lost to staleness or churn.
    pub fn lost_updates(&self) -> usize {
        self.count("update-dropped") + self.count("client-churned")
    }
}

/// Drives the session to completion. `at_end` runs on the live session
/// after the last round's window has closed.
pub fn drive(
    session: &mut Session<'_>,
    tracer: Option<&Tracer>,
    mut at_end: impl FnMut(&Session<'_>),
) -> RunLog {
    let mut log = RunLog {
        clock_monotone: true,
        ..RunLog::default()
    };
    let last_round = session.config().rounds;
    let mut last_sim_time = 0.0f64;
    let started = Instant::now();
    let mut window_start = started;
    if let Some(tracer) = tracer {
        tracer.open_round(1);
    }
    loop {
        let event = match session.next_event() {
            Ok(Some(event)) => event,
            Ok(None) => break,
            Err(error) => {
                log.error = Some(error.to_string());
                log.wall_secs = started.elapsed().as_secs_f64();
                break;
            }
        };
        *log.events.entry(event.kind()).or_default() += 1;
        match event {
            RoundEvent::ClientDispatched { client, .. } if log.probe_client.is_none() => {
                log.probe_client = Some(client);
            }
            RoundEvent::Aggregated { num_updates, .. } => log.aggregated_updates += num_updates,
            RoundEvent::RoundCompleted {
                round,
                sim_time_secs,
                ..
            } => {
                let now = Instant::now();
                if let Some(tracer) = tracer {
                    tracer.close_round();
                }
                log.round_secs.push((now - window_start).as_secs_f64());
                log.clock_monotone &= sim_time_secs >= last_sim_time;
                last_sim_time = sim_time_secs;
                if round == last_round {
                    at_end(session);
                } else if started.elapsed() > RUN_CAP {
                    log.error = Some(format!(
                        "stopped at round {round}: over the {} s cap",
                        RUN_CAP.as_secs()
                    ));
                    session.stop();
                }
                window_start = Instant::now();
                if let Some(tracer) = tracer {
                    tracer.open_round(round + 1);
                }
            }
            RoundEvent::RunCompleted { report } => {
                log.wall_secs = started.elapsed().as_secs_f64();
                log.report = Some(report);
            }
            _ => {}
        }
    }
    log
}

/// Operations attempted and failed. A run that errored counts every update
/// it was still due to deliver as failed.
fn operations(log: &RunLog, rounds: usize, per_round: usize) -> (usize, usize) {
    let dispatched = log.count("client-dispatched");
    if log.error.is_some() {
        let attempted = dispatched.max(rounds * per_round);
        (attempted, attempted - log.aggregated_updates.min(attempted))
    } else {
        (dispatched.max(1), log.lost_updates())
    }
}

/// The structural invariants every run must satisfy, traced or not.
fn structural_checks(w: &Workload, log: &RunLog, rounds: usize, failed: usize) -> Vec<Check> {
    let mut checks = vec![
        Check::new(
            "run_completed",
            log.error.is_none() && log.count("run-completed") == 1,
            log.error
                .clone()
                .unwrap_or_else(|| format!("{} RunCompleted event(s)", log.count("run-completed"))),
        ),
        Check::new(
            "rounds",
            log.count("round-completed") == rounds,
            format!(
                "{} RoundCompleted events, {rounds} expected",
                log.count("round-completed")
            ),
        ),
        Check::new(
            "sim_clock_monotone",
            log.clock_monotone,
            "simulated time at RoundCompleted never decreases".into(),
        ),
        Check::new(
            "no_failed_updates",
            failed == 0,
            format!("{failed} update(s) dropped, churned or undelivered"),
        ),
    ];
    let Some(report) = &log.report else {
        return checks;
    };
    checks.push(Check::new(
        "evaluation_records",
        report.records.len() == w.expected_records(rounds),
        format!(
            "{} records, {} expected",
            report.records.len(),
            w.expected_records(rounds)
        ),
    ));
    let in_range = |a: &f32| a.is_finite() && (0.0..=1.0).contains(a);
    checks.push(Check::new(
        "accuracies_in_range",
        report
            .records
            .iter()
            .all(|r| in_range(&r.global_accuracy) && r.per_client_accuracy.iter().all(in_range)),
        "every global and per-client accuracy finite and in [0, 1]".into(),
    ));
    let (from_rounds, floor) = w.accuracy_floor;
    if rounds >= from_rounds {
        checks.push(Check::new(
            "accuracy_floor",
            report.final_accuracy() >= floor,
            format!("final accuracy {} >= {floor}", report.final_accuracy()),
        ));
    }
    checks
}

fn digest_hex(report: &MetricsReport) -> String {
    format!("{:016x}", report.digest())
}

/// Folds one federation's checks into the run's: a check holds when it
/// holds for every federation, and reports the first failure.
fn merge_checks(all: &mut Vec<Check>, federation: Vec<Check>) {
    for check in federation {
        match all.iter_mut().find(|c| c.name == check.name) {
            Some(seen) if seen.ok => *seen = check,
            Some(_) => {}
            None => all.push(check),
        }
    }
}

/// The untraced run: the end-to-end metrics. `federations` consecutive
/// sessions share the rounds, each over its own spec seed derived from
/// `seed`; their rounds are pooled.
pub fn run_untraced(
    w: &Workload,
    seed: u64,
    rounds: usize,
    federations: usize,
    out: &Path,
) -> Result<Outcome, String> {
    let distributed = w.workers > 0;
    let rounds = (rounds / federations).max(1);
    let engine = w.engine(rounds);
    let setups = SETUP_REPS.div_ceil(federations);

    let mut setup_secs = Vec::new();
    let mut round_secs = Vec::new();
    let mut wall_secs = 0.0;
    let mut peak_rss = 0.0f64;
    let (mut attempted, mut failed) = (0, 0);
    let mut checks = Vec::new();
    let mut digests = Vec::new();
    let mut accuracies = Vec::new();
    let mut detail = Json::obj();
    for federation in 0..federations {
        let seed = federation_seed(seed, federation);
        for _ in 1..setups {
            let started = Instant::now();
            let mut rig = Rig::build(w, seed, distributed, None, out)?;
            let session = rig.open(engine)?;
            setup_secs.push(started.elapsed().as_secs_f64());
            drop(session);
            rig.finish()?;
        }
        let started = Instant::now();
        let mut rig = Rig::build(w, seed, distributed, None, out)?;
        let mut session = rig.open(engine)?;
        setup_secs.push(started.elapsed().as_secs_f64());

        let log = drive(&mut session, None, |_| {});
        drop(session);
        peak_rss = peak_rss.max(peak_rss_mb());
        let workers_exit = rig.finish();

        let ops = operations(&log, rounds, w.updates_per_round(&rig.ctx));
        attempted += ops.0;
        failed += ops.1;
        let mut federation_checks = structural_checks(w, &log, rounds, ops.1);
        if distributed {
            federation_checks.push(Check::new(
                "workers_exited_cleanly",
                workers_exit.is_ok(),
                workers_exit.err().unwrap_or_else(|| "all reaped".into()),
            ));
            // The same configuration in-process, untimed: the distributed
            // engine may change where updates are computed, never their
            // bits. (Nothing to compare once the distributed run failed.)
            let ours = log.report.as_ref().map(digest_hex);
            let mut theirs = None;
            if ours.is_some() {
                let mut reference = Rig::build(w, seed, false, None, out)?;
                let mut session = reference.open(engine)?;
                let reference_log = drive(&mut session, None, |_| {});
                theirs = reference_log.report.as_ref().map(digest_hex);
                detail.set("reference_wall_s", reference_log.wall_secs);
            }
            federation_checks.push(Check::new(
                "digest_matches_in_process",
                ours.is_some() && ours == theirs,
                format!("distributed {ours:?}, in-process {theirs:?}"),
            ));
        }
        merge_checks(&mut checks, federation_checks);
        round_secs.extend(&log.round_secs);
        wall_secs += log.wall_secs;
        digests.push(log.report.as_ref().map(digest_hex).unwrap_or_default());
        accuracies.push(f64::from(
            log.report.as_ref().map_or(0.0, |r| r.final_accuracy()),
        ));
    }

    let (tail, percentile) = stats::tail(&round_secs);
    let metrics = vec![
        ("setup_s", stats::median(&setup_secs)),
        (
            "rounds_per_s",
            round_secs.len() as f64 / wall_secs.max(f64::MIN_POSITIVE),
        ),
        ("round_s_p50", stats::median(&round_secs)),
        ("round_s_tail", tail),
        ("peak_rss_mb", peak_rss),
    ];
    let detail = detail
        .with("rounds", rounds * federations)
        .with("federations", federations)
        .with("n", round_secs.len())
        .with("round_s_tail_percentile", percentile)
        .with("final_accuracy", stats::mean(&accuracies))
        .with("failed_share", failed as f64 / attempted as f64)
        .with("digest", digests.join("+"))
        .with("ops_attempted", attempted)
        .with("ops_failed", failed)
        .with("run_wall_s", wall_secs);
    Ok(Outcome {
        metrics,
        specific: Vec::new(),
        attempted,
        failed,
        checks,
        detail,
    })
}

/// Runs one `(workload, pass)` in a freshly spawned child process of this
/// binary and parses the two lines it prints last: `(detail, result)`.
/// `rounds` is the untraced length; a traced child runs a third of it.
pub fn child(
    w: &Workload,
    seed: u64,
    rounds: usize,
    pass: &[&str],
    out: &Path,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .args(pass)
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("{} child exited with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().unwrap_or_default())?;
    let detail = json::parse(lines.next().unwrap_or_default())?;
    Ok((detail, result))
}

/// The traced pass: the traced run, the layer probes, then an untraced run
/// of the same length in a fresh process of its own, so the cost of tracing
/// is measured, not assumed. (A second session in this process would run on
/// memory the first one already faulted in, and read up to 20 % faster.)
/// Yields the per-layer metrics.
pub fn run_traced(w: &Workload, seed: u64, rounds: usize, out: &Path) -> Result<Outcome, String> {
    let distributed = w.workers > 0;

    let tracer = Tracer::new();
    let mut rig = Rig::build(w, seed, distributed, Some(&tracer), out)?;
    let mut session = rig.open(w.engine(rounds))?;
    let mut persist = probes::Persist::default();
    let reps = w.probe_reps;
    let mut spans = Vec::new();
    let log = drive(&mut session, Some(&tracer), |session| {
        // The run's spans end here; what the probe causes is not the run.
        spans = tracer.take_spans();
        persist = probes::persist(session, reps);
    });
    drop(session);
    let workers_exit = rig.finish();

    let spans_path = out.join(format!("{}.spans.jsonl", w.name));
    write_spans(&spans_path, None, &spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let worker_files = rig
        .workers
        .as_ref()
        .map_or(&[][..], |workers| &workers.span_files[..]);
    let worker_traces = layers::read_worker_traces(worker_files)?;

    let per_round = w.updates_per_round(&rig.ctx);
    let (attempted, failed) = operations(&log, rounds, per_round);
    let mut checks = structural_checks(w, &log, rounds, failed);
    if distributed {
        checks.push(Check::new(
            "workers_exited_cleanly",
            workers_exit.is_ok(),
            workers_exit.err().unwrap_or_else(|| "all reaped".into()),
        ));
    }

    let mut metrics = vec![("core.build_context_s", rig.build_context_secs)];
    let mut specific = Vec::new();
    if distributed {
        specific.push(("net.accept_s", "s", rig.accept_secs));
    }
    let from_spans = layers::from_spans(&spans, &worker_traces, w.width(), tracer.pick_totals());
    metrics.extend(from_spans.0);
    specific.extend(from_spans.1);
    metrics.extend(layers::from_log(&log, rounds));
    metrics.extend(persist.metrics());
    let probe_client = log.probe_client.unwrap_or(0);
    let probed = probes::layers(w, &rig.ctx, rig.algorithm.as_ref(), probe_client)?;
    metrics.extend(probed.0);
    specific.extend(probed.1);
    // Self time is the residual, so the parts must add up to the round.
    let (parts, round_mean) = layers::round_reconstruction(&spans, &metrics);
    checks.push(Check::new(
        "spans_reconstruct_round",
        (parts - round_mean).abs() <= 1e-6 * round_mean,
        format!(
            "plan + client_phase + aggregate + evaluate + self = {parts} s, round = {round_mean} s"
        ),
    ));
    let traced_p50 = stats::median(&log.round_secs);
    // One federation, as traced here, so both p50s read the same rounds.
    let (_, comparison) = child(
        w,
        seed,
        rounds,
        &["--trace", "0", "--federations", "1"],
        out,
    )?;
    let untraced_p50 = comparison
        .get("metrics")
        .and_then(|m| m.get("round_s_p50")?.get("value")?.as_f64())
        .ok_or("the comparison run reported no round_s_p50")?;
    metrics.push((
        "trace.overhead",
        traced_p50 / untraced_p50.max(f64::MIN_POSITIVE) - 1.0,
    ));

    let round_wall = stats::mean(&log.round_secs);
    let detail = Json::obj()
        .with("rounds", rounds)
        .with("spans", spans.len())
        .with("spans_file", spans_path.display().to_string())
        .with("probe_client", probe_client)
        .with("round_s_mean", round_wall)
        .with("round_s_p50", traced_p50)
        .with("untraced_round_s_p50", untraced_p50)
        .with(
            "digest",
            log.report.as_ref().map(digest_hex).unwrap_or_default(),
        )
        .with("ops_attempted", attempted)
        .with("ops_failed", failed)
        .with("run_wall_s", log.wall_secs);
    Ok(Outcome {
        metrics,
        specific,
        attempted,
        failed,
        checks,
        detail,
    })
}
