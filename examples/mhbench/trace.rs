//! Spans recorded from outside the layers: decorators the benchmark owns
//! around the public entry points of `mhfl-algorithms` ([`TracedAlgorithm`]),
//! the client-phase executor ([`TracedRunner`]) and the scheduler
//! ([`TracedScheduler`]). The library itself carries no instrumentation;
//! an untraced run installs none of these.
//!
//! Span tree (the round number is the shared id):
//!
//! ```text
//! round ─┬─ schedule.plan
//!        ├─ runner.client_phase ─┬─ client_update[client]
//!        │                       └─ snapshot            (RemoteRunner only)
//!        ├─ aggregate
//!        └─ evaluate ─┬─ evaluate_global
//!                     └─ evaluate_client[client]
//! ```
//!
//! `round` and `evaluate` have no call boundary to wrap: `round` is the
//! window between two `RoundCompleted` events as the driver loop sees them,
//! `evaluate` spans from the start of `evaluate_global` to the end of the
//! last `evaluate_client` of the same window (all `Session::evaluate` does).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mhfl_data::Dataset;
use mhfl_fl::{
    AlgorithmState, CandidatePool, ClientRunner, ClientScheduler, ClientUpdate, FederationContext,
    FlAlgorithm, FlResult, Parallelism, RobustAggregation, RoundPlan,
};
use mhfl_tensor::SeededRng;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent.
    pub parent: u32,
    pub name: &'static str,
    pub round: u32,
    pub client: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    fn to_json(&self) -> Json {
        let mut line = Json::obj()
            .with("id", u64::from(self.id))
            .with("parent", u64::from(self.parent))
            .with("name", self.name)
            .with("round", u64::from(self.round));
        if let Some(client) = self.client {
            line.set("client", client);
        }
        line.with("start_ns", self.start_ns)
            .with("end_ns", self.end_ns)
    }
}

/// Consecutive `pick_next` calls, coalesced into one `schedule.plan` span
/// when the client phase they feed begins.
#[derive(Default)]
struct PendingPicks {
    first_start_ns: u64,
    last_end_ns: u64,
    calls: u64,
}

/// The evaluate span being assembled for the open round window.
struct OpenEvaluate {
    id: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store shared by the decorators of one run. Spans are
/// written out only when the run has ended.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    round: AtomicU32,
    round_id: AtomicU32,
    round_start_ns: AtomicU64,
    phase_id: AtomicU32,
    evaluate: Mutex<Option<OpenEvaluate>>,
    picks: Mutex<PendingPicks>,
    pick_calls: AtomicU64,
    pick_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            // Statistics and ids only: none of these atomics publishes other
            // data, so Relaxed is enough throughout.
            next_id: AtomicU32::new(1),
            round: AtomicU32::new(0),
            round_id: AtomicU32::new(0),
            round_start_ns: AtomicU64::new(0),
            phase_id: AtomicU32::new(0),
            evaluate: Mutex::new(None),
            picks: Mutex::new(PendingPicks::default()),
            pick_calls: AtomicU64::new(0),
            pick_ns: AtomicU64::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Opens the window of `round`: everything recorded until
    /// [`close_round`](Tracer::close_round) carries this round number.
    pub fn open_round(&self, round: usize) {
        self.round.store(round as u32, Ordering::Relaxed);
        self.round_id.store(self.new_id(), Ordering::Relaxed);
        self.round_start_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Closes the open window, emitting its `round` span (and the
    /// `evaluate` / coalesced `schedule.plan` spans still being assembled).
    pub fn close_round(&self) {
        let end_ns = self.now_ns();
        self.flush_picks();
        let round = self.round.load(Ordering::Relaxed);
        let round_id = self.round_id.load(Ordering::Relaxed);
        if let Some(evaluate) = self.evaluate.lock().expect("evaluate lock").take() {
            self.push(Span {
                id: evaluate.id,
                parent: round_id,
                name: "evaluate",
                round,
                client: None,
                start_ns: evaluate.start_ns,
                end_ns: evaluate.end_ns,
            });
        }
        self.push(Span {
            id: round_id,
            parent: 0,
            name: "round",
            round,
            client: None,
            start_ns: self.round_start_ns.load(Ordering::Relaxed),
            end_ns,
        });
        self.round_id.store(0, Ordering::Relaxed);
    }

    /// Workers have no round windows; they stamp spans with the round the
    /// server dispatched.
    fn set_round(&self, round: usize) {
        self.round.store(round as u32, Ordering::Relaxed);
    }

    /// Times `f` as a span named `name` under the parent the tree above
    /// prescribes for it.
    fn span<R>(&self, name: &'static str, client: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.new_id();
        let start_ns = self.now_ns();
        let parent = match name {
            "evaluate_global" | "evaluate_client" => {
                let mut evaluate = self.evaluate.lock().expect("evaluate lock");
                evaluate
                    .get_or_insert_with(|| OpenEvaluate {
                        id: self.new_id(),
                        start_ns,
                        end_ns: start_ns,
                    })
                    .id
            }
            "client_update" | "snapshot" | "restore" => match self.phase_id.load(Ordering::Relaxed)
            {
                0 => self.round_id.load(Ordering::Relaxed),
                phase => phase,
            },
            "runner.client_phase" => {
                self.flush_picks();
                self.phase_id.store(id, Ordering::Relaxed);
                self.round_id.load(Ordering::Relaxed)
            }
            _ => self.round_id.load(Ordering::Relaxed),
        };
        let result = f();
        let end_ns = self.now_ns();
        match name {
            "runner.client_phase" => self.phase_id.store(0, Ordering::Relaxed),
            "evaluate_global" | "evaluate_client" => {
                if let Some(evaluate) = self.evaluate.lock().expect("evaluate lock").as_mut() {
                    evaluate.end_ns = end_ns;
                }
            }
            _ => {}
        }
        self.push(Span {
            id,
            parent,
            name,
            round: self.round.load(Ordering::Relaxed),
            client,
            start_ns,
            end_ns,
        });
        result
    }

    /// Times one `pick_next` call: counted, and coalesced with its
    /// neighbours instead of becoming a span of its own (a million-client
    /// run makes tens of thousands of sub-microsecond picks).
    fn pick<R>(&self, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.pick_calls.fetch_add(1, Ordering::Relaxed);
        self.pick_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        let mut picks = self.picks.lock().expect("picks lock");
        if picks.calls == 0 {
            picks.first_start_ns = start_ns;
        }
        picks.last_end_ns = end_ns;
        picks.calls += 1;
        result
    }

    fn flush_picks(&self) {
        let picks = std::mem::take(&mut *self.picks.lock().expect("picks lock"));
        if picks.calls > 0 {
            self.push(Span {
                id: self.new_id(),
                parent: self.round_id.load(Ordering::Relaxed),
                name: "schedule.plan",
                round: self.round.load(Ordering::Relaxed),
                client: None,
                start_ns: picks.first_start_ns,
                end_ns: picks.last_end_ns,
            });
        }
    }

    /// `(calls, total ns)` of every `pick_next` so far.
    pub fn pick_totals(&self) -> (u64, u64) {
        (
            self.pick_calls.load(Ordering::Relaxed),
            self.pick_ns.load(Ordering::Relaxed),
        )
    }

    /// Takes every span recorded so far, in recording order.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }
}

/// Writes spans as JSON lines, preceded by `header` when given.
pub fn write_spans(path: &Path, header: Option<&Json>, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    if let Some(header) = header {
        writeln!(out, "{header}")?;
    }
    for span in spans {
        writeln!(out, "{}", span.to_json())?;
    }
    out.flush()
}

/// Self time per span id: the span's duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (client
/// updates on two threads), so the covered part is the union of the child
/// intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.id, (span.end_ns - span.start_ns) - covered)
        })
        .collect()
}

/// [`FlAlgorithm`] decorator: delegates everything unchanged and times the
/// calls the engine makes into the algorithm layer.
pub struct TracedAlgorithm {
    inner: Box<dyn FlAlgorithm>,
    tracer: Arc<Tracer>,
    /// Worker processes see no round windows; there the round comes from
    /// the `client_update` argument.
    round_from_calls: bool,
}

impl TracedAlgorithm {
    pub fn new(inner: Box<dyn FlAlgorithm>, tracer: Arc<Tracer>) -> Self {
        TracedAlgorithm {
            inner,
            tracer,
            round_from_calls: false,
        }
    }

    pub fn in_worker(inner: Box<dyn FlAlgorithm>, tracer: Arc<Tracer>) -> Self {
        TracedAlgorithm {
            inner,
            tracer,
            round_from_calls: true,
        }
    }
}

impl FlAlgorithm for TracedAlgorithm {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        self.tracer.span("setup", None, || self.inner.setup(ctx))
    }

    fn client_update(
        &self,
        round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate> {
        if self.round_from_calls {
            self.tracer.set_round(round);
        }
        self.tracer.span("client_update", Some(client), || {
            self.inner.client_update(round, client, ctx)
        })
    }

    fn aggregate(
        &mut self,
        round: usize,
        updates: Vec<ClientUpdate>,
        ctx: &FederationContext,
    ) -> FlResult<()> {
        self.tracer.span("aggregate", None, || {
            self.inner.aggregate(round, updates, ctx)
        })
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        self.tracer
            .span("evaluate_global", None, || self.inner.evaluate_global(data))
    }

    fn evaluate_client(&mut self, client: usize, data: &Dataset) -> FlResult<f32> {
        self.tracer.span("evaluate_client", Some(client), || {
            self.inner.evaluate_client(client, data)
        })
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
        self.tracer.span("snapshot", None, || self.inner.snapshot())
    }

    fn restore(&mut self, state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        self.tracer
            .span("restore", None, || self.inner.restore(state, ctx))
    }

    fn set_robust_aggregation(&mut self, robust: RobustAggregation) {
        self.inner.set_robust_aggregation(robust);
    }
}

/// [`ClientRunner`] decorator around `InProcessRunner` / `RemoteRunner`.
pub struct TracedRunner<R> {
    pub inner: R,
    pub tracer: Arc<Tracer>,
}

impl<R: ClientRunner> ClientRunner for TracedRunner<R> {
    fn run_clients(
        &mut self,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        clients: &[usize],
        ctx: &FederationContext,
        parallelism: Parallelism,
    ) -> FlResult<Vec<ClientUpdate>> {
        self.tracer.span("runner.client_phase", None, || {
            self.inner
                .run_clients(algorithm, round, clients, ctx, parallelism)
        })
    }
}

/// [`ClientScheduler`] decorator installed with `Session::set_scheduler`.
pub struct TracedScheduler {
    pub inner: Box<dyn ClientScheduler>,
    pub tracer: Arc<Tracer>,
}

impl ClientScheduler for TracedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_round(
        &self,
        round: usize,
        per_round: usize,
        now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        self.tracer.span("schedule.plan", None, || {
            self.inner.plan_round(round, per_round, now, ctx, rng)
        })
    }

    fn is_available(&self, client: usize, now: f64, ctx: &FederationContext) -> bool {
        self.inner.is_available(client, now, ctx)
    }

    fn pick_next(
        &self,
        now: f64,
        pool: &dyn CandidatePool,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> Option<usize> {
        self.tracer
            .pick(|| self.inner.pick_next(now, pool, ctx, rng))
    }

    fn idle_wait_secs(&self) -> f64 {
        self.inner.idle_wait_secs()
    }
}
