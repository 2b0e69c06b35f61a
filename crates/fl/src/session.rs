//! The streaming session driver: one event loop for both execution modes,
//! with checkpoint/resume.
//!
//! [`FlEngine::run`] used to be a single blocking call; a multi-hour
//! paper-scale run could not be observed mid-flight, stopped early, or
//! resumed after an interruption. [`Session`] replaces that with an
//! iterator-like state machine: [`FlEngine::session`] returns a driver that
//! advances the simulation one event at a time and yields typed
//! [`RoundEvent`]s — `run()` survives as `session().drain()`.
//!
//! Both execution modes share **one** driver. The event-driven core keeps a
//! heap of in-flight [`Arrival`]s and a buffer of landed updates, and
//! aggregates when the buffer reaches a flush threshold:
//!
//! * [`Execution::AsyncBuffered`] is the native shape — `concurrency` slots
//!   refilled via the scheduler's incremental hooks, flush at `buffer_size`,
//!   the clock following arrival events;
//! * [`Execution::Synchronous`] is the special case where a whole round is
//!   dispatched at once ([`ClientScheduler::plan_round`]), the flush
//!   threshold is "everything dispatched this round", updates are aggregated
//!   in selection order, and the clock advances by the scheduler-reported
//!   round duration when the round closes.
//!
//! The collapse is *observable-equivalent by construction*: the golden-trace
//! harness (`tests/golden.rs`) pins that reports produced through the
//! session driver are bitwise identical to the pre-session engine in both
//! modes.
//!
//! [`Session::checkpoint`] snapshots the full run state — the algorithm's
//! [`AlgorithmState`], the in-flight arrival heap and aggregation buffer,
//! RNG stream, simulated clock, and the report so far — such that a run
//! restored with [`Session::restore`] produces a bitwise-identical
//! [`MetricsReport::digest`] to the uninterrupted run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use mhfl_tensor::{RngState, SeededRng};
use serde::{Deserialize, Serialize};

use crate::adversary::Corruption;
use crate::observer::Observer;
use crate::parallel::{ClientRunner, InProcessRunner, Parallelism};
use crate::schedule::CandidatePool;
use crate::store::ClientSet;
use crate::{
    AlgorithmState, ClientRoundStat, ClientScheduler, ClientUpdate, EngineConfig, Execution,
    FederationContext, FlAlgorithm, FlEngine, FlError, FlResult, MetricsReport, RoundRecord,
};

/// Consecutive idle clock advances (no client dispatchable, nothing in
/// flight) after which an asynchronous run gives up instead of spinning
/// forever — only reachable when an availability-gated scheduler keeps every
/// client offline for this many slots in a row.
const MAX_IDLE_ADVANCES: usize = 10_000;

/// Salt for the per-dispatch churn stream, disjoint from every honest
/// simulation stream and from the corruption salt.
const CHURN_SALT: u64 = 0xBAD5_EED5_0000_0003;

/// One typed occurrence on the simulated clock, yielded by
/// [`Session::next_event`] in emission order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RoundEvent {
    /// A server round began accumulating updates. Synchronous rounds start
    /// when the scheduler plans them; asynchronous "rounds" (aggregations)
    /// start at run begin and after each flush.
    RoundStarted {
        /// The 1-based round about to be aggregated.
        round: usize,
        /// Simulated time at the round start.
        sim_time_secs: f64,
    },
    /// A client was dispatched (its local training charged to the simulated
    /// clock from this instant).
    ClientDispatched {
        /// The round the client's update will be attributed to if it is
        /// aggregated without growing stale.
        round: usize,
        /// The dispatched client.
        client: usize,
        /// Simulated dispatch time.
        sim_time_secs: f64,
    },
    /// A client's update reached the server and entered the aggregation
    /// buffer.
    UpdateArrived {
        /// The round the update will be folded into.
        round: usize,
        /// The client that produced the update.
        client: usize,
        /// Simulated arrival time.
        sim_time_secs: f64,
        /// Server aggregations completed while the update was in flight.
        staleness: usize,
    },
    /// A client's update was discarded for exceeding the configured
    /// [`max_staleness`](EngineConfig::max_staleness) bound (asynchronous
    /// execution only).
    UpdateDropped {
        /// The round during which the update arrived.
        round: usize,
        /// The client whose update was dropped.
        client: usize,
        /// Simulated arrival time.
        sim_time_secs: f64,
        /// The update's staleness (strictly above the configured bound).
        staleness: usize,
    },
    /// A dispatched client dropped out mid-round (churn): its update never
    /// reaches the server. Distinct from [`UpdateDropped`](RoundEvent::UpdateDropped),
    /// which is the server discarding an update that *did* arrive too stale.
    /// Asynchronous executions refill the freed slot so the run does not
    /// stall; synchronous rounds shrink their flush threshold by one.
    ClientChurned {
        /// The round the client's update would have been attributed to.
        round: usize,
        /// The client that dropped out.
        client: usize,
        /// Simulated time at which the dropout was detected (the would-be
        /// arrival time — the server notices a straggler by its absence).
        sim_time_secs: f64,
    },
    /// The server folded a buffer of updates into the global state.
    Aggregated {
        /// The 1-based round that just completed aggregation.
        round: usize,
        /// Simulated time of the aggregation.
        sim_time_secs: f64,
        /// Number of updates aggregated (zero for a skipped synchronous
        /// round).
        num_updates: usize,
    },
    /// A round finished. Carries the [`RoundRecord`] when the round was an
    /// evaluation point ([`EngineConfig::eval_every`]), `None` otherwise.
    RoundCompleted {
        /// The 1-based round that completed.
        round: usize,
        /// Simulated time at round completion.
        sim_time_secs: f64,
        /// The evaluation record, on evaluation rounds.
        record: Option<RoundRecord>,
    },
    /// The run ended — all rounds completed, an observer requested an early
    /// stop, or the availability horizon was exhausted. Always the final
    /// event of a session.
    RunCompleted {
        /// The full metric report of the run.
        report: MetricsReport,
    },
}

impl RoundEvent {
    /// Short variant name (for logs and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            RoundEvent::RoundStarted { .. } => "round-started",
            RoundEvent::ClientDispatched { .. } => "client-dispatched",
            RoundEvent::UpdateArrived { .. } => "update-arrived",
            RoundEvent::UpdateDropped { .. } => "update-dropped",
            RoundEvent::ClientChurned { .. } => "client-churned",
            RoundEvent::Aggregated { .. } => "aggregated",
            RoundEvent::RoundCompleted { .. } => "round-completed",
            RoundEvent::RunCompleted { .. } => "run-completed",
        }
    }
}

/// One in-flight client update travelling towards the server.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    /// Simulated time at which the update reaches the server.
    pub(crate) time: f64,
    /// Dispatch sequence number: selection order within a synchronous round
    /// and a deterministic FIFO tie-break for simultaneous arrivals.
    pub(crate) seq: u64,
    /// Simulated time the client was dispatched.
    pub(crate) dispatched_at: f64,
    /// Server version (completed aggregations) at dispatch.
    pub(crate) dispatched_version: usize,
    /// The computed update.
    pub(crate) update: ClientUpdate,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we pop earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A landed update waiting in the aggregation buffer.
#[derive(Debug, Clone)]
pub(crate) struct Buffered {
    /// Dispatch sequence number (synchronous flushes restore selection
    /// order by this key).
    pub(crate) seq: u64,
    pub(crate) update: ClientUpdate,
    pub(crate) stat: ClientRoundStat,
}

/// Mode-specific driver parameters: how updates are dispatched, when the
/// buffer flushes, and how the clock advances at a flush.
#[derive(Debug, Clone, Copy)]
enum DriveMode {
    /// Whole rounds at a time; flush when every dispatched client of the
    /// open round has landed; clock jumps to the scheduler-reported round
    /// end.
    Sync {
        /// Absolute simulated time at which the open round closes.
        round_end: f64,
        /// Updates dispatched in the open round (the flush threshold).
        expected: usize,
        /// Whether a round is currently accumulating arrivals.
        open: bool,
    },
    /// Slot-refilled dispatch; flush at `buffer_size`; the clock follows
    /// arrival events.
    Async {
        /// Updates per aggregation.
        buffer_size: usize,
        /// Clients kept in flight.
        slots: usize,
    },
}

/// The asynchronous engine's dispatch candidates: every client not currently
/// in flight, viewed through [`CandidatePool`] without ever materialising
/// the free list. [`nth`](CandidatePool::nth) walks the sorted busy set —
/// O(in-flight), which is bounded by the concurrency slots, never by the
/// population — so refilling a slot in a million-client federation costs the
/// same as in a ten-client one.
struct FreePool<'a> {
    num_clients: usize,
    busy: &'a ClientSet,
}

impl CandidatePool for FreePool<'_> {
    fn len(&self) -> usize {
        self.num_clients - self.busy.len()
    }

    fn nth(&self, k: usize) -> usize {
        // The k-th free id: every busy id at or below the running answer
        // shifts it up by one. Busy ids are sorted ascending, so one pass.
        let mut id = k;
        for b in self.busy.iter() {
            if b <= id {
                id += 1;
            } else {
                break;
            }
        }
        id
    }

    fn contains(&self, client: usize) -> bool {
        client < self.num_clients && !self.busy.contains(client)
    }

    fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        Box::new((0..self.num_clients).filter(|&c| !self.busy.contains(c)))
    }
}

impl DriveMode {
    /// The driver parameters a configuration implies — the single place
    /// slot sizing and flush thresholds are derived, so fresh and restored
    /// sessions can never disagree about them.
    fn for_config(config: &EngineConfig, per_round: usize, num_clients: usize) -> Self {
        match config.execution {
            Execution::Synchronous => DriveMode::Sync {
                round_end: 0.0,
                expected: 0,
                open: false,
            },
            Execution::AsyncBuffered {
                buffer_size,
                concurrency,
            } => DriveMode::Async {
                buffer_size: buffer_size.max(1),
                slots: if concurrency == 0 {
                    per_round
                } else {
                    concurrency.clamp(1, num_clients)
                },
            },
        }
    }
}

/// A full snapshot of a [`Session`] mid-run.
///
/// Everything the driver needs to continue bit-exactly is captured: the
/// algorithm's [`AlgorithmState`], the RNG stream, the simulated clock, the
/// in-flight arrival heap (with each arrival's already-computed
/// [`ClientUpdate`]), the aggregation buffer, accumulated telemetry and the
/// report so far. [`Session::restore`] rebuilds a live session from it; a
/// run checkpointed at round *k* and restored produces a
/// [`MetricsReport::digest`] bitwise identical to the uninterrupted run.
///
/// The engine configuration rides along, so restoring needs only the
/// algorithm (any fresh instance of the same method) and the
/// [`FederationContext`] — both of which are reconstructable from an
/// [`ExperimentSpec`]-style description. Its `parallelism` is always
/// [`Parallelism::Sequential`]: the thread count is the session's, not the
/// run's (see [`Session::set_parallelism`]). Schedulers are rebuilt from the
/// configuration; custom stateful [`ClientScheduler`] implementations are
/// not captured.
///
/// [`ExperimentSpec`]: https://docs.rs/pracmhbench-core
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    pub(crate) config: EngineConfig,
    pub(crate) algorithm_name: String,
    pub(crate) algorithm: AlgorithmState,
    pub(crate) rng: RngState,
    pub(crate) report: MetricsReport,
    pub(crate) sim_time: f64,
    pub(crate) version: usize,
    pub(crate) seq: u64,
    pub(crate) started: bool,
    pub(crate) finished: bool,
    /// Population size the run was taken from (the in-flight set is sparse,
    /// so it no longer implies the client count).
    pub(crate) num_clients: usize,
    /// Clients in flight at capture, as a sorted id list — O(active), not
    /// O(population), so million-client checkpoints stay small.
    pub(crate) in_flight: Vec<usize>,
    pub(crate) arrivals: Vec<Arrival>,
    pub(crate) buffer: Vec<Buffered>,
    pub(crate) pending_stats: Vec<ClientRoundStat>,
    pub(crate) idle_advances: usize,
    pub(crate) sync_round_end: f64,
    pub(crate) sync_expected: usize,
    pub(crate) sync_open: bool,
    pub(crate) queue: Vec<RoundEvent>,
}

impl Checkpoint {
    /// The engine configuration of the checkpointed run.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Name of the algorithm that was running.
    pub fn algorithm_name(&self) -> &str {
        &self.algorithm_name
    }

    /// Completed rounds (server aggregations) at capture time.
    pub fn completed_rounds(&self) -> usize {
        self.version
    }

    /// Simulated time at capture.
    pub fn sim_time_secs(&self) -> f64 {
        self.sim_time
    }

    /// Encodes this checkpoint into the durable on-disk byte format (see
    /// [`persist`](crate::persist)).
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::persist::encode_checkpoint(self)
    }

    /// Decodes a checkpoint from bytes previously produced by
    /// [`to_bytes`](Checkpoint::to_bytes) (or read from a checkpoint file).
    ///
    /// # Errors
    /// Returns a typed [`PersistError`](crate::PersistError) on any
    /// corruption: bad magic, unsupported version, checksum or fingerprint
    /// mismatch, truncation, or malformed structure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::PersistError> {
        crate::persist::decode_checkpoint(bytes)
    }

    /// The configuration fingerprint this checkpoint carries in its on-disk
    /// header (FNV-1a over engine config, algorithm name and client count).
    pub fn config_fingerprint(&self) -> u64 {
        crate::persist::config_fingerprint(self)
    }
}

/// An in-progress federated run, driven one [`RoundEvent`] at a time.
///
/// Created by [`FlEngine::session`] (which runs [`FlAlgorithm::setup`]) or
/// [`Session::restore`]. Drive it with [`next_event`](Session::next_event),
/// the [`Iterator`] impl, or [`drain`](Session::drain); attach
/// [`Observer`]s with [`observe`](Session::observe); snapshot it with
/// [`checkpoint`](Session::checkpoint).
pub struct Session<'a> {
    engine: FlEngine,
    algorithm: &'a mut dyn FlAlgorithm,
    ctx: &'a FederationContext,
    scheduler: Box<dyn ClientScheduler>,
    observers: Vec<Box<dyn Observer + 'a>>,
    rng: SeededRng,
    report: MetricsReport,
    stability_sample: Vec<usize>,
    per_round: usize,
    mode: DriveMode,
    sim_time: f64,
    version: usize,
    seq: u64,
    started: bool,
    finished: bool,
    in_flight: ClientSet,
    arrivals: BinaryHeap<Arrival>,
    buffer: Vec<Buffered>,
    pending_stats: Vec<ClientRoundStat>,
    idle_advances: usize,
    queue: VecDeque<RoundEvent>,
    runner: Box<dyn ClientRunner + 'a>,
    corruption: Corruption,
    churn_fraction: f64,
}

impl<'a> Session<'a> {
    pub(crate) fn new(
        engine: FlEngine,
        algorithm: &'a mut dyn FlAlgorithm,
        ctx: &'a FederationContext,
    ) -> FlResult<Self> {
        algorithm.setup(ctx)?;
        let scheduler = engine.config().schedule.build();
        let rng = SeededRng::new(ctx.seed() ^ 0xF00D);
        let report = MetricsReport::new(algorithm.name());
        let stability_sample = engine.stability_sample(ctx);
        let per_round = engine.per_round(ctx);
        let num_clients = ctx.num_clients();
        let mode = DriveMode::for_config(engine.config(), per_round, num_clients);
        Ok(Session {
            engine,
            algorithm,
            ctx,
            scheduler,
            observers: Vec::new(),
            rng,
            report,
            stability_sample,
            per_round,
            mode,
            sim_time: 0.0,
            version: 0,
            seq: 0,
            started: false,
            finished: false,
            in_flight: ClientSet::new(),
            arrivals: BinaryHeap::new(),
            buffer: Vec::new(),
            pending_stats: Vec::new(),
            idle_advances: 0,
            queue: VecDeque::new(),
            runner: Box::new(InProcessRunner),
            corruption: Corruption::None,
            churn_fraction: 0.0,
        })
    }

    /// The engine configuration driving this session.
    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// The metrics accumulated so far (evaluation records up to the latest
    /// completed evaluation point).
    pub fn report(&self) -> &MetricsReport {
        &self.report
    }

    /// Completed server rounds (aggregations).
    pub fn completed_rounds(&self) -> usize {
        self.version
    }

    /// Current simulated time.
    pub fn sim_time_secs(&self) -> f64 {
        self.sim_time
    }

    /// Whether the run has ended (after which
    /// [`next_event`](Session::next_event) only drains already-emitted
    /// events).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Attaches an observer. Observers see every event emitted after
    /// attachment, in attachment order, before the event is yielded to the
    /// caller.
    pub fn observe(&mut self, observer: Box<dyn Observer + 'a>) {
        self.observers.push(observer);
    }

    /// Replaces the executor for the client phase (default:
    /// [`InProcessRunner`]). A runner that honours the selection-order
    /// contract of [`ClientRunner`] leaves every digest unchanged — only
    /// *where* the client updates are computed moves.
    pub fn set_client_runner(&mut self, runner: Box<dyn ClientRunner + 'a>) {
        self.runner = runner;
    }

    /// Replaces the client scheduler (default: the one built from
    /// [`Schedule`](crate::Schedule) in the engine configuration). This is
    /// how schedulers that cannot be described by the `Copy` configuration
    /// enum — e.g. [`TraceReplay`](crate::TraceReplay) over a recorded
    /// availability CSV — are injected. Sessions start lazily, so swapping
    /// before the first [`next_event`](Session::next_event) call affects the
    /// whole run; like a custom runner, the scheduler is **not** captured by
    /// checkpoints and must be re-injected after a restore.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn ClientScheduler>) {
        self.scheduler = scheduler;
    }

    /// Sets how many threads run the client phase (default: the engine
    /// configuration's [`parallelism`](EngineConfig::parallelism)). Like a
    /// custom runner, it changes where updates are computed, never what
    /// they are, so it is not part of a checkpoint: set it again after a
    /// restore, under any thread count.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.engine = FlEngine::new(EngineConfig {
            parallelism,
            ..*self.engine.config()
        });
    }

    /// Sets the byzantine-corruption policy applied to arriving updates
    /// (default: [`Corruption::None`], observably inert). Corruption happens
    /// at the arrival boundary — after staleness accounting decides the
    /// update's fate, before it enters the aggregation buffer — so it is
    /// identical under every [`ClientRunner`] and across checkpoint/restore
    /// (re-inject after a restore, like a custom runner —
    /// `ExperimentSpec::resume_from` in `pracmhbench-core` does).
    pub fn set_corruption(&mut self, corruption: Corruption) {
        self.corruption = corruption;
    }

    /// Sets the mid-round dropout probability (default `0.0`, observably
    /// inert). Each dispatched update is independently lost with this
    /// probability — the client trains, but its upload never reaches the
    /// server: a [`RoundEvent::ClientChurned`] is emitted at the would-be
    /// arrival time, the freed slot is refilled in asynchronous mode, and a
    /// synchronous round's flush threshold shrinks by one so the round still
    /// closes. The draw is a pure function of `(seed, dispatch sequence)`,
    /// so runs are deterministic and checkpoint/restore-stable (re-inject
    /// after a restore, as `ExperimentSpec::resume_from` does).
    pub fn set_churn(&mut self, fraction: f64) {
        self.churn_fraction = fraction.clamp(0.0, 1.0);
    }

    /// Advances the simulation until the next event is available and returns
    /// it; `Ok(None)` once the run has completed and every event has been
    /// consumed ([`RoundEvent::RunCompleted`] is always the last `Some`).
    ///
    /// # Errors
    /// Propagates algorithm failures; the session is finished afterwards.
    /// A [`FlError::Persist`] from a failed observer-requested auto-save is
    /// the exception: it leaves the session **live** (the failed request is
    /// consumed, in-memory state untouched), so a caller protecting a long
    /// run may log it and keep calling `next_event` instead of losing the
    /// run to a transient disk error.
    pub fn next_event(&mut self) -> FlResult<Option<RoundEvent>> {
        loop {
            self.process_save_requests()?;
            if let Some(event) = self.queue.pop_front() {
                return Ok(Some(event));
            }
            if self.finished {
                return Ok(None);
            }
            if self.stop_requested() {
                self.finalize();
                continue;
            }
            if let Err(error) = self.advance() {
                self.finished = true;
                return Err(error);
            }
        }
    }

    /// Grants any pending [`Observer::save_request`]s by writing a durable
    /// checkpoint of the current state. Runs at event boundaries only, so
    /// the saved state is exactly what [`checkpoint`](Session::checkpoint)
    /// would capture there (still-queued events included — a resumed run
    /// replays them first).
    ///
    /// A failed save propagates its error but does **not** finish the
    /// session: the request was consumed, no simulation state changed, and
    /// the next `next_event` call continues the run.
    fn process_save_requests(&mut self) -> FlResult<()> {
        let mut paths = Vec::new();
        for observer in &mut self.observers {
            if let Some(path) = observer.save_request() {
                paths.push(path);
            }
        }
        if paths.is_empty() {
            return Ok(());
        }
        let checkpoint = self.checkpoint()?;
        for path in paths {
            crate::persist::write_checkpoint(&path, &checkpoint)?;
        }
        Ok(())
    }

    /// Ends the run at the current point: emits
    /// [`RoundEvent::RunCompleted`] with the report collected so far.
    /// In-flight updates are discarded, exactly as when the configured round
    /// budget runs out mid-flight.
    pub fn stop(&mut self) {
        self.finalize();
    }

    /// Runs the session to completion and returns the final report —
    /// [`FlEngine::run`] is exactly `session(..)?.drain()`.
    ///
    /// # Errors
    /// Propagates algorithm failures.
    pub fn drain(mut self) -> FlResult<MetricsReport> {
        while self.next_event()?.is_some() {}
        Ok(self.report)
    }

    /// Snapshots the full run state. See [`Checkpoint`].
    ///
    /// # Errors
    /// Propagates [`FlAlgorithm::snapshot`] failures.
    pub fn checkpoint(&self) -> FlResult<Checkpoint> {
        let (sync_round_end, sync_expected, sync_open) = match self.mode {
            DriveMode::Sync {
                round_end,
                expected,
                open,
            } => (round_end, expected, open),
            DriveMode::Async { .. } => (0.0, 0, false),
        };
        // The heap iterates in arbitrary order; store arrivals canonically
        // (pop order) so equal sessions produce equal checkpoints.
        let mut arrivals: Vec<Arrival> = self.arrivals.iter().cloned().collect();
        arrivals.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)));
        Ok(Checkpoint {
            config: EngineConfig {
                parallelism: Parallelism::Sequential,
                ..*self.engine.config()
            },
            algorithm_name: self.algorithm.name(),
            algorithm: self.algorithm.snapshot()?,
            rng: self.rng.snapshot(),
            report: self.report.clone(),
            sim_time: self.sim_time,
            version: self.version,
            seq: self.seq,
            started: self.started,
            finished: self.finished,
            num_clients: self.ctx.num_clients(),
            in_flight: self.in_flight.as_slice().to_vec(),
            arrivals,
            buffer: self.buffer.clone(),
            pending_stats: self.pending_stats.clone(),
            idle_advances: self.idle_advances,
            sync_round_end,
            sync_expected,
            sync_open,
            queue: self.queue.iter().cloned().collect(),
        })
    }

    /// Rebuilds a live session from a [`Checkpoint`].
    ///
    /// `algorithm` must be a fresh (or at least same-method) instance of the
    /// checkpointed algorithm — its state is overwritten via
    /// [`FlAlgorithm::restore`] — and `ctx` must be the same federation the
    /// checkpoint was taken from (same seed, data and assignments; the
    /// client count is validated, the rest is the caller's contract).
    /// Observers are not part of a checkpoint; re-attach them with
    /// [`observe`](Session::observe).
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] on an algorithm-name or
    /// client-count mismatch; propagates [`FlAlgorithm::restore`] failures.
    pub fn restore(
        algorithm: &'a mut dyn FlAlgorithm,
        ctx: &'a FederationContext,
        checkpoint: &Checkpoint,
    ) -> FlResult<Self> {
        if algorithm.name() != checkpoint.algorithm_name {
            return Err(FlError::InvalidConfig(format!(
                "checkpoint was taken from algorithm {:?}, not {:?}",
                checkpoint.algorithm_name,
                algorithm.name()
            )));
        }
        if ctx.num_clients() != checkpoint.num_clients {
            return Err(FlError::InvalidConfig(format!(
                "checkpoint covers {} clients but the context has {}",
                checkpoint.num_clients,
                ctx.num_clients()
            )));
        }
        let engine = FlEngine::new(checkpoint.config);
        algorithm.restore(checkpoint.algorithm.clone(), ctx)?;
        let mut mode =
            DriveMode::for_config(engine.config(), engine.per_round(ctx), ctx.num_clients());
        if let DriveMode::Sync {
            round_end,
            expected,
            open,
        } = &mut mode
        {
            *round_end = checkpoint.sync_round_end;
            *expected = checkpoint.sync_expected;
            *open = checkpoint.sync_open;
        }
        Ok(Session {
            engine,
            scheduler: engine.config().schedule.build(),
            observers: Vec::new(),
            rng: SeededRng::from_snapshot(checkpoint.rng),
            report: checkpoint.report.clone(),
            stability_sample: engine.stability_sample(ctx),
            per_round: engine.per_round(ctx),
            mode,
            sim_time: checkpoint.sim_time,
            version: checkpoint.version,
            seq: checkpoint.seq,
            started: checkpoint.started,
            finished: checkpoint.finished,
            in_flight: ClientSet::from_ids(checkpoint.in_flight.clone()),
            arrivals: checkpoint.arrivals.iter().cloned().collect(),
            buffer: checkpoint.buffer.clone(),
            pending_stats: checkpoint.pending_stats.clone(),
            idle_advances: checkpoint.idle_advances,
            queue: checkpoint.queue.iter().cloned().collect(),
            runner: Box::new(InProcessRunner),
            // Scenario knobs are not part of the checkpoint codec (the
            // committed format fixtures must keep decoding); re-inject them
            // after a restore, like a custom runner or scheduler.
            corruption: Corruption::None,
            churn_fraction: 0.0,
            algorithm,
            ctx,
        })
    }

    /// Saves a durable checkpoint of the current state to `path`:
    /// [`checkpoint`](Session::checkpoint) encoded with the versioned,
    /// checksummed [`persist`](crate::persist) codec and written atomically
    /// (tmp file, then rename). A session restored from the file —
    /// [`read_checkpoint`](crate::persist::read_checkpoint) then
    /// [`restore`](Session::restore), as `ExperimentSpec::resume_from` does —
    /// continues bit-exactly.
    ///
    /// # Errors
    /// Propagates [`FlAlgorithm::snapshot`] failures and persist-layer I/O
    /// errors ([`FlError::Persist`](crate::FlError)).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> FlResult<()> {
        let checkpoint = self.checkpoint()?;
        crate::persist::write_checkpoint(path, &checkpoint)?;
        Ok(())
    }

    /// Notifies observers and queues the event for the caller.
    fn emit(&mut self, event: RoundEvent) {
        for observer in &mut self.observers {
            observer.on_event(&event);
        }
        self.queue.push_back(event);
    }

    fn finalize(&mut self) {
        if !self.finished {
            self.finished = true;
            let report = self.report.clone();
            self.emit(RoundEvent::RunCompleted { report });
        }
    }

    /// Advances the simulation by one quantum, emitting at least one event
    /// unless the run just finished.
    fn advance(&mut self) -> FlResult<()> {
        if self.version >= self.engine.config().rounds {
            self.finalize();
            return Ok(());
        }
        if !self.started {
            self.started = true;
            if let DriveMode::Async { .. } = self.mode {
                // The asynchronous run begins by filling every slot.
                self.emit(RoundEvent::RoundStarted {
                    round: 1,
                    sim_time_secs: self.sim_time,
                });
                self.dispatch_async_slots()?;
                return Ok(());
            }
        }
        if let DriveMode::Sync { open: false, .. } = self.mode {
            return self.open_sync_round();
        }
        match self.arrivals.pop() {
            Some(arrival) => {
                self.idle_advances = 0;
                self.process_arrival(arrival)
            }
            None => self.handle_idle(),
        }
    }

    /// Synchronous round start: plan, fan out the client phase, and put
    /// every update in flight.
    fn open_sync_round(&mut self) -> FlResult<()> {
        let round = self.version + 1;
        let plan = self.scheduler.plan_round(
            round,
            self.per_round,
            self.sim_time,
            self.ctx,
            &mut self.rng,
        );
        self.emit(RoundEvent::RoundStarted {
            round,
            sim_time_secs: self.sim_time,
        });
        let updates = self.runner.run_clients(
            &*self.algorithm,
            round,
            &plan.clients,
            self.ctx,
            self.engine.config().parallelism,
        )?;
        let expected = updates.len();
        self.mode = DriveMode::Sync {
            round_end: self.sim_time + plan.round_secs,
            expected,
            open: true,
        };
        for update in updates {
            let cost = self.ctx.assignment(update.client).cost;
            self.emit(RoundEvent::ClientDispatched {
                round,
                client: update.client,
                sim_time_secs: self.sim_time,
            });
            self.in_flight.insert(update.client);
            self.arrivals.push(Arrival {
                time: self.sim_time + cost.total_secs(),
                seq: self.seq,
                dispatched_at: self.sim_time,
                dispatched_version: self.version,
                update,
            });
            self.seq += 1;
        }
        if expected == 0 {
            // The scheduler selected nobody (e.g. nobody was reachable):
            // the round aggregates empty and the clock still advances.
            return self.flush_round();
        }
        Ok(())
    }

    /// Asynchronous slot refill, mirroring the scheduler's incremental
    /// pick/availability hooks. Returns the number of clients launched.
    fn dispatch_async_slots(&mut self) -> FlResult<usize> {
        let DriveMode::Async { slots, .. } = self.mode else {
            return Ok(0);
        };
        let num_clients = self.ctx.num_clients();
        let mut picked = Vec::new();
        while self.in_flight.len() < slots {
            // The free set is exposed as a view over the (small) busy set —
            // no per-refill scan or allocation proportional to the
            // population. Availability gating happens inside the
            // scheduler's pick.
            let pool = FreePool {
                num_clients,
                busy: &self.in_flight,
            };
            let Some(client) =
                self.scheduler
                    .pick_next(self.sim_time, &pool, self.ctx, &mut self.rng)
            else {
                break;
            };
            self.in_flight.insert(client);
            picked.push(client);
        }
        if picked.is_empty() {
            return Ok(0);
        }
        // Clients dispatched at version `v` train on the state produced by
        // the v-th aggregation, i.e. they run "round" v + 1.
        let updates = self.runner.run_clients(
            &*self.algorithm,
            self.version + 1,
            &picked,
            self.ctx,
            self.engine.config().parallelism,
        )?;
        let launched = updates.len();
        for update in updates {
            let cost = self.ctx.assignment(update.client).cost;
            self.emit(RoundEvent::ClientDispatched {
                round: self.version + 1,
                client: update.client,
                sim_time_secs: self.sim_time,
            });
            self.arrivals.push(Arrival {
                time: self.sim_time + cost.total_secs(),
                seq: self.seq,
                dispatched_at: self.sim_time,
                dispatched_version: self.version,
                update,
            });
            self.seq += 1;
        }
        Ok(launched)
    }

    /// One update reached the server: free its slot, apply the staleness
    /// policy, buffer it, and flush/refill as the mode dictates.
    fn process_arrival(&mut self, arrival: Arrival) -> FlResult<()> {
        let client = arrival.update.client;
        self.in_flight.remove(client);
        let staleness = self.version - arrival.dispatched_version;
        let is_async = matches!(self.mode, DriveMode::Async { .. });
        if is_async {
            // The asynchronous clock is event-driven; the synchronous clock
            // only advances when the round closes.
            self.sim_time = arrival.time;
        }
        let round = self.version + 1;

        // Mid-round churn: the client trained, but its upload is lost. The
        // server notices at the would-be arrival time. The draw keys on the
        // dispatch sequence number, so it is independent of every honest
        // stream and identical across runners and restores.
        if self.churn_fraction > 0.0
            && SeededRng::new(self.ctx.seed() ^ CHURN_SALT)
                .derive(arrival.seq)
                .bernoulli(self.churn_fraction)
        {
            self.emit(RoundEvent::ClientChurned {
                round,
                client,
                sim_time_secs: arrival.time,
            });
            if let DriveMode::Sync { expected, .. } = &mut self.mode {
                // One fewer update will ever land; shrink the flush
                // threshold so the round still closes (possibly empty, like
                // a round whose every candidate was skipped).
                *expected = expected.saturating_sub(1);
                let expected = *expected;
                if self.buffer.len() >= expected {
                    self.flush_round()?;
                }
            }
            return self.refill_after_arrival();
        }

        // Per-update staleness bound (asynchronous executions only:
        // synchronous updates always have staleness zero).
        let dropped = self
            .engine
            .config()
            .max_staleness
            .is_some_and(|bound| staleness > bound);
        if dropped {
            self.report.note_dropped_update();
            self.emit(RoundEvent::UpdateDropped {
                round,
                client,
                sim_time_secs: arrival.time,
                staleness,
            });
            return self.refill_after_arrival();
        }

        let mut update = arrival.update;
        if is_async {
            update.staleness_weight = self.engine.config().staleness.weight(staleness);
        }
        // Byzantine corruption strikes in transit.
        self.corruption.apply(&mut update, self.ctx.seed());
        let stat = ClientRoundStat {
            client,
            // Patched to the actual aggregation round when the buffer
            // flushes.
            round,
            dispatch_secs: arrival.dispatched_at,
            arrival_secs: arrival.time,
            staleness,
            payload_bytes: update.payload.payload_bytes(),
        };
        self.emit(RoundEvent::UpdateArrived {
            round,
            client,
            sim_time_secs: arrival.time,
            staleness,
        });
        self.buffer.push(Buffered {
            seq: arrival.seq,
            update,
            stat,
        });

        let threshold = match self.mode {
            DriveMode::Sync { expected, .. } => expected,
            DriveMode::Async { buffer_size, .. } => buffer_size,
        };
        if self.buffer.len() >= threshold {
            self.flush_round()?;
        }
        self.refill_after_arrival()
    }

    /// Whether any observer has asked for the run to end.
    fn stop_requested(&self) -> bool {
        self.observers.iter().any(|o| o.should_stop())
    }

    /// Asynchronous executions refill freed slots after every arrival (as
    /// long as rounds remain); synchronous rounds only dispatch at round
    /// start. An observer-requested stop suppresses the refill: the run is
    /// over either way, so don't pay for training replacement clients whose
    /// updates would be discarded.
    fn refill_after_arrival(&mut self) -> FlResult<()> {
        if matches!(self.mode, DriveMode::Async { .. })
            && self.version < self.engine.config().rounds
            && !self.stop_requested()
        {
            self.dispatch_async_slots()?;
        }
        Ok(())
    }

    /// Aggregates the buffered updates as round `version + 1`, evaluates on
    /// the configured cadence, and closes the round.
    fn flush_round(&mut self) -> FlResult<()> {
        self.version += 1;
        let round = self.version;
        if matches!(self.mode, DriveMode::Sync { .. }) {
            // Synchronous aggregation order is selection order, not arrival
            // order; the dispatch sequence number preserves it.
            self.buffer.sort_by_key(|b| b.seq);
        }
        let mut updates = Vec::with_capacity(self.buffer.len());
        for mut item in std::mem::take(&mut self.buffer) {
            item.stat.round = round;
            self.pending_stats.push(item.stat);
            updates.push(item.update);
        }
        let num_updates = updates.len();
        self.algorithm.aggregate(round, updates, self.ctx)?;
        if let DriveMode::Sync { round_end, .. } = self.mode {
            self.sim_time = round_end;
            self.mode = DriveMode::Sync {
                round_end,
                expected: 0,
                open: false,
            };
        }
        self.emit(RoundEvent::Aggregated {
            round,
            sim_time_secs: self.sim_time,
            num_updates,
        });
        let record = if self.engine.is_eval_round(round) {
            Some(self.evaluate(round)?)
        } else {
            None
        };
        self.emit(RoundEvent::RoundCompleted {
            round,
            sim_time_secs: self.sim_time,
            record,
        });
        if self.version >= self.engine.config().rounds {
            self.finalize();
        } else if matches!(self.mode, DriveMode::Async { .. }) && !self.stop_requested() {
            self.emit(RoundEvent::RoundStarted {
                round: round + 1,
                sim_time_secs: self.sim_time,
            });
        }
        Ok(())
    }

    /// Evaluates the global model and the stability sample, appending a
    /// [`RoundRecord`] carrying the telemetry accumulated since the previous
    /// evaluation point.
    fn evaluate(&mut self, round: usize) -> FlResult<RoundRecord> {
        let (global_accuracy, per_client_accuracy) = self.algorithm.evaluate_point(
            &self.stability_sample,
            self.ctx.test_set(),
            self.engine.config().parallelism,
        )?;
        let record = RoundRecord {
            round,
            sim_time_secs: self.sim_time,
            global_accuracy,
            per_client_accuracy,
            client_stats: std::mem::take(&mut self.pending_stats),
        };
        self.report.push(record.clone());
        Ok(record)
    }

    /// Nothing in flight and nothing arriving (asynchronous executions with
    /// an availability-gated scheduler): advance the clock to the next point
    /// where availability can change and retry.
    fn handle_idle(&mut self) -> FlResult<()> {
        self.sim_time = next_sim_time(self.sim_time, self.scheduler.idle_wait_secs());
        self.idle_advances += 1;
        let launched = self.dispatch_async_slots()?;
        if launched > 0 {
            self.idle_advances = 0;
        } else if self.idle_advances >= MAX_IDLE_ADVANCES {
            // Every client has been offline for the entire horizon; return
            // what we have instead of spinning forever.
            self.finalize();
        }
        Ok(())
    }
}

/// Advances `now` by `step`, guaranteeing strict progress: when `step` is so
/// small that `now + step` rounds back to `now` (e.g. a zero idle wait once
/// `now >= 2.0`, where an absolute `f64::EPSILON` nudge is below the ULP),
/// steps to the next representable float instead of freezing the clock.
fn next_sim_time(now: f64, step: f64) -> f64 {
    let advanced = now + step;
    if advanced > now {
        advanced
    } else {
        f64::from_bits(now.to_bits() + 1)
    }
}

impl Iterator for Session<'_> {
    type Item = FlResult<RoundEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("algorithm", &self.report.algorithm)
            .field("completed_rounds", &self.version)
            .field("sim_time_secs", &self.sim_time)
            .field("in_flight", &self.in_flight.len())
            .field("finished", &self.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientPayload;

    #[test]
    fn arrivals_pop_earliest_first_with_seq_tie_break() {
        let mk = |time: f64, seq: u64| Arrival {
            time,
            seq,
            dispatched_at: 0.0,
            dispatched_version: 0,
            update: ClientUpdate::new(0, 1, ClientPayload::Empty),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(5.0, 2));
        heap.push(mk(1.0, 1));
        heap.push(mk(1.0, 0));
        heap.push(mk(3.0, 3));
        let order: Vec<(f64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|a| (a.time, a.seq))
            .collect();
        assert_eq!(order, vec![(1.0, 0), (1.0, 1), (3.0, 3), (5.0, 2)]);
    }

    #[test]
    fn free_pool_indexes_kth_free_in_busy_time() {
        let busy: ClientSet = [1usize, 2, 5].into_iter().collect();
        let pool = FreePool {
            num_clients: 8,
            busy: &busy,
        };
        // Free ids: 0, 3, 4, 6, 7.
        assert_eq!(pool.len(), 5);
        assert!(!pool.is_empty());
        let by_nth: Vec<usize> = (0..pool.len()).map(|k| pool.nth(k)).collect();
        assert_eq!(by_nth, vec![0, 3, 4, 6, 7]);
        assert_eq!(pool.iter().collect::<Vec<_>>(), by_nth);
        assert!(pool.contains(0) && pool.contains(7));
        assert!(!pool.contains(5), "busy client is not a candidate");
        assert!(!pool.contains(8), "out of population");
        // A sparse busy set over a huge population: nth never scans the
        // population, only the busy ids.
        let busy: ClientSet = (0..64).map(|i| i * 1000).collect();
        let pool = FreePool {
            num_clients: 1_000_000_000,
            busy: &busy,
        };
        assert_eq!(pool.len(), 1_000_000_000 - 64);
        assert_eq!(pool.nth(0), 1);
        assert_eq!(pool.nth(998), 999);
        assert_eq!(pool.nth(999), 1001);
        assert_eq!(pool.nth(pool.len() - 1), 999_999_999);
    }

    #[test]
    fn next_sim_time_always_makes_progress() {
        // Normal case: an ordinary step just adds.
        assert_eq!(next_sim_time(10.0, 1.5), 11.5);
        // Regression: a zero idle wait at a large sim_time used to add an
        // *absolute* f64::EPSILON, which rounds away once now >= 2.0 and
        // froze the clock for MAX_IDLE_ADVANCES iterations.
        let large = 2f64.powi(40);
        assert_eq!(
            large + f64::EPSILON,
            large,
            "precondition: old nudge is lost"
        );
        let nudged = next_sim_time(large, 0.0);
        assert!(nudged > large, "clock must advance even with a zero step");
        assert_eq!(nudged, f64::from_bits(large.to_bits() + 1));
        // A step below the ULP of `now` is equivalent to zero.
        let tiny = next_sim_time(large, 1e-12);
        assert!(tiny > large);
        // Monotone: repeated idle advances strictly increase time.
        let mut t = 2.0;
        for _ in 0..1000 {
            let next = next_sim_time(t, 0.0);
            assert!(next > t);
            t = next;
        }
    }

    #[test]
    fn event_kinds_are_distinct_labels() {
        let kinds = [
            RoundEvent::RoundStarted {
                round: 1,
                sim_time_secs: 0.0,
            }
            .kind(),
            RoundEvent::ClientDispatched {
                round: 1,
                client: 0,
                sim_time_secs: 0.0,
            }
            .kind(),
            RoundEvent::UpdateArrived {
                round: 1,
                client: 0,
                sim_time_secs: 0.0,
                staleness: 0,
            }
            .kind(),
            RoundEvent::UpdateDropped {
                round: 1,
                client: 0,
                sim_time_secs: 0.0,
                staleness: 3,
            }
            .kind(),
            RoundEvent::ClientChurned {
                round: 1,
                client: 0,
                sim_time_secs: 0.0,
            }
            .kind(),
            RoundEvent::Aggregated {
                round: 1,
                sim_time_secs: 0.0,
                num_updates: 2,
            }
            .kind(),
            RoundEvent::RoundCompleted {
                round: 1,
                sim_time_secs: 0.0,
                record: None,
            }
            .kind(),
            RoundEvent::RunCompleted {
                report: MetricsReport::new("X"),
            }
            .kind(),
        ];
        let mut unique: Vec<&str> = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }
}
