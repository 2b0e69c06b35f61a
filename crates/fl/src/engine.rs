//! The federated round loop.

use mhfl_data::Dataset;
use mhfl_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::{
    AlgorithmState, ClientUpdate, FederationContext, FlResult, MetricsReport, Parallelism,
    Schedule, Session, Staleness,
};

/// A federated learning algorithm as seen by the engine, split into an
/// embarrassingly-parallel *client phase* and a sequential *server phase*.
///
/// The engine owns *when* things happen (scheduling, rounds, clock,
/// metrics); the algorithm owns *what* happens on each side of the
/// client/server boundary:
///
/// * [`client_update`](Self::client_update) — local training of one selected
///   client. It takes `&self`, so the engine may fan it out across threads;
///   all randomness must derive from `(ctx.seed(), round, client)` so the
///   result is independent of execution order.
/// * [`aggregate`](Self::aggregate) — the server phase, receiving every
///   client's [`ClientUpdate`] **in selection order** and folding them into
///   the algorithm's global state.
///
/// One instance is used for one experiment.
pub trait FlAlgorithm: Send + Sync {
    /// Human-readable algorithm name (used in reports and figures).
    fn name(&self) -> String;

    /// Called once before the first round.
    ///
    /// # Errors
    /// Returns an error if the algorithm cannot be initialised for this context.
    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()>;

    /// Client phase: trains `client` locally for round `round` and returns
    /// its upload. Must not depend on any other client of the same round.
    ///
    /// # Errors
    /// Returns an error if local training fails.
    fn client_update(
        &self,
        round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate>;

    /// Server phase: folds the round's client updates (in selection order)
    /// into the global state. `updates` may be empty when the scheduler
    /// skipped every candidate (e.g. a missed deadline).
    ///
    /// # Errors
    /// Returns an error if aggregation fails.
    fn aggregate(
        &mut self,
        round: usize,
        updates: Vec<ClientUpdate>,
        ctx: &FederationContext,
    ) -> FlResult<()>;

    /// Accuracy of the current global model on `data`
    /// (the paper's *global accuracy* metric).
    ///
    /// # Errors
    /// Returns an error if evaluation fails.
    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32>;

    /// Accuracy of the model client `client` would deploy, on `data`
    /// (the per-device accuracies behind the *stability* metric).
    ///
    /// # Errors
    /// Returns an error if evaluation fails or the client is unknown.
    fn evaluate_client(&mut self, client: usize, data: &Dataset) -> FlResult<f32>;

    /// One whole evaluation point: the global accuracy and the accuracy of
    /// the model each client in `clients` would deploy, in `clients` order.
    ///
    /// The default calls [`evaluate_global`](Self::evaluate_global), then
    /// [`evaluate_client`](Self::evaluate_client) for each client in turn,
    /// and ignores `parallelism`. Algorithms override it to evaluate every
    /// distinct realised model once, split across the pool by test-set slice
    /// with [`evaluate_models`](crate::train::evaluate_models); an override
    /// must return exactly the bits the default would.
    ///
    /// # Errors
    /// Returns the first error the serial loop would have hit.
    fn evaluate_point(
        &mut self,
        clients: &[usize],
        data: &Dataset,
        parallelism: Parallelism,
    ) -> FlResult<(f32, Vec<f32>)> {
        let _ = parallelism;
        let global = self.evaluate_global(data)?;
        let per_client = clients
            .iter()
            .map(|&client| self.evaluate_client(client, data))
            .collect::<FlResult<_>>()?;
        Ok((global, per_client))
    }

    /// Captures the algorithm's full mutable state for a run
    /// [`Checkpoint`](crate::Checkpoint). Everything
    /// [`aggregate`](Self::aggregate) has ever written must be
    /// representable in the returned [`AlgorithmState`];
    /// state that is a pure function of the [`FederationContext`] (plan
    /// caches, configurations, derived streams) should be left out and
    /// rebuilt by [`restore`](Self::restore).
    ///
    /// The default is an empty snapshot, which is exactly right for
    /// stateless algorithms (e.g. engine-test doubles); stateful algorithms
    /// must override both this and [`restore`](Self::restore) for
    /// checkpointed runs to resume bit-exactly.
    ///
    /// Per-client state goes in the
    /// [`client_state_key`](AlgorithmState::client_state_key) slots, and
    /// [`client_update`](Self::client_update)`(round, c)` may read only the
    /// shared slots and `client.c`: a distributed runner ships each worker
    /// the snapshot [`restricted_to`](AlgorithmState::restricted_to) its
    /// shard.
    ///
    /// # Errors
    /// Returns an error if the state cannot be captured.
    fn snapshot(&self) -> FlResult<AlgorithmState> {
        Ok(AlgorithmState::new())
    }

    /// Restores the algorithm to a state previously captured by
    /// [`snapshot`](Self::snapshot), on the same federation context.
    ///
    /// The default re-runs [`setup`](Self::setup), which is sufficient
    /// whenever the snapshot is empty (stateless algorithms).
    ///
    /// # Errors
    /// Returns an error if the snapshot does not match this algorithm.
    fn restore(&mut self, state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        let _ = state;
        self.setup(ctx)
    }

    /// Selects the robust-aggregation mode for the server phase (see
    /// [`RobustAggregation`](crate::RobustAggregation)). The default ignores
    /// the request — algorithms that support hardening override this and
    /// honour the mode in [`aggregate`](Self::aggregate). Call before the
    /// run starts (and again after a checkpoint restore: the mode is a
    /// scenario knob, not part of the persisted state).
    fn set_robust_aggregation(&mut self, robust: crate::RobustAggregation) {
        let _ = robust;
    }
}

/// How the engine advances rounds on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Execution {
    /// Classic synchronous rounds: every selected client is dispatched at
    /// the round start and the clock advances by the scheduler-reported
    /// round duration (stragglers dominate).
    #[default]
    Synchronous,
    /// FedBuff-style asynchronous buffered aggregation: the engine keeps a
    /// fixed number of clients in flight, each update lands at
    /// `dispatch_time + cost.total_secs()` on an event-driven clock, and the
    /// server aggregates whenever `buffer_size` updates have accumulated —
    /// weighting each by `1/sqrt(1 + staleness)`. Freed slots are refilled
    /// immediately via the scheduler's
    /// [`pick_next`](crate::ClientScheduler::pick_next).
    AsyncBuffered {
        /// Number of buffered updates that triggers a server aggregation
        /// (clamped to at least 1). One aggregation counts as one "round"
        /// against [`EngineConfig::rounds`].
        buffer_size: usize,
        /// Number of clients kept in flight; `0` means the same count a
        /// synchronous round would select (`sample_ratio × num_clients`).
        concurrency: usize,
    },
}

impl Execution {
    /// Asynchronous buffered execution with the given buffer size and the
    /// default concurrency (the synchronous per-round client count).
    pub fn async_buffered(buffer_size: usize) -> Self {
        Execution::AsyncBuffered {
            buffer_size,
            concurrency: 0,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of federated rounds.
    pub rounds: usize,
    /// Fraction of clients sampled per round (the paper uses 10 %).
    pub sample_ratio: f64,
    /// Evaluate the global model every `eval_every` rounds (and always at the
    /// final round).
    pub eval_every: usize,
    /// How many clients to evaluate for the stability metric (evaluating all
    /// 500 Stack Overflow clients every round would dominate run time).
    pub stability_clients: usize,
    /// Client-selection policy (a custom one is installed with
    /// [`Session::set_scheduler`](crate::Session::set_scheduler)).
    pub schedule: Schedule,
    /// Thread-level execution mode of the client phase: the initial value
    /// of [`Session::set_parallelism`](crate::Session::set_parallelism). It
    /// changes no result and is never part of a checkpoint, which records
    /// [`Parallelism::Sequential`] here.
    pub parallelism: Parallelism,
    /// Round-advancement mode: synchronous rounds or asynchronous buffered
    /// aggregation.
    pub execution: Execution,
    /// Staleness-discount curve applied by the asynchronous buffered engine
    /// (ignored by synchronous execution, whose updates are never stale).
    pub staleness: Staleness,
    /// Per-update staleness bound for the asynchronous buffered engine:
    /// an update that watched more than this many server aggregations
    /// complete while in flight is discarded before aggregation (counted by
    /// [`MetricsReport::dropped_updates`]) instead of being discounted.
    /// `None` (the default) keeps every update. Synchronous rounds are
    /// unaffected — their updates always have staleness zero.
    pub max_staleness: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            rounds: 20,
            sample_ratio: 0.1,
            eval_every: 5,
            stability_clients: 16,
            schedule: Schedule::Uniform,
            parallelism: Parallelism::Sequential,
            execution: Execution::Synchronous,
            staleness: Staleness::Sqrt,
            max_staleness: None,
        }
    }
}

/// Drives a federated experiment: schedules clients, fans out the client
/// phase, invokes server aggregation, advances the simulated clock and
/// records metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FlEngine {
    config: EngineConfig,
}

impl FlEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        FlEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The number of clients a synchronous round selects (and the default
    /// in-flight count of the asynchronous engine).
    pub(crate) fn per_round(&self, ctx: &FederationContext) -> usize {
        let num_clients = ctx.num_clients();
        ((num_clients as f64 * self.config.sample_ratio).round() as usize).clamp(1, num_clients)
    }

    /// The fixed, seeded client sample the stability metric is evaluated on
    /// (not clients `0..k`, which would bias the metric toward low-index
    /// clients under index-correlated device assignments).
    pub(crate) fn stability_sample(&self, ctx: &FederationContext) -> Vec<usize> {
        let num_clients = ctx.num_clients();
        let eval_clients = self.config.stability_clients.min(num_clients).max(1);
        let mut rng = SeededRng::new(ctx.seed() ^ 0x57AB);
        // Dense populations keep the full-shuffle draw the golden digests
        // are pinned against; sparse ones (a handful of evaluation clients
        // out of a million) use Floyd's O(eval_clients) sampler.
        if eval_clients.saturating_mul(64) >= num_clients {
            rng.choose_indices(num_clients, eval_clients)
        } else {
            rng.sample_indices(num_clients, eval_clients)
        }
    }

    /// Whether `round` is an evaluation point.
    pub(crate) fn is_eval_round(&self, round: usize) -> bool {
        round.is_multiple_of(self.config.eval_every.max(1)) || round == self.config.rounds
    }

    /// Opens a streaming [`Session`] for the experiment: runs
    /// [`FlAlgorithm::setup`] and returns a driver that advances the
    /// simulation one [`RoundEvent`](crate::RoundEvent) at a time. This is
    /// the primary entry point; [`run`](FlEngine::run) is a convenience
    /// wrapper that drains the session in one call.
    ///
    /// # Errors
    /// Propagates [`FlAlgorithm::setup`] failures.
    pub fn session<'a>(
        &self,
        algorithm: &'a mut dyn FlAlgorithm,
        ctx: &'a FederationContext,
    ) -> FlResult<Session<'a>> {
        Session::new(*self, algorithm, ctx)
    }

    /// Runs the full experiment to completion, returning the metric report.
    /// A thin wrapper over [`session`](FlEngine::session) +
    /// [`Session::drain`]; use the session API directly for streaming
    /// events, observers, early stopping, or checkpoint/resume.
    ///
    /// With [`Execution::Synchronous`] each round advances the simulated
    /// wall clock by the duration the scheduler reports — for the default
    /// uniform policy the maximum of the selected clients' per-round
    /// compute-plus-communication times (stragglers dominate) — which makes the
    /// time-to-accuracy metric sensitive to the device constraint in the
    /// same way the paper's measurements are. With
    /// [`Execution::AsyncBuffered`] the clock is event-driven: updates land
    /// as they finish and the server aggregates whenever the buffer fills
    /// (see [`Execution`]).
    ///
    /// The report is a pure function of `(algorithm, ctx, config minus
    /// parallelism)`: running with [`Parallelism::Threads`] produces a
    /// bit-identical report to a sequential run with the same seed, in both
    /// execution modes.
    ///
    /// # Errors
    /// Propagates algorithm failures.
    pub fn run(
        &self,
        algorithm: &mut dyn FlAlgorithm,
        ctx: &FederationContext,
    ) -> FlResult<MetricsReport> {
        self.session(algorithm, ctx)?.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::test_context;
    use crate::ClientPayload;
    use mhfl_device::ConstraintCase;

    /// A trivial algorithm that records the engine's phase calls and returns
    /// a rising accuracy so the bookkeeping can be verified in isolation.
    #[derive(Default)]
    struct CountingAlgorithm {
        rounds_aggregated: usize,
        clients_seen: Vec<usize>,
        sample_weights: Vec<usize>,
    }

    impl FlAlgorithm for CountingAlgorithm {
        fn name(&self) -> String {
            "Counting".into()
        }
        fn setup(&mut self, _ctx: &FederationContext) -> FlResult<()> {
            Ok(())
        }
        fn client_update(
            &self,
            _round: usize,
            client: usize,
            ctx: &FederationContext,
        ) -> FlResult<ClientUpdate> {
            Ok(ClientUpdate::new(
                client,
                ctx.client_shard(client).len(),
                ClientPayload::Empty,
            ))
        }
        fn aggregate(
            &mut self,
            _round: usize,
            updates: Vec<ClientUpdate>,
            _ctx: &FederationContext,
        ) -> FlResult<()> {
            self.rounds_aggregated += 1;
            for update in updates {
                self.clients_seen.push(update.client);
                self.sample_weights.push(update.num_samples);
            }
            Ok(())
        }
        fn evaluate_global(&mut self, _data: &Dataset) -> FlResult<f32> {
            Ok(0.1 * self.rounds_aggregated as f32)
        }
        fn evaluate_client(&mut self, client: usize, _data: &Dataset) -> FlResult<f32> {
            Ok(0.05 * client as f32)
        }
    }

    fn context(num_clients: usize) -> FederationContext {
        test_context(
            ConstraintCase::Computation {
                deadline_secs: 100.0,
            },
            num_clients,
        )
    }

    fn config(rounds: usize, ratio: f64, eval_every: usize, stability: usize) -> EngineConfig {
        EngineConfig {
            rounds,
            sample_ratio: ratio,
            eval_every,
            stability_clients: stability,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_runs_requested_rounds_and_samples_clients() {
        let ctx = context(10);
        let engine = FlEngine::new(config(8, 0.3, 4, 4));
        let mut alg = CountingAlgorithm::default();
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert_eq!(alg.rounds_aggregated, 8);
        // 30% of 10 clients = 3 per round.
        assert_eq!(alg.clients_seen.len(), 24);
        assert!(alg.clients_seen.iter().all(|&c| c < 10));
        // Sample weights reflect shard sizes.
        assert!(alg.sample_weights.iter().all(|&w| w > 0));
        // Evaluations at rounds 4 and 8.
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].round, 4);
        assert_eq!(report.records[1].round, 8);
        assert_eq!(report.records[1].per_client_accuracy.len(), 4);
        assert_eq!(report.algorithm, "Counting");
    }

    #[test]
    fn simulated_clock_is_monotone_and_positive() {
        let ctx = context(6);
        let engine = FlEngine::new(config(5, 0.5, 1, 2));
        let mut alg = CountingAlgorithm::default();
        let report = engine.run(&mut alg, &ctx).unwrap();
        let times: Vec<f64> = report.records.iter().map(|r| r.sim_time_secs).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert!(times[0] > 0.0);
    }

    #[test]
    fn final_round_is_always_evaluated() {
        let ctx = context(5);
        let engine = FlEngine::new(config(7, 0.2, 5, 1));
        let mut alg = CountingAlgorithm::default();
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert_eq!(report.records.last().unwrap().round, 7);
    }

    #[test]
    fn threaded_and_sequential_runs_agree_for_a_deterministic_algorithm() {
        let ctx = context(10);
        let base = config(6, 0.4, 2, 5);
        let mut sequential = CountingAlgorithm::default();
        let seq_report = FlEngine::new(base).run(&mut sequential, &ctx).unwrap();
        let mut threaded = CountingAlgorithm::default();
        let thr_report = FlEngine::new(EngineConfig {
            parallelism: Parallelism::Threads { workers: 4 },
            ..base
        })
        .run(&mut threaded, &ctx)
        .unwrap();
        assert_eq!(seq_report, thr_report);
        assert_eq!(sequential.clients_seen, threaded.clients_seen);
    }

    #[test]
    fn stability_sample_is_a_seeded_subset_not_a_prefix() {
        let ctx = context(40);
        let engine = FlEngine::new(config(2, 0.2, 2, 6));
        let mut alg = CountingAlgorithm::default();
        let report = engine.run(&mut alg, &ctx).unwrap();
        let accs = &report.records.last().unwrap().per_client_accuracy;
        assert_eq!(accs.len(), 6);
        // evaluate_client returns 0.05 * client, so a 0..6 prefix would give
        // exactly [0.0, 0.05, .., 0.25]; a seeded sample of 40 clients
        // almost surely does not.
        let prefix: Vec<f32> = (0..6).map(|c| 0.05 * c as f32).collect();
        assert_ne!(
            accs, &prefix,
            "stability clients must not be the index prefix"
        );
        // And the same seed reproduces the same sample.
        let mut again = CountingAlgorithm::default();
        let report2 = engine.run(&mut again, &ctx).unwrap();
        assert_eq!(report, report2);
    }
}
