//! Experiment specification and the evaluation track.

use std::path::Path;
use std::sync::Arc;

use mhfl_algorithms::build_algorithm;
use mhfl_data::{DataTask, Drift, Partition, ShardPlan};
use mhfl_device::{ClientAssignment, ConstraintCase, CostModel, ModelPool};
use mhfl_fl::{
    ClientSource, Corruption, EngineConfig, Execution, FederationContext, FlAlgorithm, FlEngine,
    FlError, FlResult, LocalTrainConfig, MetricsReport, Parallelism, RobustAggregation, Schedule,
    Session, Staleness,
};
use mhfl_models::MhflMethod;
use serde::{Deserialize, Serialize};

use crate::{base_family_for_task, topology_group_for_task};

/// How large an experiment to run.
///
/// `Paper` mirrors the paper's setup (hundreds of clients, 1000 rounds) and
/// is only practical on a beefy machine; `Quick` is used by the test suite
/// and the `--quick` mode of the benchmark binaries; `Standard` is the
/// default for the figure-regeneration harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunScale {
    /// Tiny runs for CI and smoke tests.
    Quick,
    /// Default scale for regenerating figures on a laptop.
    Standard,
    /// The paper's own scale (1000 rounds, paper client counts).
    Paper,
}

impl RunScale {
    /// `(num_clients, samples_per_client, rounds, sample_ratio)` for a task.
    fn parameters(&self, task: DataTask) -> (usize, usize, usize, f64) {
        match self {
            RunScale::Quick => (6, 16, 4, 0.5),
            RunScale::Standard => (20, 30, 20, 0.25),
            RunScale::Paper => (task.paper_num_clients(), 50, 1000, 0.1),
        }
    }
}

/// Summary of one experiment in terms of the paper's four metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricSummary {
    /// Metric (i): final global accuracy.
    pub global_accuracy: f32,
    /// Metric (ii): simulated seconds to reach the target accuracy
    /// (`None` if never reached).
    pub time_to_accuracy_secs: Option<f64>,
    /// Metric (iii): variance of per-client accuracies (lower = more stable).
    pub stability: f32,
    /// Metric (iv): accuracy improvement over the smallest-homogeneous
    /// baseline (only populated when a baseline accuracy was supplied).
    pub effectiveness: Option<f32>,
    /// Total simulated wall-clock time of the run.
    pub total_time_secs: f64,
}

/// The result of running one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// The method that was evaluated.
    pub method: MhflMethod,
    /// The task it ran on.
    pub task: DataTask,
    /// The constraint label (e.g. `"Comp"`).
    pub constraint: String,
    /// Four-metric summary.
    pub summary: MetricSummary,
    /// The full per-round metric report.
    pub report: MetricsReport,
}

/// A fully-specified experiment of the evaluation track (Fig. 1): one data
/// task, one algorithm, one practical constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The data task.
    pub task: DataTask,
    /// The MHFL algorithm.
    pub method: MhflMethod,
    /// The device constraint case.
    pub constraint: ConstraintCase,
    /// Run scale.
    pub scale: RunScale,
    /// Optional override of the data partition (IID / Dirichlet / by-user).
    pub partition: Option<Partition>,
    /// Optional override of the number of clients.
    pub num_clients: Option<usize>,
    /// Target accuracy for the time-to-accuracy metric.
    pub target_accuracy: f32,
    /// Experiment seed.
    pub seed: u64,
    /// Round-advancement mode: classic synchronous rounds or FedBuff-style
    /// asynchronous buffered aggregation on an event-driven clock.
    pub execution: Execution,
    /// Per-update staleness bound for asynchronous execution: updates
    /// staler than this are discarded before aggregation (counted by
    /// [`MetricsReport::dropped_updates`](mhfl_fl::MetricsReport)).
    /// `None` keeps every update.
    pub max_staleness: Option<usize>,
    /// Byzantine-client policy: seeded corruption applied to the uploads of
    /// a fixed sub-population ([`Corruption::None`] is inert).
    pub corruption: Corruption,
    /// Server-side robust-aggregation counter-measure
    /// ([`RobustAggregation::None`] preserves plain weighted averaging
    /// bit-for-bit).
    pub robust: RobustAggregation,
    /// Probability in `[0, 1]` that a dispatched client silently churns
    /// mid-round and its update never arrives (`0.0` is inert).
    pub churn_fraction: f64,
    /// Label drift schedule over rounds ([`Drift::None`] is inert).
    pub drift: Drift,
}

impl ExperimentSpec {
    /// Creates a specification with standard-scale defaults.
    pub fn new(task: DataTask, method: MhflMethod, constraint: ConstraintCase) -> Self {
        ExperimentSpec {
            task,
            method,
            constraint,
            scale: RunScale::Standard,
            partition: None,
            num_clients: None,
            target_accuracy: 0.5,
            seed: 42,
            execution: Execution::Synchronous,
            max_staleness: None,
            corruption: Corruption::None,
            robust: RobustAggregation::None,
            churn_fraction: 0.0,
            drift: Drift::None,
        }
    }

    /// Sets the run scale.
    pub fn with_scale(mut self, scale: RunScale) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the data partition.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Overrides the number of clients (the scalability analysis of Fig. 9).
    pub fn with_num_clients(mut self, clients: usize) -> Self {
        self.num_clients = Some(clients);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the time-to-accuracy target.
    pub fn with_target_accuracy(mut self, target: f32) -> Self {
        self.target_accuracy = target;
        self
    }

    /// Sets the round-advancement mode (synchronous rounds or asynchronous
    /// buffered aggregation).
    pub fn with_execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Bounds per-update staleness for asynchronous execution: staler
    /// updates are dropped before aggregation.
    pub fn with_max_staleness(mut self, max_staleness: Option<usize>) -> Self {
        self.max_staleness = max_staleness;
        self
    }

    /// Sets the byzantine-client corruption policy.
    pub fn with_corruption(mut self, corruption: Corruption) -> Self {
        self.corruption = corruption;
        self
    }

    /// Sets the server-side robust-aggregation counter-measure.
    pub fn with_robust_aggregation(mut self, robust: RobustAggregation) -> Self {
        self.robust = robust;
        self
    }

    /// Sets the mid-round churn probability; [`open`](Self::open) refuses
    /// one outside `[0, 1]`.
    pub fn with_churn(mut self, fraction: f64) -> Self {
        self.churn_fraction = fraction;
        self
    }

    /// Sets the label drift schedule.
    pub fn with_drift(mut self, drift: Drift) -> Self {
        self.drift = drift;
        self
    }

    /// Builds the federation context this spec describes. Nothing
    /// per-client is built up front: the context derives each client's
    /// device assignment and data shard on demand from `(seed, client_id)`,
    /// so its resident footprint is O(active clients) at any population,
    /// from the six clients of a Quick run to the million of the
    /// `population_scale` bin. Everything is deterministic in
    /// `(seed, client_id)` and independent of access order.
    ///
    /// # Errors
    /// [`FlError::InvalidConfig`] if the spec describes an empty federation.
    pub fn build_context(&self) -> FlResult<FederationContext> {
        let (default_clients, samples_per_client, _rounds, _ratio) =
            self.scale.parameters(self.task);
        let num_clients = self.num_clients.unwrap_or(default_clients);
        if num_clients == 0 {
            return Err(FlError::InvalidConfig("federation has no clients".into()));
        }
        let plan = ShardPlan::new(
            self.task,
            num_clients,
            samples_per_client,
            self.partition,
            self.seed,
        );
        let source = SpecAssignments {
            case: self.constraint,
            method: self.method,
            pool: ModelPool::build(
                base_family_for_task(self.task),
                &topology_group_for_task(self.task),
                &MhflMethod::ALL,
                self.task.num_classes(),
            ),
            cost_model: CostModel::default(),
            seed: self.seed,
        };
        let ctx = FederationContext::new(
            plan,
            Arc::new(source),
            LocalTrainConfig::default(),
            self.seed,
        );
        Ok(ctx.with_drift(self.drift))
    }

    /// [`build_context`](ExperimentSpec::build_context) under its old name,
    /// kept only because the `mhbench` benchmark package still calls it. It
    /// goes once that package calls `build_context`.
    ///
    /// # Errors
    /// Those of [`build_context`](ExperimentSpec::build_context).
    pub fn build_lazy_context(&self) -> FlResult<FederationContext> {
        self.build_context()
    }

    /// The engine configuration this spec runs under. Its client phase is
    /// [`Parallelism::Sequential`]: a thread count is how a run executes,
    /// not what it is, so it is set on the opened session with
    /// [`Session::set_parallelism`] and changes no result. To drive the
    /// experiment through the streaming session API instead of the blocking
    /// [`run`](ExperimentSpec::run), open the session with
    /// [`open`](ExperimentSpec::open), which also applies the spec's
    /// adversarial knobs:
    ///
    /// ```no_run
    /// # use mhfl_data::DataTask;
    /// # use mhfl_device::ConstraintCase;
    /// # use mhfl_models::MhflMethod;
    /// # use pracmhbench_core::ExperimentSpec;
    /// let spec = ExperimentSpec::new(
    ///     DataTask::UciHar,
    ///     MhflMethod::SHeteroFl,
    ///     ConstraintCase::Memory,
    /// );
    /// let ctx = spec.build_context()?;
    /// let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
    /// let mut session = spec.open(algorithm.as_mut(), &ctx)?;
    /// session.set_parallelism(mhfl_fl::Parallelism::threads());
    /// while let Some(_event) = session.next_event()? {
    ///     // observe, checkpoint, stop early ...
    /// }
    /// # Ok::<(), mhfl_fl::FlError>(())
    /// ```
    pub fn engine(&self) -> FlEngine {
        let (_clients, _spc, rounds, sample_ratio) = self.scale.parameters(self.task);
        FlEngine::new(EngineConfig {
            rounds,
            sample_ratio,
            eval_every: (rounds / 4).max(1),
            stability_clients: 8,
            schedule: Schedule::Uniform,
            parallelism: Parallelism::Sequential,
            execution: self.execution,
            staleness: Staleness::Sqrt,
            max_staleness: self.max_staleness,
        })
    }

    /// Opens a fresh [`Session`] for this spec: `algorithm` (built for
    /// [`method`](ExperimentSpec::method)) over `ctx` (built by
    /// [`build_context`](ExperimentSpec::build_context)), under
    /// [`engine`](ExperimentSpec::engine), with the spec's
    /// [`robust`](ExperimentSpec::robust),
    /// [`corruption`](ExperimentSpec::corruption) and
    /// [`churn_fraction`](ExperimentSpec::churn_fraction) applied. Every
    /// driver — [`run`](ExperimentSpec::run), the resumable bench runs, the
    /// `mhfl-net` server — opens its session here, so a spec means the same
    /// run everywhere.
    ///
    /// # Errors
    /// [`FlError::InvalidConfig`] if the norm-clip bound is not a positive
    /// finite number, or the sign-flip or churn fraction lies outside
    /// `[0, 1]`; otherwise propagates [`FlAlgorithm::setup`] failures.
    pub fn open<'a>(
        &self,
        algorithm: &'a mut dyn FlAlgorithm,
        ctx: &'a FederationContext,
    ) -> FlResult<Session<'a>> {
        self.open_or_resume(algorithm, ctx, None)
    }

    /// [`open`](ExperimentSpec::open) for a run interrupted earlier: restores
    /// the session from the durable checkpoint at `path` (validating its
    /// engine configuration against this spec's) and re-applies the three
    /// adversarial knobs, which the checkpoint does not carry — they are
    /// pure in `(seed, round, dispatch sequence)`, so the resumed run
    /// continues bit-exactly. The checkpoint records no thread count, so a
    /// run saved under one resumes under any other.
    ///
    /// # Errors
    /// The knob errors of [`open`](ExperimentSpec::open);
    /// [`FlError::Persist`] if the file is missing or fails any integrity
    /// check; [`FlError::InvalidConfig`] if it was taken under a different
    /// engine configuration, then the errors of [`Session::restore`].
    pub fn resume_from<'a>(
        &self,
        algorithm: &'a mut dyn FlAlgorithm,
        ctx: &'a FederationContext,
        path: impl AsRef<Path>,
    ) -> FlResult<Session<'a>> {
        self.open_or_resume(algorithm, ctx, Some(path.as_ref()))
    }

    fn open_or_resume<'a>(
        &self,
        algorithm: &'a mut dyn FlAlgorithm,
        ctx: &'a FederationContext,
        checkpoint: Option<&Path>,
    ) -> FlResult<Session<'a>> {
        self.check_knobs()?;
        algorithm.set_robust_aggregation(self.robust);
        let engine = self.engine();
        let mut session = match checkpoint {
            Some(path) => {
                let checkpoint = mhfl_fl::persist::read_checkpoint(path)?;
                if checkpoint.config() != engine.config() {
                    return Err(FlError::InvalidConfig(
                        "checkpoint was taken under a different engine configuration".into(),
                    ));
                }
                Session::restore(algorithm, ctx, &checkpoint)?
            }
            None => engine.session(algorithm, ctx)?,
        };
        session.set_corruption(self.corruption);
        session.set_churn(self.churn_fraction);
        Ok(session)
    }

    /// Refuses adversarial knobs that would silently change the run: a
    /// norm-clip bound that is not a positive finite number (a negative one
    /// sign-flips every update it clips, NaN disables clipping), and a
    /// sign-flip or churn fraction outside `[0, 1]` or NaN.
    fn check_knobs(&self) -> FlResult<()> {
        let check_fraction = |what: &str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(FlError::InvalidConfig(format!(
                    "{what} {value} is not a fraction in [0, 1]"
                )))
            }
        };
        if let RobustAggregation::NormClip { max_norm } = self.robust {
            if !(max_norm.is_finite() && max_norm > 0.0) {
                return Err(FlError::InvalidConfig(format!(
                    "norm-clip bound {max_norm} is not a positive finite number"
                )));
            }
        }
        if let Corruption::SignFlip { fraction } = self.corruption {
            check_fraction("sign-flip fraction", fraction)?;
        }
        check_fraction("churn fraction", self.churn_fraction)
    }

    /// Runs the experiment.
    ///
    /// # Errors
    /// Propagates engine/algorithm failures.
    pub fn run(&self) -> FlResult<ExperimentOutcome> {
        let ctx = self.build_context()?;
        let mut algorithm = build_algorithm(self.method);
        let report = self.open(algorithm.as_mut(), &ctx)?.drain()?;
        Ok(self.outcome(report))
    }

    /// Summarises a finished run of this spec — however it was driven
    /// (blocking, streamed, resumed from a checkpoint) — in the paper's
    /// metrics. Effectiveness is left empty: it needs the baseline run of
    /// [`run_comparison`](ExperimentSpec::run_comparison).
    pub fn outcome(&self, report: MetricsReport) -> ExperimentOutcome {
        let summary = MetricSummary {
            global_accuracy: report.final_accuracy(),
            time_to_accuracy_secs: report.time_to_accuracy(self.target_accuracy),
            stability: report.stability(),
            effectiveness: None,
            total_time_secs: report.total_sim_time_secs(),
        };
        ExperimentOutcome {
            method: self.method,
            task: self.task,
            constraint: self.constraint.label(),
            summary,
            report,
        }
    }

    /// Runs a set of methods on this spec's task/constraint, including the
    /// smallest-homogeneous baseline, and fills in the effectiveness metric
    /// of every outcome relative to that baseline. Every run goes through
    /// `run` — [`ExperimentSpec::run`] itself, or a driver of the same
    /// result such as a checkpointing one.
    ///
    /// # Errors
    /// Propagates failures from any individual run.
    pub fn run_comparison<E>(
        &self,
        methods: &[MhflMethod],
        mut run: impl FnMut(&ExperimentSpec) -> Result<ExperimentOutcome, E>,
    ) -> Result<Vec<ExperimentOutcome>, E> {
        let baseline = run(&ExperimentSpec {
            method: MhflMethod::HomogeneousSmallest,
            ..*self
        })?;
        let baseline_acc = baseline.summary.global_accuracy;
        let mut outcomes = Vec::with_capacity(methods.len() + 1);
        for &method in methods {
            let mut outcome = run(&ExperimentSpec { method, ..*self })?;
            outcome.summary.effectiveness = Some(outcome.summary.global_accuracy - baseline_acc);
            outcomes.push(outcome);
        }
        outcomes.push(baseline);
        Ok(outcomes)
    }
}

/// The assignments of a spec's federation: each client's device is derived
/// from `(seed, client_id)` and assigned its pool entry under the spec's
/// constraint case, on each call. Holds only O(1) state, so cloning a
/// context or sharing it across threads stays cheap at any population.
#[derive(Debug)]
struct SpecAssignments {
    case: ConstraintCase,
    method: MhflMethod,
    pool: ModelPool,
    cost_model: CostModel,
    seed: u64,
}

impl ClientSource for SpecAssignments {
    fn assignment(&self, client: usize) -> ClientAssignment {
        let device = self.case.derive_device(self.seed, client);
        self.case
            .assign_client(&self.pool, self.method, &device, &self.cost_model, client)
    }

    /// The fewest and most parameters among the method's pool entries:
    /// `assign_client` picks every assignment from those entries.
    fn params_bounds(&self) -> Option<(u64, u64)> {
        let params = self
            .pool
            .entries_for_method(self.method)
            .iter()
            .map(|e| e.stats.params);
        Some((params.clone().min()?, params.max()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_assignments_bound_every_method_by_its_pool_entries() {
        let spec = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::Memory,
        );
        let pool = ModelPool::build(
            base_family_for_task(spec.task),
            &topology_group_for_task(spec.task),
            &MhflMethod::ALL,
            spec.task.num_classes(),
        );
        for method in MhflMethod::ALL {
            let source = SpecAssignments {
                case: spec.constraint,
                method,
                pool: pool.clone(),
                cost_model: CostModel::default(),
                seed: spec.seed,
            };
            let entries = pool.entries_for_method(method);
            let min = entries.iter().map(|e| e.stats.params).min().unwrap();
            let max = entries.iter().map(|e| e.stats.params).max().unwrap();
            assert_eq!(source.params_bounds(), Some((min, max)), "{method:?}");
            for client in 0..64 {
                let params = source.assignment(client).entry.stats.params;
                assert!((min..=max).contains(&params), "{method:?}");
            }
        }
    }

    #[test]
    fn quick_spec_runs_end_to_end() {
        let spec = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::COMPUTATION,
        )
        .with_scale(RunScale::Quick)
        .with_seed(7);
        let outcome = spec.run().unwrap();
        assert_eq!(outcome.method, MhflMethod::SHeteroFl);
        assert!(outcome.summary.global_accuracy > 0.0);
        assert!(outcome.summary.total_time_secs > 0.0);
        assert!(!outcome.report.records.is_empty());
        assert_eq!(outcome.constraint, "Comp");
    }

    #[test]
    fn open_applies_every_adversarial_knob_of_the_spec() {
        let clean = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::COMPUTATION,
        )
        .with_scale(RunScale::Quick)
        .with_seed(17);
        let spec = clean
            .with_corruption(Corruption::SignFlip { fraction: 0.4 })
            .with_robust_aggregation(RobustAggregation::CoordinateMedian)
            .with_churn(0.3);
        let ctx = spec.build_context().unwrap();
        let mut algorithm = build_algorithm(spec.method);
        let opened = spec
            .open(algorithm.as_mut(), &ctx)
            .unwrap()
            .drain()
            .unwrap();
        assert_eq!(opened, spec.run().unwrap().report);
        assert_ne!(opened.digest(), clean.run().unwrap().report.digest());
    }

    #[test]
    fn misapplied_adversarial_knobs_are_refused() {
        let clean = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::Memory,
        )
        .with_scale(RunScale::Quick)
        .with_seed(17);
        let clip =
            |max_norm| clean.with_robust_aggregation(RobustAggregation::NormClip { max_norm });
        let flip = |fraction| clean.with_corruption(Corruption::SignFlip { fraction });
        let churn = |fraction| clean.with_churn(fraction);
        for spec in [
            clip(-5.0),
            clip(0.0),
            clip(f32::NAN),
            clip(f32::INFINITY),
            flip(-0.1),
            flip(1.5),
            flip(f64::NAN),
            flip(f64::INFINITY),
            churn(-0.5),
            churn(1.5),
            churn(f64::NAN),
        ] {
            assert!(
                matches!(spec.run(), Err(FlError::InvalidConfig(_))),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn comparison_fills_effectiveness() {
        let spec = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::FeDepth,
            ConstraintCase::Memory,
        )
        .with_scale(RunScale::Quick)
        .with_seed(3);
        let outcomes = spec
            .run_comparison(
                &[MhflMethod::FeDepth, MhflMethod::SHeteroFl],
                ExperimentSpec::run,
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].summary.effectiveness.is_some());
        assert!(outcomes[1].summary.effectiveness.is_some());
        // The baseline row itself has no effectiveness value.
        assert_eq!(outcomes[2].method, MhflMethod::HomogeneousSmallest);
        assert!(outcomes[2].summary.effectiveness.is_none());
    }

    #[test]
    fn scalability_override_changes_client_count() {
        let spec = ExperimentSpec::new(DataTask::UciHar, MhflMethod::Fjord, ConstraintCase::Memory)
            .with_scale(RunScale::Quick)
            .with_num_clients(9);
        let ctx = spec.build_context().unwrap();
        assert_eq!(ctx.num_clients(), 9);
    }

    #[test]
    fn empty_federation_is_a_typed_error() {
        let spec = ExperimentSpec::new(DataTask::UciHar, MhflMethod::Fjord, ConstraintCase::Memory)
            .with_scale(RunScale::Quick)
            .with_num_clients(0);
        let invalid = |r: FlResult<_>| matches!(r, Err(FlError::InvalidConfig(_)));
        assert!(invalid(spec.build_context().map(drop)));
        assert!(invalid(spec.run().map(drop)));
    }

    #[test]
    fn lazy_context_matches_spec_and_derives_on_demand() {
        let spec = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::COMPUTATION,
        )
        .with_scale(RunScale::Quick)
        .with_num_clients(1_000_000)
        .with_seed(9);
        let ctx = spec.build_context().unwrap();
        assert_eq!(ctx.num_clients(), 1_000_000);
        // A far-out client is derivable without touching the rest, and the
        // derivation is a pure function of (seed, client).
        let a = ctx.assignment(999_999);
        assert_eq!(a, ctx.assignment(999_999));
        let shard = ctx.client_shard(999_999);
        assert_eq!(shard.len(), ctx.client_shard(999_999).len());
        assert!(!ctx.test_set().is_empty());
    }

    #[test]
    fn scale_parameters_grow_monotonically() {
        let (qc, _, qr, _) = RunScale::Quick.parameters(DataTask::Cifar10);
        let (sc, _, sr, _) = RunScale::Standard.parameters(DataTask::Cifar10);
        let (pc, _, pr, _) = RunScale::Paper.parameters(DataTask::Cifar10);
        assert!(qc < sc && sc < pc);
        assert!(qr < sr && sr < pr);
        assert_eq!(pc, 100);
        assert_eq!(pr, 1000);
    }
}
