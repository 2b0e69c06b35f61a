//! The four workloads. Names are final; README.md records why each exists.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{
    EngineConfig, Execution, FederationContext, FlEngine, FlResult, Parallelism, Schedule,
    Staleness,
};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};

pub struct Workload {
    pub name: &'static str,
    pub task: DataTask,
    pub method: MhflMethod,
    /// `Some(n)`: an `n`-client lazy population (`build_lazy_context`);
    /// `None`: the paper-scale eager population (`build_context`).
    pub lazy_clients: Option<usize>,
    pub execution: Execution,
    pub parallelism: Parallelism,
    /// `None`: evaluated once, on the final round (which `Session` always
    /// evaluates), so `round_s_p50` is blind to evaluation.
    pub eval_every: Option<usize>,
    /// Rounds of a full-length run.
    pub rounds: usize,
    /// Consecutive sessions an untraced run splits its rounds over, each on
    /// its own spec seed. More than one where a round's cost hangs on a
    /// per-session draw that rounds cannot average out (README.md).
    pub federations: usize,
    /// `(fixed seconds, seconds per round)` of an untraced run on the
    /// reference container; turns `--seconds` into a round count.
    pub cost: (f64, f64),
    /// `mhfl-net` worker processes (0 = in-process client phase).
    pub workers: usize,
    /// `final_accuracy` must reach `.1` in runs of at least `.0` rounds.
    pub accuracy_floor: (usize, f32),
    /// Repetitions of each heavy layer probe (cheap probes run five times
    /// as often).
    pub probe_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cv_train_seq",
        task: DataTask::Cifar10,
        method: MhflMethod::SHeteroFl,
        lazy_clients: None,
        execution: Execution::Synchronous,
        parallelism: Parallelism::Sequential,
        eval_every: None,
        rounds: 30,
        federations: 1,
        cost: (6.2, 1.2),
        workers: 0,
        // Ten-class accuracy is still near chance after 30 rounds.
        accuracy_floor: (usize::MAX, 0.0),
        probe_reps: 5,
    },
    Workload {
        name: "nlp_eval_threads",
        task: DataTask::StackOverflow,
        method: MhflMethod::DepthFl,
        lazy_clients: None,
        execution: Execution::Synchronous,
        parallelism: Parallelism::Threads { workers: 2 },
        eval_every: Some(1),
        rounds: 36,
        federations: 4,
        cost: (0.0, 1.06),
        workers: 0,
        accuracy_floor: (4, 0.4),
        probe_reps: 5,
    },
    Workload {
        name: "har_async_lazy_1m",
        task: DataTask::UciHar,
        method: MhflMethod::SHeteroFl,
        lazy_clients: Some(1_000_000),
        execution: Execution::AsyncBuffered {
            buffer_size: 16,
            concurrency: 32,
        },
        parallelism: Parallelism::Sequential,
        eval_every: Some(20),
        rounds: 3600,
        federations: 1,
        cost: (0.0, 0.0103),
        workers: 0,
        accuracy_floor: (40, 0.9),
        probe_reps: 25,
    },
    Workload {
        name: "har_dist_fedet",
        task: DataTask::UciHar,
        method: MhflMethod::FedEt,
        lazy_clients: None,
        execution: Execution::Synchronous,
        parallelism: Parallelism::Sequential,
        eval_every: Some(150),
        rounds: 3600,
        federations: 1,
        cost: (0.0, 0.0105),
        workers: 2,
        // Fed-ET ends anywhere from 0.81 to 1.00 depending on the seed.
        accuracy_floor: (150, 0.6),
        probe_reps: 25,
    },
];

impl Workload {
    /// What the client phase is fanned over: compute threads or worker
    /// processes, whichever the workload fixes (1 when serial; never "one
    /// per core").
    pub fn width(&self) -> usize {
        let threads = match self.parallelism {
            Parallelism::Sequential => 1,
            Parallelism::Threads { workers } => workers,
        };
        threads.max(self.workers)
    }

    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS
            .iter()
            .chain([&SELF_TEST])
            .find(|w| w.name == name)
    }

    pub fn spec(&self, seed: u64) -> ExperimentSpec {
        let spec = ExperimentSpec::new(
            self.task,
            self.method,
            ConstraintCase::Computation {
                deadline_secs: 300.0,
            },
        )
        .with_scale(RunScale::Paper)
        .with_seed(seed);
        match self.lazy_clients {
            Some(clients) => spec.with_num_clients(clients),
            None => spec,
        }
    }

    pub fn build_context(&self, spec: &ExperimentSpec) -> FlResult<FederationContext> {
        if self.lazy_clients.is_some() {
            spec.build_lazy_context()
        } else {
            spec.build_context()
        }
    }

    /// The engine is built directly, not through `ExperimentSpec::engine`,
    /// so the benchmark — not `RunScale` — fixes the run length.
    pub fn engine(&self, rounds: usize) -> FlEngine {
        FlEngine::new(EngineConfig {
            rounds,
            sample_ratio: 0.1,
            eval_every: self.eval_every.unwrap_or(rounds),
            stability_clients: 8,
            schedule: Schedule::Uniform,
            parallelism: self.parallelism,
            execution: self.execution,
            staleness: Staleness::Sqrt,
            max_staleness: None,
        })
    }

    /// Rounds of a run meant to measure for about `seconds` on the
    /// reference container. The count is a pure function of `seconds`, so
    /// digest, accuracy and memory stay a pure function of `(seed, seconds)`.
    pub fn rounds_for_seconds(&self, seconds: f64) -> usize {
        let (fixed, per_round) = self.cost;
        (((seconds - fixed) / per_round).floor() as usize).max(2)
    }

    /// Updates the server expects to aggregate per round.
    pub fn updates_per_round(&self, ctx: &FederationContext) -> usize {
        match self.execution {
            Execution::Synchronous => {
                ((ctx.num_clients() as f64 * 0.1).round() as usize).clamp(1, ctx.num_clients())
            }
            Execution::AsyncBuffered { buffer_size, .. } => buffer_size,
        }
    }

    /// Evaluation records a run of `rounds` rounds must produce.
    pub fn expected_records(&self, rounds: usize) -> usize {
        match self.eval_every {
            Some(every) => rounds / every + usize::from(!rounds.is_multiple_of(every)),
            None => 1,
        }
    }
}

/// What `--self-test` drives with and without the decorators: the smallest
/// paper-scale population (30 clients, 3 per round), a few rounds.
pub const SELF_TEST: Workload = Workload {
    name: "self_test",
    task: DataTask::UciHar,
    method: MhflMethod::SHeteroFl,
    lazy_clients: None,
    execution: Execution::Synchronous,
    parallelism: Parallelism::Sequential,
    eval_every: Some(2),
    rounds: 4,
    federations: 1,
    cost: (0.0, 0.005),
    workers: 0,
    accuracy_floor: (usize::MAX, 0.0),
    probe_reps: 3,
};
