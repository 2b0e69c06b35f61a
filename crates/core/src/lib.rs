//! # pracmhbench-core
//!
//! The PracMHBench platform itself: experiment configuration, the evaluation
//! track of the paper's Fig. 1 (pick a constraint → run every algorithm on a
//! data task → record the four metrics) and result reporting.
//!
//! ```no_run
//! use pracmhbench_core::{ExperimentSpec, RunScale};
//! use mhfl_data::DataTask;
//! use mhfl_device::ConstraintCase;
//! use mhfl_models::MhflMethod;
//!
//! let spec = ExperimentSpec::new(
//!     DataTask::Cifar10,
//!     MhflMethod::SHeteroFl,
//!     ConstraintCase::Computation { deadline_secs: 300.0 },
//! )
//! .with_scale(RunScale::Quick);
//! let outcome = spec.run()?;
//! println!("global accuracy = {:.3}", outcome.summary.global_accuracy);
//! # Ok::<(), mhfl_fl::FlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
mod platform;
mod report;

pub use experiment::{ExperimentOutcome, ExperimentSpec, MetricSummary, RunScale};
pub use mhfl_data::Drift;
pub use mhfl_fl::{
    AlgorithmState, Checkpoint, CheckpointObserver, ClientRoundStat, Corruption, CsvTelemetry,
    EarlyStop, EventCounter, Execution, MetricsReport, Observer, Parallelism, PersistError,
    ProgressLogger, RobustAggregation, RoundEvent, Session, TraceReplay,
};
pub use platform::{base_family_for_task, topology_group_for_task, PlatformInventory};
pub use report::{format_table, ComparisonRow};
