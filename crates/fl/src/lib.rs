//! # mhfl-fl
//!
//! The federated-learning simulation engine of the PracMHBench reproduction.
//!
//! The crate is algorithm-agnostic: it owns the round loop, client
//! scheduling, the simulated wall clock (driven by the device cost model)
//! and the four evaluation metrics of the paper — global accuracy,
//! time-to-accuracy, stability and effectiveness. Concrete MHFL algorithms
//! implement the two-phase [`FlAlgorithm`] trait (see the `mhfl-algorithms`
//! crate) and are driven through a streaming [`Session`]
//! ([`FlEngine::session`]) that yields typed [`RoundEvent`]s, supports
//! [`Observer`]s (progress logging, CSV telemetry, early stopping) and
//! checkpoint/resume ([`Session::checkpoint`] / [`Session::restore`]);
//! [`FlEngine::run`] drains a session in one blocking call:
//!
//! * the *client phase* ([`FlAlgorithm::client_update`]) trains one selected
//!   client and returns a [`ClientUpdate`]; it takes `&self`, so the engine
//!   can fan it out over a thread pool ([`Parallelism`]) without changing
//!   results;
//! * the *server phase* ([`FlAlgorithm::aggregate`]) folds the round's
//!   updates — always delivered in selection order — into the global state.
//!
//! Which clients run each round is decided by a pluggable
//! [`ClientScheduler`]: the [`UniformSampler`] that the [`Schedule`] enum
//! configures, or one installed with [`Session::set_scheduler`] such as
//! [`TraceReplay`].
//!
//! Rounds advance either synchronously (the clock moves by whole rounds,
//! stragglers dominate) or through FedBuff-style asynchronous buffered
//! aggregation on an event-driven clock ([`Execution`], [`buffered`
//! module](staleness_weight)); both modes record per-client telemetry
//! ([`ClientRoundStat`]) into the [`MetricsReport`].
//!
//! Shared machinery the algorithms build on lives here too:
//!
//! * [`wire`] — the shared binary codec primitives ([`wire::Encoder`] /
//!   [`wire::Decoder`], FNV-1a checksums, typed [`PersistError`]s) plus
//!   checksummed network frames for [`ClientUpdate`]s, spoken by both the
//!   checkpoint file format and the `mhfl-net` server/worker protocol,
//! * [`persist`] — the durable on-disk checkpoint codec
//!   ([`Session::save`] / [`persist::read_checkpoint`] + [`Session::restore`],
//!   versioned + checksummed, no external serde) and the auto-saving
//!   [`CheckpointObserver`]; `pracmhbench_core::ExperimentSpec::resume_from`
//!   is the one call that resumes a spec's run from a file,
//! * [`submodel`] — width/depth sub-model extraction and overlap-aware
//!   aggregation over [`mhfl_nn::StateDict`]s,
//! * [`train`] — plain local SGD training and evaluation of a proxy model,
//! * [`FederationContext`] — the data shards, per-client device assignments
//!   and training hyper-parameters for one experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod buffered;
mod context;
mod engine;
mod error;
mod fnv;
mod metrics;
mod observer;
mod parallel;
pub mod persist;
mod schedule;
mod session;
mod snapshot;
mod store;
pub mod submodel;
pub mod train;
mod update;
pub mod wire;

pub use adversary::{Corruption, RobustAggregation};
pub use buffered::{staleness_weight, Staleness};
pub use context::{ClientSource, FederationContext, LocalTrainConfig};
pub use engine::{EngineConfig, Execution, FlAlgorithm, FlEngine};
pub use error::FlError;
pub use metrics::{ClientRoundStat, MetricsReport, RoundRecord};
pub use observer::{CsvTelemetry, EarlyStop, EventCounter, Observer, ProgressLogger};
pub use parallel::{fan_out, run_clients, ClientRunner, InProcessRunner, Parallelism};
pub use persist::{CheckpointObserver, PersistError};
pub use schedule::{
    CandidatePool, Candidates, ClientScheduler, RoundPlan, Schedule, TraceReplay, UniformSampler,
};
pub use session::{Checkpoint, RoundEvent, Session};
pub use snapshot::AlgorithmState;
pub use store::ClientSet;
pub use update::{ClientPayload, ClientUpdate};

/// Crate-wide result alias.
pub type FlResult<T> = std::result::Result<T, FlError>;
