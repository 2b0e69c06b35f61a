//! # mhfl-data
//!
//! Synthetic federated data tasks for the PracMHBench reproduction.
//!
//! The paper evaluates on six datasets across three modalities:
//! CIFAR-10 / CIFAR-100 (CV), AG-News / Stack Overflow (NLP) and
//! HAR-BOX / UCI-HAR (HAR). Those datasets are not redistributable inside
//! this repository, so the crate generates *seeded synthetic equivalents*
//! that preserve the properties the benchmark actually varies:
//!
//! * the number of classes and input modality of each task,
//! * the partition structure — IID, Dirichlet(α) label skew, or natural
//!   per-user partitions for the tasks the paper treats as naturally
//!   non-IID (Stack Overflow, HAR-BOX, UCI-HAR),
//! * a held-out global test set for the *global accuracy* metric.
//!
//! Samples are drawn from class-conditional generators (per-class templates
//! plus noise), which makes the tasks learnable by the proxy models while
//! remaining fully reproducible from a single seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod drift;
mod lazy;
mod partition;
mod synth;
mod task;

pub use dataset::{Batch, Dataset};
pub use drift::{apply_drift, Drift};
pub use lazy::ShardPlan;
pub use partition::Partition;
pub use synth::{generate_dataset, generate_dataset_with_seeds};
pub use task::{DataTask, Modality};
