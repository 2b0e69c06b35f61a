//! # mhfl-device
//!
//! Edge-device modelling for the PracMHBench reproduction: everything the
//! paper measured on physical hardware (Jetson Orin NX / TX2 NX / Nano,
//! Raspberry Pi 4B and the IMA smartphone traces) is simulated here by an
//! analytical cost model so the *practical constraint cases* can be built
//! without the devices themselves.
//!
//! Components:
//!
//! * [`DeviceProfile`] — named device classes with compute throughput,
//!   memory capacity and network bandwidth (Table III of the paper);
//! * [`DeviceCapability`] — one participant's resources, drawn per client
//!   from the Table III classes or from a seeded synthetic population
//!   standing in for the IMA dataset of >1,000 smartphone
//!   capability/bandwidth traces ([`ConstraintCase::derive_device`]);
//! * [`CostModel`] — converts a model's analytical statistics
//!   ([`mhfl_models::ModelStats`]) into per-round training time,
//!   communication time and peak training memory on a given device,
//!   including the per-method overheads responsible for the differences the
//!   paper's Table I highlights;
//! * [`ModelPool`] — the pool of candidate (family, method, scale) entries
//!   with their measured statistics (Fig. 3);
//! * [`ConstraintCase`] — the computation-, communication- and
//!   memory-limited cases (plus combinations) that assign every client the
//!   largest feasible model from the pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod cost;
mod ima;
mod pool;
mod profile;

pub use constraint::{ClientAssignment, ConstraintCase};
pub use cost::{CostModel, MethodOverhead, RoundCost};
pub use ima::DeviceCapability;
pub use pool::{ModelChoice, ModelPool, PoolEntry};
pub use profile::DeviceProfile;
