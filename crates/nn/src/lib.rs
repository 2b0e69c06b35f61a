//! # mhfl-nn
//!
//! Neural-network building blocks for the PracMHBench reproduction.
//!
//! The crate provides:
//!
//! * [`Param`] / [`AxisRole`] — named parameter tensors annotated with which
//!   axes correspond to output/input feature channels, the metadata that
//!   width-heterogeneous sub-model extraction relies on;
//! * [`StateDict`] — the serialisable map of parameter name → tensor that all
//!   federated aggregation operates on;
//! * [`Layer`] implementations — [`Linear`], [`Conv2d`], [`LayerNorm`],
//!   [`ChannelNorm2d`], [`Relu`], [`Gelu`], [`Embedding`], [`SelfAttention`],
//!   [`GlobalAvgPool2d`], [`Flatten`] and the [`Sequential`] container — each
//!   with an explicit, cache-based backward pass (no autograd tape needed for
//!   the small proxy models used by the benchmark);
//! * loss functions ([`loss`]) — cross-entropy, soft-label distillation,
//!   mean-squared error and prototype-distance regularisation;
//! * [`Sgd`] — stochastic gradient descent with momentum and weight decay.
//!
//! The design goal is that every model parameter is reachable by name through
//! [`Layer::visit_params`], so that the MHFL algorithms can slice, transmit
//! and aggregate parameters without knowing the concrete architecture.
//! [`Layer::visit_params_mut`] is name-free and walks the same parameters in
//! the same order, so the per-step walks ([`Layer::zero_grad`],
//! [`Sgd::step`]) build no names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod attention;
mod conv;
mod embedding;
mod error;
mod layer;
mod linear;
pub mod loss;
mod norm;
mod optim;
mod param;
mod pool;
mod state;

pub use activation::{Gelu, Relu, Tanh};
pub use attention::SelfAttention;
pub use conv::Conv2d;
pub use embedding::Embedding;
pub use error::NnError;
pub use layer::{load_state_dict, num_params_of, param_specs_of, state_dict_of, Layer, Sequential};
pub use linear::Linear;
pub use norm::{ChannelNorm2d, LayerNorm};
pub use optim::{Sgd, SgdConfig};
pub use param::{AxisRole, Param, ParamSpec};
pub use pool::{Flatten, GlobalAvgPool2d, MeanPool1d};
pub use state::StateDict;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
