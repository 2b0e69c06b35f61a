//! # mhfl-tensor
//!
//! A deliberately small, dependency-light CPU tensor library that underpins
//! the PracMHBench reproduction. It provides exactly what the federated
//! learning substrate needs:
//!
//! * an n-dimensional `f32` [`Tensor`] with row-major storage,
//! * elementwise arithmetic with simple broadcasting,
//! * 2-D matrix multiplication (also over a batch of matrices) and
//!   transposition,
//! * reductions, softmax, argmax,
//! * [`math`]: in-tree `tanh` and `exp` (with in-place lane forms for
//!   slices) that return glibc 2.36's bits for every `f32`, so no result
//!   depends on the host's libm for them,
//! * axis slicing and index-based gathering (used by width/depth sub-model
//!   extraction),
//! * seeded random initialisation so every experiment is reproducible.
//!
//! The library intentionally avoids `unsafe`, SIMD intrinsics and GPU
//! support, but the matmul path is performance-engineered: [`kernels`]
//! provides one register-tiled kernel behind `A·B` and the
//! transpose-aware `A·Bᵀ`/`Aᵀ·B` variants — all bitwise identical to
//! a naive `ikj` reference loop that the crate's tests compare them
//! against, so reproducibility survives every optimisation.
//!
//! ```
//! use mhfl_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), mhfl_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod kernels;
pub mod math;
mod ops;
mod rng;
mod shape;
mod tensor;

pub use error::TensorError;
pub use rng::{RngState, SeededRng};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
