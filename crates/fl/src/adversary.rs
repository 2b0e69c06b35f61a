//! Failure-mode scenario knobs: byzantine update corruption and robust
//! aggregation.
//!
//! The engine's baseline threat model is *benign heterogeneity* — clients are
//! slow or offline, never wrong. This module adds the adversarial axis:
//!
//! * [`Corruption`] — a seeded policy that turns a deterministic subset of
//!   clients byzantine and sign-flips their uploaded payload tensors at the
//!   arrival boundary. Membership is a pure function of `(seed, client)` on
//!   an RNG stream salted away from every stream the honest simulation
//!   draws, so `Corruption::None` is bit-identical to a build without this
//!   module.
//! * [`RobustAggregation`] — the server-side counter-measure, threaded
//!   through all five algorithm families via
//!   [`FlAlgorithm::set_robust_aggregation`](crate::FlAlgorithm::set_robust_aggregation):
//!   per-client joint L2 norm-clipping, or a coordinate-wise median in place
//!   of the weighted mean.
//!
//! Both knobs default to off and are deliberately kept **out** of
//! [`EngineConfig`](crate::EngineConfig) and the checkpoint codec: the
//! committed format-stability fixtures (v1 can no longer be regenerated)
//! must keep decoding, so scenario state lives on [`Session`](crate::Session)
//! and the algorithms, re-injected after a restore like a custom
//! [`ClientRunner`](crate::ClientRunner).

use mhfl_nn::StateDict;
use mhfl_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

use crate::update::{ClientPayload, ClientUpdate};

/// Salt for the byzantine-membership stream: which clients are corrupt.
const BYZANTINE_SALT: u64 = 0xBAD5_EED5_0000_0001;

/// A seeded byzantine-client policy applied to arriving [`ClientUpdate`]s.
///
/// A client is byzantine for the whole run (membership is a Bernoulli draw
/// per client on a dedicated stream), and every update it uploads is
/// corrupted in transit. [`Corruption::None`] draws nothing and touches
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Corruption {
    /// No corruption — the default; observably inert.
    #[default]
    None,
    /// Byzantine clients upload the negation of every payload tensor.
    SignFlip {
        /// Expected fraction of byzantine clients in `[0, 1]`.
        fraction: f64,
    },
}

impl Corruption {
    /// `true` when the policy corrupts nothing (the hot-path guard).
    pub fn is_none(&self) -> bool {
        matches!(self, Corruption::None)
    }

    /// The configured byzantine fraction (0 for [`Corruption::None`]).
    pub fn fraction(&self) -> f64 {
        match *self {
            Corruption::None => 0.0,
            Corruption::SignFlip { fraction } => fraction,
        }
    }

    /// Whether `client` is byzantine under this policy — a pure function of
    /// `(seed, client)`, stable across rounds, restores and runner choice.
    pub fn is_byzantine(&self, seed: u64, client: usize) -> bool {
        let fraction = self.fraction();
        if fraction <= 0.0 {
            return false;
        }
        SeededRng::new(seed ^ BYZANTINE_SALT)
            .derive(client as u64)
            .bernoulli(fraction)
    }

    /// Corrupts `update` in place if its client is byzantine. Corruption
    /// draws no randomness, so replayed and restored runs corrupt
    /// identically.
    pub fn apply(&self, update: &mut ClientUpdate, seed: u64) {
        if self.is_none() || !self.is_byzantine(seed, update.client) {
            return;
        }
        let corrupt = |tensor: &mut Tensor| match *self {
            Corruption::None => {}
            Corruption::SignFlip { .. } => tensor.map_inplace(|v| -v),
        };
        let corrupt_state = |state: &mut StateDict| {
            for (_, tensor) in state.iter_mut() {
                corrupt(tensor);
            }
        };
        match &mut update.payload {
            ClientPayload::SubModel { state, .. } => corrupt_state(state),
            ClientPayload::Prototypes { state, sums, .. } => {
                corrupt_state(state);
                corrupt(sums);
            }
            ClientPayload::PublicLogits { state, probs, .. } => {
                corrupt_state(state);
                corrupt(probs);
            }
            ClientPayload::Empty => {}
        }
    }
}

/// Server-side robust-aggregation counter-measure, threaded through every
/// algorithm family via
/// [`FlAlgorithm::set_robust_aggregation`](crate::FlAlgorithm::set_robust_aggregation).
///
/// Semantics per family:
///
/// * sub-model families (width / depth / homogeneous baseline) apply it
///   inside [`ServerAggregator`](crate::submodel::ServerAggregator) —
///   [`NormClip`](RobustAggregation::NormClip) clips each client's update to
///   a joint L2 ball before the weighted scatter,
///   [`CoordinateMedian`](RobustAggregation::CoordinateMedian) replaces the
///   weighted per-coordinate mean with an unweighted per-coordinate median
///   over the clients covering that coordinate;
/// * FedProto clips / takes the median of per-class prototype means;
/// * Fed-ET clips each client's public-set probability vote /
///   takes the per-coordinate median of the votes (re-normalised per row).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RobustAggregation {
    /// Plain weighted-mean aggregation — the default; observably inert.
    #[default]
    None,
    /// Scale each client contribution so its joint L2 norm is at most
    /// `max_norm` before aggregating. Bounds the leverage of scaled-gradient
    /// attacks; does not defend against direction attacks (sign-flip).
    NormClip {
        /// Maximum joint L2 norm of one client's contribution.
        max_norm: f32,
    },
    /// Per-coordinate median over client contributions instead of the
    /// weighted mean. Robust to any minority of byzantine clients per
    /// coordinate; ignores sample-count and staleness weights.
    CoordinateMedian,
}

impl RobustAggregation {
    /// `true` when aggregation is the plain weighted mean (the hot-path
    /// guard).
    pub fn is_none(&self) -> bool {
        matches!(self, RobustAggregation::None)
    }
}

/// Joint L2 norm over every tensor of a [`StateDict`].
pub fn state_l2_norm(state: &StateDict) -> f32 {
    let sq: f64 = state
        .iter()
        .flat_map(|(_, t)| t.as_slice())
        .map(|&v| f64::from(v) * f64::from(v))
        .sum();
    sq.sqrt() as f32
}

/// Scales every tensor of `state` so the joint L2 norm is at most
/// `max_norm`. No-op when already inside the ball (or the norm is zero).
pub fn clip_state(state: &mut StateDict, max_norm: f32) {
    let norm = state_l2_norm(state);
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for (_, tensor) in state.iter_mut() {
            tensor.scale_inplace(scale);
        }
    }
}

/// Scales `tensor` so its L2 norm is at most `max_norm`.
pub fn clip_tensor(tensor: &mut Tensor, max_norm: f32) {
    let sq: f64 = tensor
        .as_slice()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum();
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        tensor.scale_inplace(max_norm / norm);
    }
}

/// The median of `values` (mean of the middle pair for even lengths).
/// Returns `None` for an empty slice. Sorts the scratch buffer in place.
pub fn coordinate_median(values: &mut [f32]) -> Option<f32> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f32::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update_with_state(client: usize, values: &[f32]) -> ClientUpdate {
        let mut state = StateDict::new();
        state.insert(
            "w".to_string(),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        );
        ClientUpdate::new(
            client,
            4,
            ClientPayload::SubModel {
                state,
                selection: crate::submodel::WidthSelection::Prefix,
                num_blocks: 1,
            },
        )
    }

    fn state_values(update: &ClientUpdate) -> Vec<f32> {
        match &update.payload {
            ClientPayload::SubModel { state, .. } => {
                state.require("w").unwrap().as_slice().to_vec()
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn membership_is_deterministic_and_roughly_calibrated() {
        let policy = Corruption::SignFlip { fraction: 0.3 };
        let hits: Vec<bool> = (0..1000).map(|c| policy.is_byzantine(7, c)).collect();
        let again: Vec<bool> = (0..1000).map(|c| policy.is_byzantine(7, c)).collect();
        assert_eq!(hits, again, "membership must be a pure function");
        let count = hits.iter().filter(|&&b| b).count();
        assert!((200..400).contains(&count), "got {count} byzantine of 1000");
        assert!(!Corruption::None.is_byzantine(7, 0));
        // Different seeds give different memberships.
        let other: Vec<bool> = (0..1000).map(|c| policy.is_byzantine(8, c)).collect();
        assert_ne!(hits, other);
    }

    #[test]
    fn sign_flip_negates_only_byzantine_clients() {
        let policy = Corruption::SignFlip { fraction: 1.0 };
        let mut update = update_with_state(3, &[1.0, -2.0, 0.5]);
        policy.apply(&mut update, 7);
        assert_eq!(state_values(&update), vec![-1.0, 2.0, -0.5]);

        let honest = Corruption::SignFlip { fraction: 0.0 };
        let mut update = update_with_state(3, &[1.0, -2.0, 0.5]);
        honest.apply(&mut update, 7);
        assert_eq!(state_values(&update), vec![1.0, -2.0, 0.5]);
    }

    #[test]
    fn clip_state_bounds_joint_norm() {
        let mut state = StateDict::new();
        state.insert(
            "a".to_string(),
            Tensor::from_vec(vec![3.0, 0.0], &[2]).unwrap(),
        );
        state.insert(
            "b".to_string(),
            Tensor::from_vec(vec![0.0, 4.0], &[2]).unwrap(),
        );
        assert!((state_l2_norm(&state) - 5.0).abs() < 1e-6);
        clip_state(&mut state, 2.5);
        assert!((state_l2_norm(&state) - 2.5).abs() < 1e-6);
        // Already inside the ball: untouched.
        let before: Vec<f32> = state.require("a").unwrap().as_slice().to_vec();
        clip_state(&mut state, 100.0);
        assert_eq!(state.require("a").unwrap().as_slice(), &before[..]);
    }

    #[test]
    fn median_is_robust_to_a_minority_outlier() {
        assert_eq!(coordinate_median(&mut []), None);
        assert_eq!(coordinate_median(&mut [1.0]), Some(1.0));
        assert_eq!(coordinate_median(&mut [1.0, 3.0]), Some(2.0));
        assert_eq!(coordinate_median(&mut [1.0, 1_000_000.0, 2.0]), Some(2.0));
    }
}
