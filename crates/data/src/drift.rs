//! Label drift over rounds for the synthetic tasks.
//!
//! Real federations are not stationary: the label distribution rotates
//! (seasonality, fashion). [`Drift`] describes a deterministic schedule of
//! such shifts over training rounds, and [`apply_drift`] materialises the
//! round-`r` view of a shard as a pure function of `(shard, drift, round)`
//! — no hidden state, so every derivation of a shard, checkpoint restores
//! and distributed runners all see the same drifted data.
//!
//! The test set is never drifted: the benchmark measures how well training
//! under drift tracks the *reference* task.

use serde::{Deserialize, Serialize};

use crate::Dataset;

/// A deterministic schedule of distribution shift over training rounds.
///
/// Drift advances in *epochs* of `period_rounds` rounds: rounds
/// `1..=period_rounds` are epoch 0 (identical to the undrifted task — the
/// default knob is observably inert in every mode), rounds
/// `period_rounds+1..=2*period_rounds` are epoch 1, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Drift {
    /// No drift — the default; observably inert.
    #[default]
    None,
    /// Label drift: each epoch rotates every label by one class
    /// (`label → (label + epoch) mod num_classes`), so p(y) — and the
    /// meaning of each class — moves while inputs stay put.
    LabelShift {
        /// Rounds per drift epoch (clamped to at least 1).
        period_rounds: usize,
    },
}

impl Drift {
    /// `true` when the schedule never changes anything (the hot-path guard).
    pub fn is_none(&self) -> bool {
        matches!(self, Drift::None)
    }

    /// The drift epoch a 1-based round falls into.
    fn epoch(period_rounds: usize, round: usize) -> usize {
        round.saturating_sub(1) / period_rounds.max(1)
    }
}

/// The round-`round` view of `data` under `drift`.
///
/// Returns `None` when the view is identical to `data` (no drift, or epoch
/// 0) so callers can keep the borrowed original instead of copying —
/// [`Drift::None`] therefore costs nothing and changes nothing.
pub fn apply_drift(data: &Dataset, drift: Drift, round: usize) -> Option<Dataset> {
    match drift {
        Drift::None => None,
        Drift::LabelShift { period_rounds } => {
            let epoch = Drift::epoch(period_rounds, round);
            if epoch == 0 {
                return None;
            }
            let classes = data.num_classes().max(1);
            let labels = data
                .labels()
                .iter()
                .map(|&label| (label + epoch) % classes)
                .collect();
            Some(Dataset::new(
                data.inputs().clone(),
                labels,
                data.num_classes(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_tensor::Tensor;

    fn toy() -> Dataset {
        let inputs = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[3, 2]).unwrap();
        Dataset::new(inputs, vec![0, 1, 2], 3)
    }

    #[test]
    fn none_and_epoch_zero_are_identity() {
        let data = toy();
        assert!(apply_drift(&data, Drift::None, 500).is_none());
        let label = Drift::LabelShift { period_rounds: 10 };
        assert!(apply_drift(&data, label, 1).is_none());
        assert!(apply_drift(&data, label, 10).is_none());
    }

    #[test]
    fn label_shift_rotates_by_epoch() {
        let data = toy();
        let drift = Drift::LabelShift { period_rounds: 2 };
        let e1 = apply_drift(&data, drift, 3).unwrap();
        assert_eq!(e1.labels(), &[1, 2, 0]);
        assert_eq!(e1.inputs(), data.inputs(), "inputs untouched");
        let e2 = apply_drift(&data, drift, 5).unwrap();
        assert_eq!(e2.labels(), &[2, 0, 1]);
    }
}
