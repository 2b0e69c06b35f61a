//! Named parameters and the axis-role metadata used by sub-model extraction.

use mhfl_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The semantic role of one axis of a parameter tensor.
///
/// Width-heterogeneous algorithms (Fjord, SHeteroFL, FedRolex) shrink a model
/// by selecting a subset of feature channels. To do so generically they must
/// know, for every parameter, which axes index output features (rows of a
/// weight matrix, output channels of a convolution) and which index input
/// features. Axes that must never be sliced — e.g. the class dimension of the
/// final classifier or a convolution's spatial kernel axes — are `Fixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AxisRole {
    /// Axis indexes output features/channels; scaled with model width.
    OutFeatures,
    /// Axis indexes input features/channels; scaled with the previous layer's width.
    InFeatures,
    /// Axis must keep its full extent in every sub-model.
    Fixed,
}

/// A trainable parameter: value, accumulated gradient and axis metadata.
#[derive(Debug, Clone)]
pub struct Param {
    /// Local (unqualified) parameter name, e.g. `"weight"`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Role of each axis of `value`.
    pub roles: Vec<AxisRole>,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    ///
    /// # Panics
    /// Panics if `roles.len()` differs from the tensor rank — that is a
    /// programming error in layer construction, not a runtime condition.
    pub fn new(name: impl Into<String>, value: Tensor, roles: Vec<AxisRole>) -> Self {
        assert_eq!(
            roles.len(),
            value.rank(),
            "axis roles must cover every dimension of the parameter"
        );
        let grad = Tensor::zeros(value.dims());
        Param {
            name: name.into(),
            value,
            grad,
            roles,
        }
    }

    /// Resets the accumulated gradient to `+0.0`, in place when it already
    /// has the value's shape.
    pub fn zero_grad(&mut self) {
        if self.grad.dims() == self.value.dims() {
            self.grad.as_mut_slice().fill(0.0);
        } else {
            self.grad = Tensor::zeros(self.value.dims());
        }
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A lightweight description of a parameter: its fully-qualified name, shape
/// and axis roles. Used by the device cost model and the extraction planners
/// without holding the actual values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Fully qualified parameter name, e.g. `"block2.conv1.weight"`.
    pub name: String,
    /// Full-model shape of the parameter.
    pub shape: Vec<usize>,
    /// Role of each axis.
    pub roles: Vec<AxisRole>,
}

impl ParamSpec {
    /// Number of scalar elements described by the spec.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Returns `true` if any axis is width-scalable.
    pub fn is_width_scalable(&self) -> bool {
        self.roles
            .iter()
            .any(|r| matches!(r, AxisRole::OutFeatures | AxisRole::InFeatures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_and_zero_grad() {
        let mut p = Param::new(
            "weight",
            Tensor::ones(&[4, 3]),
            vec![AxisRole::OutFeatures, AxisRole::InFeatures],
        );
        assert_eq!(p.grad.dims(), &[4, 3]);
        p.grad = Tensor::ones(&[4, 3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 12);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "axis roles")]
    fn param_rejects_role_mismatch() {
        let _ = Param::new("w", Tensor::ones(&[2, 2]), vec![AxisRole::Fixed]);
    }

    #[test]
    fn spec_helpers() {
        let spec = ParamSpec {
            name: "head.weight".into(),
            shape: vec![10, 64],
            roles: vec![AxisRole::Fixed, AxisRole::InFeatures],
        };
        assert_eq!(spec.numel(), 640);
        assert!(spec.is_width_scalable());
        let fixed = ParamSpec {
            name: "norm.beta".into(),
            shape: vec![10],
            roles: vec![AxisRole::Fixed],
        };
        assert!(!fixed.is_width_scalable());
    }
}
