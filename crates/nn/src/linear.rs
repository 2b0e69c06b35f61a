//! Fully-connected layer.

use mhfl_tensor::{SeededRng, Tensor};

use crate::layer::{check_grad_shape, join_name};
use crate::{AxisRole, Layer, NnError, Param, Result};

/// A fully-connected (affine) layer: `y = x Wᵀ + b`.
///
/// * `weight` has shape `[out_features, in_features]` with axis roles
///   `[OutFeatures, InFeatures]` — both axes participate in width scaling.
/// * `bias` has shape `[out_features]` with role `[OutFeatures]`.
///
/// Layers used as classifier heads should be constructed with
/// [`Linear::new_head`], which marks the output axis `Fixed` so sub-model
/// extraction never drops classes.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    /// A training forward's input and its output shape.
    cached: Option<(Tensor, Vec<usize>)>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Self::with_roles(in_features, out_features, AxisRole::OutFeatures, rng)
    }

    /// Creates a classifier-head linear layer whose output dimension (the
    /// number of classes) is never sliced by width-heterogeneous extraction.
    pub fn new_head(in_features: usize, num_classes: usize, rng: &mut SeededRng) -> Self {
        Self::with_roles(in_features, num_classes, AxisRole::Fixed, rng)
    }

    fn with_roles(
        in_features: usize,
        out_features: usize,
        out_role: AxisRole,
        rng: &mut SeededRng,
    ) -> Self {
        let weight = Param::new(
            "weight",
            Tensor::kaiming(&[out_features, in_features], in_features, rng),
            vec![out_role, AxisRole::InFeatures],
        );
        let bias = Param::new("bias", Tensor::zeros(&[out_features]), vec![out_role]);
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cached: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Accumulates the weight and bias gradients of the last training
    /// forward, as [`Layer::backward`] does bit for bit, without building the
    /// input gradient: for a layer whose caller discards it, such as a stem.
    /// `dW += dYᵀ X` and `db += colsum(dY)`, without materialising `dYᵀ`.
    ///
    /// # Errors
    /// [`NnError::MissingForwardCache`] without a training forward, and
    /// [`NnError::BadInput`] for a gradient not shaped like the forward's
    /// output; neither moves a gradient.
    pub fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let (input, out_dims) = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Linear".into()))?;
        check_grad_shape("Linear", grad_output, out_dims)?;
        self.weight.grad.axpy(1.0, &grad_output.matmul_tn(input)?)?;
        self.bias.grad.axpy(1.0, &grad_output.col_sums()?)?;
        Ok(())
    }
}

/// A rank-3 `[batch, seq, features]` input or gradient goes through the
/// products as the `[batch·seq, features]` matrix it already is in memory,
/// with no copy.
impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let dims = input.dims();
        if !matches!(dims.len(), 2 | 3) {
            return Err(NnError::BadInput {
                layer: "Linear".into(),
                expected: "rank-2 [batch, features] or rank-3 [batch, seq, features] input".into(),
                got: dims.to_vec(),
            });
        }
        if dims[dims.len() - 1] != self.in_features {
            return Err(NnError::BadInput {
                layer: "Linear".into(),
                expected: format!("{} input features", self.in_features),
                got: dims.to_vec(),
            });
        }
        // y = x Wᵀ via the transpose-aware kernel: no explicit Wᵀ is ever
        // materialised.
        let out = input
            .matmul_nt(&self.weight.value)?
            .add_row_broadcast(&self.bias.value)?;
        self.cached = train.then(|| (input.clone(), out.dims().to_vec()));
        Ok(out)
    }

    /// `dX = dY W` after [`Linear::backward_params`]' accumulation.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_output)?;
        Ok(grad_output.matmul(&self.weight.value)?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "weight"), &self.weight);
        f(&join_name(prefix, "bias"), &self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::num_params_of;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = SeededRng::new(0);
        let mut lin = Linear::new(2, 3, &mut rng);
        // Overwrite with known values.
        lin.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5, 0.0], &[3]).unwrap();
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        let y = lin.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn backward_gradient_check() {
        // Finite-difference check of dL/dW and dL/dx for L = sum(y).
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let y = lin.forward(&x, true).unwrap();
        let dx = lin.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 1e-3;
        // dL/dx[0,0] via finite differences.
        let mut x_plus = x.clone();
        x_plus.as_mut_slice()[0] += eps;
        let mut x_minus = x.clone();
        x_minus.as_mut_slice()[0] -= eps;
        let f_plus = lin.forward(&x_plus, true).unwrap().sum();
        let f_minus = lin.forward(&x_minus, true).unwrap().sum();
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (dx.as_slice()[0] - numeric).abs() < 1e-2,
            "{} vs {numeric}",
            dx.as_slice()[0]
        );

        // dL/dW[0,0] via finite differences.
        let analytic_dw = lin.weight.grad.as_slice()[0];
        lin.weight.value.as_mut_slice()[0] += eps;
        let f_plus = lin.forward(&x, true).unwrap().sum();
        lin.weight.value.as_mut_slice()[0] -= 2.0 * eps;
        let f_minus = lin.forward(&x, true).unwrap().sum();
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (analytic_dw - numeric).abs() < 1e-2,
            "{analytic_dw} vs {numeric}"
        );
    }

    /// `backward_params` accumulates what `backward` does, bit for bit, onto
    /// non-zero prior gradients.
    #[test]
    fn params_only_backward_matches_backward_bitwise() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SeededRng::new(6);
        for dims in [&[5, 7][..], &[3, 4, 7]] {
            let mut lin = Linear::new(7, 17, &mut rng);
            lin.bias.value = Tensor::randn(&[17], 1.0, &mut rng);
            lin.weight.grad = Tensor::randn(&[17, 7], 1.0, &mut rng);
            lin.bias.grad = Tensor::randn(&[17], 1.0, &mut rng);
            let mut twin = Linear {
                weight: lin.weight.clone(),
                bias: lin.bias.clone(),
                cached: None,
                ..lin
            };
            let x = Tensor::randn(dims, 1.0, &mut rng);
            let mut dy_dims = dims.to_vec();
            dy_dims[dims.len() - 1] = 17;
            let mut dy = Tensor::randn(&dy_dims, 1.0, &mut rng);
            dy.as_mut_slice()
                .iter_mut()
                .step_by(4)
                .for_each(|g| *g = 0.0);
            lin.forward(&x, true).unwrap();
            let dx = lin.backward(&dy).unwrap();
            assert_eq!(dx.dims(), dims);
            twin.forward(&x, true).unwrap();
            twin.backward_params(&dy).unwrap();
            assert_eq!(bits(&twin.weight.grad), bits(&lin.weight.grad), "{dims:?}");
            assert_eq!(bits(&twin.bias.grad), bits(&lin.bias.grad), "{dims:?}");
        }
    }

    #[test]
    fn head_marks_output_axis_fixed() {
        let mut rng = SeededRng::new(2);
        let head = Linear::new_head(8, 10, &mut rng);
        head.visit_params("", &mut |name, p| {
            if name == "weight" {
                assert_eq!(p.roles[0], AxisRole::Fixed);
                assert_eq!(p.roles[1], AxisRole::InFeatures);
            }
        });
        let body = Linear::new(8, 10, &mut rng);
        body.visit_params("", &mut |name, p| {
            if name == "weight" {
                assert_eq!(p.roles[0], AxisRole::OutFeatures);
            }
        });
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(4, 2, &mut rng);
        assert!(lin.forward(&Tensor::zeros(&[2, 3]), true).is_err());
        assert!(lin.forward(&Tensor::zeros(&[2]), true).is_err());
    }

    #[test]
    fn three_dimensional_input_support() {
        let mut rng = SeededRng::new(4);
        let mut lin = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(&[2, 5, 6], 1.0, &mut rng);
        let y = lin.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 5, 4]);
        let dx = lin.backward(&Tensor::ones(&[2, 5, 4])).unwrap();
        assert_eq!(dx.dims(), &[2, 5, 6]);
    }

    #[test]
    fn param_count() {
        let mut rng = SeededRng::new(5);
        let lin = Linear::new(7, 3, &mut rng);
        assert_eq!(num_params_of(&lin), 7 * 3 + 3);
    }
}
