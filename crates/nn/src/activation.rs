//! Parameter-free activation layers.

use mhfl_tensor::{math, Tensor};

use crate::layer::check_grad_shape;
use crate::{Layer, NnError, Param, Result};

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    /// A training forward's input.
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.cached_input = train.then(|| input.clone());
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Relu".into()))?;
        check_grad_shape("Relu", grad_output, input.dims())?;
        Ok(grad_output.zip_with(input, |g, x| if x > 0.0 { g } else { 0.0 })?)
    }

    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// `sqrt(2 / pi)`, the scale inside GELU's `tanh`.
const GELU_C: f32 = 0.797_884_6;

/// Gaussian error linear unit (tanh approximation), used by the transformer
/// and ALBERT proxy models.
#[derive(Debug, Default)]
pub struct Gelu {
    /// A training forward's derivative, per element.
    cached_grad: Option<Tensor>,
}

impl Gelu {
    /// Creates a new GELU layer.
    pub fn new() -> Self {
        Gelu { cached_grad: None }
    }

    fn gelu(x: f32, t: f32) -> f32 {
        0.5 * x * (1.0 + t)
    }

    /// The derivative at `x`, given `t = tanh(C·(x + 0.044715·x³))`.
    fn gelu_grad(x: f32, t: f32) -> f32 {
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044_715 * x * x)
    }
}

impl Layer for Gelu {
    /// Every element's `tanh` comes from one [`math::tanh_slice`] over the
    /// output buffer, for both the output and, in training, the derivative
    /// cached for the backward.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let xs = input.as_slice();
        let mut out: Vec<f32> = xs
            .iter()
            .map(|&x| GELU_C * (x + 0.044_715 * x * x * x))
            .collect();
        math::tanh_slice(&mut out);
        self.cached_grad = if train {
            let grad = xs.iter().zip(&out).map(|(&x, &t)| Self::gelu_grad(x, t));
            Some(Tensor::from_vec(grad.collect(), input.dims())?)
        } else {
            None
        };
        for (t, &x) in out.iter_mut().zip(xs) {
            *t = Self::gelu(x, *t);
        }
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let grad = self
            .cached_grad
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Gelu".into()))?;
        check_grad_shape("Gelu", grad_output, grad.dims())?;
        Ok(grad_output.zip_with(grad, |g, d| g * d)?)
    }

    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Hyperbolic tangent activation, used by the HAR CNN proxy.
#[derive(Debug, Default)]
pub struct Tanh {
    /// A training forward's output.
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a new Tanh layer.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut out = input.clone();
        math::tanh_slice(out.as_mut_slice());
        self.cached_output = train.then(|| out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let out = self
            .cached_output
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Tanh".into()))?;
        check_grad_shape("Tanh", grad_output, out.dims())?;
        Ok(grad_output.zip_with(out, |g, y| g * (1.0 - y * y))?)
    }

    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_tensor::SeededRng;

    fn finite_diff(layer: &mut dyn Layer, x: &Tensor, idx: usize) -> f32 {
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let fp = layer.forward(&xp, true).unwrap().sum();
        let fm = layer.forward(&xm, true).unwrap().sum();
        (fp - fm) / (2.0 * eps)
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let dx = relu.backward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::ones(&[1])).is_err());
        let mut gelu = Gelu::new();
        assert!(gelu.backward(&Tensor::ones(&[1])).is_err());
        let mut tanh = Tanh::new();
        assert!(tanh.backward(&Tensor::ones(&[1])).is_err());
    }

    #[test]
    fn gelu_gradient_check() {
        let mut rng = SeededRng::new(0);
        let x = Tensor::randn(&[6], 1.0, &mut rng);
        let mut gelu = Gelu::new();
        gelu.forward(&x, true).unwrap();
        let dx = gelu.backward(&Tensor::ones(&[6])).unwrap();
        for i in 0..x.len() {
            let numeric = finite_diff(&mut gelu, &x, i);
            assert!((dx.as_slice()[i] - numeric).abs() < 1e-2);
        }
    }

    /// The backward over the forward's cached derivative is bit-identical to
    /// the formula that recomputed the `tanh`.
    #[test]
    #[allow(clippy::disallowed_methods)] // libm's `tanh` is the reference
    fn gelu_backward_matches_the_recomputing_formula_bitwise() {
        fn recomputed(x: f32) -> f32 {
            const C: f32 = 0.797_884_6;
            let inner = C * (x + 0.044_715 * x * x * x);
            let t = inner.tanh();
            let sech2 = 1.0 - t * t;
            0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
        }
        let mut rng = SeededRng::new(5);
        let mut values = vec![0.0, 1e-30, 0.5, 3.0, 40.0];
        values.extend(values.clone().iter().map(|v: &f32| -v));
        values.extend(Tensor::randn(&[64], 2.0, &mut rng).as_slice());
        let x = Tensor::from_vec(values.clone(), &[values.len()]).unwrap();
        let g = Tensor::randn(&[values.len()], 1.0, &mut rng);
        let mut gelu = Gelu::new();
        let y = gelu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), gelu.forward(&x, false).unwrap().as_slice());
        gelu.forward(&x, true).unwrap();
        let dx = gelu.backward(&g).unwrap();
        for ((&x, &g), &dx) in values.iter().zip(g.as_slice()).zip(dx.as_slice()) {
            assert_eq!(dx.to_bits(), (g * recomputed(x)).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn gelu_backward_after_an_evaluation_forward_errors() {
        let mut gelu = Gelu::new();
        gelu.forward(&Tensor::ones(&[2]), false).unwrap();
        assert!(gelu.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn tanh_gradient_check() {
        let mut rng = SeededRng::new(1);
        let x = Tensor::randn(&[5], 1.0, &mut rng);
        let mut tanh = Tanh::new();
        tanh.forward(&x, true).unwrap();
        let dx = tanh.backward(&Tensor::ones(&[5])).unwrap();
        for i in 0..x.len() {
            let numeric = finite_diff(&mut tanh, &x, i);
            assert!((dx.as_slice()[i] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    fn activations_have_no_params() {
        let relu = Relu::new();
        let mut count = 0;
        relu.visit_params("", &mut |_, _| count += 1);
        assert_eq!(count, 0);
    }
}
