//! Stochastic gradient descent with momentum and weight decay.

use std::collections::HashMap;

use mhfl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{Layer, Result};

/// Hyper-parameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
    /// Optional elementwise gradient clipping threshold.
    pub grad_clip: Option<f32>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            grad_clip: Some(5.0),
        }
    }
}

/// Stochastic gradient descent optimiser.
///
/// Velocity buffers are keyed by fully-qualified parameter name, so the same
/// optimiser instance keeps working when a client's sub-model changes shape
/// between rounds (stale buffers with mismatched shapes are reset).
///
/// ```
/// use mhfl_nn::{Linear, Layer, Sgd, SgdConfig};
/// use mhfl_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut layer = Linear::new(4, 2, &mut rng);
/// let mut opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });
/// let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
/// let y = layer.forward(&x, true)?;
/// layer.backward(&y)?; // pretend gradient
/// opt.step(&mut layer)?;
/// # Ok::<(), mhfl_nn::NnError>(())
/// ```
#[derive(Debug, Default)]
pub struct Sgd {
    config: SgdConfig,
    velocity: HashMap<String, Tensor>,
}

impl Sgd {
    /// Creates an optimiser with the given configuration.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocity: HashMap::new(),
        }
    }

    /// The optimiser's configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Applies one update step to every parameter of `layer` using the
    /// gradients accumulated since the last [`Layer::zero_grad`].
    ///
    /// # Errors
    /// Propagates tensor shape errors (which indicate a bug in layer code).
    pub fn step(&mut self, layer: &mut dyn Layer) -> Result<()> {
        let config = self.config;
        let velocity = &mut self.velocity;
        let mut failure = None;
        layer.visit_params_mut("", &mut |name, p| {
            if failure.is_some() {
                return;
            }
            let mut grad = p.grad.clone();
            if let Some(clip) = config.grad_clip {
                grad = grad.clamp_abs(clip);
            }
            if config.weight_decay != 0.0 {
                if let Err(e) = grad.axpy(config.weight_decay, &p.value) {
                    failure = Some(e.into());
                    return;
                }
            }
            let v = velocity
                .entry(name.to_string())
                .and_modify(|v| {
                    if v.dims() != grad.dims() {
                        *v = Tensor::zeros(grad.dims());
                    }
                })
                .or_insert_with(|| Tensor::zeros(grad.dims()));
            v.scale_inplace(config.momentum);
            if let Err(e) = v.axpy(1.0, &grad) {
                failure = Some(e.into());
                return;
            }
            if let Err(e) = p.value.axpy(-config.lr, v) {
                failure = Some(e.into());
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Forgets all velocity state (used when a client receives a sub-model of
    /// a different shape than the previous round).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;
    use crate::{Linear, Relu, Sequential};
    use mhfl_tensor::SeededRng;

    #[test]
    fn sgd_decreases_loss_on_toy_problem() {
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new();
        net.push("fc1", Linear::new(2, 16, &mut rng));
        net.push("act", Relu::new());
        net.push("fc2", Linear::new_head(16, 2, &mut rng));
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.2,
            momentum: 0.9,
            weight_decay: 0.0,
            grad_clip: None,
        });

        // XOR-ish separable toy data.
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let labels = [0usize, 1, 1, 0];

        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            net.zero_grad();
            let logits = net.forward(&x, true).unwrap();
            let (loss, grad) = cross_entropy(&logits, &labels).unwrap();
            net.backward(&grad).unwrap();
            opt.step(&mut net).unwrap();
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not decrease enough: {last_loss}"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(3, 3, &mut rng);
        let before: f32 = {
            let mut norm = 0.0;
            lin.visit_params("", &mut |_, p| norm += p.value.norm_sq());
            norm
        };
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
            grad_clip: None,
        });
        opt.step(&mut lin).unwrap();
        let after: f32 = {
            let mut norm = 0.0;
            lin.visit_params("", &mut |_, p| norm += p.value.norm_sq());
            norm
        };
        assert!(after < before);
    }

    #[test]
    fn velocity_resets_on_shape_change() {
        let mut rng = SeededRng::new(2);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut small = Linear::new(2, 2, &mut rng);
        small.visit_params_mut("", &mut |_, p| p.grad = Tensor::ones(p.value.dims()));
        opt.step(&mut small).unwrap();
        // Same parameter names, different shapes — must not panic.
        let mut large = Linear::new(4, 4, &mut rng);
        large.visit_params_mut("", &mut |_, p| p.grad = Tensor::ones(p.value.dims()));
        opt.step(&mut large).unwrap();
        opt.reset();
        assert!(opt.velocity.is_empty());
    }

    #[test]
    fn grad_clip_limits_update_magnitude() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(1, 1, &mut rng);
        lin.visit_params_mut("", &mut |_, p| {
            p.grad = Tensor::full(p.value.dims(), 1000.0)
        });
        let before = {
            let mut v = Vec::new();
            lin.visit_params("", &mut |_, p| v.push(p.value.as_slice()[0]));
            v
        };
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            grad_clip: Some(1.0),
        });
        opt.step(&mut lin).unwrap();
        let after = {
            let mut v = Vec::new();
            lin.visit_params("", &mut |_, p| v.push(p.value.as_slice()[0]));
            v
        };
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() <= 1.0 + 1e-6);
        }
    }
}
