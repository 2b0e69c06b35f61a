//! Stochastic gradient descent with momentum and weight decay.

use mhfl_tensor::{Tensor, TensorError};
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
/// Velocity buffers are kept by position in the layer's parameter visit
/// order, so one step makes one pass over each parameter and allocates
/// nothing after the first. The same optimiser instance keeps working when
/// a client's sub-model changes shape between rounds: a buffer whose shape
/// no longer matches its parameter is reset to zero.
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
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimiser with the given configuration.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocity: Vec::new(),
        }
    }

    /// The optimiser's configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Applies one update step to every parameter of `layer` using the
    /// gradients accumulated since the last [`Layer::zero_grad`].
    ///
    /// Each element takes, in this order: the gradient clip, the weight
    /// decay `g += weight_decay · w` (skipped when it is 0), the momentum
    /// `v = v · momentum + g`, and the update `w += -lr · v`.
    ///
    /// # Errors
    /// A gradient whose shape differs from its parameter's (a bug in layer
    /// code) is a tensor shape error; parameters visited before it have
    /// been updated.
    pub fn step(&mut self, layer: &mut dyn Layer) -> Result<()> {
        let config = self.config;
        let velocity = &mut self.velocity;
        let mut index = 0;
        let mut failure = None;
        layer.visit_params_mut(&mut |p| {
            if failure.is_some() {
                return;
            }
            if p.grad.dims() != p.value.dims() {
                failure = Some(TensorError::ShapeMismatch {
                    left: p.grad.dims().to_vec(),
                    right: p.value.dims().to_vec(),
                    op: "sgd_step",
                });
                return;
            }
            if index == velocity.len() {
                velocity.push(Tensor::zeros(p.value.dims()));
            } else if velocity[index].dims() != p.value.dims() {
                velocity[index] = Tensor::zeros(p.value.dims());
            }
            let v = velocity[index].as_mut_slice();
            index += 1;
            // Bound in the closure, not captured by reference, so the loop
            // keeps them in registers and vectorises.
            let SgdConfig {
                lr,
                momentum,
                weight_decay,
                grad_clip,
            } = config;
            let values = p.value.as_mut_slice().iter_mut();
            for ((w, &g), v) in values.zip(p.grad.as_slice()).zip(v) {
                let mut g = g;
                if let Some(clip) = grad_clip {
                    g = g.clamp(-clip, clip);
                }
                if weight_decay != 0.0 {
                    g += weight_decay * *w;
                }
                *v *= momentum;
                *v += 1.0 * g;
                *w += -lr * *v;
            }
        });
        match failure {
            Some(e) => Err(e.into()),
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
    use std::collections::HashMap;

    use crate::loss::cross_entropy;
    use crate::{Linear, Relu, Sequential};
    use mhfl_tensor::SeededRng;

    /// The unfused step, velocity keyed by parameter name: a clipped copy of
    /// each gradient, then weight decay, momentum and the update, each a
    /// whole-tensor pass. `Sgd::step` must match it bit for bit.
    fn reference_step(
        config: SgdConfig,
        velocity: &mut HashMap<String, Tensor>,
        layer: &mut dyn Layer,
    ) -> Result<()> {
        let mut names = Vec::new();
        layer.visit_params("", &mut |name, _| names.push(name.to_string()));
        let mut names = names.into_iter();
        let mut failure = None;
        layer.visit_params_mut(&mut |p| {
            let name = names.next().expect("one name per parameter");
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
                .entry(name)
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

    fn bits(layer: &dyn Layer) -> Vec<u32> {
        let mut bits = Vec::new();
        layer.visit_params("", &mut |_, p| {
            bits.extend(p.value.as_slice().iter().map(|x| x.to_bits()))
        });
        bits
    }

    /// `fc2.weight` has 143 elements, an odd count past 100, so the step's
    /// vectorised loop runs both its body and its scalar tail.
    fn net(rng: &mut SeededRng) -> Sequential {
        let mut net = Sequential::new();
        net.push("fc1", Linear::new(5, 13, rng));
        net.push("act1", Relu::new());
        net.push("fc2", Linear::new(13, 11, rng));
        net.push("act2", Relu::new());
        net.push("fc3", Linear::new_head(11, 3, rng));
        net
    }

    #[test]
    fn fused_step_matches_the_reference_bitwise() {
        for grad_clip in [None, Some(1.5)] {
            for weight_decay in [0.0, 1e-4] {
                for momentum in [0.0, 0.9] {
                    let config = SgdConfig {
                        lr: 0.05,
                        momentum,
                        weight_decay,
                        grad_clip,
                    };
                    let mut rng = SeededRng::new(11);
                    let mut fused = net(&mut rng);
                    let mut reference = net(&mut SeededRng::new(11));
                    let mut opt = Sgd::new(config);
                    let mut velocity = HashMap::new();
                    for _ in 0..3 {
                        // Gradients beyond the clip, with signed zeros and
                        // a sign that flips between steps.
                        let mut grads = Vec::new();
                        fused.visit_params_mut(&mut |p| {
                            let mut g = Tensor::randn(p.value.dims(), 3.0, &mut rng);
                            for (i, x) in g.as_mut_slice().iter_mut().enumerate() {
                                match i % 5 {
                                    0 => *x = 0.0,
                                    1 => *x = -0.0,
                                    _ => {}
                                }
                            }
                            p.grad = g.clone();
                            grads.push(g);
                        });
                        let mut grads = grads.into_iter();
                        reference.visit_params_mut(&mut |p| p.grad = grads.next().unwrap());
                        opt.step(&mut fused).unwrap();
                        reference_step(config, &mut velocity, &mut reference).unwrap();
                        assert_eq!(bits(&fused), bits(&reference), "{config:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_grad_after_a_backward_leaves_positive_zeros() {
        let mut rng = SeededRng::new(12);
        let mut net = net(&mut rng);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let logits = net.forward(&x, true).unwrap();
        let (_, grad) = cross_entropy(&logits, &[0, 1, 2, 0]).unwrap();
        net.backward(&grad).unwrap();
        let mut nonzero = 0;
        net.visit_params("", &mut |_, p| {
            nonzero += p.grad.as_slice().iter().filter(|g| **g != 0.0).count()
        });
        assert!(nonzero > 0);
        net.zero_grad();
        net.visit_params("", &mut |_, p| {
            assert!(p.grad.as_slice().iter().all(|g| g.to_bits() == 0));
            assert_eq!(p.grad.dims(), p.value.dims());
        });
    }

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
        small.visit_params_mut(&mut |p| p.grad = Tensor::ones(p.value.dims()));
        opt.step(&mut small).unwrap();
        // Same parameter names, different shapes — must not panic.
        let mut large = Linear::new(4, 4, &mut rng);
        large.visit_params_mut(&mut |p| p.grad = Tensor::ones(p.value.dims()));
        opt.step(&mut large).unwrap();
        opt.reset();
        assert!(opt.velocity.is_empty());
    }

    #[test]
    fn grad_clip_limits_update_magnitude() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(1, 1, &mut rng);
        lin.visit_params_mut(&mut |p| p.grad = Tensor::full(p.value.dims(), 1000.0));
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
