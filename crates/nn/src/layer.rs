//! The [`Layer`] trait, the [`Sequential`] container and state-dict plumbing.

use mhfl_tensor::Tensor;

use crate::{NnError, Param, ParamSpec, Result, StateDict};

/// Joins a parameter-name prefix with a local name using `.` separators.
pub(crate) fn join_name(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Refuses a gradient whose shape is not the forward's output shape. Every
/// layer calls it before it touches a parameter gradient.
pub(crate) fn check_grad_shape(
    layer: &str,
    grad_output: &Tensor,
    expected: &[usize],
) -> Result<()> {
    if grad_output.dims() == expected {
        return Ok(());
    }
    Err(NnError::BadInput {
        layer: layer.into(),
        expected: format!("gradient of shape {expected:?}"),
        got: grad_output.dims().to_vec(),
    })
}

/// A differentiable module with named parameters.
///
/// Layers cache whatever they need during [`Layer::forward`] so that
/// [`Layer::backward`] can compute input gradients and accumulate parameter
/// gradients without a global autograd tape. This is sufficient (and much
/// simpler) for the feed-forward proxy models used in the benchmark.
pub trait Layer {
    /// Runs the layer on `input`. A training forward (`train == true`)
    /// caches what the backward pass needs; an evaluation forward returns
    /// the same output bit for bit and caches nothing, so a
    /// [`Layer::backward`] after it is [`NnError::MissingForwardCache`].
    ///
    /// # Errors
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Propagates `grad_output` backwards, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Errors
    /// Returns an error if called without a training [`Layer::forward`]
    /// before it, or on a gradient of unexpected shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Visits every parameter with its fully-qualified name.
    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param));

    /// Visits every parameter mutably, without names, in the order of
    /// [`Layer::visit_params`]. The hot mutable walks ([`Layer::zero_grad`],
    /// [`crate::Sgd::step`]) read no names, so none are built;
    /// [`load_state_dict`] pairs this walk with the named one by position.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }
}

/// Extracts a [`StateDict`] (clone of every parameter value) from a layer tree.
pub fn state_dict_of(layer: &dyn Layer, prefix: &str) -> StateDict {
    let mut sd = StateDict::new();
    layer.visit_params(prefix, &mut |name, p| sd.insert(name, p.value.clone()));
    sd
}

/// Loads parameter values from a state dict into a layer tree.
///
/// Every parameter of the layer must be present in the dict with a matching
/// shape; extra entries in the dict are ignored (they may belong to deeper
/// models the sub-model was extracted from).
///
/// # Errors
/// Returns [`NnError::MissingParam`] or [`NnError::ParamShapeMismatch`].
pub fn load_state_dict(layer: &mut dyn Layer, prefix: &str, sd: &StateDict) -> Result<()> {
    // The named walk picks each parameter's source up to the first failure;
    // the name-free walk, which visits the same parameters in the same
    // order, then loads those, as a single walk that stops there would.
    let mut failure: Option<NnError> = None;
    let mut sources = Vec::new();
    layer.visit_params(prefix, &mut |name, p| {
        if failure.is_some() {
            return;
        }
        match sd.get(name) {
            None => failure = Some(NnError::MissingParam(name.to_string())),
            Some(t) if t.dims() != p.value.dims() => {
                failure = Some(NnError::ParamShapeMismatch {
                    name: name.to_string(),
                    expected: p.value.dims().to_vec(),
                    got: t.dims().to_vec(),
                })
            }
            Some(t) => sources.push(t),
        }
    });
    let mut sources = sources.into_iter();
    layer.visit_params_mut(&mut |p| {
        if let Some(t) = sources.next() {
            p.value = t.clone();
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Collects [`ParamSpec`]s (names, shapes, axis roles) for a layer tree.
pub fn param_specs_of(layer: &dyn Layer, prefix: &str) -> Vec<ParamSpec> {
    let mut specs = Vec::new();
    layer.visit_params(prefix, &mut |name, p| {
        specs.push(ParamSpec {
            name: name.to_string(),
            shape: p.value.dims().to_vec(),
            roles: p.roles.clone(),
        });
    });
    specs
}

/// Total number of scalar parameters in a layer tree.
pub fn num_params_of(layer: &dyn Layer) -> usize {
    let mut n = 0;
    layer.visit_params("", &mut |_, p| n += p.len());
    n
}

/// An ordered container of named sub-layers executed in sequence.
///
/// ```
/// use mhfl_nn::{Linear, Relu, Sequential, Layer};
/// use mhfl_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut net = Sequential::new();
/// net.push("fc1", Linear::new(4, 8, &mut rng));
/// net.push("act", Relu::new());
/// net.push("fc2", Linear::new(8, 2, &mut rng));
/// let out = net.forward(&Tensor::zeros(&[3, 4]), true)?;
/// assert_eq!(out.dims(), &[3, 2]);
/// # Ok::<(), mhfl_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<(String, Box<dyn Layer>)>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a named sub-layer.
    pub fn push(&mut self, name: impl Into<String>, layer: impl Layer + 'static) {
        self.layers.push((name.into(), Box::new(layer)));
    }

    /// Number of sub-layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container has no sub-layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of the sub-layers in execution order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut current = input.clone();
        for (_, layer) in self.layers.iter_mut() {
            current = layer.forward(&current, train)?;
        }
        Ok(current)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut grad = grad_output.clone();
        for (_, layer) in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        for (name, layer) in &self.layers {
            layer.visit_params(&join_name(prefix, name), f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for (_, layer) in self.layers.iter_mut() {
            layer.visit_params_mut(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use mhfl_tensor::SeededRng;

    fn small_net(rng: &mut SeededRng) -> Sequential {
        let mut net = Sequential::new();
        net.push("fc1", Linear::new(3, 5, rng));
        net.push("act", Relu::new());
        net.push("fc2", Linear::new(5, 2, rng));
        net
    }

    #[test]
    fn sequential_forward_backward_shapes() {
        let mut rng = SeededRng::new(1);
        let mut net = small_net(&mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        let dx = net.backward(&Tensor::ones(&[4, 2])).unwrap();
        assert_eq!(dx.dims(), &[4, 3]);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = SeededRng::new(2);
        let mut net = small_net(&mut rng);
        let sd = state_dict_of(&net, "");
        assert!(sd.contains("fc1.weight"));
        assert!(sd.contains("fc2.bias"));
        assert_eq!(sd.len(), 4);

        // Perturb then restore.
        net.visit_params_mut(&mut |p| p.value.scale_inplace(0.0));
        load_state_dict(&mut net, "", &sd).unwrap();
        let restored = state_dict_of(&net, "");
        assert_eq!(restored, sd);
    }

    #[test]
    fn load_reports_missing_and_mismatched() {
        let mut rng = SeededRng::new(3);
        let mut net = small_net(&mut rng);
        let empty = StateDict::new();
        assert!(matches!(
            load_state_dict(&mut net, "", &empty),
            Err(NnError::MissingParam(_))
        ));

        let mut bad = state_dict_of(&net, "");
        bad.insert("fc1.weight", Tensor::zeros(&[1, 1]));
        assert!(matches!(
            load_state_dict(&mut net, "", &bad),
            Err(NnError::ParamShapeMismatch { .. })
        ));
    }

    #[test]
    fn param_specs_and_counts() {
        let mut rng = SeededRng::new(4);
        let net = small_net(&mut rng);
        let specs = param_specs_of(&net, "model");
        assert!(specs.iter().any(|s| s.name == "model.fc1.weight"));
        let total: usize = specs.iter().map(ParamSpec::numel).sum();
        assert_eq!(total, num_params_of(&net));
        assert_eq!(total, 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut rng = SeededRng::new(5);
        let mut net = small_net(&mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        net.backward(&Tensor::ones(y.dims())).unwrap();
        let mut nonzero = 0;
        net.visit_params("", &mut |_, p| {
            if p.grad.norm() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 0);
        net.zero_grad();
        net.visit_params("", &mut |_, p| assert_eq!(p.grad.norm(), 0.0));
    }
}
