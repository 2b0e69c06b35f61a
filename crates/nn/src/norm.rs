//! Normalisation layers.
//!
//! Two flavours are provided, both *batch-independent* so that federated
//! aggregation never has to reconcile running statistics across clients (the
//! strategy HeteroFL's static batch-norm motivates):
//!
//! * [`LayerNorm`] — normalises over the trailing feature dimension, used by
//!   the dense, transformer and ALBERT proxy blocks;
//! * [`ChannelNorm2d`] — instance normalisation over the spatial extent of
//!   each channel, used by the convolutional (ResNet/MobileNet-like) proxies.

use mhfl_tensor::Tensor;

use crate::layer::{check_grad_shape, join_name};
use crate::{AxisRole, Layer, NnError, Param, Result};

const EPS: f32 = 1e-5;

/// Normalises groups of contiguous values and applies a per-position affine
/// transform. Shared implementation detail of both normalisation layers.
#[derive(Debug, Clone)]
struct GroupStats {
    /// Cached normalised values, one entry per input element.
    xhat: Vec<f32>,
    /// Cached reciprocal standard deviation per group.
    inv_std: Vec<f32>,
    group_size: usize,
}

fn normalise_groups(data: &[f32], group_size: usize) -> GroupStats {
    let groups = data.len() / group_size;
    let mut xhat = vec![0.0; data.len()];
    let mut inv_std = vec![0.0; groups];
    for g in 0..groups {
        let slice = &data[g * group_size..(g + 1) * group_size];
        let mean: f32 = slice.iter().sum::<f32>() / group_size as f32;
        let var: f32 =
            slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / group_size as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        inv_std[g] = istd;
        for (i, &x) in slice.iter().enumerate() {
            xhat[g * group_size + i] = (x - mean) * istd;
        }
    }
    GroupStats {
        xhat,
        inv_std,
        group_size,
    }
}

/// Backward pass through group normalisation given upstream gradient w.r.t.
/// the *normalised* values (`d_xhat`). Returns gradient w.r.t. the raw input.
fn normalise_groups_backward(stats: &GroupStats, d_xhat: &[f32]) -> Vec<f32> {
    let n = stats.group_size as f32;
    let groups = d_xhat.len() / stats.group_size;
    let mut dx = vec![0.0; d_xhat.len()];
    for g in 0..groups {
        let lo = g * stats.group_size;
        let hi = lo + stats.group_size;
        let xhat = &stats.xhat[lo..hi];
        let dyh = &d_xhat[lo..hi];
        let sum_dyh: f32 = dyh.iter().sum();
        let sum_dyh_xhat: f32 = dyh.iter().zip(xhat).map(|(a, b)| a * b).sum();
        let istd = stats.inv_std[g];
        for i in 0..stats.group_size {
            dx[lo + i] = istd / n * (n * dyh[i] - sum_dyh - xhat[i] * sum_dyh_xhat);
        }
    }
    dx
}

/// Layer normalisation over the trailing feature dimension of a rank-2
/// `[batch, features]` or rank-3 `[batch, seq, features]` tensor.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    features: usize,
    cache: Option<(GroupStats, Vec<usize>)>,
}

impl LayerNorm {
    /// Creates a layer norm over `features`-sized vectors (γ=1, β=0).
    pub fn new(features: usize) -> Self {
        LayerNorm {
            gamma: Param::new(
                "gamma",
                Tensor::ones(&[features]),
                vec![AxisRole::OutFeatures],
            ),
            beta: Param::new(
                "beta",
                Tensor::zeros(&[features]),
                vec![AxisRole::OutFeatures],
            ),
            features,
            cache: None,
        }
    }

    /// The normalised feature dimension.
    pub fn features(&self) -> usize {
        self.features
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let dims = input.dims().to_vec();
        let last = *dims.last().unwrap_or(&0);
        if !(input.rank() == 2 || input.rank() == 3) || last != self.features {
            return Err(NnError::BadInput {
                layer: "LayerNorm".into(),
                expected: format!("rank-2/3 tensor with trailing dimension {}", self.features),
                got: dims,
            });
        }
        let stats = normalise_groups(input.as_slice(), self.features);
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        let data = stats
            .xhat
            .iter()
            .enumerate()
            .map(|(i, &xh)| g[i % self.features] * xh + b[i % self.features])
            .collect();
        self.cache = Some((stats, dims.clone()));
        Ok(Tensor::from_vec(data, &dims)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (stats, dims) = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("LayerNorm".into()))?;
        check_grad_shape("LayerNorm", grad_output, dims)?;
        let dy = grad_output.as_slice();
        let g = self.gamma.value.as_slice();
        let f = self.features;
        // Accumulate parameter gradients.
        for (i, &dyi) in dy.iter().enumerate() {
            let c = i % f;
            self.gamma.grad.as_mut_slice()[c] += dyi * stats.xhat[i];
            self.beta.grad.as_mut_slice()[c] += dyi;
        }
        let d_xhat: Vec<f32> = dy
            .iter()
            .enumerate()
            .map(|(i, &dyi)| dyi * g[i % f])
            .collect();
        let dx = normalise_groups_backward(stats, &d_xhat);
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "gamma"), &self.gamma);
        f(&join_name(prefix, "beta"), &self.beta);
    }

    fn visit_params_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_name(prefix, "gamma"), &mut self.gamma);
        f(&join_name(prefix, "beta"), &mut self.beta);
    }
}

/// Instance normalisation for `[batch, channels, h, w]` feature maps with a
/// per-channel affine transform.
#[derive(Debug)]
pub struct ChannelNorm2d {
    gamma: Param,
    beta: Param,
    channels: usize,
    /// The forward's statistics (`None` when it passed a 1×1 map through)
    /// and its shape.
    cache: Option<(Option<GroupStats>, Vec<usize>)>,
}

impl ChannelNorm2d {
    /// Creates a channel norm over `channels` feature maps (γ=1, β=0).
    pub fn new(channels: usize) -> Self {
        ChannelNorm2d {
            gamma: Param::new(
                "gamma",
                Tensor::ones(&[channels]),
                vec![AxisRole::OutFeatures],
            ),
            beta: Param::new(
                "beta",
                Tensor::zeros(&[channels]),
                vec![AxisRole::OutFeatures],
            ),
            channels,
            cache: None,
        }
    }

    /// The number of channels normalised.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Layer for ChannelNorm2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let dims = input.dims().to_vec();
        if input.rank() != 4 || dims[1] != self.channels {
            return Err(NnError::BadInput {
                layer: "ChannelNorm2d".into(),
                expected: format!("[batch, {}, h, w] input", self.channels),
                got: dims,
            });
        }
        let spatial = dims[2] * dims[3];
        if spatial < 2 {
            // Normalising a single value would zero it out; pass through.
            self.cache = Some((None, dims));
            return Ok(input.clone());
        }
        let stats = normalise_groups(input.as_slice(), spatial);
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        let c = self.channels;
        let data = stats
            .xhat
            .iter()
            .enumerate()
            .map(|(i, &xh)| {
                let channel = (i / spatial) % c;
                g[channel] * xh + b[channel]
            })
            .collect();
        self.cache = Some((Some(stats), dims.clone()));
        Ok(Tensor::from_vec(data, &dims)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (stats, dims) = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("ChannelNorm2d".into()))?;
        check_grad_shape("ChannelNorm2d", grad_output, dims)?;
        let Some(stats) = stats else {
            // The forward passed a 1×1 map through, so the gradient passes too.
            return Ok(grad_output.clone());
        };
        let spatial = dims[2] * dims[3];
        let c = self.channels;
        let dy = grad_output.as_slice();
        let g = self.gamma.value.as_slice();
        for (i, &dyi) in dy.iter().enumerate() {
            let channel = (i / spatial) % c;
            self.gamma.grad.as_mut_slice()[channel] += dyi * stats.xhat[i];
            self.beta.grad.as_mut_slice()[channel] += dyi;
        }
        let d_xhat: Vec<f32> = dy
            .iter()
            .enumerate()
            .map(|(i, &dyi)| dyi * g[(i / spatial) % c])
            .collect();
        let dx = normalise_groups_backward(stats, &d_xhat);
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "gamma"), &self.gamma);
        f(&join_name(prefix, "beta"), &self.beta);
    }

    fn visit_params_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_name(prefix, "gamma"), &mut self.gamma);
        f(&join_name(prefix, "beta"), &mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_tensor::SeededRng;

    #[test]
    fn layernorm_output_is_standardised() {
        let mut ln = LayerNorm::new(4);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]).unwrap();
        let y = ln.forward(&x, true).unwrap();
        for r in 0..2 {
            let row = &y.as_slice()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradient_check() {
        let mut rng = SeededRng::new(0);
        let mut ln = LayerNorm::new(5);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        ln.forward(&x, true).unwrap();
        // Loss = weighted sum to create non-uniform gradients.
        let weights = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let dx = ln.backward(&weights).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 7, 14] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = ln.forward(&xp, true).unwrap().mul(&weights).unwrap().sum();
            let fm = ln.forward(&xm, true).unwrap().mul(&weights).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 2e-2,
                "idx {idx}: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn layernorm_shape_validation() {
        let mut ln = LayerNorm::new(4);
        assert!(ln.forward(&Tensor::zeros(&[2, 3]), true).is_err());
        assert!(ln.forward(&Tensor::zeros(&[4]), true).is_err());
        assert!(ln.forward(&Tensor::zeros(&[2, 3, 4]), true).is_ok());
    }

    #[test]
    fn channelnorm_normalises_each_map() {
        let mut cn = ChannelNorm2d::new(2);
        let mut rng = SeededRng::new(1);
        let x = Tensor::randn(&[1, 2, 4, 4], 3.0, &mut rng).add_scalar(5.0);
        let y = cn.forward(&x, true).unwrap();
        for c in 0..2 {
            let map = &y.as_slice()[c * 16..(c + 1) * 16];
            let mean: f32 = map.iter().sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn channelnorm_gradient_check() {
        let mut rng = SeededRng::new(2);
        let mut cn = ChannelNorm2d::new(2);
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        cn.forward(&x, true).unwrap();
        let weights = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        let dx = cn.backward(&weights).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 5, 12] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = cn.forward(&xp, true).unwrap().mul(&weights).unwrap().sum();
            let fm = cn.forward(&xm, true).unwrap().mul(&weights).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((dx.as_slice()[idx] - numeric).abs() < 2e-2);
        }
    }

    #[test]
    fn channelnorm_single_pixel_passthrough() {
        let mut cn = ChannelNorm2d::new(3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3, 1, 1]).unwrap();
        let y = cn.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
        let dx = cn.backward(&Tensor::ones(&[1, 3, 1, 1])).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn norm_params_are_width_scalable() {
        let ln = LayerNorm::new(8);
        ln.visit_params("blk", &mut |name, p| {
            assert!(name.starts_with("blk."));
            assert_eq!(p.roles, vec![AxisRole::OutFeatures]);
        });
    }
}
