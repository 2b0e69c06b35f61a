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
//!
//! Both walk whole groups (one row, or one `(n, c)` map) rather than
//! indexing each element's group and channel. Every serial sum keeps the
//! plain loop's order, which the tests keep as the bitwise reference: a
//! group's mean, variance and backward sums add its elements in ascending
//! order from `-0.0`, as `Iterator::sum::<f32>` does, and a γ/β gradient
//! adds onto its prior value in ascending element order. `CHAINS` (8) such
//! sums run side by side, so their adds overlap.

use mhfl_tensor::Tensor;

use crate::layer::{check_grad_shape, join_name};
use crate::{AxisRole, Layer, NnError, Param, Result};

const EPS: f32 = 1e-5;

/// Serial sums that run side by side, so that their adds overlap instead of
/// each waiting on the last.
const CHAINS: usize = 8;

/// Adds `term(a[j], b[j])` onto `acc[c]` for every chain `c`, one term at a
/// time, over the `len`-long groups `c, c + acc.len(), c + 2·acc.len(), …`
/// of `a` and `b` in that order, each in ascending `j`. `CHAINS` chains run
/// side by side, and each keeps exactly the order of its own serial loop.
fn add_chains(acc: &mut [f32], len: usize, a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) {
    let chains = acc.len();
    let stride = chains * len;
    for (block, acc) in acc.chunks_mut(CHAINS).enumerate() {
        // The lanes past the last chain repeat it and are never stored.
        let chain: [usize; CHAINS] = std::array::from_fn(|l| (block * CHAINS + l).min(chains - 1));
        let mut sums: [f32; CHAINS] = std::array::from_fn(|l| acc[l.min(acc.len() - 1)]);
        for (a, b) in a.chunks_exact(stride).zip(b.chunks_exact(stride)) {
            let rows: [(&[f32], &[f32]); CHAINS] = std::array::from_fn(|l| {
                let lo = chain[l] * len;
                (&a[lo..lo + len], &b[lo..lo + len])
            });
            for j in 0..len {
                sums = std::array::from_fn(|l| sums[l] + term(rows[l].0[j], rows[l].1[j]));
            }
        }
        acc.copy_from_slice(&sums[..acc.len()]);
    }
}

/// `term(a[j], b[j])` summed over each `len`-long group of `a` and `b` in
/// ascending `j`, from `-0.0` as `Iterator::sum::<f32>` starts.
fn group_sums(len: usize, a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let mut sums = vec![-0.0; a.len() / len];
    add_chains(&mut sums, len, a, b, term);
    sums
}

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

/// Each group's mean and variance are serial sums over its ascending
/// elements (run [`CHAINS`] groups side by side), divided by the group size;
/// then `xhat = (x - mean) * istd` with `istd = 1 / sqrt(var + EPS)`.
fn normalise_groups(data: &[f32], group_size: usize) -> GroupStats {
    let n = group_size as f32;
    let sums = group_sums(group_size, data, data, |x, _| x);
    // `x - mean`, squared for the variance and then scaled in place.
    let mut xhat = data.to_vec();
    for (xh, &sum) in xhat.chunks_exact_mut(group_size).zip(&sums) {
        let mean = sum / n;
        for x in xh {
            *x -= mean;
        }
    }
    let inv_std: Vec<f32> = group_sums(group_size, &xhat, &xhat, |d, _| d * d)
        .into_iter()
        .map(|sum| {
            let var = sum / n;
            1.0 / (var + EPS).sqrt()
        })
        .collect();
    for (xh, &istd) in xhat.chunks_exact_mut(group_size).zip(&inv_std) {
        for x in xh {
            *x *= istd;
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
///
/// Per group, `s1 = Σ dyh` and `s2 = Σ dyh·xhat` are serial sums over
/// ascending elements (run [`CHAINS`] groups side by side), and
/// `dx = istd / n * (n * dyh - s1 - xhat * s2)`.
fn normalise_groups_backward(stats: &GroupStats, d_xhat: &[f32]) -> Vec<f32> {
    let len = stats.group_size;
    let n = len as f32;
    let sum_dyh = group_sums(len, d_xhat, d_xhat, |dyh, _| dyh);
    let sum_dyh_xhat = group_sums(len, d_xhat, &stats.xhat, |dyh, xhat| dyh * xhat);
    let mut dx = vec![0.0; d_xhat.len()];
    for ((((dx, dyh), xhat), &istd), (&s1, &s2)) in dx
        .chunks_exact_mut(len)
        .zip(d_xhat.chunks_exact(len))
        .zip(stats.xhat.chunks_exact(len))
        .zip(&stats.inv_std)
        .zip(sum_dyh.iter().zip(&sum_dyh_xhat))
    {
        for ((dx, &dyh), &xhat) in dx.iter_mut().zip(dyh).zip(xhat) {
            *dx = istd / n * (n * dyh - s1 - xhat * s2);
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
    /// A training forward's statistics and shape.
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
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
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
        let mut data = vec![0.0; stats.xhat.len()];
        for (y, xh) in data
            .chunks_exact_mut(self.features)
            .zip(stats.xhat.chunks_exact(self.features))
        {
            for (((y, &xh), &g), &b) in y.iter_mut().zip(xh).zip(g).zip(b) {
                *y = g * xh + b;
            }
        }
        let out = Tensor::from_vec(data, &dims)?;
        self.cache = train.then_some((stats, dims));
        Ok(out)
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
        // Row by row, so each feature's γ/β gradient still accumulates in
        // ascending element order.
        let gamma_grad = self.gamma.grad.as_mut_slice();
        let beta_grad = self.beta.grad.as_mut_slice();
        let mut d_xhat = vec![0.0; dy.len()];
        for ((dy, xhat), d_xhat) in dy
            .chunks_exact(f)
            .zip(stats.xhat.chunks_exact(f))
            .zip(d_xhat.chunks_exact_mut(f))
        {
            for ((((&dyi, &xh), dg), db), (d_xh, &g)) in dy
                .iter()
                .zip(xhat)
                .zip(gamma_grad.iter_mut())
                .zip(beta_grad.iter_mut())
                .zip(d_xhat.iter_mut().zip(g))
            {
                *dg += dyi * xh;
                *db += dyi;
                *d_xh = dyi * g;
            }
        }
        let dx = normalise_groups_backward(stats, &d_xhat);
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "gamma"), &self.gamma);
        f(&join_name(prefix, "beta"), &self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// Instance normalisation for `[batch, channels, h, w]` feature maps with a
/// per-channel affine transform.
#[derive(Debug)]
pub struct ChannelNorm2d {
    gamma: Param,
    beta: Param,
    channels: usize,
    /// A training forward's statistics (`None` when it passed a 1×1 map
    /// through) and its shape.
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
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
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
            self.cache = train.then_some((None, dims));
            return Ok(input.clone());
        }
        let stats = normalise_groups(input.as_slice(), spatial);
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        let mut data = vec![0.0; stats.xhat.len()];
        // One `(n, c)` map per group, so the channels cycle.
        for ((y, xh), (&g, &b)) in data
            .chunks_exact_mut(spatial)
            .zip(stats.xhat.chunks_exact(spatial))
            .zip(g.iter().zip(b).cycle())
        {
            for (y, &xh) in y.iter_mut().zip(xh) {
                *y = g * xh + b;
            }
        }
        let out = Tensor::from_vec(data, &dims)?;
        self.cache = train.then_some((Some(stats), dims));
        Ok(out)
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
        let dy = grad_output.as_slice();
        let g = self.gamma.value.as_slice();
        // Each channel's γ/β gradient is one chain over its maps in batch
        // order, each map in ascending element order.
        add_chains(
            self.gamma.grad.as_mut_slice(),
            spatial,
            dy,
            &stats.xhat,
            |dy, xh| dy * xh,
        );
        add_chains(self.beta.grad.as_mut_slice(), spatial, dy, dy, |dy, _| dy);
        let mut d_xhat = vec![0.0; dy.len()];
        for ((d_xhat, dy), &g) in d_xhat
            .chunks_exact_mut(spatial)
            .zip(dy.chunks_exact(spatial))
            .zip(g.iter().cycle())
        {
            for (d_xh, &dyi) in d_xhat.iter_mut().zip(dy) {
                *d_xh = dyi * g;
            }
        }
        let dx = normalise_groups_backward(stats, &d_xhat);
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "gamma"), &self.gamma);
        f(&join_name(prefix, "beta"), &self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
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

    /// The plain per-element loops: the bitwise reference of the grouped
    /// ones. `channel(i)` is element `i`'s γ/β index. Returns `y`, and
    /// `backward` accumulates into `dg` / `db` and returns `dx`.
    struct Reference {
        xhat: Vec<f32>,
        inv_std: Vec<f32>,
        group_size: usize,
    }

    impl Reference {
        fn forward(
            data: &[f32],
            group_size: usize,
            gamma: &[f32],
            beta: &[f32],
            channel: impl Fn(usize) -> usize,
        ) -> (Self, Vec<f32>) {
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
            let y = xhat
                .iter()
                .enumerate()
                .map(|(i, &xh)| gamma[channel(i)] * xh + beta[channel(i)])
                .collect();
            let reference = Reference {
                xhat,
                inv_std,
                group_size,
            };
            (reference, y)
        }

        fn backward(
            &self,
            dy: &[f32],
            gamma: &[f32],
            dg: &mut [f32],
            db: &mut [f32],
            channel: impl Fn(usize) -> usize,
        ) -> Vec<f32> {
            for (i, &dyi) in dy.iter().enumerate() {
                dg[channel(i)] += dyi * self.xhat[i];
                db[channel(i)] += dyi;
            }
            let d_xhat: Vec<f32> = dy
                .iter()
                .enumerate()
                .map(|(i, &dyi)| dyi * gamma[channel(i)])
                .collect();
            let n = self.group_size as f32;
            let mut dx = vec![0.0; d_xhat.len()];
            for g in 0..d_xhat.len() / self.group_size {
                let lo = g * self.group_size;
                let hi = lo + self.group_size;
                let xhat = &self.xhat[lo..hi];
                let dyh = &d_xhat[lo..hi];
                let sum_dyh: f32 = dyh.iter().sum();
                let sum_dyh_xhat: f32 = dyh.iter().zip(xhat).map(|(a, b)| a * b).sum();
                let istd = self.inv_std[g];
                for i in 0..self.group_size {
                    dx[lo + i] = istd / n * (n * dyh[i] - sum_dyh - xhat[i] * sum_dyh_xhat);
                }
            }
            dx
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A seeded tensor whose every fifth entry is `-0.0` and every seventh
    /// `+0.0`; with `specials`, group 0 is all `-0.0` and group 1 constant.
    fn awkward(dims: &[usize], group_size: usize, specials: bool, rng: &mut SeededRng) -> Tensor {
        let mut t = Tensor::randn(dims, 1.0, rng);
        let v = t.as_mut_slice();
        for (i, x) in v.iter_mut().enumerate() {
            if i % 5 == 0 {
                *x = -0.0;
            } else if i % 7 == 0 {
                *x = 0.0;
            }
        }
        if specials {
            v[..group_size].fill(-0.0);
            v[group_size..2 * group_size].fill(1.5);
        }
        t
    }

    /// Runs `layer` forward and backward and compares `y`, `dx` and the γ/β
    /// gradients, accumulated onto non-zero priors, bit for bit with
    /// [`Reference`].
    fn assert_norm_matches_reference(
        name: &str,
        layer: &mut dyn Layer,
        dims: &[usize],
        group_size: usize,
        channel: impl Fn(usize) -> usize + Copy,
    ) {
        let mut rng = SeededRng::new(dims.iter().product::<usize>() as u64);
        let mut params = Vec::new();
        layer.visit_params_mut(&mut |p| {
            p.value = Tensor::randn(p.value.dims(), 1.0, &mut rng);
            p.grad = Tensor::randn(p.grad.dims(), 1.0, &mut rng);
            if params.len() == 1 {
                // β, visited after γ: `γ·xhat + (-0.0)` keeps the sign of a
                // zero `xhat`, so the all-`-0.0` group shows where its
                // mean's sum started.
                p.value.as_mut_slice()[0] = -0.0;
            }
            params.push((p.value.as_slice().to_vec(), p.grad.as_slice().to_vec()));
        });
        let [(gamma, mut dg), (beta, mut db)]: [_; 2] = params.try_into().unwrap();
        let x = awkward(dims, group_size, true, &mut rng);
        let dy = awkward(dims, group_size, false, &mut rng);

        let (reference, y_ref) =
            Reference::forward(x.as_slice(), group_size, &gamma, &beta, channel);
        let dx_ref = reference.backward(dy.as_slice(), &gamma, &mut dg, &mut db, channel);
        let y = layer.forward(&x, true).unwrap();
        let dx = layer.backward(&dy).unwrap();
        assert_eq!(bits(y.as_slice()), bits(&y_ref), "{name} {dims:?}: y");
        assert_eq!(bits(dx.as_slice()), bits(&dx_ref), "{name} {dims:?}: dx");
        layer.visit_params("", &mut |param, p| {
            let want = if param == "gamma" { &dg } else { &db };
            assert_eq!(
                bits(p.grad.as_slice()),
                bits(want),
                "{name} {dims:?}: {param}"
            );
        });
    }

    #[test]
    fn grouped_loops_match_reference_bitwise() {
        // Group counts below, at, past and far past one block of chains,
        // most not a multiple of it.
        for dims in [
            [1, 2, 3, 3],
            [2, 3, 4, 5],
            [2, 4, 2, 2],
            [3, 5, 2, 3],
            [16, 12, 8, 8],
        ] {
            let (c, spatial) = (dims[1], dims[2] * dims[3]);
            let mut cn = ChannelNorm2d::new(c);
            let channel = move |i: usize| (i / spatial) % c;
            assert_norm_matches_reference("ChannelNorm2d", &mut cn, &dims, spatial, channel);
        }
        for dims in [&[2, 7][..], &[5, 3], &[20, 16], &[3, 4, 6], &[2, 9, 16]] {
            let f = *dims.last().unwrap();
            let mut ln = LayerNorm::new(f);
            assert_norm_matches_reference("LayerNorm", &mut ln, dims, f, move |i| i % f);
        }
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
