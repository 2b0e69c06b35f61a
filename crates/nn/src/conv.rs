//! 2-D convolution.

use std::ops::Range;

use mhfl_tensor::{SeededRng, Tensor};

use crate::layer::{check_grad_shape, join_name};
use crate::{AxisRole, Layer, NnError, Param, Result};

/// A 2-D convolution over `[batch, in_channels, h, w]` feature maps.
///
/// The weight has shape `[out_channels, in_channels, k, k]` with axis roles
/// `[OutFeatures, InFeatures, Fixed, Fixed]`, so width-heterogeneous
/// extraction slices channels but never the spatial kernel.
///
/// The loops are reordered for speed under a bitwise contract: every
/// destination element receives the same addends, in the same order, as the
/// plain direct loops kept as the test reference. An output starts at
/// `b[oc]` and adds `x·w` for ascending `(ic, ky, kx)`; a `dw` element adds
/// `g·x` onto its prior value for ascending `(n, oy, ox)`; a `dx` element
/// sums `g·w` for ascending `(oc, oy, ox)`. Padding taps are skipped, never
/// added as zero, and an output gradient of exactly zero contributes nothing.
///
/// The forward keeps one output pixel's block of `LANES` output channels in
/// an accumulator array and adds `x · w[ic, ky, kx, oc..]` to all lanes at
/// once. Whether a tap lands in the padding depends on the pixel, never on
/// the channel, so every lane has the same valid taps: the skip needs no
/// mask. Interior pixels whose `kx` taps are all valid go two at a time,
/// with one accumulator block each, so the adds of two independent chains
/// overlap; edge pixels go one at a time.
///
/// The backward runs its innermost loop over the contiguous input channels
/// of channel-last copies of the input, the weight and their gradients.
/// [`Conv2d::backward_params`], for a caller that discards `dx`, runs the
/// same loop without its `dx` half.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// A training forward's input.
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidConfig`] for zero-sized channels, kernel or stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(format!(
                "conv2d sizes must be positive (in={in_channels}, out={out_channels}, k={kernel}, stride={stride})"
            )));
        }
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(
            "weight",
            Tensor::kaiming(&[out_channels, in_channels, kernel, kernel], fan_in, rng),
            vec![
                AxisRole::OutFeatures,
                AxisRole::InFeatures,
                AxisRole::Fixed,
                AxisRole::Fixed,
            ],
        );
        let bias = Param::new(
            "bias",
            Tensor::zeros(&[out_channels]),
            vec![AxisRole::OutFeatures],
        );
        Ok(Conv2d {
            weight,
            bias,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_size(&self, input: usize) -> usize {
        (input + 2 * self.padding).saturating_sub(self.kernel) / self.stride + 1
    }

    /// Accumulates the weight and bias gradients of the last forward, as
    /// [`Layer::backward`] does bit for bit, without building the input
    /// gradient: for a layer whose caller discards it, such as a stem.
    ///
    /// # Errors
    /// [`NnError::MissingForwardCache`] before any forward, and
    /// [`NnError::BadInput`] for a gradient not shaped like the forward's
    /// output; neither moves a gradient.
    pub fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_fused(grad_output, None).map(drop)
    }

    /// The backward of the last forward: accumulates `dw` and `db` and, when
    /// `dx` is given, stores the input gradient in it. Returns the input's
    /// dims.
    fn backward_fused(
        &mut self,
        grad_output: &Tensor,
        dx: Option<&mut Vec<f32>>,
    ) -> Result<Vec<usize>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Conv2d".into()))?;
        let dims = input.dims();
        let (batch, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let (ic_n, oc_n) = (self.in_channels, self.out_channels);
        check_grad_shape("Conv2d", grad_output, &[batch, oc_n, oh, ow])?;
        let k = self.kernel;
        let kk = k * k;
        let s = self.stride;
        let p = self.padding;
        let kx_taps: Vec<_> = (0..ow).map(|ox| valid_taps(ox, p, s, w, k)).collect();

        // Channel-last copies, so the innermost loop runs over contiguous
        // input channels: the weight and its gradient as [oc][ky][kx][ic],
        // the input and its gradient as [n][iy][ix][ic].
        let w_t = swap_inner_axes(self.weight.value.as_slice(), ic_n, kk);
        let mut dw_t = swap_inner_axes(self.weight.grad.as_slice(), ic_n, kk);
        let x_t = swap_inner_axes(input.as_slice(), ic_n, h * w);
        let mut dx_t = dx.is_some().then(|| vec![0.0; x_t.len()]);
        let db = self.bias.grad.as_mut_slice();

        for (n, (x_n, dy_n)) in x_t
            .chunks_exact(ic_n * h * w)
            .zip(grad_output.as_slice().chunks_exact(oc_n * oh * ow))
            .enumerate()
        {
            let mut dx_n = dx_t
                .as_mut()
                .map(|dx_t| &mut dx_t[n * x_n.len()..][..x_n.len()]);
            for (((dy_c, w_oc), dw_oc), db_c) in dy_n
                .chunks_exact(oh * ow)
                .zip(w_t.chunks_exact(kk * ic_n))
                .zip(dw_t.chunks_exact_mut(kk * ic_n))
                .zip(db.iter_mut())
            {
                for (oy, dy_row) in dy_c.chunks_exact(ow).enumerate() {
                    for (ox, (&g, kx_taps)) in dy_row.iter().zip(&kx_taps).enumerate() {
                        if g == 0.0 {
                            continue;
                        }
                        *db_c += g;
                        // The valid `kx` taps of one kernel row read
                        // adjacent columns, so their channel-last input and
                        // weight entries form one contiguous run.
                        let run = kx_taps.len() * ic_n;
                        if run == 0 {
                            continue;
                        }
                        let ix = ox * s + kx_taps.start - p;
                        for ky in valid_taps(oy, p, s, h, k) {
                            let pos = ((oy * s + ky - p) * w + ix) * ic_n;
                            let tap = (ky * k + kx_taps.start) * ic_n;
                            let (dw, x) = (&mut dw_oc[tap..tap + run], &x_n[pos..pos + run]);
                            match dx_n.as_deref_mut() {
                                Some(dx_n) => accumulate(
                                    g,
                                    dw,
                                    x,
                                    &mut dx_n[pos..pos + run],
                                    &w_oc[tap..tap + run],
                                ),
                                None => {
                                    for (dw, &x) in dw.iter_mut().zip(x) {
                                        *dw += g * x;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let dw = swap_inner_axes(&dw_t, kk, ic_n);
        self.weight.grad.as_mut_slice().copy_from_slice(&dw);
        if let (Some(dx), Some(dx_t)) = (dx, dx_t) {
            *dx = swap_inner_axes(&dx_t, h * w, ic_n);
        }
        Ok(dims.to_vec())
    }
}

/// Output channels per accumulator block of the forward.
const LANES: usize = 16;

/// The kernel offsets whose tap at output `o` lands inside the input, i.e.
/// `0 <= o·s + off − p < in_len` for `off` in `0..k`.
fn valid_taps(o: usize, p: usize, s: usize, in_len: usize, k: usize) -> Range<usize> {
    let hi = (in_len + p).saturating_sub(o * s).min(k);
    let lo = p.saturating_sub(o * s).min(hi);
    lo..hi
}

/// `dw += g·x` and `dx += g·w`, element by element over equal-length runs.
fn accumulate(g: f32, dw: &mut [f32], x: &[f32], dx: &mut [f32], w: &[f32]) {
    for (((dw, &x), dx), &w) in dw.iter_mut().zip(x).zip(dx.iter_mut()).zip(w) {
        *dw += g * x;
        *dx += g * w;
    }
}

/// Stores one output pixel's block of channels: lane `l` goes to the
/// `pixel`-th entry of the `l`-th `plane`-long channel plane of `y_b`.
fn store_pixel(y_b: &mut [f32], plane: usize, pixel: usize, acc: &[f32]) {
    for (y_c, &a) in y_b.chunks_exact_mut(plane).zip(acc) {
        y_c[pixel] = a;
    }
}

/// Views `src` as `[.., a, b]` and returns it laid out as `[.., b, a]`.
fn swap_inner_axes(src: &[f32], a: usize, b: usize) -> Vec<f32> {
    let mut dst = vec![0.0; src.len()];
    for (src, dst) in src.chunks_exact(a * b).zip(dst.chunks_exact_mut(a * b)) {
        for (i, row) in src.chunks_exact(b).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                dst[j * a + i] = v;
            }
        }
    }
    dst
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let dims = input.dims();
        let k = self.kernel;
        let p = self.padding;
        // The map must be non-empty and, padded, hold one whole kernel.
        let min_side = k.saturating_sub(2 * p).max(1);
        if input.rank() != 4
            || dims[1] != self.in_channels
            || dims[2] < min_side
            || dims[3] < min_side
        {
            return Err(NnError::BadInput {
                layer: "Conv2d".into(),
                expected: format!(
                    "[batch, {}, h, w] input with h, w >= {min_side}",
                    self.in_channels
                ),
                got: dims.to_vec(),
            });
        }
        let (batch, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let s = self.stride;
        let (ic_n, oc_n) = (self.in_channels, self.out_channels);
        let taps = ic_n * k * k;
        let x = input.as_slice();
        let ky_taps: Vec<_> = (0..oh).map(|oy| valid_taps(oy, p, s, h, k)).collect();
        let kx_taps: Vec<_> = (0..ow).map(|ox| valid_taps(ox, p, s, w, k)).collect();

        // The weight as [block][ic][ky][kx][lane] and the bias as
        // [block][lane], where output channel `oc` is lane `oc % LANES` of
        // block `oc / LANES`. The lanes past the last channel stay zero and
        // are never stored.
        let blocks = oc_n.div_ceil(LANES);
        let mut w_blk = vec![[0.0; LANES]; blocks * taps];
        let mut b_blk = vec![[0.0; LANES]; blocks];
        for (oc, (w_oc, &bias)) in self
            .weight
            .value
            .as_slice()
            .chunks_exact(taps)
            .zip(self.bias.value.as_slice())
            .enumerate()
        {
            let (block, lane) = (oc / LANES, oc % LANES);
            b_blk[block][lane] = bias;
            for (tap, &wv) in w_oc.iter().enumerate() {
                w_blk[block * taps + tap][lane] = wv;
            }
        }
        let mut out = vec![0.0; batch * oc_n * oh * ow];

        for (x_n, out_n) in x
            .chunks_exact(ic_n * h * w)
            .zip(out.chunks_exact_mut(oc_n * oh * ow))
        {
            for ((w_b, &b_b), y_b) in w_blk
                .chunks_exact(taps)
                .zip(&b_blk)
                .zip(out_n.chunks_mut(LANES * oh * ow))
            {
                for (oy, ky_taps) in ky_taps.iter().enumerate() {
                    let mut ox = 0;
                    while ox < ow {
                        let pair =
                            ox + 1 < ow && kx_taps[ox].len() == k && kx_taps[ox + 1].len() == k;
                        // Copied in rather than assigned: the compiler then
                        // keeps the block in whole vector registers.
                        let mut acc = [0.0; LANES];
                        acc.copy_from_slice(&b_b);
                        if pair {
                            // Two pixels whose `kx` taps are all valid, one
                            // block each in one array: two independent
                            // chains per pass.
                            let mut acc2 = [0.0; 2 * LANES];
                            acc2[..LANES].copy_from_slice(&b_b);
                            acc2[LANES..].copy_from_slice(&b_b);
                            for (x_c, w_c) in x_n.chunks_exact(h * w).zip(w_b.chunks_exact(k * k)) {
                                for ky in ky_taps.clone() {
                                    let x_row = &x_c[(oy * s + ky - p) * w..][..w];
                                    let x0 = &x_row[ox * s - p..][..k];
                                    let x1 = &x_row[(ox + 1) * s - p..][..k];
                                    for ((wv, &x0), &x1) in
                                        w_c[ky * k..][..k].iter().zip(x0).zip(x1)
                                    {
                                        acc2 = std::array::from_fn(|i| {
                                            let xv = if i < LANES { x0 } else { x1 };
                                            acc2[i] + xv * wv[i % LANES]
                                        });
                                    }
                                }
                            }
                            acc.copy_from_slice(&acc2[..LANES]);
                            store_pixel(y_b, oh * ow, oy * ow + ox + 1, &acc2[LANES..]);
                        } else {
                            for (x_c, w_c) in x_n.chunks_exact(h * w).zip(w_b.chunks_exact(k * k)) {
                                for ky in ky_taps.clone() {
                                    let x_row = &x_c[(oy * s + ky - p) * w..][..w];
                                    let w_row = &w_c[ky * k..][..k];
                                    for kx in kx_taps[ox].clone() {
                                        let (xv, wv) = (x_row[ox * s + kx - p], &w_row[kx]);
                                        acc = std::array::from_fn(|l| acc[l] + xv * wv[l]);
                                    }
                                }
                            }
                        }
                        store_pixel(y_b, oh * ow, oy * ow + ox, &acc);
                        ox += 1 + usize::from(pair);
                    }
                }
            }
        }
        self.cached_input = train.then(|| input.clone());
        Ok(Tensor::from_vec(out, &[batch, oc_n, oh, ow])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut dx = Vec::new();
        let dims = self.backward_fused(grad_output, Some(&mut dx))?;
        Ok(Tensor::from_vec(dx, &dims)?)
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

    /// The plain direct loops: the bitwise reference the reordered forward
    /// must match.
    fn reference_forward(conv: &Conv2d, input: &Tensor) -> Vec<f32> {
        let dims = input.dims();
        let (batch, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = (conv.output_size(h), conv.output_size(w));
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding as isize);
        let x = input.as_slice();
        let wgt = conv.weight.value.as_slice();
        let b = conv.bias.value.as_slice();
        let mut out = vec![0.0; batch * conv.out_channels * oh * ow];
        for n in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b[oc];
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                let iy = (oy * s + ky) as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox * s + kx) as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xv = x[((n * conv.in_channels + ic) * h + iy as usize) * w
                                        + ix as usize];
                                    let wv = wgt[((oc * conv.in_channels + ic) * k + ky) * k + kx];
                                    acc += xv * wv;
                                }
                            }
                        }
                        out[((n * conv.out_channels + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// The plain direct loops: the bitwise reference the channel-last
    /// backward must match. Accumulates into `dw` / `db` and returns `dx`.
    fn reference_backward(
        conv: &Conv2d,
        input: &Tensor,
        grad_output: &Tensor,
        dw: &mut [f32],
        db: &mut [f32],
    ) -> Vec<f32> {
        let dims = input.dims();
        let (batch, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = (grad_output.dims()[2], grad_output.dims()[3]);
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding as isize);
        let x = input.as_slice();
        let dy = grad_output.as_slice();
        let wgt = conv.weight.value.as_slice();
        let mut dx = vec![0.0; x.len()];
        for n in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dy[((n * conv.out_channels + oc) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        db[oc] += g;
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                let iy = (oy * s + ky) as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox * s + kx) as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let x_idx = ((n * conv.in_channels + ic) * h + iy as usize) * w
                                        + ix as usize;
                                    let w_idx = ((oc * conv.in_channels + ic) * k + ky) * k + kx;
                                    dw[w_idx] += g * x[x_idx];
                                    dx[x_idx] += g * wgt[w_idx];
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `conv` forward and backward on `x`, and a twin of it forward and
    /// `backward_params`, and compares `y`, `dx`, `dw` and `db` bit for bit
    /// with the reference loops.
    fn assert_matches_reference(case: usize, conv: &mut Conv2d, x: &Tensor, rng: &mut SeededRng) {
        let oc = conv.out_channels;
        let taps = conv.in_channels * conv.kernel * conv.kernel;
        conv.weight.grad = Tensor::randn(conv.weight.value.dims(), 1.0, rng);
        conv.bias.grad = Tensor::randn(&[oc], 1.0, rng);
        let (batch, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = (conv.output_size(h), conv.output_size(w));
        let mut dy = Tensor::randn(&[batch, oc, oh, ow], 1.0, rng);
        for (i, g) in dy.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *g = 0.0;
            } else if i % 5 == 1 {
                *g = -0.0;
            }
        }
        // With three or more output channels, the last one gets only zero
        // gradients, so its `-0.0` priors must keep their sign: adding a
        // `+0.0` product would flip it. Every `dx` still sums at least two
        // channels with non-zero gradients.
        if oc >= 3 {
            for dy_n in dy.as_mut_slice().chunks_exact_mut(oc * oh * ow) {
                for (i, g) in dy_n[(oc - 1) * oh * ow..].iter_mut().enumerate() {
                    *g = if i % 2 == 0 { -0.0 } else { 0.0 };
                }
            }
            conv.weight.grad.as_mut_slice()[(oc - 1) * taps..].fill(-0.0);
            conv.bias.grad.as_mut_slice()[oc - 1] = -0.0;
        }
        let mut twin = Conv2d {
            weight: conv.weight.clone(),
            bias: conv.bias.clone(),
            cached_input: None,
            ..*conv
        };

        let mut dw_ref = conv.weight.grad.as_slice().to_vec();
        let mut db_ref = conv.bias.grad.as_slice().to_vec();
        let y_ref = reference_forward(conv, x);
        let dx_ref = reference_backward(conv, x, &dy, &mut dw_ref, &mut db_ref);

        let y = conv.forward(x, true).unwrap();
        let dx = conv.backward(&dy).unwrap();
        twin.forward(x, true).unwrap();
        twin.backward_params(&dy).unwrap();
        assert_eq!(bits(y.as_slice()), bits(&y_ref), "y, case {case}");
        assert_eq!(bits(dx.as_slice()), bits(&dx_ref), "dx, case {case}");
        for (conv, path) in [(&*conv, "backward"), (&twin, "backward_params")] {
            assert_eq!(
                bits(conv.weight.grad.as_slice()),
                bits(&dw_ref),
                "dw, case {case}, {path}"
            );
            assert_eq!(
                bits(conv.bias.grad.as_slice()),
                bits(&db_ref),
                "db, case {case}, {path}"
            );
        }
    }

    #[test]
    fn reordered_loops_match_reference_bitwise() {
        // (in, out, kernel, stride, padding, batch, h, w)
        let cases = [
            (2, 3, 3, 1, 1, 2, 5, 7),
            (3, 4, 3, 2, 1, 2, 7, 6),
            (2, 3, 3, 1, 0, 1, 6, 5),
            (3, 2, 3, 2, 0, 3, 9, 8),
            (4, 5, 1, 1, 0, 2, 4, 6),
            (3, 2, 1, 2, 1, 2, 5, 3),
            (2, 2, 5, 3, 2, 2, 11, 9),
            (3, 2, 3, 1, 1, 2, 1, 2),
            // Output channels past one accumulator block, with ragged tails.
            (13, 19, 3, 1, 1, 2, 5, 6),
            (5, 33, 3, 2, 1, 2, 7, 5),
            // The benchmark's CIFAR-10 stem and 12-channel layer.
            (3, 12, 3, 1, 1, 16, 8, 8),
            (12, 12, 3, 1, 1, 16, 8, 8),
        ];
        for (i, &(ic, oc, k, s, p, batch, h, w)) in cases.iter().enumerate() {
            let mut rng = SeededRng::new(100 + i as u64);
            let mut conv = Conv2d::new(ic, oc, k, s, p, &mut rng).unwrap();
            conv.bias.value = Tensor::randn(&[oc], 1.0, &mut rng);
            let x = Tensor::randn(&[batch, ic, h, w], 1.0, &mut rng);
            assert_matches_reference(i, &mut conv, &x, &mut rng);
        }

        // A 1×1 kernel with padding 1: the outer ring of outputs has no
        // valid tap, so it must keep the bias `-0.0` bit for bit. A padding
        // tap added as zero would turn it into `+0.0` (positive weights).
        let mut rng = SeededRng::new(99);
        let mut conv = Conv2d::new(2, 3, 1, 1, 1, &mut rng).unwrap();
        conv.bias.value = Tensor::full(&[3], -0.0);
        conv.weight.value = conv.weight.value.map(f32::abs);
        let x = Tensor::randn(&[2, 2, 3, 4], 1.0, &mut rng);
        assert_matches_reference(cases.len(), &mut conv, &x, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 3, 5, 6]);
        for plane in y.as_slice().chunks_exact(5 * 6) {
            for (idx, v) in plane.iter().enumerate() {
                let (oy, ox) = (idx / 6, idx % 6);
                if oy == 0 || oy == 4 || ox == 0 || ox == 5 {
                    assert_eq!(v.to_bits(), (-0.0f32).to_bits(), "ring output ({oy}, {ox})");
                }
            }
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        // Set weight to a delta kernel.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0).unwrap();
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn output_shape_with_stride() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        assert_eq!(conv.output_size(8), 4);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut rng = SeededRng::new(2);
        assert!(Conv2d::new(0, 4, 3, 1, 1, &mut rng).is_err());
        assert!(Conv2d::new(4, 4, 0, 1, 1, &mut rng).is_err());
    }

    #[test]
    fn wrong_channel_count_rejected() {
        let mut rng = SeededRng::new(3);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap();
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), true).is_err());
    }

    #[test]
    fn input_smaller_than_kernel_rejected() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng).unwrap();
        for dims in [[1, 1, 1, 1], [1, 1, 2, 5], [1, 1, 5, 2], [1, 1, 0, 3]] {
            assert!(matches!(
                conv.forward(&Tensor::zeros(&dims), true),
                Err(NnError::BadInput { .. })
            ));
        }
        assert_eq!(
            conv.forward(&Tensor::zeros(&[1, 1, 3, 4]), true)
                .unwrap()
                .dims(),
            &[1, 1, 1, 2]
        );
        // Padding counts towards the extent the kernel covers.
        let mut padded = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        let y = padded.forward(&Tensor::zeros(&[1, 1, 1, 1]), true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert!(padded.forward(&Tensor::zeros(&[1, 1, 0, 1]), true).is_err());
    }

    #[test]
    fn malformed_gradient_rejected_before_any_accumulation() {
        let mut rng = SeededRng::new(7);
        let mut conv = Conv2d::new(3, 4, 3, 2, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 5, 6], 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 4, 3, 3]);
        for dims in [
            vec![2, 4],
            vec![2, 3, 3, 3],
            vec![1, 4, 3, 3],
            vec![2, 4, 3, 4],
            vec![2, 4, 3, 3, 1],
        ] {
            let g = Tensor::randn(&dims, 1.0, &mut rng);
            assert!(
                matches!(conv.backward(&g), Err(NnError::BadInput { .. })),
                "{dims:?}"
            );
        }
        assert!(conv.weight.grad.as_slice().iter().all(|&v| v == 0.0));
        assert!(conv.bias.grad.as_slice().iter().all(|&v| v == 0.0));
        let dx = conv
            .backward(&Tensor::randn(y.dims(), 1.0, &mut rng))
            .unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    /// `sum(conv(x) ⊙ loss_weights)`, whose gradient is `backward(loss_weights)`.
    fn weighted_output(conv: &mut Conv2d, x: &Tensor, loss_weights: &Tensor) -> f32 {
        conv.forward(x, true)
            .unwrap()
            .mul(loss_weights)
            .unwrap()
            .sum()
    }

    #[test]
    fn gradient_check_small_conv() {
        // (in, out, kernel, stride, padding, h, w)
        let shapes = [
            (2, 3, 3, 1, 1, 4, 4),
            (2, 3, 3, 2, 0, 7, 6),
            (3, 2, 3, 2, 1, 5, 4),
            (3, 2, 1, 1, 0, 3, 5),
        ];
        let eps = 1e-2;
        for (i, &(ic, oc, k, s, p, h, w)) in shapes.iter().enumerate() {
            let mut rng = SeededRng::new(4 + i as u64);
            let mut conv = Conv2d::new(ic, oc, k, s, p, &mut rng).unwrap();
            conv.bias.value = Tensor::randn(&[oc], 1.0, &mut rng);
            let x = Tensor::randn(&[1, ic, h, w], 1.0, &mut rng);
            let y = conv.forward(&x, true).unwrap();
            let loss_weights = Tensor::randn(y.dims(), 1.0, &mut rng);
            let dx = conv.backward(&loss_weights).unwrap();
            let dw = conv.weight.grad.clone();
            let db = conv.bias.grad.clone();
            let check = |what: &str, idx: usize, analytic: f32, fp: f32, fm: f32| {
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 5e-2,
                    "shape {i}, {what}[{idx}]: {analytic} vs {numeric}"
                );
            };

            for idx in 0..x.len() {
                let mut xp = x.clone();
                xp.as_mut_slice()[idx] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[idx] -= eps;
                let fp = weighted_output(&mut conv, &xp, &loss_weights);
                let fm = weighted_output(&mut conv, &xm, &loss_weights);
                check("dx", idx, dx.as_slice()[idx], fp, fm);
            }
            for idx in 0..dw.len() {
                let orig = conv.weight.value.as_slice()[idx];
                conv.weight.value.as_mut_slice()[idx] = orig + eps;
                let fp = weighted_output(&mut conv, &x, &loss_weights);
                conv.weight.value.as_mut_slice()[idx] = orig - eps;
                let fm = weighted_output(&mut conv, &x, &loss_weights);
                conv.weight.value.as_mut_slice()[idx] = orig;
                check("dw", idx, dw.as_slice()[idx], fp, fm);
            }
            for idx in 0..oc {
                let orig = conv.bias.value.as_slice()[idx];
                conv.bias.value.as_mut_slice()[idx] = orig + eps;
                let fp = weighted_output(&mut conv, &x, &loss_weights);
                conv.bias.value.as_mut_slice()[idx] = orig - eps;
                let fm = weighted_output(&mut conv, &x, &loss_weights);
                conv.bias.value.as_mut_slice()[idx] = orig;
                check("db", idx, db.as_slice()[idx], fp, fm);
            }
        }
    }

    #[test]
    fn axis_roles_mark_channels_only() {
        let mut rng = SeededRng::new(5);
        let conv = Conv2d::new(4, 8, 3, 1, 1, &mut rng).unwrap();
        conv.visit_params("c1", &mut |name, p| {
            if name.ends_with("weight") {
                assert_eq!(
                    p.roles,
                    vec![
                        AxisRole::OutFeatures,
                        AxisRole::InFeatures,
                        AxisRole::Fixed,
                        AxisRole::Fixed
                    ]
                );
            } else {
                assert_eq!(p.roles, vec![AxisRole::OutFeatures]);
            }
        });
    }
}
