//! 2-D convolution.

use mhfl_tensor::{SeededRng, Tensor};

use crate::layer::join_name;
use crate::{AxisRole, Layer, NnError, Param, Result};

/// A 2-D convolution over `[batch, in_channels, h, w]` feature maps.
///
/// The weight has shape `[out_channels, in_channels, k, k]` with axis roles
/// `[OutFeatures, InFeatures, Fixed, Fixed]`, so width-heterogeneous
/// extraction slices channels but never the spatial kernel. The
/// implementation uses direct loops — the proxy models operate on tiny
/// feature maps where clarity beats an im2col + GEMM pipeline.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
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
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let dims = input.dims();
        if input.rank() != 4 || dims[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: "Conv2d".into(),
                expected: format!("[batch, {}, h, w] input", self.in_channels),
                got: dims.to_vec(),
            });
        }
        let (batch, _, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let oh = self.output_size(h);
        let ow = self.output_size(w);
        let k = self.kernel;
        let s = self.stride;
        let p = self.padding as isize;
        let x = input.as_slice();
        let wgt = self.weight.value.as_slice();
        let b = self.bias.value.as_slice();
        let mut out = vec![0.0; batch * self.out_channels * oh * ow];

        for n in 0..batch {
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b[oc];
                        for ic in 0..self.in_channels {
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
                                    let xv = x[((n * self.in_channels + ic) * h + iy as usize) * w
                                        + ix as usize];
                                    let wv = wgt[((oc * self.in_channels + ic) * k + ky) * k + kx];
                                    acc += xv * wv;
                                }
                            }
                        }
                        out[((n * self.out_channels + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        Ok(Tensor::from_vec(out, &[batch, self.out_channels, oh, ow])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Conv2d".into()))?;
        let dims = input.dims();
        let (batch, h, w) = (dims[0], dims[2], dims[3]);
        let odims = grad_output.dims();
        let (oh, ow) = (odims[2], odims[3]);
        let k = self.kernel;
        let s = self.stride;
        let p = self.padding as isize;
        let x = input.as_slice();
        let dy = grad_output.as_slice();
        let wgt = self.weight.value.as_slice();

        let mut dx = vec![0.0; x.len()];
        let dw = self.weight.grad.as_mut_slice();
        let db = self.bias.grad.as_mut_slice();

        for n in 0..batch {
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dy[((n * self.out_channels + oc) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        db[oc] += g;
                        for ic in 0..self.in_channels {
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
                                    let x_idx = ((n * self.in_channels + ic) * h + iy as usize) * w
                                        + ix as usize;
                                    let w_idx = ((oc * self.in_channels + ic) * k + ky) * k + kx;
                                    dw[w_idx] += g * x[x_idx];
                                    dx[x_idx] += g * wgt[w_idx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "weight"), &self.weight);
        f(&join_name(prefix, "bias"), &self.bias);
    }

    fn visit_params_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_name(prefix, "weight"), &mut self.weight);
        f(&join_name(prefix, "bias"), &mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn gradient_check_small_conv() {
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        let loss_weights = Tensor::randn(y.dims(), 1.0, &mut rng);
        let dx = conv.backward(&loss_weights).unwrap();
        let dw_analytic = conv.weight.grad.clone();

        let eps = 1e-2;
        // Check a handful of input positions.
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv
                .forward(&xp, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            let fm = conv
                .forward(&xm, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 5e-2,
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
        // Check a handful of weight positions.
        for idx in [0usize, 10, 25, 50] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = conv
                .forward(&x, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = conv
                .forward(&x, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dw_analytic.as_slice()[idx] - numeric).abs() < 5e-2,
                "dw[{idx}]: {} vs {numeric}",
                dw_analytic.as_slice()[idx]
            );
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
