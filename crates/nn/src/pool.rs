//! Pooling and reshaping layers.

use mhfl_tensor::Tensor;

use crate::layer::check_grad_shape;
use crate::{Layer, NnError, Param, Result};

/// Global average pooling over the spatial dimensions of a
/// `[batch, channels, h, w]` tensor, producing `[batch, channels]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a new global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool2d { cached_dims: None }
    }
}

impl Layer for GlobalAvgPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if input.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool2d".into(),
                expected: "[batch, channels, h, w] input".into(),
                got: input.dims().to_vec(),
            });
        }
        let dims = input.dims().to_vec();
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let spatial = (h * w) as f32;
        let x = input.as_slice();
        let mut out = vec![0.0; b * c];
        for n in 0..b {
            for ch in 0..c {
                let start = (n * c + ch) * h * w;
                out[n * c + ch] = x[start..start + h * w].iter().sum::<f32>() / spatial;
            }
        }
        self.cached_dims = train.then_some(dims);
        Ok(Tensor::from_vec(out, &[b, c])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("GlobalAvgPool2d".into()))?;
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        check_grad_shape("GlobalAvgPool2d", grad_output, &[b, c])?;
        let spatial = (h * w) as f32;
        let dy = grad_output.as_slice();
        let mut dx = vec![0.0; b * c * h * w];
        for n in 0..b {
            for ch in 0..c {
                let g = dy[n * c + ch] / spatial;
                let start = (n * c + ch) * h * w;
                dx[start..start + h * w].iter_mut().for_each(|v| *v = g);
            }
        }
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Flattens all trailing dimensions into one: `[batch, ...] -> [batch, n]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flattening layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if input.rank() < 2 {
            return Err(NnError::BadInput {
                layer: "Flatten".into(),
                expected: "an input with a batch dimension".into(),
                got: input.dims().to_vec(),
            });
        }
        let dims = input.dims().to_vec();
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        self.cached_dims = train.then_some(dims);
        Ok(input.reshape(&[batch, rest])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Flatten".into()))?;
        let rest = dims[1..].iter().product();
        check_grad_shape("Flatten", grad_output, &[dims[0], rest])?;
        Ok(grad_output.reshape(dims)?)
    }

    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Mean pooling over the sequence dimension of a `[batch, seq, features]`
/// tensor, producing `[batch, features]`. Used to turn token embeddings into
/// a sequence representation in the NLP proxy models.
#[derive(Debug, Default)]
pub struct MeanPool1d {
    cached_dims: Option<Vec<usize>>,
}

impl MeanPool1d {
    /// Creates a new sequence mean-pooling layer.
    pub fn new() -> Self {
        MeanPool1d { cached_dims: None }
    }
}

impl Layer for MeanPool1d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if input.rank() != 3 {
            return Err(NnError::BadInput {
                layer: "MeanPool1d".into(),
                expected: "[batch, seq, features] input".into(),
                got: input.dims().to_vec(),
            });
        }
        let dims = input.dims().to_vec();
        let (b, s, f) = (dims[0], dims[1], dims[2]);
        let x = input.as_slice();
        let mut out = vec![0.0; b * f];
        for n in 0..b {
            for t in 0..s {
                for j in 0..f {
                    out[n * f + j] += x[(n * s + t) * f + j];
                }
            }
        }
        out.iter_mut().for_each(|v| *v /= s as f32);
        self.cached_dims = train.then_some(dims);
        Ok(Tensor::from_vec(out, &[b, f])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("MeanPool1d".into()))?;
        let (b, s, f) = (dims[0], dims[1], dims[2]);
        check_grad_shape("MeanPool1d", grad_output, &[b, f])?;
        let dy = grad_output.as_slice();
        let mut dx = vec![0.0; b * s * f];
        for n in 0..b {
            for t in 0..s {
                for j in 0..f {
                    dx[(n * s + t) * f + j] = dy[n * f + j] / s as f32;
                }
            }
        }
        Ok(Tensor::from_vec(dx, dims)?)
    }

    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_means_spatially() {
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
        let dx = pool
            .backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(dx.dims(), &[1, 2, 2, 2]);
        assert_eq!(dx.as_slice()[0], 1.0);
        assert_eq!(dx.as_slice()[4], 2.0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut flat = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = flat.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let dx = flat.backward(&Tensor::ones(&[2, 12])).unwrap();
        assert_eq!(dx.dims(), &[2, 3, 4]);
    }

    #[test]
    fn mean_pool_sequence() {
        let mut pool = MeanPool1d::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 2]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[3.0, 4.0]);
        let dx = pool
            .backward(&Tensor::from_vec(vec![3.0, 6.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn shape_validation() {
        let mut pool = GlobalAvgPool2d::new();
        assert!(pool.forward(&Tensor::zeros(&[2, 3]), true).is_err());
        let mut mp = MeanPool1d::new();
        assert!(mp.forward(&Tensor::zeros(&[2, 3]), true).is_err());
        let mut fl = Flatten::new();
        assert!(fl.forward(&Tensor::zeros(&[3]), true).is_err());
        assert!(fl.backward(&Tensor::zeros(&[3, 1])).is_err());
    }
}
