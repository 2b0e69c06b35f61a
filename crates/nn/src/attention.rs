//! Single-head self-attention, the core of the transformer/ALBERT proxies.

use mhfl_tensor::{SeededRng, Tensor};

use crate::layer::{check_grad_shape, join_name};
use crate::{AxisRole, Layer, NnError, Param, Result};

/// Scaled dot-product self-attention with learned query/key/value/output
/// projections (single head).
///
/// Input and output are `[batch, seq, dim]`. All four projection matrices
/// have shape `[dim, dim]` with `[OutFeatures, InFeatures]` roles so the
/// attention width scales together with the rest of the model.
#[derive(Debug)]
pub struct SelfAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    dim: usize,
    cache: Option<AttentionCache>,
}

#[derive(Debug)]
struct AttentionCache {
    /// Per-batch-item tensors, each `[seq, dim]` / `[seq, seq]`.
    x: Vec<Tensor>,
    q: Vec<Tensor>,
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    attn: Vec<Tensor>,
    ctx: Vec<Tensor>,
    dims: Vec<usize>,
}

impl SelfAttention {
    /// Creates a self-attention block over `dim`-dimensional token vectors.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidConfig`] when `dim == 0`.
    pub fn new(dim: usize, rng: &mut SeededRng) -> Result<Self> {
        if dim == 0 {
            return Err(NnError::InvalidConfig(
                "attention dimension must be positive".into(),
            ));
        }
        let roles = vec![AxisRole::OutFeatures, AxisRole::InFeatures];
        let mk = |name: &str, rng: &mut SeededRng| {
            Param::new(name, Tensor::kaiming(&[dim, dim], dim, rng), roles.clone())
        };
        Ok(SelfAttention {
            wq: mk("wq", rng),
            wk: mk("wk", rng),
            wv: mk("wv", rng),
            wo: mk("wo", rng),
            dim,
            cache: None,
        })
    }

    /// The token-vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn project(x: &Tensor, w: &Tensor) -> Result<Tensor> {
        Ok(x.matmul_nt(w)?)
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.rank() != 3 || input.dims()[2] != self.dim {
            return Err(NnError::BadInput {
                layer: "SelfAttention".into(),
                expected: format!("[batch, seq, {}] input", self.dim),
                got: input.dims().to_vec(),
            });
        }
        let dims = input.dims().to_vec();
        let (batch, seq, dim) = (dims[0], dims[1], dims[2]);
        let scale = 1.0 / (dim as f32).sqrt();
        let mut cache = AttentionCache {
            x: Vec::with_capacity(batch),
            q: Vec::with_capacity(batch),
            k: Vec::with_capacity(batch),
            v: Vec::with_capacity(batch),
            attn: Vec::with_capacity(batch),
            ctx: Vec::with_capacity(batch),
            dims: dims.clone(),
        };
        let mut outputs = Vec::with_capacity(batch);
        for n in 0..batch {
            let x = input.index_axis0(n)?; // [seq, dim]
            let q = Self::project(&x, &self.wq.value)?;
            let k = Self::project(&x, &self.wk.value)?;
            let v = Self::project(&x, &self.wv.value)?;
            let scores = q.matmul_nt(&k)?.scale(scale);
            let attn = scores.softmax_rows()?;
            let ctx = attn.matmul(&v)?;
            let out = Self::project(&ctx, &self.wo.value)?;
            cache.x.push(x);
            cache.q.push(q);
            cache.k.push(k);
            cache.v.push(v);
            cache.attn.push(attn);
            cache.ctx.push(ctx);
            outputs.push(out);
        }
        self.cache = Some(cache);
        let stacked = Tensor::stack(&outputs)?;
        Ok(stacked.reshape(&[batch, seq, dim])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("SelfAttention".into()))?;
        let dims = cache.dims.clone();
        let (batch, seq, dim) = (dims[0], dims[1], dims[2]);
        check_grad_shape("SelfAttention", grad_output, &dims)?;
        let scale = 1.0 / (dim as f32).sqrt();
        let mut dx_parts = Vec::with_capacity(batch);
        for n in 0..batch {
            let dy = grad_output.index_axis0(n)?; // [seq, dim]
            let x = &cache.x[n];
            let q = &cache.q[n];
            let k = &cache.k[n];
            let v = &cache.v[n];
            let attn = &cache.attn[n];
            let ctx = &cache.ctx[n];

            // out = ctx Woᵀ  ⇒  dctx = dy Wo, dWo += dyᵀ ctx
            self.wo.grad.axpy(1.0, &dy.matmul_tn(ctx)?)?;
            let dctx = dy.matmul(&self.wo.value)?;

            // ctx = attn V  ⇒  dattn = dctx Vᵀ, dV = attnᵀ dctx
            let dattn = dctx.matmul_nt(v)?;
            let dv = attn.matmul_tn(&dctx)?;

            // softmax backward (row-wise): ds = attn ⊙ (dattn - rowsum(dattn ⊙ attn))
            let prod = dattn.mul(attn)?;
            let row_sums = prod.row_sums()?; // [seq]
            let mut ds = Tensor::zeros(&[seq, seq]);
            for r in 0..seq {
                for c in 0..seq {
                    let a = attn.at(&[r, c])?;
                    let da = dattn.at(&[r, c])?;
                    ds.set(&[r, c], a * (da - row_sums.as_slice()[r]))?;
                }
            }
            let ds = ds.scale(scale);

            // scores = Q Kᵀ ⇒ dQ = ds K, dK = dsᵀ Q
            let dq = ds.matmul(k)?;
            let dk = ds.matmul_tn(q)?;

            // projections: P = X Wᵀ ⇒ dW += dPᵀ X, dX += dP W
            self.wq.grad.axpy(1.0, &dq.matmul_tn(x)?)?;
            self.wk.grad.axpy(1.0, &dk.matmul_tn(x)?)?;
            self.wv.grad.axpy(1.0, &dv.matmul_tn(x)?)?;

            let mut dx = dq.matmul(&self.wq.value)?;
            dx.axpy(1.0, &dk.matmul(&self.wk.value)?)?;
            dx.axpy(1.0, &dv.matmul(&self.wv.value)?)?;
            dx_parts.push(dx);
        }
        let stacked = Tensor::stack(&dx_parts)?;
        Ok(stacked.reshape(&[batch, seq, dim])?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "wq"), &self.wq);
        f(&join_name(prefix, "wk"), &self.wk);
        f(&join_name(prefix, "wv"), &self.wv);
        f(&join_name(prefix, "wo"), &self.wo);
    }

    fn visit_params_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_name(prefix, "wq"), &mut self.wq);
        f(&join_name(prefix, "wk"), &mut self.wk);
        f(&join_name(prefix, "wv"), &mut self.wv);
        f(&join_name(prefix, "wo"), &mut self.wo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_validation() {
        let mut rng = SeededRng::new(0);
        let mut attn = SelfAttention::new(6, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 4, 6], 1.0, &mut rng);
        let y = attn.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 4, 6]);
        assert!(attn.forward(&Tensor::zeros(&[2, 4, 5]), true).is_err());
        assert!(SelfAttention::new(0, &mut rng).is_err());
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = SeededRng::new(1);
        let mut attn = SelfAttention::new(4, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 4], 0.5, &mut rng);
        let weights = Tensor::randn(&[1, 3, 4], 1.0, &mut rng);
        attn.forward(&x, true).unwrap();
        let dx = attn.backward(&weights).unwrap();

        let eps = 1e-2;
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = attn
                .forward(&xp, true)
                .unwrap()
                .mul(&weights)
                .unwrap()
                .sum();
            let fm = attn
                .forward(&xm, true)
                .unwrap()
                .mul(&weights)
                .unwrap()
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 5e-2,
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut rng = SeededRng::new(2);
        let mut attn = SelfAttention::new(3, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 3], 0.5, &mut rng);
        let weights = Tensor::randn(&[1, 3, 3], 1.0, &mut rng);
        attn.forward(&x, true).unwrap();
        attn.backward(&weights).unwrap();
        let dwq_analytic = attn.wq.grad.clone();

        let eps = 1e-2;
        for idx in [0usize, 4, 8] {
            let orig = attn.wq.value.as_slice()[idx];
            attn.wq.value.as_mut_slice()[idx] = orig + eps;
            let fp = attn.forward(&x, true).unwrap().mul(&weights).unwrap().sum();
            attn.wq.value.as_mut_slice()[idx] = orig - eps;
            let fm = attn.forward(&x, true).unwrap().mul(&weights).unwrap().sum();
            attn.wq.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dwq_analytic.as_slice()[idx] - numeric).abs() < 5e-2,
                "dWq[{idx}]: {} vs {numeric}",
                dwq_analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn four_projection_parameters() {
        let mut rng = SeededRng::new(3);
        let attn = SelfAttention::new(8, &mut rng).unwrap();
        let mut names = Vec::new();
        attn.visit_params("attn", &mut |name, p| {
            names.push(name.to_string());
            assert_eq!(p.value.dims(), &[8, 8]);
        });
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"attn.wq".to_string()));
        assert!(names.contains(&"attn.wo".to_string()));
    }
}
