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

/// A training forward's activations, each `[batch, seq, ·]`.
#[derive(Debug)]
struct AttentionCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax weights, `[batch, seq, seq]`.
    attn: Tensor,
    ctx: Tensor,
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
}

/// Adds each item of a `[batch, ·, ·]` stack of per-sample weight gradients
/// onto `grad`, in sample order, as one `axpy` per sample would.
fn add_per_sample(grad: &mut Tensor, per_sample: &Tensor) {
    let grad = grad.as_mut_slice();
    for item in per_sample.as_slice().chunks_exact(grad.len()) {
        for (g, &p) in grad.iter_mut().zip(item) {
            *g += p;
        }
    }
}

/// The whole batch goes through each step at once. The projections are one
/// product each over the `[batch, seq, dim]` activation, read in place as a
/// `[batch·seq, dim]` matrix whose rows are the per-sample products' rows;
/// scores and context are per-sample products stacked into one buffer;
/// softmax and its backward go row by row; and every weight gradient adds
/// its per-sample products in sample order. So every element
/// sees the addends, in the order, of a loop over the samples.
impl Layer for SelfAttention {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if input.rank() != 3 || input.dims()[2] != self.dim {
            return Err(NnError::BadInput {
                layer: "SelfAttention".into(),
                expected: format!("[batch, seq, {}] input", self.dim),
                got: input.dims().to_vec(),
            });
        }
        let (batch, seq) = (input.dims()[0], input.dims()[1]);
        let scale = 1.0 / (self.dim as f32).sqrt();
        let project = |w: &Param| input.matmul_nt(&w.value);
        let (q, k, v) = (project(&self.wq)?, project(&self.wk)?, project(&self.wv)?);
        let mut scores = q.matmul_nt_batched(&k)?;
        scores.scale_inplace(scale);
        let attn = scores
            .into_shape(&[batch * seq, seq])?
            .softmax_rows()?
            .into_shape(&[batch, seq, seq])?;
        let ctx = attn.matmul_batched(&v)?;
        let out = ctx.matmul_nt(&self.wo.value)?;
        self.cache = train.then(|| AttentionCache {
            x: input.clone(),
            q,
            k,
            v,
            attn,
            ctx,
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let c = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("SelfAttention".into()))?;
        check_grad_shape("SelfAttention", grad_output, c.x.dims())?;
        let seq = c.x.dims()[1];
        let scale = 1.0 / (self.dim as f32).sqrt();

        // out = ctx Woᵀ  ⇒  dctx = dy Wo, dWo += dyᵀ ctx
        add_per_sample(&mut self.wo.grad, &grad_output.matmul_tn_batched(&c.ctx)?);
        let dctx = grad_output.matmul(&self.wo.value)?;

        // ctx = attn V  ⇒  dattn = dctx Vᵀ, dV = attnᵀ dctx
        let dattn = dctx.matmul_nt_batched(&c.v)?;
        let dv = c.attn.matmul_tn_batched(&dctx)?;

        // softmax backward (row-wise): ds = attn ⊙ (dattn - rowsum(dattn ⊙ attn))
        let mut ds = dattn;
        for (ds, attn) in ds
            .as_mut_slice()
            .chunks_exact_mut(seq.max(1))
            .zip(c.attn.as_slice().chunks_exact(seq.max(1)))
        {
            let row_sum: f32 = ds.iter().zip(attn).map(|(&da, &a)| da * a).sum();
            for (ds, &a) in ds.iter_mut().zip(attn) {
                *ds = a * (*ds - row_sum) * scale;
            }
        }

        // scores = Q Kᵀ ⇒ dQ = ds K, dK = dsᵀ Q
        let dq = ds.matmul_batched(&c.k)?;
        let dk = ds.matmul_tn_batched(&c.q)?;

        // projections: P = X Wᵀ ⇒ dW += dPᵀ X, dX += dP W
        add_per_sample(&mut self.wq.grad, &dq.matmul_tn_batched(&c.x)?);
        add_per_sample(&mut self.wk.grad, &dk.matmul_tn_batched(&c.x)?);
        add_per_sample(&mut self.wv.grad, &dv.matmul_tn_batched(&c.x)?);

        let mut dx = dq.matmul(&self.wq.value)?;
        dx.axpy(1.0, &dk.matmul(&self.wk.value)?)?;
        dx.axpy(1.0, &dv.matmul(&self.wv.value)?)?;
        Ok(dx)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "wq"), &self.wq);
        f(&join_name(prefix, "wk"), &self.wk);
        f(&join_name(prefix, "wv"), &self.wv);
        f(&join_name(prefix, "wo"), &self.wo);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-sample loops the whole-batch layer replaced: the bitwise
    /// reference it must match. Runs `attn`'s weights forward on `input`
    /// and backward on `dy`, adds the weight gradients onto `grads`
    /// (`wq, wk, wv, wo`) and returns `(y, dx)`.
    fn reference(
        attn: &SelfAttention,
        input: &Tensor,
        dy: &Tensor,
        grads: &mut [Tensor; 4],
    ) -> (Tensor, Tensor) {
        let dims = input.dims().to_vec();
        let (batch, seq, dim) = (dims[0], dims[1], dims[2]);
        let scale = 1.0 / (dim as f32).sqrt();
        let [wq, wk, wv, wo] = [&attn.wq, &attn.wk, &attn.wv, &attn.wo].map(|p| &p.value);
        let (mut ys, mut dxs) = (Vec::new(), Vec::new());
        for n in 0..batch {
            let x = input.index_axis0(n).unwrap();
            let q = x.matmul_nt(wq).unwrap();
            let k = x.matmul_nt(wk).unwrap();
            let v = x.matmul_nt(wv).unwrap();
            let attn = q
                .matmul_nt(&k)
                .unwrap()
                .scale(scale)
                .softmax_rows()
                .unwrap();
            let ctx = attn.matmul(&v).unwrap();
            ys.push(ctx.matmul_nt(wo).unwrap());

            let dy = dy.index_axis0(n).unwrap();
            grads[3].axpy(1.0, &dy.matmul_tn(&ctx).unwrap()).unwrap();
            let dctx = dy.matmul(wo).unwrap();
            let dattn = dctx.matmul_nt(&v).unwrap();
            let dv = attn.matmul_tn(&dctx).unwrap();
            let row_sums = dattn.mul(&attn).unwrap().row_sums().unwrap();
            let mut ds = Tensor::zeros(&[seq, seq]);
            for r in 0..seq {
                for c in 0..seq {
                    let (a, da) = (attn.at(&[r, c]).unwrap(), dattn.at(&[r, c]).unwrap());
                    ds.set(&[r, c], a * (da - row_sums.as_slice()[r])).unwrap();
                }
            }
            let ds = ds.scale(scale);
            let dq = ds.matmul(&k).unwrap();
            let dk = ds.matmul_tn(&q).unwrap();
            grads[0].axpy(1.0, &dq.matmul_tn(&x).unwrap()).unwrap();
            grads[1].axpy(1.0, &dk.matmul_tn(&x).unwrap()).unwrap();
            grads[2].axpy(1.0, &dv.matmul_tn(&x).unwrap()).unwrap();
            let mut dx = dq.matmul(wq).unwrap();
            dx.axpy(1.0, &dk.matmul(wk).unwrap()).unwrap();
            dx.axpy(1.0, &dv.matmul(wv).unwrap()).unwrap();
            dxs.push(dx);
        }
        let stack = |parts: &[Tensor]| Tensor::stack(parts).unwrap().into_shape(&dims).unwrap();
        (stack(&ys), stack(&dxs))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn grads(attn: &SelfAttention) -> [Tensor; 4] {
        [&attn.wq, &attn.wk, &attn.wv, &attn.wo].map(|p| p.grad.clone())
    }

    #[test]
    fn whole_batch_matches_the_per_sample_reference_bitwise() {
        // (batch, seq, dim); the last is the Stack Overflow proxy's block.
        for (case, &(batch, seq, dim)) in [(1, 1, 1), (2, 3, 4), (3, 5, 7), (4, 12, 16)]
            .iter()
            .enumerate()
        {
            let mut rng = SeededRng::new(40 + case as u64);
            let mut attn = SelfAttention::new(dim, &mut rng).unwrap();
            attn.visit_params_mut(&mut |p| {
                p.grad = Tensor::randn(p.value.dims(), 1.0, &mut rng);
            });
            let mut x = Tensor::randn(&[batch, seq, dim], 1.0, &mut rng);
            x.as_mut_slice()
                .iter_mut()
                .step_by(5)
                .for_each(|v| *v = 0.0);
            let mut dy = Tensor::randn(&[batch, seq, dim], 1.0, &mut rng);
            dy.as_mut_slice()
                .iter_mut()
                .step_by(3)
                .for_each(|v| *v = -0.0);

            let mut grads_ref = grads(&attn);
            let (y_ref, dx_ref) = reference(&attn, &x, &dy, &mut grads_ref);
            let y_eval = attn.forward(&x, false).unwrap();
            let y = attn.forward(&x, true).unwrap();
            let dx = attn.backward(&dy).unwrap();
            assert_eq!(bits(&y_eval), bits(&y_ref), "eval y, case {case}");
            assert_eq!(bits(&y), bits(&y_ref), "train y, case {case}");
            assert_eq!(bits(&dx), bits(&dx_ref), "dx, case {case}");
            for (name, (g, g_ref)) in ["wq", "wk", "wv", "wo"]
                .iter()
                .zip(grads(&attn).iter().zip(&grads_ref))
            {
                assert_eq!(bits(g), bits(g_ref), "d{name}, case {case}");
            }
        }
    }

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
