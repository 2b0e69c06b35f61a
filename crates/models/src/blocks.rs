//! Composite building blocks of the proxy models.

use mhfl_nn::{
    ChannelNorm2d, Conv2d, Gelu, Layer, LayerNorm, Linear, NnError, Param, Relu, Result,
    SelfAttention,
};
use mhfl_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// The kind of repeated block a proxy architecture stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// Convolution + channel norm + ReLU with a residual connection
    /// (ResNet/MobileNet-style proxies).
    Conv,
    /// Linear + layer norm + ReLU with a residual connection
    /// (HAR CNN proxy).
    Dense,
    /// Self-attention + feed-forward transformer encoder block
    /// (ALBERT / custom-transformer proxies).
    Attention,
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// One repeatable block of a [`crate::ProxyModel`].
///
/// All three variants keep the feature dimension constant (`dim -> dim`), so
/// depth-heterogeneous clients that keep only a prefix of the blocks still
/// feed the classifier a vector of the same size.
// Variant sizes intentionally differ (a transformer block carries far more
// state than a dense one); blocks are built once per model, never moved in a
// hot loop, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum ProxyBlock {
    /// Convolutional residual block over `[batch, dim, h, w]` maps.
    Conv {
        /// 3×3 convolution.
        conv: Conv2d,
        /// Per-channel normalisation.
        norm: ChannelNorm2d,
        /// Activation.
        act: Relu,
    },
    /// Dense residual block over `[batch, dim]` vectors.
    Dense {
        /// Fully-connected transform.
        fc: Linear,
        /// Feature normalisation.
        norm: LayerNorm,
        /// Activation.
        act: Relu,
    },
    /// Transformer encoder block over `[batch, seq, dim]` sequences.
    Attention {
        /// Self-attention sub-layer.
        attn: SelfAttention,
        /// Post-attention normalisation.
        norm1: LayerNorm,
        /// Feed-forward expansion.
        fc1: Linear,
        /// Feed-forward activation.
        act: Gelu,
        /// Feed-forward projection back to `dim`.
        fc2: Linear,
        /// Post-FFN normalisation.
        norm2: LayerNorm,
    },
}

impl std::fmt::Debug for ProxyBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyBlock::Conv { conv, .. } => {
                write!(f, "ConvBlock(dim={})", conv.out_channels())
            }
            ProxyBlock::Dense { fc, .. } => write!(f, "DenseBlock(dim={})", fc.out_features()),
            ProxyBlock::Attention { attn, .. } => write!(f, "AttentionBlock(dim={})", attn.dim()),
        }
    }
}

impl ProxyBlock {
    /// Builds a block of the requested kind with feature dimension `dim`.
    ///
    /// # Errors
    /// Returns an error when `dim == 0`.
    pub fn new(kind: BlockKind, dim: usize, rng: &mut SeededRng) -> Result<Self> {
        if dim == 0 {
            return Err(NnError::InvalidConfig(
                "block dimension must be positive".into(),
            ));
        }
        Ok(match kind {
            BlockKind::Conv => ProxyBlock::Conv {
                conv: Conv2d::new(dim, dim, 3, 1, 1, rng)?,
                norm: ChannelNorm2d::new(dim),
                act: Relu::new(),
            },
            BlockKind::Dense => ProxyBlock::Dense {
                fc: Linear::new(dim, dim, rng),
                norm: LayerNorm::new(dim),
                act: Relu::new(),
            },
            BlockKind::Attention => ProxyBlock::Attention {
                attn: SelfAttention::new(dim, rng)?,
                norm1: LayerNorm::new(dim),
                fc1: Linear::new(dim, dim * 2, rng),
                act: Gelu::new(),
                fc2: Linear::new(dim * 2, dim, rng),
                norm2: LayerNorm::new(dim),
            },
        })
    }

    /// The block kind.
    pub fn kind(&self) -> BlockKind {
        match self {
            ProxyBlock::Conv { .. } => BlockKind::Conv,
            ProxyBlock::Dense { .. } => BlockKind::Dense,
            ProxyBlock::Attention { .. } => BlockKind::Attention,
        }
    }
}

impl Layer for ProxyBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        match self {
            ProxyBlock::Conv { conv, norm, act } => {
                let y = conv.forward(input, train)?;
                let y = norm.forward(&y, train)?;
                let y = act.forward(&y, train)?;
                Ok(y.add(input)?)
            }
            ProxyBlock::Dense { fc, norm, act } => {
                let y = fc.forward(input, train)?;
                let y = norm.forward(&y, train)?;
                let y = act.forward(&y, train)?;
                Ok(y.add(input)?)
            }
            ProxyBlock::Attention {
                attn,
                norm1,
                fc1,
                act,
                fc2,
                norm2,
            } => {
                let a = attn.forward(input, train)?;
                let a = norm1.forward(&a, train)?;
                let h = a.add(input)?;
                let y = fc1.forward(&h, train)?;
                let y = act.forward(&y, train)?;
                let y = fc2.forward(&y, train)?;
                let y = norm2.forward(&y, train)?;
                Ok(y.add(&h)?)
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        match self {
            // Each inner layer refuses a backward before its forward, so the
            // blocks keep no cache of their own.
            ProxyBlock::Conv { conv, norm, act } => {
                let g = act.backward(grad_output)?;
                let g = norm.backward(&g)?;
                let mut g = conv.backward(&g)?;
                // Residual connection adds the upstream gradient directly.
                g.axpy(1.0, grad_output)?;
                Ok(g)
            }
            ProxyBlock::Dense { fc, norm, act } => {
                let g = act.backward(grad_output)?;
                let g = norm.backward(&g)?;
                let mut g = fc.backward(&g)?;
                g.axpy(1.0, grad_output)?;
                Ok(g)
            }
            ProxyBlock::Attention {
                attn,
                norm1,
                fc1,
                act,
                fc2,
                norm2,
            } => {
                // FFN branch.
                let g = norm2.backward(grad_output)?;
                let g = fc2.backward(&g)?;
                let g = act.backward(&g)?;
                let mut g_h = fc1.backward(&g)?;
                g_h.axpy(1.0, grad_output)?;
                // Attention branch.
                let g = norm1.backward(&g_h)?;
                let mut g_x = attn.backward(&g)?;
                g_x.axpy(1.0, &g_h)?;
                Ok(g_x)
            }
        }
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        match self {
            ProxyBlock::Conv { conv, norm, .. } => {
                conv.visit_params(&join(prefix, "conv"), f);
                norm.visit_params(&join(prefix, "norm"), f);
            }
            ProxyBlock::Dense { fc, norm, .. } => {
                fc.visit_params(&join(prefix, "fc"), f);
                norm.visit_params(&join(prefix, "norm"), f);
            }
            ProxyBlock::Attention {
                attn,
                norm1,
                fc1,
                fc2,
                norm2,
                ..
            } => {
                attn.visit_params(&join(prefix, "attn"), f);
                norm1.visit_params(&join(prefix, "norm1"), f);
                fc1.visit_params(&join(prefix, "fc1"), f);
                fc2.visit_params(&join(prefix, "fc2"), f);
                norm2.visit_params(&join(prefix, "norm2"), f);
            }
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            ProxyBlock::Conv { conv, norm, .. } => {
                conv.visit_params_mut(f);
                norm.visit_params_mut(f);
            }
            ProxyBlock::Dense { fc, norm, .. } => {
                fc.visit_params_mut(f);
                norm.visit_params_mut(f);
            }
            ProxyBlock::Attention {
                attn,
                norm1,
                fc1,
                fc2,
                norm2,
                ..
            } => {
                attn.visit_params_mut(f);
                norm1.visit_params_mut(f);
                fc1.visit_params_mut(f);
                fc2.visit_params_mut(f);
                norm2.visit_params_mut(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_check(block: &mut ProxyBlock, x: &Tensor, indices: &[usize], tol: f32) {
        let mut rng = SeededRng::new(99);
        let weights = Tensor::randn(x.dims(), 1.0, &mut rng);
        block.forward(x, true).unwrap();
        let dx = block.backward(&weights).unwrap();
        let eps = 1e-2;
        for &idx in indices {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = block
                .forward(&xp, true)
                .unwrap()
                .mul(&weights)
                .unwrap()
                .sum();
            let fm = block
                .forward(&xm, true)
                .unwrap()
                .mul(&weights)
                .unwrap()
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < tol,
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn conv_block_preserves_shape_and_gradients() {
        let mut rng = SeededRng::new(0);
        let mut block = ProxyBlock::new(BlockKind::Conv, 4, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 4, 5, 5], 0.5, &mut rng);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.dims(), x.dims());
        grad_check(&mut block, &x, &[0, 17, 60], 0.15);
    }

    #[test]
    fn dense_block_preserves_shape_and_gradients() {
        let mut rng = SeededRng::new(1);
        let mut block = ProxyBlock::new(BlockKind::Dense, 6, &mut rng).unwrap();
        let x = Tensor::randn(&[3, 6], 0.5, &mut rng);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.dims(), x.dims());
        grad_check(&mut block, &x, &[0, 7, 15], 0.1);
    }

    #[test]
    fn attention_block_preserves_shape_and_gradients() {
        let mut rng = SeededRng::new(2);
        let mut block = ProxyBlock::new(BlockKind::Attention, 4, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 4], 0.5, &mut rng);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.dims(), x.dims());
        grad_check(&mut block, &x, &[0, 5, 11], 0.15);
    }

    #[test]
    fn backward_before_forward_is_missing_cache() {
        let mut rng = SeededRng::new(5);
        for (kind, dims) in [
            (BlockKind::Conv, &[1, 4, 3, 3][..]),
            (BlockKind::Dense, &[2, 4]),
            (BlockKind::Attention, &[1, 3, 4]),
        ] {
            let mut block = ProxyBlock::new(kind, 4, &mut rng).unwrap();
            let result = block.backward(&Tensor::ones(dims));
            assert!(
                matches!(result, Err(NnError::MissingForwardCache(_))),
                "{kind:?}: {result:?}"
            );
        }
    }

    #[test]
    fn block_params_are_prefixed() {
        let mut rng = SeededRng::new(3);
        let block = ProxyBlock::new(BlockKind::Attention, 4, &mut rng).unwrap();
        let mut names = Vec::new();
        block.visit_params("block0", &mut |name, _| names.push(name.to_string()));
        assert!(names.iter().all(|n| n.starts_with("block0.")));
        assert!(names.iter().any(|n| n == "block0.attn.wq"));
        assert!(names.iter().any(|n| n == "block0.fc2.bias"));
    }

    #[test]
    fn kinds_round_trip() {
        let mut rng = SeededRng::new(4);
        for kind in [BlockKind::Conv, BlockKind::Dense, BlockKind::Attention] {
            let block = ProxyBlock::new(kind, 4, &mut rng).unwrap();
            assert_eq!(block.kind(), kind);
        }
        assert!(ProxyBlock::new(BlockKind::Dense, 0, &mut rng).is_err());
    }
}
