//! Trainable proxy models.

use mhfl_nn::{
    num_params_of, param_specs_of, state_dict_of, ChannelNorm2d, Conv2d, Embedding,
    GlobalAvgPool2d, Layer, Linear, MeanPool1d, NnError, Param, ParamSpec, Relu, Result, StateDict,
};
use mhfl_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

use crate::{scale_depth, scale_width, BlockKind, InputKind, ModelFamily, ProxyBlock};

/// Configuration of a [`ProxyModel`].
///
/// The defaults produced by [`ProxyConfig::for_family`] give every model
/// family a distinct topology (block kind, base width, full depth) while
/// keeping the networks small enough that hundreds of federated rounds run in
/// seconds on a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProxyConfig {
    /// The architecture family this proxy stands in for.
    pub family: ModelFamily,
    /// Input modality and dimensions.
    pub input: InputKind,
    /// Number of output classes.
    pub num_classes: usize,
    /// Feature dimension of the full-width model.
    pub base_dim: usize,
    /// Number of repeated blocks of the full-depth model.
    pub full_blocks: usize,
    /// Width fraction in `(0, 1]`; 1.0 is the full model.
    pub width_fraction: f64,
    /// Depth fraction in `(0, 1]`; 1.0 is the full model.
    pub depth_fraction: f64,
    /// Whether to attach an auxiliary classifier after every block
    /// (required by DepthFL-style self-distillation).
    pub with_aux_heads: bool,
    /// Seed for parameter initialisation.
    pub seed: u64,
}

impl ProxyConfig {
    /// Builds the default proxy configuration for an architecture family.
    pub fn for_family(
        family: ModelFamily,
        input: InputKind,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        let (base_dim, full_blocks) = match family {
            ModelFamily::ResNet18 => (16, 2),
            ModelFamily::ResNet34 => (16, 3),
            ModelFamily::ResNet50 => (20, 4),
            ModelFamily::ResNet101 => (24, 6),
            ModelFamily::MobileNetV2 => (12, 4),
            ModelFamily::MobileNetV3Small => (8, 3),
            ModelFamily::MobileNetV3Large => (16, 5),
            ModelFamily::AlbertBase => (16, 2),
            ModelFamily::AlbertLarge => (24, 3),
            ModelFamily::AlbertXxlarge => (32, 3),
            ModelFamily::CustomTransformer => (16, 2),
            ModelFamily::HarCnn => (32, 3),
        };
        ProxyConfig {
            family,
            input,
            num_classes,
            base_dim,
            full_blocks,
            width_fraction: 1.0,
            depth_fraction: 1.0,
            with_aux_heads: false,
            seed,
        }
    }

    /// Returns a copy scaled to the given width fraction.
    pub fn with_width(mut self, fraction: f64) -> Self {
        self.width_fraction = fraction;
        self
    }

    /// Returns a copy scaled to the given depth fraction.
    pub fn with_depth(mut self, fraction: f64) -> Self {
        self.depth_fraction = fraction;
        self
    }

    /// Returns a copy with auxiliary classifiers enabled.
    pub fn with_aux_heads(mut self, enabled: bool) -> Self {
        self.with_aux_heads = enabled;
        self
    }

    /// The block kind implied by the input modality (images get convolutional
    /// blocks, token sequences get attention blocks, feature vectors get
    /// dense blocks). Deriving this from the *input* rather than the family
    /// keeps every family usable on every task, which the platform relies on
    /// when a CV-style model pool is paired with an HAR or NLP task.
    pub fn block_kind(&self) -> BlockKind {
        match self.input {
            InputKind::Image { .. } => BlockKind::Conv,
            InputKind::Tokens { .. } => BlockKind::Attention,
            InputKind::Features { .. } => BlockKind::Dense,
        }
    }

    /// The realised feature dimension after width scaling.
    pub fn dim(&self) -> usize {
        scale_width(self.base_dim, self.width_fraction)
    }

    /// The realised block count after depth scaling.
    pub fn num_blocks(&self) -> usize {
        scale_depth(self.full_blocks, self.depth_fraction)
    }
}

/// The result of a full forward pass through a proxy model.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Pooled penultimate features `[batch, dim]` (FedProto's prototypes are
    /// class means of these).
    pub features: Tensor,
    /// Logits of the final classifier `[batch, classes]`.
    pub logits: Tensor,
    /// Logits of each auxiliary classifier (one per block) when enabled.
    pub aux_logits: Vec<Tensor>,
}

/// Pooling applied between the block stack and the classifier(s).
enum Pool {
    Spatial(GlobalAvgPool2d),
    Sequence(MeanPool1d),
    Identity,
}

impl Pool {
    fn new(input: &InputKind) -> Pool {
        match input {
            InputKind::Image { .. } => Pool::Spatial(GlobalAvgPool2d::new()),
            InputKind::Tokens { .. } => Pool::Sequence(MeanPool1d::new()),
            InputKind::Features { .. } => Pool::Identity,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        match self {
            Pool::Spatial(p) => p.forward(x, train),
            Pool::Sequence(p) => p.forward(x, train),
            Pool::Identity => Ok(x.clone()),
        }
    }

    fn backward(&mut self, g: &Tensor) -> Result<Tensor> {
        match self {
            Pool::Spatial(p) => p.backward(g),
            Pool::Sequence(p) => p.backward(g),
            Pool::Identity => Ok(g.clone()),
        }
    }
}

/// The stem mapping raw inputs into the block feature space.
// One stem per model; size imbalance between input modalities is inherent.
#[allow(clippy::large_enum_variant)]
enum Stem {
    Image {
        conv: Conv2d,
        norm: ChannelNorm2d,
        act: Relu,
    },
    Tokens {
        embedding: Embedding,
    },
    Features {
        fc: Linear,
        act: Relu,
    },
}

impl Stem {
    fn new(input: &InputKind, dim: usize, rng: &mut SeededRng) -> Result<Stem> {
        Ok(match *input {
            InputKind::Image { channels, .. } => Stem::Image {
                conv: Conv2d::new(channels, dim, 3, 1, 1, rng)?,
                norm: ChannelNorm2d::new(dim),
                act: Relu::new(),
            },
            InputKind::Tokens { vocab, .. } => Stem::Tokens {
                embedding: Embedding::new(vocab, dim, rng)?,
            },
            InputKind::Features { dim: in_dim } => Stem::Features {
                fc: Linear::new(in_dim, dim, rng),
                act: Relu::new(),
            },
        })
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        match self {
            Stem::Image { conv, norm, act } => {
                let y = conv.forward(x, train)?;
                let y = norm.forward(&y, train)?;
                act.forward(&y, train)
            }
            Stem::Tokens { embedding } => embedding.forward(x, train),
            Stem::Features { fc, act } => {
                let y = fc.forward(x, train)?;
                act.forward(&y, train)
            }
        }
    }

    /// Accumulates the stem's parameter gradients. Nothing reads the
    /// gradient with respect to the raw input, so the convolution and the
    /// linear layer do not build it.
    fn backward(&mut self, g: &Tensor) -> Result<()> {
        match self {
            Stem::Image { conv, norm, act } => {
                let g = act.backward(g)?;
                let g = norm.backward(&g)?;
                conv.backward_params(&g)
            }
            Stem::Tokens { embedding } => embedding.backward(g).map(drop),
            Stem::Features { fc, act } => {
                let g = act.backward(g)?;
                fc.backward_params(&g)
            }
        }
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        match self {
            Stem::Image { conv, norm, .. } => {
                conv.visit_params(&format!("{prefix}.conv"), f);
                norm.visit_params(&format!("{prefix}.norm"), f);
            }
            Stem::Tokens { embedding } => embedding.visit_params(&format!("{prefix}.embedding"), f),
            Stem::Features { fc, .. } => fc.visit_params(&format!("{prefix}.fc"), f),
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Stem::Image { conv, norm, .. } => {
                conv.visit_params_mut(f);
                norm.visit_params_mut(f);
            }
            Stem::Tokens { embedding } => embedding.visit_params_mut(f),
            Stem::Features { fc, .. } => fc.visit_params_mut(f),
        }
    }
}

/// A small trainable network with the structural handles of the paper's real
/// architectures: width-scalable channels, a depth-scalable block stack,
/// per-family topology, an optional auxiliary classifier per block, and a
/// state dict whose parameter names are stable across scales.
///
/// ```
/// use mhfl_models::{InputKind, ModelFamily, ProxyConfig, ProxyModel};
/// use mhfl_tensor::Tensor;
///
/// let cfg = ProxyConfig::for_family(
///     ModelFamily::ResNet18,
///     InputKind::Image { channels: 3, height: 8, width: 8 },
///     10,
///     0,
/// );
/// let mut model = ProxyModel::new(cfg)?;
/// let out = model.forward_detailed(&Tensor::zeros(&[2, 3, 8, 8]), false)?;
/// assert_eq!(out.logits.dims(), &[2, 10]);
/// # Ok::<(), mhfl_nn::NnError>(())
/// ```
pub struct ProxyModel {
    config: ProxyConfig,
    stem: Stem,
    blocks: Vec<ProxyBlock>,
    pool: Pool,
    head: Linear,
    aux_heads: Vec<Linear>,
    aux_pools: Vec<Pool>,
    dim: usize,
}

impl std::fmt::Debug for ProxyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyModel")
            .field("family", &self.config.family)
            .field("dim", &self.dim)
            .field("blocks", &self.blocks.len())
            .field("aux_heads", &self.aux_heads.len())
            .finish()
    }
}

impl ProxyModel {
    /// Builds a proxy model from a configuration.
    ///
    /// # Errors
    /// Returns an error if the configuration is degenerate (zero classes or
    /// non-positive fractions).
    pub fn new(config: ProxyConfig) -> Result<Self> {
        let mut rng = SeededRng::new(config.seed);
        Self::build(config, &mut rng)
    }

    /// Rebuilds a model from a stored snapshot, skipping random parameter
    /// initialisation entirely.
    ///
    /// Functionally equivalent to [`ProxyModel::new`] followed by
    /// [`ProxyModel::load_state_dict`], but the parameters are constructed
    /// zero-filled (no Box–Muller draws) before the snapshot overwrites
    /// them — the hot path when stateful algorithms (FedProto, Fed-ET)
    /// rebuild a client model from its persisted `(ProxyConfig, StateDict)`
    /// snapshot every round.
    ///
    /// # Errors
    /// Returns an error if the configuration is degenerate or the snapshot
    /// is missing parameters / has mismatched shapes for this configuration.
    pub fn from_state(config: ProxyConfig, state: &StateDict) -> Result<Self> {
        let mut model = Self::zeroed(config)?;
        model.load_state_dict(state)?;
        Ok(model)
    }

    /// Builds the model with every parameter zero-filled (no random draws).
    ///
    /// The zero-init RNG makes every
    /// [`Tensor::randn`](mhfl_tensor::Tensor::randn) call resolve to
    /// [`Tensor::zeros`](mhfl_tensor::Tensor::zeros), so no normal draw is
    /// made.
    ///
    /// Used when the parameters will be overwritten wholesale immediately
    /// after construction — e.g. loading an extracted sub-model whose plan
    /// needs the model's [`param_specs`](ProxyModel::param_specs) first —
    /// so the Box–Muller initialisation of [`ProxyModel::new`] would be
    /// thrown away.
    ///
    /// # Errors
    /// Returns an error if the configuration is degenerate.
    pub fn zeroed(config: ProxyConfig) -> Result<Self> {
        Self::build(config, &mut SeededRng::zero_init())
    }

    fn build(config: ProxyConfig, rng: &mut SeededRng) -> Result<Self> {
        if config.num_classes == 0 {
            return Err(NnError::InvalidConfig(
                "num_classes must be positive".into(),
            ));
        }
        if config.width_fraction <= 0.0 || config.depth_fraction <= 0.0 {
            return Err(NnError::InvalidConfig(
                "width/depth fractions must be positive".into(),
            ));
        }
        let dim = config.dim();
        let blocks_count = config.num_blocks();
        let kind = config.block_kind();

        let stem = Stem::new(&config.input, dim, rng)?;
        let mut blocks = Vec::with_capacity(blocks_count);
        for i in 0..blocks_count {
            let mut block_rng = rng.derive(i as u64 + 1);
            blocks.push(ProxyBlock::new(kind, dim, &mut block_rng)?);
        }
        let mut head_rng = rng.derive(1000);
        let head = Linear::new_head(dim, config.num_classes, &mut head_rng);
        let mut aux_heads = Vec::new();
        let mut aux_pools = Vec::new();
        if config.with_aux_heads {
            for i in 0..blocks_count {
                let mut aux_rng = rng.derive(2000 + i as u64);
                aux_heads.push(Linear::new_head(dim, config.num_classes, &mut aux_rng));
                aux_pools.push(Pool::new(&config.input));
            }
        }
        Ok(ProxyModel {
            config,
            stem,
            blocks,
            pool: Pool::new(&config.input),
            head,
            aux_heads,
            aux_pools,
            dim,
        })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// The realised feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of blocks actually instantiated.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        num_params_of(self)
    }

    /// Clones all parameters into a [`StateDict`].
    pub fn state_dict(&self) -> StateDict {
        state_dict_of(self, "")
    }

    /// Loads parameters from a state dict (all of the model's parameters must
    /// be present with matching shapes; extra entries are ignored).
    ///
    /// # Errors
    /// Returns an error describing the first missing or mismatched parameter.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<()> {
        mhfl_nn::load_state_dict(self, "", sd)
    }

    /// Parameter metadata (names, shapes, axis roles).
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        param_specs_of(self, "")
    }

    /// Full forward pass returning features, final logits and aux logits.
    /// An evaluation pass (`train == false`) returns a training pass's
    /// outputs bit for bit and keeps nothing for a backward.
    ///
    /// # Errors
    /// Returns an error if the input shape does not match the configuration.
    pub fn forward_detailed(&mut self, input: &Tensor, train: bool) -> Result<ForwardOutput> {
        let depth = self.blocks.len();
        let mut outputs = self.forward_prefixes(input, train, &[depth])?;
        Ok(outputs.pop().expect("one output per depth"))
    }

    /// An evaluation forward of block prefixes: for each `d` in `depths`, in
    /// request order, the [`ForwardOutput`] that the `d`-block prefix of
    /// this model (the stem, blocks `0..d` with their auxiliary heads, and
    /// the head) gives in [`ProxyModel::forward_detailed`], bit for bit.
    /// That is `pool` then `head` on block `d`'s output, and the aux logits
    /// of blocks `0..d`. The stem and each block run once for the whole
    /// list. Keeps nothing for a backward.
    ///
    /// # Errors
    /// Returns an error for a depth outside `1..=num_blocks()`, or if the
    /// input shape does not match the configuration.
    pub fn forward_depths(
        &mut self,
        input: &Tensor,
        depths: &[usize],
    ) -> Result<Vec<ForwardOutput>> {
        self.forward_prefixes(input, false, depths)
    }

    /// The block loop of both forwards. A training forward asks for one
    /// depth, so the pool and the head cache one pass.
    fn forward_prefixes(
        &mut self,
        input: &Tensor,
        train: bool,
        depths: &[usize],
    ) -> Result<Vec<ForwardOutput>> {
        let blocks = self.blocks.len();
        if let Some(depth) = depths.iter().find(|&&d| d == 0 || d > blocks) {
            return Err(NnError::InvalidConfig(format!(
                "depth {depth} is outside 1..={blocks}"
            )));
        }
        let deepest = depths.iter().copied().max().unwrap_or(0);
        let mut outputs = vec![None; depths.len()];
        let mut h = self.stem.forward(input, train)?;
        let mut aux_logits = Vec::with_capacity(self.aux_heads.len());
        for (i, block) in self.blocks[..deepest].iter_mut().enumerate() {
            h = block.forward(&h, train)?;
            if let (Some(aux_head), Some(aux_pool)) =
                (self.aux_heads.get_mut(i), self.aux_pools.get_mut(i))
            {
                let pooled = aux_pool.forward(&h, train)?;
                aux_logits.push(aux_head.forward(&pooled, train)?);
            }
            for (output, _) in outputs.iter_mut().zip(depths).filter(|(_, &d)| d == i + 1) {
                let features = self.pool.forward(&h, train)?;
                let logits = self.head.forward(&features, train)?;
                *output = Some(ForwardOutput {
                    features,
                    logits,
                    aux_logits: aux_logits.clone(),
                });
            }
        }
        Ok(outputs.into_iter().flatten().collect())
    }

    /// Backward pass from gradients on the final logits, optionally combined
    /// with a gradient on the pooled features (prototype regularisation) and
    /// gradients on each auxiliary classifier's logits (self-distillation).
    ///
    /// # Errors
    /// Returns an error if called without a training
    /// [`ProxyModel::forward_detailed`] before it, or with inconsistent
    /// gradient shapes.
    pub fn backward_detailed(
        &mut self,
        grad_logits: &Tensor,
        grad_features: Option<&Tensor>,
        grad_aux: &[Option<Tensor>],
    ) -> Result<()> {
        let mut g_feat = self.head.backward(grad_logits)?;
        if let Some(extra) = grad_features {
            g_feat.axpy(1.0, extra)?;
        }
        let mut g = self.pool.backward(&g_feat)?;
        for i in (0..self.blocks.len()).rev() {
            if let Some(Some(ga)) = grad_aux.get(i) {
                if let (Some(aux_head), Some(aux_pool)) =
                    (self.aux_heads.get_mut(i), self.aux_pools.get_mut(i))
                {
                    let g_aux_feat = aux_head.backward(ga)?;
                    let g_aux_block = aux_pool.backward(&g_aux_feat)?;
                    g.axpy(1.0, &g_aux_block)?;
                }
            }
            g = self.blocks[i].backward(&g)?;
        }
        self.stem.backward(&g)
    }
}

impl Layer for ProxyModel {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        Ok(self.forward_detailed(input, train)?.logits)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_detailed(grad_output, None, &[])?;
        // The gradient w.r.t. raw inputs is rarely useful for the federated
        // algorithms; return an empty placeholder of the right batch size.
        Ok(Tensor::zeros(&[grad_output.dims()[0], 0]))
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        let p = |s: &str| {
            if prefix.is_empty() {
                s.to_string()
            } else {
                format!("{prefix}.{s}")
            }
        };
        self.stem.visit_params(&p("stem"), f);
        for (i, block) in self.blocks.iter().enumerate() {
            block.visit_params(&p(&format!("block{i}")), f);
        }
        self.head.visit_params(&p("head"), f);
        for (i, aux) in self.aux_heads.iter().enumerate() {
            aux.visit_params(&p(&format!("aux{i}")), f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params_mut(f);
        for block in self.blocks.iter_mut() {
            block.visit_params_mut(f);
        }
        self.head.visit_params_mut(f);
        for aux in self.aux_heads.iter_mut() {
            aux.visit_params_mut(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_nn::loss::cross_entropy;
    use mhfl_nn::{Sgd, SgdConfig};

    fn image_input() -> InputKind {
        InputKind::Image {
            channels: 3,
            height: 8,
            width: 8,
        }
    }

    fn cifar_config(family: ModelFamily) -> ProxyConfig {
        ProxyConfig::for_family(family, image_input(), 10, 7)
    }

    #[test]
    fn forward_shapes_for_all_modalities() {
        // Vision.
        let mut cv = ProxyModel::new(cifar_config(ModelFamily::ResNet18)).unwrap();
        let out = cv
            .forward_detailed(&Tensor::zeros(&[2, 3, 8, 8]), false)
            .unwrap();
        assert_eq!(out.logits.dims(), &[2, 10]);
        assert_eq!(out.features.dims(), &[2, cv.dim()]);

        // Language.
        let nlp_cfg = ProxyConfig::for_family(
            ModelFamily::CustomTransformer,
            InputKind::Tokens {
                vocab: 50,
                seq_len: 6,
            },
            4,
            1,
        );
        let mut nlp = ProxyModel::new(nlp_cfg).unwrap();
        let out = nlp
            .forward_detailed(&Tensor::zeros(&[3, 6]), false)
            .unwrap();
        assert_eq!(out.logits.dims(), &[3, 4]);

        // HAR.
        let har_cfg =
            ProxyConfig::for_family(ModelFamily::HarCnn, InputKind::Features { dim: 12 }, 5, 2);
        let mut har = ProxyModel::new(har_cfg).unwrap();
        let out = har
            .forward_detailed(&Tensor::zeros(&[4, 12]), false)
            .unwrap();
        assert_eq!(out.logits.dims(), &[4, 5]);
    }

    /// An evaluation forward returns the training forward's outputs bit for
    /// bit, in every modality and with auxiliary heads, and leaves no state a
    /// backward could run on.
    #[test]
    fn evaluation_forward_matches_training_and_keeps_no_backward_state() {
        let mut rng = SeededRng::new(8);
        let ids = Tensor::from_vec((0..18).map(|i| (i * 7 % 50) as f32).collect(), &[3, 6]);
        let cases = [
            (
                cifar_config(ModelFamily::ResNet50).with_aux_heads(true),
                Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng),
            ),
            (
                ProxyConfig::for_family(
                    ModelFamily::CustomTransformer,
                    InputKind::Tokens {
                        vocab: 50,
                        seq_len: 6,
                    },
                    4,
                    1,
                )
                .with_aux_heads(true),
                ids.unwrap(),
            ),
            (
                ProxyConfig::for_family(ModelFamily::HarCnn, InputKind::Features { dim: 12 }, 5, 2),
                Tensor::randn(&[4, 12], 1.0, &mut rng),
            ),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, (config, x)) in cases.into_iter().enumerate() {
            let mut model = ProxyModel::new(config).unwrap();
            let trained = model.forward_detailed(&x, true).unwrap();
            let evaluated = model.forward_detailed(&x, false).unwrap();
            assert_eq!(
                bits(&evaluated.logits),
                bits(&trained.logits),
                "case {case}"
            );
            assert_eq!(
                bits(&evaluated.features),
                bits(&trained.features),
                "case {case}"
            );
            assert_eq!(evaluated.aux_logits.len(), trained.aux_logits.len());
            for (e, t) in evaluated.aux_logits.iter().zip(&trained.aux_logits) {
                assert_eq!(bits(e), bits(t), "case {case}");
            }
            let after = model.backward_detailed(&Tensor::ones(trained.logits.dims()), None, &[]);
            assert!(
                matches!(after, Err(NnError::MissingForwardCache(_))),
                "case {case}: backward after an evaluation forward gave {after:?}"
            );
        }
    }

    /// Each requested depth reads, bit for bit, what the extracted
    /// `d`-block model gives, for every modality, with and without
    /// auxiliary heads, and for depths asked out of order and repeated.
    #[test]
    fn forward_depths_match_the_extracted_prefix_models_bitwise() {
        let mut rng = SeededRng::new(9);
        let tokens = InputKind::Tokens {
            vocab: 50,
            seq_len: 6,
        };
        let ids = Tensor::from_vec((0..18).map(|i| (i * 5 % 50) as f32).collect(), &[3, 6]);
        let cases = [
            (
                cifar_config(ModelFamily::MobileNetV2),
                Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng),
            ),
            (
                ProxyConfig::for_family(ModelFamily::AlbertLarge, tokens, 4, 1),
                ids.unwrap(),
            ),
            (
                ProxyConfig::for_family(ModelFamily::HarCnn, InputKind::Features { dim: 12 }, 5, 2),
                Tensor::randn(&[4, 12], 1.0, &mut rng),
            ),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (config, x) in cases {
            for aux in [false, true] {
                let config = config.with_aux_heads(aux);
                let mut model = ProxyModel::new(config).unwrap();
                let blocks = model.num_blocks();
                assert!(blocks >= 3, "{:?} has {blocks} blocks", config.family);
                let depths = [2, blocks, 1, 2, blocks - 1];
                let outputs = model.forward_depths(&x, &depths).unwrap();
                assert_eq!(outputs.len(), depths.len());
                for (&depth, out) in depths.iter().zip(&outputs) {
                    let fraction = depth as f64 / config.full_blocks as f64;
                    let mut prefix = ProxyModel::new(config.with_depth(fraction)).unwrap();
                    assert_eq!(prefix.num_blocks(), depth);
                    prefix.load_state_dict(&model.state_dict()).unwrap();
                    let expected = prefix.forward_detailed(&x, false).unwrap();
                    let case = format!("{:?}, aux {aux}, depth {depth}", config.family);
                    assert_eq!(bits(&out.features), bits(&expected.features), "{case}");
                    assert_eq!(bits(&out.logits), bits(&expected.logits), "{case}");
                    assert_eq!(out.aux_logits.len(), expected.aux_logits.len(), "{case}");
                    for (a, e) in out.aux_logits.iter().zip(&expected.aux_logits) {
                        assert_eq!(bits(a), bits(e), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_depths_refuse_a_depth_outside_the_stack() {
        let mut model = ProxyModel::new(cifar_config(ModelFamily::ResNet18)).unwrap();
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        for depth in [0, model.num_blocks() + 1] {
            let result = model.forward_depths(&x, &[1, depth]);
            assert!(
                matches!(result, Err(NnError::InvalidConfig(_))),
                "depth {depth}: {result:?}"
            );
        }
    }

    #[test]
    fn width_scaling_changes_parameter_count_but_not_names() {
        let full = ProxyModel::new(cifar_config(ModelFamily::ResNet101)).unwrap();
        let half = ProxyModel::new(cifar_config(ModelFamily::ResNet101).with_width(0.5)).unwrap();
        assert!(half.num_parameters() < full.num_parameters());
        let full_names: Vec<String> = full.param_specs().iter().map(|s| s.name.clone()).collect();
        let half_names: Vec<String> = half.param_specs().iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            full_names, half_names,
            "width scaling keeps parameter names"
        );
    }

    #[test]
    fn depth_scaling_drops_trailing_blocks() {
        let full = ProxyModel::new(cifar_config(ModelFamily::ResNet101)).unwrap();
        let half = ProxyModel::new(cifar_config(ModelFamily::ResNet101).with_depth(0.5)).unwrap();
        assert!(half.num_blocks() < full.num_blocks());
        let half_sd = half.state_dict();
        let full_sd = full.state_dict();
        // Every shallow parameter exists in the deep model with the same shape.
        for (name, tensor) in half_sd.iter() {
            let deep = full_sd.get(name).expect("prefix blocks share names");
            assert_eq!(deep.dims(), tensor.dims());
        }
    }

    #[test]
    fn aux_heads_produce_per_block_logits() {
        let cfg = cifar_config(ModelFamily::ResNet50).with_aux_heads(true);
        let mut model = ProxyModel::new(cfg).unwrap();
        let out = model
            .forward_detailed(&Tensor::zeros(&[2, 3, 8, 8]), true)
            .unwrap();
        assert_eq!(out.aux_logits.len(), model.num_blocks());
        for logits in &out.aux_logits {
            assert_eq!(logits.dims(), &[2, 10]);
        }
        // Backward with aux gradients must not error.
        let grads: Vec<Option<Tensor>> = out
            .aux_logits
            .iter()
            .map(|l| Some(Tensor::ones(l.dims())))
            .collect();
        model
            .backward_detailed(&Tensor::ones(out.logits.dims()), None, &grads)
            .unwrap();
    }

    #[test]
    fn state_dict_round_trips() {
        let model = ProxyModel::new(cifar_config(ModelFamily::MobileNetV2)).unwrap();
        let sd = model.state_dict();
        let mut model2 =
            ProxyModel::new(cifar_config(ModelFamily::MobileNetV2).with_width(1.0)).unwrap();
        model2.load_state_dict(&sd).unwrap();
        assert_eq!(model2.state_dict(), sd);
        // Loading into a different width fails with a shape mismatch.
        let mut half =
            ProxyModel::new(cifar_config(ModelFamily::MobileNetV2).with_width(0.5)).unwrap();
        assert!(half.load_state_dict(&sd).is_err());
        // A fresh init with a different seed differs from sd (sanity that load matters).
        let fresh = ProxyModel::new(ProxyConfig {
            seed: 99,
            ..cifar_config(ModelFamily::MobileNetV2)
        })
        .unwrap();
        assert!(fresh.state_dict().l2_distance_sq(&sd) > 0.0);
    }

    /// The name-free mutable walk visits the named walk's parameters in its
    /// order, through every stem and block kind and the auxiliary heads:
    /// it stamps each parameter with its position, and the named walk must
    /// read the positions back as 0, 1, 2, … with the shapes it saw first.
    #[test]
    fn mutable_walk_visits_the_named_walk_in_order() {
        let tokens = InputKind::Tokens {
            vocab: 50,
            seq_len: 6,
        };
        for config in [
            cifar_config(ModelFamily::ResNet18),
            ProxyConfig::for_family(ModelFamily::AlbertLarge, tokens, 4, 1),
            ProxyConfig::for_family(ModelFamily::HarCnn, InputKind::Features { dim: 12 }, 5, 2),
        ] {
            for aux in [false, true] {
                let mut model = ProxyModel::new(config.with_aux_heads(aux)).unwrap();
                let case = format!("{:?}, aux {aux}", config.family);
                let mut shapes = Vec::new();
                model.visit_params("", &mut |_, p| shapes.push(p.value.dims().to_vec()));
                let mut stamped = Vec::new();
                model.visit_params_mut(&mut |p| {
                    p.value = Tensor::full(p.value.dims(), stamped.len() as f32);
                    stamped.push(p.value.dims().to_vec());
                });
                assert_eq!(stamped, shapes, "{case}: count and shapes");
                let mut position = 0;
                model.visit_params("", &mut |name, p| {
                    let stamp = position as f32;
                    assert!(
                        p.value.as_slice().iter().all(|&v| v == stamp),
                        "{case}: {name} at {position}"
                    );
                    position += 1;
                });
            }
        }
    }

    #[test]
    fn proxy_trains_on_separable_data() {
        let cfg =
            ProxyConfig::for_family(ModelFamily::HarCnn, InputKind::Features { dim: 8 }, 2, 3);
        let mut model = ProxyModel::new(cfg).unwrap();
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            grad_clip: Some(5.0),
        });
        let mut rng = SeededRng::new(42);
        // Two Gaussian blobs.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..32 {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..8 {
                xs.push(rng.normal(center, 0.3));
            }
            labels.push(class);
        }
        let x = Tensor::from_vec(xs, &[32, 8]).unwrap();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            model.zero_grad();
            let out = model.forward_detailed(&x, true).unwrap();
            let (loss, grad) = cross_entropy(&out.logits, &labels).unwrap();
            model.backward_detailed(&grad, None, &[]).unwrap();
            opt.step(&mut model).unwrap();
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.6,
            "training did not reduce loss: {last} vs {first:?}"
        );
    }

    #[test]
    fn from_state_matches_new_plus_load_exactly() {
        for cfg in [
            cifar_config(ModelFamily::ResNet50).with_width(0.5),
            cifar_config(ModelFamily::MobileNetV2).with_aux_heads(true),
            ProxyConfig::for_family(ModelFamily::HarCnn, InputKind::Features { dim: 12 }, 5, 3),
        ] {
            let original = ProxyModel::new(cfg).unwrap();
            let sd = original.state_dict();

            let mut via_load = ProxyModel::new(cfg).unwrap();
            via_load.load_state_dict(&sd).unwrap();
            let mut via_from_state = ProxyModel::from_state(cfg, &sd).unwrap();

            assert_eq!(via_from_state.state_dict(), via_load.state_dict());
            assert_eq!(via_from_state.num_parameters(), via_load.num_parameters());
            // Forward passes agree bit-for-bit.
            let x = match cfg.input {
                InputKind::Image {
                    channels,
                    height,
                    width,
                } => Tensor::ones(&[2, channels, height, width]),
                InputKind::Tokens { seq_len, .. } => Tensor::zeros(&[2, seq_len]),
                InputKind::Features { dim } => Tensor::ones(&[2, dim]),
            };
            let a = via_load.forward_detailed(&x, false).unwrap();
            let b = via_from_state.forward_detailed(&x, false).unwrap();
            assert_eq!(a.logits.as_slice(), b.logits.as_slice());
            assert_eq!(a.features.as_slice(), b.features.as_slice());
        }
    }

    #[test]
    fn from_state_rejects_mismatched_snapshots() {
        let full = ProxyModel::new(cifar_config(ModelFamily::ResNet34)).unwrap();
        let sd = full.state_dict();
        let half_cfg = cifar_config(ModelFamily::ResNet34).with_width(0.5);
        assert!(ProxyModel::from_state(half_cfg, &sd).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = cifar_config(ModelFamily::ResNet18);
        assert!(ProxyModel::new(ProxyConfig {
            num_classes: 0,
            ..cfg
        })
        .is_err());
        assert!(ProxyModel::new(ProxyConfig {
            width_fraction: 0.0,
            ..cfg
        })
        .is_err());
        assert!(ProxyModel::new(ProxyConfig {
            depth_fraction: -1.0,
            ..cfg
        })
        .is_err());
    }

    #[test]
    fn topology_families_have_distinct_shapes() {
        let a = ProxyModel::new(cifar_config(ModelFamily::ResNet18)).unwrap();
        let b = ProxyModel::new(cifar_config(ModelFamily::ResNet101)).unwrap();
        assert_ne!(a.num_parameters(), b.num_parameters());
        assert_ne!(a.num_blocks(), b.num_blocks());
    }
}
