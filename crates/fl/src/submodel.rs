//! Width/depth sub-model extraction and overlap-aware aggregation.
//!
//! These are the two primitives every partial-aggregation MHFL algorithm is
//! built from, and both replay one [`ExtractionPlan`]:
//!
//! * [`ExtractionPlan::extract`] slices a client-sized state dict out of the
//!   global model, choosing channel indices per width-scalable axis
//!   according to a [`WidthSelection`] (contiguous prefix for
//!   HeteroFL/Fjord, a rolling window for FedRolex). Depth-heterogeneous
//!   clients simply request fewer parameter names — the same code path
//!   handles them.
//! * [`ServerAggregator`] accumulates client updates back into the global
//!   coordinate space and averages every global entry by how many clients
//!   actually covered it, keeping the previous global value for uncovered
//!   entries (HeteroFL-style partial averaging).
//!
//! A plan holds the per-parameter, per-axis gather offsets of one `(client
//! shape set, selection)` pair, so extraction is a single-pass multi-axis
//! gather and aggregation a single-pass scatter-add. Building one takes
//! microseconds, so callers build it where they use it and keep none. The
//! in-crate tests pin both passes bit-for-bit against sequential reference
//! implementations (per-axis `gather_axis`, per-element coordinate
//! decoding) that exist only under `cfg(test)`.

use std::collections::BTreeMap;

use mhfl_nn::{AxisRole, ParamSpec, StateDict};
use mhfl_tensor::Tensor;

use crate::adversary::RobustAggregation;
use crate::{FlError, FlResult};

/// How width-scalable axes choose which global channels a sub-model keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthSelection {
    /// The first `k` channels (nested sub-networks; HeteroFL, Fjord).
    Prefix,
    /// A window of `k` consecutive channels starting at `shift` (mod the full
    /// width), advanced every round (FedRolex).
    Rolling {
        /// Window offset, typically the round index.
        shift: usize,
    },
}

impl WidthSelection {
    /// The global indices a client axis of length `client_len` maps to, for a
    /// global axis of length `global_len`.
    pub fn indices(&self, global_len: usize, client_len: usize) -> Vec<usize> {
        match *self {
            WidthSelection::Prefix => (0..client_len.min(global_len)).collect(),
            WidthSelection::Rolling { shift } => (0..client_len.min(global_len))
                .map(|i| (shift + i) % global_len.max(1))
                .collect(),
        }
    }
}

/// Computes, for one parameter, the global index list of every axis of the
/// client tensor.
///
/// Axes whose client extent equals the global extent map to the identity;
/// width-scalable axes (`OutFeatures`/`InFeatures`) use `selection`; a size
/// mismatch on a `Fixed` axis is an error.
///
/// # Errors
/// Returns [`FlError::InvalidConfig`] when a fixed axis disagrees in size or
/// the ranks differ.
pub fn axis_indices(
    global_shape: &[usize],
    client_shape: &[usize],
    roles: &[AxisRole],
    selection: WidthSelection,
) -> FlResult<Vec<Vec<usize>>> {
    if global_shape.len() != client_shape.len() || roles.len() != global_shape.len() {
        return Err(FlError::InvalidConfig(format!(
            "rank mismatch: global {global_shape:?}, client {client_shape:?}"
        )));
    }
    global_shape
        .iter()
        .zip(client_shape.iter())
        .zip(roles.iter())
        .map(|((&g, &c), role)| {
            if c == g {
                Ok((0..g).collect())
            } else if c < g && matches!(role, AxisRole::OutFeatures | AxisRole::InFeatures) {
                Ok(selection.indices(g, c))
            } else {
                Err(FlError::InvalidConfig(format!(
                    "axis with role {role:?} cannot map client extent {c} onto global extent {g}"
                )))
            }
        })
        .collect()
}

/// One parameter's precomputed gather recipe inside an [`ExtractionPlan`].
#[derive(Debug)]
struct PlanEntry {
    /// Fully-qualified parameter name.
    name: String,
    /// Client-side tensor shape.
    client_dims: Vec<usize>,
    /// Global-side tensor shape, which the global tensor and the scatter
    /// targets must have.
    global_dims: Vec<usize>,
    /// `axis_offsets[a][i]` is the flat-offset contribution of client
    /// coordinate `i` on axis `a`: `global_index(a, i) × global_stride(a)`.
    /// Summing one offset per axis yields the flat global position, so a
    /// single odometer pass visits every element — no per-element
    /// coordinate decode, no per-axis intermediate tensors.
    axis_offsets: Vec<Vec<usize>>,
    /// Number of client elements.
    client_len: usize,
    /// Every axis maps identically (extraction is a straight copy).
    identity: bool,
    /// The innermost axis maps to a contiguous global run starting at the
    /// base offset, so the inner loop is a `copy_from_slice`.
    tail_contiguous: bool,
}

impl PlanEntry {
    /// Invokes `f` with the global base offset of every client "row" (all
    /// axes but the innermost), in row-major client order.
    fn for_each_base(&self, f: &mut impl FnMut(usize)) {
        let outer = self.client_dims.len().saturating_sub(1);
        if self.client_dims.contains(&0) {
            return;
        }
        let mut coord = vec![0usize; outer];
        loop {
            let base: usize = coord
                .iter()
                .enumerate()
                .map(|(axis, &c)| self.axis_offsets[axis][c])
                .sum();
            f(base);
            // Row-major odometer: bump the last outer axis first.
            let mut axis = outer;
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                coord[axis] += 1;
                if coord[axis] < self.client_dims[axis] {
                    break;
                }
                coord[axis] = 0;
            }
        }
    }

    /// Single-pass gather of this parameter out of the global tensor.
    fn gather(&self, src: &Tensor) -> FlResult<Tensor> {
        if self.identity {
            return Ok(src.clone());
        }
        let src_data = src.as_slice();
        let mut data = Vec::with_capacity(self.client_len);
        let tail = self.axis_offsets.last().map_or(&[][..], Vec::as_slice);
        self.for_each_base(&mut |base| {
            if self.tail_contiguous {
                data.extend_from_slice(&src_data[base..base + tail.len()]);
            } else {
                for &off in tail {
                    data.push(src_data[base + off]);
                }
            }
        });
        Ok(Tensor::from_vec(data, &self.client_dims)?)
    }

    /// Single-pass scatter-add of a client tensor into `sums`/`counts`
    /// (the aggregation return path), visiting client elements in the same
    /// row-major order as the reference implementation.
    fn scatter_add(&self, client: &[f32], sums: &mut [f32], counts: &mut [f32], weight: f32) {
        if self.client_dims.is_empty() {
            // Rank-0 degenerate case: a single scalar at offset 0.
            sums[0] += weight * client[0];
            counts[0] += weight;
            return;
        }
        let tail = self.axis_offsets.last().map_or(&[][..], Vec::as_slice);
        let mut pos = 0usize;
        self.for_each_base(&mut |base| {
            for &off in tail {
                sums[base + off] += weight * client[pos];
                counts[base + off] += weight;
                pos += 1;
            }
        });
    }
}

/// A precomputed, reusable recipe mapping one set of client-shaped tensors
/// onto the global coordinate space under one [`WidthSelection`].
///
/// Building a plan costs one [`axis_indices`] evaluation per parameter;
/// replaying it performs extraction as a single-pass multi-axis gather and
/// aggregation as a single-pass scatter-add.
#[derive(Debug)]
pub struct ExtractionPlan {
    entries: Vec<PlanEntry>,
    /// Client parameters the global model does not track (skipped by
    /// aggregation, an error for extraction).
    skipped: Vec<String>,
}

impl ExtractionPlan {
    /// Builds the plan for `client_shapes` (name → shape, in the order the
    /// tensors will be presented) against the global parameter specs.
    ///
    /// Client names missing from `global_specs` are recorded as skipped:
    /// [`ExtractionPlan::extract`] refuses to run with skipped entries
    /// (the global model cannot produce them) while the scatter-add path
    /// ignores them (client-only parameters such as personalised heads).
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] when a shape cannot be mapped
    /// (rank mismatch or a shrunken `Fixed` axis).
    fn build<'a>(
        global_specs: &[ParamSpec],
        client_shapes: impl IntoIterator<Item = (&'a str, &'a [usize])>,
        selection: WidthSelection,
    ) -> FlResult<Self> {
        let spec_index: BTreeMap<&str, &ParamSpec> =
            global_specs.iter().map(|s| (s.name.as_str(), s)).collect();
        let mut entries = Vec::new();
        let mut skipped = Vec::new();
        for (name, client_dims) in client_shapes {
            let Some(spec) = spec_index.get(name) else {
                skipped.push(name.to_string());
                continue;
            };
            let indices = axis_indices(&spec.shape, client_dims, &spec.roles, selection)?;
            let mut strides = vec![1usize; spec.shape.len()];
            for i in (0..spec.shape.len().saturating_sub(1)).rev() {
                strides[i] = strides[i + 1] * spec.shape[i + 1];
            }
            let identity = indices
                .iter()
                .zip(spec.shape.iter())
                .all(|(idx, &g)| idx.len() == g && idx.iter().enumerate().all(|(i, &v)| i == v));
            let tail_contiguous = indices
                .last()
                .is_some_and(|idx| idx.iter().enumerate().all(|(i, &v)| i == v));
            let axis_offsets: Vec<Vec<usize>> = indices
                .iter()
                .enumerate()
                .map(|(axis, idx)| idx.iter().map(|&v| v * strides[axis]).collect())
                .collect();
            entries.push(PlanEntry {
                name: name.to_string(),
                client_dims: client_dims.to_vec(),
                global_dims: spec.shape.clone(),
                axis_offsets,
                client_len: client_dims.iter().product(),
                identity,
                tail_contiguous,
            });
        }
        Ok(ExtractionPlan { entries, skipped })
    }

    /// Plan for a client model described by its [`ParamSpec`]s (the
    /// extraction direction).
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] when a shape cannot be mapped
    /// (rank mismatch or a shrunken `Fixed` axis).
    pub fn for_client_specs(
        global_specs: &[ParamSpec],
        client_specs: &[ParamSpec],
        selection: WidthSelection,
    ) -> FlResult<Self> {
        Self::build(
            global_specs,
            client_specs
                .iter()
                .map(|s| (s.name.as_str(), s.shape.as_slice())),
            selection,
        )
    }

    /// Plan for an uploaded client state dict (the aggregation direction).
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] when a shape cannot be mapped
    /// (rank mismatch or a shrunken `Fixed` axis).
    pub fn for_state(
        global_specs: &[ParamSpec],
        state: &StateDict,
        selection: WidthSelection,
    ) -> FlResult<Self> {
        Self::build(
            global_specs,
            state.iter().map(|(name, t)| (name.as_str(), t.dims())),
            selection,
        )
    }

    /// Extracts the client-sized sub-model from the global state dict in a
    /// single gather pass per parameter.
    ///
    /// # Errors
    /// Returns an error if the plan recorded parameters the global model
    /// lacks, or a tensor of `global` is missing or not the shape the plan
    /// was built for.
    pub fn extract(&self, global: &StateDict) -> FlResult<StateDict> {
        if let Some(missing) = self.skipped.first() {
            return Err(FlError::InvalidConfig(format!(
                "global model lacks {missing}"
            )));
        }
        let mut out = StateDict::new();
        for entry in &self.entries {
            let tensor = require_shaped(global, &entry.name, &entry.global_dims)?;
            out.insert(entry.name.clone(), entry.gather(tensor)?);
        }
        Ok(out)
    }
}

/// Accumulates heterogeneous client updates into the global coordinate space
/// and produces the HeteroFL-style partial average.
///
/// With a [`RobustAggregation`] mode attached ([`with_robust`]
/// (ServerAggregator::with_robust)) the fold hardens against byzantine
/// contributions: norm-clipping bounds each client's joint L2 norm before
/// the weighted scatter, and coordinate-median replaces the weighted
/// per-coordinate mean with an unweighted per-coordinate median over the
/// clients covering that coordinate. The default
/// ([`RobustAggregation::None`]) is the exact pre-existing streaming path.
#[derive(Debug, Clone)]
pub struct ServerAggregator {
    sums: BTreeMap<String, Tensor>,
    counts: BTreeMap<String, Tensor>,
    global_specs: Vec<ParamSpec>,
    robust: RobustAggregation,
    /// Per-client `(sums, counts)` scatter pairs, kept only under
    /// [`RobustAggregation::CoordinateMedian`] (the median needs every
    /// contribution at finalize time; the mean streams).
    per_update: Vec<(BTreeMap<String, Tensor>, BTreeMap<String, Tensor>)>,
}

impl ServerAggregator {
    /// Creates an aggregator for a global model described by `global_specs`.
    pub fn new(global_specs: Vec<ParamSpec>) -> Self {
        let sums = Self::zeroed_maps(&global_specs);
        let counts = Self::zeroed_maps(&global_specs);
        ServerAggregator {
            sums,
            counts,
            global_specs,
            robust: RobustAggregation::None,
            per_update: Vec::new(),
        }
    }

    /// Builder-style robust-aggregation toggle.
    #[must_use]
    pub fn with_robust(mut self, robust: RobustAggregation) -> Self {
        self.robust = robust;
        self
    }

    fn zeroed_maps(global_specs: &[ParamSpec]) -> BTreeMap<String, Tensor> {
        global_specs
            .iter()
            .map(|s| (s.name.clone(), Tensor::zeros(&s.shape)))
            .collect()
    }

    /// A clipped copy of the uploaded state when the joint L2 norm exceeds
    /// `max_norm`, `None` when the update is already inside the ball (the
    /// common case for honest clients — no copy, no work).
    fn clipped(client_update: &StateDict, max_norm: f32) -> Option<StateDict> {
        if crate::adversary::state_l2_norm(client_update) <= max_norm {
            return None;
        }
        let mut clipped = client_update.clone();
        crate::adversary::clip_state(&mut clipped, max_norm);
        Some(clipped)
    }

    /// Adds one client's updated sub-model, weighted by `weight`
    /// (typically the client's sample count or 1.0), through the
    /// [`ExtractionPlan`] of its shapes and selection: one scatter-add pass
    /// per parameter.
    ///
    /// # Errors
    /// Returns an error if a tensor's shape disagrees with the plan.
    pub fn add_update_with_plan(
        &mut self,
        client_update: &StateDict,
        plan: &ExtractionPlan,
        weight: f32,
    ) -> FlResult<()> {
        let clipped = match self.robust {
            RobustAggregation::NormClip { max_norm } => Self::clipped(client_update, max_norm),
            _ => None,
        };
        let update = clipped.as_ref().unwrap_or(client_update);
        scatter_plan(&mut self.sums, &mut self.counts, update, plan, weight)?;
        if matches!(self.robust, RobustAggregation::CoordinateMedian) {
            let mut sums = Self::zeroed_maps(&self.global_specs);
            let mut counts = Self::zeroed_maps(&self.global_specs);
            scatter_plan(&mut sums, &mut counts, update, plan, 1.0)?;
            self.per_update.push((sums, counts));
        }
        Ok(())
    }

    /// Produces the new global state dict: covered entries become the
    /// weighted average (or, under
    /// [`RobustAggregation::CoordinateMedian`], the per-coordinate median)
    /// of contributions, uncovered entries keep the previous global value.
    ///
    /// # Errors
    /// Returns an error if a tensor of `previous_global` is missing or not
    /// the shape of its parameter spec.
    pub fn finalize(&self, previous_global: &StateDict) -> FlResult<StateDict> {
        if matches!(self.robust, RobustAggregation::CoordinateMedian) {
            return self.finalize_median(previous_global);
        }
        let mut out = StateDict::new();
        for spec in &self.global_specs {
            let prev = require_shaped(previous_global, &spec.name, &spec.shape)?;
            let sums = &self.sums[&spec.name];
            let counts = &self.counts[&spec.name];
            let data = prev
                .as_slice()
                .iter()
                .zip(sums.as_slice())
                .zip(counts.as_slice())
                .map(|((&p, &s), &c)| if c > 0.0 { s / c } else { p })
                .collect();
            out.insert(spec.name.clone(), Tensor::from_vec(data, &spec.shape)?);
        }
        Ok(out)
    }

    /// Per-coordinate median over the clients that covered each coordinate;
    /// coordinates nobody covered keep the previous global value. Weights
    /// (sample counts, staleness) are deliberately ignored — a byzantine
    /// client must not be able to buy leverage by claiming more samples.
    fn finalize_median(&self, previous_global: &StateDict) -> FlResult<StateDict> {
        let mut out = StateDict::new();
        let mut scratch = Vec::with_capacity(self.per_update.len());
        for spec in &self.global_specs {
            let prev = require_shaped(previous_global, &spec.name, &spec.shape)?;
            let counts = &self.counts[&spec.name];
            let views: Vec<(&[f32], &[f32])> = self
                .per_update
                .iter()
                .map(|(s, c)| (s[&spec.name].as_slice(), c[&spec.name].as_slice()))
                .collect();
            let data = prev
                .as_slice()
                .iter()
                .zip(counts.as_slice())
                .enumerate()
                .map(|(i, (&p, &c))| {
                    if c <= 0.0 {
                        return p;
                    }
                    scratch.clear();
                    for (sums, counts) in &views {
                        // A client covered this coordinate iff its own
                        // scatter (unit weight) counted it.
                        if counts[i] > 0.0 {
                            scratch.push(sums[i] / counts[i]);
                        }
                    }
                    crate::adversary::coordinate_median(&mut scratch).unwrap_or(p)
                })
                .collect();
            out.insert(spec.name.clone(), Tensor::from_vec(data, &spec.shape)?);
        }
        Ok(out)
    }
}

/// The plan-driven scatter of
/// [`ServerAggregator::add_update_with_plan`], parameterised over the
/// target maps so the coordinate-median mode can scatter per-client copies
/// through the identical arithmetic.
fn scatter_plan(
    all_sums: &mut BTreeMap<String, Tensor>,
    all_counts: &mut BTreeMap<String, Tensor>,
    client_update: &StateDict,
    plan: &ExtractionPlan,
    weight: f32,
) -> FlResult<()> {
    for entry in &plan.entries {
        let Some(client_tensor) = client_update.get(&entry.name) else {
            return Err(FlError::InvalidConfig(format!(
                "update lacks {} required by its extraction plan",
                entry.name
            )));
        };
        if client_tensor.dims() != entry.client_dims {
            return Err(FlError::InvalidConfig(format!(
                "{}: update shape {:?} does not match plan shape {:?}",
                entry.name,
                client_tensor.dims(),
                entry.client_dims
            )));
        }
        let sums = all_sums
            .get_mut(&entry.name)
            .ok_or_else(|| FlError::InvalidConfig(format!("unknown parameter {}", entry.name)))?;
        if sums.dims() != entry.global_dims {
            return Err(FlError::InvalidConfig(format!(
                "{}: aggregator shape {:?} does not match plan shape {:?}",
                entry.name,
                sums.dims(),
                entry.global_dims
            )));
        }
        let counts = all_counts
            .get_mut(&entry.name)
            .expect("initialised with all specs");
        entry.scatter_add(
            client_tensor.as_slice(),
            sums.as_mut_slice(),
            counts.as_mut_slice(),
            weight,
        );
    }
    Ok(())
}

/// `state`'s tensor `name`, refused unless it has the shape `dims`.
fn require_shaped<'a>(state: &'a StateDict, name: &str, dims: &[usize]) -> FlResult<&'a Tensor> {
    let tensor = state.require(name)?;
    if tensor.dims() != dims {
        return Err(FlError::InvalidConfig(format!(
            "{name}: global shape {:?} does not match the model's {dims:?}",
            tensor.dims()
        )));
    }
    Ok(tensor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_models::{InputKind, ModelFamily, ProxyConfig, ProxyModel};
    use mhfl_tensor::SeededRng;

    fn cifar_cfg() -> ProxyConfig {
        ProxyConfig::for_family(
            ModelFamily::ResNet50,
            InputKind::Image {
                channels: 3,
                height: 8,
                width: 8,
            },
            10,
            0,
        )
    }

    /// The reference extraction the plan must reproduce: clone each global
    /// tensor, then one `gather_axis` per narrowed axis.
    fn extract_submodel(
        global: &StateDict,
        global_specs: &[ParamSpec],
        client_specs: &[ParamSpec],
        selection: WidthSelection,
    ) -> FlResult<StateDict> {
        let spec_index: BTreeMap<&str, &ParamSpec> =
            global_specs.iter().map(|s| (s.name.as_str(), s)).collect();
        let mut out = StateDict::new();
        for spec in client_specs {
            let global_spec = spec_index.get(spec.name.as_str()).ok_or_else(|| {
                FlError::InvalidConfig(format!("global model lacks {}", spec.name))
            })?;
            let indices = axis_indices(
                &global_spec.shape,
                &spec.shape,
                &global_spec.roles,
                selection,
            )?;
            let mut sliced = global.require(&spec.name)?.clone();
            for (axis, idx) in indices.iter().enumerate() {
                if idx.len() != sliced.dims()[axis] || idx.iter().enumerate().any(|(i, &v)| i != v)
                {
                    sliced = sliced.gather_axis(axis, idx)?;
                }
            }
            out.insert(spec.name.clone(), sliced);
        }
        Ok(out)
    }

    impl ServerAggregator {
        /// The reference scatter the plan must reproduce: every client
        /// element's global position is decoded from its coordinate.
        /// Parameters the global model does not track are skipped.
        fn add_update(
            &mut self,
            client_update: &StateDict,
            selection: WidthSelection,
            weight: f32,
        ) -> FlResult<()> {
            for (name, client) in client_update.iter() {
                let Some(spec) = self.global_specs.iter().find(|s| &s.name == name) else {
                    continue;
                };
                let indices = axis_indices(&spec.shape, client.dims(), &spec.roles, selection)?;
                let sums = self.sums.get_mut(name).expect("initialised with all specs");
                let counts = self
                    .counts
                    .get_mut(name)
                    .expect("initialised with all specs");
                accumulate_mapped(sums, counts, client, &indices, weight)?;
            }
            Ok(())
        }

        /// Number of parameters that received at least one contribution.
        fn covered_params(&self) -> usize {
            self.counts
                .values()
                .filter(|c| c.as_slice().iter().any(|&v| v > 0.0))
                .count()
        }
    }

    /// Adds `weight * client` into `sums` (and `weight` into `counts`) at
    /// the global positions described by the per-axis index lists.
    fn accumulate_mapped(
        sums: &mut Tensor,
        counts: &mut Tensor,
        client: &Tensor,
        indices: &[Vec<usize>],
        weight: f32,
    ) -> FlResult<()> {
        let client_dims = client.dims().to_vec();
        let global_dims = sums.dims().to_vec();
        let mut global_strides = vec![1usize; global_dims.len()];
        for i in (0..global_dims.len().saturating_sub(1)).rev() {
            global_strides[i] = global_strides[i + 1] * global_dims[i + 1];
        }
        let mut coord = vec![0usize; client_dims.len()];
        let sums_data = sums.as_mut_slice();
        let counts_data = counts.as_mut_slice();
        for (flat, &value) in client.as_slice().iter().enumerate() {
            // Decode the client coordinate.
            let mut rem = flat;
            for (axis, &dim) in client_dims.iter().enumerate().rev() {
                coord[axis] = rem % dim;
                rem /= dim;
            }
            // Map to the global flat offset.
            let mut offset = 0usize;
            for (axis, &c) in coord.iter().enumerate() {
                let mapped = *indices
                    .get(axis)
                    .and_then(|idx| idx.get(c))
                    .ok_or_else(|| FlError::InvalidConfig("index mapping out of range".into()))?;
                offset += mapped * global_strides[axis];
            }
            sums_data[offset] += weight * value;
            counts_data[offset] += weight;
        }
        Ok(())
    }

    /// The production extraction: a fresh plan, replayed once.
    fn extract(
        global: &ProxyModel,
        client_specs: &[ParamSpec],
        selection: WidthSelection,
    ) -> StateDict {
        ExtractionPlan::for_client_specs(&global.param_specs(), client_specs, selection)
            .unwrap()
            .extract(&global.state_dict())
            .unwrap()
    }

    /// The production aggregation: a fresh plan for the update's shapes.
    fn add(agg: &mut ServerAggregator, update: &StateDict, selection: WidthSelection, weight: f32) {
        let plan = ExtractionPlan::for_state(&agg.global_specs, update, selection).unwrap();
        agg.add_update_with_plan(update, &plan, weight).unwrap();
    }

    /// Every tensor's name, shape and `f32` bit patterns.
    fn bits(state: &StateDict) -> Vec<(&String, &[usize], Vec<u32>)> {
        state
            .iter()
            .map(|(name, t)| {
                (
                    name,
                    t.dims(),
                    t.as_slice().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// Seeded random cases: a ResNet34 features proxy of a random seed, a
    /// client width fraction in `0.2..1.0`, a rolling shift in `0..40` and
    /// an aggregation weight in `0.5..4.0`.
    fn random_cases() -> Vec<(ProxyConfig, f64, usize, f32)> {
        let mut rng = SeededRng::new(17);
        (0..16)
            .map(|_| {
                let cfg = ProxyConfig::for_family(
                    ModelFamily::ResNet34,
                    InputKind::Features { dim: 8 },
                    5,
                    rng.index(200) as u64,
                );
                let width = f64::from(rng.uniform(0.2, 1.0));
                (cfg, width, rng.index(40), rng.uniform(0.5, 4.0))
            })
            .collect()
    }

    #[test]
    fn prefix_and_rolling_indices() {
        assert_eq!(WidthSelection::Prefix.indices(8, 4), vec![0, 1, 2, 3]);
        assert_eq!(
            WidthSelection::Rolling { shift: 6 }.indices(8, 4),
            vec![6, 7, 0, 1]
        );
        assert_eq!(
            WidthSelection::Rolling { shift: 0 }.indices(8, 2),
            vec![0, 1]
        );
        // Client wider than global is clamped.
        assert_eq!(WidthSelection::Prefix.indices(2, 5), vec![0, 1]);
    }

    #[test]
    fn axis_indices_validate_roles() {
        let roles = vec![AxisRole::OutFeatures, AxisRole::Fixed];
        let ok = axis_indices(&[8, 10], &[4, 10], &roles, WidthSelection::Prefix).unwrap();
        assert_eq!(ok[0], vec![0, 1, 2, 3]);
        assert_eq!(ok[1].len(), 10);
        // Shrinking a Fixed axis is rejected.
        assert!(axis_indices(&[8, 10], &[8, 5], &roles, WidthSelection::Prefix).is_err());
        // Rank mismatch is rejected.
        assert!(axis_indices(&[8, 10], &[8], &roles, WidthSelection::Prefix).is_err());
    }

    #[test]
    fn extract_submodel_loads_into_smaller_proxy() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let mut client = ProxyModel::new(cifar_cfg().with_width(0.5)).unwrap();
        let sub = extract(&global, &client.param_specs(), WidthSelection::Prefix);
        client.load_state_dict(&sub).unwrap();
        // The client's head weight equals the first columns of the global head.
        let g_head = global.state_dict().get("head.weight").unwrap().clone();
        let c_head = client.state_dict().get("head.weight").unwrap().clone();
        assert_eq!(c_head.dims()[0], g_head.dims()[0]);
        assert!(c_head.dims()[1] < g_head.dims()[1]);
        for r in 0..c_head.dims()[0] {
            for c in 0..c_head.dims()[1] {
                assert_eq!(c_head.at(&[r, c]).unwrap(), g_head.at(&[r, c]).unwrap());
            }
        }
    }

    #[test]
    fn rolling_extraction_differs_from_prefix() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let client_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();
        let prefix = extract(&global, &client_specs, WidthSelection::Prefix);
        let rolled = extract(&global, &client_specs, WidthSelection::Rolling { shift: 3 });
        assert!(prefix.l2_distance_sq(&rolled) > 0.0);
    }

    #[test]
    fn depth_submodel_is_name_subset() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let shallow = ProxyModel::new(cifar_cfg().with_depth(0.5)).unwrap();
        let sub = extract(&global, &shallow.param_specs(), WidthSelection::Prefix);
        assert!(sub.len() < global.state_dict().len());
        assert_eq!(sub.len(), shallow.param_specs().len());
    }

    #[test]
    fn aggregation_round_trip_recovers_average() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let global_sd = global.state_dict();

        // Two full-width clients with constant updates 1.0 and 3.0.
        let mut agg = ServerAggregator::new(specs.clone());
        let mut u1 = global_sd.clone();
        for (_, t) in u1.iter_mut() {
            *t = Tensor::full(t.dims(), 1.0);
        }
        let mut u2 = global_sd.clone();
        for (_, t) in u2.iter_mut() {
            *t = Tensor::full(t.dims(), 3.0);
        }
        add(&mut agg, &u1, WidthSelection::Prefix, 1.0);
        add(&mut agg, &u2, WidthSelection::Prefix, 1.0);
        let merged = agg.finalize(&global_sd).unwrap();
        for (_, t) in merged.iter() {
            for &v in t.as_slice() {
                assert!((v - 2.0).abs() < 1e-6);
            }
        }
        assert_eq!(agg.covered_params(), specs.len());
    }

    #[test]
    fn uncovered_entries_keep_previous_values() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let global_sd = global.state_dict();
        let half_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();

        let mut half_update = extract(&global, &half_specs, WidthSelection::Prefix);
        for (_, t) in half_update.iter_mut() {
            *t = Tensor::full(t.dims(), 5.0);
        }
        let mut agg = ServerAggregator::new(global.param_specs());
        add(&mut agg, &half_update, WidthSelection::Prefix, 1.0);
        let merged = agg.finalize(&global_sd).unwrap();

        // Covered prefix entries become 5.0; the uncovered tail keeps old values.
        let head_new = merged.get("head.weight").unwrap();
        let head_old = global_sd.get("head.weight").unwrap();
        let half_cols = half_update.get("head.weight").unwrap().dims()[1];
        assert_eq!(head_new.at(&[0, 0]).unwrap(), 5.0);
        assert_eq!(
            head_new.at(&[0, half_cols + 1]).unwrap(),
            head_old.at(&[0, half_cols + 1]).unwrap()
        );
    }

    #[test]
    fn planned_extraction_matches_reference_bitwise() {
        let fixed = [0.25, 0.5, 1.0].map(|width| (cifar_cfg(), width, 3, 0.0));
        for (cfg, width, shift, _) in fixed.into_iter().chain(random_cases()) {
            let global = ProxyModel::new(cfg).unwrap();
            let global_sd = global.state_dict();
            let specs = global.param_specs();
            let client_specs = ProxyModel::new(cfg.with_width(width))
                .unwrap()
                .param_specs();
            for selection in [
                WidthSelection::Prefix,
                WidthSelection::Rolling { shift },
                WidthSelection::Rolling { shift: 11 },
            ] {
                let reference =
                    extract_submodel(&global_sd, &specs, &client_specs, selection).unwrap();
                let planned = extract(&global, &client_specs, selection);
                assert_eq!(
                    bits(&reference),
                    bits(&planned),
                    "planned extraction diverged ({cfg:?}, width {width}, {selection:?})"
                );
            }
        }
    }

    #[test]
    fn planned_aggregation_matches_reference_bitwise() {
        let fixed = (cifar_cfg(), 0.5, 5, 2.5);
        for (cfg, width, shift, weight) in std::iter::once(fixed).chain(random_cases()) {
            let global = ProxyModel::new(cfg).unwrap();
            let global_sd = global.state_dict();
            let specs = global.param_specs();
            let client_specs = ProxyModel::new(cfg.with_width(width))
                .unwrap()
                .param_specs();
            for selection in [WidthSelection::Prefix, WidthSelection::Rolling { shift }] {
                let update =
                    extract_submodel(&global_sd, &specs, &client_specs, selection).unwrap();
                let mut reference = ServerAggregator::new(specs.clone());
                reference.add_update(&update, selection, weight).unwrap();
                reference
                    .add_update(&global_sd, WidthSelection::Prefix, 1.5)
                    .unwrap();
                let mut planned = ServerAggregator::new(specs.clone());
                add(&mut planned, &update, selection, weight);
                add(&mut planned, &global_sd, WidthSelection::Prefix, 1.5);
                assert_eq!(
                    bits(&reference.finalize(&global_sd).unwrap()),
                    bits(&planned.finalize(&global_sd).unwrap()),
                    "planned aggregation diverged ({cfg:?}, width {width}, {selection:?})"
                );
                assert_eq!(reference.covered_params(), planned.covered_params());
            }
        }
    }

    #[test]
    fn plan_rejects_unknown_parameters_on_extract_but_skips_on_scatter() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let mut state = StateDict::new();
        state.insert("not.a.param", Tensor::zeros(&[2]));
        let plan = ExtractionPlan::for_state(&specs, &state, WidthSelection::Prefix).unwrap();
        assert!(plan.entries.is_empty());
        assert!(plan.extract(&global.state_dict()).is_err());
        // Scatter-add simply contributes nothing, like the reference path.
        let mut agg = ServerAggregator::new(specs);
        agg.add_update_with_plan(&state, &plan, 1.0).unwrap();
        assert_eq!(agg.covered_params(), 0);
    }

    #[test]
    fn extract_and_finalize_refuse_wrong_shaped_globals() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let half_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();
        let plan =
            ExtractionPlan::for_client_specs(&specs, &half_specs, WidthSelection::Prefix).unwrap();
        let bias_len = global.state_dict().get("head.bias").unwrap().len();
        // Too short would index out of bounds; too long would be truncated.
        for len in [1, bias_len + 1] {
            let mut wrong = global.state_dict();
            wrong.insert("head.bias", Tensor::zeros(&[len]));
            assert!(plan.extract(&wrong).is_err(), "extract took length {len}");
            for robust in [RobustAggregation::None, RobustAggregation::CoordinateMedian] {
                let agg = ServerAggregator::new(specs.clone()).with_robust(robust);
                assert!(
                    agg.finalize(&wrong).is_err(),
                    "{robust:?} took length {len}"
                );
            }
        }
    }

    #[test]
    fn weighted_aggregation_respects_weights() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let global_sd = global.state_dict();
        let mut u1 = global_sd.clone();
        for (_, t) in u1.iter_mut() {
            *t = Tensor::full(t.dims(), 0.0);
        }
        let mut u2 = global_sd.clone();
        for (_, t) in u2.iter_mut() {
            *t = Tensor::full(t.dims(), 4.0);
        }
        let mut agg = ServerAggregator::new(specs);
        add(&mut agg, &u1, WidthSelection::Prefix, 3.0);
        add(&mut agg, &u2, WidthSelection::Prefix, 1.0);
        let merged = agg.finalize(&global_sd).unwrap();
        // Weighted mean = (3*0 + 1*4) / 4 = 1.0
        assert!((merged.get("head.bias").unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
    }
}
