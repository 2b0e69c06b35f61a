//! Width/depth sub-model extraction and overlap-aware aggregation.
//!
//! These are the two primitives every partial-aggregation MHFL algorithm is
//! built from:
//!
//! * [`extract_submodel`] slices a client-sized state dict out of the global
//!   model, choosing channel indices per width-scalable axis according to a
//!   [`WidthSelection`] (contiguous prefix for HeteroFL/Fjord, a rolling
//!   window for FedRolex). Depth-heterogeneous clients simply request fewer
//!   parameter names — the same code path handles them.
//! * [`ServerAggregator`] accumulates client updates back into the global
//!   coordinate space and averages every global entry by how many clients
//!   actually covered it, keeping the previous global value for uncovered
//!   entries (HeteroFL-style partial averaging).
//!
//! Both primitives run fastest through an [`ExtractionPlan`]: the
//! per-parameter, per-axis gather offsets for one `(client shape set,
//! selection)` pair are computed **once** and then replayed every round as
//! a single-pass multi-axis gather (extraction) or scatter-add
//! (aggregation), instead of clone-then-gather-per-axis and per-element
//! coordinate decoding. Plans are cached across rounds by a [`PlanCache`]
//! owned by each algorithm. The planned paths are bit-for-bit identical to
//! the retained sequential reference implementations
//! ([`extract_submodel`], [`ServerAggregator::add_update`]) — the golden
//! trace harness and the property suite pin this.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

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

/// Extracts the client-sized sub-model from the global state dict.
///
/// `client_specs` lists the parameters (names, shapes, roles) of the client's
/// model; every one of them must exist in `global_specs`/`global` with a
/// compatible shape.
///
/// # Errors
/// Returns an error if a client parameter is missing from the global model or
/// the shapes cannot be mapped.
pub fn extract_submodel(
    global: &StateDict,
    global_specs: &[ParamSpec],
    client_specs: &[ParamSpec],
    selection: WidthSelection,
) -> FlResult<StateDict> {
    let spec_index: BTreeMap<&str, &ParamSpec> =
        global_specs.iter().map(|s| (s.name.as_str(), s)).collect();
    let mut out = StateDict::new();
    for spec in client_specs {
        let global_spec = spec_index
            .get(spec.name.as_str())
            .ok_or_else(|| FlError::InvalidConfig(format!("global model lacks {}", spec.name)))?;
        let tensor = global.require(&spec.name)?;
        let indices = axis_indices(
            &global_spec.shape,
            &spec.shape,
            &global_spec.roles,
            selection,
        )?;
        let mut sliced = tensor.clone();
        for (axis, idx) in indices.iter().enumerate() {
            if idx.len() != sliced.dims()[axis] || idx.iter().enumerate().any(|(i, &v)| i != v) {
                sliced = sliced.gather_axis(axis, idx)?;
            }
        }
        out.insert(spec.name.clone(), sliced);
    }
    Ok(out)
}

/// One parameter's precomputed gather recipe inside an [`ExtractionPlan`].
#[derive(Debug)]
struct PlanEntry {
    /// Fully-qualified parameter name.
    name: String,
    /// Client-side tensor shape.
    client_dims: Vec<usize>,
    /// Global-side tensor shape (for allocating scatter targets).
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
/// aggregation as a single-pass scatter-add. Plans are immutable and
/// shareable across threads ([`PlanCache`] hands them out as [`Arc`]s).
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
    /// ignores them, mirroring [`ServerAggregator::add_update`].
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] when a shape cannot be mapped
    /// (rank mismatch or a shrunken `Fixed` axis).
    pub fn build<'a>(
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
    /// Propagates [`ExtractionPlan::build`] failures.
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
    /// Propagates [`ExtractionPlan::build`] failures.
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

    /// Number of parameters the plan maps.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plan maps no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Extracts the client-sized sub-model from the global state dict in a
    /// single gather pass per parameter. Identical output to
    /// [`extract_submodel`] with the plan's selection.
    ///
    /// # Errors
    /// Returns an error if the plan recorded parameters the global model
    /// lacks, or a tensor is missing from `global`.
    pub fn extract(&self, global: &StateDict) -> FlResult<StateDict> {
        if let Some(missing) = self.skipped.first() {
            return Err(FlError::InvalidConfig(format!(
                "global model lacks {missing}"
            )));
        }
        let mut out = StateDict::new();
        for entry in &self.entries {
            let tensor = global.require(&entry.name)?;
            out.insert(entry.name.clone(), entry.gather(tensor)?);
        }
        Ok(out)
    }
}

/// A per-algorithm cache of [`ExtractionPlan`]s, keyed by the client's
/// `(name, shape)` set and the [`WidthSelection`].
///
/// The engine runs one algorithm instance for the whole experiment, so a
/// cache owned by the algorithm persists plans across rounds: nested-prefix
/// recipes (HeteroFL/Fjord, depth prefixes, the homogeneous baseline) hit
/// the cache every round after the first, and FedRolex's rolling window
/// costs one rebuild per `(shape set, shift)`. Interior mutability keeps
/// lookups available from the `&self` client phase across threads.
///
/// At capacity the cache evicts **one cold entry** by the second-chance
/// (clock) policy: every hit marks its slot referenced, and the clock hand
/// sweeps the insertion ring clearing referenced marks until it finds an
/// unmarked victim. Hot per-family plans (re-requested every round) survive
/// FedRolex streaming hundreds of one-shot rolling keys through the cache —
/// the failure mode of the previous wipe-everything-at-cap policy.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<PlanMap>,
}

/// The guarded state of a [`PlanCache`]: the slots plus the clock-eviction
/// bookkeeping. `ring` holds every cached key in insertion order and
/// `hand` is the clock position, so eviction is deterministic given the
/// request sequence (iterating a bare `HashMap` for a victim would not be).
#[derive(Debug, Default)]
struct PlanMap {
    slots: HashMap<u64, CachedPlan>,
    ring: Vec<u64>,
    hand: usize,
}

impl PlanMap {
    /// Inserts a new slot, evicting one cold entry first when at capacity.
    fn insert(&mut self, key: u64, slot: CachedPlan) {
        if self.slots.len() >= PLAN_CACHE_CAP && !self.ring.is_empty() {
            // Second chance: clear referenced marks under the hand until an
            // unreferenced victim appears (at most two sweeps), then reuse
            // its ring position for the new key.
            loop {
                let candidate = self.ring[self.hand];
                let entry = self.slots.get_mut(&candidate).expect("ring tracks slots");
                if entry.referenced {
                    entry.referenced = false;
                    self.hand = (self.hand + 1) % self.ring.len();
                } else {
                    self.slots.remove(&candidate);
                    self.ring[self.hand] = key;
                    self.hand = (self.hand + 1) % self.ring.len();
                    break;
                }
            }
        } else {
            self.ring.push(key);
        }
        self.slots.insert(key, slot);
    }
}

/// One cache slot: the plan plus the exact request it was built for, so a
/// hit is verified structurally instead of trusted to the 64-bit hash.
#[derive(Debug)]
struct CachedPlan {
    selection: WidthSelection,
    /// Canonically ordered client `(name, shape)` pairs.
    shapes: Vec<(String, Vec<usize>)>,
    plan: Arc<ExtractionPlan>,
    /// Set on every hit, cleared when the clock hand sweeps past; an entry
    /// survives one full sweep after its last hit.
    referenced: bool,
}

impl CachedPlan {
    /// Whether this slot was built for exactly the given request (the
    /// global side is covered by the key fingerprint: one cache serves one
    /// algorithm, whose global specs never change).
    fn matches(&self, shapes: &[(&str, &[usize])], selection: WidthSelection) -> bool {
        self.selection == selection
            && self.shapes.len() == shapes.len()
            && self
                .shapes
                .iter()
                .zip(shapes.iter())
                .all(|((name, dims), (req_name, req_dims))| {
                    name == req_name && dims.as_slice() == *req_dims
                })
    }
}

/// Plans are tiny (per-axis offset tables), but FedRolex mints a new shift
/// every round; cap the cache so a 1000-round run cannot grow unboundedly.
const PLAN_CACHE_CAP: usize = 128;

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// FNV-1a fingerprint of the global specs, the client `(name, shape)`
    /// set and the selection. The global side is part of the key because
    /// the plan's offsets and strides are computed from it: the same client
    /// shapes against a different global model must not share a slot.
    fn key<'a>(
        global_specs: &[ParamSpec],
        client_shapes: impl Iterator<Item = (&'a str, &'a [usize])>,
        selection: WidthSelection,
    ) -> u64 {
        let mut h = crate::fnv::Fnv1a::new();
        match selection {
            WidthSelection::Prefix => h.write(&[0u8]),
            WidthSelection::Rolling { shift } => {
                h.write(&[1u8]);
                h.write_u64(shift as u64);
            }
        }
        for spec in global_specs {
            h.write(spec.name.as_bytes());
            h.write(&[0xFE]);
            h.write_u64(spec.shape.len() as u64);
            for &d in &spec.shape {
                h.write_u64(d as u64);
            }
        }
        for (name, dims) in client_shapes {
            h.write(name.as_bytes());
            h.write(&[0xFF]);
            h.write_u64(dims.len() as u64);
            for &d in dims {
                h.write_u64(d as u64);
            }
        }
        h.finish()
    }

    fn get_or_build<'a>(
        &self,
        global_specs: &[ParamSpec],
        shapes: &mut Vec<(&'a str, &'a [usize])>,
        selection: WidthSelection,
    ) -> FlResult<Arc<ExtractionPlan>> {
        // Canonical name order: spec-keyed (model visit order) and
        // state-keyed (BTreeMap order) lookups of the same shape set must
        // share one cache slot. Per-parameter gathers are independent, so
        // plan entry order never affects results.
        shapes.sort_unstable_by_key(|(name, _)| *name);
        let key = Self::key(global_specs, shapes.iter().copied(), selection);
        let mut collision = false;
        if let Some(slot) = self
            .plans
            .lock()
            .expect("plan cache lock")
            .slots
            .get_mut(&key)
        {
            if slot.matches(shapes, selection) {
                slot.referenced = true;
                return Ok(Arc::clone(&slot.plan));
            }
            // A 64-bit fingerprint collision between two distinct requests
            // (astronomically unlikely, but the repo's contract is
            // exactness, not probability): serve a fresh uncached build
            // and leave the slot's first occupant in place.
            collision = true;
        }
        let plan = Arc::new(ExtractionPlan::build(
            global_specs,
            shapes.iter().copied(),
            selection,
        )?);
        if !collision {
            self.plans.lock().expect("plan cache lock").insert(
                key,
                CachedPlan {
                    selection,
                    shapes: shapes
                        .iter()
                        .map(|(name, dims)| (name.to_string(), dims.to_vec()))
                        .collect(),
                    plan: Arc::clone(&plan),
                    referenced: false,
                },
            );
        }
        Ok(plan)
    }

    /// The cached (or freshly built) plan for a client model's specs.
    ///
    /// # Errors
    /// Propagates plan-construction failures.
    pub fn for_client_specs(
        &self,
        global_specs: &[ParamSpec],
        client_specs: &[ParamSpec],
        selection: WidthSelection,
    ) -> FlResult<Arc<ExtractionPlan>> {
        let mut shapes: Vec<(&str, &[usize])> = client_specs
            .iter()
            .map(|s| (s.name.as_str(), s.shape.as_slice()))
            .collect();
        self.get_or_build(global_specs, &mut shapes, selection)
    }

    /// The cached (or freshly built) plan for an uploaded state dict.
    ///
    /// # Errors
    /// Propagates plan-construction failures.
    pub fn for_state(
        &self,
        global_specs: &[ParamSpec],
        state: &StateDict,
        selection: WidthSelection,
    ) -> FlResult<Arc<ExtractionPlan>> {
        let mut shapes: Vec<(&str, &[usize])> = state
            .iter()
            .map(|(name, t)| (name.as_str(), t.dims()))
            .collect();
        self.get_or_build(global_specs, &mut shapes, selection)
    }

    /// Number of cached plans (for tests and telemetry).
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache lock").slots.len()
    }

    /// `true` when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// (typically the client's sample count or 1.0).
    ///
    /// # Errors
    /// Returns an error if a client tensor cannot be mapped onto the global
    /// coordinate space.
    pub fn add_update(
        &mut self,
        client_update: &StateDict,
        selection: WidthSelection,
        weight: f32,
    ) -> FlResult<()> {
        if let RobustAggregation::NormClip { max_norm } = self.robust {
            if let Some(clipped) = Self::clipped(client_update, max_norm) {
                return self.add_update_plain(&clipped, selection, weight);
            }
        }
        self.add_update_plain(client_update, selection, weight)
    }

    fn add_update_plain(
        &mut self,
        client_update: &StateDict,
        selection: WidthSelection,
        weight: f32,
    ) -> FlResult<()> {
        scatter_mapped(
            &self.global_specs,
            &mut self.sums,
            &mut self.counts,
            client_update,
            selection,
            weight,
        )?;
        if matches!(self.robust, RobustAggregation::CoordinateMedian) {
            let mut sums = Self::zeroed_maps(&self.global_specs);
            let mut counts = Self::zeroed_maps(&self.global_specs);
            scatter_mapped(
                &self.global_specs,
                &mut sums,
                &mut counts,
                client_update,
                selection,
                1.0,
            )?;
            self.per_update.push((sums, counts));
        }
        Ok(())
    }

    /// Adds one client's updated sub-model through a precomputed
    /// [`ExtractionPlan`] (the same plan that extracted the sub-model),
    /// replacing per-element coordinate decoding with a single scatter-add
    /// pass per parameter. Bit-identical to
    /// [`add_update`](ServerAggregator::add_update) with the plan's
    /// selection: client elements are visited in the same row-major order.
    ///
    /// # Errors
    /// Returns an error if a tensor's shape disagrees with the plan.
    pub fn add_update_with_plan(
        &mut self,
        client_update: &StateDict,
        plan: &ExtractionPlan,
        weight: f32,
    ) -> FlResult<()> {
        if let RobustAggregation::NormClip { max_norm } = self.robust {
            if let Some(clipped) = Self::clipped(client_update, max_norm) {
                return self.add_update_with_plan_plain(&clipped, plan, weight);
            }
        }
        self.add_update_with_plan_plain(client_update, plan, weight)
    }

    fn add_update_with_plan_plain(
        &mut self,
        client_update: &StateDict,
        plan: &ExtractionPlan,
        weight: f32,
    ) -> FlResult<()> {
        scatter_plan(
            &mut self.sums,
            &mut self.counts,
            client_update,
            plan,
            weight,
        )?;
        if matches!(self.robust, RobustAggregation::CoordinateMedian) {
            let mut sums = Self::zeroed_maps(&self.global_specs);
            let mut counts = Self::zeroed_maps(&self.global_specs);
            scatter_plan(&mut sums, &mut counts, client_update, plan, 1.0)?;
            self.per_update.push((sums, counts));
        }
        Ok(())
    }

    /// Number of parameters that received at least one contribution.
    pub fn covered_params(&self) -> usize {
        self.counts
            .values()
            .filter(|c| c.as_slice().iter().any(|&v| v > 0.0))
            .count()
    }

    /// Produces the new global state dict: covered entries become the
    /// weighted average (or, under
    /// [`RobustAggregation::CoordinateMedian`], the per-coordinate median)
    /// of contributions, uncovered entries keep the previous global value.
    pub fn finalize(&self, previous_global: &StateDict) -> FlResult<StateDict> {
        if matches!(self.robust, RobustAggregation::CoordinateMedian) {
            return self.finalize_median(previous_global);
        }
        let mut out = StateDict::new();
        for spec in &self.global_specs {
            let prev = previous_global.require(&spec.name)?;
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
            let prev = previous_global.require(&spec.name)?;
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

/// Adds one state dict into `(sums, counts)` via per-element coordinate
/// decoding — the reference scatter path of
/// [`ServerAggregator::add_update`], parameterised over the target maps so
/// the coordinate-median mode can scatter per-client copies through the
/// identical arithmetic.
fn scatter_mapped(
    global_specs: &[ParamSpec],
    all_sums: &mut BTreeMap<String, Tensor>,
    all_counts: &mut BTreeMap<String, Tensor>,
    client_update: &StateDict,
    selection: WidthSelection,
    weight: f32,
) -> FlResult<()> {
    let spec_index: BTreeMap<&str, &ParamSpec> =
        global_specs.iter().map(|s| (s.name.as_str(), s)).collect();
    for (name, client_tensor) in client_update.iter() {
        let Some(spec) = spec_index.get(name.as_str()) else {
            // Parameters the global model does not track (e.g. client-only
            // personalisation heads) are simply skipped.
            continue;
        };
        let indices = axis_indices(&spec.shape, client_tensor.dims(), &spec.roles, selection)?;
        let sums = all_sums.get_mut(name).expect("initialised with all specs");
        let counts = all_counts
            .get_mut(name)
            .expect("initialised with all specs");
        accumulate_mapped(sums, counts, client_tensor, &indices, weight)?;
    }
    Ok(())
}

/// The plan-driven scatter of
/// [`ServerAggregator::add_update_with_plan`], parameterised over the
/// target maps (see [`scatter_mapped`]).
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

/// Adds `weight * client` into `sums` (and `weight` into `counts`) at the
/// global positions described by the per-axis index lists.
fn accumulate_mapped(
    sums: &mut Tensor,
    counts: &mut Tensor,
    client: &Tensor,
    indices: &[Vec<usize>],
    weight: f32,
) -> FlResult<()> {
    let client_dims = client.dims().to_vec();
    let global_dims = sums.dims().to_vec();
    let global_strides = {
        let mut s = vec![1usize; global_dims.len()];
        for i in (0..global_dims.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * global_dims[i + 1];
        }
        s
    };
    let total: usize = client_dims.iter().product();
    let mut coord = vec![0usize; client_dims.len()];
    let client_data = client.as_slice();
    let sums_data = sums.as_mut_slice();
    let counts_data = counts.as_mut_slice();
    for (flat, &value) in client_data.iter().enumerate().take(total) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_models::{InputKind, ModelFamily, ProxyConfig, ProxyModel};

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
        let sub = extract_submodel(
            &global.state_dict(),
            &global.param_specs(),
            &client.param_specs(),
            WidthSelection::Prefix,
        )
        .unwrap();
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
        let prefix = extract_submodel(
            &global.state_dict(),
            &global.param_specs(),
            &client_specs,
            WidthSelection::Prefix,
        )
        .unwrap();
        let rolled = extract_submodel(
            &global.state_dict(),
            &global.param_specs(),
            &client_specs,
            WidthSelection::Rolling { shift: 3 },
        )
        .unwrap();
        assert!(prefix.l2_distance_sq(&rolled) > 0.0);
    }

    #[test]
    fn depth_submodel_is_name_subset() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let shallow = ProxyModel::new(cifar_cfg().with_depth(0.5)).unwrap();
        let sub = extract_submodel(
            &global.state_dict(),
            &global.param_specs(),
            &shallow.param_specs(),
            WidthSelection::Prefix,
        )
        .unwrap();
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
        agg.add_update(&u1, WidthSelection::Prefix, 1.0).unwrap();
        agg.add_update(&u2, WidthSelection::Prefix, 1.0).unwrap();
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
        let specs = global.param_specs();
        let global_sd = global.state_dict();
        let half_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();

        let mut half_update =
            extract_submodel(&global_sd, &specs, &half_specs, WidthSelection::Prefix).unwrap();
        for (_, t) in half_update.iter_mut() {
            *t = Tensor::full(t.dims(), 5.0);
        }
        let mut agg = ServerAggregator::new(specs);
        agg.add_update(&half_update, WidthSelection::Prefix, 1.0)
            .unwrap();
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
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let global_sd = global.state_dict();
        let specs = global.param_specs();
        for width in [0.25, 0.5, 1.0] {
            let client_specs = ProxyModel::new(cifar_cfg().with_width(width))
                .unwrap()
                .param_specs();
            for selection in [
                WidthSelection::Prefix,
                WidthSelection::Rolling { shift: 3 },
                WidthSelection::Rolling { shift: 11 },
            ] {
                let reference =
                    extract_submodel(&global_sd, &specs, &client_specs, selection).unwrap();
                let plan =
                    ExtractionPlan::for_client_specs(&specs, &client_specs, selection).unwrap();
                let planned = plan.extract(&global_sd).unwrap();
                assert_eq!(
                    reference, planned,
                    "planned extraction diverged (width {width}, {selection:?})"
                );
            }
        }
    }

    #[test]
    fn planned_aggregation_matches_reference_bitwise() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let global_sd = global.state_dict();
        let specs = global.param_specs();
        let half_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();
        for selection in [WidthSelection::Prefix, WidthSelection::Rolling { shift: 5 }] {
            let update = extract_submodel(&global_sd, &specs, &half_specs, selection).unwrap();
            let mut reference = ServerAggregator::new(specs.clone());
            reference.add_update(&update, selection, 2.5).unwrap();
            reference
                .add_update(&global_sd, WidthSelection::Prefix, 1.5)
                .unwrap();
            let mut planned = ServerAggregator::new(specs.clone());
            let plan = ExtractionPlan::for_state(&specs, &update, selection).unwrap();
            planned.add_update_with_plan(&update, &plan, 2.5).unwrap();
            let full_plan =
                ExtractionPlan::for_state(&specs, &global_sd, WidthSelection::Prefix).unwrap();
            planned
                .add_update_with_plan(&global_sd, &full_plan, 1.5)
                .unwrap();
            let ref_final = reference.finalize(&global_sd).unwrap();
            let plan_final = planned.finalize(&global_sd).unwrap();
            assert_eq!(ref_final, plan_final, "planned aggregation diverged");
            assert_eq!(reference.covered_params(), planned.covered_params());
        }
    }

    #[test]
    fn plan_rejects_unknown_parameters_on_extract_but_skips_on_scatter() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let mut state = StateDict::new();
        state.insert("not.a.param", Tensor::zeros(&[2]));
        let plan = ExtractionPlan::for_state(&specs, &state, WidthSelection::Prefix).unwrap();
        assert!(plan.is_empty());
        assert!(plan.extract(&global.state_dict()).is_err());
        // Scatter-add simply contributes nothing, like the reference path.
        let mut agg = ServerAggregator::new(specs);
        agg.add_update_with_plan(&state, &plan, 1.0).unwrap();
        assert_eq!(agg.covered_params(), 0);
    }

    #[test]
    fn plan_cache_reuses_and_distinguishes_selections() {
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let client_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();
        let cache = PlanCache::new();
        let a = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Prefix)
            .unwrap();
        let b = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Prefix)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical requests must share a plan");
        assert_eq!(cache.len(), 1);
        let c = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 1 })
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "selections must not collide");
        assert_eq!(cache.len(), 2);
        // The state-keyed lookup with the same shapes shares the cache slot.
        let sub = a.extract(&global.state_dict()).unwrap();
        let d = cache
            .for_state(&specs, &sub, WidthSelection::Prefix)
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &d),
            "spec- and state-keyed plans must share"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn plan_cache_distinguishes_global_models_with_identical_client_shapes() {
        // A quarter-width client is extractable from both the full-width and
        // the half-width global; the two plans have identical client shapes
        // but different global strides, so they must not share a cache slot.
        let full = ProxyModel::new(cifar_cfg()).unwrap();
        let half = ProxyModel::new(cifar_cfg().with_width(0.5)).unwrap();
        let quarter_specs = ProxyModel::new(cifar_cfg().with_width(0.25))
            .unwrap()
            .param_specs();
        let cache = PlanCache::new();
        let from_full = cache
            .for_client_specs(&full.param_specs(), &quarter_specs, WidthSelection::Prefix)
            .unwrap();
        let from_half = cache
            .for_client_specs(&half.param_specs(), &quarter_specs, WidthSelection::Prefix)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&from_full, &from_half),
            "plans for different global models must not collide"
        );
        assert_eq!(cache.len(), 2);
        // And each plan extracts correctly from its own global.
        let ref_full = extract_submodel(
            &full.state_dict(),
            &full.param_specs(),
            &quarter_specs,
            WidthSelection::Prefix,
        )
        .unwrap();
        assert_eq!(from_full.extract(&full.state_dict()).unwrap(), ref_full);
        let ref_half = extract_submodel(
            &half.state_dict(),
            &half.param_specs(),
            &quarter_specs,
            WidthSelection::Prefix,
        )
        .unwrap();
        assert_eq!(from_half.extract(&half.state_dict()).unwrap(), ref_half);
    }

    #[test]
    fn plan_cache_eviction_holds_the_cap_and_rebuilds_transparently() {
        // FedRolex mints a fresh rolling shift every round, so a long run
        // streams distinct keys through the cache; the cap must hold and an
        // evicted plan must come back bit-identical when re-requested.
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let client_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();
        let cache = PlanCache::new();
        let reference = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 0 })
            .unwrap();
        let reference_sub = reference.extract(&global.state_dict()).unwrap();

        // Stream well past the cap. The policy is second-chance: an insert
        // at the cap evicts exactly one cold entry, so the cache fills to
        // PLAN_CACHE_CAP and then holds there forever.
        let rounds = 3 * PLAN_CACHE_CAP + 7;
        for shift in 0..rounds {
            cache
                .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift })
                .unwrap();
            assert_eq!(
                cache.len(),
                (shift + 1).min(PLAN_CACHE_CAP),
                "second-chance occupancy must be deterministic (shift {shift})"
            );
        }

        // shift 0 was touched once early and never again, so three full
        // laps of the clock hand have evicted it: re-requesting it must
        // transparently rebuild a distinct Arc with identical behaviour.
        let len_before = cache.len();
        let rebuilt = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 0 })
            .unwrap();
        assert!(
            !Arc::ptr_eq(&reference, &rebuilt),
            "shift 0 should have been evicted and rebuilt, not retained"
        );
        assert_eq!(
            cache.len(),
            len_before,
            "an at-cap insert evicts one entry, so occupancy stays put"
        );
        assert_eq!(
            rebuilt.extract(&global.state_dict()).unwrap(),
            reference_sub,
            "a rebuilt plan must extract the exact same sub-model"
        );
        // And the rebuilt slot serves hits again.
        let hit = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 0 })
            .unwrap();
        assert!(Arc::ptr_eq(&rebuilt, &hit));
    }

    #[test]
    fn plan_cache_keeps_a_hot_key_across_eviction_cycles() {
        // The production access pattern is one hot plan (the dominant client
        // shape) amid a stream of one-shot rolling shifts. Second-chance
        // eviction must keep the hot plan cached: each re-request marks its
        // slot referenced, so the clock hand spares it and evicts a cold
        // one-shot entry instead.
        let global = ProxyModel::new(cifar_cfg()).unwrap();
        let specs = global.param_specs();
        let client_specs = ProxyModel::new(cifar_cfg().with_width(0.5))
            .unwrap()
            .param_specs();
        let cache = PlanCache::new();
        let hot = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 0 })
            .unwrap();

        // Three full eviction laps of cold keys, re-touching the hot key
        // often enough (well under once per lap) to keep it referenced.
        let rounds = 3 * PLAN_CACHE_CAP;
        for round in 0..rounds {
            cache
                .for_client_specs(
                    &specs,
                    &client_specs,
                    WidthSelection::Rolling { shift: round + 1 },
                )
                .unwrap();
            if round % (PLAN_CACHE_CAP / 4) == 0 {
                let again = cache
                    .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 0 })
                    .unwrap();
                assert!(
                    Arc::ptr_eq(&hot, &again),
                    "hot plan evicted at round {round} despite steady re-use"
                );
            }
            assert!(cache.len() <= PLAN_CACHE_CAP);
        }
        let survivor = cache
            .for_client_specs(&specs, &client_specs, WidthSelection::Rolling { shift: 0 })
            .unwrap();
        assert!(
            Arc::ptr_eq(&hot, &survivor),
            "the hot plan must survive full eviction cycles"
        );
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
        agg.add_update(&u1, WidthSelection::Prefix, 3.0).unwrap();
        agg.add_update(&u2, WidthSelection::Prefix, 1.0).unwrap();
        let merged = agg.finalize(&global_sd).unwrap();
        // Weighted mean = (3*0 + 1*4) / 4 = 1.0
        assert!((merged.get("head.bias").unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
    }
}
