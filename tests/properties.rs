//! Property-based tests on the core invariants of the platform.

use mhfl_data::DataTask;
use mhfl_device::{ConstraintCase, CostModel, DeviceCapability, ModelPool};
use mhfl_fl::submodel::{axis_indices, ExtractionPlan, ServerAggregator, WidthSelection};
use mhfl_models::{InputKind, MhflMethod, ModelFamily, ModelSpec, ProxyConfig, ProxyModel};
use mhfl_nn::{AxisRole, ParamSpec, StateDict};
use mhfl_tensor::{SeededRng, Tensor};
use pracmhbench_core::{ExperimentSpec, Parallelism, RunScale};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Analytical model statistics are monotone in the width fraction.
    #[test]
    fn spec_params_monotone_in_width(w1 in 0.1f64..1.0, w2 in 0.1f64..1.0) {
        let spec = ModelSpec::new(ModelFamily::ResNet50, 100);
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(spec.stats(lo, 1.0).params <= spec.stats(hi, 1.0).params);
    }

    /// Rolling and prefix index selections always produce valid, distinct
    /// global indices of the requested length.
    #[test]
    fn width_selection_indices_are_valid(global in 2usize..64, shift in 0usize..100) {
        let client = (global / 2).max(1);
        for selection in [WidthSelection::Prefix, WidthSelection::Rolling { shift }] {
            let idx = selection.indices(global, client);
            prop_assert_eq!(idx.len(), client);
            prop_assert!(idx.iter().all(|&i| i < global));
            let mut dedup = idx.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), client, "indices must be distinct");
        }
    }

    /// Extraction followed by aggregation of an unmodified sub-model leaves
    /// the covered global entries unchanged.
    #[test]
    fn extract_then_aggregate_is_identity_on_coverage(width in 0.25f64..1.0, seed in 0u64..50) {
        let cfg = ProxyConfig::for_family(
            ModelFamily::ResNet34,
            InputKind::Features { dim: 8 },
            5,
            seed,
        );
        let global = ProxyModel::new(cfg).unwrap();
        let global_sd = global.state_dict();
        let specs = global.param_specs();
        let client_specs = ProxyModel::new(cfg.with_width(width)).unwrap().param_specs();
        let plan = ExtractionPlan::for_client_specs(&specs, &client_specs, WidthSelection::Prefix).unwrap();
        let sub = plan.extract(&global_sd).unwrap();
        let mut agg = ServerAggregator::new(specs);
        agg.add_update_with_plan(&sub, &plan, 1.0).unwrap();
        let merged = agg.finalize(&global_sd).unwrap();
        // Aggregating the extracted (unchanged) sub-model must reproduce the
        // original global values everywhere.
        prop_assert!(merged.l2_distance_sq(&global_sd) < 1e-8);
    }

    /// Constraint-based assignment always yields a feasible-or-smallest model
    /// and never a model larger than the unconstrained choice.
    #[test]
    fn assignments_respect_memory_budgets(mem_gib in 1u64..32, gflops in 5.0f64..500.0) {
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::HETEROGENEOUS,
            100,
        );
        let device = DeviceCapability {
            compute_gflops: gflops,
            bandwidth_mbps: 50.0,
            memory_bytes: mem_gib * 1024 * 1024 * 1024,
            availability: 1.0,
        };
        let cost_model = CostModel::default();
        let case = ConstraintCase::Memory;
        let a = case.assign_client(&pool, MhflMethod::SHeteroFl, &device, &cost_model, 0);
        let smallest = pool
            .entries_for_method(MhflMethod::SHeteroFl)
            .last()
            .unwrap()
            .stats
            .params;
        // Either the assignment fits the device, or it is the smallest model.
        prop_assert!(a.cost.memory_bytes <= device.memory_bytes || a.entry.stats.params == smallest);
    }

    /// Axis-index planning never silently changes fixed axes.
    #[test]
    fn fixed_axes_reject_shrinkage(global in 3usize..32) {
        let roles = vec![AxisRole::Fixed, AxisRole::InFeatures];
        let result = axis_indices(&[global, 16], &[global - 1, 8], &roles, WidthSelection::Prefix);
        prop_assert!(result.is_err());
    }

    /// Softmax rows remain probability distributions for arbitrary logits.
    #[test]
    fn softmax_is_a_distribution(values in proptest::collection::vec(-50.0f32..50.0, 12)) {
        let t = Tensor::from_vec(values, &[3, 4]).unwrap();
        let s = t.softmax_rows().unwrap();
        for r in 0..3 {
            let row_sum: f32 = s.as_slice()[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
        }
        prop_assert!(!s.has_non_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The engine's parallel client execution is a pure optimisation: for
    /// any seed, a threaded run produces a bit-identical `MetricsReport` to
    /// the sequential run of the same experiment.
    #[test]
    fn parallel_rounds_are_deterministic(seed in 0u64..500) {
        let spec = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::Memory,
        )
        .with_scale(RunScale::Quick)
        .with_seed(seed);
        let sequential = spec.run().unwrap();
        let ctx = spec.build_context().unwrap();
        let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
        let mut session = spec.open(algorithm.as_mut(), &ctx).unwrap();
        session.set_parallelism(Parallelism::Threads { workers: 4 });
        let threaded = spec.outcome(session.drain().unwrap());
        prop_assert_eq!(&sequential.report, &threaded.report);
        prop_assert_eq!(sequential.summary, threaded.summary);
    }
}

/// The naive reference product: `ikj` loop order, one pass, no blocking.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    assert_eq!(k, b.dims()[0], "inner dimensions disagree");
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The blocked matmul and both transpose-aware variants agree **bitwise**
    /// with a naive `ikj` reference across randomised shapes, including
    /// degenerate (`k = 0`, single-row/column) and non-multiple-of-tile
    /// dimensions.
    #[test]
    fn blocked_kernels_agree_bitwise_with_naive(
        m in 1usize..40,
        k in 0usize..80,
        n in 1usize..160,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let naive = matmul_naive(&a, &b);
        let blocked = a.matmul(&b).unwrap();
        prop_assert_eq!(naive.dims(), blocked.dims());
        prop_assert_eq!(bits(&naive), bits(&blocked), "blocked kernel diverged at {}x{}x{}", m, k, n);

        // A·Bᵀ without the transpose == naive with the materialised transpose.
        let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
        let nt = a.matmul_nt(&bt).unwrap();
        let nt_ref = matmul_naive(&a, &bt.transpose().unwrap());
        prop_assert_eq!(bits(&nt), bits(&nt_ref), "matmul_nt diverged at {}x{}x{}", m, k, n);

        // Aᵀ·B without the transpose == naive with the materialised transpose.
        let at = Tensor::randn(&[k, m], 1.0, &mut rng);
        let tn = at.matmul_tn(&b).unwrap();
        let tn_ref = matmul_naive(&at.transpose().unwrap(), &b);
        prop_assert_eq!(bits(&tn), bits(&tn_ref), "matmul_tn diverged at {}x{}x{}", m, k, n);
    }

    /// `col_sums` is bitwise the transpose-then-row-sums reduction.
    #[test]
    fn col_sums_agree_with_transposed_row_sums(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let t = Tensor::randn(&[rows, cols], 2.0, &mut rng);
        let direct = t.col_sums().unwrap();
        let reference = t.transpose().unwrap().row_sums().unwrap();
        let bits = |x: &Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&direct), bits(&reference));
    }
}

/// The sequential reference extraction: clone each global tensor, then one
/// `gather_axis` per axis the client narrows.
fn sequential_extract(
    global: &StateDict,
    specs: &[ParamSpec],
    client_specs: &[ParamSpec],
    selection: WidthSelection,
) -> StateDict {
    let mut out = StateDict::new();
    for client in client_specs {
        let spec = specs.iter().find(|s| s.name == client.name).unwrap();
        let indices = axis_indices(&spec.shape, &client.shape, &spec.roles, selection).unwrap();
        let mut sliced = global.require(&client.name).unwrap().clone();
        for (axis, idx) in indices.iter().enumerate() {
            if idx.len() != sliced.dims()[axis] {
                sliced = sliced.gather_axis(axis, idx).unwrap();
            }
        }
        out.insert(client.name.clone(), sliced);
    }
    out
}

/// The sequential reference aggregation of one weighted update: every
/// client element's global position is decoded from its coordinate, and a
/// covered entry becomes `Σ w·x / Σ w` while an uncovered one keeps `global`.
fn sequential_aggregate(
    global: &StateDict,
    specs: &[ParamSpec],
    update: &StateDict,
    selection: WidthSelection,
    weight: f32,
) -> StateDict {
    let mut out = StateDict::new();
    for spec in specs {
        let prev = global.require(&spec.name).unwrap();
        let mut sums = vec![0.0f32; prev.len()];
        let mut counts = vec![0.0f32; prev.len()];
        if let Some(client) = update.get(&spec.name) {
            let indices = axis_indices(&spec.shape, client.dims(), &spec.roles, selection).unwrap();
            let mut strides = vec![1usize; spec.shape.len()];
            for i in (0..spec.shape.len().saturating_sub(1)).rev() {
                strides[i] = strides[i + 1] * spec.shape[i + 1];
            }
            for (flat, &value) in client.as_slice().iter().enumerate() {
                let mut rem = flat;
                let mut offset = 0;
                for (axis, &dim) in client.dims().iter().enumerate().rev() {
                    offset += indices[axis][rem % dim] * strides[axis];
                    rem /= dim;
                }
                sums[offset] += weight * value;
                counts[offset] += weight;
            }
        }
        let data = prev
            .as_slice()
            .iter()
            .zip(sums.iter().zip(&counts))
            .map(|(&p, (&s, &c))| if c > 0.0 { s / c } else { p })
            .collect();
        out.insert(
            spec.name.clone(),
            Tensor::from_vec(data, &spec.shape).unwrap(),
        );
    }
    out
}

/// Every tensor's name, shape and `f32` bit patterns.
fn state_bits(state: &StateDict) -> Vec<(String, Vec<usize>, Vec<u32>)> {
    state
        .iter()
        .map(|(name, t)| {
            (
                name.clone(),
                t.dims().to_vec(),
                t.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The single-pass multi-axis gather of an [`ExtractionPlan`] agrees
    /// bitwise with a sequential per-axis `gather_axis` reference, for every
    /// width fraction and both selection families; and the planned
    /// scatter-add aggregation matches a coordinate-decoding reference
    /// bitwise.
    #[test]
    fn planned_gather_and_scatter_match_sequential_reference(
        width in 0.2f64..1.0,
        shift in 0usize..40,
        seed in 0u64..200,
        weight in 0.5f32..4.0,
    ) {
        let cfg = ProxyConfig::for_family(
            ModelFamily::ResNet34,
            InputKind::Features { dim: 8 },
            5,
            seed,
        );
        let global = ProxyModel::new(cfg).unwrap();
        let global_sd = global.state_dict();
        let specs = global.param_specs();
        let client_specs = ProxyModel::new(cfg.with_width(width)).unwrap().param_specs();

        for selection in [WidthSelection::Prefix, WidthSelection::Rolling { shift }] {
            let reference = sequential_extract(&global_sd, &specs, &client_specs, selection);
            let plan = ExtractionPlan::for_client_specs(&specs, &client_specs, selection).unwrap();
            let planned = plan.extract(&global_sd).unwrap();
            prop_assert_eq!(state_bits(&reference), state_bits(&planned), "gather diverged under {:?}", selection);

            let ref_merged = sequential_aggregate(&global_sd, &specs, &reference, selection, weight);
            let mut plan_agg = ServerAggregator::new(specs.clone());
            plan_agg.add_update_with_plan(&planned, &plan, weight).unwrap();
            let plan_merged = plan_agg.finalize(&global_sd).unwrap();
            prop_assert_eq!(state_bits(&ref_merged), state_bits(&plan_merged), "scatter-add diverged under {:?}", selection);
        }
    }
}
