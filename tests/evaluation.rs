//! `FlAlgorithm::evaluate_point` against the loop it replaces.
//!
//! `Session::evaluate` used to call `evaluate_global` once and
//! `evaluate_client` once per sampled client, serially. Every family now
//! overrides `evaluate_point` to score each distinct *realised* model once —
//! sharing the global pass with clients that deploy the global model, and,
//! in the depth family, reading every block prefix a client deploys off
//! the global model's one forward — and to split each pass into test-set
//! slices fanned out under the session's `Parallelism`. None of that may be
//! observable: for every family and every mode the override must return the
//! bits (`f32::to_bits`) and the errors of the serial loop, on one chunk, on
//! several chunks with a ragged tail, on federations whose depth levels
//! collapse, and on one whose four depth levels are four block counts.

use mhfl_algorithms::build_algorithm;
use mhfl_data::{generate_dataset, DataTask, Dataset};
use mhfl_device::ConstraintCase;
use mhfl_fl::{run_clients, FederationContext, FlAlgorithm, FlResult, Parallelism};
use mhfl_models::{scale_depth, MhflMethod, ModelFamily, ProxyConfig};
use pracmhbench_core::{ExperimentSpec, RunScale};

/// One representative method per algorithm family, plus the two depth
/// methods that score a deployment differently from DepthFL's ensemble.
const METHODS: [MhflMethod; 7] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FeDepth,
    MhflMethod::InclusiveFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

const MODES: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads { workers: 2 },
    Parallelism::Threads { workers: 3 },
];

const NUM_CLIENTS: usize = 8;

/// Stability samples by the `client % 4` deployment key they exercise.
const SAMPLES: [&[usize]; 6] = [
    // Repeated keys, out of order.
    &[4, 1, 0, 5, 0],
    // A single key that is a proper sub-model ...
    &[1, 5],
    // ... and the single key that *is* the global model (client 7 never
    // trains, so the topology families answer chance for it).
    &[3, 7],
    // All four keys.
    &[0, 1, 2, 3, 4, 5, 6, 7],
    &[6],
    &[],
];

fn context(method: MhflMethod) -> FederationContext {
    context_for(DataTask::UciHar, method)
}

fn context_for(task: DataTask, method: MhflMethod) -> FederationContext {
    ExperimentSpec::new(task, method, ConstraintCase::COMPUTATION)
        .with_scale(RunScale::Quick)
        .with_num_clients(NUM_CLIENTS)
        .with_seed(23)
        .build_context()
        .unwrap()
}

/// Two rounds of training over every client but the last.
fn trained(method: MhflMethod, ctx: &FederationContext) -> Box<dyn FlAlgorithm> {
    let mut algorithm = build_algorithm(method);
    algorithm.setup(ctx).unwrap();
    let participants: Vec<usize> = (0..NUM_CLIENTS - 1).collect();
    for round in 1..=2 {
        let updates = run_clients(
            algorithm.as_ref(),
            round,
            &participants,
            ctx,
            Parallelism::Sequential,
        )
        .unwrap();
        algorithm.aggregate(round, updates, ctx).unwrap();
    }
    algorithm
}

/// What `Session::evaluate` did before `evaluate_point` existed.
fn serial_loop(
    algorithm: &mut dyn FlAlgorithm,
    clients: &[usize],
    data: &Dataset,
) -> FlResult<(f32, Vec<f32>)> {
    let global = algorithm.evaluate_global(data)?;
    let per_client = clients
        .iter()
        .map(|&client| algorithm.evaluate_client(client, data))
        .collect::<FlResult<_>>()?;
    Ok((global, per_client))
}

fn bits((global, per_client): &(f32, Vec<f32>)) -> (u32, Vec<u32>) {
    (
        global.to_bits(),
        per_client.iter().map(|a| a.to_bits()).collect(),
    )
}

/// Every sample of every mode against the serial loop, on `data`.
fn assert_matches_serial_loop(method: MhflMethod, algorithm: &mut dyn FlAlgorithm, data: &Dataset) {
    for sample in SAMPLES {
        let expected = serial_loop(algorithm, sample, data).unwrap();
        assert_eq!(expected.1.len(), sample.len());
        for mode in MODES {
            let point = algorithm.evaluate_point(sample, data, mode).unwrap();
            assert_eq!(
                bits(&point),
                bits(&expected),
                "{method}, {} rows, sample {sample:?}, {mode:?}: {point:?} vs serial {expected:?}",
                data.len()
            );
        }
    }
}

#[test]
fn evaluate_point_matches_the_serial_loop_bit_for_bit() {
    for method in METHODS {
        let ctx = context(method);
        let mut algorithm = trained(method, &ctx);
        assert_matches_serial_loop(method, algorithm.as_mut(), ctx.test_set());
    }
}

/// 300 rows are three 128-row chunks, the last one partial: the threaded
/// modes split them into two and three slices.
#[test]
fn sliced_evaluation_with_a_ragged_tail_matches_the_serial_loop() {
    let data = generate_dataset(DataTask::UciHar, 300, 29, None);
    for method in METHODS {
        let ctx = context(method);
        let mut algorithm = trained(method, &ctx);
        assert_matches_serial_loop(method, algorithm.as_mut(), &data);
    }
}

/// Stack Overflow's ALBERT-base proxy has two blocks, so depth fractions
/// 0.25 and 0.5 (and 0.75 and 1.0) realise one model each.
#[test]
fn collapsed_depth_levels_match_the_serial_loop() {
    for method in [MhflMethod::DepthFl, MhflMethod::FeDepth] {
        let ctx = context_for(DataTask::StackOverflow, method);
        let mut algorithm = trained(method, &ctx);
        assert_matches_serial_loop(method, algorithm.as_mut(), ctx.test_set());
    }
}

/// CIFAR-10's MobileNetV2 proxy has four blocks, so the four `client % 4`
/// keys deploy four block counts, all read off one forward of the global
/// model.
#[test]
fn four_distinct_depths_match_the_serial_loop() {
    let task = DataTask::Cifar10;
    let blocks =
        ProxyConfig::for_family(ModelFamily::MobileNetV2, task.input_kind(), 10, 0).num_blocks();
    let depths = [0.25, 0.5, 0.75, 1.0].map(|fraction| scale_depth(blocks, fraction));
    assert_eq!(depths, [1, 2, 3, 4]);
    for method in [
        MhflMethod::DepthFl,
        MhflMethod::FeDepth,
        MhflMethod::InclusiveFl,
    ] {
        let ctx = context_for(task, method);
        let mut algorithm = trained(method, &ctx);
        assert_matches_serial_loop(method, algorithm.as_mut(), ctx.test_set());
    }
}

#[test]
fn evaluate_point_before_setup_is_the_same_typed_error() {
    let data = generate_dataset(DataTask::UciHar, 8, 0, None);
    for method in METHODS {
        let mut algorithm = build_algorithm(method);
        let expected = algorithm.evaluate_global(&data).unwrap_err();
        for mode in MODES {
            for sample in [&[0usize, 1, 2][..], &[]] {
                let error = algorithm.evaluate_point(sample, &data, mode).unwrap_err();
                assert_eq!(error, expected, "{method}, sample {sample:?}, {mode:?}");
            }
        }
    }
}

#[test]
fn a_failing_evaluation_job_is_the_first_error_in_job_order() {
    // Images pushed through models built for 36 features: every job fails,
    // and the first of them — as in the serial loop — is the global model's.
    let images = generate_dataset(DataTask::Cifar10, 8, 0, None);
    for method in METHODS {
        let ctx = context(method);
        let mut algorithm = trained(method, &ctx);
        let sample = SAMPLES[3];
        let expected = serial_loop(algorithm.as_mut(), sample, &images).unwrap_err();
        for mode in MODES {
            let error = algorithm.evaluate_point(sample, &images, mode).unwrap_err();
            assert_eq!(error, expected, "{method}, {mode:?}");
        }
    }
}
