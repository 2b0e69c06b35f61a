//! One population, two ways to store it: the property suite behind
//! `ExperimentSpec::build_context` / `build_lazy_context` and the
//! `population_scale` benchmark.
//!
//! Two families of guarantees are pinned here:
//!
//! 1. **Resident ≡ derived** — a context materialised up front
//!    ([`ExperimentSpec::build_context`]) and one derived on each touch
//!    ([`ExperimentSpec::build_lazy_context`]) hold the same clients: every
//!    shard, every assignment, the shared test/public sets and the
//!    extremes, for three tasks × four constraint cases × every family. Run
//!    digests agree, and a checkpoint cut from a resident run resumes on the
//!    derived context to the uninterrupted digest.
//! 2. **Sparse checkpoints** — a checkpoint cut from an asynchronous run
//!    over a 10⁶-client derived population encodes, decodes and resumes to
//!    the digest of the uninterrupted run. The in-flight section is sparse,
//!    so the file stays small and the round trip stays fast at any
//!    population.

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{Checkpoint, EngineConfig, Execution, FlEngine, RoundEvent, Session};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};
use proptest::prelude::*;

/// One representative method per algorithm family.
const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

/// One task per modality.
const TASKS: [DataTask; 3] = [DataTask::UciHar, DataTask::StackOverflow, DataTask::Cifar10];

/// Memory, Comp 300 s, Comm 200 s and Mem+Comm 200 s.
const CASES: [ConstraintCase; 4] = [
    ConstraintCase::Memory,
    ConstraintCase::Computation {
        deadline_secs: 300.0,
    },
    ConstraintCase::Communication { budget_secs: 200.0 },
    ConstraintCase::Combined {
        deadline_secs: None,
        comm_budget_secs: Some(200.0),
        memory: true,
    },
];

fn spec(method: MhflMethod, num_clients: usize, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::UciHar,
        method,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(RunScale::Quick)
    .with_num_clients(num_clients)
    .with_seed(seed)
}

/// Every spec of the contract grid for `method`: each task under each case.
fn grid(method: MhflMethod, seed: u64) -> impl Iterator<Item = ExperimentSpec> {
    TASKS.into_iter().flat_map(move |task| {
        CASES.into_iter().map(move |case| {
            ExperimentSpec::new(task, method, case)
                .with_scale(RunScale::Quick)
                .with_seed(seed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every per-client artefact of a derived context is bit-identical to
    /// the resident context of the same spec, for any seed and population
    /// size, on every task × case × family of the grid.
    #[test]
    fn lazy_context_is_bit_identical_to_its_materialisation(
        seed in 0u64..5,
        num_clients in 3usize..12,
    ) {
        for method in FAMILIES {
            for spec in grid(method, seed) {
                let spec = spec.with_num_clients(num_clients);
                let lazy = spec.build_lazy_context().unwrap();
                let resident = spec.build_context().unwrap();

                prop_assert_eq!(lazy.num_clients(), resident.num_clients());
                prop_assert_eq!(lazy.task(), resident.task());
                prop_assert_eq!(lazy.test_set(), resident.test_set());
                prop_assert_eq!(lazy.public_set(), resident.public_set());
                for client in 0..num_clients {
                    prop_assert_eq!(lazy.assignment(client), resident.assignment(client));
                    prop_assert_eq!(
                        lazy.client_shard(client).as_ref(),
                        resident.client_shard(client).as_ref(),
                        "{:?}: shard {} differs between derived and resident",
                        spec,
                        client
                    );
                }
                prop_assert_eq!(lazy.smallest_assignment(), resident.smallest_assignment());
                prop_assert_eq!(lazy.largest_assignment(), resident.largest_assignment());
            }
        }
    }
}

/// Every family in both execution modes on `task`'s row of the grid.
fn digest_cells(task: DataTask) -> impl Iterator<Item = ExperimentSpec> {
    FAMILIES.into_iter().flat_map(move |method| {
        grid(method, 43)
            .filter(move |spec| spec.task == task)
            .flat_map(|spec| {
                [Execution::Synchronous, Execution::async_buffered(2)]
                    .map(|execution| spec.with_execution(execution))
            })
    })
}

/// Under `engine`, a run on `spec`'s resident context and a run on its
/// derived one produce bit-identical digests, and a checkpoint cut from the
/// resident run at its first arrival resumes on the derived context to the
/// same digest — how a population is stored is invisible to the algorithms
/// and to checkpoints.
fn assert_storage_is_invisible(spec: &ExperimentSpec, engine: &FlEngine) {
    let resident = spec.build_context().unwrap();
    let lazy = spec.build_lazy_context().unwrap();

    let mut algorithm = build_algorithm(spec.method);
    let mut session = engine.session(algorithm.as_mut(), &resident).unwrap();
    while !matches!(
        session.next_event().unwrap(),
        Some(RoundEvent::UpdateArrived { .. })
    ) {}
    let checkpoint = session.checkpoint().unwrap();
    let uninterrupted = session.drain().unwrap().digest();

    let mut algorithm = build_algorithm(spec.method);
    let derived = engine.run(algorithm.as_mut(), &lazy).unwrap();
    assert_eq!(
        derived.digest(),
        uninterrupted,
        "{spec:?}: derived and resident runs diverged"
    );
    let mut algorithm = build_algorithm(spec.method);
    let resumed = Session::restore(algorithm.as_mut(), &lazy, &checkpoint)
        .unwrap()
        .drain()
        .unwrap();
    assert_eq!(
        resumed.digest(),
        uninterrupted,
        "{spec:?}: resident checkpoint resumed on the derived context diverged"
    );
}

/// Resident and derived storage are invisible on the full Quick schedule
/// (every client, four rounds, per-client state carried between them) of
/// every UCI-HAR and Stack Overflow cell.
#[test]
fn lazy_and_materialised_runs_share_digests_for_every_family() {
    for spec in digest_cells(DataTask::UciHar).chain(digest_cells(DataTask::StackOverflow)) {
        assert_storage_is_invisible(&spec, &spec.engine());
    }
}

/// The same contract on every CIFAR-10 cell. Its conv proxies cost seconds
/// per full Quick run, so each run is cut to one evaluated aggregation (one
/// client per sync round, two arrivals per async buffer): every family
/// still trains, aggregates, evaluates and checkpoints on it.
#[test]
fn lazy_and_materialised_cifar10_runs_share_digests_for_every_family() {
    for spec in digest_cells(DataTask::Cifar10) {
        let engine = FlEngine::new(EngineConfig {
            rounds: 1,
            sample_ratio: 1.0 / 6.0,
            eval_every: 1,
            stability_clients: 1,
            ..*spec.engine().config()
        });
        assert_storage_is_invisible(&spec, &engine);
    }
}

/// Engine shape for the million-client checkpoint test: a handful of
/// aggregations over a fixed, tiny in-flight set, so the test exercises the
/// sparse checkpoint path without training an unbounded number of clients.
fn sparse_engine() -> FlEngine {
    FlEngine::new(EngineConfig {
        rounds: 2,
        sample_ratio: 0.1,
        eval_every: 1,
        stability_clients: 4,
        execution: Execution::AsyncBuffered {
            buffer_size: 4,
            concurrency: 8,
        },
        ..EngineConfig::default()
    })
}

/// A checkpoint cut mid-run from a 10⁶-client lazy federation round-trips
/// through bytes and resumes to the digest of the uninterrupted run. The
/// driver section stores in-flight ids sparsely, so the encoded file is
/// kilobytes, not megabytes, at this population.
#[test]
fn sparse_million_client_checkpoint_round_trips_to_equal_digest() {
    const POPULATION: usize = 1_000_000;
    let spec = spec(MhflMethod::SHeteroFl, POPULATION, 17);
    let engine = sparse_engine();

    let ctx = spec.build_lazy_context().unwrap();
    let uninterrupted = {
        let mut algorithm = build_algorithm(spec.method);
        engine.run(algorithm.as_mut(), &ctx).unwrap().digest()
    };

    // Cut a checkpoint a few events into a fresh run...
    let checkpoint = {
        let mut algorithm = build_algorithm(spec.method);
        let mut session = engine.session(algorithm.as_mut(), &ctx).unwrap();
        for _ in 0..5 {
            session.next_event().unwrap();
        }
        session.checkpoint().unwrap()
    };
    // ... the sparse driver section keeps the encoding O(active clients).
    let bytes = checkpoint.to_bytes();
    assert!(
        bytes.len() < 1_000_000,
        "a sparse {POPULATION}-client checkpoint should encode in well under \
         a megabyte, got {} bytes",
        bytes.len()
    );
    let decoded = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(decoded.to_bytes(), bytes, "canonical encoding at scale");

    let mut algorithm = build_algorithm(spec.method);
    let resumed = Session::restore(algorithm.as_mut(), &ctx, &decoded)
        .unwrap()
        .drain()
        .unwrap();
    assert_eq!(
        resumed.digest(),
        uninterrupted,
        "sparse-population checkpoint resume diverged from the uninterrupted run"
    );
}
