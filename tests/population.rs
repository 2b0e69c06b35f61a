//! Lazy million-client populations: the property suite behind the
//! `population_scale` benchmark.
//!
//! Two families of guarantees are pinned here:
//!
//! 1. **Lazy ≡ eager** — a lazy context ([`ExperimentSpec::build_lazy_context`])
//!    and the *eagerly materialised* federation built from the very same
//!    `(seed, client_id)` derivations — [`ShardPlan::materialise`] for the
//!    data, a per-client [`ConstraintCase::derive_device`] /
//!    [`ConstraintCase::assign_client`] loop for the devices — are
//!    bit-identical: every shard, every assignment, the shared test/public
//!    sets, and the full run digest of every algorithm family.
//! 2. **Sparse checkpoints** — a checkpoint cut from an asynchronous run
//!    over a 10⁶-client lazy population encodes, decodes and resumes to the
//!    digest of the uninterrupted run. The in-flight section is sparse, so
//!    the file stays small and the round trip stays fast at any population.
//! 3. **Shards are leased, not landfilled** — deriving shards by the
//!    thousand leaves the tensor arena holding one shard's worth of
//!    buffers, not one buffer per shard ever derived.

use mhfl_algorithms::build_algorithm;
use mhfl_data::{DataTask, ShardPlan};
use mhfl_device::{ConstraintCase, CostModel, ModelPool};
use mhfl_fl::{
    Checkpoint, EngineConfig, Execution, FederationContext, FlEngine, LocalTrainConfig, Session,
};
use mhfl_models::MhflMethod;
use mhfl_tensor::TensorArena;
use pracmhbench_core::{base_family_for_task, topology_group_for_task, ExperimentSpec, RunScale};
use proptest::prelude::*;

/// One representative method per algorithm family.
const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

/// Samples per client at `RunScale::Quick` — the eager twin must shard with
/// the same recipe the lazy spec uses. (A mismatch cannot pass silently:
/// the per-sample shard comparison below would fail.)
const QUICK_SAMPLES_PER_CLIENT: usize = 16;

const TASK: DataTask = DataTask::UciHar;

fn spec(method: MhflMethod, num_clients: usize, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(
        TASK,
        method,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(RunScale::Quick)
    .with_num_clients(num_clients)
    .with_seed(seed)
}

/// The eager twin of `spec.build_lazy_context()`: identical derivations,
/// fully materialised up front through the *eager* constructor.
fn materialised_twin(spec: &ExperimentSpec, num_clients: usize) -> FederationContext {
    let plan = ShardPlan::new(
        spec.task,
        num_clients,
        QUICK_SAMPLES_PER_CLIENT,
        None,
        spec.seed,
    );
    let pool = ModelPool::build(
        base_family_for_task(spec.task),
        &topology_group_for_task(spec.task),
        &MhflMethod::ALL,
        spec.task.num_classes(),
    );
    let cost_model = CostModel::default();
    let assignments = (0..num_clients)
        .map(|client| {
            let device = spec.constraint.derive_device(spec.seed, client);
            spec.constraint
                .assign_client(&pool, spec.method, &device, &cost_model, client)
        })
        .collect();
    FederationContext::new(
        plan.materialise(),
        assignments,
        LocalTrainConfig::default(),
        spec.seed,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every per-client artefact of a lazy context is bit-identical to the
    /// eagerly materialised federation from the same seed, for any seed,
    /// population size and algorithm family.
    #[test]
    fn lazy_context_is_bit_identical_to_its_materialisation(
        seed in 0u64..5,
        num_clients in 3usize..12,
        family in 0usize..5,
    ) {
        let spec = spec(FAMILIES[family], num_clients, seed);
        let lazy = spec.build_lazy_context().unwrap();
        let eager = materialised_twin(&spec, num_clients);

        prop_assert_eq!(lazy.num_clients(), eager.num_clients());
        prop_assert_eq!(lazy.task(), eager.task());
        prop_assert_eq!(lazy.test_set(), eager.test_set());
        prop_assert_eq!(lazy.public_set(), eager.public_set());
        for client in 0..num_clients {
            prop_assert_eq!(lazy.assignment(client), eager.assignment(client));
            prop_assert_eq!(
                lazy.client_shard(client).as_ref(),
                eager.client_shard(client).as_ref(),
                "shard {} differs between lazy and materialised",
                client
            );
        }
        prop_assert_eq!(lazy.smallest_assignment(), eager.smallest_assignment());
        prop_assert_eq!(lazy.largest_assignment(), eager.largest_assignment());
    }
}

/// A full engine run over a lazy context and over its materialised twin
/// produce bit-identical metric digests, for every algorithm family in both
/// execution modes — lazy materialisation is invisible to the algorithms.
#[test]
fn lazy_and_materialised_runs_share_digests_for_every_family() {
    for method in FAMILIES {
        for execution in [Execution::Synchronous, Execution::async_buffered(2)] {
            let spec = spec(method, 6, 43).with_execution(execution);
            let lazy = spec.build_lazy_context().unwrap();
            let eager = materialised_twin(&spec, 6);
            let engine = spec.engine();

            let mut alg_lazy = build_algorithm(method);
            let lazy_digest = engine.run(alg_lazy.as_mut(), &lazy).unwrap().digest();
            let mut alg_eager = build_algorithm(method);
            let eager_digest = engine.run(alg_eager.as_mut(), &eager).unwrap().digest();
            assert_eq!(
                lazy_digest, eager_digest,
                "{method} ({execution:?}): lazy and materialised runs diverged"
            );
        }
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

/// Deriving lazy shards must not grow the arena: a shard's sample buffer is
/// a size nothing else asks for, so unless the generator itself leases it,
/// every derived-and-dropped shard stays pooled (2 000 paper-scale UCI-HAR
/// shards = 14 MB, on towards the pool's 96 MB of caps in a long run).
/// `population-scale-smoke`'s four rounds cannot see that; this can.
#[test]
fn derived_shards_do_not_accumulate_in_the_arena() {
    let ctx = spec(MhflMethod::SHeteroFl, 10_000, 5)
        .with_scale(RunScale::Paper)
        .build_lazy_context()
        .unwrap();
    // A thread of its own starts from an empty local pool.
    let grown = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let before = TensorArena::global().retained_bytes();
                for client in 0..2_000 {
                    drop(ctx.client_shard(client));
                }
                TensorArena::global()
                    .retained_bytes()
                    .saturating_sub(before)
            })
            .join()
            .expect("derivation thread panicked")
    });
    assert!(
        grown < 4 << 20,
        "2 000 derived shards left {grown} more bytes pooled in the arena"
    );
}
