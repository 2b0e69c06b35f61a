//! Population scale: the property behind the `population_scale` bin.
//!
//! A context built by `ExperimentSpec::build_context` holds no per-client
//! state; it derives each client from `(seed, client_id)` on touch. A
//! checkpoint cut from an asynchronous run over a 10⁶-client population
//! encodes, decodes and resumes to the digest of the uninterrupted run. The
//! in-flight section is sparse, so the file stays small and the round trip
//! stays fast at any population.

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{Checkpoint, EngineConfig, Execution, FlEngine, Session};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};

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

/// A checkpoint cut mid-run from a 10⁶-client federation round-trips
/// through bytes and resumes to the digest of the uninterrupted run. The
/// driver section stores in-flight ids sparsely, so the encoded file is
/// kilobytes, not megabytes, at this population.
#[test]
fn sparse_million_client_checkpoint_round_trips_to_equal_digest() {
    const POPULATION: usize = 1_000_000;
    let spec = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(RunScale::Quick)
    .with_num_clients(POPULATION)
    .with_seed(17);
    let engine = sparse_engine();

    let ctx = spec.build_context().unwrap();
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
