//! Distributed-execution correctness: a server plus real socket-connected
//! workers must reproduce the single-process engine **bit for bit**.
//!
//! The engine makes this checkable in a way most distributed systems can
//! only dream of: every `ClientUpdate` is a pure function of
//! `(algorithm state, round, client, ctx)` and the `RemoteRunner`
//! reassembles updates in selection order, so the full
//! `MetricsReport::digest()` of a distributed run — across any number of
//! workers, and across worker deaths mid-round — must equal the
//! single-process reference exactly. These tests run workers as in-process
//! threads over real localhost TCP sockets, exercising the same frames,
//! handshakes, heartbeats and requeue paths as separate processes would.

use std::time::Duration;

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::wire::encode_client_update;
use mhfl_fl::{
    Corruption, EngineConfig, Execution, FlEngine, FlError, Parallelism, RobustAggregation,
};
use mhfl_models::MhflMethod;
use mhfl_net::{
    run_server_with_timeout, run_worker, serve, Conn, Endpoint, Listener, NetError, ServerOutcome,
    WorkerOptions,
};
use pracmhbench_core::{ExperimentSpec, RunScale};

const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

fn spec(method: MhflMethod) -> ExperimentSpec {
    ExperimentSpec::new(DataTask::UciHar, method, ConstraintCase::Memory)
        .with_scale(RunScale::Quick)
        .with_seed(42)
}

/// Runs the spec distributed: the server in this thread, each worker in its
/// own thread connected over a real localhost TCP socket.
fn run_distributed(
    spec: ExperimentSpec,
    workers: Vec<WorkerOptions>,
) -> Result<ServerOutcome, FlError> {
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let handles: Vec<_> = workers
        .into_iter()
        .map(|options| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || run_worker(&endpoint, &spec, options))
        })
        .collect();
    let count = handles.len();
    // A short heartbeat window keeps the worker-death tests fast without
    // risking flakes: live workers heartbeat every 100 ms.
    let outcome = run_server_with_timeout(
        &listener,
        count,
        &spec,
        Parallelism::Sequential,
        Duration::from_secs(5),
    );
    for handle in handles {
        // Worker-side errors are part of what individual tests assert via
        // the server outcome; a panicked worker thread is always a bug.
        let _ = handle.join().expect("worker thread must not panic");
    }
    outcome
}

fn worker(name: &str) -> WorkerOptions {
    WorkerOptions {
        name: name.into(),
        heartbeat: Duration::from_millis(100),
        die_after_updates: None,
    }
}

/// The contract `RemoteRunner` relies on when it ships each worker only its
/// shard's slice of the snapshot: `client_update(round, c)` reads only the
/// shared slots and `client.c`. Checked for all nine methods on the
/// heterogeneous golden federation (computation deadline 300 s, seed 17)
/// of both tasks, three rounds in, for every client selected in round 3.
#[test]
fn a_snapshot_restricted_to_one_client_computes_its_update_bit_identically() {
    for task in [DataTask::UciHar, DataTask::StackOverflow] {
        for method in MhflMethod::ALL {
            let spec = ExperimentSpec::new(task, method, ConstraintCase::COMPUTATION)
                .with_scale(RunScale::Quick)
                .with_seed(17);
            let ctx = spec.build_context().expect("context");
            let engine = FlEngine::new(EngineConfig {
                rounds: 3,
                sample_ratio: 0.5,
                eval_every: 3,
                ..EngineConfig::default()
            });
            let mut original = mhfl_algorithms::build_algorithm(method);
            let report = engine.run(original.as_mut(), &ctx).expect("three rounds");
            let snapshot = original.snapshot().expect("snapshot");
            let selected: Vec<usize> = report
                .records
                .last()
                .expect("an evaluation record")
                .client_stats
                .iter()
                .filter(|stat| stat.round == 3)
                .map(|stat| stat.client)
                .collect();
            assert!(
                !selected.is_empty(),
                "{task} {method:?}: round 3 selected nobody"
            );
            for client in selected {
                let mut replica = mhfl_algorithms::build_algorithm(method);
                replica
                    .restore(snapshot.restricted_to(&[client]), &ctx)
                    .expect("restore from the restricted snapshot");
                let expected = original.client_update(4, client, &ctx).expect("original");
                let got = replica.client_update(4, client, &ctx).expect("replica");
                assert!(
                    encode_client_update(&got) == encode_client_update(&expected),
                    "{task} {method:?}: client {client}'s update moved under restriction"
                );
            }
        }
    }
}

#[test]
fn two_workers_match_single_process_digest_for_every_family() {
    for method in FAMILIES {
        let spec = spec(method);
        let reference = spec.run().expect("single-process run").report;
        let outcome = run_distributed(spec, vec![worker("alpha"), worker("beta")])
            .unwrap_or_else(|e| panic!("distributed {method:?} failed: {e}"));
        assert_eq!(
            outcome.report.digest(),
            reference.digest(),
            "{method:?}: distributed digest diverged from single process"
        );
        let completed: usize = outcome.workers.iter().map(|w| w.completed).sum();
        assert!(
            outcome.workers.iter().all(|w| w.completed > 0),
            "{method:?}: both workers should have computed updates"
        );
        assert!(completed > 0);
    }
}

/// The thread count is the server's alone: each dispatch carries it, so a
/// server under `Threads { workers: 2 }` and workers built from the same
/// spec pass the handshake and reproduce the single-process digest.
#[test]
fn a_threaded_server_and_workers_of_the_same_spec_match_single_process() {
    let spec = spec(MhflMethod::FedEt);
    let reference = spec.run().expect("single-process run").report.digest();
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let handles: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|name| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || run_worker(&endpoint, &spec, worker(name)))
        })
        .collect();
    let outcome = run_server_with_timeout(
        &listener,
        2,
        &spec,
        Parallelism::Threads { workers: 2 },
        Duration::from_secs(5),
    )
    .expect("a threaded server accepts workers of the same spec");
    for handle in handles {
        handle
            .join()
            .expect("worker thread must not panic")
            .expect("worker serves the run to its end");
    }
    assert_eq!(outcome.report.digest(), reference);
}

#[test]
fn three_workers_and_one_worker_agree_with_each_other() {
    let spec = spec(MhflMethod::SHeteroFl);
    let reference = spec.run().expect("single-process run").report.digest();
    let one = run_distributed(spec, vec![worker("solo")]).expect("1-worker run");
    let three =
        run_distributed(spec, vec![worker("a"), worker("b"), worker("c")]).expect("3-worker run");
    assert_eq!(one.report.digest(), reference);
    assert_eq!(three.report.digest(), reference);
}

#[test]
fn asynchronous_execution_is_digest_identical_distributed() {
    let spec = spec(MhflMethod::FedProto).with_execution(Execution::async_buffered(2));
    let reference = spec.run().expect("single-process async run").report;
    let outcome = run_distributed(spec, vec![worker("alpha"), worker("beta")])
        .expect("distributed async run");
    assert_eq!(outcome.report.digest(), reference.digest());
}

#[test]
fn adversarial_knobs_apply_on_the_server_side_of_a_distributed_run() {
    let clean = spec(MhflMethod::SHeteroFl);
    let spec = clean
        .with_corruption(Corruption::SignFlip { fraction: 0.4 })
        .with_robust_aggregation(RobustAggregation::CoordinateMedian);
    let reference = spec.run().expect("single-process run").report;
    assert_ne!(
        reference.digest(),
        clean.run().expect("clean run").report.digest(),
        "the attack must change the run for this test to mean anything"
    );
    let outcome = run_distributed(spec, vec![worker("solo")]).expect("distributed run");
    assert_eq!(outcome.report.digest(), reference.digest());
}

#[test]
fn killed_worker_mid_round_requeues_to_survivor_and_digest_holds() {
    // 8 clients at 50% sampling → 4 selected per round → shards of 2 per
    // worker, so dying after 5 updates is a genuine mid-shard crash in the
    // third round, with work left to requeue. By then the requeued client
    // may own a `client.<id>` slot (FedProto, Fed-ET) that the survivor's
    // first-wave state did not carry: the requeue wave must ship it.
    for method in [
        MhflMethod::SHeteroFl,
        MhflMethod::FedProto,
        MhflMethod::FedEt,
    ] {
        let spec = spec(method).with_num_clients(8);
        let reference = spec.run().expect("single-process run").report;
        let chaos = WorkerOptions {
            die_after_updates: Some(5),
            ..worker("doomed")
        };
        let outcome = run_distributed(spec, vec![chaos, worker("survivor")])
            .unwrap_or_else(|e| panic!("{method:?} must survive one worker death: {e}"));
        assert_eq!(
            outcome.report.digest(),
            reference.digest(),
            "{method:?}: requeued-after-death digest diverged from single process"
        );
        let dead: Vec<_> = outcome.workers.iter().filter(|w| w.dead).collect();
        assert_eq!(dead.len(), 1, "exactly one worker should be marked dead");
        assert_eq!(dead[0].name, "doomed");
        let survivor = outcome
            .workers
            .iter()
            .find(|w| w.name == "survivor")
            .expect("survivor stats");
        assert!(
            survivor.completed > survivor.dispatched / 2,
            "{method:?}: survivor should have absorbed requeued work"
        );
    }
}

#[test]
fn losing_every_worker_is_a_typed_error_not_a_hang_or_panic() {
    let spec = spec(MhflMethod::SHeteroFl).with_num_clients(8);
    let chaos = WorkerOptions {
        die_after_updates: Some(1),
        ..worker("only")
    };
    match run_distributed(spec, vec![chaos]) {
        Err(FlError::Remote(msg)) => {
            assert!(
                msg.contains("workers are gone"),
                "expected the no-workers message, got: {msg}"
            );
        }
        Ok(_) => panic!("a run with zero surviving workers must fail"),
        Err(other) => panic!("expected FlError::Remote, got {other:?}"),
    }
}

#[test]
fn mismatched_specs_are_rejected_at_handshake() {
    let server_spec = spec(MhflMethod::SHeteroFl);
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let handle = std::thread::spawn(move || {
        // Same method, different seed: a silently diverging replica if the
        // handshake let it through.
        let worker_spec = spec(MhflMethod::SHeteroFl).with_seed(43);
        run_worker(&endpoint, &worker_spec, worker("drifted"))
    });
    let outcome = run_server_with_timeout(
        &listener,
        1,
        &server_spec,
        Parallelism::Sequential,
        Duration::from_secs(5),
    );
    match outcome {
        Err(FlError::Remote(msg)) => assert!(
            msg.contains("fingerprint"),
            "expected a fingerprint mismatch, got: {msg}"
        ),
        other => panic!("expected a handshake rejection, got {other:?}"),
    }
    assert!(
        handle.join().expect("worker thread").is_err(),
        "the drifted worker must also see the rejection"
    );
}

/// A server that accepts and never answers — one that has already returned
/// with this worker still queued in its listener's backlog — costs the
/// worker one handshake deadline (60 heartbeats), not a hang.
#[test]
fn a_silent_server_fails_the_handshake_within_its_deadline() {
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let (done, outcome) = std::sync::mpsc::channel();
    let worker_thread = std::thread::spawn(move || {
        let spec = spec(MhflMethod::SHeteroFl);
        let ctx = spec.build_context().expect("context");
        let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
        let conn = Conn::connect_within(&endpoint, Duration::from_secs(5)).expect("connect");
        let options = WorkerOptions {
            heartbeat: Duration::from_millis(20),
            ..worker("unanswered")
        };
        let _ = done.send(serve(conn, 0, algorithm.as_mut(), &ctx, options));
    });
    let _silent = listener.accept().expect("accept");
    let outcome = outcome
        .recv_timeout(Duration::from_secs(5))
        .expect("the worker is still waiting for a server that never answers");
    worker_thread.join().expect("worker thread must not panic");
    assert!(
        matches!(outcome, Err(NetError::Io { .. })),
        "expected a handshake timeout, got {outcome:?}"
    );
}
