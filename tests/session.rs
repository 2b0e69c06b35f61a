//! Integration tests of the streaming session API: run/session parity,
//! event-stream shape, observers, and checkpoint/restore determinism.
//!
//! The headline property pinned here (and required by the redesign): a run
//! checkpointed at round *k* and restored produces a
//! [`MetricsReport::digest`] bitwise identical to the uninterrupted run, for
//! every algorithm family in both execution modes.

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{
    CsvTelemetry, EarlyStop, EventCounter, Execution, ExperimentSpec, MetricsReport, RoundEvent,
    RunScale, Session,
};
use proptest::prelude::*;

/// One representative method per algorithm family (width, depth, prototype,
/// ensemble-transfer, homogeneous baseline).
const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

const MODES: [Execution; 2] = [
    Execution::Synchronous,
    Execution::AsyncBuffered {
        buffer_size: 2,
        concurrency: 0,
    },
];

fn spec(method: MhflMethod, execution: Execution, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(DataTask::UciHar, method, ConstraintCase::COMPUTATION)
        .with_scale(RunScale::Quick)
        .with_seed(seed)
        .with_execution(execution)
}

/// Runs the spec through the blocking `run()` wrapper.
fn run_blocking(spec: &ExperimentSpec) -> MetricsReport {
    spec.run().expect("experiment runs").report
}

/// Runs the spec by hand-driving a session event by event, returning the
/// report carried by the final `RunCompleted` event plus the full stream.
fn run_streaming(spec: &ExperimentSpec) -> (MetricsReport, Vec<RoundEvent>) {
    let ctx = spec.build_context().expect("context builds");
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec
        .engine()
        .session(algorithm.as_mut(), &ctx)
        .expect("session opens");
    let mut events = Vec::new();
    while let Some(event) = session.next_event().expect("session advances") {
        events.push(event);
    }
    let report = match events.last() {
        Some(RoundEvent::RunCompleted { report }) => report.clone(),
        other => panic!("stream must end with RunCompleted, got {other:?}"),
    };
    (report, events)
}

#[test]
fn session_stream_matches_blocking_run_for_every_family_and_mode() {
    for method in FAMILIES {
        for execution in MODES {
            let spec = spec(method, execution, 17);
            let blocking = run_blocking(&spec);
            let (streamed, _) = run_streaming(&spec);
            assert_eq!(
                blocking.digest(),
                streamed.digest(),
                "{method} ({execution:?}): session stream diverged from run()"
            );
            assert_eq!(blocking, streamed);
        }
    }
}

#[test]
fn event_stream_is_well_formed_in_both_modes() {
    for execution in MODES {
        let spec = spec(MhflMethod::SHeteroFl, execution, 5);
        let (report, events) = run_streaming(&spec);

        // Exactly one RunCompleted, and it is last.
        let completions = events
            .iter()
            .filter(|e| matches!(e, RoundEvent::RunCompleted { .. }))
            .count();
        assert_eq!(completions, 1);
        assert!(matches!(
            events.last(),
            Some(RoundEvent::RunCompleted { .. })
        ));
        // The first event opens round 1 at time zero.
        assert!(
            matches!(events.first(), Some(RoundEvent::RoundStarted { round: 1, sim_time_secs }) if *sim_time_secs == 0.0)
        );

        // Quick scale runs 4 rounds: each is started, aggregated, completed.
        let rounds = 4;
        for kind in ["round-started", "aggregated", "round-completed"] {
            let count = events.iter().filter(|e| e.kind() == kind).count();
            assert_eq!(count, rounds, "{execution:?}: {kind} count");
        }
        // Every aggregated update arrived first, and dispatches cover
        // arrivals (async runs may leave updates in flight at the end).
        let dispatched = events
            .iter()
            .filter(|e| e.kind() == "client-dispatched")
            .count();
        let arrived = events
            .iter()
            .filter(|e| e.kind() == "update-arrived")
            .count();
        assert!(dispatched >= arrived);
        assert!(arrived >= report.client_stats().count());

        // Simulated time is non-decreasing over RoundCompleted events, and
        // records appear exactly on the evaluation cadence (eval_every = 1
        // at quick scale).
        let mut last_time = 0.0f64;
        for event in &events {
            if let RoundEvent::RoundCompleted {
                sim_time_secs,
                record,
                ..
            } = event
            {
                assert!(*sim_time_secs >= last_time);
                last_time = *sim_time_secs;
                assert!(record.is_some(), "quick scale evaluates every round");
            }
        }
        assert_eq!(report.records.len(), rounds);
    }
}

#[test]
fn observers_see_the_stream_and_early_stop_truncates_the_run() {
    let spec = spec(MhflMethod::SHeteroFl, Execution::Synchronous, 9);
    let ctx = spec.build_context().unwrap();

    // Observers attached by mutable reference see exactly the yielded
    // stream and stay readable once the session is gone.
    let mut counter = EventCounter::new();
    let mut csv = CsvTelemetry::new();
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
    session.observe(Box::new(&mut counter));
    session.observe(Box::new(&mut csv));
    let mut yielded = 0usize;
    while session.next_event().unwrap().is_some() {
        yielded += 1;
    }
    drop(session);
    assert!(yielded > 0);
    let observed = counter.rounds_started
        + counter.dispatched
        + counter.arrived
        + counter.dropped
        + counter.aggregated
        + counter.rounds_completed
        + counter.runs_completed;
    assert_eq!(observed, yielded, "observers must see the full stream");
    assert_eq!(counter.runs_completed, 1);
    assert!(csv.num_update_rows() > 0);

    // An accuracy target of zero stops after the first evaluation point.
    let mut early_alg = build_algorithm(spec.method);
    let mut early = spec.engine().session(early_alg.as_mut(), &ctx).unwrap();
    early.observe(Box::new(EarlyStop::at_accuracy(0.0)));
    let mut events = Vec::new();
    while let Some(event) = early.next_event().unwrap() {
        events.push(event);
    }
    assert!(early.is_finished());
    let report = match events.last() {
        Some(RoundEvent::RunCompleted { report }) => report.clone(),
        other => panic!("expected RunCompleted, got {other:?}"),
    };
    assert_eq!(
        report.records.len(),
        1,
        "early stop must truncate after the first evaluation"
    );
    assert!(early.completed_rounds() < 4);
}

#[test]
fn csv_telemetry_observer_collects_the_run() {
    let spec = spec(MhflMethod::SHeteroFl, Execution::async_buffered(2), 11);
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
    let mut csv = CsvTelemetry::new();
    // Drive by iterator, collecting telemetry manually from the events the
    // iterator yields (observers attached to the session would see the same
    // stream; this covers the external-consumer path).
    for event in session {
        use pracmhbench_core::Observer;
        csv.on_event(&event.unwrap());
    }
    assert!(csv.num_update_rows() > 0);
    let updates = csv.updates_csv();
    assert!(updates.lines().count() > 1);
    assert!(updates.starts_with("round,client,"));
    let rounds = csv.rounds_csv();
    assert_eq!(rounds.lines().count(), 4 + 1, "header + one row per eval");
}

/// Checkpoint after `k` yielded events, restore into a fresh algorithm, and
/// compare the final digest against the uninterrupted run.
fn checkpoint_roundtrip_digest(spec: &ExperimentSpec, checkpoint_after: usize) -> (u64, u64) {
    let uninterrupted = run_blocking(spec).digest();

    let ctx = spec.build_context().unwrap();
    let mut first_alg = build_algorithm(spec.method);
    let mut session = spec.engine().session(first_alg.as_mut(), &ctx).unwrap();
    let mut seen = 0usize;
    while seen < checkpoint_after && session.next_event().unwrap().is_some() {
        seen += 1;
    }
    let checkpoint = session.checkpoint().unwrap();
    drop(session);
    drop(first_alg);

    let mut resumed_alg = build_algorithm(spec.method);
    let resumed = Session::restore(resumed_alg.as_mut(), &ctx, &checkpoint).unwrap();
    let report = resumed.drain().unwrap();
    (uninterrupted, report.digest())
}

#[test]
fn checkpoint_restore_is_bit_identical_for_every_family_and_mode() {
    for method in FAMILIES {
        for execution in MODES {
            let spec = spec(method, execution, 43);
            // Mid-run: after a prefix of the event stream covering at least
            // one full round (quick scale emits a few dozen events).
            let (uninterrupted, resumed) = checkpoint_roundtrip_digest(&spec, 12);
            assert_eq!(
                uninterrupted, resumed,
                "{method} ({execution:?}): checkpoint/restore changed the trace"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpointing at a *random* point of the stream — any event boundary,
    /// including before the first round and after the run finished — and
    /// restoring must reproduce the uninterrupted trace bit-exactly.
    #[test]
    fn checkpoint_at_any_event_boundary_restores_identically(
        cut in 0usize..80,
        family in 0usize..2,
        mode in 0usize..2,
        seed in 0u64..3,
    ) {
        // Two families with qualitatively different state (stateless-global
        // width vs per-client-state FedProto); the exhaustive family sweep
        // is covered by the non-property test above.
        let method = [MhflMethod::SHeteroFl, MhflMethod::FedProto][family];
        let spec = spec(method, MODES[mode], 100 + seed);
        let (uninterrupted, resumed) = checkpoint_roundtrip_digest(&spec, cut);
        prop_assert_eq!(uninterrupted, resumed);
    }
}

#[test]
fn checkpoints_are_canonical_and_resume_from_finished_runs() {
    let spec = spec(MhflMethod::SHeteroFl, Execution::async_buffered(2), 7);
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
    for _ in 0..10 {
        session.next_event().unwrap();
    }
    // Two checkpoints of the same state render identically (the arrival
    // heap is stored in canonical pop order, not heap order).
    let a = session.checkpoint().unwrap();
    let b = session.checkpoint().unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.completed_rounds() <= 4);
    assert_eq!(a.algorithm_name(), "SHeteroFL");

    // Drain to completion, checkpoint the finished session: restoring it
    // yields the same final report without re-running anything.
    let final_report = {
        let mut events = 0;
        while session.next_event().unwrap().is_some() {
            events += 1;
            assert!(events < 10_000);
        }
        session.report().clone()
    };
    let done = session.checkpoint().unwrap();
    let mut resumed_alg = build_algorithm(spec.method);
    let resumed = Session::restore(resumed_alg.as_mut(), &ctx, &done).unwrap();
    assert!(resumed.is_finished());
    let resumed_report = resumed.drain().unwrap();
    assert_eq!(final_report.digest(), resumed_report.digest());
}

#[test]
fn restore_rejects_mismatched_algorithm_and_context() {
    let spec = spec(MhflMethod::SHeteroFl, Execution::Synchronous, 3);
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
    session.next_event().unwrap();
    let checkpoint = session.checkpoint().unwrap();
    let path =
        std::env::temp_dir().join(format!("mhfl_session_mismatch_{}.ckpt", std::process::id()));
    session.save(&path).unwrap();
    drop(session);

    // Wrong algorithm.
    let mut wrong = build_algorithm(MhflMethod::FedProto);
    assert!(Session::restore(wrong.as_mut(), &ctx, &checkpoint).is_err());

    // Wrong population size.
    let small_ctx = spec.with_num_clients(3).build_context().unwrap();
    let mut same = build_algorithm(MhflMethod::SHeteroFl);
    assert!(Session::restore(same.as_mut(), &small_ctx, &checkpoint).is_err());

    // Resuming a spec validates the file's engine configuration too.
    let mut ok = build_algorithm(MhflMethod::SHeteroFl);
    assert!(spec
        .with_execution(Execution::async_buffered(3))
        .resume_from(ok.as_mut(), &ctx, &path)
        .is_err());
    // ... and accepts the matching one.
    let resumed = spec.resume_from(ok.as_mut(), &ctx, &path).unwrap();
    assert!(resumed.drain().is_ok());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn max_staleness_drops_surface_as_events_and_counters() {
    // Heterogeneous costs (memory-tiered devices) + a small buffer provably
    // produce staleness; a zero bound turns every stale arrival into an
    // UpdateDropped event.
    let spec = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(7)
    .with_execution(Execution::async_buffered(2))
    .with_max_staleness(Some(0));
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
    session.observe(Box::new(EventCounter::new()));
    let mut dropped_events = 0usize;
    let mut report = None;
    while let Some(event) = session.next_event().unwrap() {
        match event {
            RoundEvent::UpdateDropped { staleness, .. } => {
                assert!(staleness > 0);
                dropped_events += 1;
            }
            RoundEvent::RunCompleted { report: r } => report = Some(r),
            _ => {}
        }
    }
    let report = report.expect("run completed");
    assert_eq!(report.dropped_updates(), dropped_events);
    assert!(dropped_events > 0, "this seed must observe staleness");
    assert!(report.client_stats().all(|s| s.staleness == 0));
}
