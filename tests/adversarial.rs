//! Integration tests of the failure-mode scenario suite: byzantine update
//! corruption + robust aggregation, mid-round client churn, label drift,
//! and trace-replay scheduling.
//!
//! The headline property pinned here: with every scenario knob at its
//! default, the event stream and report are bit-identical to a build that
//! never heard of the knobs (the golden digests of `tests/golden.rs` enforce
//! the same thing against committed fixtures).

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{
    Corruption, CsvTelemetry, Drift, EventCounter, Execution, ExperimentSpec, MetricsReport,
    RobustAggregation, RoundEvent, RunScale, TraceReplay,
};

const MODES: [Execution; 2] = [
    Execution::Synchronous,
    Execution::AsyncBuffered {
        buffer_size: 2,
        concurrency: 0,
    },
];

fn spec(execution: Execution, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::COMPUTATION,
    )
    .with_scale(RunScale::Quick)
    .with_seed(seed)
    .with_execution(execution)
}

/// Runs the spec, counting events, and returns (report, counter).
fn run_counted(spec: &ExperimentSpec) -> (MetricsReport, EventCounter) {
    let ctx = spec.build_context().expect("context builds");
    let mut algorithm = build_algorithm(spec.method);
    let mut counter = EventCounter::new();
    let mut session = spec.open(algorithm.as_mut(), &ctx).expect("session opens");
    session.observe(Box::new(&mut counter));
    let mut report = None;
    while let Some(event) = session.next_event().expect("session advances") {
        if let RoundEvent::RunCompleted { report: r } = event {
            report = Some(r);
        }
    }
    drop(session);
    (report.expect("stream ends with RunCompleted"), counter)
}

#[test]
fn inert_knob_settings_are_bit_identical_to_a_clean_run() {
    for execution in MODES {
        let clean = spec(execution, 17).run().unwrap().report;
        // Explicitly-set but observably-inert knobs: a zero byzantine
        // fraction, zero churn, no drift, plain aggregation.
        let knobbed = spec(execution, 17)
            .with_corruption(Corruption::SignFlip { fraction: 0.0 })
            .with_churn(0.0)
            .with_drift(Drift::None)
            .with_robust_aggregation(RobustAggregation::None)
            .run()
            .unwrap()
            .report;
        assert_eq!(
            clean.digest(),
            knobbed.digest(),
            "{execution:?}: inert knobs must not perturb the run"
        );
    }
}

#[test]
fn corruption_perturbs_the_run_deterministically() {
    for execution in MODES {
        let clean = spec(execution, 17).run().unwrap().report;
        let attacked = spec(execution, 17).with_corruption(Corruption::SignFlip { fraction: 0.6 });
        let (a, _) = run_counted(&attacked);
        let (b, _) = run_counted(&attacked);
        assert_eq!(a.digest(), b.digest(), "{execution:?}: attack is seeded");
        assert_ne!(
            clean.digest(),
            a.digest(),
            "{execution:?}: a 60% sign-flip attack must change the run"
        );
    }
}

#[test]
fn robust_aggregation_changes_aggregation_only_when_enabled() {
    for execution in MODES {
        let clean = spec(execution, 17).run().unwrap().report;
        let median =
            spec(execution, 17).with_robust_aggregation(RobustAggregation::CoordinateMedian);
        let (a, _) = run_counted(&median);
        let (b, _) = run_counted(&median);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(
            clean.digest(),
            a.digest(),
            "{execution:?}: the coordinate median is a different aggregate"
        );
    }
}

#[test]
fn churn_emits_events_and_rounds_still_close() {
    for execution in MODES {
        let churny = spec(execution, 17).with_churn(0.4);
        let (report, counter) = run_counted(&churny);
        assert!(
            counter.churned > 0,
            "{execution:?}: a 40% churn rate must lose some dispatches"
        );
        // Every round still aggregated and completed: churned slots shrink
        // the synchronous flush threshold / are refilled asynchronously
        // instead of stalling the run.
        assert_eq!(counter.aggregated, 4, "{execution:?}");
        assert_eq!(counter.rounds_completed, 4, "{execution:?}");
        assert_eq!(counter.runs_completed, 1, "{execution:?}");
        assert!(!report.records.is_empty());
        if execution == Execution::Synchronous {
            // Synchronously every dispatch either arrives or churns.
            assert_eq!(counter.dispatched, counter.arrived + counter.churned);
        }
        // Determinism: the churn draw is keyed on the dispatch sequence.
        let (again, counter_again) = run_counted(&churny);
        assert_eq!(report.digest(), again.digest());
        assert_eq!(counter.churned, counter_again.churned);
    }
}

#[test]
fn drift_is_inert_in_epoch_zero_and_active_afterwards() {
    for execution in MODES {
        let clean = spec(execution, 17).run().unwrap().report;
        // Quick scale runs 4 rounds; a 100-round period keeps the whole run
        // in epoch 0, which is defined as identity.
        let epoch_zero = spec(execution, 17)
            .with_drift(Drift::LabelShift { period_rounds: 100 })
            .run()
            .unwrap()
            .report;
        assert_eq!(clean.digest(), epoch_zero.digest(), "{execution:?}");
        let drifting = spec(execution, 17).with_drift(Drift::LabelShift { period_rounds: 1 });
        let a = drifting.run().unwrap().report;
        let b = drifting.run().unwrap().report;
        assert_eq!(a.digest(), b.digest(), "{execution:?}: drift is seeded");
        assert_ne!(
            clean.digest(),
            a.digest(),
            "{execution:?}: per-round label rotation must change the run"
        );
    }
}

#[test]
fn trace_replay_closes_the_telemetry_loop() {
    // Record a run's update telemetry, replay its availability windows as
    // the scheduling policy of a second run.
    let recorded_spec = spec(Execution::async_buffered(2), 17);
    let ctx = recorded_spec.build_context().unwrap();
    let mut algorithm = build_algorithm(recorded_spec.method);
    let mut csv = CsvTelemetry::new();
    let mut session = recorded_spec
        .engine()
        .session(algorithm.as_mut(), &ctx)
        .unwrap();
    session.observe(Box::new(&mut csv));
    while session.next_event().unwrap().is_some() {}
    drop(session);
    let trace_csv = csv.updates_csv();
    assert!(csv.num_update_rows() > 0);

    let replay = || {
        let trace = TraceReplay::from_csv(&trace_csv)
            .unwrap()
            .with_slot_secs(5.0);
        let mut algorithm = build_algorithm(recorded_spec.method);
        let mut session = recorded_spec
            .engine()
            .session(algorithm.as_mut(), &ctx)
            .unwrap();
        session.set_scheduler(Box::new(trace));
        let mut counter = EventCounter::new();
        session.observe(Box::new(&mut counter));
        let mut report = None;
        while let Some(event) = session.next_event().unwrap() {
            if let RoundEvent::RunCompleted { report: r } = event {
                report = Some(r);
            }
        }
        drop(session);
        (report.expect("replay completes"), counter)
    };
    let (report, counter) = replay();
    assert_eq!(counter.runs_completed, 1);
    assert_eq!(
        report.records.len(),
        4,
        "replayed run still covers 4 rounds"
    );
    assert!(counter.arrived > 0);
    let (again, _) = replay();
    assert_eq!(report.digest(), again.digest(), "replay is deterministic");
}
