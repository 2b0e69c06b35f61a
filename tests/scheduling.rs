//! End-to-end tests of the client/server phase split: pluggable schedulers
//! and parallel client execution through the full platform API.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::Schedule as FlSchedule;
use mhfl_models::MhflMethod;
use mhfl_tensor::SeededRng;
use pracmhbench_core::{ExperimentSpec, Parallelism, RunScale, Schedule};

fn quick(method: MhflMethod) -> ExperimentSpec {
    ExperimentSpec::new(DataTask::UciHar, method, ConstraintCase::Memory)
        .with_scale(RunScale::Quick)
        .with_seed(11)
}

#[test]
fn threaded_runs_match_sequential_for_every_payload_family() {
    // One method per upload family: sub-models (SHeteroFL), prototypes
    // (FedProto), public-set logits (Fed-ET). The stateful topology methods
    // are the interesting cases: their client phase reads persistent
    // per-client state that the server phase wrote in earlier rounds.
    for method in [
        MhflMethod::SHeteroFl,
        MhflMethod::FedProto,
        MhflMethod::FedEt,
    ] {
        let sequential = quick(method).run().unwrap();
        let threaded = quick(method)
            .with_parallelism(Parallelism::Threads { workers: 4 })
            .run()
            .unwrap();
        assert_eq!(
            sequential.report, threaded.report,
            "{method} report diverged across execution modes"
        );
        assert_eq!(sequential.summary, threaded.summary);
    }
}

#[test]
fn deadline_schedule_bounds_every_round() {
    let deadline = 400.0;
    let outcome = quick(MhflMethod::FeDepth)
        .with_schedule(Schedule::DeadlineAware {
            deadline_secs: deadline,
        })
        .run()
        .unwrap();
    assert!((0.0..=1.0).contains(&outcome.summary.global_accuracy));
    // A deadline round can never exceed the deadline on the simulated clock,
    // whether clients were dropped (round = deadline) or all finished early.
    let rounds = outcome.report.records.last().unwrap().round as f64;
    assert!(outcome.summary.total_time_secs <= rounds * deadline + 1e-9);
}

#[test]
fn fastest_of_k_never_slows_the_clock() {
    // At quick scale fastest-of-3k covers the whole population, so each
    // round is exactly the fastest feasible synchronous round; uniform
    // sampling can only match or exceed it.
    let uniform = quick(MhflMethod::Fjord).run().unwrap();
    let fastest = quick(MhflMethod::Fjord)
        .with_schedule(Schedule::FastestOfK { factor: 3 })
        .run()
        .unwrap();
    assert!(
        fastest.summary.total_time_secs <= uniform.summary.total_time_secs + 1e-9,
        "fastest-of-k {}s vs uniform {}s",
        fastest.summary.total_time_secs,
        uniform.summary.total_time_secs
    );
}

#[test]
fn bandwidth_aware_never_raises_communication_time() {
    // Bandwidth-aware selection minimises upload seconds; over a full run
    // the total uploaded bytes can only be helped, never hurt, relative to
    // uniform sampling of the same population under the same seed budget.
    let uniform = quick(MhflMethod::SHeteroFl).run().unwrap();
    let bandwidth = quick(MhflMethod::SHeteroFl)
        .with_schedule(Schedule::BandwidthAware { factor: 3 })
        .run()
        .unwrap();
    assert!((0.0..=1.0).contains(&bandwidth.summary.global_accuracy));
    assert!(bandwidth.report.total_payload_bytes() > 0);
    // Same number of aggregated updates, selected for cheaper uploads.
    assert_eq!(
        uniform.report.client_stats().count(),
        bandwidth.report.client_stats().count()
    );
}

#[test]
fn availability_trace_completes_with_partial_population() {
    let outcome = quick(MhflMethod::Fjord)
        .with_schedule(Schedule::AvailabilityTrace {
            period_secs: 300.0,
            online_fraction: 0.7,
        })
        .run()
        .unwrap();
    assert!((0.0..=1.0).contains(&outcome.summary.global_accuracy));
    assert!(!outcome.report.records.is_empty());
    // Offline slots can shrink rounds below the nominal participation count
    // but never above it (quick scale selects 3 of 6 clients).
    let mut previous_round = 0;
    for record in &outcome.report.records {
        for round in previous_round + 1..=record.round {
            let in_round = record
                .client_stats
                .iter()
                .filter(|s| s.round == round)
                .count();
            assert!(in_round <= 3, "round {round} selected {in_round} clients");
        }
        previous_round = record.round;
    }
}

#[test]
fn zero_availability_rounds_still_advance_the_clock() {
    let outcome = quick(MhflMethod::SHeteroFl)
        .with_schedule(Schedule::AvailabilityTrace {
            period_secs: 120.0,
            online_fraction: 0.0,
        })
        .run()
        .unwrap();
    // Every round was empty: no telemetry, no aggregated clients — but the
    // simulated clock waited out one trace slot per round.
    assert_eq!(outcome.report.client_stats().count(), 0);
    let rounds = outcome.report.records.last().unwrap().round as f64;
    assert!((outcome.summary.total_time_secs - rounds * 120.0).abs() < 1e-6);
}

#[test]
fn diurnal_trace_is_deterministic_in_both_execution_modes() {
    let diurnal = Schedule::DiurnalTrace {
        day_secs: 2000.0,
        slot_secs: 100.0,
        peak_online: 1.0,
        trough_online: 0.2,
    };
    for execution in [
        pracmhbench_core::Execution::Synchronous,
        pracmhbench_core::Execution::async_buffered(2),
    ] {
        let spec = quick(MhflMethod::SHeteroFl)
            .with_schedule(diurnal)
            .with_execution(execution);
        let first = spec.run().unwrap();
        let second = spec.run().unwrap();
        assert_eq!(
            first.report, second.report,
            "diurnal-trace runs must be byte-identical per seed ({execution:?})"
        );
        assert!(!first.report.records.is_empty());
        assert!((0.0..=1.0).contains(&first.summary.global_accuracy));
        // The trace gates selection but still lets the federation progress.
        assert!(first.report.client_stats().count() > 0);
    }
}

#[test]
fn diurnal_trace_availability_is_a_pure_function_of_time_and_client() {
    // Through a platform-built context: the scheduler's availability answer
    // must not depend on call order or on planning history.
    let ctx = quick(MhflMethod::SHeteroFl).build_context().unwrap();
    let scheduler = FlSchedule::DiurnalTrace {
        day_secs: 1500.0,
        slot_secs: 75.0,
        peak_online: 0.9,
        trough_online: 0.1,
    }
    .build();
    let probe: Vec<(usize, f64)> = (0..ctx.num_clients())
        .flat_map(|c| [(c, 10.0), (c, 800.0), (c, 1400.0)])
        .collect();
    let forward: Vec<bool> = probe
        .iter()
        .map(|&(c, t)| scheduler.is_available(c, t, &ctx))
        .collect();
    // Interleave some planning, then re-probe in reverse order.
    let mut rng = SeededRng::new(13);
    for round in 1..=5 {
        scheduler.plan_round(round, 3, round as f64 * 120.0, &ctx, &mut rng);
    }
    let backward: Vec<bool> = probe
        .iter()
        .rev()
        .map(|&(c, t)| scheduler.is_available(c, t, &ctx))
        .collect();
    let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
    assert_eq!(forward, backward_reversed);
}

#[test]
fn new_policies_handle_per_round_beyond_population() {
    // Ask the schedulers, through the platform context, for more clients
    // than exist: selections must clamp to the population.
    let ctx = quick(MhflMethod::SHeteroFl).build_context().unwrap();
    let n = ctx.num_clients();
    let mut rng = SeededRng::new(2);
    for schedule in [
        FlSchedule::BandwidthAware { factor: 2 },
        FlSchedule::AvailabilityTrace {
            period_secs: 100.0,
            online_fraction: 1.0,
        },
        FlSchedule::DiurnalTrace {
            day_secs: 1000.0,
            slot_secs: 50.0,
            peak_online: 1.0,
            trough_online: 1.0,
        },
    ] {
        let scheduler = schedule.build();
        let plan = scheduler.plan_round(1, n * 10, 0.0, &ctx, &mut rng);
        assert!(plan.clients.len() <= n);
        assert!(plan.clients.iter().all(|&c| c < n));
        let mut sorted = plan.clients.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), plan.clients.len(), "no duplicate clients");
    }
}

#[test]
fn schedules_flow_through_comparison_runs() {
    let outcomes = quick(MhflMethod::SHeteroFl)
        .with_schedule(Schedule::FastestOfK { factor: 2 })
        .with_parallelism(Parallelism::Threads { workers: 3 })
        .run_comparison(&[MhflMethod::SHeteroFl], ExperimentSpec::run)
        .unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes[0].summary.effectiveness.is_some());
}
