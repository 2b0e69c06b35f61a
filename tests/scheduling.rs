//! End-to-end tests of the client/server phase split: availability-gated
//! scheduling and parallel client execution through the full platform API.

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{ClientScheduler, FlResult, Schedule};
use mhfl_models::MhflMethod;
use mhfl_tensor::SeededRng;
use pracmhbench_core::{
    ExperimentOutcome, ExperimentSpec, MetricsReport, Parallelism, RunScale, TraceReplay,
};

fn quick(method: MhflMethod) -> ExperimentSpec {
    ExperimentSpec::new(DataTask::UciHar, method, ConstraintCase::Memory)
        .with_scale(RunScale::Quick)
        .with_seed(11)
}

/// Runs `spec` with its client phase on a pool of `workers` threads.
fn run_threaded(spec: &ExperimentSpec, workers: usize) -> FlResult<ExperimentOutcome> {
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx)?;
    session.set_parallelism(Parallelism::Threads { workers });
    Ok(spec.outcome(session.drain()?))
}

/// Runs `spec` with `trace` replayed as its scheduler.
fn replayed(spec: &ExperimentSpec, trace: TraceReplay) -> MetricsReport {
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx).unwrap();
    session.set_scheduler(Box::new(trace));
    session.drain().unwrap()
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
        let threaded = run_threaded(&quick(method), 4).unwrap();
        assert_eq!(
            sequential.report, threaded.report,
            "{method} report diverged across execution modes"
        );
        assert_eq!(sequential.summary, threaded.summary);
    }
}

#[test]
fn availability_trace_completes_with_partial_population() {
    // Only clients 0 and 1 are ever reachable.
    let trace = TraceReplay::from_csv("1,0,0.0,1000000.0\n1,1,0.0,1000000.0\n").unwrap();
    let report = replayed(&quick(MhflMethod::Fjord), trace);
    assert!((0.0..=1.0).contains(&report.final_accuracy()));
    assert_eq!(report.records.len(), 4);
    // Offline clients shrink every round below the nominal participation
    // count (quick scale selects 3 of 6 clients) to the two online ones.
    for record in &report.records {
        let mut clients: Vec<usize> = record.client_stats.iter().map(|s| s.client).collect();
        clients.sort_unstable();
        assert_eq!(clients, [0, 1], "round {}", record.round);
    }
}

#[test]
fn zero_availability_rounds_still_advance_the_clock() {
    let empty = TraceReplay::from_csv("").unwrap().with_slot_secs(120.0);
    let report = replayed(&quick(MhflMethod::SHeteroFl), empty);
    // Every round was empty: no telemetry, no aggregated clients — but each
    // round was still evaluated, and the simulated clock waited out one
    // slot per round.
    assert_eq!(report.client_stats().count(), 0);
    assert_eq!(report.records.len(), 4);
    for record in &report.records {
        assert_eq!(record.sim_time_secs, record.round as f64 * 120.0);
    }
}

#[test]
fn new_policies_handle_per_round_beyond_population() {
    // Ask the schedulers, through the platform context, for more clients
    // than exist: selections must clamp to the population.
    let ctx = quick(MhflMethod::SHeteroFl).build_context().unwrap();
    let n = ctx.num_clients();
    let everyone: String = (0..n).map(|c| format!("1,{c},0.0,1000.0\n")).collect();
    let schedulers: [Box<dyn ClientScheduler>; 2] = [
        Schedule::Uniform.build(),
        Box::new(TraceReplay::from_csv(&everyone).unwrap()),
    ];
    let mut rng = SeededRng::new(2);
    for scheduler in schedulers {
        let plan = scheduler.plan_round(1, n * 10, 0.0, &ctx, &mut rng);
        assert_eq!(
            plan.clients,
            (0..n).collect::<Vec<_>>(),
            "{}",
            scheduler.name()
        );
    }
}

#[test]
fn schedules_flow_through_comparison_runs() {
    let outcomes = quick(MhflMethod::SHeteroFl)
        .run_comparison(&[MhflMethod::SHeteroFl], |spec| run_threaded(spec, 3))
        .unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes[0].summary.effectiveness.is_some());
}
