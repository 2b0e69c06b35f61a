//! Integration tests of the FedBuff-style asynchronous buffered engine.

use mhfl_data::{DataTask, Dataset};
use mhfl_device::ConstraintCase;
use mhfl_fl::{
    staleness_weight, ClientPayload, ClientScheduler, ClientUpdate, EngineConfig, Execution,
    FederationContext, FlAlgorithm, FlEngine, FlResult, MetricsReport, Parallelism, Staleness,
    TraceReplay,
};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};

/// Records every aggregate call so buffer behaviour is observable.
#[derive(Default)]
struct RecordingAlgorithm {
    batches: Vec<Vec<ClientUpdate>>,
}

impl FlAlgorithm for RecordingAlgorithm {
    fn name(&self) -> String {
        "Recording".into()
    }
    fn setup(&mut self, _ctx: &FederationContext) -> FlResult<()> {
        Ok(())
    }
    fn client_update(
        &self,
        _round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate> {
        Ok(ClientUpdate::new(
            client,
            ctx.client_shard(client).len(),
            ClientPayload::Empty,
        ))
    }
    fn aggregate(
        &mut self,
        _round: usize,
        updates: Vec<ClientUpdate>,
        _ctx: &FederationContext,
    ) -> FlResult<()> {
        self.batches.push(updates);
        Ok(())
    }
    fn evaluate_global(&mut self, _data: &Dataset) -> FlResult<f32> {
        Ok(0.1 * self.batches.len() as f32)
    }
    fn evaluate_client(&mut self, client: usize, _data: &Dataset) -> FlResult<f32> {
        Ok(0.01 * client as f32)
    }
}

/// A heterogeneous-cost federation (memory-tiered devices give visibly
/// different per-round durations, which is what creates staleness).
fn context(num_clients: usize, seed: u64) -> FederationContext {
    ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_num_clients(num_clients)
    .with_seed(seed)
    .build_context()
    .unwrap()
}

/// Runs `config` over `ctx` with `trace` replayed as the scheduler.
fn run_replayed(
    config: EngineConfig,
    ctx: &FederationContext,
    trace: TraceReplay,
) -> (MetricsReport, RecordingAlgorithm) {
    let mut alg = RecordingAlgorithm::default();
    let mut session = FlEngine::new(config).session(&mut alg, ctx).unwrap();
    session.set_scheduler(Box::new(trace));
    let report = session.drain().unwrap();
    (report, alg)
}

fn async_config(rounds: usize, buffer_size: usize) -> EngineConfig {
    EngineConfig {
        rounds,
        sample_ratio: 0.5,
        eval_every: 2,
        stability_clients: 3,
        execution: Execution::AsyncBuffered {
            buffer_size,
            concurrency: 0,
        },
        ..EngineConfig::default()
    }
}

#[test]
fn buffer_size_is_respected_exactly() {
    let ctx = context(10, 4);
    for buffer_size in [1, 2, 4] {
        let engine = FlEngine::new(async_config(6, buffer_size));
        let mut alg = RecordingAlgorithm::default();
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert_eq!(alg.batches.len(), 6, "one aggregation per round");
        for batch in &alg.batches {
            assert_eq!(
                batch.len(),
                buffer_size,
                "every aggregation drains exactly one full buffer"
            );
        }
        // Telemetry covers exactly the aggregated updates.
        assert_eq!(
            report.client_stats().count(),
            6 * buffer_size,
            "one stat per aggregated update"
        );
        assert_eq!(report.records.last().unwrap().round, 6);
    }
}

#[test]
fn staleness_is_recorded_and_discounts_weights() {
    let ctx = context(12, 7);
    let engine = FlEngine::new(async_config(10, 2));
    let mut alg = RecordingAlgorithm::default();
    let report = engine.run(&mut alg, &ctx).unwrap();

    // The staleness discount function is monotone decreasing from 1.
    let weights: Vec<f32> = (0..16).map(staleness_weight).collect();
    assert_eq!(weights[0], 1.0);
    assert!(weights.windows(2).all(|w| w[1] < w[0]));

    // With heterogeneous device costs and a small buffer, slow clients must
    // watch aggregations complete while in flight.
    assert!(
        report.mean_staleness() > 0.0,
        "heterogeneous async run should observe staleness"
    );
    // Every aggregated update carries the weight its staleness implies.
    let stats: Vec<_> = report.client_stats().collect();
    let mut stat_cursor = 0;
    for batch in &alg.batches {
        for update in batch {
            let stat = stats[stat_cursor];
            stat_cursor += 1;
            assert_eq!(stat.client, update.client);
            assert_eq!(update.staleness_weight, staleness_weight(stat.staleness));
            assert!(stat.arrival_secs >= stat.dispatch_secs);
        }
    }
}

#[test]
fn arrivals_drive_an_increasing_clock() {
    let ctx = context(8, 1);
    let engine = FlEngine::new(async_config(8, 2));
    let mut alg = RecordingAlgorithm::default();
    let report = engine.run(&mut alg, &ctx).unwrap();
    let times: Vec<f64> = report.records.iter().map(|r| r.sim_time_secs).collect();
    assert!(times[0] > 0.0);
    assert!(times.windows(2).all(|w| w[1] >= w[0]));
    // The async clock is event-driven: the run must finish faster than the
    // equivalent fully synchronous schedule that waits for stragglers at
    // every aggregation.
    assert!(report.utilisation() > 0.0 && report.utilisation() <= 1.0 + 1e-9);
}

#[test]
fn empty_availability_terminates_without_panicking() {
    let ctx = context(6, 3);
    let empty = TraceReplay::from_csv("").unwrap().with_slot_secs(50.0);
    let (report, alg) = run_replayed(async_config(4, 2), &ctx, empty);
    // Nobody was ever dispatchable: no aggregations, no records, no panic.
    assert!(alg.batches.is_empty());
    assert!(report.records.is_empty());
}

#[test]
fn intermittent_availability_still_makes_progress() {
    let ctx = context(10, 9);
    // Even clients are reachable for the first half of every 1 000 s, odd
    // clients for the second half.
    let csv: String = (0..10)
        .map(|c| {
            let start = if c % 2 == 0 { 0.0 } else { 500.0 };
            format!("1,{c},{start},{}\n", start + 500.0)
        })
        .collect();
    let trace = TraceReplay::from_csv(&csv).unwrap().with_slot_secs(25.0);
    let (report, alg) = run_replayed(async_config(5, 2), &ctx, trace.clone());
    assert_eq!(alg.batches.len(), 5);
    assert!(report.total_sim_time_secs() > 0.0);
    // Every aggregated update was dispatched while its client was online.
    for stat in report.client_stats() {
        assert!(trace.is_available(stat.client, stat.dispatch_secs, &ctx));
    }
}

#[test]
fn async_runs_are_deterministic_across_repeats_and_parallelism() {
    let ctx = context(10, 11);
    let base = async_config(6, 3);
    let run = |config: EngineConfig| {
        let mut alg = RecordingAlgorithm::default();
        FlEngine::new(config).run(&mut alg, &ctx).unwrap()
    };
    let first = run(base);
    let second = run(base);
    assert_eq!(first, second, "same seed must reproduce the async report");
    let threaded = run(EngineConfig {
        parallelism: Parallelism::Threads { workers: 4 },
        ..base
    });
    assert_eq!(first, threaded, "parallelism must not change async results");
}

#[test]
fn real_algorithms_run_async_end_to_end() {
    // One method per payload family, through the full platform API.
    for method in [
        MhflMethod::SHeteroFl,
        MhflMethod::FedProto,
        MhflMethod::FedEt,
    ] {
        let spec = ExperimentSpec::new(DataTask::UciHar, method, ConstraintCase::Memory)
            .with_scale(RunScale::Quick)
            .with_seed(5)
            .with_execution(Execution::async_buffered(2));
        let outcome = spec.run().unwrap();
        assert!(
            (0.0..=1.0).contains(&outcome.summary.global_accuracy),
            "{method} async accuracy out of range"
        );
        assert!(!outcome.report.records.is_empty());
        assert!(outcome.report.total_payload_bytes() > 0);
        // Byte-identical determinism through the spec API as well.
        let again = spec.run().unwrap();
        assert_eq!(outcome.report, again.report, "{method} async run diverged");
    }
}

#[test]
fn staleness_curve_is_configurable_on_the_engine() {
    let ctx = context(12, 7);
    let config = EngineConfig {
        staleness: Staleness::Sqrt,
        ..async_config(10, 2)
    };
    let run = || {
        let mut alg = RecordingAlgorithm::default();
        let report = FlEngine::new(config).run(&mut alg, &ctx).unwrap();
        let weights: Vec<f32> = alg
            .batches
            .iter()
            .flatten()
            .map(|u| u.staleness_weight)
            .collect();
        (report, weights)
    };

    // Every update's weight follows the configured curve exactly, and the
    // curve discounts the stale updates this run provably has.
    let (report, weights) = run();
    let stats: Vec<_> = report.client_stats().collect();
    assert_eq!(weights.len(), stats.len());
    for (weight, stat) in weights.iter().zip(&stats) {
        assert_eq!(*weight, Staleness::Sqrt.weight(stat.staleness));
    }
    assert!(weights.iter().any(|&w| w < 1.0));
    assert!(report.mean_staleness() > 0.0);

    // And the engine reproduces the curve deterministically.
    assert_eq!(report, run().0);
}

#[test]
fn max_staleness_zero_drops_every_stale_update() {
    let ctx = context(12, 7);
    let base = async_config(10, 2);

    // This configuration provably produces staleness when unbounded.
    let mut unbounded_alg = RecordingAlgorithm::default();
    let unbounded = FlEngine::new(base).run(&mut unbounded_alg, &ctx).unwrap();
    assert!(unbounded.mean_staleness() > 0.0);
    assert_eq!(unbounded.dropped_updates(), 0, "no bound, no drops");

    // With a bound of zero, only perfectly fresh updates reach aggregation.
    let mut alg = RecordingAlgorithm::default();
    let report = FlEngine::new(EngineConfig {
        max_staleness: Some(0),
        ..base
    })
    .run(&mut alg, &ctx)
    .unwrap();
    assert!(
        report.dropped_updates() > 0,
        "stale updates must be dropped"
    );
    assert_eq!(report.mean_staleness(), 0.0);
    assert!(report.client_stats().all(|s| s.staleness == 0));
    for batch in &alg.batches {
        for update in batch {
            assert_eq!(
                update.staleness_weight, 1.0,
                "fresh updates keep full weight"
            );
        }
    }
    // Dropping still fills every buffer: one aggregation per round.
    assert_eq!(alg.batches.len(), 10);
    assert!(alg.batches.iter().all(|b| b.len() == 2));
}

#[test]
fn max_staleness_bound_above_observed_staleness_changes_nothing() {
    let ctx = context(12, 7);
    let base = async_config(8, 2);
    let mut unbounded_alg = RecordingAlgorithm::default();
    let unbounded = FlEngine::new(base).run(&mut unbounded_alg, &ctx).unwrap();
    let mut bounded_alg = RecordingAlgorithm::default();
    let bounded = FlEngine::new(EngineConfig {
        max_staleness: Some(10_000),
        ..base
    })
    .run(&mut bounded_alg, &ctx)
    .unwrap();
    assert_eq!(unbounded.digest(), bounded.digest());
    assert_eq!(bounded.dropped_updates(), 0);
}

#[test]
fn max_staleness_dropping_is_deterministic_and_ignored_by_sync() {
    let ctx = context(10, 3);
    let config = EngineConfig {
        max_staleness: Some(0),
        ..async_config(6, 2)
    };
    let run = |config: EngineConfig| {
        let mut alg = RecordingAlgorithm::default();
        FlEngine::new(config).run(&mut alg, &ctx).unwrap()
    };
    let first = run(config);
    let second = run(config);
    assert_eq!(first, second);
    assert_eq!(first.dropped_updates(), second.dropped_updates());

    // Synchronous updates always have staleness zero: the bound never fires
    // and the report matches the unbounded synchronous run exactly.
    let sync_bounded = run(EngineConfig {
        execution: Execution::Synchronous,
        max_staleness: Some(0),
        ..async_config(6, 2)
    });
    let sync_unbounded = run(EngineConfig {
        execution: Execution::Synchronous,
        ..async_config(6, 2)
    });
    assert_eq!(sync_bounded.digest(), sync_unbounded.digest());
    assert_eq!(sync_bounded.dropped_updates(), 0);
}

#[test]
fn end_of_run_discards_buffered_and_in_flight_updates() {
    // When the aggregation counter reaches `rounds`, the session finishes
    // immediately: arrivals still sitting in the event heap (clients
    // dispatched but not yet arrived) and anything short of a full buffer
    // are discarded, never aggregated and never counted as dropped.
    let ctx = context(10, 6);
    let (rounds, buffer_size) = (5usize, 2usize);
    let engine = FlEngine::new(async_config(rounds, buffer_size));
    let mut alg = RecordingAlgorithm::default();
    let mut counter = mhfl_fl::EventCounter::new();
    let mut session = engine.session(&mut alg, &ctx).unwrap();
    session.observe(Box::new(&mut counter));
    let report = loop {
        match session.next_event().unwrap() {
            Some(mhfl_fl::RoundEvent::RunCompleted { report }) => break report,
            Some(_) => {}
            None => panic!("stream must end with RunCompleted"),
        }
    };
    drop(session);

    // Exactly `rounds` aggregations of exactly `buffer_size` updates each.
    assert_eq!(alg.batches.len(), rounds);
    for batch in &alg.batches {
        assert_eq!(batch.len(), buffer_size);
    }
    // Every arrival the session processed was aggregated: the final flush
    // finishes the run before any further heap entry is drained.
    assert_eq!(counter.arrived, rounds * buffer_size);
    assert_eq!(counter.dropped, 0);
    assert_eq!(report.dropped_updates(), 0);
    // Clients that were still in flight at the end were dispatched but
    // their updates are silently discarded.
    assert!(
        counter.dispatched > counter.arrived,
        "expected in-flight dispatches at the end of the run \
         (dispatched {}, arrived {})",
        counter.dispatched,
        counter.arrived
    );
}

#[test]
fn end_of_run_discard_is_deterministic() {
    // The discard semantics are part of the pinned behaviour: repeated runs
    // see identical aggregation batches and identical reports.
    let ctx = context(10, 6);
    let run = || {
        let mut alg = RecordingAlgorithm::default();
        let report = FlEngine::new(async_config(5, 2))
            .run(&mut alg, &ctx)
            .unwrap();
        let batches: Vec<Vec<usize>> = alg
            .batches
            .iter()
            .map(|batch| batch.iter().map(|u| u.client).collect())
            .collect();
        (report.digest(), batches)
    };
    let (digest_a, batches_a) = run();
    let (digest_b, batches_b) = run();
    assert_eq!(digest_a, digest_b);
    assert_eq!(batches_a, batches_b);
}
