//! Per-client telemetry invariants, property-tested across seeds.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{Execution, ExperimentSpec, MetricsReport, Parallelism, RunScale};
use proptest::prelude::*;

fn quick(seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(seed)
}

/// Invariants every report's telemetry must satisfy, regardless of
/// execution mode.
fn assert_telemetry_consistent(report: &MetricsReport) {
    let mut previous_round = 0usize;
    for record in &report.records {
        for stat in &record.client_stats {
            assert!(
                stat.round > previous_round && stat.round <= record.round,
                "stat round {} outside ({previous_round}, {}]",
                stat.round,
                record.round
            );
            assert!(stat.arrival_secs >= stat.dispatch_secs);
            assert!(stat.arrival_secs <= record.sim_time_secs + 1e-9);
            assert!(stat.payload_bytes > 0, "real uploads have nonzero size");
        }
        previous_round = record.round;
    }
    // The aggregate accessors are exactly the sums of the per-client stats.
    let stats: Vec<_> = report.client_stats().collect();
    let byte_sum: u64 = stats.iter().map(|s| s.payload_bytes).sum();
    assert_eq!(report.total_payload_bytes(), byte_sum);
    if !stats.is_empty() {
        let staleness_sum: usize = stats.iter().map(|s| s.staleness).sum();
        let expected = staleness_sum as f64 / stats.len() as f64;
        assert!((report.mean_staleness() - expected).abs() < 1e-12);
        let utilisation = report.utilisation();
        assert!(
            utilisation > 0.0 && utilisation <= 1.0 + 1e-9,
            "utilisation {utilisation} out of range"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Synchronous mode: per-client stats sum to round totals — every round
    /// between evaluation points contributes exactly the selected client
    /// count, dispatched at the round start with zero staleness.
    #[test]
    fn sync_stats_sum_to_round_totals(seed in 0u64..1000) {
        let outcome = quick(seed).run().unwrap();
        let report = &outcome.report;
        assert_telemetry_consistent(report);
        // Quick scale: 6 clients at 50% participation = 3 updates per round,
        // under the uniform scheduler (nothing is ever dropped).
        let mut previous_round = 0usize;
        for record in &report.records {
            let rounds_covered = record.round - previous_round;
            assert_eq!(record.client_stats.len(), 3 * rounds_covered);
            for stat in &record.client_stats {
                assert_eq!(stat.staleness, 0, "synchronous rounds are never stale");
            }
            // Each covered round contributes exactly per_round stats.
            for round in previous_round + 1..=record.round {
                let in_round = record
                    .client_stats
                    .iter()
                    .filter(|s| s.round == round)
                    .count();
                assert_eq!(in_round, 3);
            }
            previous_round = record.round;
        }
        assert_eq!(report.mean_staleness(), 0.0);
    }

    /// Synchronous telemetry is bit-identical whether the client phase ran
    /// sequentially or on a thread pool.
    #[test]
    fn sync_telemetry_identical_threads_vs_sequential(seed in 0u64..1000) {
        let spec = quick(seed);
        let ctx = spec.build_context().unwrap();
        let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
        let mut session = spec.open(algorithm.as_mut(), &ctx).unwrap();
        session.set_parallelism(Parallelism::Threads { workers: 4 });
        assert_eq!(spec.run().unwrap().report, session.drain().unwrap());
    }

    /// Asynchronous telemetry satisfies the same structural invariants.
    #[test]
    fn async_stats_are_consistent(seed in 0u64..1000) {
        let outcome = quick(seed)
            .with_execution(Execution::async_buffered(2))
            .run()
            .unwrap();
        assert_telemetry_consistent(&outcome.report);
    }
}

/// Participation counts cover exactly the aggregated updates, and their Jain
/// fairness index over the population lies in `(0, 1]`.
#[test]
fn participation_counts_track_selection_bias() {
    let uniform = quick(11).run().unwrap().report;
    let total_updates: usize = uniform.participation_counts().iter().map(|&(_, c)| c).sum();
    assert_eq!(
        total_updates,
        uniform.client_stats().count(),
        "every aggregated update must be counted exactly once"
    );
    assert!(uniform
        .participation_counts()
        .iter()
        .all(|&(client, count)| client < 6 && count > 0));
    let fairness = uniform.participation_fairness(6);
    assert!(fairness > 0.0 && fairness <= 1.0);
}
