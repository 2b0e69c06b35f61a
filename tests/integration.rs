//! Cross-crate integration tests: every algorithm under every constraint
//! case runs end to end through the platform API and produces sane metrics.

use mhfl_data::{DataTask, Partition};
use mhfl_device::ConstraintCase;
use mhfl_models::{HeterogeneityLevel, MhflMethod};
use pracmhbench_core::{ExperimentSpec, RunScale};

fn quick_spec(task: DataTask, method: MhflMethod, constraint: ConstraintCase) -> ExperimentSpec {
    ExperimentSpec::new(task, method, constraint)
        .with_scale(RunScale::Quick)
        .with_seed(17)
}

#[test]
fn every_method_runs_under_computation_constraint() {
    let constraint = ConstraintCase::COMPUTATION;
    for method in MhflMethod::ALL {
        let outcome = quick_spec(DataTask::UciHar, method, constraint)
            .run()
            .unwrap_or_else(|e| panic!("{method} failed: {e}"));
        let acc = outcome.summary.global_accuracy;
        assert!(
            (0.0..=1.0).contains(&acc),
            "{method} produced accuracy {acc}"
        );
        assert!(outcome.summary.total_time_secs > 0.0);
        assert!(!outcome.report.records.is_empty());
    }
}

#[test]
fn every_constraint_case_runs_for_a_representative_method() {
    let cases = [
        ConstraintCase::COMPUTATION,
        ConstraintCase::COMMUNICATION,
        ConstraintCase::Memory,
        ConstraintCase::MEMORY_PLUS_COMMUNICATION,
        ConstraintCase::ALL_COMBINED,
    ];
    for case in cases {
        let outcome = quick_spec(DataTask::UciHar, MhflMethod::SHeteroFl, case)
            .run()
            .unwrap();
        assert!(
            outcome.summary.global_accuracy >= 0.0,
            "case {} failed",
            case.label()
        );
    }
}

#[test]
fn all_modalities_run_for_one_method_per_level() {
    let constraint = ConstraintCase::COMPUTATION;
    let representatives = [
        MhflMethod::SHeteroFl,
        MhflMethod::DepthFl,
        MhflMethod::FedProto,
    ];
    for task in [DataTask::Cifar10, DataTask::AgNews, DataTask::HarBox] {
        for method in representatives {
            let outcome = quick_spec(task, method, constraint)
                .run()
                .unwrap_or_else(|e| panic!("{method} on {task} failed: {e}"));
            assert!((0.0..=1.0).contains(&outcome.summary.global_accuracy));
        }
    }
}

#[test]
fn heterogeneous_methods_learn_on_a_separable_task() {
    // On the easily-separable HAR task, the representative width and depth
    // methods must clearly beat random guessing within a few quick rounds.
    let constraint = ConstraintCase::COMPUTATION;
    let chance = 1.0 / DataTask::UciHar.num_classes() as f32;
    for method in [MhflMethod::SHeteroFl, MhflMethod::FeDepth] {
        let outcome = quick_spec(DataTask::UciHar, method, constraint)
            .run()
            .unwrap();
        assert!(
            outcome.summary.global_accuracy > chance + 0.1,
            "{method} accuracy {} barely beats chance {chance}",
            outcome.summary.global_accuracy
        );
    }
}

#[test]
fn effectiveness_is_relative_to_homogeneous_baseline() {
    let outcomes = quick_spec(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .run_comparison(
        &[MhflMethod::SHeteroFl, MhflMethod::DepthFl],
        ExperimentSpec::run,
    )
    .unwrap();
    assert_eq!(outcomes.len(), 3);
    let baseline = outcomes.last().unwrap();
    assert_eq!(baseline.method, MhflMethod::HomogeneousSmallest);
    for o in &outcomes[..2] {
        let eff = o
            .summary
            .effectiveness
            .expect("effectiveness filled for heterogeneous methods");
        let expected = o.summary.global_accuracy - baseline.summary.global_accuracy;
        assert!((eff - expected).abs() < 1e-6);
    }
}

#[test]
fn noniid_partitions_flow_through_the_platform() {
    let constraint = ConstraintCase::COMPUTATION;
    for partition in [Partition::Iid, Partition::Dirichlet { alpha: 0.5 }] {
        let outcome = quick_spec(DataTask::Cifar10, MhflMethod::FedRolex, constraint)
            .with_partition(partition)
            .run()
            .unwrap();
        assert!((0.0..=1.0).contains(&outcome.summary.global_accuracy));
    }
}

#[test]
fn scalability_sweep_increases_simulated_cost() {
    // More clients with the same sampling ratio means more stragglers per
    // round, so the simulated time should not decrease.
    let constraint = ConstraintCase::Memory;
    let small = quick_spec(DataTask::UciHar, MhflMethod::Fjord, constraint)
        .with_num_clients(4)
        .run()
        .unwrap();
    let large = quick_spec(DataTask::UciHar, MhflMethod::Fjord, constraint)
        .with_num_clients(12)
        .run()
        .unwrap();
    assert!(large.summary.total_time_secs >= small.summary.total_time_secs * 0.5);
}

#[test]
fn method_levels_cover_all_three_heterogeneity_levels() {
    let levels: Vec<HeterogeneityLevel> = MhflMethod::HETEROGENEOUS
        .iter()
        .map(|m| m.level())
        .collect();
    assert!(levels.contains(&HeterogeneityLevel::Width));
    assert!(levels.contains(&HeterogeneityLevel::Depth));
    assert!(levels.contains(&HeterogeneityLevel::Topology));
}
