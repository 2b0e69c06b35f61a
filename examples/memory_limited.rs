//! Memory-limited MHFL: show how the constraint case assigns each device
//! class the largest model that fits, and how the methods' memory overheads
//! change the assignment (the mechanism behind the paper's Fig. 6).
//!
//! ```bash
//! cargo run --release --example memory_limited
//! ```

use mhfl_data::DataTask;
use mhfl_device::{ConstraintCase, CostModel, DeviceCapability, DeviceProfile, ModelPool};
use mhfl_models::{MhflMethod, ModelFamily};
use pracmhbench_core::{format_table, ExperimentSpec, RunScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: which ResNet-101 scale fits on each device class, per method.
    let pool = ModelPool::build(
        ModelFamily::ResNet101,
        &ModelFamily::RESNET_FAMILY,
        &MhflMethod::HETEROGENEOUS,
        100,
    );
    let cost_model = CostModel::default();
    let case = ConstraintCase::Memory;

    println!("Largest feasible ResNet-101 scale per device class and method\n");
    let mut rows = Vec::new();
    for profile in DeviceProfile::memory_classes() {
        let device = DeviceCapability::from(&profile);
        for method in [
            MhflMethod::SHeteroFl,
            MhflMethod::FedRolex,
            MhflMethod::FeDepth,
            MhflMethod::DepthFl,
        ] {
            let assignment = case.assign_client(&pool, method, &device, &cost_model, 0);
            rows.push(vec![
                profile.name.clone(),
                format!("{:.0} GiB", profile.memory_gib()),
                method.to_string(),
                assignment.entry.choice.label(),
                format!("{:.0} MB", assignment.cost.memory_bytes as f64 / 1e6),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &["Device", "RAM", "Method", "Assigned model", "Peak memory"],
            &rows
        )
    );

    // Part 2: a quick federated run under the memory constraint.
    let spec = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::DepthFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(5);
    let outcome = spec.run()?;
    println!(
        "DepthFL under the memory constraint: global accuracy {:.3} after {:.0} simulated s",
        outcome.summary.global_accuracy, outcome.summary.total_time_secs
    );
    Ok(())
}
