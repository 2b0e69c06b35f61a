//! Regenerates Fig. 8: non-IID robustness under the computation constraint
//! (IID vs Dirichlet alpha=0.5 vs alpha=5) on CIFAR-100, CIFAR-10 and AG-News.

use mhfl_bench::{applicable_methods, print_table, scale_from_args, Table};
use mhfl_data::{DataTask, Partition};
use mhfl_device::ConstraintCase;
use pracmhbench_core::ExperimentSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_args();
    let constraint = ConstraintCase::Computation {
        deadline_secs: 300.0,
    };
    let partitions = [
        ("iid", Partition::Iid),
        ("niid-0.5", Partition::Dirichlet { alpha: 0.5 }),
        ("niid-5", Partition::Dirichlet { alpha: 5.0 }),
    ];
    for task in [DataTask::Cifar100, DataTask::Cifar10, DataTask::AgNews] {
        let mut table = Table::new(
            format!("Fig. 8 — non-IID performance on {task} (computation-limited)"),
            &["Method", "iid", "niid-0.5", "niid-5"],
        );
        for method in applicable_methods(task) {
            let mut row = vec![method.to_string()];
            for (_, partition) in &partitions {
                let outcome = ExperimentSpec::new(task, method, constraint)
                    .with_scale(scale)
                    .with_partition(*partition)
                    .run()?;
                row.push(format!("{:.3}", outcome.summary.global_accuracy));
            }
            table.push_row(row);
        }
        print_table(&table);
    }
    Ok(())
}
