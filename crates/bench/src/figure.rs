//! The per-constraint method comparison behind Figs. 4–6, and the method
//! list every figure that sweeps methods over a task uses.

use mhfl_data::{DataTask, Modality};
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{ComparisonRow, ExperimentSpec};

use crate::{print_table, scale_from_args, Table};

/// The heterogeneous methods the paper runs on `task`: all of them, minus
/// the ones without NLP support on an NLP task.
pub fn applicable_methods(task: DataTask) -> Vec<MhflMethod> {
    MhflMethod::HETEROGENEOUS
        .into_iter()
        .filter(|m| task.modality() != Modality::Nlp || m.supports_nlp())
        .collect()
}

/// Runs every applicable method on each of `tasks` under `constraint` and
/// prints one table per task: global accuracy, time-to-accuracy, stability
/// and effectiveness. The run scale comes from the process arguments.
pub fn constraint_figure(
    title: &str,
    constraint: ConstraintCase,
    tasks: &[DataTask],
) -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_args();
    for &task in tasks {
        let spec = ExperimentSpec::new(task, MhflMethod::SHeteroFl, constraint).with_scale(scale);
        let outcomes = spec.run_comparison(&applicable_methods(task))?;
        let mut table = Table::new(
            format!("{title} — {task} ({})", constraint.label()),
            &[
                "Method",
                "Level",
                "GlobalAcc",
                "TimeToAcc(h)",
                "Stability",
                "Effectiveness",
            ],
        );
        for outcome in &outcomes {
            let row = ComparisonRow::from_outcome(outcome);
            table.push_row(vec![
                row.method,
                row.level,
                format!("{:.3}", row.global_accuracy),
                row.time_to_accuracy_hours
                    .map(|h| format!("{h:.2}"))
                    .unwrap_or_else(|| "—".into()),
                format!("{:.5}", row.stability),
                row.effectiveness
                    .map(|e| format!("{e:+.3}"))
                    .unwrap_or_else(|| "—".into()),
            ]);
        }
        print_table(&table);
    }
    Ok(())
}
