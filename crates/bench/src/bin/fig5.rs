//! Regenerates Fig. 5 (communication-limited MHFL): global accuracy, time-to-accuracy, stability and
//! effectiveness of every MHFL algorithm under this constraint.
//! Pass `--quick` for a smoke-test scale or `--paper` for the full scale.

use mhfl_bench::constraint_figure;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    constraint_figure(
        "Fig. 5 (communication-limited MHFL)",
        ConstraintCase::Communication { budget_secs: 200.0 },
        &DataTask::ALL,
    )
}
