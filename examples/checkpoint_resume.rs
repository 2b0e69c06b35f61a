//! Checkpoint/resume scenario: interrupt a run mid-flight, rebuild it from
//! the checkpoint, and verify the resumed run reproduces the uninterrupted
//! trace bit-for-bit.
//!
//! This is the mechanism that makes a 1000-round paper-scale run
//! restartable: checkpoint every few rounds, and an interrupted run resumes
//! from the last checkpoint with a byte-identical final report
//! (`MetricsReport::digest()` is pinned equal below).
//!
//! ```bash
//! cargo run --release --example checkpoint_resume
//! ```

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{Execution, ExperimentSpec, RunScale, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (label, execution) in [
        ("sync", Execution::Synchronous),
        ("async-k2", Execution::async_buffered(2)),
    ] {
        let spec = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::FedProto,
            ConstraintCase::Memory,
        )
        .with_scale(RunScale::Quick)
        .with_seed(42)
        .with_execution(execution);

        // Reference: the uninterrupted run.
        let reference = spec.run()?.report;

        // Interrupted run: advance to the halfway round, checkpoint, and
        // abandon the session (simulating a crash or preemption).
        let ctx = spec.build_context()?;
        let mut algorithm = build_algorithm(spec.method);
        let mut session = spec.open(algorithm.as_mut(), &ctx)?;
        while session.completed_rounds() < 2 {
            session.next_event()?;
        }
        let checkpoint = session.checkpoint()?;
        drop(session);
        println!(
            "{label}: checkpointed at round {} (t = {:.1}s, {} updates in flight)",
            checkpoint.completed_rounds(),
            checkpoint.sim_time_secs(),
            checkpoint.in_flight_updates()
        );

        // Resume into a *fresh* algorithm instance and finish the run.
        let mut resumed_algorithm = build_algorithm(spec.method);
        let resumed_session = Session::restore(resumed_algorithm.as_mut(), &ctx, &checkpoint)?;
        let resumed = resumed_session.drain()?;

        assert_eq!(
            reference.digest(),
            resumed.digest(),
            "{label}: resumed trace diverged from the uninterrupted run"
        );
        println!(
            "{label}: resumed digest 0x{:016x} == uninterrupted digest (final acc {:.3})\n",
            resumed.digest(),
            resumed.final_accuracy()
        );
    }
    println!("checkpoint/resume is bit-exact in both execution modes ✓");
    Ok(())
}
