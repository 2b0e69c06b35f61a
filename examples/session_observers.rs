//! Streaming session scenario: drive a federated run one event at a time,
//! with observers for progress logging, CSV telemetry and early stopping.
//!
//! The blocking `spec.run()` is a thin wrapper over this API
//! (`spec.open(..)` + `drain()`); driving the session yourself is
//! what unlocks mid-run visibility for long experiments.
//!
//! ```bash
//! cargo run --release --example session_observers
//! ```

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{
    CsvTelemetry, EarlyStop, Execution, ExperimentSpec, ProgressLogger, RoundEvent, RunScale,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(17)
    .with_execution(Execution::async_buffered(2));

    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    // The CSV collector is attached by mutable reference so its rows stay
    // readable after the session ends (declared first to outlive it).
    let mut telemetry = CsvTelemetry::new();
    let mut session = spec.open(algorithm.as_mut(), &ctx)?;

    // Observers see every event before it reaches this loop.
    session.observe(Box::new(ProgressLogger::stderr()));
    session.observe(Box::new(&mut telemetry));
    // Stop as soon as the global model clears 35 % accuracy — the session
    // then emits RunCompleted with the partial report.
    session.observe(Box::new(EarlyStop::at_accuracy(0.35)));

    let mut dispatched = 0usize;
    let mut arrived = 0usize;
    let report = loop {
        let Some(event) = session.next_event()? else {
            unreachable!("RunCompleted always precedes stream end");
        };
        match event {
            RoundEvent::ClientDispatched { .. } => dispatched += 1,
            RoundEvent::UpdateArrived { .. } => arrived += 1,
            RoundEvent::Aggregated {
                round, num_updates, ..
            } => println!("aggregated round {round} from {num_updates} updates"),
            RoundEvent::RunCompleted { report } => break report,
            _ => {}
        }
    };

    drop(session);
    println!(
        "\n{} stopped after {} rounds ({dispatched} dispatches, {arrived} arrivals, {} CSV rows):",
        report.algorithm,
        report.records.last().map_or(0, |r| r.round),
        telemetry.num_update_rows(),
    );
    assert!(telemetry.num_update_rows() > 0);
    println!(
        "  final accuracy {:.3} at t = {:.1}s, utilisation {:.2}, mean staleness {:.2}",
        report.final_accuracy(),
        report.total_sim_time_secs(),
        report.utilisation(),
        report.mean_staleness()
    );
    assert!(
        report.final_accuracy() >= 0.35 || report.records.len() == 4,
        "either the early stop fired or the run used its full budget"
    );
    Ok(())
}
