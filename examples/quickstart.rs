//! Quickstart: run one model-heterogeneous FL experiment end to end.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, Parallelism, RunScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Evaluate SHeteroFL on a synthetic UCI-HAR task under a computation
    // deadline, at quick scale so it finishes in seconds.
    let spec = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::COMPUTATION,
    )
    .with_scale(RunScale::Quick)
    .with_seed(7);

    println!("task        : {}", spec.task);
    println!("method      : {}", spec.method);
    println!("constraint  : {}", spec.constraint.label());

    // `spec.run()` trains the clients one after another. Here client
    // training runs on a thread pool instead: the thread count belongs to
    // the session, not the spec, and the results are identical.
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx)?;
    session.set_parallelism(Parallelism::threads());
    let outcome = spec.outcome(session.drain()?);
    println!();
    println!(
        "global accuracy     : {:.3}",
        outcome.summary.global_accuracy
    );
    println!(
        "time-to-accuracy    : {}",
        outcome
            .summary
            .time_to_accuracy_secs
            .map(|s| format!("{:.1} simulated s", s))
            .unwrap_or_else(|| "target not reached".to_string())
    );
    println!("stability (variance): {:.5}", outcome.summary.stability);
    println!(
        "simulated train time: {:.1} s",
        outcome.summary.total_time_secs
    );
    println!();
    println!("learning curve (simulated time, accuracy):");
    for (t, acc) in outcome.report.accuracy_curve() {
        println!("  {:>10.1} s   {:.3}", t, acc);
    }
    Ok(())
}
