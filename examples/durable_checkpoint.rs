//! Durable checkpoint scenario: save a run to disk mid-flight, kill the
//! process, and resume from the file in a fresh process — bit-exactly.
//!
//! The checkpoint crosses a process boundary through the versioned,
//! checksummed `mhfl_fl::persist` format (written atomically via
//! tmp-file-then-rename) and is resumed with `ExperimentSpec::resume_from`,
//! the path `reproduce --checkpoint-dir` takes; the resumed run's
//! `MetricsReport::digest()` still equals the uninterrupted run's. (The
//! in-memory round trip of every algorithm family is pinned by
//! `tests/session.rs`.)
//!
//! Three modes:
//!
//! ```bash
//! # Single process: save + reload + verify, in both execution modes.
//! cargo run --release --example durable_checkpoint
//!
//! # Two processes (what CI runs): "save" trains to round 2, writes the
//! # file and exits — the kill; "resume" starts from nothing but the file,
//! # finishes the run and asserts the digest matches an uninterrupted run.
//! cargo run --release --example durable_checkpoint -- save  /tmp/mhfl.ckpt
//! cargo run --release --example durable_checkpoint -- resume /tmp/mhfl.ckpt
//! ```

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{Execution, ExperimentSpec, RunScale};

fn spec(execution: Execution) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::FedProto,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(42)
    .with_execution(execution)
}

/// Trains to round 2 and saves a durable checkpoint — the "interrupted"
/// process of the two-process smoke.
fn save(path: &str, execution: Execution) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec(execution);
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx)?;
    while session.completed_rounds() < 2 {
        session.next_event()?;
    }
    session.save(path)?;
    let bytes = std::fs::metadata(path)?.len();
    println!(
        "saved checkpoint at round {} to {path} ({bytes} bytes); process exiting",
        session.completed_rounds()
    );
    Ok(())
}

/// Resumes from nothing but the checkpoint file, finishes the run, and
/// asserts bit-exact equality with an uninterrupted run.
fn resume(path: &str, execution: Execution) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec(execution);
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let session = spec.resume_from(algorithm.as_mut(), &ctx, path)?;
    println!(
        "restored {} from {path} at round {}",
        spec.method,
        session.completed_rounds()
    );
    let resumed = session.drain()?;

    let reference = spec.run()?.report;
    assert_eq!(
        reference.digest(),
        resumed.digest(),
        "resumed-from-disk trace diverged from the uninterrupted run"
    );
    println!(
        "resumed digest 0x{:016x} == uninterrupted digest (final acc {:.3})",
        resumed.digest(),
        resumed.final_accuracy()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("save") => {
            let path = args.get(2).expect("usage: durable_checkpoint save <path>");
            save(path, Execution::Synchronous)
        }
        Some("resume") => {
            let path = args
                .get(2)
                .expect("usage: durable_checkpoint resume <path>");
            resume(path, Execution::Synchronous)
        }
        Some(other) => panic!("unknown mode {other:?}: expected `save` or `resume`"),
        None => {
            // Single-process demo covering both execution modes.
            let dir = std::env::temp_dir().join("mhfl_durable_checkpoint");
            std::fs::create_dir_all(&dir)?;
            for (label, execution) in [
                ("sync", Execution::Synchronous),
                ("async-k2", Execution::async_buffered(2)),
            ] {
                let path = dir.join(format!("{label}.ckpt"));
                let path = path.to_str().expect("utf-8 temp path");
                save(path, execution)?;
                resume(path, execution)?;
                println!("{label}: on-disk checkpoint round trip is bit-exact ✓\n");
            }
            Ok(())
        }
    }
}
