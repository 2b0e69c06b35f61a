//! Durable checkpoint/resume: the one resume loop of the bench binaries
//! (every run of `reproduce --checkpoint-dir`).
//!
//! A paper-scale run is hours of wall-clock; the session layer's durable
//! checkpoints (`mhfl_fl::persist`) make it interruption-tolerant.
//! [`run_resumable`] wraps the common shape — *resume from the checkpoint
//! file if it exists, otherwise start fresh; auto-save every N rounds* — so
//! every experiment a binary runs has the same resume contract.

use std::path::Path;

use mhfl_algorithms::build_algorithm;
use mhfl_fl::{FlError, FlResult, RoundEvent, Session};
use pracmhbench_core::{CheckpointObserver, ExperimentSpec, MetricsReport};

/// Advances a session one event, tolerating failed *auto-saves*: a
/// `FlError::Persist` from a `CheckpointObserver` save leaves the session
/// live (see `Session::next_event`), and a long run should not lose its
/// in-memory progress to a transient disk error — the failure is logged and
/// the run continues on the previous good checkpoint.
fn next_tolerating_save_failure(session: &mut Session<'_>) -> FlResult<Option<RoundEvent>> {
    loop {
        match session.next_event() {
            Err(FlError::Persist(e)) => {
                eprintln!(
                    "warning: periodic checkpoint save failed ({e}); \
                     continuing on the previous checkpoint"
                );
            }
            other => return other,
        }
    }
}

/// Runs `spec` with durable checkpointing to `path`: resumes from the file
/// when it exists (validating the engine configuration against the spec and
/// re-applying the spec's adversarial knobs, which the file does not carry)
/// and auto-saves every `every` completed rounds and at run end.
///
/// A run interrupted this way and re-invoked with the same arguments
/// continues bit-exactly: the final `MetricsReport::digest()` equals the
/// uninterrupted run's. A *failed periodic save* does not abort the run
/// (the session keeps going on the previous good checkpoint).
pub fn run_resumable(
    spec: &ExperimentSpec,
    path: &Path,
    every: usize,
) -> Result<MetricsReport, Box<dyn std::error::Error>> {
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let mut session = if path.exists() {
        let session = spec.resume_from(algorithm.as_mut(), &ctx, path)?;
        eprintln!(
            "resume: continuing from {} at round {} (t = {:.1}s)",
            path.display(),
            session.completed_rounds(),
            session.sim_time_secs()
        );
        session
    } else {
        spec.open(algorithm.as_mut(), &ctx)?
    };
    session.observe(Box::new(CheckpointObserver::every(path, every)));
    loop {
        match next_tolerating_save_failure(&mut session)? {
            Some(RoundEvent::RunCompleted { report }) => return Ok(report),
            Some(_) => {}
            None => return Ok(session.report().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_models::MhflMethod;
    use pracmhbench_core::{Corruption, RobustAggregation, RunScale};

    fn spec() -> ExperimentSpec {
        ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::COMPUTATION,
        )
        .with_scale(RunScale::Quick)
        .with_seed(17)
    }

    #[test]
    fn adversarial_specs_resume_to_the_digest_run_returns() {
        let attack = Corruption::SignFlip { fraction: 0.4 };
        let rows = [
            ("sign_flip", spec().with_corruption(attack)),
            ("churn", spec().with_churn(0.3)),
            (
                "sign_flip_median",
                spec()
                    .with_corruption(attack)
                    .with_robust_aggregation(RobustAggregation::CoordinateMedian),
            ),
        ];
        let clean = spec().run().unwrap().report.digest();
        let dir = std::env::temp_dir().join(format!("mhfl_resume_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        for (tag, spec) in rows {
            let expected = spec.run().unwrap().report.digest();
            assert_ne!(expected, clean, "{tag}: the knob must change the run");

            let straight = dir.join(format!("{tag}_straight.ckpt"));
            let report = run_resumable(&spec, &straight, 1).expect("straight run");
            assert_eq!(report.digest(), expected, "{tag}");

            // The interruption: two rounds of a fresh session, saved.
            let cut = dir.join(format!("{tag}_cut.ckpt"));
            let ctx = spec.build_context().unwrap();
            let mut algorithm = build_algorithm(spec.method);
            let mut session = spec.open(algorithm.as_mut(), &ctx).unwrap();
            while session.completed_rounds() < 2 {
                session.next_event().unwrap();
            }
            session.save(&cut).unwrap();
            let report = run_resumable(&spec, &cut, 1).expect("resumed run");
            assert_eq!(report.digest(), expected, "{tag}: resumed");
        }
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
