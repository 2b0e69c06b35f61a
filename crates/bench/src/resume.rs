//! Durable checkpoint/resume: the one resume loop of the bench binaries
//! (`paper_scale --checkpoint/--resume` and every run of
//! `reproduce --checkpoint-dir`).
//!
//! A paper-scale run is hours of wall-clock; the session layer's durable
//! checkpoints (`mhfl_fl::persist`) make it interruption-tolerant.
//! [`run_resumable`] wraps the common shape — *resume from the checkpoint
//! file if it exists, otherwise start fresh; auto-save every N rounds;
//! optionally stop after a round budget (for smoke tests that simulate the
//! interruption)* — so every binary exposes the same resume contract.

use std::path::Path;

use mhfl_algorithms::build_algorithm;
use mhfl_fl::{FlError, FlResult, RoundEvent, Session};
use pracmhbench_core::{CheckpointObserver, ExperimentSpec, MetricsReport};

/// The outcome of one resumable run.
pub struct ResumableOutcome {
    /// The final report — `None` when the run was deliberately stopped
    /// after `stop_after_rounds` (the interruption half of a smoke test).
    pub report: Option<MetricsReport>,
    /// The completed-round count the run resumed from (`None` = fresh run).
    pub resumed_from: Option<usize>,
    /// Completed rounds when the function returned.
    pub completed_rounds: usize,
}

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
/// re-applying the spec's adversarial knobs, which the file does not carry),
/// auto-saves every `every` completed rounds and at run end, and — when
/// `stop_after_rounds` is set — saves and returns early once that many
/// rounds have completed, simulating an interruption.
///
/// A run interrupted this way and re-invoked with the same arguments
/// continues bit-exactly: the final `MetricsReport::digest()` equals the
/// uninterrupted run's. A *failed periodic save* does not abort the run
/// (the session keeps going on the previous good checkpoint); only the
/// explicit interruption save under `stop_after_rounds` is load-bearing
/// enough to propagate its error.
pub fn run_resumable(
    spec: &ExperimentSpec,
    path: &Path,
    every: usize,
    stop_after_rounds: Option<usize>,
) -> Result<ResumableOutcome, Box<dyn std::error::Error>> {
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let (mut session, resumed_from) = if path.exists() {
        let session = spec.resume_from(algorithm.as_mut(), &ctx, path)?;
        let from = session.completed_rounds();
        eprintln!(
            "resume: continuing from {} at round {from} (t = {:.1}s)",
            path.display(),
            session.sim_time_secs()
        );
        (session, Some(from))
    } else {
        (spec.open(algorithm.as_mut(), &ctx)?, None)
    };
    session.observe(Box::new(CheckpointObserver::every(path, every)));

    if let Some(stop) = stop_after_rounds {
        while session.completed_rounds() < stop && !session.is_finished() {
            if next_tolerating_save_failure(&mut session)?.is_none() {
                break;
            }
        }
        if !session.is_finished() {
            session.save(path)?;
            let completed_rounds = session.completed_rounds();
            eprintln!(
                "resume: stopped after round {completed_rounds}, checkpoint saved to {}",
                path.display()
            );
            return Ok(ResumableOutcome {
                report: None,
                resumed_from,
                completed_rounds,
            });
        }
    }

    let report = loop {
        match next_tolerating_save_failure(&mut session)? {
            Some(RoundEvent::RunCompleted { report }) => break report,
            Some(_) => {}
            None => break session.report().clone(),
        }
    };
    let completed = session.completed_rounds();
    Ok(ResumableOutcome {
        completed_rounds: completed.max(report.records.last().map_or(0, |r| r.round)),
        report: Some(report),
        resumed_from,
    })
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
            ConstraintCase::Computation {
                deadline_secs: 300.0,
            },
        )
        .with_scale(RunScale::Quick)
        .with_seed(17)
    }

    fn digest(spec: &ExperimentSpec, path: &Path, stop_after_rounds: Option<usize>) -> Option<u64> {
        let outcome = run_resumable(spec, path, 1, stop_after_rounds).expect("resumable run");
        outcome.report.map(|r| r.digest())
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
            assert_eq!(digest(&spec, &straight, None), Some(expected), "{tag}");

            let cut = dir.join(format!("{tag}_cut.ckpt"));
            assert_eq!(digest(&spec, &cut, Some(2)), None, "{tag}: stops early");
            assert_eq!(digest(&spec, &cut, None), Some(expected), "{tag}: resumed");
        }
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
