//! `paper_scale` — the durable full run nothing else in the tree does: one
//! CIFAR-10 / SHeteroFL / seed 42 spec driven through the real
//! [`Session`](mhfl_fl::Session) loop with on-disk checkpoints. (Timings are
//! `examples/mhbench`'s job; this binary prints and asserts, it measures no
//! wall-clock.)
//!
//! Usage: `cargo run --release -p mhfl-bench --bin paper_scale --
//! [--quick|--paper] (--checkpoint <path> | --resume <path>)
//! [--checkpoint-every <n>] [--stop-after-rounds <r>]`
//!
//! With `--checkpoint <path>` the binary drives the **full multi-round
//! federated run** at the selected scale, auto-saving a durable checkpoint
//! (`mhfl_fl::persist`) to `<path>` every `--checkpoint-every <n>` rounds
//! (default 25). If `<path>` already exists the run **resumes from it** and
//! continues bit-exactly; `--resume <path>` is the same flow but requires the
//! file to exist. `--stop-after-rounds <r>` saves and exits once `r` rounds
//! have completed — the "kill" half of an interruption smoke test:
//!
//! ```bash
//! # start, get interrupted at round 2...
//! cargo run -p mhfl-bench --bin paper_scale -- --quick \
//!     --checkpoint run.ckpt --checkpoint-every 1 --stop-after-rounds 2
//! # ...relaunch: continues from round 2 and prints the final digest
//! cargo run -p mhfl-bench --bin paper_scale -- --quick --resume run.ckpt
//! ```

use mhfl_bench::run_resumable;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use mhfl_net::cli::{Args, Flag};
use pracmhbench_core::{ExperimentSpec, RunScale};

const USAGE: &str = "paper_scale [--quick|--paper] (--checkpoint <path> | --resume <path>) \
    [--checkpoint-every <n>] [--stop-after-rounds <r>]";

const FLAGS: &[Flag] = &[
    Flag::Switch("--quick"),
    Flag::Switch("--paper"),
    Flag::Value("--checkpoint"),
    Flag::Value("--resume"),
    Flag::Count("--checkpoint-every"),
    Flag::Count("--stop-after-rounds"),
];

/// The one experiment: the width family on CIFAR-10.
fn spec(scale: RunScale) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::Cifar10,
        MhflMethod::SHeteroFl,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(scale)
    .with_seed(42)
}

/// The durable-run flow behind `--checkpoint` / `--resume`: one full
/// multi-round width-family run with auto-saved on-disk checkpoints, resumed
/// from the file when it already exists.
fn run_durable(args: &Args, path: &str, must_exist: bool) {
    let path = std::path::Path::new(path);
    if must_exist && !path.exists() {
        panic!(
            "--resume {}: checkpoint file does not exist",
            path.display()
        );
    }
    let every = args.count("--checkpoint-every").unwrap_or(25);
    let stop_after = args.count("--stop-after-rounds");
    let scale = args.scale();
    let spec = spec(scale);
    eprintln!(
        "paper_scale: durable {scale:?} run of {} (checkpoint {} every {every} rounds)",
        spec.method,
        path.display()
    );
    let outcome = run_resumable(&spec, path, every, stop_after).expect("durable run");
    match outcome.report {
        Some(report) => println!(
            "paper_scale: run complete at round {} (resumed from {:?}): \
             final acc {:.4}, digest 0x{:016x}",
            outcome.completed_rounds,
            outcome.resumed_from,
            report.final_accuracy(),
            report.digest()
        ),
        None => println!(
            "paper_scale: interrupted after round {} (resumed from {:?}); \
             relaunch with --resume {} to continue",
            outcome.completed_rounds,
            outcome.resumed_from,
            path.display()
        ),
    }
}

fn main() {
    let args = Args::from_env(USAGE, FLAGS, &[]);
    match (args.value("--resume"), args.value("--checkpoint")) {
        (Some(path), _) => run_durable(&args, path, true),
        (None, Some(path)) => run_durable(&args, path, false),
        (None, None) => {
            eprintln!("error: pass --checkpoint <path> or --resume <path>\nusage: {USAGE}");
            std::process::exit(2);
        }
    }
}
