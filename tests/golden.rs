//! Golden-trace regression harness.
//!
//! Pins the per-seed [`MetricsReport::digest`] of all nine methods, in both
//! synchronous and asynchronous execution, against fixtures committed in
//! `tests/fixtures/golden_digests.txt` (UCI-HAR, where every client is
//! assigned the full model), and of the seven sub-model methods against
//! `tests/fixtures/golden_digests_stackoverflow.txt` — Stack Overflow under
//! the same constraint assigns widths and depths from 0.25 to 0.75, so it is
//! the end-to-end pin of training sub-models narrower and shallower than the
//! global one. `tests/fixtures/golden_digests_cifar10.txt` pins one method
//! per algorithm family on CIFAR-10, synchronous only: it is the end-to-end
//! pin of `Conv2d`, which neither UCI-HAR nor Stack Overflow runs.
//!
//! The digest folds every field of the report bit-exactly, so these tests
//! prove that performance work on the hot paths (matmul kernels, sub-model
//! extraction plans, allocation elimination) changes **nothing observable**:
//! a kernel rewrite that alters even one ULP of one metric fails here.
//!
//! To regenerate the fixtures after an *intentional* behaviour change, run:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden -- --test-threads=1
//! ```
//!
//! and commit the updated fixture file together with an explanation of why
//! the traces moved.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{Execution, ExperimentSpec, MetricsReport, RunScale};

/// A fixture file and the runs it pins, in file order.
struct Suite {
    task: DataTask,
    file: &'static str,
    methods: &'static [MhflMethod],
    executions: &'static [Execution],
}

/// Synchronous rounds and buffered asynchronous ones (buffer of two).
const BOTH_EXECUTIONS: &[Execution] = &[
    Execution::Synchronous,
    Execution::AsyncBuffered {
        buffer_size: 2,
        concurrency: 0,
    },
];

/// One representative method per algorithm family first, then the
/// remaining width and depth methods.
const UCI_HAR: Suite = Suite {
    task: DataTask::UciHar,
    file: "golden_digests.txt",
    methods: &[
        MhflMethod::SHeteroFl,
        MhflMethod::DepthFl,
        MhflMethod::FedProto,
        MhflMethod::FedEt,
        MhflMethod::HomogeneousSmallest,
        MhflMethod::Fjord,
        MhflMethod::FedRolex,
        MhflMethod::FeDepth,
        MhflMethod::InclusiveFl,
    ],
    executions: BOTH_EXECUTIONS,
};

/// Every method that trains a sub-model of one global state dict.
const STACK_OVERFLOW: Suite = Suite {
    task: DataTask::StackOverflow,
    file: "golden_digests_stackoverflow.txt",
    methods: &[
        MhflMethod::Fjord,
        MhflMethod::SHeteroFl,
        MhflMethod::FedRolex,
        MhflMethod::FeDepth,
        MhflMethod::InclusiveFl,
        MhflMethod::DepthFl,
        MhflMethod::HomogeneousSmallest,
    ],
    executions: BOTH_EXECUTIONS,
};

/// One method per algorithm family on the convolutional proxy.
const CIFAR10: Suite = Suite {
    task: DataTask::Cifar10,
    file: "golden_digests_cifar10.txt",
    methods: &[
        MhflMethod::SHeteroFl,
        MhflMethod::DepthFl,
        MhflMethod::FedProto,
        MhflMethod::FedEt,
    ],
    executions: &[Execution::Synchronous],
};

/// Seeds the traces are pinned for.
const SEEDS: [u64; 2] = [17, 43];

fn execution_label(execution: Execution) -> &'static str {
    match execution {
        Execution::Synchronous => "sync",
        Execution::AsyncBuffered { .. } => "async",
    }
}

fn spec(task: DataTask, method: MhflMethod, execution: Execution, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(task, method, ConstraintCase::COMPUTATION)
        .with_scale(RunScale::Quick)
        .with_seed(seed)
        .with_execution(execution)
}

fn run_report(
    task: DataTask,
    method: MhflMethod,
    execution: Execution,
    seed: u64,
) -> MetricsReport {
    spec(task, method, execution, seed)
        .run()
        .unwrap_or_else(|e| panic!("{task} {method} ({execution:?}, seed {seed}) failed: {e}"))
        .report
}

fn fixture_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file)
}

/// Parses fixture lines of the form `method mode seed 0xDIGEST`.
fn load_fixtures(file: &str) -> Vec<(String, String, u64, u64)> {
    let raw = std::fs::read_to_string(fixture_path(file))
        .unwrap_or_else(|e| panic!("tests/fixtures/{file} is committed with the repo: {e}"));
    raw.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 4, "malformed fixture line: {line:?}");
            let seed: u64 = parts[2].parse().expect("fixture seed");
            let digest = u64::from_str_radix(parts[3].trim_start_matches("0x"), 16)
                .expect("fixture digest (hex)");
            (parts[0].to_string(), parts[1].to_string(), seed, digest)
        })
        .collect()
}

fn all_cases(suite: &Suite) -> Vec<(MhflMethod, Execution, u64)> {
    let mut cases = Vec::new();
    for &method in suite.methods {
        for &execution in suite.executions {
            for seed in SEEDS {
                cases.push((method, execution, seed));
            }
        }
    }
    cases
}

/// Checks every run of `suite` against its fixture file, or rewrites the
/// file under `GOLDEN_BLESS`.
fn check_suite(suite: &Suite) {
    let task = suite.task;
    if std::env::var("GOLDEN_BLESS").is_ok() {
        let mut out = String::from(
            "# Golden per-seed MetricsReport digests (method mode seed digest).\n\
             # Regenerate with: GOLDEN_BLESS=1 cargo test --test golden\n",
        );
        for (method, execution, seed) in all_cases(suite) {
            let digest = run_report(task, method, execution, seed).digest();
            out.push_str(&format!(
                "{method} {} {seed} 0x{digest:016x}\n",
                execution_label(execution)
            ));
        }
        std::fs::write(fixture_path(suite.file), out).expect("write fixtures");
        return;
    }

    let fixtures = load_fixtures(suite.file);
    assert_eq!(
        fixtures.len(),
        all_cases(suite).len(),
        "{}: fixture count must cover every method x execution x seed",
        suite.file
    );
    let mut mismatches = Vec::new();
    for (method, execution, seed) in all_cases(suite) {
        let digest = run_report(task, method, execution, seed).digest();
        let label = execution_label(execution);
        let expected = fixtures
            .iter()
            .find(|(m, e, s, _)| m == &method.to_string() && e == label && *s == seed)
            .unwrap_or_else(|| panic!("no fixture for {task} {method} {label} seed {seed}"))
            .3;
        if digest != expected {
            mismatches.push(format!(
                "{method} {label} seed {seed}: expected 0x{expected:016x}, got 0x{digest:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{task} golden traces diverged (kernel/scheduling behaviour changed):\n{}\n\
         If the change is intentional, regenerate with GOLDEN_BLESS=1 and \
         commit the new fixtures.",
        mismatches.join("\n")
    );
}

#[test]
fn golden_digests_match_committed_fixtures() {
    check_suite(&UCI_HAR);
}

/// The heterogeneous pin: clients here train 0.25–0.75 width and depth
/// sub-models, which no UCI-HAR row does.
#[test]
fn stackoverflow_golden_digests_match_committed_fixtures() {
    check_suite(&STACK_OVERFLOW);
}

/// The convolution pin: every CIFAR-10 client runs `Conv2d` forward and
/// backward, so a kernel change that moves one ULP fails here.
#[test]
fn cifar10_golden_digests_match_committed_fixtures() {
    check_suite(&CIFAR10);
}

/// The Stack Overflow fixture exists to pin narrower sub-models, so every
/// federation it runs must actually mix them: at least three distinct
/// `(width, depth)` levels per seed and method.
#[test]
fn stackoverflow_golden_federations_are_heterogeneous() {
    for &method in STACK_OVERFLOW.methods {
        for seed in SEEDS {
            let ctx = spec(STACK_OVERFLOW.task, method, Execution::Synchronous, seed)
                .build_context()
                .unwrap();
            let mut levels: Vec<(f64, f64)> = Vec::new();
            for client in 0..ctx.num_clients() {
                let a = ctx.assignment(client);
                let level = (a.width_fraction(), a.depth_fraction());
                if !levels.contains(&level) {
                    levels.push(level);
                }
            }
            assert!(
                levels.len() >= 3,
                "{method} seed {seed} assigns only {levels:?}"
            );
        }
    }
}

/// The digest is a pure function of the seed: re-running a case reproduces
/// the exact same trace within one process.
#[test]
fn golden_traces_are_reproducible_within_a_process() {
    let method = MhflMethod::SHeteroFl;
    for execution in [Execution::Synchronous, Execution::async_buffered(2)] {
        let a = run_report(DataTask::UciHar, method, execution, 17).digest();
        let b = run_report(DataTask::UciHar, method, execution, 17).digest();
        assert_eq!(a, b, "same-seed reruns must be byte-identical");
        let c = run_report(DataTask::UciHar, method, execution, 43).digest();
        assert_ne!(a, c, "different seeds must produce different traces");
    }
}
