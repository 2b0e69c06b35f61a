//! `paper_scale` — the two paper-scale jobs nothing else in the tree does,
//! both over one CIFAR-10 / SHeteroFL / seed 42 spec driven through the real
//! [`Session`](mhfl_fl::Session) loop. (Timings are `examples/mhbench`'s
//! job; this binary prints and asserts, it measures no wall-clock.)
//!
//! Usage: `cargo run --release -p mhfl-bench --bin paper_scale [--quick|--paper]`
//!
//! ## Arena allocation probe (default; `--alloc-audit` makes it a gate)
//!
//! Runs the first rounds of the experiment and prints what the tensor arena
//! did in each: the counter deltas between consecutive `RoundCompleted`
//! events. Round 1 fills the pool; every later round is a warm round and
//! should allocate next to nothing fresh. Build with
//! `--features alloc-count` for real numbers; with `--alloc-audit` the
//! binary fails if any warm round exceeds [`ALLOC_CEILING_PER_ROUND`].
//!
//! ## Durable full runs (`--checkpoint` / `--resume`)
//!
//! With `--checkpoint <path>` the binary instead drives the **full
//! multi-round federated run** at the selected scale, auto-saving a durable
//! checkpoint (`mhfl_fl::persist`) to `<path>` every `--checkpoint-every <n>`
//! rounds (default 25). If `<path>` already exists the run **resumes from
//! it** and continues bit-exactly; `--resume <path>` is the same flow but
//! requires the file to exist. `--stop-after-rounds <r>` saves and exits
//! once `r` rounds have completed — the "kill" half of an interruption
//! smoke test:
//!
//! ```bash
//! # start, get interrupted at round 2...
//! cargo run -p mhfl-bench --bin paper_scale -- --quick \
//!     --checkpoint run.ckpt --checkpoint-every 1 --stop-after-rounds 2
//! # ...relaunch: continues from round 2 and prints the final digest
//! cargo run -p mhfl-bench --bin paper_scale -- --quick --resume run.ckpt
//! ```

use mhfl_algorithms::build_algorithm;
use mhfl_bench::{print_table, run_resumable, Args, Flag, Table};
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::RoundEvent;
use mhfl_models::MhflMethod;
use mhfl_tensor::{ArenaStats, TensorArena};
use pracmhbench_core::{ExperimentSpec, RunScale};

const USAGE: &str = "paper_scale [--quick|--paper] [--alloc-audit] \
    [--checkpoint <path> | --resume <path>] [--checkpoint-every <n>] [--stop-after-rounds <r>]";

const FLAGS: &[Flag] = &[
    Flag::Switch("--quick"),
    Flag::Switch("--paper"),
    Flag::Switch("--alloc-audit"),
    Flag::Value("--checkpoint"),
    Flag::Value("--resume"),
    Flag::Count("--checkpoint-every"),
    Flag::Count("--stop-after-rounds"),
];

/// Committed ceiling on steady-state tensor-storage allocations per warm
/// federated round (width family, any scale). The arena serves warm-round
/// leases from recycled buffers, so the residue is a handful of leases that
/// outgrow the pool's byte caps plus first-touch shapes a round mints
/// uniquely; CI's `alloc-audit` job fails if a regression pushes the
/// measured number past this line.
const ALLOC_CEILING_PER_ROUND: u64 = 256;

/// Rounds the allocation probe drives before stopping the session: the
/// warm-up round plus enough warm ones to show the steady state.
const PROBE_ROUNDS: usize = 5;

/// The one experiment both modes run: the width family on CIFAR-10.
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

fn stats_delta(after: ArenaStats, before: ArenaStats) -> ArenaStats {
    ArenaStats {
        fresh_allocs: after.fresh_allocs - before.fresh_allocs,
        pool_hits: after.pool_hits - before.pool_hits,
        recycled: after.recycled - before.recycled,
        released: after.released - before.released,
    }
}

/// What the tensor arena did in each of the first [`PROBE_ROUNDS`] rounds of
/// the experiment (fewer if the run is shorter): counter deltas between
/// consecutive `RoundCompleted` events, the first measured from the moment
/// the session opened.
fn probe_arena(scale: RunScale) -> Vec<ArenaStats> {
    let spec = spec(scale);
    let ctx = spec.build_context().expect("context builds");
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx).expect("session opens");
    let arena = TensorArena::global();
    let mut last = arena.stats();
    let mut per_round = Vec::new();
    while let Some(event) = session.next_event().expect("session advances") {
        if let RoundEvent::RoundCompleted { .. } = event {
            let now = arena.stats();
            per_round.push(stats_delta(now, last));
            last = now;
            if per_round.len() == PROBE_ROUNDS {
                session.stop();
            }
        }
    }
    per_round
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
    if let Some(path) = args.value("--resume") {
        return run_durable(&args, path, true);
    }
    if let Some(path) = args.value("--checkpoint") {
        return run_durable(&args, path, false);
    }

    let scale = args.scale();
    let audit = args.has("--alloc-audit");
    assert!(
        !audit || TensorArena::counting_enabled(),
        "--alloc-audit needs allocation counters; rebuild with `--features alloc-count`"
    );
    let per_round = probe_arena(scale);
    let mut table = Table::new(
        format!(
            "Tensor-arena traffic per round ({scale:?} scale, counting {})",
            if TensorArena::counting_enabled() {
                "on"
            } else {
                "OFF — rebuild with --features alloc-count for real numbers"
            }
        ),
        &["Round", "fresh_allocs", "pool_hits", "recycled", "released"],
    );
    for (i, delta) in per_round.iter().enumerate() {
        table.push_row(vec![
            if i == 0 {
                "1 (warm-up)".into()
            } else {
                (i + 1).to_string()
            },
            delta.fresh_allocs.to_string(),
            delta.pool_hits.to_string(),
            delta.recycled.to_string(),
            delta.released.to_string(),
        ]);
    }
    print_table(&table);

    if audit {
        let steady = per_round.get(1..).unwrap_or_default();
        assert!(!steady.is_empty(), "the audit needs at least two rounds");
        for (i, delta) in steady.iter().enumerate() {
            assert!(
                delta.fresh_allocs <= ALLOC_CEILING_PER_ROUND,
                "steady-state tensor allocations regressed: round {} made {} fresh \
                 allocations, over the committed ceiling of {ALLOC_CEILING_PER_ROUND}",
                i + 2,
                delta.fresh_allocs
            );
        }
        println!(
            "paper_scale: alloc audit passed ({} warm rounds, each <= \
             {ALLOC_CEILING_PER_ROUND} fresh allocations)",
            steady.len()
        );
    }
}
