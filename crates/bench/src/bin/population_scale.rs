//! `population_scale` — million-client federations stay O(active clients).
//!
//! A federation context ([`ExperimentSpec::build_context`]) stores nothing
//! per client: it derives every client's device profile and data shard on
//! demand from `(seed, client_id)`, so its resident footprint is bounded by
//! the clients *in flight*, never by the population. This binary checks the
//! three claims that matter at scale and prints what it measured (the
//! guarded footprint number is mhbench's `har_async_lazy_1m.peak_rss_mb`):
//!
//! * **pick_next is sub-linear** — the uniform scheduler draw over the free
//!   set is timed at populations 10³, 10⁵ and 10⁶; the per-pick cost must
//!   not grow with the population (it is O(in-flight), and in-flight is
//!   fixed by the concurrency slots).
//! * **per-round wall-clock is population-independent** — one asynchronous
//!   buffered run (fixed slots, fixed buffer) at the target population and
//!   one at a 1 000-client reference, same engine config; the ratio of the
//!   mean per-round times is printed.
//! * **RSS is bounded** — `/proc/self/status` VmRSS is sampled before the
//!   context is built, after setup, and at every round boundary. With
//!   `--rss-ceiling-mb <n>` the binary *fails* if the peak exceeds the
//!   ceiling — the CI assertion that nothing per client is kept. (Holding
//!   every shard of the 100 000-client smoke population would alone need
//!   several gigabytes.)
//!
//! Usage:
//!
//! ```bash
//! cargo run --release -p mhfl-bench --bin population_scale            # 1M clients
//! cargo run --release -p mhfl-bench --bin population_scale -- \
//!     --quick --rss-ceiling-mb 600                                    # CI: 100k
//! ```

use std::time::Instant;

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{Candidates, Execution, FederationContext, RoundEvent, Schedule};
use mhfl_models::MhflMethod;
use mhfl_net::cli::{Args, Flag};
use mhfl_tensor::SeededRng;
use pracmhbench_core::{ExperimentSpec, RunScale};

/// Fixed async shape for every run: the footprint and per-round cost are
/// functions of these, not of the population.
const SLOTS: usize = 32;
const BUFFER: usize = 16;
const REFERENCE_POPULATION: usize = 1_000;

/// Current resident set size in kilobytes, from `/proc/self/status`.
/// `None` off Linux — the benchmark still runs, it just cannot assert RSS.
fn rss_kb() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn rss_mb() -> Option<f64> {
    rss_kb().map(|kb| kb as f64 / 1024.0)
}

fn spec_at(population: usize) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::COMPUTATION,
    )
    .with_scale(RunScale::Quick)
    .with_num_clients(population)
    .with_seed(42)
    .with_execution(Execution::AsyncBuffered {
        buffer_size: BUFFER,
        concurrency: SLOTS,
    })
}

/// Steady-state cost of one scheduler draw over the free set of a
/// `population`-client federation, in nanoseconds per pick.
///
/// The free list is built once outside the timed region (the session keeps
/// it implicitly); each timed iteration is exactly what the async driver
/// does per freed slot: one `pick_next` over the candidates.
fn time_pick_next(population: usize) -> f64 {
    let ctx = spec_at(population).build_context().expect("context builds");
    let scheduler = Schedule::Uniform.build();
    let free: Vec<usize> = (0..population).collect();
    let pool = Candidates(&free);
    let mut rng = SeededRng::new(7);
    // Warm up, then time.
    for _ in 0..100 {
        std::hint::black_box(scheduler.pick_next(0.0, &pool, &ctx, &mut rng));
    }
    let reps = 10_000usize;
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(scheduler.pick_next(0.0, &pool, &ctx, &mut rng));
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

struct RunResult {
    setup_secs: f64,
    per_round_secs: Vec<f64>,
    rss_after_setup_mb: Option<f64>,
    rss_peak_mb: Option<f64>,
}

/// One asynchronous buffered run over a `population`-client context,
/// timing each aggregation round and sampling RSS at every boundary.
fn run_population(population: usize) -> RunResult {
    let spec = spec_at(population);
    let t = Instant::now();
    let ctx: FederationContext = spec.build_context().expect("context builds");
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx).expect("session opens");
    let setup_secs = t.elapsed().as_secs_f64();
    let rss_after_setup_mb = rss_mb();
    let mut rss_peak_mb = rss_after_setup_mb;

    let mut per_round_secs = Vec::new();
    let mut round_started = Instant::now();
    while let Some(event) = session.next_event().expect("event") {
        if let RoundEvent::RoundCompleted { .. } = event {
            per_round_secs.push(round_started.elapsed().as_secs_f64());
            round_started = Instant::now();
            rss_peak_mb = match (rss_peak_mb, rss_mb()) {
                (Some(peak), Some(now)) => Some(peak.max(now)),
                (peak, now) => peak.or(now),
            };
        }
    }
    RunResult {
        setup_secs,
        per_round_secs,
        rss_after_setup_mb,
        rss_peak_mb,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn mb(x: Option<f64>) -> String {
    x.map_or_else(|| "n/a".into(), |v| format!("{v:.1}"))
}

fn main() {
    let args = Args::from_env(
        "population_scale [--quick] [--clients <n>] [--rss-ceiling-mb <n>]",
        &[
            Flag::Switch("--quick"),
            Flag::Count("--clients"),
            Flag::Count("--rss-ceiling-mb"),
        ],
        &[],
    );
    let default_population = if args.has("--quick") {
        100_000
    } else {
        1_000_000
    };
    let population = args.count("--clients").unwrap_or(default_population);
    let rss_ceiling_mb = args.count("--rss-ceiling-mb");

    eprintln!("population_scale: timing pick_next at 10^3 / 10^5 / 10^6 clients...");
    let pick_populations = [1_000usize, 100_000, 1_000_000];
    let pick_ns: Vec<f64> = pick_populations
        .iter()
        .map(|&n| {
            let ns = time_pick_next(n);
            eprintln!("  pick_next over {n:>9} free clients: {ns:>8.1} ns/pick");
            ns
        })
        .collect();
    // Sub-linear in the only sense that matters: 1000x the population must
    // not cost anywhere near 1000x the pick. Allow 8x for cache effects.
    assert!(
        pick_ns[2] < pick_ns[0] * 8.0 + 1_000.0,
        "pick_next cost grew with the population: {:.0}ns at 10^3 vs {:.0}ns at 10^6",
        pick_ns[0],
        pick_ns[2]
    );

    eprintln!("population_scale: reference run ({REFERENCE_POPULATION} clients)...");
    let reference = run_population(REFERENCE_POPULATION);
    eprintln!(
        "  setup {:.2}s, rounds {}, mean round {:.3}s",
        reference.setup_secs,
        reference.per_round_secs.len(),
        mean(&reference.per_round_secs)
    );

    eprintln!(
        "population_scale: main run ({population} clients, {SLOTS} slots, buffer {BUFFER})..."
    );
    let main_run = run_population(population);
    eprintln!(
        "  setup {:.2}s, rounds {}, mean round {:.3}s, RSS after setup {} MB, peak {} MB",
        main_run.setup_secs,
        main_run.per_round_secs.len(),
        mean(&main_run.per_round_secs),
        mb(main_run.rss_after_setup_mb),
        mb(main_run.rss_peak_mb),
    );

    let round_ratio = {
        let r = mean(&reference.per_round_secs);
        if r > 0.0 {
            mean(&main_run.per_round_secs) / r
        } else {
            0.0
        }
    };
    eprintln!(
        "  per-round wall-clock at {population} clients is {round_ratio:.2}x the \
         {REFERENCE_POPULATION}-client reference"
    );

    if let Some(ceiling) = rss_ceiling_mb {
        let peak = main_run
            .rss_peak_mb
            .expect("--rss-ceiling-mb requires /proc/self/status (Linux)");
        assert!(
            peak <= ceiling as f64,
            "peak RSS {peak:.1} MB exceeded the {ceiling} MB ceiling: per-client \
             state is being kept somewhere"
        );
        eprintln!("population_scale: peak RSS {peak:.1} MB within the {ceiling} MB ceiling");
    }
}
