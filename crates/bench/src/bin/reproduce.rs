//! `reproduce` — regenerates the paper's figures, tables and studies.
//!
//! One table of entries ([`ENTRIES`]), run in table order by `--all`:
//!
//! * `fig3`, `table1`–`table3` — the model pool, the per-method system
//!   statistics, the platform inventory and the edge devices (no training);
//! * `fig4`–`fig6` — every method under the computation / communication /
//!   memory constraint: accuracy, time-to-accuracy, stability and
//!   effectiveness;
//! * `fig7` — CIFAR-100 accuracy under single and combined constraints;
//! * `fig8` — non-IID robustness (IID vs Dirichlet α = 0.5 / 5);
//! * `fig9` — scalability in the number of clients;
//! * `async_study` — synchronous rounds vs FedBuff-style buffered
//!   aggregation, behind a determinism gate;
//! * `buffer_sweep` — utilisation and staleness vs FedBuff buffer size,
//!   written to `FIG_buffer_sweep.csv` and `FIG_round_telemetry.csv`;
//! * `adversarial_study` — byzantine, robust-aggregation, churn, drift and
//!   trace-replay scenarios per algorithm family, written to
//!   `BENCH_adversarial_study.json`.
//!
//! ```bash
//! cargo run --release -p mhfl-bench --bin reproduce -- fig4 fig8 --quick
//! cargo run --release -p mhfl-bench --bin reproduce -- --all --paper --checkpoint-dir ckpts
//! ```
//!
//! `--quick` is the smoke-test scale and `--paper` the paper's own; the
//! default lies between. Every experiment goes through [`Repro::run`]: with
//! `--checkpoint-dir <dir>` it auto-saves a durable checkpoint to
//! `<dir>/<entry>/<spec fingerprint>.ckpt` every `--checkpoint-every <n>`
//! rounds (default 4) and resumes from the file when it exists, so an
//! interrupted reproduction relaunched with the same arguments continues
//! bit-exactly, and finished experiments are read back instead of re-run.

use std::error::Error;
use std::path::{Path, PathBuf};

use mhfl_algorithms::build_algorithm;
use mhfl_bench::{print_series, print_table, run_resumable, Table};
use mhfl_data::{DataTask, Modality, Partition};
use mhfl_device::{ConstraintCase, CostModel, DeviceCapability, DeviceProfile};
use mhfl_models::{MhflMethod, ModelFamily, ModelSpec};
use mhfl_net::cli::{spec_fingerprint, Args, Flag};
use pracmhbench_core::{
    ComparisonRow, Corruption, CsvTelemetry, Drift, Execution, ExperimentOutcome, ExperimentSpec,
    MetricsReport, Observer, PlatformInventory, RobustAggregation, RoundEvent, RunScale,
    TraceReplay,
};

type Outcome<T = ()> = Result<T, Box<dyn Error>>;

/// A name on the command line and what it runs.
type Entry = (&'static str, fn(&Repro) -> Outcome);

/// Every figure, table and study, in `--all` order.
const ENTRIES: &[Entry] = &[
    ("fig3", fig3),
    ("fig4", |r| {
        let title = "Fig. 4 (computation-limited MHFL)";
        constraint_figure(r, title, ConstraintCase::COMPUTATION, &DataTask::ALL)
    }),
    ("fig5", |r| {
        let title = "Fig. 5 (communication-limited MHFL)";
        constraint_figure(r, title, ConstraintCase::COMMUNICATION, &DataTask::ALL)
    }),
    ("fig6", |r| {
        let tasks = [DataTask::Cifar100, DataTask::StackOverflow];
        constraint_figure(
            r,
            "Fig. 6 (memory-limited MHFL)",
            ConstraintCase::Memory,
            &tasks,
        )
    }),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("async_study", async_study),
    ("buffer_sweep", buffer_sweep),
    ("adversarial_study", adversarial_study),
];

/// What an entry runs under.
struct Repro {
    scale: RunScale,
    /// `<dir>/<entry>` and the save cadence, under `--checkpoint-dir <dir>`.
    checkpoints: Option<(PathBuf, usize)>,
}

impl Repro {
    /// A spec at this reproduction's scale.
    fn spec(&self, task: DataTask, method: MhflMethod, case: ConstraintCase) -> ExperimentSpec {
        ExperimentSpec::new(task, method, case).with_scale(self.scale)
    }

    /// The one way an entry runs an experiment: [`ExperimentSpec::run`], or
    /// the same run resumed from / auto-saved to its durable checkpoint.
    fn run(&self, spec: &ExperimentSpec) -> Outcome<ExperimentOutcome> {
        let Some((dir, every)) = &self.checkpoints else {
            return Ok(spec.run()?);
        };
        std::fs::create_dir_all(dir)?;
        let report = run_resumable(spec, &checkpoint_path(dir, spec), *every)?;
        Ok(spec.outcome(report))
    }
}

/// `spec`'s checkpoint in `dir`, named after the whole spec: the file's own
/// fingerprint covers only the engine configuration, algorithm and client
/// count, so e.g. Fig. 8's IID and non-IID runs of one method would
/// otherwise resume each other.
fn checkpoint_path(dir: &Path, spec: &ExperimentSpec) -> PathBuf {
    dir.join(format!("{:016x}.ckpt", spec_fingerprint(spec)))
}

/// The entries named in `words` (in that order), or all of them.
fn selected(all: bool, words: &[String]) -> Vec<Entry> {
    if all {
        return ENTRIES.to_vec();
    }
    words
        .iter()
        .flat_map(|word| ENTRIES.iter().filter(move |entry| entry.0 == *word))
        .copied()
        .collect()
}

fn main() -> Outcome {
    let names: Vec<&str> = ENTRIES.iter().map(|&(name, _)| name).collect();
    let usage = format!(
        "reproduce <entry>... | --all [--quick|--paper] \
         [--checkpoint-dir <dir> [--checkpoint-every <n>]]\nentries: {}",
        names.join(" ")
    );
    let flags = [
        Flag::Switch("--quick"),
        Flag::Switch("--paper"),
        Flag::Switch("--all"),
        Flag::Value("--checkpoint-dir"),
        Flag::Count("--checkpoint-every"),
    ];
    let args = Args::from_env(&usage, &flags, &names);
    let every = args.count("--checkpoint-every");
    let misuse = if args.has("--all") != args.words().is_empty() {
        Some("name the entries to run, or pass --all")
    } else if every.is_some() && args.value("--checkpoint-dir").is_none() {
        Some("--checkpoint-every needs --checkpoint-dir")
    } else if every == Some(0) {
        Some("--checkpoint-every must be at least 1")
    } else {
        None
    };
    if let Some(error) = misuse {
        eprintln!("error: {error}\nusage: {usage}");
        std::process::exit(2);
    }
    let every = every.unwrap_or(4);
    for (name, entry) in selected(args.has("--all"), args.words()) {
        eprintln!("reproduce: {name}");
        entry(&Repro {
            scale: args.scale(),
            checkpoints: args
                .value("--checkpoint-dir")
                .map(|dir| (Path::new(dir).join(name), every)),
        })?;
    }
    Ok(())
}

/// Fig. 3: the constructed model pool — parameters, GFLOPs, memory and
/// training time of ResNet-101 at x1/x0.75/x0.5/x0.25 for Fjord, SHeteroFL
/// and FedRolex on a Jetson Orin NX.
fn fig3(_: &Repro) -> Outcome {
    let spec = ModelSpec::new(ModelFamily::ResNet101, 100);
    let cost_model = CostModel::default();
    let orin = DeviceCapability::from(&DeviceProfile::jetson_orin_nx());
    let fractions = [1.0, 0.75, 0.5, 0.25];
    let methods = [
        MhflMethod::Fjord,
        MhflMethod::SHeteroFl,
        MhflMethod::FedRolex,
    ];

    let mut table = Table::new(
        "Fig. 3 — illustration of the constructed model pool (Jetson Orin NX)",
        &[
            "Method",
            "Scale",
            "Params(M)",
            "GFLOPs",
            "Memory(MB)",
            "Train time (s)",
        ],
    );
    for method in methods {
        let mut params = Vec::new();
        let mut times = Vec::new();
        for &f in &fractions {
            let stats = spec.stats(f, 1.0);
            let cost = cost_model.round_cost(&stats, method, &orin);
            let params_m = cost_model.effective_params(&stats, method) as f64 / 1e6;
            params.push(params_m);
            times.push(cost.train_time_secs);
            table.push_row(vec![
                method.to_string(),
                format!("R101x{f}"),
                format!("{params_m:.2}"),
                format!("{:.2}", stats.gflops()),
                format!("{:.0}", cost.memory_bytes as f64 / 1e6),
                format!("{:.1}", cost.train_time_secs),
            ]);
        }
        print_series(
            &format!("{method} params(M) [x1, x0.75, x0.5, x0.25]"),
            &params,
        );
        print_series(
            &format!("{method} train-time(s) [x1, x0.75, x0.5, x0.25]"),
            &times,
        );
    }
    println!();
    print_table(&table);
    Ok(())
}

/// The heterogeneous methods the paper runs on `task`: all of them, minus
/// the ones without NLP support on an NLP task.
fn applicable_methods(task: DataTask) -> Vec<MhflMethod> {
    MhflMethod::HETEROGENEOUS
        .into_iter()
        .filter(|m| task.modality() != Modality::Nlp || m.supports_nlp())
        .collect()
}

/// A table cell for a metric that may be missing (e.g. a never-reached
/// target accuracy).
fn or_dash(cell: Option<String>) -> String {
    cell.unwrap_or_else(|| "—".into())
}

/// Figs. 4–6: every applicable method on each of `tasks` under `constraint`,
/// one table per task with global accuracy, time-to-accuracy, stability and
/// effectiveness.
fn constraint_figure(
    r: &Repro,
    title: &str,
    constraint: ConstraintCase,
    tasks: &[DataTask],
) -> Outcome {
    for &task in tasks {
        let spec = r.spec(task, MhflMethod::SHeteroFl, constraint);
        let outcomes = spec.run_comparison(&applicable_methods(task), |s| r.run(s))?;
        let mut table = Table::new(
            format!("{title} — {task} ({})", constraint.label()),
            &[
                "Method",
                "Level",
                "GlobalAcc",
                "TimeToAcc(h)",
                "Stability",
                "Effectiveness",
            ],
        );
        for outcome in &outcomes {
            let row = ComparisonRow::from_outcome(outcome);
            table.push_row(vec![
                row.method,
                row.level,
                format!("{:.3}", row.global_accuracy),
                or_dash(row.time_to_accuracy_hours.map(|h| format!("{h:.2}"))),
                format!("{:.5}", row.stability),
                or_dash(row.effectiveness.map(|e| format!("{e:+.3}"))),
            ]);
        }
        print_table(&table);
    }
    Ok(())
}

/// Figs. 7 and 8: a table of global accuracies, one row per method and one
/// column per labelled variant of the spec.
fn accuracy_matrix<V>(
    r: &Repro,
    title: String,
    methods: &[MhflMethod],
    variants: &[(&str, V)],
    spec: impl Fn(MhflMethod, &V) -> ExperimentSpec,
) -> Outcome {
    let headers: Vec<&str> = std::iter::once("Method")
        .chain(variants.iter().map(|(label, _)| *label))
        .collect();
    let mut table = Table::new(title, &headers);
    for &method in methods {
        let mut row = vec![method.to_string()];
        for (_, variant) in variants {
            let outcome = r.run(&spec(method, variant))?;
            row.push(format!("{:.3}", outcome.summary.global_accuracy));
        }
        table.push_row(row);
    }
    print_table(&table);
    Ok(())
}

/// Fig. 7: accuracy of every method on CIFAR-100 under single and combined
/// constraints.
fn fig7(r: &Repro) -> Outcome {
    let cases = [
        ("Comp", ConstraintCase::COMPUTATION),
        ("Mem", ConstraintCase::Memory),
        ("Comm", ConstraintCase::COMMUNICATION),
        ("Mem+Comm", ConstraintCase::MEMORY_PLUS_COMMUNICATION),
        ("Mem+Comm+Comp", ConstraintCase::ALL_COMBINED),
    ];
    accuracy_matrix(
        r,
        "Fig. 7 — analysis of constraint combinations (CIFAR-100 accuracy)".into(),
        &MhflMethod::HETEROGENEOUS,
        &cases,
        |method, &case| r.spec(DataTask::Cifar100, method, case),
    )
}

/// Fig. 8: non-IID robustness under the computation constraint on
/// CIFAR-100, CIFAR-10 and AG-News.
fn fig8(r: &Repro) -> Outcome {
    let partitions = [
        ("iid", Partition::Iid),
        ("niid-0.5", Partition::Dirichlet { alpha: 0.5 }),
        ("niid-5", Partition::Dirichlet { alpha: 5.0 }),
    ];
    for task in [DataTask::Cifar100, DataTask::Cifar10, DataTask::AgNews] {
        accuracy_matrix(
            r,
            format!("Fig. 8 — non-IID performance on {task} (computation-limited)"),
            &applicable_methods(task),
            &partitions,
            |method, &partition| {
                r.spec(task, method, ConstraintCase::COMPUTATION)
                    .with_partition(partition)
            },
        )?;
    }
    Ok(())
}

/// Fig. 9: accuracy and time-to-accuracy versus the number of clients under
/// the memory-limited constraint on CIFAR-100.
fn fig9(r: &Repro) -> Outcome {
    let client_counts: Vec<usize> = match r.scale {
        RunScale::Quick => vec![4, 8, 12],
        RunScale::Standard => vec![20, 40, 80],
        RunScale::Paper => vec![100, 200, 500],
    };
    let methods = [
        MhflMethod::Fjord,
        MhflMethod::SHeteroFl,
        MhflMethod::FedRolex,
        MhflMethod::FeDepth,
        MhflMethod::InclusiveFl,
        MhflMethod::DepthFl,
        MhflMethod::FedEt,
    ];
    let mut table = Table::new(
        "Fig. 9 — scalability on memory-limited CIFAR-100",
        &["Method", "Clients", "Accuracy", "TimeToAcc(h)"],
    );
    for method in methods {
        let mut accs = Vec::new();
        for &clients in &client_counts {
            let spec = r
                .spec(DataTask::Cifar100, method, ConstraintCase::Memory)
                .with_num_clients(clients)
                .with_target_accuracy(0.3);
            let outcome = r.run(&spec)?;
            let tta = outcome.summary.time_to_accuracy_secs;
            accs.push(outcome.summary.global_accuracy as f64);
            table.push_row(vec![
                method.to_string(),
                clients.to_string(),
                format!("{:.3}", outcome.summary.global_accuracy),
                or_dash(tta.map(|s| format!("{:.2}", s / 3600.0))),
            ]);
        }
        print_series(
            &format!("{method} accuracy vs clients {client_counts:?}"),
            &accs,
        );
    }
    print_table(&table);
    Ok(())
}

/// Table I: system statistics of the x0.5 ResNet-101 produced by four
/// heterogeneous methods, on Jetson Orin NX and Jetson Nano.
fn table1(_: &Repro) -> Outcome {
    let spec = ModelSpec::new(ModelFamily::ResNet101, 100);
    let half = spec.stats(0.5, 1.0);
    let cost_model = CostModel::default();
    let orin = DeviceCapability::from(&DeviceProfile::jetson_orin_nx());
    let nano = DeviceCapability::from(&DeviceProfile::jetson_nano());

    let mut table = Table::new(
        "Table I — models generated by different heterogeneous methods (ResNet-101 x0.5)",
        &[
            "Method",
            "Params(M)",
            "Train time N (s)",
            "Train time O (s)",
            "Memory (MB)",
        ],
    );
    for method in [
        MhflMethod::SHeteroFl,
        MhflMethod::DepthFl,
        MhflMethod::FedRolex,
        MhflMethod::FeDepth,
    ] {
        let nano_cost = cost_model.round_cost(&half, method, &nano);
        let orin_cost = cost_model.round_cost(&half, method, &orin);
        table.push_row(vec![
            method.to_string(),
            format!(
                "{:.2}",
                cost_model.effective_params(&half, method) as f64 / 1e6
            ),
            format!("{:.1}", nano_cost.train_time_secs),
            format!("{:.1}", orin_cost.train_time_secs),
            format!("{:.0}", orin_cost.memory_bytes as f64 / 1e6),
        ]);
    }
    print_table(&table);
    Ok(())
}

/// Table II: the platform inventory (heterogeneity level × algorithm ×
/// models/datasets per modality).
fn table2(_: &Repro) -> Outcome {
    let mut table = Table::new(
        "Table II — statistics of the PracMHBench platform",
        &["Level", "Algorithm", "CV", "NLP", "HAR"],
    );
    for row in PlatformInventory::rows() {
        table.push_row(vec![
            row.level.to_string(),
            row.method.to_string(),
            row.cv,
            row.nlp,
            row.har,
        ]);
    }
    print_table(&table);
    Ok(())
}

/// Table III: the edge devices used in the platform construction.
fn table3(_: &Repro) -> Outcome {
    let mut table = Table::new(
        "Table III — edge devices used in the platform construction",
        &[
            "Device",
            "Sustained GFLOP/s",
            "GPU",
            "Memory (GiB)",
            "Bandwidth (Mbps)",
        ],
    );
    for device in DeviceProfile::all() {
        table.push_row(vec![
            device.name.clone(),
            format!("{:.0}", device.gflops),
            if device.has_gpu { "yes" } else { "no" }.into(),
            format!("{:.0}", device.memory_gib()),
            format!("{:.0}", device.bandwidth_mbps),
        ]);
    }
    print_table(&table);
    Ok(())
}

/// The spec both execution studies sweep: SHeteroFL on memory-limited
/// UCI-HAR.
fn execution_base(r: &Repro) -> ExperimentSpec {
    r.spec(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_seed(42)
    .with_target_accuracy(0.5)
}

/// Async-vs-sync execution study: one spec under synchronous rounds and
/// FedBuff-style buffered aggregation — time-to-accuracy, mean staleness,
/// client-slot utilisation and uploaded bytes per mode — each mode checked
/// to be byte-identically reproducible from the experiment seed.
fn async_study(r: &Repro) -> Outcome {
    let scale = r.scale;
    let base = execution_base(r);
    let modes: [(&str, Execution); 3] = [
        ("sync", Execution::Synchronous),
        ("async-k2", Execution::async_buffered(2)),
        ("async-k4", Execution::async_buffered(4)),
    ];

    println!(
        "Execution study: SHeteroFL on {} ({scale:?} scale)\n",
        base.task
    );
    let mut table = Table::new(
        "Synchronous rounds vs FedBuff-style buffered aggregation",
        &[
            "Mode",
            "GlobalAcc",
            "SimTime(s)",
            "TimeToAcc(s)",
            "MeanStaleness",
            "Utilisation",
            "UploadedMB",
        ],
    );
    for (label, execution) in modes {
        let spec = base.with_execution(execution);
        let outcome = r.run(&spec)?;
        // Determinism gate: a fresh second run from the same seed must
        // produce a byte-identical report (the Debug rendering covers every
        // field, including per-client telemetry). Under --checkpoint-dir the
        // first run may have come back from its checkpoint, so this also
        // holds resumed runs to the fresh one.
        let again = spec.run()?;
        assert_eq!(
            format!("{:?}", outcome.report),
            format!("{:?}", again.report),
            "{label} execution is not deterministic"
        );
        println!("{label}: deterministic across two seeded runs ✓");
        let report = &outcome.report;
        table.push_row(vec![
            label.to_string(),
            format!("{:.3}", outcome.summary.global_accuracy),
            format!("{:.1}", outcome.summary.total_time_secs),
            or_dash(
                outcome
                    .summary
                    .time_to_accuracy_secs
                    .map(|s| format!("{s:.1}")),
            ),
            format!("{:.2}", report.mean_staleness()),
            format!("{:.2}", report.utilisation()),
            format!("{:.2}", report.total_payload_bytes() as f64 / 1e6),
        ]);
    }
    println!();
    print_table(&table);
    println!("\nSynchronous rounds wait for stragglers (low utilisation, zero staleness);");
    println!("buffered aggregation refills slots as updates land, trading staleness for");
    println!("wall-clock progress. Larger buffers smooth staleness but aggregate later.");
    Ok(())
}

/// The per-update telemetry of a finished run. Its records are exactly what
/// the run's `RoundCompleted` events carried, so replaying them through the
/// observer gives the rows it would have collected live — for a run resumed
/// from a checkpoint as much as for a fresh one.
fn telemetry(report: &MetricsReport) -> CsvTelemetry {
    let mut telemetry = CsvTelemetry::new();
    for record in &report.records {
        telemetry.on_event(&RoundEvent::RoundCompleted {
            round: record.round,
            sim_time_secs: record.sim_time_secs,
            record: Some(record.clone()),
        });
    }
    telemetry
}

/// Buffer-size sweep of the asynchronous engine: per buffer size,
/// client-slot utilisation, mean staleness, dropped updates (under a
/// `max_staleness` bound) and time-to-accuracy. Writes
/// `FIG_buffer_sweep.csv` (one row per buffer size, the figure's x-axis) and
/// `FIG_round_telemetry.csv` (per-update rows of the largest-buffer run)
/// into the working directory.
fn buffer_sweep(r: &Repro) -> Outcome {
    let scale = r.scale;
    let base = execution_base(r)
        // A finite staleness bound so the dropped-updates column is exercised
        // at small buffer sizes (very stale stragglers are discarded).
        .with_max_staleness(Some(8));

    let buffer_sizes: &[usize] = match scale {
        RunScale::Quick => &[1, 2, 4],
        _ => &[1, 2, 4, 8, 16],
    };

    println!(
        "Buffer-size sweep: SHeteroFL on {} ({scale:?} scale, async, max_staleness = 8)\n",
        base.task
    );
    let mut table = Table::new(
        "Utilisation and staleness vs FedBuff buffer size",
        &[
            "BufferSize",
            "GlobalAcc",
            "SimTime(s)",
            "TimeToAcc(s)",
            "MeanStaleness",
            "Utilisation",
            "Dropped",
        ],
    );
    let mut sweep_csv =
        String::from("buffer_size,global_accuracy,sim_time_secs,time_to_accuracy_secs,mean_staleness,utilisation,dropped_updates,total_payload_bytes\n");
    let mut deepest = None;
    for &buffer_size in buffer_sizes {
        let spec = base.with_execution(Execution::async_buffered(buffer_size));
        let report = r.run(&spec)?.report;
        let tta = report.time_to_accuracy(base.target_accuracy);
        table.push_row(vec![
            buffer_size.to_string(),
            format!("{:.3}", report.final_accuracy()),
            format!("{:.1}", report.total_sim_time_secs()),
            or_dash(tta.map(|s| format!("{s:.1}"))),
            format!("{:.2}", report.mean_staleness()),
            format!("{:.3}", report.utilisation()),
            report.dropped_updates().to_string(),
        ]);
        sweep_csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            buffer_size,
            report.final_accuracy(),
            report.total_sim_time_secs(),
            tta.map(|s| s.to_string()).unwrap_or_default(),
            report.mean_staleness(),
            report.utilisation(),
            report.dropped_updates(),
            report.total_payload_bytes(),
        ));
        deepest = Some((buffer_size, report));
    }
    print_table(&table);

    std::fs::write("FIG_buffer_sweep.csv", &sweep_csv)?;
    let (deepest_size, deepest) = deepest.ok_or("at least one sweep point")?;
    let deepest = telemetry(&deepest);
    std::fs::write("FIG_round_telemetry.csv", deepest.updates_csv())?;
    println!(
        "\nWrote FIG_buffer_sweep.csv ({} points) and FIG_round_telemetry.csv ({} update rows, K = {}).",
        buffer_sizes.len(),
        deepest.num_update_rows(),
        deepest_size
    );
    println!("Small buffers aggregate eagerly (high utilisation, stale updates dropped or");
    println!("discounted); large buffers smooth staleness but wait longer per aggregation.");
    Ok(())
}

/// Expected byzantine fraction of the attacked population.
const ATTACK_FRACTION: f64 = 0.4;
/// Mid-round churn probability of the churn scenario.
const CHURN_FRACTION: f64 = 0.3;
/// Joint L2 ball of the norm-clip counter-measure.
const CLIP_NORM: f32 = 5.0;

/// One representative method per algorithm family.
const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

/// The scenarios, in column order: (table header, JSON key). The order is
/// that of the specs [`run_family`] builds.
const SCENARIOS: [(&str, &str); 6] = [
    ("Clean", "clean"),
    ("Byzantine", "byzantine"),
    ("+Median", "byzantine_median"),
    ("+Clip", "byzantine_clip"),
    ("Churn", "churn"),
    ("Drift", "drift"),
];
// Indices into SCENARIOS of the runs the recovery figures compare.
const CLEAN: usize = 0;
const BYZANTINE: usize = 1;
const MEDIAN: usize = 2;
const CLIP: usize = 3;

/// One family's global accuracy in each of [`SCENARIOS`].
struct FamilyResult {
    method: MhflMethod,
    accuracy: [f32; SCENARIOS.len()],
}

impl FamilyResult {
    /// Accuracy the attack costs relative to clean.
    fn loss(&self) -> f32 {
        self.accuracy[CLEAN] - self.accuracy[BYZANTINE]
    }

    /// Fraction of the attack's accuracy loss the counter-measure of
    /// scenario `defended` recovers (`None` when the attack cost nothing to
    /// recover).
    fn recovery(&self, defended: usize) -> Option<f32> {
        let loss = self.loss();
        if loss <= 1e-4 {
            return None;
        }
        Some((self.accuracy[defended] - self.accuracy[BYZANTINE]) / loss)
    }
}

fn adversarial_base(r: &Repro, method: MhflMethod) -> ExperimentSpec {
    r.spec(DataTask::UciHar, method, ConstraintCase::COMPUTATION)
        .with_seed(17)
}

fn run_family(r: &Repro, method: MhflMethod) -> Outcome<FamilyResult> {
    let base = adversarial_base(r, method);
    let attacked = base.with_corruption(Corruption::SignFlip {
        fraction: ATTACK_FRACTION,
    });
    let rounds = match r.scale {
        RunScale::Quick => 4,
        RunScale::Standard => 20,
        RunScale::Paper => 1000,
    };
    let specs = [
        base,
        attacked,
        attacked.with_robust_aggregation(RobustAggregation::CoordinateMedian),
        attacked.with_robust_aggregation(RobustAggregation::NormClip {
            max_norm: CLIP_NORM,
        }),
        base.with_churn(CHURN_FRACTION),
        base.with_drift(Drift::LabelShift {
            period_rounds: (rounds / 2).max(1),
        }),
    ];
    let mut accuracy = [0.0; SCENARIOS.len()];
    for (acc, spec) in accuracy.iter_mut().zip(&specs) {
        *acc = r.run(spec)?.summary.global_accuracy;
    }
    Ok(FamilyResult { method, accuracy })
}

/// Records a clean run's telemetry and replays it as the scheduling policy.
/// Returns (replayed accuracy, rounds completed).
fn run_trace_replay(r: &Repro) -> Outcome<(f32, usize)> {
    let spec = adversarial_base(r, MhflMethod::SHeteroFl);
    let recorded = telemetry(&r.run(&spec)?.report);
    let trace = TraceReplay::from_csv(&recorded.updates_csv())?.with_slot_secs(5.0);
    // The replayed scheduler is no field of the spec, so neither `spec.run`
    // nor a checkpoint can reproduce this run: it is driven here, fresh.
    let ctx = spec.build_context()?;
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx)?;
    session.set_scheduler(Box::new(trace));
    let report = session.drain()?;
    Ok((report.final_accuracy(), report.records.len()))
}

fn json_opt(x: Option<f32>) -> String {
    x.map(|v| format!("{v:.4}"))
        .unwrap_or_else(|| "null".into())
}

/// The failure-mode scenario suite, one representative method per algorithm
/// family: clean; a seeded sign-flip attack on an expected 40% of the
/// population; the same attack with coordinate-median or norm-clip
/// aggregation (and how much of the lost accuracy each claws back); 30%
/// mid-round churn; label drift halfway through the run; and the clean
/// run's recorded availability replayed as the scheduling policy. Writes
/// the per-scenario accuracies to `BENCH_adversarial_study.json`.
fn adversarial_study(repro: &Repro) -> Outcome {
    let scale = repro.scale;
    println!("Adversarial & churn scenario study ({scale:?} scale)\n");

    let results = FAMILIES
        .iter()
        .map(|&method| run_family(repro, method))
        .collect::<Outcome<Vec<_>>>()?;
    let (replay_acc, replay_rounds) = run_trace_replay(repro)?;

    let headers: Vec<&str> = std::iter::once("Family")
        .chain(SCENARIOS.map(|(header, _)| header))
        .chain(["MedianRecovery"])
        .collect();
    let mut table = Table::new(
        format!(
            "Global accuracy per scenario (sign-flip {ATTACK_FRACTION}, churn {CHURN_FRACTION})"
        ),
        &headers,
    );
    for r in &results {
        let mut row = vec![r.method.display_name().to_string()];
        row.extend(r.accuracy.iter().map(|acc| format!("{acc:.3}")));
        row.push(or_dash(
            r.recovery(MEDIAN).map(|f| format!("{:.0}%", f * 100.0)),
        ));
        table.push_row(row);
    }
    print_table(&table);
    println!("\ntrace-replay (SHeteroFL): accuracy {replay_acc:.3} over {replay_rounds} rounds");

    // The suite's headline claim: at least one family where the attack
    // visibly hurts and the coordinate median recovers at least half of the
    // lost accuracy.
    let best = results
        .iter()
        .filter_map(|r| r.recovery(MEDIAN).map(|f| (r, f)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    match best {
        Some((r, f)) => {
            println!(
                "best median recovery: {} ({:.0}% of a {:.3} accuracy loss)",
                r.method.display_name(),
                f * 100.0,
                r.loss()
            );
            assert!(
                f >= 0.5,
                "coordinate median should recover at least half the byzantine \
                 accuracy loss in some family (best: {:.0}%)",
                f * 100.0
            );
        }
        None => println!("attack cost no accuracy at this scale; nothing to recover"),
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!(
        "  \"attack\": {{ \"kind\": \"sign-flip\", \"fraction\": {ATTACK_FRACTION} }},\n"
    ));
    json.push_str(&format!("  \"churn_fraction\": {CHURN_FRACTION},\n"));
    json.push_str(&format!("  \"clip_norm\": {CLIP_NORM},\n"));
    json.push_str("  \"families\": {\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {{\n", r.method.display_name()));
        for ((_, key), acc) in SCENARIOS.iter().zip(r.accuracy) {
            json.push_str(&format!("      \"{key}\": {acc:.4},\n"));
        }
        json.push_str(&format!("      \"byzantine_loss\": {:.4},\n", r.loss()));
        json.push_str(&format!(
            "      \"median_recovery\": {},\n",
            json_opt(r.recovery(MEDIAN))
        ));
        json.push_str(&format!(
            "      \"clip_recovery\": {}\n",
            json_opt(r.recovery(CLIP))
        ));
        json.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"trace_replay\": {{ \"accuracy\": {replay_acc:.4}, \"rounds\": {replay_rounds} }}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_adversarial_study.json", &json)?;
    eprintln!("adversarial_study: wrote BENCH_adversarial_study.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_fl::{Schedule, Staleness};

    /// This binary's source, and the benchmark's workload table.
    const REPRODUCE: &str = include_str!("reproduce.rs");
    const WORKLOADS: &str = include_str!("../../../../examples/mhbench/workloads.rs");

    /// Where a knob variant earns its committed row: the `reproduce` entry
    /// or mhbench workload that constructs it, and the text naming it there.
    /// The inert `None` variants are the adversarial study's clean column.
    enum Row {
        Entry(&'static str, &'static str),
        Workload(&'static str, &'static str),
    }

    const CLEAN_COLUMN: Row = Row::Entry("adversarial_study", "\"clean\"");

    // One exhaustive match per knob enum, so a variant without a row does
    // not compile.
    fn schedule_row(knob: Schedule) -> Row {
        match knob {
            Schedule::Uniform => Row::Workload("har_async_lazy_1m", "Schedule::Uniform"),
        }
    }

    fn staleness_row(knob: Staleness) -> Row {
        match knob {
            Staleness::Sqrt => Row::Workload("har_async_lazy_1m", "Staleness::Sqrt"),
        }
    }

    fn corruption_row(knob: Corruption) -> Row {
        match knob {
            Corruption::None => CLEAN_COLUMN,
            Corruption::SignFlip { .. } => Row::Entry("adversarial_study", "Corruption::SignFlip"),
        }
    }

    fn drift_row(knob: Drift) -> Row {
        match knob {
            Drift::None => CLEAN_COLUMN,
            Drift::LabelShift { .. } => Row::Entry("adversarial_study", "Drift::LabelShift"),
        }
    }

    fn robust_row(knob: RobustAggregation) -> Row {
        match knob {
            RobustAggregation::None => CLEAN_COLUMN,
            RobustAggregation::NormClip { .. } => {
                Row::Entry("adversarial_study", "RobustAggregation::NormClip")
            }
            RobustAggregation::CoordinateMedian => {
                Row::Entry("adversarial_study", "RobustAggregation::CoordinateMedian")
            }
        }
    }

    fn execution_row(knob: Execution) -> Row {
        match knob {
            Execution::Synchronous => Row::Entry("async_study", "Execution::Synchronous"),
            Execution::AsyncBuffered { .. } => {
                Row::Workload("har_async_lazy_1m", "Execution::AsyncBuffered")
            }
        }
    }

    #[test]
    fn every_knob_variant_names_its_committed_row() {
        let (reproduce, _tests) = REPRODUCE
            .split_once("#[cfg(test)]")
            .expect("the test module is last");
        let rows = [
            schedule_row(Schedule::Uniform),
            staleness_row(Staleness::Sqrt),
            corruption_row(Corruption::None),
            corruption_row(Corruption::SignFlip { fraction: 0.4 }),
            drift_row(Drift::None),
            drift_row(Drift::LabelShift { period_rounds: 1 }),
            robust_row(RobustAggregation::None),
            robust_row(RobustAggregation::NormClip { max_norm: 5.0 }),
            robust_row(RobustAggregation::CoordinateMedian),
            execution_row(Execution::Synchronous),
            execution_row(Execution::async_buffered(2)),
        ];
        for row in rows {
            let (row, source, names) = match row {
                Row::Entry(entry, names) => {
                    assert!(ENTRIES.iter().any(|&(name, _)| name == entry), "{entry}");
                    (entry, reproduce, names)
                }
                Row::Workload(workload, names) => {
                    let named = format!("name: \"{workload}\"");
                    assert!(WORKLOADS.contains(&named), "{workload}");
                    (workload, WORKLOADS, names)
                }
            };
            assert!(source.contains(names), "{row} does not name {names}");
        }
    }

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
    fn entry_names_are_unique_and_all_runs_each_once() {
        let names: Vec<&str> = ENTRIES.iter().map(|&(name, _)| name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        let all: Vec<&str> = selected(true, &[]).iter().map(|&(name, _)| name).collect();
        assert_eq!(all, names);
        let picked = selected(false, &["fig8".into(), "fig4".into()]);
        assert_eq!(
            picked.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            ["fig8", "fig4"]
        );
    }

    #[test]
    fn checkpoint_names_cover_the_whole_spec() {
        let dir = Path::new("ckpts");
        let base = checkpoint_path(dir, &spec());
        assert_eq!(base, checkpoint_path(dir, &spec()));
        for other in [
            spec().with_partition(Partition::Dirichlet { alpha: 0.5 }),
            spec().with_num_clients(9),
            spec().with_seed(18),
        ] {
            assert_ne!(checkpoint_path(dir, &other), base, "{other:?}");
        }
    }

    #[test]
    fn checkpointed_runs_equal_plain_runs_fresh_and_resumed() {
        let dir = std::env::temp_dir().join(format!("mhfl_reproduce_{}", std::process::id()));
        let repro = Repro {
            scale: RunScale::Quick,
            checkpoints: Some((dir.clone(), 1)),
        };
        let expected = spec().run().unwrap();
        assert_eq!(repro.run(&spec()).unwrap(), expected, "fresh");
        assert!(checkpoint_path(&dir, &spec()).exists());
        assert_eq!(repro.run(&spec()).unwrap(), expected, "resumed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
