//! Figure regeneration: buffer-size sweep of the asynchronous engine.
//!
//! Sweeps the FedBuff buffer size at the configured scale and records, per
//! buffer size, client-slot utilisation, mean/max staleness, dropped
//! updates (under a `max_staleness` bound) and time-to-accuracy — the raw
//! material for the "utilisation/staleness vs buffer size" figure the
//! ROADMAP called for. Built entirely on the streaming session API: a
//! [`CsvTelemetry`] observer collects per-update telemetry while the run is
//! in flight, and the per-round CSVs are written next to the summary.
//!
//! Outputs (in the working directory):
//!
//! * `FIG_buffer_sweep.csv` — one row per buffer size (the figure's x-axis);
//! * `FIG_round_telemetry.csv` — per-update rows of the largest-buffer run
//!   (dispatch/arrival/staleness per aggregated update).
//!
//! ```bash
//! cargo run --release -p mhfl-bench --bin figures [-- --quick|--paper]
//! ```
//!
//! With `--checkpoint-dir <dir>` every sweep point auto-saves a durable
//! checkpoint (`<dir>/buffer_<k>.ckpt`, every `--checkpoint-every <n>`
//! rounds, default 4) and resumes from it when the file already exists, so
//! an interrupted sweep relaunched with the same arguments continues
//! bit-exactly instead of starting over. Telemetry rows for resumed points
//! are rebuilt from the final report's records, which survive in the
//! checkpoint.

use std::path::PathBuf;

use mhfl_algorithms::build_algorithm;
use mhfl_bench::{
    arg_usize, next_tolerating_save_failure, print_table, scale_from_args, RunScale, Table,
};
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use mhfl_net::cli::arg_value;
use pracmhbench_core::{
    CheckpointObserver, CsvTelemetry, Execution, ExperimentSpec, MetricsReport, Observer,
    RoundEvent,
};

/// One sweep point.
struct SweepPoint {
    buffer_size: usize,
    report: MetricsReport,
    telemetry: CsvTelemetry,
}

fn run_point(
    base: ExperimentSpec,
    buffer_size: usize,
    durable: Option<&DurableSweep>,
) -> SweepPoint {
    let spec = base.with_execution(Execution::async_buffered(buffer_size));
    let ctx = spec.build_context().expect("context builds");
    let mut algorithm = build_algorithm(spec.method);
    // Declared before the session so the mutable borrow the observer takes
    // can outlive it; the collector stays readable after the session ends.
    let mut telemetry = CsvTelemetry::new();
    let ckpt_path = durable.map(|d| d.point_path(buffer_size));
    let resumed = ckpt_path.as_ref().is_some_and(|p| p.exists());
    let mut session = match ckpt_path.as_ref().filter(|_| resumed) {
        Some(path) => {
            let session = spec
                .resume_from(algorithm.as_mut(), &ctx, path)
                .expect("checkpoint restores");
            eprintln!(
                "figures: buffer {buffer_size} resumes from {} at round {}",
                path.display(),
                session.completed_rounds()
            );
            session
        }
        None => spec.open(algorithm.as_mut(), &ctx).expect("session opens"),
    };
    session.observe(Box::new(&mut telemetry));
    if let (Some(path), Some(d)) = (ckpt_path.as_ref(), durable) {
        session.observe(Box::new(CheckpointObserver::every(path, d.every)));
    }
    let mut report = None;
    // A transient auto-save failure must not lose the sweep's in-memory
    // progress: the session stays live, the run continues on the previous
    // good checkpoint.
    while let Some(event) = next_tolerating_save_failure(&mut session).expect("session advances") {
        if let RoundEvent::RunCompleted { report: r } = event {
            report = Some(r);
        }
    }
    drop(session);
    let report = report.expect("run completed");
    if resumed {
        // The live observer only saw post-resume events; the records in the
        // restored report cover the full run, so rebuild the rows from them.
        telemetry = CsvTelemetry::new();
        for record in &report.records {
            telemetry.on_event(&RoundEvent::RoundCompleted {
                round: record.round,
                sim_time_secs: record.sim_time_secs,
                record: Some(record.clone()),
            });
        }
    }
    SweepPoint {
        buffer_size,
        report,
        telemetry,
    }
}

/// `--checkpoint-dir` configuration: where each sweep point's durable
/// checkpoint lives and how often it is refreshed.
struct DurableSweep {
    dir: PathBuf,
    every: usize,
}

impl DurableSweep {
    fn from_args() -> Option<Self> {
        let args: Vec<String> = std::env::args().collect();
        let dir = PathBuf::from(arg_value(&args, "--checkpoint-dir")?);
        std::fs::create_dir_all(&dir).expect("create --checkpoint-dir");
        Some(DurableSweep {
            dir,
            every: arg_usize("--checkpoint-every").unwrap_or(4),
        })
    }

    fn point_path(&self, buffer_size: usize) -> PathBuf {
        self.dir.join(format!("buffer_{buffer_size}.ckpt"))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_args();
    let base = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(scale)
    .with_seed(42)
    .with_target_accuracy(0.5)
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
    let durable = DurableSweep::from_args();
    let mut points = Vec::new();
    for &buffer_size in buffer_sizes {
        let point = run_point(base, buffer_size, durable.as_ref());
        let report = &point.report;
        let tta = report.time_to_accuracy(base.target_accuracy);
        table.push_row(vec![
            point.buffer_size.to_string(),
            format!("{:.3}", report.final_accuracy()),
            format!("{:.1}", report.total_sim_time_secs()),
            tta.map(|s| format!("{s:.1}")).unwrap_or_else(|| "—".into()),
            format!("{:.2}", report.mean_staleness()),
            format!("{:.3}", report.utilisation()),
            report.dropped_updates().to_string(),
        ]);
        sweep_csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            point.buffer_size,
            report.final_accuracy(),
            report.total_sim_time_secs(),
            tta.map(|s| s.to_string()).unwrap_or_default(),
            report.mean_staleness(),
            report.utilisation(),
            report.dropped_updates(),
            report.total_payload_bytes(),
        ));
        points.push(point);
    }
    print_table(&table);

    std::fs::write("FIG_buffer_sweep.csv", &sweep_csv)?;
    let deepest = points.last().expect("at least one sweep point");
    std::fs::write("FIG_round_telemetry.csv", deepest.telemetry.updates_csv())?;
    println!(
        "\nWrote FIG_buffer_sweep.csv ({} points) and FIG_round_telemetry.csv ({} update rows, K = {}).",
        points.len(),
        deepest.telemetry.num_update_rows(),
        deepest.buffer_size
    );
    println!("Small buffers aggregate eagerly (high utilisation, stale updates dropped or");
    println!("discounted); large buffers smooth staleness but wait longer per aggregation.");
    Ok(())
}
