//! `adversarial_study` — the failure-mode scenario suite across families.
//!
//! The platform's baseline threat model is benign heterogeneity: clients are
//! slow or offline, never wrong. This binary measures what the adversarial
//! and churn knobs of PR 8 actually cost, one representative method per
//! algorithm family, and emits the per-scenario accuracy deltas into
//! `BENCH_adversarial_study.json`:
//!
//! * **clean** — the reference run, no knob touched;
//! * **byzantine** — a seeded sign-flip attack (`Corruption::SignFlip`) on
//!   an expected 40% of the population;
//! * **byzantine + coordinate-median / + norm-clip** — the same attack with
//!   the server-side robust-aggregation counter-measures enabled, reporting
//!   how much of the lost accuracy each one claws back;
//! * **churn** — 30% of dispatched clients silently vanish mid-round;
//! * **drift** — label rotation halfway through the run
//!   (`Drift::LabelShift`);
//! * **trace-replay** — the availability windows recorded from the clean
//!   run's telemetry are replayed as the scheduling policy, closing the
//!   telemetry loop.
//!
//! ```bash
//! cargo run --release -p mhfl-bench --bin adversarial_study [-- --quick|--paper]
//! ```

use mhfl_algorithms::build_algorithm;
use mhfl_bench::{print_table, scale_from_args, Table};
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{
    Corruption, CsvTelemetry, Drift, ExperimentSpec, RobustAggregation, RoundEvent, RunScale,
    TraceReplay,
};

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

/// Per-family scenario accuracies.
struct FamilyResult {
    method: MhflMethod,
    clean: f32,
    byzantine: f32,
    byz_median: f32,
    byz_clip: f32,
    churn: f32,
    drift: f32,
}

impl FamilyResult {
    /// Accuracy the attack costs relative to clean.
    fn loss(&self) -> f32 {
        self.clean - self.byzantine
    }

    /// Fraction of the attack's accuracy loss a counter-measure recovers
    /// (`None` when the attack cost nothing to recover).
    fn recovery(&self, defended: f32) -> Option<f32> {
        let loss = self.loss();
        if loss <= 1e-4 {
            return None;
        }
        Some((defended - self.byzantine) / loss)
    }
}

fn base_spec(method: MhflMethod, scale: RunScale) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::UciHar,
        method,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(scale)
    .with_seed(17)
}

fn accuracy(spec: &ExperimentSpec) -> f32 {
    spec.run().expect("experiment runs").summary.global_accuracy
}

fn run_family(method: MhflMethod, scale: RunScale) -> FamilyResult {
    let base = base_spec(method, scale);
    let attack = Corruption::SignFlip {
        fraction: ATTACK_FRACTION,
    };
    let rounds = match scale {
        RunScale::Quick => 4,
        RunScale::Standard => 20,
        RunScale::Paper => 1000,
    };
    FamilyResult {
        method,
        clean: accuracy(&base),
        byzantine: accuracy(&base.with_corruption(attack)),
        byz_median: accuracy(
            &base
                .with_corruption(attack)
                .with_robust_aggregation(RobustAggregation::CoordinateMedian),
        ),
        byz_clip: accuracy(&base.with_corruption(attack).with_robust_aggregation(
            RobustAggregation::NormClip {
                max_norm: CLIP_NORM,
            },
        )),
        churn: accuracy(&base.with_churn(CHURN_FRACTION)),
        drift: accuracy(&base.with_drift(Drift::LabelShift {
            period_rounds: (rounds / 2).max(1),
        })),
    }
}

/// Records a clean run's telemetry and replays it as the scheduling policy.
/// Returns (replayed accuracy, rounds completed).
fn run_trace_replay(scale: RunScale) -> (f32, usize) {
    let spec = base_spec(MhflMethod::SHeteroFl, scale);
    let ctx = spec.build_context().expect("context builds");
    let mut algorithm = build_algorithm(spec.method);
    let mut csv = CsvTelemetry::new();
    let mut session = spec.open(algorithm.as_mut(), &ctx).expect("session opens");
    session.observe(Box::new(&mut csv));
    while session.next_event().expect("session advances").is_some() {}
    drop(session);

    let trace = TraceReplay::from_csv(&csv.updates_csv())
        .expect("recorded telemetry parses")
        .with_slot_secs(5.0);
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx).expect("session opens");
    session.set_scheduler(Box::new(trace));
    let mut report = None;
    while let Some(event) = session.next_event().expect("replay advances") {
        if let RoundEvent::RunCompleted { report: r } = event {
            report = Some(r);
        }
    }
    let report = report.expect("replay completes");
    (report.final_accuracy(), report.records.len())
}

fn json_opt(x: Option<f32>) -> String {
    x.map(|v| format!("{v:.4}"))
        .unwrap_or_else(|| "null".into())
}

fn main() {
    let scale = scale_from_args();
    println!("Adversarial & churn scenario study ({scale:?} scale)\n");

    let results: Vec<FamilyResult> = FAMILIES
        .iter()
        .map(|&method| run_family(method, scale))
        .collect();
    let (replay_acc, replay_rounds) = run_trace_replay(scale);

    let mut table = Table::new(
        format!(
            "Global accuracy per scenario (sign-flip {ATTACK_FRACTION}, churn {CHURN_FRACTION})"
        ),
        &[
            "Family",
            "Clean",
            "Byzantine",
            "+Median",
            "+Clip",
            "Churn",
            "Drift",
            "MedianRecovery",
        ],
    );
    for r in &results {
        table.push_row(vec![
            r.method.display_name().to_string(),
            format!("{:.3}", r.clean),
            format!("{:.3}", r.byzantine),
            format!("{:.3}", r.byz_median),
            format!("{:.3}", r.byz_clip),
            format!("{:.3}", r.churn),
            format!("{:.3}", r.drift),
            r.recovery(r.byz_median)
                .map(|f| format!("{:.0}%", f * 100.0))
                .unwrap_or_else(|| "—".to_string()),
        ]);
    }
    print_table(&table);
    println!("\ntrace-replay (SHeteroFL): accuracy {replay_acc:.3} over {replay_rounds} rounds");

    // The suite's headline claim: at least one family where the attack
    // visibly hurts and the coordinate median recovers at least half of the
    // lost accuracy.
    let best = results
        .iter()
        .filter_map(|r| r.recovery(r.byz_median).map(|f| (r, f)))
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
        json.push_str(&format!("      \"clean\": {:.4},\n", r.clean));
        json.push_str(&format!("      \"byzantine\": {:.4},\n", r.byzantine));
        json.push_str(&format!(
            "      \"byzantine_median\": {:.4},\n",
            r.byz_median
        ));
        json.push_str(&format!("      \"byzantine_clip\": {:.4},\n", r.byz_clip));
        json.push_str(&format!("      \"churn\": {:.4},\n", r.churn));
        json.push_str(&format!("      \"drift\": {:.4},\n", r.drift));
        json.push_str(&format!("      \"byzantine_loss\": {:.4},\n", r.loss()));
        json.push_str(&format!(
            "      \"median_recovery\": {},\n",
            json_opt(r.recovery(r.byz_median))
        ));
        json.push_str(&format!(
            "      \"clip_recovery\": {}\n",
            json_opt(r.recovery(r.byz_clip))
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
    std::fs::write("BENCH_adversarial_study.json", &json)
        .expect("write BENCH_adversarial_study.json");
    eprintln!("adversarial_study: wrote BENCH_adversarial_study.json");
}
