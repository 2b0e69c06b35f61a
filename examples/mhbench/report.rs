//! Output: the contract of `BENCHMARK.json` (compiled in, so names, units
//! and bounds live in exactly one place), the provenance stamp, the full
//! document, the human table, and `--check-against`.

use std::process::Command;

use crate::json::{self, Json};
use crate::run::{Metric, Outcome};

/// One metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let declared = |section: &str| -> Vec<Declared> {
            doc.get(section)
                .map_or(&[][..], Json::items)
                .iter()
                .map(|entry| Declared {
                    name: text(entry, "name"),
                    unit: text(entry, "unit"),
                    higher_is_better: text(entry, "better") == "higher",
                    bound: entry.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: doc
                .get("workloads")
                .map_or(&[][..], Json::items)
                .iter()
                .map(|entry| text(entry, "name"))
                .collect(),
            end_to_end: declared("end_to_end"),
            per_layer: declared("per_layer"),
        }
    }
}

/// The `metrics` object of a result line: every declared metric of the
/// section, each exactly once, with its declared unit. `Err` names the
/// first metric that is missing, duplicated or undeclared.
fn metrics_json(declared: &[Declared], measured: &[Metric]) -> Result<Json, String> {
    let mut metrics = Json::obj();
    for metric in declared {
        let mut values = measured.iter().filter(|(name, _)| *name == metric.name);
        let (_, value) = values
            .next()
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if values.next().is_some() {
            return Err(format!("metric {} was measured twice", metric.name));
        }
        metrics.set(
            &metric.name,
            Json::obj()
                .with("value", *value)
                .with("unit", metric.unit.as_str()),
        );
    }
    match measured
        .iter()
        .find(|(name, _)| declared.iter().all(|d| d.name != *name))
    {
        Some((name, _)) => Err(format!("metric {name} is not declared in BENCHMARK.json")),
        None => Ok(metrics),
    }
}

/// The two lines a single-workload run prints last: everything the full
/// report shows for the workload, then the result line proper.
pub fn result_lines(declared: &[Declared], outcome: &Outcome) -> Result<(Json, Json), String> {
    let metrics = metrics_json(declared, &outcome.metrics)?;
    let checks: Vec<Json> = outcome
        .checks
        .iter()
        .map(|check| {
            Json::obj()
                .with("name", check.name)
                .with("ok", check.ok)
                .with("detail", check.detail.as_str())
        })
        .collect();
    let mut detail = outcome.detail.clone();
    if !outcome.specific.is_empty() {
        let mut specific = Json::obj();
        for (name, unit, value) in &outcome.specific {
            specific.set(name, Json::obj().with("value", *value).with("unit", *unit));
        }
        detail.set("workload_specific", specific);
    }
    detail.set("checks", checks);
    let result = Json::obj()
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    Ok((detail, result))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

pub fn provenance(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(unknown);
    Json::obj()
        .with(
            "git_sha",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        )
        .with("cpu_model", cpu_model)
        .with(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .with("seed", seed)
        .with(
            "command_line",
            std::env::args().collect::<Vec<_>>().join(" "),
        )
}

/// About six significant digits, without an exponent.
fn six_digits(v: f64) -> String {
    if v.fract() == 0.0 {
        return format!("{v:.0}");
    }
    let decimals = (5 - v.abs().max(1e-9).log10().floor() as i32).clamp(0, 9);
    format!("{v:.*}", decimals as usize)
}

/// Prints the human table to stderr: one block per section, one row per
/// metric, one column per workload.
pub fn print_table(doc: &Json) {
    let workloads = doc.get("workloads").map_or(&[][..], Json::entries);
    for section in ["end_to_end", "per_layer"] {
        eprintln!();
        eprint!("{:<44}", section);
        for (name, _) in workloads {
            eprint!(" {name:>18}");
        }
        eprintln!();
        // Every metric any workload has, in order of first appearance.
        let mut rows: Vec<(&str, &str)> = Vec::new();
        for (_, workload) in workloads {
            for (metric, entry) in workload.get(section).map_or(&[][..], Json::entries) {
                if rows.iter().all(|(seen, _)| seen != metric) {
                    let unit = entry.get("unit").and_then(Json::as_str).unwrap_or_default();
                    rows.push((metric, unit));
                }
            }
        }
        for (metric, unit) in rows {
            eprint!("{:<44}", format!("{metric} [{unit}]"));
            for (_, workload) in workloads {
                let value = workload
                    .get(section)
                    .and_then(|s| s.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                match value {
                    Some(v) => eprint!(" {:>18}", six_digits(v)),
                    None => eprint!(" {:>18}", "-"),
                }
            }
            eprintln!();
        }
    }
    eprintln!();
    for (name, workload) in workloads {
        let number = |key: &str| {
            workload
                .get(key)
                .and_then(Json::as_f64)
                .map_or("-".into(), six_digits)
        };
        eprintln!(
            "{name}: {} rounds (n = {}, tail = p{:.0}), final_accuracy {}, failed_share {}, \
             wall {} s, digest {}",
            number("rounds"),
            number("n"),
            workload
                .get("round_s_tail_percentile")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            number("final_accuracy"),
            number("failed_share"),
            number("wall_s"),
            workload.get("digest").and_then(Json::as_str).unwrap_or("-"),
        );
        let traced = workload.get("traced").and_then(|t| t.get("checks"));
        for checks in [workload.get("checks"), traced].into_iter().flatten() {
            for check in checks.items() {
                if check.get("ok").and_then(Json::as_bool) != Some(true) {
                    eprintln!(
                        "  FAILED {}: {}",
                        check.get("name").and_then(Json::as_str).unwrap_or("?"),
                        check.get("detail").and_then(Json::as_str).unwrap_or("")
                    );
                }
            }
        }
    }
}

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Compares output `b` (the later run) against output `a`: digests bit-equal
/// per workload, and every (end-to-end metric, workload) pair of `b` no
/// worse than `a` by more than its bound. Prints one row per pair; `true`
/// when everything agrees.
pub fn check_against(contract: &Contract, a: &Json, b: &Json) -> bool {
    let mut agree = true;
    eprintln!(
        "{:<20} {:<16} {:>16} {:>16} {:>9} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for workload in &contract.workloads {
        let side = |doc: &Json| doc.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            eprintln!("{workload:<20} missing from one of the outputs  FAIL");
            agree = false;
            continue;
        };
        let digest = |w: &Json| w.get("digest").and_then(Json::as_str).map(str::to_string);
        let same = digest(&wa).is_some() && digest(&wa) == digest(&wb);
        agree &= same;
        eprintln!(
            "{workload:<20} {:<16} {:>16} {:>16} {:>9} {:>8}  {}",
            "digest",
            digest(&wa).unwrap_or_default(),
            digest(&wb).unwrap_or_default(),
            "-",
            "equal",
            if same { "ok" } else { "FAIL" }
        );
        let mut row = |metric: &str, va: Option<f64>, vb: Option<f64>, bound: String, ok: bool| {
            agree &= ok;
            let (va, vb) = (va.unwrap_or(f64::NAN), vb.unwrap_or(f64::NAN));
            let ratio = if va == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", vb / va)
            };
            eprintln!(
                "{workload:<20} {metric:<16} {va:>16.6} {vb:>16.6} {ratio:>9} {bound:>8}  {}",
                if ok { "ok" } else { "FAIL" }
            );
        };
        for metric in &contract.end_to_end {
            let value = |w: &Json| {
                w.get("end_to_end")?
                    .get(&metric.name)?
                    .get("value")?
                    .as_f64()
            };
            let (va, vb) = (value(&wa), value(&wb));
            let bound = metric.bound.unwrap_or(0.0);
            let ok = match (va, vb) {
                (Some(va), Some(vb)) => {
                    worsening(va, vb, metric.higher_is_better) <= bound
                        // Set-up times of a few milliseconds jitter by more
                        // than a quarter; below 0.05 s the difference is
                        // not a regression.
                        || (metric.name == "setup_s" && (vb - va) < 0.05)
                }
                _ => false,
            };
            row(&metric.name, va, vb, format!("{:.0}%", bound * 100.0), ok);
        }
        // Deterministic per seed, so their bounds are absolute.
        for (metric, slack) in [("final_accuracy", 0.01), ("failed_share", 0.0)] {
            let value = |w: &Json| w.get(metric)?.as_f64();
            let (va, vb) = (value(&wa), value(&wb));
            let ok = match (va, vb) {
                (Some(va), Some(vb)) if metric == "final_accuracy" => va - vb <= slack,
                (Some(va), Some(vb)) => vb - va <= slack,
                _ => false,
            };
            row(metric, va, vb, format!("{slack} abs"), ok);
        }
    }
    agree
}
