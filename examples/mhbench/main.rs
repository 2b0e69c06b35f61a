//! `mhbench` — the repository's benchmark. See README.md beside this file.
//!
//! ```text
//! mhbench [--seed 42] [--smoke | --seconds S] [--out DIR] [--check-against PREVIOUS.json]
//! mhbench --input CURRENT.json --check-against PREVIOUS.json
//! mhbench --self-test
//! mhbench --workload NAME --seed N (--seconds S | --rounds R) --trace 0|1 [--out DIR]
//!         [--federations K]
//! ```
//!
//! The first form runs every workload, each in its own freshly spawned child
//! process of this binary (the last form), one after another: an untraced
//! pass for the end-to-end metrics, then a traced pass at a third of the
//! rounds for the per-layer metrics. The last form prints one result line
//! as `BENCHMARK.json` describes it.

mod json;
mod layers;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use report::Contract;
use workloads::{Workload, SELF_TEST, WORKLOADS};

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    rounds: Option<usize>,
    federations: Option<usize>,
    trace: bool,
    out: Option<PathBuf>,
    check_against: Option<PathBuf>,
    input: Option<PathBuf>,
    worker: Option<String>,
    spans: Option<PathBuf>,
    smoke: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: String| -> Result<f64, String> {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: {text:?} is not a whole number"))?;
            }
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--rounds" => args.rounds = Some(number(value()?)? as usize),
            "--federations" => args.federations = Some((number(value()?)? as usize).max(1)),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--out" => args.out = Some(value()?.into()),
            "--check-against" => args.check_against = Some(value()?.into()),
            "--input" => args.input = Some(value()?.into()),
            "--worker" => args.worker = Some(value()?),
            "--spans" => args.spans = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn out_dir(args: &Args) -> Result<PathBuf, String> {
    // Output never goes to the repository root.
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new("target").join("mhbench"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn named_workload(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })
}

/// One workload, traced or not, in this process.
fn single(args: &Args, contract: &Contract) -> Result<(), String> {
    let w = named_workload(args.workload.as_deref().unwrap_or_default())?;
    let rounds = match (args.rounds, args.seconds) {
        (Some(rounds), _) => rounds.max(1),
        (None, Some(seconds)) => w.rounds_for_seconds(seconds),
        (None, None) => w.rounds,
    };
    let out = out_dir(args)?;
    let (declared, outcome) = if args.trace {
        // A third of the rounds: per-round numbers stay comparable, the
        // pass stays short.
        let outcome = run::run_traced(w, args.seed, rounds.div_ceil(3), &out)?;
        (&contract.per_layer, outcome)
    } else {
        (
            &contract.end_to_end,
            run::run_untraced(
                w,
                args.seed,
                rounds,
                args.federations.unwrap_or(w.federations),
                &out,
            )?,
        )
    };
    for check in outcome.checks.iter().filter(|c| !c.ok) {
        eprintln!("{}: FAILED {}: {}", w.name, check.name, check.detail);
    }
    let (detail, result) = report::result_lines(declared, &outcome)?;
    println!("{detail}");
    println!("{result}");
    Ok(())
}

/// Every workload, untraced then traced; the full document.
fn full(args: &Args) -> Result<Json, String> {
    let out = out_dir(args)?;
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let rounds = if args.smoke {
            (w.rounds / 20).max(1)
        } else {
            args.seconds.map_or(w.rounds, |s| w.rounds_for_seconds(s))
        };
        let started = Instant::now();
        eprintln!("{}: untraced pass, {rounds} rounds", w.name);
        let untraced = run::child(w, args.seed, rounds, &["--trace", "0"], &out);
        eprintln!("{}: traced pass", w.name);
        let traced = run::child(w, args.seed, rounds, &["--trace", "1"], &out);
        let wall_secs = started.elapsed().as_secs_f64();

        let mut entry = Json::obj();
        let mut correct = true;
        for (section, pass) in [("end_to_end", untraced), ("per_layer", traced)] {
            match pass {
                Ok((detail, result)) => {
                    correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    let mut metrics = result.get("metrics").cloned().unwrap_or(Json::obj());
                    let specific = detail.get("workload_specific");
                    for (name, metric) in specific.map_or(&[][..], Json::entries) {
                        metrics.set(name, metric.clone());
                    }
                    entry.set(section, metrics);
                    if section == "end_to_end" {
                        for (key, value) in detail.entries() {
                            entry.set(key, value.clone());
                        }
                    } else {
                        entry.set("traced", detail);
                    }
                }
                Err(error) => {
                    eprintln!("{}: {error}", w.name);
                    correct = false;
                    entry.set(section, Json::Null);
                }
            }
        }
        entry.set("wall_s", wall_secs);
        entry.set("correct", correct);
        all_correct &= correct;
        workloads.set(w.name, entry);
    }
    let doc = Json::obj()
        .with("benchmark", "mhbench")
        .with("provenance", report::provenance(args.seed))
        .with("correct", all_correct)
        .with("workloads", workloads);
    report::print_table(&doc);
    let path = out.join("mhbench.json");
    std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(doc)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// No workloads: the benchmark's own arithmetic and plumbing.
fn self_test(args: &Args, contract: &Contract) -> Result<(), String> {
    let ensure = |ok: bool, what: &str| {
        eprintln!("self-test: {what}: {}", if ok { "ok" } else { "FAILED" });
        ok.then_some(())
            .ok_or_else(|| format!("self-test failed: {what}"))
    };

    // Percentile / tail selection on known inputs.
    ensure(
        stats::tail_index(30) == 19,
        "tail of 30 samples reads index 19",
    )?;
    ensure(
        stats::tail_index(36) == 25,
        "tail of 36 samples reads index 25",
    )?;
    ensure(
        stats::tail_index(100) == 89 && stats::tail_index(3600) == 3239,
        "tail of 100 or more samples is p90",
    )?;
    ensure(
        stats::tail_index(1) == 0 && stats::tail_index(11) == 5 && stats::tail_index(21) == 10,
        "tail of few samples never reads below the median",
    )?;
    let ramp: Vec<f64> = (1..=30).rev().map(f64::from).collect();
    ensure(
        stats::tail(&ramp).0 == 20.0 && stats::median(&ramp) == 15.5,
        "tail and median sort their input",
    )?;

    // Span self-time arithmetic: overlapping children count once, a child
    // is clipped to its parent, grandchildren do not count.
    let span = |id, parent, start_ns, end_ns| trace::Span {
        id,
        parent,
        name: "round",
        round: 1,
        client: None,
        start_ns,
        end_ns,
    };
    let own = trace::self_times(&[
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 1, 30, 60),
        span(4, 1, 90, 120),
        span(5, 2, 10, 20),
    ]);
    ensure(
        own[&1] == 40 && own[&2] == 20 && own[&3] == 30 && own[&5] == 10,
        "span self time is duration minus the union of direct children",
    )?;

    // Names: well-formed, unique, and exactly what a run emits.
    let names: Vec<&str> = contract
        .workloads
        .iter()
        .chain(contract.end_to_end.iter().map(|m| &m.name))
        .chain(contract.per_layer.iter().map(|m| &m.name))
        .map(String::as_str)
        .collect();
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    ensure(
        names.iter().all(|n| well_formed(n)),
        "every name is made of letters, digits, '_', '.' and '-'",
    )?;
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    ensure(unique.len() == names.len(), "every name is used once")?;
    ensure(
        contract.workloads == WORKLOADS.map(|w| w.name),
        "BENCHMARK.json lists the four workloads in order",
    )?;

    // A small session with and without the decorators: same digest, and
    // both passes emit the declared names one-to-one.
    let out = out_dir(args)?;
    let untraced = run::run_untraced(&SELF_TEST, 7, SELF_TEST.rounds, 1, &out)?;
    let traced = run::run_traced(&SELF_TEST, 7, SELF_TEST.rounds, &out)?;
    ensure(
        report::result_lines(&contract.end_to_end, &untraced).is_ok(),
        "an untraced run emits exactly the declared end-to-end metrics",
    )?;
    ensure(
        report::result_lines(&contract.per_layer, &traced).is_ok(),
        "a traced run emits exactly the declared per-layer metrics",
    )?;
    ensure(
        traced.specific.iter().all(|(name, ..)| well_formed(name)),
        "workload-specific names are well-formed too",
    )?;
    ensure(
        untraced.correct() && traced.correct(),
        "both runs pass their correctness checks",
    )?;
    let digest = |outcome: &run::Outcome| outcome.detail.get("digest").cloned();
    ensure(
        digest(&untraced).is_some() && digest(&untraced) == digest(&traced),
        "the decorators leave the digest unchanged",
    )?;
    Ok(())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if let Some(endpoint) = &args.worker {
        let w = named_workload(args.workload.as_deref().unwrap_or_default())?;
        run::worker_main(endpoint, w, args.seed, args.spans.as_deref())?;
        return Ok(true);
    }
    let contract = Contract::load();
    if args.self_test {
        self_test(args, &contract)?;
        return Ok(true);
    }
    if args.workload.is_some() {
        single(args, &contract)?;
        return Ok(true);
    }
    let doc = match &args.input {
        Some(path) => read_json(path)?,
        None => {
            let doc = full(args)?;
            println!("{}", doc.pretty());
            doc
        }
    };
    let mut ok = doc.get("correct").and_then(Json::as_bool) == Some(true);
    if let Some(previous) = &args.check_against {
        ok &= report::check_against(&contract, &read_json(previous)?, &doc);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("mhbench: a check failed");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("mhbench: {error}");
            ExitCode::from(2)
        }
    }
}
