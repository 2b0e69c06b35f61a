//! Command-line parsing for the `mhfl-server` / `mhfl-worker` binaries and
//! the bench binaries.
//!
//! Each binary declares the flags and bare words it accepts ([`Args`]), and
//! anything else — a typo'd flag, an unknown entry, a missing or
//! non-integer value, `--quick` with `--paper` — is a usage error (exit code
//! 2) instead of a silently different run.
//!
//! Both sides of a distributed run must be launched with the *same*
//! experiment spec — the worker rebuilds the federation context from the
//! [`SPEC_FLAGS`] that [`parse_spec`] reads — and any residual mismatch is
//! caught by the [`spec_fingerprint`] handshake. The thread count is not
//! part of the spec: `mhfl-server` reads its own `--parallelism` with
//! [`parse_parallelism`] and ships it to the workers in every dispatch.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::wire::fnv64;
use mhfl_fl::{Execution, Parallelism};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};

use crate::error::{NetError, NetResult};

/// One flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--name` on its own.
    Switch(&'static str),
    /// `--name <value>`.
    Value(&'static str),
    /// `--name <n>` with a non-negative integer `n`.
    Count(&'static str),
}

/// Arguments that passed their binary's declaration.
#[derive(Debug, Default)]
pub struct Args {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    /// Parses the process arguments against `flags` and `words`; on misuse
    /// prints the error and `usage` to stderr and exits with code 2.
    pub fn from_env(usage: &str, flags: &[Flag], words: &[&str]) -> Args {
        Args::parse(flags, words, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {usage}");
            std::process::exit(2)
        })
    }

    fn parse(
        flags: &[Flag],
        words: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = flags.iter().find(|f| match f {
                Flag::Switch(n) | Flag::Value(n) | Flag::Count(n) => *n == arg,
            });
            match flag {
                Some(Flag::Switch(_)) => parsed.switches.push(arg),
                Some(&Flag::Value(name) | &Flag::Count(name)) => {
                    let value = args
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{name} needs a value"))?;
                    if matches!(flag, Some(Flag::Count(_))) && value.parse::<usize>().is_err() {
                        return Err(format!(
                            "{name} expects a non-negative integer, got {value:?}"
                        ));
                    }
                    parsed.values.push((arg, value));
                }
                None if words.contains(&arg.as_str()) => parsed.words.push(arg),
                None => return Err(format!("unknown argument {arg:?}")),
            }
        }
        if parsed.has("--quick") && parsed.has("--paper") {
            return Err("--quick and --paper are mutually exclusive".into());
        }
        Ok(parsed)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value given for `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// The integer given for the [`Flag::Count`] `name`.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.value(name).and_then(|v| v.parse().ok())
    }

    /// The bare words given, in order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// `--quick` → [`RunScale::Quick`], `--paper` → [`RunScale::Paper`],
    /// neither → [`RunScale::Standard`].
    pub fn scale(&self) -> RunScale {
        if self.has("--quick") {
            RunScale::Quick
        } else if self.has("--paper") {
            RunScale::Paper
        } else {
            RunScale::Standard
        }
    }
}

/// The flags [`parse_spec`] reads; a binary that builds its experiment spec
/// from the command line declares these beside its own.
pub const SPEC_FLAGS: &[Flag] = &[
    Flag::Value("--task"),
    Flag::Value("--method"),
    Flag::Value("--constraint"),
    Flag::Value("--scale"),
    Flag::Value("--seed"),
    Flag::Value("--execution"),
];

fn normalise(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

fn bad(flag: &str, value: &str, expected: &str) -> NetError {
    NetError::Protocol {
        detail: format!("{flag} {value:?}: expected {expected}"),
    }
}

fn parse_task(value: &str) -> NetResult<DataTask> {
    let wanted = normalise(value);
    DataTask::ALL
        .into_iter()
        .find(|t| normalise(&format!("{t:?}")) == wanted)
        .ok_or_else(|| bad("--task", value, "one of the paper's data tasks"))
}

fn parse_method(value: &str) -> NetResult<MhflMethod> {
    let wanted = normalise(value);
    MhflMethod::ALL
        .into_iter()
        .find(|m| normalise(&format!("{m:?}")) == wanted)
        .ok_or_else(|| bad("--method", value, "one of the MHFL methods"))
}

fn parse_constraint(value: &str) -> NetResult<ConstraintCase> {
    // `computation:120` / `communication:90` carry a positive threshold in
    // seconds; the bare words mean `ConstraintCase::COMPUTATION`,
    // `COMMUNICATION` and `MEMORY_PLUS_COMMUNICATION`.
    let expected = "memory | computation[:<secs>] | communication[:<secs>] | combined";
    let (name, secs) = match value.split_once(':') {
        Some((name, secs)) => {
            let secs = secs
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0);
            (
                name,
                Some(secs.ok_or_else(|| bad("--constraint", value, expected))?),
            )
        }
        None => (value, None),
    };
    match (normalise(name).as_str(), secs) {
        ("memory" | "mem", None) => Ok(ConstraintCase::Memory),
        ("computation" | "comp", None) => Ok(ConstraintCase::COMPUTATION),
        ("computation" | "comp", Some(deadline_secs)) => {
            Ok(ConstraintCase::Computation { deadline_secs })
        }
        ("communication" | "comm", None) => Ok(ConstraintCase::COMMUNICATION),
        ("communication" | "comm", Some(budget_secs)) => {
            Ok(ConstraintCase::Communication { budget_secs })
        }
        ("combined", None) => Ok(ConstraintCase::MEMORY_PLUS_COMMUNICATION),
        _ => Err(bad("--constraint", value, expected)),
    }
}

fn parse_scale(value: &str) -> NetResult<RunScale> {
    match normalise(value).as_str() {
        "quick" => Ok(RunScale::Quick),
        "standard" => Ok(RunScale::Standard),
        "paper" => Ok(RunScale::Paper),
        _ => Err(bad("--scale", value, "quick | standard | paper")),
    }
}

fn parse_execution(value: &str) -> NetResult<Execution> {
    if normalise(value) == "sync" {
        return Ok(Execution::Synchronous);
    }
    if let Some(rest) = value.strip_prefix("async:") {
        let mut parts = rest.split(':');
        let buffer = parts
            .next()
            .and_then(|p| p.parse::<usize>().ok())
            .ok_or_else(|| bad("--execution", value, "async:<buffer>[:<concurrency>]"))?;
        let concurrency = match parts.next() {
            Some(p) => p
                .parse::<usize>()
                .map_err(|_| bad("--execution", value, "async:<buffer>[:<concurrency>]"))?,
            None => 0,
        };
        return Ok(Execution::AsyncBuffered {
            buffer_size: buffer,
            concurrency,
        });
    }
    Err(bad("--execution", value, "sync | async:<buffer>"))
}

/// Reads `--parallelism seq | threads:<n>`, the thread count of a run's
/// client phase; absent, [`Parallelism::Sequential`]. It is a flag of the
/// binary that runs the session, not a [`SPEC_FLAGS`] one: it changes no
/// result, so it is not part of the spec.
///
/// # Errors
/// Returns [`NetError::Protocol`] on an unrecognised value.
pub fn parse_parallelism(args: &Args) -> NetResult<Parallelism> {
    let Some(value) = args.value("--parallelism") else {
        return Ok(Parallelism::Sequential);
    };
    if normalise(value) == "seq" {
        return Ok(Parallelism::Sequential);
    }
    if let Some(n) = value.strip_prefix("threads:") {
        let workers = n
            .parse::<usize>()
            .map_err(|_| bad("--parallelism", value, "seq | threads:<n>"))?;
        return Ok(Parallelism::Threads { workers });
    }
    Err(bad("--parallelism", value, "seq | threads:<n>"))
}

/// Builds an [`ExperimentSpec`] from the [`SPEC_FLAGS`]. Every flag is
/// optional; the defaults give the quick smoke spec (UCI-HAR / SHeteroFL /
/// memory / seed 42 / synchronous).
///
/// # Errors
/// Returns [`NetError::Protocol`] on an unrecognised value.
pub fn parse_spec(args: &Args) -> NetResult<ExperimentSpec> {
    let task = match args.value("--task") {
        Some(v) => parse_task(v)?,
        None => DataTask::UciHar,
    };
    let method = match args.value("--method") {
        Some(v) => parse_method(v)?,
        None => MhflMethod::SHeteroFl,
    };
    let constraint = match args.value("--constraint") {
        Some(v) => parse_constraint(v)?,
        None => ConstraintCase::Memory,
    };
    let mut spec = ExperimentSpec::new(task, method, constraint);
    spec = spec.with_scale(match args.value("--scale") {
        Some(v) => parse_scale(v)?,
        None => RunScale::Quick,
    });
    if let Some(v) = args.value("--seed") {
        let seed = v
            .parse::<u64>()
            .map_err(|_| bad("--seed", v, "an unsigned integer"))?;
        spec = spec.with_seed(seed);
    }
    if let Some(v) = args.value("--execution") {
        spec = spec.with_execution(parse_execution(v)?);
    }
    Ok(spec)
}

/// FNV-1a fingerprint of the full spec. Server and worker exchange it in
/// the [`Message::Hello`](crate::Message) handshake: equal fingerprints
/// mean both sides rebuild byte-identical federation contexts, so their
/// client updates agree bit-for-bit.
pub fn spec_fingerprint(spec: &ExperimentSpec) -> u64 {
    // `ExperimentSpec` derives a complete `Debug` over plain-data fields,
    // which makes its rendering a canonical serialisation of the setup.
    fnv64(format!("{spec:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::Switch("--quick"),
        Flag::Switch("--paper"),
        Flag::Value("--checkpoint-dir"),
        Flag::Count("--rss-ceiling-mb"),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(FLAGS, &["fig4", "fig8"], args.iter().map(|a| a.to_string()))
    }

    fn spec(args: &[&str]) -> NetResult<ExperimentSpec> {
        let args = Args::parse(SPEC_FLAGS, &[], args.iter().map(|a| a.to_string()))
            .expect("only spec flags");
        parse_spec(&args)
    }

    #[test]
    fn declared_arguments_parse() {
        let args = parse(&[
            "fig8",
            "--quick",
            "--checkpoint-dir",
            "ckpts",
            "--rss-ceiling-mb",
            "600",
            "fig4",
        ])
        .unwrap();
        assert_eq!(args.words(), ["fig8", "fig4"]);
        assert_eq!(args.scale(), RunScale::Quick);
        assert_eq!(args.value("--checkpoint-dir"), Some("ckpts"));
        assert_eq!(args.count("--rss-ceiling-mb"), Some(600));
        assert_eq!(args.count("--checkpoint-dir"), None);
        assert_eq!(parse(&["--paper"]).unwrap().scale(), RunScale::Paper);
        assert_eq!(parse(&[]).unwrap().scale(), RunScale::Standard);
    }

    #[test]
    fn misuse_is_an_error_not_a_different_run() {
        let cases: [(&[&str], &str); 9] = [
            (&["--qiuck"], "unknown argument \"--qiuck\""),
            (&["--rss-ceiling", "600"], "unknown argument"),
            (&["-q"], "unknown argument"),
            (&["fig10"], "unknown argument \"fig10\""),
            (&["--checkpoint-dir"], "--checkpoint-dir needs a value"),
            (&["--rss-ceiling-mb", "--quick"], "needs a value"),
            (&["--rss-ceiling-mb", "-1"], "non-negative integer"),
            (&["--rss-ceiling-mb", "1.5"], "non-negative integer"),
            (&["--quick", "--paper"], "mutually exclusive"),
        ];
        for (args, error) in cases {
            let err = parse(args).unwrap_err();
            assert!(err.contains(error), "{args:?}: {err}");
        }
    }

    #[test]
    fn spec_flags_round_trip_through_parse_spec() {
        // The paper's thresholds, non-default ones, and a case without one.
        for (flag, constraint) in [
            ("computation:300", ConstraintCase::COMPUTATION),
            (
                "computation:120",
                ConstraintCase::Computation {
                    deadline_secs: 120.0,
                },
            ),
            (
                "communication:90.5",
                ConstraintCase::Communication { budget_secs: 90.5 },
            ),
            ("memory", ConstraintCase::Memory),
        ] {
            let expected = ExperimentSpec::new(DataTask::Cifar10, MhflMethod::FedProto, constraint)
                .with_scale(RunScale::Quick)
                .with_seed(7)
                .with_execution(Execution::async_buffered(2));
            let parsed = spec(&[
                "--task",
                "Cifar10",
                "--method",
                "FedProto",
                "--constraint",
                flag,
                "--scale",
                "quick",
                "--seed",
                "7",
                "--execution",
                "async:2:0",
            ])
            .expect("spec flags parse");
            assert_eq!(parsed, expected);
            assert_eq!(spec_fingerprint(&parsed), spec_fingerprint(&expected));
        }
    }

    #[test]
    fn bare_constraint_words_mean_the_paper_thresholds() {
        assert_eq!(
            parse_constraint("computation").unwrap(),
            ConstraintCase::COMPUTATION
        );
        assert_eq!(
            parse_constraint("comm").unwrap(),
            ConstraintCase::COMMUNICATION
        );
        assert_eq!(
            parse_constraint("combined").unwrap(),
            ConstraintCase::MEMORY_PLUS_COMMUNICATION
        );
        for garbage in [
            "computation:soon",
            "computation:inf",
            "memory:4",
            "computation:0",
            "communication:-5",
        ] {
            assert!(
                matches!(parse_constraint(garbage), Err(NetError::Protocol { .. })),
                "{garbage}"
            );
        }
    }

    #[test]
    fn fingerprints_separate_different_setups() {
        let a = ExperimentSpec::new(
            DataTask::UciHar,
            MhflMethod::SHeteroFl,
            ConstraintCase::Memory,
        );
        let b = a.with_seed(43);
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn unknown_values_are_typed_errors() {
        assert!(matches!(
            spec(&["--task", "mnist"]),
            Err(NetError::Protocol { .. })
        ));
    }

    #[test]
    fn parallelism_is_read_beside_the_spec_not_into_it() {
        let flags = [SPEC_FLAGS, &[Flag::Value("--parallelism")]].concat();
        let args = |extra: &[&str]| {
            let argv = ["--seed", "7"].iter().chain(extra).map(|a| a.to_string());
            Args::parse(&flags, &[], argv).unwrap()
        };
        let threaded = args(&["--parallelism", "threads:3"]);
        assert_eq!(
            parse_parallelism(&threaded).unwrap(),
            Parallelism::Threads { workers: 3 }
        );
        assert_eq!(
            parse_parallelism(&args(&[])).unwrap(),
            Parallelism::Sequential
        );
        assert_eq!(
            parse_parallelism(&args(&["--parallelism", "seq"])).unwrap(),
            Parallelism::Sequential
        );
        assert!(matches!(
            parse_parallelism(&args(&["--parallelism", "threads"])),
            Err(NetError::Protocol { .. })
        ));
        let sequential = parse_spec(&args(&[])).unwrap();
        assert_eq!(parse_spec(&threaded).unwrap(), sequential);
        assert_eq!(
            spec_fingerprint(&parse_spec(&threaded).unwrap()),
            spec_fingerprint(&sequential)
        );
    }
}
