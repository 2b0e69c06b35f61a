//! Shared command-line spec parsing for the `mhfl-server` / `mhfl-worker`
//! binaries and the distributed bench/example drivers.
//!
//! Both sides of a distributed run must be launched with the *same*
//! experiment spec — the worker rebuilds the federation context from it —
//! so the flags here round-trip through [`spec_flags`] and any residual
//! mismatch is caught by the [`spec_fingerprint`] handshake.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::wire::fnv64;
use mhfl_fl::{Execution, Parallelism};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};

use crate::error::{NetError, NetResult};

/// The value following `flag` in `args`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether `flag` appears in `args`.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

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
    // `computation:120` / `communication:90` carry the threshold in seconds;
    // the bare words mean the paper's canonical parameters: 300 s computation
    // deadline, 200 s communication budget.
    let expected = "memory | computation[:<secs>] | communication[:<secs>] | combined";
    let (name, secs) = match value.split_once(':') {
        Some((name, secs)) => {
            let secs = secs.parse::<f64>().ok().filter(|s| s.is_finite());
            (
                name,
                Some(secs.ok_or_else(|| bad("--constraint", value, expected))?),
            )
        }
        None => (value, None),
    };
    match (normalise(name).as_str(), secs) {
        ("memory" | "mem", None) => Ok(ConstraintCase::Memory),
        ("computation" | "comp", secs) => Ok(ConstraintCase::Computation {
            deadline_secs: secs.unwrap_or(300.0),
        }),
        ("communication" | "comm", secs) => Ok(ConstraintCase::Communication {
            budget_secs: secs.unwrap_or(200.0),
        }),
        ("combined", None) => Ok(ConstraintCase::memory_plus_communication(200.0)),
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

fn parse_parallelism(value: &str) -> NetResult<Parallelism> {
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

/// Builds an [`ExperimentSpec`] from the shared flag set. Every flag is
/// optional; the defaults give the quick smoke spec (UCI-HAR / SHeteroFL /
/// memory / seed 42 / synchronous / sequential).
///
/// # Errors
/// Returns [`NetError::Protocol`] on an unrecognised value.
pub fn parse_spec(args: &[String]) -> NetResult<ExperimentSpec> {
    let task = match arg_value(args, "--task") {
        Some(v) => parse_task(&v)?,
        None => DataTask::UciHar,
    };
    let method = match arg_value(args, "--method") {
        Some(v) => parse_method(&v)?,
        None => MhflMethod::SHeteroFl,
    };
    let constraint = match arg_value(args, "--constraint") {
        Some(v) => parse_constraint(&v)?,
        None => ConstraintCase::Memory,
    };
    let mut spec = ExperimentSpec::new(task, method, constraint);
    spec = spec.with_scale(match arg_value(args, "--scale") {
        Some(v) => parse_scale(&v)?,
        None => RunScale::Quick,
    });
    if let Some(v) = arg_value(args, "--seed") {
        let seed = v
            .parse::<u64>()
            .map_err(|_| bad("--seed", &v, "an unsigned integer"))?;
        spec = spec.with_seed(seed);
    }
    if let Some(v) = arg_value(args, "--execution") {
        spec = spec.with_execution(parse_execution(&v)?);
    }
    if let Some(v) = arg_value(args, "--parallelism") {
        spec = spec.with_parallelism(parse_parallelism(&v)?);
    }
    Ok(spec)
}

/// Serialises a spec back to the flag set [`parse_spec`] reads — how the
/// bench and example launch worker processes with a guaranteed-identical
/// spec.
pub fn spec_flags(spec: &ExperimentSpec) -> Vec<String> {
    let constraint = match spec.constraint {
        ConstraintCase::Memory => "memory".to_string(),
        ConstraintCase::Computation { deadline_secs } => format!("computation:{deadline_secs}"),
        ConstraintCase::Communication { budget_secs } => format!("communication:{budget_secs}"),
        ConstraintCase::Combined { .. } => "combined".to_string(),
    };
    let scale = match spec.scale {
        RunScale::Quick => "quick",
        RunScale::Standard => "standard",
        RunScale::Paper => "paper",
    };
    let execution = match spec.execution {
        Execution::Synchronous => "sync".to_string(),
        Execution::AsyncBuffered {
            buffer_size,
            concurrency,
        } => format!("async:{buffer_size}:{concurrency}"),
    };
    let parallelism = match spec.parallelism {
        Parallelism::Sequential => "seq".to_string(),
        Parallelism::Threads { workers } => format!("threads:{workers}"),
    };
    vec![
        "--task".into(),
        format!("{:?}", spec.task),
        "--method".into(),
        format!("{:?}", spec.method),
        "--constraint".into(),
        constraint,
        "--scale".into(),
        scale.into(),
        "--seed".into(),
        spec.seed.to_string(),
        "--execution".into(),
        execution,
        "--parallelism".into(),
        parallelism,
    ]
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

    #[test]
    fn spec_flags_round_trip_through_parse_spec() {
        // The paper's thresholds, non-default ones, and a case without one.
        for constraint in [
            ConstraintCase::Computation {
                deadline_secs: 300.0,
            },
            ConstraintCase::Computation {
                deadline_secs: 120.0,
            },
            ConstraintCase::Communication { budget_secs: 90.5 },
            ConstraintCase::Memory,
        ] {
            let spec = ExperimentSpec::new(DataTask::Cifar10, MhflMethod::FedProto, constraint)
                .with_scale(RunScale::Quick)
                .with_seed(7)
                .with_execution(Execution::async_buffered(2))
                .with_parallelism(Parallelism::Threads { workers: 3 });
            let parsed = parse_spec(&spec_flags(&spec)).expect("round trip parses");
            assert_eq!(parsed, spec);
            assert_eq!(spec_fingerprint(&parsed), spec_fingerprint(&spec));
        }
    }

    #[test]
    fn bare_constraint_words_mean_the_paper_thresholds() {
        assert_eq!(
            parse_constraint("computation").unwrap(),
            ConstraintCase::Computation {
                deadline_secs: 300.0
            }
        );
        assert_eq!(
            parse_constraint("comm").unwrap(),
            ConstraintCase::Communication { budget_secs: 200.0 }
        );
        for garbage in ["computation:soon", "computation:inf", "memory:4"] {
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
        let args = vec!["--task".to_string(), "mnist".to_string()];
        assert!(matches!(parse_spec(&args), Err(NetError::Protocol { .. })));
    }
}
