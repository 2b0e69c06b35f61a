//! Command-line parsing shared by the bench binaries: each declares the
//! flags and bare words it accepts, and anything else — a typo'd flag, an
//! unknown entry, a missing or non-integer value, `--quick` with `--paper` —
//! is a usage error (exit code 2) instead of a silently different run.

use pracmhbench_core::RunScale;

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
}
