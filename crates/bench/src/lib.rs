//! Shared helpers for the PracMHBench bench binaries.
//!
//! `reproduce` regenerates every figure, table and study of the paper (one
//! table of entries over one run helper) and is the durable full run:
//! `--checkpoint-dir` resumes an interrupted reproduction bit-exactly;
//! `population_scale` is a CI gate. The helpers here provide durable
//! checkpoint/resume ([`run_resumable`]) and table/series printing, so the
//! produced output has the same rows/columns the paper reports; the
//! binaries declare their command lines with `mhfl_net::cli::Args`.

mod output;
mod resume;

pub use output::{print_series, print_table, Table};
pub use resume::run_resumable;
