//! Shared helpers for the PracMHBench bench binaries.
//!
//! `reproduce` regenerates every figure, table and study of the paper (one
//! table of entries over one run helper); `paper_scale` and
//! `population_scale` are CI gates. The helpers here provide the declared,
//! typo-rejecting command line ([`Args`]), durable checkpoint/resume
//! ([`run_resumable`]) and table/series printing, so the produced output has
//! the same rows/columns the paper reports.

mod cli;
mod output;
mod resume;

pub use cli::{Args, Flag};
pub use output::{print_series, print_table, Table};
pub use resume::{run_resumable, ResumableOutcome};
