//! Shared helpers for the PracMHBench benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper.
//! The helpers here provide consistent command-line handling (a `--quick`
//! mode used by the test suite), table formatting and series printing so the
//! produced output has the same rows/columns the paper reports.

pub mod figure;
pub mod output;
pub mod resume;
pub mod runconfig;

pub use figure::{applicable_methods, constraint_figure};
pub use output::{print_series, print_table, Table};
pub use resume::{arg_usize, next_tolerating_save_failure, run_resumable, ResumableOutcome};
pub use runconfig::{scale_from_args, RunScale};
