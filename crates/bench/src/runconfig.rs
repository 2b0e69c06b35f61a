//! Command-line handling shared by the regeneration binaries.

pub use pracmhbench_core::RunScale;

/// Parses the run scale from the process arguments.
///
/// * `--quick` → [`RunScale::Quick`] (CI / smoke tests);
/// * `--paper` → [`RunScale::Paper`] (the paper's full scale);
/// * otherwise → [`RunScale::Standard`].
pub fn scale_from_args() -> RunScale {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--paper") {
        return RunScale::Paper;
    }
    if args.iter().any(|a| a == "--quick") {
        return RunScale::Quick;
    }
    RunScale::Standard
}
