//! `mhfl-worker` — one client-phase worker of a distributed run.
//!
//! Rebuilds the federation context from the same spec flags the server was
//! launched with (the handshake fingerprint rejects any mismatch), then
//! computes whatever client shards the server dispatches until shutdown, on
//! the thread count each dispatch carries (the server's `--parallelism`).
//!
//! ```bash
//! mhfl-worker --connect tcp:127.0.0.1:4400 \
//!     --task uci_har --method shetero_fl --constraint memory \
//!     --scale quick --seed 42
//! ```
//!
//! `--die-after <n>` is the chaos hook used by the kill-mid-round smoke:
//! the worker drops its connection after sending n updates, like a crash.

use std::time::Duration;

use mhfl_net::cli::{parse_spec, Args, Flag, SPEC_FLAGS};
use mhfl_net::{run_worker, Endpoint, WorkerOptions};

const USAGE: &str = "mhfl-worker --connect <endpoint> [--name <name>] [--heartbeat-ms <ms>] \
    [--die-after <n>] [--task <task>] [--method <method>] [--constraint <case>] \
    [--scale <scale>] [--seed <n>] [--execution <mode>]";

fn main() {
    let own = [
        Flag::Value("--connect"),
        Flag::Value("--name"),
        Flag::Count("--heartbeat-ms"),
        Flag::Count("--die-after"),
    ];
    let args = Args::from_env(USAGE, &[SPEC_FLAGS, &own].concat(), &[]);
    let endpoint = args
        .value("--connect")
        .unwrap_or_else(|| fail("--connect is required"));
    let endpoint = Endpoint::parse(endpoint).unwrap_or_else(|e| fail(&e.to_string()));
    let spec = parse_spec(&args).unwrap_or_else(|e| fail(&e.to_string()));

    let mut options = WorkerOptions {
        name: args
            .value("--name")
            .map_or_else(|| format!("pid{}", std::process::id()), str::to_string),
        die_after_updates: args.count("--die-after"),
        ..WorkerOptions::default()
    };
    if let Some(ms) = args.count("--heartbeat-ms") {
        options.heartbeat = Duration::from_millis(ms as u64);
    }

    let name = options.name.clone();
    let report = run_worker(&endpoint, &spec, options).unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "mhfl-worker {name}: served {} dispatch(es), sent {} update(s){}",
        report.dispatches,
        report.updates_sent,
        if report.died {
            " before simulated crash"
        } else {
            ""
        }
    );
}

fn fail(message: &str) -> ! {
    eprintln!("mhfl-worker: {message}");
    std::process::exit(1);
}
