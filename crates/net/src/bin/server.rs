//! `mhfl-server` — the aggregation server of a distributed run.
//!
//! Owns the full deterministic round loop (scheduling, clock, aggregation,
//! evaluation) and farms the client phase out to `--workers` N remote
//! `mhfl-worker` processes. The final digest is bitwise identical to a
//! single-process run of the same spec.
//!
//! `--parallelism seq | threads:<n>` is the server's own flag, not a spec
//! flag: each dispatch carries it, the workers run their shards on that
//! many threads, and no result changes. The workers are launched without
//! it.
//!
//! ```bash
//! mhfl-server --listen tcp:127.0.0.1:4400 --workers 2 --parallelism threads:2 \
//!     --task uci_har --method shetero_fl --constraint memory \
//!     --scale quick --seed 42
//! ```

use mhfl_net::cli::{parse_parallelism, parse_spec, Args, Flag, SPEC_FLAGS};
use mhfl_net::{run_server, Endpoint, Listener};

const USAGE: &str = "mhfl-server [--listen <endpoint>] [--workers <n>] [--parallelism <mode>] \
    [--task <task>] [--method <method>] [--constraint <case>] [--scale <scale>] [--seed <n>] \
    [--execution <mode>]";

fn main() {
    let own = [
        Flag::Value("--listen"),
        Flag::Count("--workers"),
        Flag::Value("--parallelism"),
    ];
    let args = Args::from_env(USAGE, &[SPEC_FLAGS, &own].concat(), &[]);
    let endpoint = args.value("--listen").unwrap_or("tcp:127.0.0.1:4400");
    let endpoint = Endpoint::parse(endpoint).unwrap_or_else(|e| fail(&e.to_string()));
    let workers = args.count("--workers").unwrap_or(2);
    let spec = parse_spec(&args).unwrap_or_else(|e| fail(&e.to_string()));
    let parallelism = parse_parallelism(&args).unwrap_or_else(|e| fail(&e.to_string()));

    let listener = Listener::bind(&endpoint).unwrap_or_else(|e| fail(&e.to_string()));
    let actual = listener
        .local_endpoint()
        .unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "mhfl-server: listening on {actual}, waiting for {workers} worker(s) \
         ({} / {} / {:?} / seed {})",
        spec.method, spec.task, spec.scale, spec.seed
    );

    let outcome =
        run_server(&listener, workers, &spec, parallelism).unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "mhfl-server: run complete in {:.2}s (accept {:.2}s): final acc {:.4}, \
         digest 0x{:016x}",
        outcome.run_secs,
        outcome.accept_secs,
        outcome.report.final_accuracy(),
        outcome.report.digest()
    );
    for w in &outcome.workers {
        let utilisation = if outcome.run_secs > 0.0 {
            w.busy_secs / outcome.run_secs
        } else {
            0.0
        };
        println!(
            "  worker {:<12} dispatched {:>5}  completed {:>5}  busy {:>7.2}s  \
             utilisation {:>5.1}%{}",
            w.name,
            w.dispatched,
            w.completed,
            w.busy_secs,
            utilisation * 100.0,
            if w.dead { "  [died]" } else { "" }
        );
    }
}

fn fail(message: &str) -> ! {
    eprintln!("mhfl-server: {message}");
    std::process::exit(1);
}
