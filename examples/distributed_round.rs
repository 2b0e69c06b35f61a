//! Distributed execution scenario: one server plus worker *processes* on
//! localhost, digest-checked against the single-process engine.
//!
//! Where `tests/net.rs` drives workers as in-process threads, this example
//! crosses real process boundaries: it re-execs itself as `worker` children
//! connected over a localhost TCP socket, shards a short multi-round job
//! across them, and asserts the final `MetricsReport::digest()` equals the
//! single-process run of the same spec — the distributed engine changes
//! *where* client updates are computed, never *what* they contain.
//!
//! Three modes:
//!
//! ```bash
//! # Clean run: server + two worker processes, digest must match.
//! cargo run --release --example distributed_round
//!
//! # Chaos run (what CI's kill-mid-round smoke uses): three workers, one
//! # configured to drop its connection after a single update — its
//! # unfinished clients are requeued to the survivors, and the digest
//! # STILL matches the single-process run.
//! cargo run --release --example distributed_round -- chaos
//!
//! # Internal: the re-exec'd worker child (not run by hand).
//! cargo run --release --example distributed_round -- worker <endpoint> [die_after]
//! ```

use std::process::{Child, Command};

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use mhfl_net::{run_server, run_worker, Endpoint, Listener, WorkerOptions};
use pracmhbench_core::{ExperimentSpec, Parallelism, RunScale};

fn spec() -> ExperimentSpec {
    // 8 clients at the quick scale's 50% sampling → 4 selected per round,
    // so every round genuinely shards across the workers (and the chaos
    // worker dies with work still outstanding).
    ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(42)
    .with_num_clients(8)
}

/// The re-exec'd child: connect back to the server and serve dispatches.
fn worker(endpoint: &str, die_after: Option<usize>) -> Result<(), Box<dyn std::error::Error>> {
    let endpoint = Endpoint::parse(endpoint)?;
    let options = WorkerOptions {
        name: format!("pid{}", std::process::id()),
        die_after_updates: die_after,
        ..Default::default()
    };
    let report = run_worker(&endpoint, &spec(), options)?;
    println!(
        "worker {}: {} dispatch(es), {} update(s){}",
        report.worker_index,
        report.dispatches,
        report.updates_sent,
        if report.died {
            " — then dropped the connection (simulated crash)"
        } else {
            ""
        }
    );
    Ok(())
}

fn spawn_worker(endpoint: &Endpoint, die_after: Option<usize>) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker").arg(endpoint.to_string());
    if let Some(n) = die_after {
        cmd.arg(n.to_string());
    }
    cmd.spawn()
}

/// Server side: bind, re-exec the workers, run the full job distributed,
/// and verify the digest against the single-process engine.
fn run(chaos: bool) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec();
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0")?)?;
    let endpoint = listener.local_endpoint()?;

    // `chaos` adds a third worker that crashes after one update; the clean
    // run uses two healthy workers.
    let mut children = vec![
        spawn_worker(&endpoint, None)?,
        spawn_worker(&endpoint, None)?,
    ];
    if chaos {
        children.push(spawn_worker(&endpoint, Some(1))?);
    }
    println!(
        "server on {endpoint}: {} worker process(es){}",
        children.len(),
        if chaos {
            ", one rigged to crash mid-round"
        } else {
            ""
        }
    );

    let outcome = run_server(&listener, children.len(), &spec, Parallelism::Sequential)?;
    for child in &mut children {
        let status = child.wait()?;
        assert!(status.success(), "worker process exited with {status}");
    }

    let reference = spec.run()?.report;
    assert_eq!(
        outcome.report.digest(),
        reference.digest(),
        "distributed digest diverged from the single-process engine"
    );
    if chaos {
        assert_eq!(
            outcome.workers.iter().filter(|w| w.dead).count(),
            1,
            "the rigged worker should have been detected as dead"
        );
    }
    println!(
        "distributed run complete: {} rounds, final acc {:.4}, digest 0x{:016x} \
         — identical to the single-process engine",
        outcome.report.records.len(),
        outcome.report.final_accuracy(),
        outcome.report.digest()
    );
    for w in &outcome.workers {
        println!(
            "  worker {:<8} dispatched {:>3}  completed {:>3}{}",
            w.name,
            w.dispatched,
            w.completed,
            if w.dead { "  [died mid-round]" } else { "" }
        );
    }
    if chaos {
        println!("requeue after the crash converged to the same bits: no update was lost");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => {
            let endpoint = args.get(1).expect("worker mode needs an endpoint");
            let die_after = args.get(2).map(|n| n.parse().expect("die_after count"));
            worker(endpoint, die_after)
        }
        Some("chaos") => run(true),
        None => run(false),
        Some(other) => {
            eprintln!("unknown mode {other:?}: expected no argument, \"chaos\", or \"worker\"");
            std::process::exit(2);
        }
    }
}
