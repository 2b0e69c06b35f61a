//! Whole-run drivers: everything between "I have a spec and a socket" and
//! "here is the digest".

use std::time::{Duration, Instant};

use mhfl_fl::{FlResult, MetricsReport, Parallelism};
use pracmhbench_core::ExperimentSpec;

use crate::cli::spec_fingerprint;
use crate::error::{NetError, NetResult};
use crate::server::{RemoteRunner, WorkerPool, WorkerStats, DEFAULT_READ_TIMEOUT};
use crate::transport::{Conn, Endpoint, Listener};
use crate::worker::{serve, WorkerOptions, WorkerReport};

/// The result of a distributed run on the server side.
#[derive(Debug, Clone)]
pub struct ServerOutcome {
    /// The full metric report — its digest is the distributed-correctness
    /// witness, bitwise identical to a single-process run of the same spec.
    pub report: MetricsReport,
    /// Per-worker utilisation.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock seconds spent accepting and handshaking the pool.
    pub accept_secs: f64,
    /// Wall-clock seconds of the federated run itself.
    pub run_secs: f64,
}

/// Runs the full experiment as the server: accept `num_workers` workers
/// from `listener`, drive the deterministic [`Session`](mhfl_fl::Session)
/// round loop with a [`RemoteRunner`], and return the report plus the
/// utilisation ledger. `parallelism` is the thread count each worker runs
/// its shard on; it is carried in every dispatch, so the workers need not
/// be told, and it changes no result.
///
/// # Errors
/// Handshake, transport and requeue-exhaustion failures surface as
/// [`FlError::Remote`](mhfl_fl::FlError); engine and algorithm failures
/// keep their own [`FlError`](mhfl_fl::FlError) variants.
pub fn run_server(
    listener: &Listener,
    num_workers: usize,
    spec: &ExperimentSpec,
    parallelism: Parallelism,
) -> FlResult<ServerOutcome> {
    run_server_with_timeout(
        listener,
        num_workers,
        spec,
        parallelism,
        DEFAULT_READ_TIMEOUT,
    )
}

/// [`run_server`] with an explicit missed-heartbeat window.
///
/// # Errors
/// Same as [`run_server`].
pub fn run_server_with_timeout(
    listener: &Listener,
    num_workers: usize,
    spec: &ExperimentSpec,
    parallelism: Parallelism,
    read_timeout: Duration,
) -> FlResult<ServerOutcome> {
    let ctx = spec.build_context()?;
    let started = Instant::now();
    let pool = WorkerPool::accept_with_timeout(
        listener,
        num_workers,
        spec_fingerprint(spec),
        ctx.num_clients(),
        read_timeout,
    )?;
    let accept_secs = started.elapsed().as_secs_f64();

    let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
    let mut session = spec.open(algorithm.as_mut(), &ctx)?;
    session.set_parallelism(parallelism);
    let runner = RemoteRunner::new(pool);
    let stats = runner.stats_handle();
    session.set_client_runner(Box::new(runner));

    let started = Instant::now();
    let report = session.drain()?;
    let run_secs = started.elapsed().as_secs_f64();

    let workers = stats.lock().expect("stats lock").clone();
    Ok(ServerOutcome {
        report,
        workers,
        accept_secs,
        run_secs,
    })
}

/// Runs as a worker: connect to `endpoint` (retrying for up to ten seconds
/// while the server binds), rebuild the federation context from the spec,
/// and serve dispatches until the server shuts the run down.
///
/// # Errors
/// Propagates connection, handshake and protocol failures as typed
/// [`NetError`]s.
pub fn run_worker(
    endpoint: &Endpoint,
    spec: &ExperimentSpec,
    options: WorkerOptions,
) -> NetResult<WorkerReport> {
    let conn = Conn::connect_within(endpoint, Duration::from_secs(10))?;
    let ctx = spec.build_context().map_err(|e| NetError::Protocol {
        detail: format!("worker context build failed: {e}"),
    })?;
    let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
    serve(
        conn,
        spec_fingerprint(spec),
        algorithm.as_mut(),
        &ctx,
        options,
    )
}
