//! Worker side: serve one connection, computing client updates on demand.
//!
//! A worker owns a *replica* of the experiment — the same
//! [`FederationContext`] (rebuilt from the same spec and seed) and a fresh
//! algorithm instance whose state is overwritten, on every dispatch, by the
//! server's round-start snapshot restricted to the dispatched shard — so
//! its updates are bit-identical to what the server would compute locally.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mhfl_fl::{run_clients, FederationContext, FlAlgorithm};

use crate::error::{NetError, NetResult};
use crate::message::{read_message, write_message, Message, PROTOCOL_VERSION};
use crate::transport::Conn;

/// How many heartbeat intervals a worker waits for the reply to its
/// `Hello`: 30 s at the default 500 ms heartbeat, the server's
/// [`DEFAULT_READ_TIMEOUT`](crate::DEFAULT_READ_TIMEOUT).
const HANDSHAKE_DEADLINE_BEATS: u32 = 60;

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Display name reported in the handshake and the server's utilisation
    /// ledger.
    pub name: String,
    /// Heartbeat interval; the server's read timeout should be a multiple
    /// of this, and the worker waits 60 of them for the handshake reply.
    pub heartbeat: Duration,
    /// Chaos hook: drop the connection (simulating a crash) after sending
    /// this many updates in total — exercised by the kill-mid-round smoke.
    pub die_after_updates: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: "worker".into(),
            heartbeat: Duration::from_millis(500),
            die_after_updates: None,
        }
    }
}

/// What one [`serve`] call did, for logs and assertions.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Index assigned by the server's handshake.
    pub worker_index: usize,
    /// Dispatches handled.
    pub dispatches: usize,
    /// Updates sent back.
    pub updates_sent: usize,
    /// Whether the chaos hook fired (the connection was dropped on
    /// purpose).
    pub died: bool,
}

/// Serves one server connection until [`Message::Shutdown`] (or the chaos
/// hook fires): handshake, then a loop of
/// [`Message::Dispatch`] → restore the shipped state → compute → stream
/// [`Message::UpdateReady`]s back in shard order. A dispatch without state
/// is refused: the state restored for an earlier shard lacks this shard's
/// `client.<id>` slots, so computing on it would silently change the bits.
/// A side thread heartbeats through the same socket (frames are
/// mutex-serialised so they never interleave) to keep long local
/// computations from looking like death.
///
/// # Errors
/// [`NetError::Io`] on transport failure or when the server does not answer
/// the handshake within 60 heartbeat intervals, [`NetError::Protocol`] when
/// the server rejects the handshake, on an out-of-protocol frame, a
/// stateless dispatch or a local algorithm failure (the last two are
/// reported to the server as [`Message::Abort`] first).
pub fn serve(
    conn: Conn,
    fingerprint: u64,
    algorithm: &mut dyn FlAlgorithm,
    ctx: &FederationContext,
    options: WorkerOptions,
) -> NetResult<WorkerReport> {
    let mut reader = conn;
    let writer = Arc::new(Mutex::new(reader.try_clone()?));

    write_message(
        &mut *writer.lock().expect("writer lock"),
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint,
            worker_name: options.name.clone(),
        },
    )?;
    let mut report = WorkerReport::default();
    // A server that never answers must not hang the worker: one that has
    // already returned can leave it queued in its listener's backlog.
    reader.set_read_timeout(Some(options.heartbeat * HANDSHAKE_DEADLINE_BEATS))?;
    match read_message(&mut reader)? {
        Message::AssignShard { worker_index, .. } => report.worker_index = worker_index,
        Message::Abort { detail } => {
            return Err(NetError::Protocol {
                detail: format!("server rejected handshake: {detail}"),
            })
        }
        other => {
            return Err(NetError::Protocol {
                detail: format!("expected AssignShard after Hello, got {other:?}"),
            })
        }
    }
    reader.set_read_timeout(None)?;

    // Liveness side-channel: heartbeat frames share the write half through
    // the mutex, so they are serialised against update frames.
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let interval = options.heartbeat;
        std::thread::spawn(move || {
            let mut seq = 0u64;
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                if last.elapsed() < interval {
                    continue;
                }
                last = Instant::now();
                seq += 1;
                let mut w = writer.lock().expect("writer lock");
                if write_message(&mut *w, &Message::Heartbeat { seq }).is_err() {
                    break;
                }
            }
        })
    };
    // Whatever way serve() exits, the heartbeat thread must be reaped.
    let result = serve_loop(&mut reader, &writer, algorithm, ctx, &options, &mut report);
    stop.store(true, Ordering::Relaxed);
    heartbeat.join().expect("heartbeat thread");
    result.map(|()| report)
}

fn serve_loop(
    reader: &mut Conn,
    writer: &Arc<Mutex<Conn>>,
    algorithm: &mut dyn FlAlgorithm,
    ctx: &FederationContext,
    options: &WorkerOptions,
    report: &mut WorkerReport,
) -> NetResult<()> {
    loop {
        match read_message(reader)? {
            Message::Dispatch {
                round,
                clients,
                state,
                parallelism,
            } => {
                report.dispatches += 1;
                let Some(state) = state else {
                    return abort(writer, format!("round {round} dispatch carried no state"));
                };
                if let Err(e) = algorithm.restore(state, ctx) {
                    return abort(writer, format!("state restore failed: {e}"));
                }
                let updates = match run_clients(&*algorithm, round, &clients, ctx, parallelism) {
                    Ok(updates) => updates,
                    Err(e) => return abort(writer, format!("client phase failed: {e}")),
                };
                for update in updates {
                    write_message(
                        &mut *writer.lock().expect("writer lock"),
                        &Message::UpdateReady { round, update },
                    )?;
                    report.updates_sent += 1;
                    if options.die_after_updates == Some(report.updates_sent) {
                        // Simulated crash: vanish mid-shard without a
                        // goodbye, exactly like a killed process.
                        reader.shutdown();
                        report.died = true;
                        return Ok(());
                    }
                }
            }
            Message::Shutdown => return Ok(()),
            Message::Heartbeat { .. } => {}
            Message::Abort { detail } => {
                return Err(NetError::Protocol {
                    detail: format!("server aborted: {detail}"),
                })
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected frame while serving: {other:?}"),
                })
            }
        }
    }
}

/// Reports a local failure to the server, then surfaces it locally.
fn abort(writer: &Arc<Mutex<Conn>>, detail: String) -> NetResult<()> {
    let _ = write_message(
        &mut *writer.lock().expect("writer lock"),
        &Message::Abort {
            detail: detail.clone(),
        },
    );
    Err(NetError::Protocol { detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::run_worker;
    use crate::transport::{Endpoint, Listener};
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_fl::Parallelism;
    use mhfl_models::MhflMethod;
    use pracmhbench_core::{ExperimentSpec, RunScale};

    /// The next frame that is not a heartbeat.
    fn next_frame(conn: &mut Conn) -> Message {
        loop {
            match read_message(conn).expect("worker frame") {
                Message::Heartbeat { .. } => {}
                other => return other,
            }
        }
    }

    #[test]
    fn a_dispatch_without_state_is_refused_not_computed_on_stale_state() {
        let spec = ExperimentSpec::new(DataTask::UciHar, MhflMethod::FedEt, ConstraintCase::Memory)
            .with_scale(RunScale::Quick)
            .with_seed(42);
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let worker = std::thread::spawn(move || {
            let options = WorkerOptions {
                heartbeat: Duration::from_millis(100),
                ..WorkerOptions::default()
            };
            run_worker(&endpoint, &spec, options)
        });

        let mut conn = listener.accept().unwrap();
        assert!(matches!(next_frame(&mut conn), Message::Hello { .. }));
        write_message(
            &mut conn,
            &Message::AssignShard {
                worker_index: 0,
                num_workers: 1,
                num_clients: 0,
            },
        )
        .unwrap();
        let ctx = spec.build_context().unwrap();
        let mut algorithm = mhfl_algorithms::build_algorithm(spec.method);
        algorithm.setup(&ctx).unwrap();
        let state = algorithm.snapshot().unwrap();

        // A stateful dispatch is served...
        write_message(
            &mut conn,
            &Message::Dispatch {
                round: 1,
                clients: vec![0],
                state: Some(state.restricted_to(&[0])),
                parallelism: Parallelism::Sequential,
            },
        )
        .unwrap();
        assert!(matches!(
            next_frame(&mut conn),
            Message::UpdateReady { round: 1, .. }
        ));

        // ...but one that would reuse client 0's restriction for client 1
        // is answered with an abort.
        write_message(
            &mut conn,
            &Message::Dispatch {
                round: 1,
                clients: vec![1],
                state: None,
                parallelism: Parallelism::Sequential,
            },
        )
        .unwrap();
        match next_frame(&mut conn) {
            Message::Abort { detail } => assert!(detail.contains("no state"), "{detail}"),
            Message::UpdateReady { update, .. } => {
                panic!("client {} was computed on stale state", update.client)
            }
            other => panic!("expected an abort, got {other:?}"),
        }
        match worker.join().expect("worker thread") {
            Err(NetError::Protocol { detail }) => assert!(detail.contains("no state"), "{detail}"),
            other => panic!("expected a typed protocol error, got {other:?}"),
        }
    }
}
