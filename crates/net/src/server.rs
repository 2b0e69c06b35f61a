//! Server side: the worker pool and the [`RemoteRunner`] that plugs into
//! [`Session::set_client_runner`](mhfl_fl::Session::set_client_runner).
//!
//! The runner's whole contract is *selection-order reassembly*: whatever
//! worker computes a client's update, the update lands in the slot its
//! client occupies in the scheduler's selection — so aggregation folds
//! updates in exactly the order the single-process engine would, and the
//! digest cannot move.
//!
//! Every dispatch carries the round-start snapshot
//! [`restricted_to`](AlgorithmState::restricted_to) its shard: the shared
//! slots plus the `client.<id>` slots of the shard's clients, which is all
//! `client_update` may read.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mhfl_fl::{
    AlgorithmState, ClientRunner, ClientUpdate, FederationContext, FlAlgorithm, FlResult,
    Parallelism,
};

use crate::error::{NetError, NetResult};
use crate::message::{read_message, write_message, Message, PROTOCOL_VERSION};
use crate::transport::{Conn, Listener};

/// Default window in which a worker must either deliver an update or a
/// heartbeat before the server declares it dead. Workers heartbeat every
/// ~500 ms, so this tolerates many missed beats but never hangs a round.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-worker utilisation accounting, reported by the distributed bench.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// The worker's self-reported display name.
    pub name: String,
    /// Client updates dispatched to this worker (requeues count again).
    pub dispatched: usize,
    /// Client updates actually received back.
    pub completed: usize,
    /// Wall-clock seconds the server spent waiting on (and receiving from)
    /// this worker — the numerator of its utilisation share.
    pub busy_secs: f64,
    /// Whether the worker died (connection lost / heartbeats missed).
    pub dead: bool,
}

/// The accepted worker connections plus their utilisation ledger.
pub struct WorkerPool {
    workers: Vec<Option<Conn>>,
    stats: Vec<WorkerStats>,
}

impl WorkerPool {
    /// Accepts `count` workers from the listener, validating each handshake:
    /// the worker's protocol version and experiment-spec fingerprint must
    /// match ours, otherwise its results would silently diverge. Each
    /// accepted worker gets an [`Message::AssignShard`] reply and the
    /// server-side read timeout (the missed-heartbeat detector).
    ///
    /// # Errors
    /// Returns [`NetError::HandshakeMismatch`] or [`NetError::Protocol`] on
    /// a bad handshake and [`NetError::Io`] on socket failure.
    pub fn accept(
        listener: &Listener,
        count: usize,
        fingerprint: u64,
        num_clients: usize,
    ) -> NetResult<WorkerPool> {
        Self::accept_with_timeout(
            listener,
            count,
            fingerprint,
            num_clients,
            DEFAULT_READ_TIMEOUT,
        )
    }

    /// [`accept`](WorkerPool::accept) with an explicit read timeout —
    /// tests shrink it to fail fast.
    ///
    /// # Errors
    /// Same as [`accept`](WorkerPool::accept).
    pub fn accept_with_timeout(
        listener: &Listener,
        count: usize,
        fingerprint: u64,
        num_clients: usize,
        read_timeout: Duration,
    ) -> NetResult<WorkerPool> {
        let mut workers = Vec::with_capacity(count);
        let mut stats = Vec::with_capacity(count);
        for worker_index in 0..count {
            let mut conn = listener.accept()?;
            conn.set_read_timeout(Some(read_timeout))?;
            let hello = read_message(&mut conn)?;
            let Message::Hello {
                protocol,
                fingerprint: theirs,
                worker_name,
            } = hello
            else {
                return Err(NetError::Protocol {
                    detail: format!("expected Hello as the first frame, got {hello:?}"),
                });
            };
            if protocol != PROTOCOL_VERSION {
                return Err(NetError::Protocol {
                    detail: format!(
                        "worker speaks protocol {protocol}, server speaks {PROTOCOL_VERSION}"
                    ),
                });
            }
            if theirs != fingerprint {
                // Tell the worker why before dropping it.
                let _ = write_message(
                    &mut conn,
                    &Message::Abort {
                        detail: "experiment spec fingerprint mismatch".into(),
                    },
                );
                return Err(NetError::HandshakeMismatch {
                    ours: fingerprint,
                    theirs,
                });
            }
            write_message(
                &mut conn,
                &Message::AssignShard {
                    worker_index,
                    num_workers: count,
                    num_clients,
                },
            )?;
            workers.push(Some(conn));
            stats.push(WorkerStats {
                name: worker_name,
                ..WorkerStats::default()
            });
        }
        Ok(WorkerPool { workers, stats })
    }

    /// Number of workers still connected.
    pub fn live(&self) -> usize {
        self.workers.iter().filter(|w| w.is_some()).count()
    }

    /// The per-worker utilisation ledger.
    pub fn stats(&self) -> &[WorkerStats] {
        &self.stats
    }

    fn kill(&mut self, index: usize) {
        if let Some(conn) = self.workers[index].take() {
            conn.shutdown();
        }
        self.stats[index].dead = true;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Best-effort clean shutdown so workers exit instead of blocking on
        // a read forever.
        for conn in self.workers.iter_mut().flatten() {
            let _ = write_message(conn, &Message::Shutdown);
        }
    }
}

/// A [`ClientRunner`] that shards each round's selection across the pool
/// and reassembles the updates in selection order.
///
/// Dispatch is wave-based: positions still unfilled after a wave (because
/// their worker died mid-shard) are redistributed across the survivors and
/// dispatched again — an update is a pure function of
/// `(state, round, client, ctx)`, so the recomputed bits are identical and
/// nothing is lost. The algorithm state is snapshotted once per round, and
/// every dispatch, requeues included, ships it restricted to the shard.
pub struct RemoteRunner {
    pool: WorkerPool,
    published: Arc<Mutex<Vec<WorkerStats>>>,
}

impl RemoteRunner {
    /// Wraps an accepted pool.
    pub fn new(pool: WorkerPool) -> RemoteRunner {
        RemoteRunner {
            pool,
            published: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A shared handle to the utilisation ledger, updated after every
    /// dispatch call and on drop — the way a driver that hands the runner
    /// to a [`Session`](mhfl_fl::Session) (which consumes it) still gets
    /// the final stats back.
    pub fn stats_handle(&self) -> Arc<Mutex<Vec<WorkerStats>>> {
        Arc::clone(&self.published)
    }

    fn publish(&self) {
        *self.published.lock().expect("stats lock") = self.pool.stats.clone();
    }

    /// Sends one wave of dispatches and collects their updates into
    /// `slots`. Returns the positions that remain unfilled (their workers
    /// died). Each worker gets `state` restricted to its shard's clients.
    fn run_wave(
        &mut self,
        round: usize,
        pending: &[usize],
        clients: &[usize],
        state: &AlgorithmState,
        parallelism: Parallelism,
        slots: &mut [Option<ClientUpdate>],
    ) -> NetResult<()> {
        let live: Vec<usize> = (0..self.pool.workers.len())
            .filter(|&i| self.pool.workers[i].is_some())
            .collect();
        if live.is_empty() {
            return Err(NetError::NoWorkers {
                pending: pending.len(),
            });
        }
        // Round-robin by selection position: deterministic, balanced, and
        // independent of which workers happen to be alive.
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
        for (i, &position) in pending.iter().enumerate() {
            shards[i % live.len()].push(position);
        }

        // Dispatch phase: get every worker computing before reading any
        // results back.
        for (&worker, shard) in live.iter().zip(&shards) {
            if shard.is_empty() {
                continue;
            }
            let conn = self.pool.workers[worker].as_mut().expect("live worker");
            let shard_clients: Vec<usize> = shard.iter().map(|&p| clients[p]).collect();
            let message = Message::Dispatch {
                round,
                state: Some(state.restricted_to(&shard_clients)),
                clients: shard_clients,
                parallelism,
            };
            self.pool.stats[worker].dispatched += shard.len();
            if write_message(conn, &message).is_err() {
                self.pool.kill(worker);
            }
        }

        // Collection phase: workers stream updates concurrently; reading
        // them one worker at a time is safe because a worker blocked on a
        // full socket buffer is unblocked the moment its turn comes.
        for (&worker, shard) in live.iter().zip(&shards) {
            if shard.is_empty() || self.pool.workers[worker].is_none() {
                continue;
            }
            let started = Instant::now();
            let mut received = 0;
            while received < shard.len() {
                let conn = self.pool.workers[worker].as_mut().expect("live worker");
                match read_message(conn) {
                    Ok(Message::Heartbeat { .. }) => {}
                    Ok(Message::UpdateReady {
                        round: update_round,
                        update,
                    }) => {
                        let position = shard[received];
                        if update_round != round || update.client != clients[position] {
                            return Err(NetError::Protocol {
                                detail: format!(
                                    "worker {worker} answered round {update_round} client {} \
                                     where round {round} client {} was expected",
                                    update.client, clients[position]
                                ),
                            });
                        }
                        slots[position] = Some(update);
                        received += 1;
                        self.pool.stats[worker].completed += 1;
                    }
                    Ok(Message::Abort { detail }) => {
                        // The worker's algorithm failed deterministically;
                        // every replica would fail the same way, so don't
                        // requeue — surface it.
                        return Err(NetError::Protocol {
                            detail: format!("worker {worker} aborted: {detail}"),
                        });
                    }
                    Ok(other) => {
                        return Err(NetError::Protocol {
                            detail: format!("unexpected frame from worker {worker}: {other:?}"),
                        });
                    }
                    Err(_) => {
                        // Connection lost or heartbeat window exceeded:
                        // the worker is dead, its unreturned positions
                        // stay pending for the next wave.
                        self.pool.kill(worker);
                        break;
                    }
                }
            }
            self.pool.stats[worker].busy_secs += started.elapsed().as_secs_f64();
        }
        Ok(())
    }
}

impl ClientRunner for RemoteRunner {
    fn run_clients(
        &mut self,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        clients: &[usize],
        ctx: &FederationContext,
        parallelism: Parallelism,
    ) -> FlResult<Vec<ClientUpdate>> {
        let _ = ctx; // the workers own their own (identical) context
        if clients.is_empty() {
            return Ok(Vec::new());
        }
        let state = algorithm.snapshot()?;
        let mut slots: Vec<Option<ClientUpdate>> = (0..clients.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..clients.len()).collect();
        while !pending.is_empty() {
            if let Err(e) = self.run_wave(round, &pending, clients, &state, parallelism, &mut slots)
            {
                self.publish();
                return Err(e.into());
            }
            pending = (0..clients.len()).filter(|&p| slots[p].is_none()).collect();
        }
        self.publish();
        let updates = slots
            .into_iter()
            .map(|slot| slot.expect("no pending position left unfilled"))
            .collect();
        Ok(updates)
    }
}

impl Drop for RemoteRunner {
    fn drop(&mut self) {
        self.publish();
    }
}
