//! Parallel execution of the client phase.
//!
//! Because [`FlAlgorithm::client_update`](crate::FlAlgorithm::client_update)
//! takes `&self` and derives all randomness from `(seed, round, client)`,
//! the updates of one round can be computed on any number of threads without
//! changing results. [`run_clients`] fans the client phase out over a
//! [`std::thread::scope`] worker pool and returns the updates **in selection
//! order**, so downstream aggregation — where floating-point summation order
//! matters — is bit-identical to a sequential run. The pool itself is
//! [`fan_out`], which an evaluation point's `(model, test-set slice)` tasks
//! share ([`evaluate_models`](crate::train::evaluate_models)).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::{ClientUpdate, FederationContext, FlAlgorithm, FlError, FlResult};

/// How the engine executes the client phase of each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Parallelism {
    /// One client after another on the calling thread.
    #[default]
    Sequential,
    /// A scoped worker pool pulling clients off a shared queue.
    Threads {
        /// Number of worker threads; `0` means one per available core.
        workers: usize,
    },
}

impl Parallelism {
    /// Thread-pool execution sized to the machine (`workers = 0`).
    pub fn threads() -> Self {
        Parallelism::Threads { workers: 0 }
    }

    /// The number of workers to spawn for `jobs` parallel tasks.
    pub(crate) fn worker_count(&self, jobs: usize) -> usize {
        match *self {
            Parallelism::Sequential => 1,
            Parallelism::Threads { workers: 0 } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(jobs.max(1)),
            Parallelism::Threads { workers } => workers.min(jobs.max(1)),
        }
    }
}

/// A pluggable executor for the client phase of one round.
///
/// The [`Session`](crate::Session) routes every client fan-out — the
/// synchronous per-round batch and the asynchronous dispatch slots — through
/// its runner, so the *where* of client execution (in-process threads,
/// remote worker processes) is orthogonal to the *what* (the deterministic
/// round loop). Implementations must return updates **in selection order**;
/// that single contract is what makes every execution backend bit-identical
/// to [`Parallelism::Sequential`].
pub trait ClientRunner: Send {
    /// Computes the update for every client in `clients`, returning them in
    /// selection order.
    ///
    /// # Errors
    /// Returns the first failing client's error (in selection order), or a
    /// backend-specific [`FlError`] if execution itself broke down.
    fn run_clients(
        &mut self,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        clients: &[usize],
        ctx: &FederationContext,
        parallelism: Parallelism,
    ) -> FlResult<Vec<ClientUpdate>>;
}

/// The default [`ClientRunner`]: run every client in this process via
/// [`run_clients`], honouring the configured [`Parallelism`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessRunner;

impl ClientRunner for InProcessRunner {
    fn run_clients(
        &mut self,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        clients: &[usize],
        ctx: &FederationContext,
        parallelism: Parallelism,
    ) -> FlResult<Vec<ClientUpdate>> {
        run_clients(algorithm, round, clients, ctx, parallelism)
    }
}

/// Runs the client phase for every client in `clients`, honouring the
/// requested [`Parallelism`], and returns their updates in the order the
/// scheduler selected them.
///
/// The output is independent of the execution mode: updates land in
/// selection order and each [`ClientUpdate`] is a pure function of
/// `(algorithm state, round, client, ctx)`.
///
/// # Errors
/// Propagates the first failing client (in selection order, regardless of
/// which thread hit it first).
pub fn run_clients(
    algorithm: &dyn FlAlgorithm,
    round: usize,
    clients: &[usize],
    ctx: &FederationContext,
    parallelism: Parallelism,
) -> FlResult<Vec<ClientUpdate>> {
    fan_out(clients.len(), parallelism, |index| {
        algorithm.client_update(round, clients[index], ctx)
    })
}

/// Runs `job(0)`, …, `job(jobs - 1)` under `parallelism` and returns their
/// results **in index order** — the one worker pool behind both the client
/// phase ([`run_clients`]) and evaluation
/// ([`evaluate_models`](crate::train::evaluate_models)).
///
/// A single worker ([`Parallelism::Sequential`], or one job) runs on the
/// calling thread. This pool is the only parallelism level of a run: the
/// tensor kernels a job issues stay on the job's thread.
///
/// # Errors
/// Returns the failing job's error with the lowest index, regardless of
/// which thread hit it first. Once any job has failed no further jobs are
/// started.
pub fn fan_out<T, F>(jobs: usize, parallelism: Parallelism, job: F) -> FlResult<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> FlResult<T> + Sync,
{
    let workers = parallelism.worker_count(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<FlResult<T>>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Stop pulling work once any job has failed: the round is
                // lost either way, so don't pay for the rest of it.
                while !failed.load(Ordering::Relaxed) {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= jobs {
                        break;
                    }
                    let result = job(index);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    slots.lock().expect("fan-out slot lock")[index] = Some(result);
                }
            });
        }
    });

    // The cursor hands out indices in order and cancellation only skips
    // indices pulled *after* a failure was recorded, so walking the slots in
    // order hits every success before the first error and never an unfilled
    // slot before it.
    let results = slots.into_inner().expect("worker threads joined");
    let mut outputs = Vec::with_capacity(jobs);
    for (index, slot) in results.into_iter().enumerate() {
        match slot {
            Some(result) => outputs.push(result?),
            None => {
                return Err(FlError::InvalidConfig(format!(
                    "fan-out slot {index} was never filled"
                )))
            }
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::test_context;
    use crate::ClientPayload;
    use mhfl_data::Dataset;
    use mhfl_device::ConstraintCase;

    /// Returns a deterministic per-client token so ordering is observable.
    struct TokenAlgorithm;

    impl FlAlgorithm for TokenAlgorithm {
        fn name(&self) -> String {
            "Token".into()
        }
        fn setup(&mut self, _ctx: &FederationContext) -> FlResult<()> {
            Ok(())
        }
        fn client_update(
            &self,
            round: usize,
            client: usize,
            _ctx: &FederationContext,
        ) -> FlResult<ClientUpdate> {
            if client == 999 {
                return Err(FlError::InvalidConfig("bad client".into()));
            }
            Ok(ClientUpdate::new(
                client,
                round * 100 + client,
                ClientPayload::Empty,
            ))
        }
        fn aggregate(
            &mut self,
            _round: usize,
            _updates: Vec<ClientUpdate>,
            _ctx: &FederationContext,
        ) -> FlResult<()> {
            Ok(())
        }
        fn evaluate_global(&mut self, _data: &Dataset) -> FlResult<f32> {
            Ok(0.0)
        }
        fn evaluate_client(&mut self, _client: usize, _data: &Dataset) -> FlResult<f32> {
            Ok(0.0)
        }
    }

    fn context(num_clients: usize) -> FederationContext {
        test_context(ConstraintCase::Memory, num_clients)
    }

    #[test]
    fn threaded_updates_arrive_in_selection_order() {
        let ctx = context(8);
        let clients = [5, 1, 7, 0, 3];
        let sequential =
            run_clients(&TokenAlgorithm, 2, &clients, &ctx, Parallelism::Sequential).unwrap();
        let threaded = run_clients(
            &TokenAlgorithm,
            2,
            &clients,
            &ctx,
            Parallelism::Threads { workers: 4 },
        )
        .unwrap();
        assert_eq!(sequential.len(), threaded.len());
        for (s, t) in sequential.iter().zip(&threaded) {
            assert_eq!(s.client, t.client);
            assert_eq!(s.num_samples, t.num_samples);
        }
        let order: Vec<usize> = threaded.iter().map(|u| u.client).collect();
        assert_eq!(order, clients);
    }

    #[test]
    fn errors_propagate_from_worker_threads() {
        let ctx = context(4);
        let result = run_clients(
            &TokenAlgorithm,
            1,
            &[0, 999, 2],
            &ctx,
            Parallelism::Threads { workers: 2 },
        );
        assert!(result.is_err());
    }

    #[test]
    fn empty_selection_yields_no_updates() {
        let ctx = context(4);
        let updates = run_clients(
            &TokenAlgorithm,
            1,
            &[],
            &ctx,
            Parallelism::Threads { workers: 4 },
        )
        .unwrap();
        assert!(updates.is_empty());
    }

    #[test]
    fn fan_out_returns_results_in_job_order() {
        let modes = [
            Parallelism::Sequential,
            Parallelism::Threads { workers: 2 },
            Parallelism::Threads { workers: 16 },
        ];
        for parallelism in modes {
            for jobs in [0, 1, 2, 9] {
                let squares = fan_out(jobs, parallelism, |index| Ok(index * index)).unwrap();
                let expected: Vec<usize> = (0..jobs).map(|index| index * index).collect();
                assert_eq!(squares, expected, "{jobs} jobs under {parallelism:?}");
            }
        }
    }

    #[test]
    fn fan_out_reports_the_first_failure_in_job_order() {
        let failing = |index: usize| match index {
            3 | 5 => Err(FlError::InvalidConfig(format!("job {index}"))),
            _ => Ok(index),
        };
        for parallelism in [Parallelism::Sequential, Parallelism::Threads { workers: 4 }] {
            let error = fan_out(8, parallelism, failing).unwrap_err();
            assert_eq!(error, FlError::InvalidConfig("job 3".into()));
        }
    }

    #[test]
    fn fan_out_stops_pulling_work_after_a_failure() {
        // Every job fails, so each worker sees the failure flag it raised
        // itself before it could pull a second job.
        let started = AtomicUsize::new(0);
        let always_failing = |index: usize| -> FlResult<()> {
            started.fetch_add(1, Ordering::Relaxed);
            Err(FlError::InvalidConfig(format!("job {index}")))
        };
        let error = fan_out(50, Parallelism::Threads { workers: 3 }, always_failing).unwrap_err();
        assert_eq!(error, FlError::InvalidConfig("job 0".into()));
        assert!(started.load(Ordering::Relaxed) <= 3);

        started.store(0, Ordering::Relaxed);
        assert!(fan_out(50, Parallelism::Sequential, always_failing).is_err());
        assert_eq!(started.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_count_respects_mode_and_jobs() {
        assert_eq!(Parallelism::Sequential.worker_count(16), 1);
        assert_eq!(Parallelism::Threads { workers: 3 }.worker_count(16), 3);
        assert_eq!(Parallelism::Threads { workers: 8 }.worker_count(2), 2);
        assert!(Parallelism::threads().worker_count(64) >= 1);
    }
}
