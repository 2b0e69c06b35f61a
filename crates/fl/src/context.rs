//! The shared context of one federated experiment.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use mhfl_data::{apply_drift, DataTask, Dataset, Drift, ShardPlan};
use mhfl_device::ClientAssignment;
use mhfl_nn::SgdConfig;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a client's local optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of local SGD steps per round.
    pub local_steps: usize,
    /// Optimiser configuration.
    pub sgd: SgdConfig,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        LocalTrainConfig {
            batch_size: 16,
            local_steps: 5,
            sgd: SgdConfig::default(),
        }
    }
}

/// Where a federation's device/model assignments come from.
///
/// A source must be *seed-deterministic and order-free*: the assignment of a
/// client depends only on the source's own configuration and the client id,
/// never on which other clients were asked before it. That is what makes
/// sparse checkpoints resumable and runs bit-reproducible. The production
/// source (`pracmhbench_core`'s) is a thin wrapper over
/// [`ConstraintCase::derive_device`](mhfl_device::ConstraintCase::derive_device)
/// and [`ConstraintCase::assign_client`](mhfl_device::ConstraintCase::assign_client).
pub trait ClientSource: Send + Sync {
    /// The device/model assignment of `client`.
    fn assignment(&self, client: usize) -> ClientAssignment;

    /// The smallest and largest `entry.stats.params` any assignment of this
    /// source can carry, if the source knows them. A bound need not be
    /// reached by any client, but no assignment may lie outside it.
    ///
    /// [`FederationContext`]'s extreme-assignment scans stop at a client
    /// that reaches the bound, since no later client can beat it. The
    /// default, `None`, makes them walk the whole population.
    fn params_bounds(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Everything an algorithm needs to know about the federation it runs in:
/// the per-client data shards, the per-client device/model assignments
/// produced by a [`mhfl_device::ConstraintCase`], and the local training
/// hyper-parameters.
///
/// Nothing per-client is stored. The context holds the population's
/// [`ShardPlan`] and a [`ClientSource`], and derives a client's shard and
/// assignment from `(seed, client_id)` whenever it is asked, so resident
/// memory is O(active clients): a million-client population costs no more
/// to hold than a six-client one. Only the shared test and public splits
/// are kept. [`assignment`](FederationContext::assignment) returns by value
/// and [`client_shard`](FederationContext::client_shard) returns an owned
/// [`Cow`]. Cloning shares the source. The smallest and largest
/// assignments are found by scans in client-id order that stop at the
/// source's [`params_bounds`](ClientSource::params_bounds), so where client
/// 0 already holds the largest pool entry, set-up derives one client, not
/// the population.
#[derive(Clone)]
pub struct FederationContext {
    plan: ShardPlan,
    test: Dataset,
    public: Dataset,
    source: Arc<dyn ClientSource>,
    train: LocalTrainConfig,
    seed: u64,
    /// Distribution-shift schedule applied to training shards by
    /// [`client_shard_at`](FederationContext::client_shard_at)
    /// ([`Drift::None`] by default — observably inert).
    drift: Drift,
    /// The smallest and the largest assignment by parameter count, each
    /// found on first use by its own scan and cached.
    smallest: OnceLock<ClientAssignment>,
    largest: OnceLock<ClientAssignment>,
}

impl std::fmt::Debug for FederationContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederationContext")
            .field("plan", &self.plan)
            .field("train", &self.train)
            .field("seed", &self.seed)
            .field("drift", &self.drift)
            .finish_non_exhaustive()
    }
}

impl FederationContext {
    /// Assembles a context over the population `plan` describes, with each
    /// client's assignment asked of `source`. The task, the client count
    /// and the shared test and public splits all come from the plan.
    pub fn new(
        plan: ShardPlan,
        source: Arc<dyn ClientSource>,
        train: LocalTrainConfig,
        seed: u64,
    ) -> Self {
        FederationContext {
            plan,
            test: plan.test(),
            public: plan.public(),
            source,
            train,
            seed,
            drift: Drift::None,
            smallest: OnceLock::new(),
            largest: OnceLock::new(),
        }
    }

    /// The data task this federation trains on.
    pub fn task(&self) -> DataTask {
        self.plan.task()
    }

    /// Number of clients in the population (addressable, not resident).
    pub fn num_clients(&self) -> usize {
        self.plan.num_clients()
    }

    /// The held-out global test set (for the global-accuracy metric).
    pub fn test_set(&self) -> &Dataset {
        &self.test
    }

    /// The public proxy dataset shared by server and clients (used by
    /// knowledge-distillation aggregation).
    pub fn public_set(&self) -> &Dataset {
        &self.public
    }

    /// A client's training shard, derived from the plan on each call.
    ///
    /// # Panics
    /// Panics if `client` is out of range.
    pub fn client_shard(&self, client: usize) -> Cow<'_, Dataset> {
        assert!(client < self.num_clients(), "client {client} out of range");
        Cow::Owned(self.plan.client_shard(client))
    }

    /// The training shard of a client *as seen at round `round`*:
    /// [`client_shard`](FederationContext::client_shard) with the context's
    /// [`Drift`] schedule applied. With the default [`Drift::None`] (and in
    /// epoch 0 of any schedule) this is exactly `client_shard`, so undrifted
    /// runs are bit-identical to the round-oblivious accessor.
    ///
    /// # Panics
    /// Panics if `client` is out of range.
    pub fn client_shard_at(&self, client: usize, round: usize) -> Cow<'_, Dataset> {
        let shard = self.client_shard(client);
        match apply_drift(&shard, self.drift, round) {
            Some(drifted) => Cow::Owned(drifted),
            None => shard,
        }
    }

    /// The drift schedule training shards are viewed through.
    pub fn drift(&self) -> Drift {
        self.drift
    }

    /// Sets the drift schedule (default [`Drift::None`]). Drift only affects
    /// [`client_shard_at`](FederationContext::client_shard_at) — the test
    /// and public splits stay stationary, so metrics measure how training
    /// under drift tracks the reference task.
    pub fn set_drift(&mut self, drift: Drift) {
        self.drift = drift;
    }

    /// Builder-style [`set_drift`](FederationContext::set_drift).
    #[must_use]
    pub fn with_drift(mut self, drift: Drift) -> Self {
        self.set_drift(drift);
        self
    }

    /// The device/model assignment of a client (by value — assignments are
    /// small `Copy` records, derived on demand).
    ///
    /// # Panics
    /// Panics if `client` is out of range.
    pub fn assignment(&self, client: usize) -> ClientAssignment {
        assert!(client < self.num_clients(), "client {client} out of range");
        self.source.assignment(client)
    }

    /// Local training hyper-parameters.
    pub fn train_config(&self) -> &LocalTrainConfig {
        &self.train
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The assignment with the smallest model (used by the homogeneous
    /// baseline, which trains "the smallest model across all heterogeneous
    /// devices"): the first client, in id order, with the fewest
    /// parameters. The first call scans clients in id order, in O(1)
    /// memory, and stops at the first one that reaches the source's lower
    /// [`params_bounds`](ClientSource::params_bounds) (at the end of the
    /// population without a bound); the result is cached.
    pub fn smallest_assignment(&self) -> ClientAssignment {
        *self.smallest.get_or_init(|| {
            let bound = self.source.params_bounds().map(|(lo, _)| lo);
            self.first_extreme(bound, |a, best| a < best)
        })
    }

    /// The assignment with the largest model (the proxy for the full global
    /// model used by width/depth extraction): the first client with the
    /// most parameters, found and cached like
    /// [`smallest_assignment`](FederationContext::smallest_assignment) but
    /// stopping at the upper bound.
    pub fn largest_assignment(&self) -> ClientAssignment {
        *self.largest.get_or_init(|| {
            let bound = self.source.params_bounds().map(|(_, hi)| hi);
            self.first_extreme(bound, |a, best| a > best)
        })
    }

    /// The first client, in id order, whose parameter count no other client
    /// `beats`. A strict `beats` keeps the earliest of tied clients, so
    /// stopping once the running best reaches `bound` (which no client can
    /// beat) returns what the full scan would.
    fn first_extreme(&self, bound: Option<u64>, beats: fn(u64, u64) -> bool) -> ClientAssignment {
        let mut best = self.assignment(0);
        for client in 1..self.num_clients() {
            if Some(best.entry.stats.params) == bound {
                break;
            }
            let a = self.assignment(client);
            if beats(a.entry.stats.params, best.entry.stats.params) {
                best = a;
            }
        }
        best
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use mhfl_device::{ConstraintCase, CostModel, ModelPool};
    use mhfl_models::{MhflMethod, ModelFamily};

    const TASK: DataTask = DataTask::UciHar;

    /// Assignments built up front, as a source that reports `bounds` and
    /// counts the assignments it is asked for.
    struct Assignments {
        list: Vec<ClientAssignment>,
        bounds: Option<(u64, u64)>,
        derived: AtomicUsize,
    }

    impl ClientSource for Assignments {
        fn assignment(&self, client: usize) -> ClientAssignment {
            self.derived.fetch_add(1, Ordering::Relaxed);
            self.list[client]
        }

        fn params_bounds(&self) -> Option<(u64, u64)> {
            self.bounds
        }
    }

    fn pool() -> ModelPool {
        ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::HETEROGENEOUS,
            TASK.num_classes(),
        )
    }

    /// A context over `list`, its source reporting `bounds`; the source is
    /// returned too, so a test can read how many clients were derived.
    fn context_over(
        list: Vec<ClientAssignment>,
        bounds: Option<(u64, u64)>,
    ) -> (FederationContext, Arc<Assignments>) {
        let num_clients = list.len();
        let source = Arc::new(Assignments {
            list,
            bounds,
            derived: AtomicUsize::new(0),
        });
        let ctx = FederationContext::new(
            ShardPlan::new(TASK, num_clients, 10, None, 0),
            source.clone(),
            LocalTrainConfig::default(),
            1,
        );
        (ctx, source)
    }

    /// The SHeteroFL assignments of `num_clients` clients under `case`.
    fn assignments(case: ConstraintCase, num_clients: usize) -> Vec<ClientAssignment> {
        let pool = pool();
        (0..num_clients)
            .map(|client| {
                let device = case.derive_device(0, client);
                case.assign_client(
                    &pool,
                    MhflMethod::SHeteroFl,
                    &device,
                    &CostModel::default(),
                    client,
                )
            })
            .collect()
    }

    /// A UCI-HAR federation of SHeteroFL clients under `case`: ten samples
    /// per client, everything seeded by 0 and the context seed 1. Its
    /// source reports no bounds.
    pub(crate) fn test_context(case: ConstraintCase, num_clients: usize) -> FederationContext {
        context_over(assignments(case, num_clients), None).0
    }

    fn context() -> FederationContext {
        test_context(ConstraintCase::Memory, 6)
    }

    #[test]
    fn context_exposes_clients_and_assignments() {
        let ctx = context();
        assert_eq!(ctx.num_clients(), 6);
        assert_eq!(ctx.assignment(3).client_id, 3);
        assert_eq!(ctx.seed(), 1);
        assert_eq!(ctx.task(), TASK);
        assert_eq!(ctx.client_shard(2).len(), 10);
        assert!(ctx.test_set().len() >= 64);
        assert_eq!(ctx.public_set().len(), 64);
    }

    #[test]
    fn extreme_assignments_bracket_the_population() {
        let list = assignments(ConstraintCase::Memory, 6);
        let entries = pool();
        let params = entries
            .entries_for_method(MhflMethod::SHeteroFl)
            .iter()
            .map(|e| e.stats.params);
        let bounds = (params.clone().min().unwrap(), params.max().unwrap());
        let (unbounded, _) = context_over(list.clone(), None);
        let (bounded, _) = context_over(list, Some(bounds));
        for ctx in [&unbounded, &bounded] {
            let smallest = ctx.smallest_assignment();
            let largest = ctx.largest_assignment();
            for c in 0..ctx.num_clients() {
                let params = ctx.assignment(c).entry.stats.params;
                assert!(params >= smallest.entry.stats.params);
                assert!(params <= largest.entry.stats.params);
            }
        }
        assert_eq!(
            bounded.smallest_assignment(),
            unbounded.smallest_assignment()
        );
        assert_eq!(bounded.largest_assignment(), unbounded.largest_assignment());
    }

    /// Assignments with the given parameter counts, one client each.
    fn with_params(params: &[u64]) -> Vec<ClientAssignment> {
        let base = assignments(ConstraintCase::Memory, 1)[0];
        params
            .iter()
            .enumerate()
            .map(|(client, &p)| {
                let mut a = base;
                a.client_id = client;
                a.entry.stats.params = p;
                a
            })
            .collect()
    }

    #[test]
    fn bounded_scans_stop_at_the_bound() {
        // Client 0 holds the upper bound: one derivation finds the largest.
        let (ctx, source) = context_over(with_params(&[9, 3, 9, 1, 5]), Some((1, 9)));
        assert_eq!(ctx.largest_assignment().client_id, 0);
        assert_eq!(source.derived.load(Ordering::Relaxed), 1);
        // A bound no client reaches scans everyone.
        let (ctx, source) = context_over(with_params(&[4, 3, 7, 2, 5]), Some((1, 9)));
        assert_eq!(ctx.largest_assignment().client_id, 2);
        assert_eq!(source.derived.load(Ordering::Relaxed), 5);
        assert_eq!(ctx.smallest_assignment().client_id, 3);
        assert_eq!(source.derived.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn bounded_scans_return_the_full_scans_choice() {
        // (parameter counts, first smallest, first largest) under bounds (1, 9).
        for (params, smallest, largest) in [
            // A client holds each bound before the others.
            (&[1, 9, 5, 3, 7][..], 0, 1),
            // Only the last client holds each bound.
            (&[5, 4, 6, 9], 1, 3),
            (&[5, 6, 4, 1], 3, 1),
            // Several clients tie each bound, and others tie on the way.
            (&[5, 5, 3, 3, 9, 9, 1, 1, 9, 1], 6, 4),
            (&[2, 9, 9, 1, 1], 3, 1),
        ] {
            let (bounded, _) = context_over(with_params(params), Some((1, 9)));
            let (unbounded, _) = context_over(with_params(params), None);
            for ctx in [&bounded, &unbounded] {
                assert_eq!(ctx.smallest_assignment().client_id, smallest, "{params:?}");
                assert_eq!(ctx.largest_assignment().client_id, largest, "{params:?}");
            }
        }
    }

    #[test]
    fn lazy_context_derives_on_demand() {
        let ctx = test_context(ConstraintCase::Memory, 100_000);
        assert_eq!(ctx.num_clients(), 100_000);
        // A far-out client's shard derives without any other, and the
        // derivation is deterministic.
        let a = ctx.assignment(99_999);
        assert_eq!(a.client_id, 99_999);
        assert_eq!(a, ctx.assignment(99_999));
        assert_eq!(
            ctx.client_shard(99_999).as_ref(),
            ctx.client_shard(99_999).as_ref()
        );
        // Clone shares the source.
        let cloned = ctx.clone();
        assert_eq!(cloned.assignment(12_345), ctx.assignment(12_345));
    }
}
