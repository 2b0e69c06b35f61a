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
/// [`Cow`]. Cloning shares the source.
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
    /// `(smallest, largest)` assignment by parameter count, computed on
    /// first use with an O(population)-time / O(1)-memory scan and cached.
    extremes: OnceLock<(ClientAssignment, ClientAssignment)>,
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
            extremes: OnceLock::new(),
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
    /// devices"). First call scans the population in O(n) time and O(1)
    /// memory; the result is cached.
    pub fn smallest_assignment(&self) -> ClientAssignment {
        self.extremes().0
    }

    /// The assignment with the largest model (the proxy for the full global
    /// model used by width/depth extraction). Cached like
    /// [`smallest_assignment`](FederationContext::smallest_assignment).
    pub fn largest_assignment(&self) -> ClientAssignment {
        self.extremes().1
    }

    fn extremes(&self) -> (ClientAssignment, ClientAssignment) {
        *self.extremes.get_or_init(|| {
            let mut smallest = self.assignment(0);
            let mut largest = smallest;
            for client in 1..self.num_clients() {
                let a = self.assignment(client);
                if a.entry.stats.params < smallest.entry.stats.params {
                    smallest = a;
                }
                if a.entry.stats.params > largest.entry.stats.params {
                    largest = a;
                }
            }
            (smallest, largest)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mhfl_device::{ConstraintCase, CostModel, ModelPool};
    use mhfl_models::{MhflMethod, ModelFamily};

    const TASK: DataTask = DataTask::UciHar;

    /// Assignments built up front, as a source.
    struct Assignments(Vec<ClientAssignment>);

    impl ClientSource for Assignments {
        fn assignment(&self, client: usize) -> ClientAssignment {
            self.0[client]
        }
    }

    /// A UCI-HAR federation of SHeteroFL clients under `case`: ten samples
    /// per client, everything seeded by 0 and the context seed 1.
    pub(crate) fn test_context(case: ConstraintCase, num_clients: usize) -> FederationContext {
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::HETEROGENEOUS,
            TASK.num_classes(),
        );
        let assignments = (0..num_clients)
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
            .collect();
        FederationContext::new(
            ShardPlan::new(TASK, num_clients, 10, None, 0),
            Arc::new(Assignments(assignments)),
            LocalTrainConfig::default(),
            1,
        )
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
        let ctx = context();
        let smallest = ctx.smallest_assignment();
        let largest = ctx.largest_assignment();
        for c in 0..ctx.num_clients() {
            let params = ctx.assignment(c).entry.stats.params;
            assert!(params >= smallest.entry.stats.params);
            assert!(params <= largest.entry.stats.params);
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
