//! The shared context of one federated experiment.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use mhfl_data::{apply_drift, DataTask, Dataset, Drift, FederatedDataset};
use mhfl_device::ClientAssignment;
use mhfl_nn::SgdConfig;
use serde::{Deserialize, Serialize};

use crate::{FlError, FlResult};

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

/// Where the per-client state of a federation is kept: resident
/// ([`FederationContext::new`]) or derived on each touch
/// ([`FederationContext::lazy`]).
///
/// A source must be *seed-deterministic and order-free*: the value returned
/// for a client depends only on the source's own configuration and the
/// client id, never on which other clients were derived before it — that is
/// what makes sparse checkpoints resumable and derived runs
/// bit-reproducible. Deriving implementations are thin wrappers over
/// [`mhfl_device::ConstraintCase::derive_device`] /
/// [`ConstraintCase::assign_client`](mhfl_device::ConstraintCase::assign_client)
/// and [`mhfl_data::ShardPlan::client_shard`], the same calls a resident
/// population is materialised from.
pub trait ClientSource: Send + Sync {
    /// The device/model assignment of `client`.
    fn assignment(&self, client: usize) -> ClientAssignment;

    /// The training shard of `client`: lent when the source holds it,
    /// owned when it is derived per call.
    fn client_shard(&self, client: usize) -> Cow<'_, Dataset>;
}

/// A materialised population as a source: every shard and assignment
/// resident (memory is O(population)), shards lent without a copy.
struct ResidentSource {
    shards: Vec<Dataset>,
    assignments: Vec<ClientAssignment>,
}

impl ClientSource for ResidentSource {
    fn assignment(&self, client: usize) -> ClientAssignment {
        self.assignments[client]
    }

    fn client_shard(&self, client: usize) -> Cow<'_, Dataset> {
        Cow::Borrowed(&self.shards[client])
    }
}

/// Everything an algorithm needs to know about the federation it runs in:
/// the per-client data shards, the per-client device/model assignments
/// produced by a [`mhfl_device::ConstraintCase`], and the local training
/// hyper-parameters.
///
/// One population, two ways to store it. The shared test/public splits are
/// always resident; per-client state sits behind one [`ClientSource`].
/// [`FederationContext::new`] holds a materialised population, every shard
/// lent without a copy — the right choice up to a few thousand clients.
/// [`FederationContext::lazy`] takes a deriving source that computes each
/// client's shard and assignment on demand from `(seed, client_id)`, so
/// resident memory is O(active clients) and a million-client population
/// costs no more to hold than a six-client one. Materialised from the same
/// derivation, the two hold the same clients and give the same digests.
/// Client state is addressed by id either way:
/// [`assignment`](FederationContext::assignment) returns by value and
/// [`client_shard`](FederationContext::client_shard) returns [`Cow`]
/// (borrowed when resident, owned when derived). Cloning shares the
/// source.
#[derive(Clone)]
pub struct FederationContext {
    task: DataTask,
    num_clients: usize,
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
            .field("task", &self.task)
            .field("num_clients", &self.num_clients)
            .field("train", &self.train)
            .field("seed", &self.seed)
            .field("drift", &self.drift)
            .finish_non_exhaustive()
    }
}

impl FederationContext {
    /// Assembles a context over a materialised population, validating that
    /// data and assignments agree.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] if the number of assignments does
    /// not match the number of clients or the federation is empty.
    pub fn new(
        data: FederatedDataset,
        assignments: Vec<ClientAssignment>,
        train: LocalTrainConfig,
        seed: u64,
    ) -> FlResult<Self> {
        if assignments.len() != data.num_clients() {
            return Err(FlError::InvalidConfig(format!(
                "{} assignments for {} clients",
                assignments.len(),
                data.num_clients()
            )));
        }
        let (task, shards, test, public) = data.into_parts();
        let num_clients = shards.len();
        let source = Arc::new(ResidentSource {
            shards,
            assignments,
        });
        Self::lazy(task, num_clients, test, public, source, train, seed)
    }

    /// Assembles a context over `num_clients` clients of `source`.
    ///
    /// `test` and `public` are the shared evaluation splits (small, held
    /// resident); every per-client shard and assignment is asked of
    /// `source` on demand.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] if `num_clients` is zero.
    pub fn lazy(
        task: DataTask,
        num_clients: usize,
        test: Dataset,
        public: Dataset,
        source: Arc<dyn ClientSource>,
        train: LocalTrainConfig,
        seed: u64,
    ) -> FlResult<Self> {
        if num_clients == 0 {
            return Err(FlError::InvalidConfig("federation has no clients".into()));
        }
        Ok(FederationContext {
            task,
            num_clients,
            test,
            public,
            source,
            train,
            seed,
            drift: Drift::None,
            extremes: OnceLock::new(),
        })
    }

    /// The data task this federation trains on.
    pub fn task(&self) -> DataTask {
        self.task
    }

    /// Number of clients in the population (addressable, not necessarily
    /// resident).
    pub fn num_clients(&self) -> usize {
        self.num_clients
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

    /// A client's training shard: borrowed from a resident population,
    /// derived on demand (owned) from a lazy source.
    ///
    /// # Panics
    /// Panics if `client` is out of range.
    pub fn client_shard(&self, client: usize) -> Cow<'_, Dataset> {
        assert!(client < self.num_clients, "client {client} out of range");
        self.source.client_shard(client)
    }

    /// The training shard of a client *as seen at round `round`*:
    /// [`client_shard`](FederationContext::client_shard) with the context's
    /// [`Drift`] schedule applied. With the default [`Drift::None`] (and in
    /// epoch 0 of any schedule) this is exactly `client_shard` — same
    /// borrow, no copy — so undrifted runs are bit-identical to the
    /// round-oblivious accessor.
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
    /// small `Copy` records, and lazy sources derive them on demand).
    ///
    /// # Panics
    /// Panics if `client` is out of range.
    pub fn assignment(&self, client: usize) -> ClientAssignment {
        assert!(client < self.num_clients, "client {client} out of range");
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
    use mhfl_data::ShardPlan;
    use mhfl_device::{ConstraintCase, CostModel, ModelPool};
    use mhfl_models::{MhflMethod, ModelFamily};

    const TASK: DataTask = DataTask::UciHar;

    fn pool() -> ModelPool {
        ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::HETEROGENEOUS,
            TASK.num_classes(),
        )
    }

    /// A resident UCI-HAR federation of SHeteroFL clients under `case`: ten
    /// samples per client, everything seeded by 0 and the context seed 1.
    pub(crate) fn test_context(case: ConstraintCase, num_clients: usize) -> FederationContext {
        let plan = ShardPlan::new(TASK, num_clients, 10, None, 0);
        let pool = pool();
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
            plan.materialise(),
            assignments,
            LocalTrainConfig::default(),
            1,
        )
        .unwrap()
    }

    fn context() -> FederationContext {
        test_context(ConstraintCase::Memory, 6)
    }

    /// A lazy source over the seed-derived device/shard recipes.
    struct LazySource {
        plan: ShardPlan,
        case: ConstraintCase,
        pool: ModelPool,
        seed: u64,
    }

    impl ClientSource for LazySource {
        fn assignment(&self, client: usize) -> ClientAssignment {
            let device = self.case.derive_device(self.seed, client);
            self.case.assign_client(
                &self.pool,
                MhflMethod::SHeteroFl,
                &device,
                &CostModel::default(),
                client,
            )
        }

        fn client_shard(&self, client: usize) -> Cow<'_, Dataset> {
            Cow::Owned(self.plan.client_shard(client))
        }
    }

    fn lazy_context(num_clients: usize) -> FederationContext {
        let plan = ShardPlan::new(TASK, num_clients, 10, None, 0);
        let source = LazySource {
            plan,
            case: ConstraintCase::Memory,
            pool: pool(),
            seed: 0,
        };
        FederationContext::lazy(
            TASK,
            num_clients,
            plan.test(),
            plan.public(),
            Arc::new(source),
            LocalTrainConfig::default(),
            1,
        )
        .unwrap()
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
        for ctx in [context(), lazy_context(6)] {
            let smallest = ctx.smallest_assignment();
            let largest = ctx.largest_assignment();
            for c in 0..ctx.num_clients() {
                let params = ctx.assignment(c).entry.stats.params;
                assert!(params >= smallest.entry.stats.params);
                assert!(params <= largest.entry.stats.params);
            }
        }
    }

    #[test]
    fn lazy_context_derives_on_demand() {
        let ctx = lazy_context(100_000);
        assert_eq!(ctx.num_clients(), 100_000);
        // Far-out clients derive without materialising anything else, and
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

    /// The one behavioural difference between the two ways of storing it.
    #[test]
    fn resident_population_lends_shards_and_lazy_source_owns_them() {
        assert!(matches!(context().client_shard(0), Cow::Borrowed(_)));
        assert!(matches!(lazy_context(6).client_shard(0), Cow::Owned(_)));
    }

    #[test]
    fn mismatched_assignments_are_rejected() {
        let data = ShardPlan::new(TASK, 4, 10, None, 0).materialise();
        let err = FederationContext::new(data, Vec::new(), LocalTrainConfig::default(), 0);
        assert!(matches!(err, Err(FlError::InvalidConfig(_))));
    }
}
