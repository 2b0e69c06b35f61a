//! Per-client, order-free federated shard derivation: the one definition of
//! a population's data.
//!
//! A [`ShardPlan`] stores only the *recipe* — task, partition, per-client
//! sample budget and seed — and derives any single client's shard from
//! `(seed, client_id)` alone. Deriving client `i` never touches the
//! generator state of any other client, so shards are order-free: a run that
//! visits clients `{931_204, 7, 500_000}` produces bit-identical shards to
//! one that visits all million in order.
//!
//! The partition is realised as per-client class-weight vectors feeding the
//! class-conditional sample generators of [`generate_dataset_with_seeds`]:
//! uniform labels for IID, Dirichlet label marginals per client,
//! dominant-class concentration for by-user. The plan is the population's
//! only storage: a federation holds the plan and calls
//! [`ShardPlan::client_shard`] whenever it needs a client's data, so resident
//! memory is O(active clients) at any population size. Deriving one
//! 50-sample shard costs ≈ 15 µs on Stack Overflow, 60 µs on UCI-HAR and
//! 0.4 ms on CIFAR-10 (release build, 2 vCPUs): about 1.5 % of a CIFAR-10
//! round, which derives ten of them.
//!
//! Test and public splits are drawn from the `seed ^ 0x7E57` and
//! `seed ^ 0x9B11C` sample streams over the shared class templates.

use mhfl_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::{generate_dataset_with_seeds, DataTask, Dataset, Partition};

/// Sample-seed stream label for per-client shard draws (distinct from the
/// class-weight stream `seed ^ 0x5917` and the test/public streams).
const SHARD_STREAM: u64 = 0xC11E_57D5;

/// A seed-deterministic recipe for a federated population: every client's
/// shard is a pure function of `(seed, client_id)`.
///
/// The plan itself is a few words of memory regardless of `num_clients`;
/// resident data is bounded by the shards actually requested plus the
/// shared test/public splits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardPlan {
    task: DataTask,
    num_clients: usize,
    samples_per_client: usize,
    partition: Partition,
    seed: u64,
}

impl ShardPlan {
    /// Creates a plan. `partition` defaults to the task's paper default
    /// (IID for CIFAR-10/100 and AG-News, natural per-user otherwise).
    ///
    /// # Panics
    /// Panics if `num_clients` is zero.
    pub fn new(
        task: DataTask,
        num_clients: usize,
        samples_per_client: usize,
        partition: Option<Partition>,
        seed: u64,
    ) -> Self {
        assert!(num_clients > 0, "at least one client is required");
        let partition = partition.unwrap_or(if task.naturally_non_iid() {
            Partition::ByUser {
                dominant_classes: (task.num_classes() / 2).max(1),
            }
        } else {
            Partition::Iid
        });
        ShardPlan {
            task,
            num_clients,
            samples_per_client: samples_per_client.max(1),
            partition,
            seed,
        }
    }

    /// The task this plan realises.
    pub fn task(&self) -> DataTask {
        self.task
    }

    /// Population size (clients that *can* be derived, not clients resident).
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Training samples in every derived shard.
    pub fn samples_per_client(&self) -> usize {
        self.samples_per_client
    }

    /// The partition strategy the per-client class weights realise.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The seed every derivation flows from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The class-weight vector of one client's label marginal, or `None`
    /// for the uniform (IID) marginal. Order-free: depends only on
    /// `(seed, partition, client)`.
    pub fn client_class_weights(&self, client: usize) -> Option<Vec<f64>> {
        assert!(client < self.num_clients, "client {client} out of range");
        let num_classes = self.task.num_classes();
        match self.partition {
            Partition::Iid => None,
            Partition::Dirichlet { alpha } => Some(
                SeededRng::new(self.seed ^ 0x5917)
                    .derive(client as u64)
                    .dirichlet(alpha.max(1e-3), num_classes),
            ),
            Partition::ByUser { dominant_classes } => {
                let dominant = dominant_classes.clamp(1, num_classes);
                if dominant == num_classes {
                    return None;
                }
                let preferred = SeededRng::new(self.seed ^ 0x5917)
                    .derive(client as u64)
                    .choose_indices(num_classes, dominant);
                // ~95% of a user's samples fall in its dominant classes.
                let background = 0.05 / (num_classes - dominant) as f64;
                let mut weights = vec![background; num_classes];
                let boost = 0.95 / dominant as f64;
                for class in preferred {
                    weights[class] = boost;
                }
                Some(weights)
            }
        }
    }

    /// Derives one client's training shard. Bit-identical for the same
    /// `(seed, client)` regardless of which other clients were derived
    /// before it.
    ///
    /// # Panics
    /// Panics if `client >= num_clients`.
    pub fn client_shard(&self, client: usize) -> Dataset {
        let weights = self.client_class_weights(client);
        let sample_seed = SeededRng::new(self.seed ^ SHARD_STREAM)
            .derive(client as u64)
            .seed();
        generate_dataset_with_seeds(
            self.task,
            self.samples_per_client,
            self.seed,
            sample_seed,
            weights.as_deref(),
        )
    }

    /// Nominal total training samples across the whole population (used only
    /// to size the test split; saturates instead of overflowing at extreme
    /// populations).
    fn total_train(&self) -> usize {
        self.num_clients
            .saturating_mul(self.samples_per_client)
            .max(self.num_clients)
    }

    /// The held-out global test set: `seed ^ 0x7E57` samples over the shared
    /// class templates.
    pub fn test(&self) -> Dataset {
        generate_dataset_with_seeds(
            self.task,
            (self.total_train() / 4).clamp(64, 2048),
            self.seed,
            self.seed ^ 0x7E57,
            None,
        )
    }

    /// The public proxy set shared by server and clients (`seed ^ 0x9B11C`).
    pub fn public(&self) -> Dataset {
        generate_dataset_with_seeds(self.task, 64, self.seed, self.seed ^ 0x9B11C, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::label_skew;

    /// Every shard of the population, in client order.
    fn shards(plan: &ShardPlan) -> Vec<Dataset> {
        (0..plan.num_clients())
            .map(|c| plan.client_shard(c))
            .collect()
    }

    #[test]
    fn shards_are_order_free_and_deterministic() {
        let plan = ShardPlan::new(DataTask::Cifar10, 1000, 8, None, 42);
        // Deriving 700 after 3 equals deriving it cold.
        let _ = plan.client_shard(3);
        let warm = plan.client_shard(700);
        let cold = ShardPlan::new(DataTask::Cifar10, 1000, 8, None, 42).client_shard(700);
        assert_eq!(warm, cold);
        // Distinct clients get distinct samples.
        assert_ne!(plan.client_shard(0), plan.client_shard(1));
        // Re-derivation is bit-stable.
        assert_eq!(plan.client_shard(0), plan.client_shard(0));
    }

    #[test]
    fn huge_populations_cost_nothing_until_derived() {
        let plan = ShardPlan::new(DataTask::UciHar, 1_000_000, 4, None, 7);
        assert_eq!(plan.num_clients(), 1_000_000);
        // Only the one requested shard is ever created.
        let shard = plan.client_shard(999_999);
        assert_eq!(shard.len(), 4);
        // Test/public splits are population-independent in size.
        assert_eq!(plan.test().len(), 2048);
        assert_eq!(plan.public().len(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ShardPlan::new(DataTask::Cifar10, 0, 8, None, 6);
    }

    #[test]
    fn partitions_shape_the_label_marginal() {
        let skewed = ShardPlan::new(
            DataTask::Cifar10,
            4,
            200,
            Some(Partition::Dirichlet { alpha: 0.2 }),
            5,
        );
        let iid = ShardPlan::new(DataTask::Cifar10, 4, 200, Some(Partition::Iid), 5);
        assert!(iid.client_class_weights(0).is_none());
        let weights = skewed.client_class_weights(0).unwrap();
        assert_eq!(weights.len(), 10);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // A strongly skewed client concentrates mass on few classes.
        assert!(weights.iter().cloned().fold(0.0, f64::max) > 0.3);
        // The derived shards' skew is visibly above the IID baseline.
        assert!(label_skew(&shards(&skewed)) > label_skew(&shards(&iid)));
    }

    #[test]
    fn by_user_weights_concentrate_on_dominant_classes() {
        let plan = ShardPlan::new(DataTask::UciHar, 8, 50, None, 9);
        assert!(matches!(plan.partition(), Partition::ByUser { .. }));
        let weights = plan.client_class_weights(2).unwrap();
        let heavy = weights.iter().filter(|&&w| w > 0.1).count();
        let Partition::ByUser { dominant_classes } = plan.partition() else {
            unreachable!()
        };
        assert_eq!(heavy, dominant_classes);
    }

    #[test]
    fn generate_produces_expected_structure() {
        let plan = ShardPlan::new(DataTask::Cifar10, 10, 20, None, 0);
        assert_eq!(plan.num_clients(), 10);
        assert_eq!(plan.task(), DataTask::Cifar10);
        assert!(plan.test().len() >= 50);
        assert_eq!(plan.public().len(), 64);
        let total: usize = shards(&plan).iter().map(Dataset::len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn default_partition_follows_paper() {
        let iid = ShardPlan::new(DataTask::Cifar100, 10, 30, None, 1);
        assert_eq!(iid.partition(), Partition::Iid);
        let natural = ShardPlan::new(DataTask::HarBox, 10, 30, None, 1);
        assert!(matches!(natural.partition(), Partition::ByUser { .. }));
        assert!(label_skew(&shards(&natural)) > label_skew(&shards(&iid)));
    }

    #[test]
    fn explicit_dirichlet_partition_is_respected() {
        let plan = ShardPlan::new(
            DataTask::Cifar10,
            8,
            40,
            Some(Partition::Dirichlet { alpha: 0.5 }),
            2,
        );
        assert!(matches!(plan.partition(), Partition::Dirichlet { .. }));
        assert!(label_skew(&shards(&plan)) > 0.1);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = ShardPlan::new(DataTask::AgNews, 5, 10, None, 7);
        let b = ShardPlan::new(DataTask::AgNews, 5, 10, None, 7);
        assert_eq!(shards(&a), shards(&b));
        assert_eq!(a.test(), b.test());
    }

    #[test]
    fn every_client_has_data() {
        for task in DataTask::ALL {
            let plan = ShardPlan::new(task, 6, 15, None, 3);
            assert!(
                shards(&plan).iter().all(|c| !c.is_empty()),
                "{task} has empty clients"
            );
        }
    }
}
