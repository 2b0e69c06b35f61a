//! Federated dataset assembly: per-client shards plus a global test set.

use mhfl_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::{generate_dataset, DataTask, Dataset, Partition};

/// A fully materialised federated learning task: one training shard per
/// client, a held-out global test set and a small public "proxy" set used by
/// distillation-based algorithms (Fed-ET).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatedDataset {
    task: DataTask,
    clients: Vec<Dataset>,
    test: Dataset,
    public: Dataset,
    partition: Partition,
}

impl FederatedDataset {
    /// Generates a federated dataset.
    ///
    /// * `num_clients` — number of participating clients.
    /// * `samples_per_client` — average training samples per client.
    /// * `partition` — IID / Dirichlet / by-user split. When `None`, the
    ///   paper's default for the task is used (IID for CIFAR-10/100 and
    ///   AG-News, natural per-user for the rest).
    /// * `seed` — controls data generation and partitioning end to end.
    pub fn generate(
        task: DataTask,
        num_clients: usize,
        samples_per_client: usize,
        partition: Option<Partition>,
        seed: u64,
    ) -> Self {
        let partition = partition.unwrap_or(if task.naturally_non_iid() {
            Partition::ByUser {
                dominant_classes: (task.num_classes() / 2).max(1),
            }
        } else {
            Partition::Iid
        });
        let total_train = (num_clients * samples_per_client).max(num_clients);
        // All three splits share the class templates (same template seed) but
        // contain different samples (different sample seeds).
        let train = generate_dataset(task, total_train, seed, None);
        let test = crate::generate_dataset_with_seeds(
            task,
            (total_train / 4).clamp(64, 2048),
            seed,
            seed ^ 0x7E57,
            None,
        );
        let public = crate::generate_dataset_with_seeds(task, 64, seed, seed ^ 0x9B11C, None);

        let mut rng = SeededRng::new(seed ^ 0x5917);
        let shards = partition.split(&train, num_clients, &mut rng);
        let clients = shards.iter().map(|idx| train.subset(idx)).collect();
        FederatedDataset {
            task,
            clients,
            test,
            public,
            partition,
        }
    }

    /// Assembles a federated dataset from already-built parts — the bridge
    /// from lazy population plans ([`crate::ShardPlan::materialise`]) and
    /// from tests that construct bespoke shard layouts.
    ///
    /// # Panics
    /// Panics if `clients` is empty.
    pub fn from_parts(
        task: DataTask,
        clients: Vec<Dataset>,
        test: Dataset,
        public: Dataset,
        partition: Partition,
    ) -> Self {
        assert!(!clients.is_empty(), "at least one client is required");
        FederatedDataset {
            task,
            clients,
            test,
            public,
            partition,
        }
    }

    /// Takes the dataset apart into `(task, client shards, test, public)`
    /// without copying a sample.
    pub fn into_parts(self) -> (DataTask, Vec<Dataset>, Dataset, Dataset) {
        (self.task, self.clients, self.test, self.public)
    }

    /// The task this dataset realises.
    pub fn task(&self) -> DataTask {
        self.task
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// A particular client's training shard.
    pub fn client(&self, index: usize) -> &Dataset {
        &self.clients[index]
    }

    /// All client shards.
    pub fn clients(&self) -> &[Dataset] {
        &self.clients
    }

    /// The held-out global test set (for the global-accuracy metric).
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// The public proxy dataset shared by server and clients
    /// (used by knowledge-distillation aggregation).
    pub fn public(&self) -> &Dataset {
        &self.public
    }

    /// The partition strategy that was applied.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The label-skew statistic of the realised partition (0 = IID).
    pub fn label_skew(&self) -> f64 {
        // Reconstruct shard histograms directly from the client datasets.
        let num_classes = self.task.num_classes();
        let mut global = vec![0usize; num_classes];
        for c in &self.clients {
            for (class, count) in c.class_histogram().into_iter().enumerate() {
                global[class] += count;
            }
        }
        let total: usize = global.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let global_dist: Vec<f64> = global.iter().map(|&c| c as f64 / total as f64).collect();
        let mut sum_tv = 0.0;
        let mut counted = 0;
        for c in &self.clients {
            if c.is_empty() {
                continue;
            }
            let tv: f64 = c
                .class_histogram()
                .iter()
                .zip(&global_dist)
                .map(|(&h, &g)| (h as f64 / c.len() as f64 - g).abs())
                .sum::<f64>()
                / 2.0;
            sum_tv += tv;
            counted += 1;
        }
        sum_tv / counted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_expected_structure() {
        let fed = FederatedDataset::generate(DataTask::Cifar10, 10, 20, None, 0);
        assert_eq!(fed.num_clients(), 10);
        assert_eq!(fed.task(), DataTask::Cifar10);
        assert!(fed.test().len() >= 50);
        assert_eq!(fed.public().len(), 64);
        let total: usize = fed.clients().iter().map(Dataset::len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn default_partition_follows_paper() {
        let iid = FederatedDataset::generate(DataTask::Cifar100, 10, 30, None, 1);
        assert_eq!(iid.partition(), Partition::Iid);
        let natural = FederatedDataset::generate(DataTask::HarBox, 10, 30, None, 1);
        assert!(matches!(natural.partition(), Partition::ByUser { .. }));
        assert!(natural.label_skew() > iid.label_skew());
    }

    #[test]
    fn explicit_dirichlet_partition_is_respected() {
        let fed = FederatedDataset::generate(
            DataTask::Cifar10,
            8,
            40,
            Some(Partition::Dirichlet { alpha: 0.5 }),
            2,
        );
        assert!(matches!(fed.partition(), Partition::Dirichlet { .. }));
        assert!(fed.label_skew() > 0.1);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = FederatedDataset::generate(DataTask::AgNews, 5, 10, None, 7);
        let b = FederatedDataset::generate(DataTask::AgNews, 5, 10, None, 7);
        for (ca, cb) in a.clients().iter().zip(b.clients()) {
            assert_eq!(ca, cb);
        }
        assert_eq!(a.test(), b.test());
    }

    #[test]
    fn every_client_has_data() {
        for task in DataTask::ALL {
            let fed = FederatedDataset::generate(task, 6, 15, None, 3);
            assert!(
                fed.clients().iter().all(|c| !c.is_empty()),
                "{task} has empty clients"
            );
        }
    }
}
