//! Federated dataset assembly: per-client shards plus a global test set.

use serde::{Deserialize, Serialize};

use crate::{DataTask, Dataset, Partition};

/// A fully materialised federated learning task: one training shard per
/// client, a held-out global test set and a small public "proxy" set used by
/// distillation-based algorithms (Fed-ET). Built by
/// [`ShardPlan::materialise`](crate::ShardPlan::materialise), so every shard
/// is the one the plan derives for that client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatedDataset {
    task: DataTask,
    clients: Vec<Dataset>,
    test: Dataset,
    public: Dataset,
    partition: Partition,
}

impl FederatedDataset {
    /// Assembles a federated dataset from a plan's derived parts.
    ///
    /// # Panics
    /// Panics if `clients` is empty.
    pub(crate) fn from_parts(
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
    use crate::ShardPlan;

    fn materialise(
        task: DataTask,
        clients: usize,
        samples: usize,
        partition: Option<Partition>,
        seed: u64,
    ) -> FederatedDataset {
        ShardPlan::new(task, clients, samples, partition, seed).materialise()
    }

    #[test]
    fn generate_produces_expected_structure() {
        let fed = materialise(DataTask::Cifar10, 10, 20, None, 0);
        assert_eq!(fed.num_clients(), 10);
        assert_eq!(fed.task(), DataTask::Cifar10);
        assert!(fed.test().len() >= 50);
        assert_eq!(fed.public().len(), 64);
        let total: usize = fed.clients().iter().map(Dataset::len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn default_partition_follows_paper() {
        let iid = materialise(DataTask::Cifar100, 10, 30, None, 1);
        assert_eq!(iid.partition(), Partition::Iid);
        let natural = materialise(DataTask::HarBox, 10, 30, None, 1);
        assert!(matches!(natural.partition(), Partition::ByUser { .. }));
        assert!(natural.label_skew() > iid.label_skew());
    }

    #[test]
    fn explicit_dirichlet_partition_is_respected() {
        let fed = materialise(
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
        let a = materialise(DataTask::AgNews, 5, 10, None, 7);
        let b = materialise(DataTask::AgNews, 5, 10, None, 7);
        for (ca, cb) in a.clients().iter().zip(b.clients()) {
            assert_eq!(ca, cb);
        }
        assert_eq!(a.test(), b.test());
    }

    #[test]
    fn every_client_has_data() {
        for task in DataTask::ALL {
            let fed = materialise(task, 6, 15, None, 3);
            assert!(
                fed.clients().iter().all(|c| !c.is_empty()),
                "{task} has empty clients"
            );
        }
    }
}
