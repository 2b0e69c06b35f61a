//! Client partitioning strategies.

use serde::{Deserialize, Serialize};

/// How a task's samples are spread across federated clients: the label
/// marginal each client's shard is drawn from
/// ([`ShardPlan::client_class_weights`](crate::ShardPlan::client_class_weights)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Partition {
    /// Independent and identically distributed: every client draws from the
    /// uniform label distribution. Used for CIFAR-10/100 and AG-News in the
    /// paper.
    Iid,
    /// Label-skewed non-IID via a symmetric Dirichlet prior over the label
    /// distribution of each client. Small `alpha` (e.g. 0.5) is strongly
    /// skewed, large `alpha` (e.g. 5) is close to IID — the two settings of
    /// the paper's Fig. 8.
    Dirichlet {
        /// Concentration parameter of the Dirichlet prior.
        alpha: f64,
    },
    /// Natural per-user partition: each client corresponds to a simulated
    /// user who concentrates ~95 % of their samples on a small number of
    /// dominant classes (Stack Overflow, HAR-BOX, UCI-HAR in the paper).
    ByUser {
        /// Number of dominant classes per user.
        dominant_classes: usize,
    },
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DataTask, Dataset, ShardPlan};

    /// The mean total-variation distance between each shard's label
    /// distribution and the pooled one: 0 for identical marginals, larger
    /// the more skewed the partition.
    pub(crate) fn label_skew(shards: &[Dataset]) -> f64 {
        let mut pooled = vec![0usize; shards[0].num_classes()];
        for shard in shards {
            for (class, count) in shard.class_histogram().into_iter().enumerate() {
                pooled[class] += count;
            }
        }
        let total = pooled.iter().sum::<usize>() as f64;
        let nonempty: Vec<&Dataset> = shards.iter().filter(|s| !s.is_empty()).collect();
        let sum_tv: f64 = nonempty
            .iter()
            .map(|shard| {
                let len = shard.len() as f64;
                shard
                    .class_histogram()
                    .iter()
                    .zip(&pooled)
                    .map(|(&h, &g)| (h as f64 / len - g as f64 / total).abs())
                    .sum::<f64>()
                    / 2.0
            })
            .sum();
        sum_tv / nonempty.len().max(1) as f64
    }

    fn skew(task: DataTask, clients: usize, partition: Partition, seed: u64) -> f64 {
        let plan = ShardPlan::new(task, clients, 60, Some(partition), seed);
        let shards: Vec<Dataset> = (0..clients).map(|c| plan.client_shard(c)).collect();
        label_skew(&shards)
    }

    #[test]
    fn dirichlet_small_alpha_is_more_skewed() {
        let skew_small = skew(
            DataTask::Cifar10,
            10,
            Partition::Dirichlet { alpha: 0.5 },
            2,
        );
        let skew_large = skew(
            DataTask::Cifar10,
            10,
            Partition::Dirichlet { alpha: 5.0 },
            2,
        );
        assert!(
            skew_small > skew_large,
            "alpha=0.5 ({skew_small}) should be more skewed than alpha=5 ({skew_large})"
        );
    }

    #[test]
    fn by_user_partition_concentrates_classes() {
        let by_user = Partition::ByUser {
            dominant_classes: 2,
        };
        let skew = skew(DataTask::Cifar10, 20, by_user, 3);
        assert!(
            skew > 0.3,
            "natural partition should be clearly non-IID, got {skew}"
        );
    }
}
