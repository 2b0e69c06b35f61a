//! Seeded synthetic sample generators, one per task modality.

use mhfl_models::InputKind;
use mhfl_tensor::{SeededRng, Tensor};

use crate::{DataTask, Dataset};

/// Generates `num_samples` labelled samples for a task.
///
/// Samples are drawn from class-conditional generators: each class owns a
/// "template" (an image pattern, a token distribution or a feature centroid)
/// derived deterministically from `seed`, and samples are noisy realisations
/// of their class template. `class_weights`, when provided, skews the label
/// marginal (used to build non-IID client shards); otherwise labels are
/// uniform.
pub fn generate_dataset(
    task: DataTask,
    num_samples: usize,
    seed: u64,
    class_weights: Option<&[f64]>,
) -> Dataset {
    generate_dataset_with_seeds(task, num_samples, seed, seed, class_weights)
}

/// Like [`generate_dataset`], but with independent seeds for the class
/// templates and the per-sample noise.
///
/// Training, test and public splits of the same federated task must share
/// `template_seed` (so they describe the same underlying classes) while using
/// different `sample_seed`s (so they contain different samples).
pub fn generate_dataset_with_seeds(
    task: DataTask,
    num_samples: usize,
    template_seed: u64,
    sample_seed: u64,
    class_weights: Option<&[f64]>,
) -> Dataset {
    let num_classes = task.num_classes();
    let template_rng = SeededRng::new(template_seed ^ 0xA11C_E5EE_D000_0000);
    let mut sample_rng = SeededRng::new(sample_seed);
    let separation = task.class_separation();

    let uniform = vec![1.0f64; num_classes];
    let weights = class_weights.unwrap_or(&uniform);

    let mut labels = Vec::with_capacity(num_samples);
    for _ in 0..num_samples {
        labels.push(sample_rng.weighted_index(weights));
    }

    let inputs = match task.input_kind() {
        InputKind::Image {
            channels,
            height,
            width,
        } => image_samples(
            &labels,
            channels,
            height,
            width,
            separation,
            &template_rng,
            &mut sample_rng,
        ),
        InputKind::Tokens { vocab, seq_len } => token_samples(
            &labels,
            vocab,
            seq_len,
            separation,
            num_classes,
            &template_rng,
            &mut sample_rng,
        ),
        InputKind::Features { dim } => {
            feature_samples(&labels, dim, separation, &template_rng, &mut sample_rng)
        }
    };
    Dataset::new(inputs, labels, num_classes)
}

fn image_samples(
    labels: &[usize],
    channels: usize,
    height: usize,
    width: usize,
    separation: f32,
    template_rng: &SeededRng,
    sample_rng: &mut SeededRng,
) -> Tensor {
    let sample_len = channels * height * width;
    // Per-class template image.
    let templates: Vec<Vec<f32>> = (0..labels.iter().max().map_or(0, |m| m + 1))
        .map(|class| {
            let mut rng = template_rng.derive(class as u64);
            (0..sample_len)
                .map(|_| rng.normal(0.0, separation))
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(labels.len() * sample_len);
    for &label in labels {
        let template = &templates[label];
        for &t in template {
            data.push(t + sample_rng.normal(0.0, 1.0));
        }
    }
    let mut dims = vec![labels.len()];
    dims.extend_from_slice(&[channels, height, width]);
    Tensor::from_vec(data, &dims).expect("consistent image dimensions")
}

fn token_samples(
    labels: &[usize],
    vocab: usize,
    seq_len: usize,
    separation: f32,
    num_classes: usize,
    template_rng: &SeededRng,
    sample_rng: &mut SeededRng,
) -> Tensor {
    // Each class owns a set of "topical" tokens it prefers; the separation
    // controls how often a sample draws from its class topic vs. the shared
    // background distribution.
    let topic_size = (vocab / num_classes.max(1)).max(1);
    let topic_prob = (0.35 + 0.15 * separation as f64).min(0.95);
    let mut data = Vec::with_capacity(labels.len() * seq_len);
    for &label in labels {
        let mut topic_rng = template_rng.derive(label as u64 + 101);
        let topic_start = topic_rng.index(vocab.saturating_sub(topic_size).max(1));
        for _ in 0..seq_len {
            let token = if sample_rng.bernoulli(topic_prob) {
                topic_start + sample_rng.index(topic_size)
            } else {
                sample_rng.index(vocab)
            };
            data.push(token.min(vocab - 1) as f32);
        }
    }
    Tensor::from_vec(data, &[labels.len(), seq_len]).expect("consistent token dimensions")
}

fn feature_samples(
    labels: &[usize],
    dim: usize,
    separation: f32,
    template_rng: &SeededRng,
    sample_rng: &mut SeededRng,
) -> Tensor {
    let centroids: Vec<Vec<f32>> = (0..labels.iter().max().map_or(0, |m| m + 1))
        .map(|class| {
            let mut rng = template_rng.derive(class as u64 + 7);
            (0..dim).map(|_| rng.normal(0.0, separation)).collect()
        })
        .collect();
    let mut data = Vec::with_capacity(labels.len() * dim);
    for &label in labels {
        let centroid = &centroids[label];
        for &c in centroid {
            data.push(c + sample_rng.normal(0.0, 0.7));
        }
    }
    Tensor::from_vec(data, &[labels.len(), dim]).expect("consistent feature dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_task_input_kind() {
        let cv = generate_dataset(DataTask::Cifar10, 20, 0, None);
        assert_eq!(cv.inputs().dims(), &[20, 3, 8, 8]);
        let nlp = generate_dataset(DataTask::AgNews, 15, 0, None);
        assert_eq!(nlp.inputs().dims(), &[15, 12]);
        let har = generate_dataset(DataTask::UciHar, 10, 0, None);
        assert_eq!(har.inputs().dims(), &[10, 36]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_dataset(DataTask::Cifar100, 30, 5, None);
        let b = generate_dataset(DataTask::Cifar100, 30, 5, None);
        assert_eq!(a, b);
        let c = generate_dataset(DataTask::Cifar100, 30, 6, None);
        assert_ne!(a, c);
    }

    #[test]
    fn class_weights_skew_label_marginal() {
        let mut weights = vec![0.0f64; DataTask::Cifar10.num_classes()];
        weights[3] = 1.0;
        let ds = generate_dataset(DataTask::Cifar10, 50, 1, Some(&weights));
        assert!(ds.labels().iter().all(|&l| l == 3));
    }

    #[test]
    fn labels_are_in_range_and_roughly_uniform() {
        let ds = generate_dataset(DataTask::HarBox, 500, 2, None);
        let hist = ds.class_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 500);
        assert!(hist.iter().all(|&c| c > 50), "uniform-ish labels: {hist:?}");
    }

    #[test]
    fn token_ids_stay_within_vocab() {
        let ds = generate_dataset(DataTask::StackOverflow, 100, 3, None);
        let max = ds
            .inputs()
            .as_slice()
            .iter()
            .cloned()
            .fold(0.0f32, f32::max);
        assert!(max < 96.0);
    }

    #[test]
    fn classes_are_separable_in_feature_space() {
        // Same-class samples should be closer together than cross-class ones
        // on average — otherwise nothing is learnable.
        let ds = generate_dataset(DataTask::UciHar, 200, 4, None);
        let dim = 36;
        let mut same = (0.0f32, 0usize);
        let mut diff = (0.0f32, 0usize);
        let x = ds.inputs().as_slice();
        for i in 0..100 {
            for j in (i + 1)..100 {
                let dist: f32 = (0..dim)
                    .map(|k| (x[i * dim + k] - x[j * dim + k]).powi(2))
                    .sum();
                if ds.labels()[i] == ds.labels()[j] {
                    same = (same.0 + dist, same.1 + 1);
                } else {
                    diff = (diff.0 + dist, diff.1 + 1);
                }
            }
        }
        let avg_same = same.0 / same.1 as f32;
        let avg_diff = diff.0 / diff.1 as f32;
        assert!(avg_diff > avg_same * 1.2, "same={avg_same} diff={avg_diff}");
    }
}
