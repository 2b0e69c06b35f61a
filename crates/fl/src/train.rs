//! Local training and evaluation helpers shared by all algorithms.

use std::ops::Range;

use mhfl_data::{Batch, Dataset};
use mhfl_models::{ForwardOutput, ProxyModel};
use mhfl_nn::loss::{accuracy, cross_entropy};
use mhfl_nn::{Layer, Sgd};
use mhfl_tensor::SeededRng;

use crate::{fan_out, FlResult, LocalTrainConfig, Parallelism};

/// Runs plain cross-entropy SGD on a client's shard for one federated round
/// (`cfg.local_steps` mini-batches) and returns the mean training loss.
///
/// # Errors
/// Propagates forward/backward errors from the proxy model.
pub fn local_train_ce(
    model: &mut ProxyModel,
    data: &Dataset,
    cfg: &LocalTrainConfig,
    rng: &mut SeededRng,
) -> FlResult<f32> {
    let mut opt = Sgd::new(cfg.sgd);
    let mut losses = Vec::new();
    let mut batches = data.batches(cfg.batch_size, rng);
    if batches.is_empty() {
        return Ok(0.0);
    }
    let mut cursor = 0usize;
    for _ in 0..cfg.local_steps {
        if cursor >= batches.len() {
            batches = data.batches(cfg.batch_size, rng);
            cursor = 0;
        }
        let batch = &batches[cursor];
        cursor += 1;
        model.zero_grad();
        let out = model.forward_detailed(&batch.inputs, true)?;
        let (loss, grad) = cross_entropy(&out.logits, &batch.labels)?;
        model.backward_detailed(&grad, None, &[])?;
        opt.step(model)?;
        losses.push(loss);
    }
    Ok(losses.iter().sum::<f32>() / losses.len().max(1) as f32)
}

/// Rows per evaluation forward pass. Every scorer walks the test set in
/// chunks of this many rows, and the pool splits it only between chunks.
const EVAL_CHUNK_ROWS: usize = 128;

/// Evaluates a proxy model's top-1 accuracy on a dataset.
///
/// # Errors
/// Propagates forward errors from the proxy model.
pub fn evaluate_accuracy(model: &mut ProxyModel, data: &Dataset) -> FlResult<f32> {
    evaluate_chunks(model, data, |model, batch| {
        top1_correct(&model.forward_detailed(&batch.inputs, false)?, batch)
    })
}

/// One chunk's term of [`evaluate_accuracy`]: the top-1 accuracy of `out`,
/// a forward of `batch`, weighted by the chunk's rows.
///
/// # Errors
/// Returns an error if the logits and the labels disagree in rows.
pub fn top1_correct(out: &ForwardOutput, batch: &Batch) -> FlResult<f32> {
    Ok(accuracy(&out.logits, &batch.labels)? * batch.len() as f32)
}

/// Scores one built model on `data` exactly as [`evaluate_models`] scores
/// each of its keys, on the calling thread.
///
/// # Errors
/// Propagates the first failing chunk's error.
pub fn evaluate_chunks<M>(
    model: &mut M,
    data: &Dataset,
    score_chunk: impl Fn(&mut M, &Batch) -> FlResult<f32>,
) -> FlResult<f32> {
    let terms = chunk_terms(model, data, 0..num_chunks(data), &score_chunk)?;
    Ok(accuracy_of(terms, data.len()))
}

/// Scores keys read off built models on `data`. Each entry of `models`
/// pairs the key `build` makes a model of with the keys read off that
/// model; the result holds one accuracy per read key, in `models` order.
///
/// `score_chunk` gets a model, its read keys and a chunk, and returns one
/// term per key: the key's correct rows, its accuracy weighted by the
/// chunk's rows. A key's accuracy is the sum of its terms over the 128-row
/// chunks of `data`, added in chunk order from 0.0, divided by the row
/// count; an empty `data` scores 0.0.
///
/// The chunks are split into as many contiguous slices as `parallelism` has
/// workers (at most one per chunk), and each `(model, slice)` pair is one
/// [`fan_out`] task that builds its own model. Tasks are ordered
/// model-major, so the first error is the one a serial loop over the models
/// would hit. Under [`Parallelism::Sequential`] each model is one task over
/// every chunk.
///
/// # Errors
/// Returns the error of the lowest failing task.
pub fn evaluate_models<B, K, M>(
    models: &[(B, Vec<K>)],
    data: &Dataset,
    parallelism: Parallelism,
    build: impl Fn(&B) -> FlResult<M> + Sync,
    score_chunk: impl Fn(&mut M, &[K], &Batch) -> FlResult<Vec<f32>> + Sync,
) -> FlResult<Vec<Vec<f32>>>
where
    B: Sync,
    K: Sync,
{
    let chunks = num_chunks(data);
    let slices = parallelism.worker_count(chunks);
    let terms = fan_out(models.len() * slices, parallelism, |task| {
        let ((source, keys), slice) = (&models[task / slices], task % slices);
        let mut model = build(source)?;
        let range = chunks * slice / slices..chunks * (slice + 1) / slices;
        chunk_terms(&mut model, data, range, &|model, batch| {
            score_chunk(model, keys, batch)
        })
    })?;
    Ok(terms
        .chunks(slices)
        .zip(models)
        .map(|(per_slice, (_, keys))| {
            (0..keys.len())
                .map(|key| {
                    let chunk_terms = per_slice.iter().flatten().map(|terms| terms[key]);
                    accuracy_of(chunk_terms, data.len())
                })
                .collect()
        })
        .collect())
}

fn num_chunks(data: &Dataset) -> usize {
    data.len().div_ceil(EVAL_CHUNK_ROWS)
}

/// `score_chunk` of each chunk in `chunks`, in chunk order.
fn chunk_terms<M, T>(
    model: &mut M,
    data: &Dataset,
    chunks: Range<usize>,
    score_chunk: &impl Fn(&mut M, &Batch) -> FlResult<T>,
) -> FlResult<Vec<T>> {
    chunks
        .map(|chunk| {
            let start = chunk * EVAL_CHUNK_ROWS;
            let indices: Vec<usize> = (start..(start + EVAL_CHUNK_ROWS).min(data.len())).collect();
            score_chunk(model, &data.subset(&indices).as_batch())
        })
        .collect()
}

/// The chunk terms' sum, in chunk order from 0.0, over the row count.
fn accuracy_of(terms: impl IntoIterator<Item = f32>, rows: usize) -> f32 {
    if rows == 0 {
        return 0.0;
    }
    terms.into_iter().fold(0.0, |sum, term| sum + term) / rows as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_data::{generate_dataset, DataTask};
    use mhfl_models::{ModelFamily, ProxyConfig};

    fn har_model(seed: u64) -> ProxyModel {
        ProxyModel::new(ProxyConfig::for_family(
            ModelFamily::HarCnn,
            DataTask::UciHar.input_kind(),
            DataTask::UciHar.num_classes(),
            seed,
        ))
        .unwrap()
    }

    #[test]
    fn local_training_reduces_loss_and_improves_accuracy() {
        let data = generate_dataset(DataTask::UciHar, 120, 0, None);
        let mut model = har_model(1);
        let mut rng = SeededRng::new(2);
        let cfg = LocalTrainConfig {
            local_steps: 8,
            ..LocalTrainConfig::default()
        };

        let acc_before = evaluate_accuracy(&mut model, &data).unwrap();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..6 {
            let loss = local_train_ce(&mut model, &data, &cfg, &mut rng).unwrap();
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        let acc_after = evaluate_accuracy(&mut model, &data).unwrap();
        assert!(last_loss < first_loss.unwrap());
        assert!(
            acc_after > acc_before,
            "accuracy {acc_before} -> {acc_after}"
        );
        assert!(
            acc_after > 0.4,
            "training accuracy should clearly beat chance, got {acc_after}"
        );
    }

    #[test]
    fn evaluation_handles_empty_and_tiny_datasets() {
        let mut model = har_model(3);
        let empty = generate_dataset(DataTask::UciHar, 0, 0, None);
        assert_eq!(evaluate_accuracy(&mut model, &empty).unwrap(), 0.0);
        let tiny = generate_dataset(DataTask::UciHar, 3, 1, None);
        let acc = evaluate_accuracy(&mut model, &tiny).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    /// Slicing the chunks across workers is unobservable: every key scores
    /// the bits a single-threaded pass over a pre-built model gives, on an
    /// empty set, one partial chunk and three chunks with a ragged tail. The
    /// keys are block counts read off one forward of the 3-block model.
    #[test]
    fn sliced_scores_equal_the_single_pass_bitwise() {
        let models: Vec<(u64, Vec<usize>)> = vec![(3, vec![3]), (4, vec![1, 3, 2]), (5, vec![2])];
        let prefix = |seed: u64, depth: usize| {
            let full = har_model(seed);
            let cfg = full.config().with_depth(depth as f64 / 3.0);
            ProxyModel::from_state(cfg, &full.state_dict()).unwrap()
        };
        for rows in [0, 50, 300] {
            let data = generate_dataset(DataTask::UciHar, rows, 9, None);
            let expected: Vec<Vec<u32>> = models
                .iter()
                .map(|(seed, depths)| {
                    depths
                        .iter()
                        .map(|&depth| {
                            let mut model = prefix(*seed, depth);
                            assert_eq!(model.num_blocks(), depth);
                            evaluate_accuracy(&mut model, &data).unwrap().to_bits()
                        })
                        .collect()
                })
                .collect();
            for parallelism in [
                Parallelism::Sequential,
                Parallelism::Threads { workers: 2 },
                Parallelism::Threads { workers: 3 },
                Parallelism::Threads { workers: 8 },
            ] {
                let scores = evaluate_models(
                    &models,
                    &data,
                    parallelism,
                    |&seed| Ok(har_model(seed)),
                    |model, depths, batch| {
                        let outputs = model.forward_depths(&batch.inputs, depths)?;
                        outputs.iter().map(|out| top1_correct(out, batch)).collect()
                    },
                )
                .unwrap();
                let scores: Vec<Vec<u32>> = scores
                    .iter()
                    .map(|per_key| per_key.iter().map(|s| s.to_bits()).collect())
                    .collect();
                assert_eq!(scores, expected, "{rows} rows under {parallelism:?}");
            }
        }
    }

    #[test]
    fn training_on_empty_dataset_is_a_noop() {
        let empty = generate_dataset(DataTask::UciHar, 0, 0, None);
        let mut model = har_model(4);
        let mut rng = SeededRng::new(0);
        let loss =
            local_train_ce(&mut model, &empty, &LocalTrainConfig::default(), &mut rng).unwrap();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn other_modalities_also_train() {
        // CV proxy on synthetic CIFAR-10.
        let data = generate_dataset(DataTask::Cifar10, 64, 5, None);
        let mut model = ProxyModel::new(ProxyConfig::for_family(
            ModelFamily::ResNet18,
            DataTask::Cifar10.input_kind(),
            10,
            6,
        ))
        .unwrap();
        let mut rng = SeededRng::new(7);
        let cfg = LocalTrainConfig {
            local_steps: 4,
            batch_size: 16,
            ..LocalTrainConfig::default()
        };
        let loss = local_train_ce(&mut model, &data, &cfg, &mut rng).unwrap();
        assert!(loss.is_finite() && loss > 0.0);

        // NLP proxy on synthetic AG-News.
        let data = generate_dataset(DataTask::AgNews, 64, 5, None);
        let mut model = ProxyModel::new(ProxyConfig::for_family(
            ModelFamily::CustomTransformer,
            DataTask::AgNews.input_kind(),
            4,
            8,
        ))
        .unwrap();
        let loss = local_train_ce(&mut model, &data, &cfg, &mut rng).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }
}
