//! Depth-heterogeneous algorithms: FeDepth, InclusiveFL and DepthFL.
//!
//! Depth-level clients keep the full layer width but only a prefix of the
//! block stack. Aggregation is per-parameter partial averaging exactly as in
//! the width case (a shallow client simply contributes no entries for the
//! blocks it lacks). The three methods differ in how they compensate for the
//! sparsely-updated deep blocks:
//!
//! * **FeDepth** — plain block-prefix training and partial aggregation
//!   (its memory savings come from training block-by-block, which the cost
//!   model accounts for);
//! * **InclusiveFL** — after aggregation, blocks that no selected client
//!   covered receive a scaled copy of the update of the deepest covered
//!   block (momentum knowledge transfer);
//! * **DepthFL** — every block carries an auxiliary classifier; clients train
//!   all the classifiers they own jointly and distill the deepest available
//!   classifier into the shallower ones (self-distillation), and the global
//!   model is evaluated as the ensemble of its classifiers.
//!
//! Every deployment of the three is a block prefix of the global model, so
//! an evaluation point reads every distinct depth off one forward of the
//! global model per test chunk ([`mhfl_models::ProxyModel::forward_depths`]),
//! bit for bit what each extracted prefix model would score on its own.

use mhfl_data::{Batch, Dataset};
use mhfl_fl::{FlResult, LocalTrainConfig};
use mhfl_models::{ForwardOutput, ProxyConfig, ProxyModel};
use mhfl_nn::loss::{accuracy, cross_entropy, soft_cross_entropy};
use mhfl_nn::{Layer, Sgd, StateDict};
use mhfl_tensor::{SeededRng, Tensor};

/// The depth fractions a deployed model is keyed on.
const DEPTH_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Weight of the self-distillation term in DepthFL's local loss.
const DEPTHFL_KD_WEIGHT: f32 = 0.3;
/// Scale of InclusiveFL's momentum transfer into uncovered blocks.
const INCLUSIVE_TRANSFER_SCALE: f32 = 0.3;

/// The model `client` deploys: the block-prefix sub-model of the global
/// parameters at a depth keyed on `client % 4`.
pub(crate) fn deployed_config(global: ProxyConfig, client: usize) -> ProxyConfig {
    global.with_depth(DEPTH_FRACTIONS[client % DEPTH_FRACTIONS.len()])
}

/// DepthFL local training: joint cross-entropy over every available
/// classifier plus distillation of the deepest classifier into the
/// shallower ones.
pub(crate) fn local_train_depthfl(
    model: &mut ProxyModel,
    data: &Dataset,
    cfg: &LocalTrainConfig,
    rng: &mut SeededRng,
) -> FlResult<f32> {
    let mut opt = Sgd::new(cfg.sgd);
    let mut batches = data.batches(cfg.batch_size, rng);
    if batches.is_empty() {
        return Ok(0.0);
    }
    let mut cursor = 0usize;
    let mut total_loss = 0.0f32;
    let mut steps = 0usize;
    for _ in 0..cfg.local_steps {
        if cursor >= batches.len() {
            batches = data.batches(cfg.batch_size, rng);
            cursor = 0;
        }
        let batch = &batches[cursor];
        cursor += 1;
        model.zero_grad();
        let out = model.forward_detailed(&batch.inputs, true)?;
        let num_heads = 1 + out.aux_logits.len();
        let head_weight = 1.0 / num_heads as f32;

        // Final classifier: plain cross-entropy.
        let (final_loss, final_grad) = cross_entropy(&out.logits, &batch.labels)?;
        let grad_logits = final_grad.scale(head_weight);
        let teacher_probs = out.logits.softmax_rows()?;

        // Auxiliary classifiers: cross-entropy + distillation from the
        // deepest classifier.
        let mut aux_grads: Vec<Option<Tensor>> = Vec::with_capacity(out.aux_logits.len());
        let mut loss = final_loss;
        for aux in &out.aux_logits {
            let (ce_loss, ce_grad) = cross_entropy(aux, &batch.labels)?;
            let (kd_loss, kd_grad) = soft_cross_entropy(aux, &teacher_probs, 1.0)?;
            loss += ce_loss + DEPTHFL_KD_WEIGHT * kd_loss;
            let mut grad = ce_grad.scale(head_weight);
            grad.axpy(DEPTHFL_KD_WEIGHT * head_weight, &kd_grad)?;
            aux_grads.push(Some(grad));
        }
        model.backward_detailed(&grad_logits, None, &aux_grads)?;
        opt.step(model)?;
        total_loss += loss;
        steps += 1;
    }
    Ok(total_loss / steps.max(1) as f32)
}

/// InclusiveFL momentum transfer: copy a scaled version of the deepest
/// covered block's update into every uncovered deeper block.
pub(crate) fn momentum_transfer(
    previous: &StateDict,
    updated: &mut StateDict,
    deepest_covered_block: usize,
    total_blocks: usize,
) -> FlResult<()> {
    for target_block in (deepest_covered_block + 1)..total_blocks {
        let source_prefix = format!("block{deepest_covered_block}.");
        let target_prefix = format!("block{target_block}.");
        let names: Vec<String> = updated
            .names()
            .into_iter()
            .filter(|n| n.starts_with(&target_prefix))
            .collect();
        for target_name in names {
            let suffix = &target_name[target_prefix.len()..];
            let source_name = format!("{source_prefix}{suffix}");
            let (Some(src_new), Some(src_old)) = (
                updated.get(&source_name).cloned(),
                previous.get(&source_name),
            ) else {
                continue;
            };
            if src_new.dims() != src_old.dims() {
                continue;
            }
            let delta = src_new.sub(src_old)?;
            if let Some(target) = updated.get(&target_name) {
                if target.dims() == delta.dims() {
                    let mut moved = target.clone();
                    moved.axpy(INCLUSIVE_TRANSFER_SCALE, &delta)?;
                    updated.insert(target_name.clone(), moved);
                }
            }
        }
    }
    Ok(())
}

/// One chunk of a DepthFL model's score: the accuracy of the ensemble of
/// its classifiers (the final head's softmax plus every auxiliary head's)
/// in `out`, a forward of `batch`, weighted by the chunk's rows.
pub(crate) fn ensemble_correct(out: &ForwardOutput, batch: &Batch) -> FlResult<f32> {
    let mut probs = out.logits.softmax_rows()?;
    for aux in &out.aux_logits {
        probs.axpy(1.0, &aux.softmax_rows()?)?;
    }
    Ok(accuracy(&probs, &batch.labels)? * batch.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::test_context;
    use crate::submodel::SubmodelAlgorithm;
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_fl::{EngineConfig, FederationContext, FlAlgorithm, FlEngine};
    use mhfl_models::MhflMethod;

    fn context(method: MhflMethod, clients: usize) -> FederationContext {
        test_context(DataTask::UciHar, method, ConstraintCase::Memory, clients, 2)
    }

    fn run(method: MhflMethod) -> f32 {
        let ctx = context(method, 6);
        let engine = FlEngine::new(EngineConfig {
            rounds: 6,
            sample_ratio: 0.5,
            eval_every: 6,
            stability_clients: 3,
            ..EngineConfig::default()
        });
        let mut alg = SubmodelAlgorithm::new(method);
        engine.run(&mut alg, &ctx).unwrap().final_accuracy()
    }

    #[test]
    fn depthfl_learns_above_chance() {
        let acc = run(MhflMethod::DepthFl);
        assert!(acc > 1.0 / 6.0 + 0.05, "DepthFL accuracy {acc}");
    }

    #[test]
    fn fedepth_and_inclusivefl_learn_above_chance() {
        let fedepth = run(MhflMethod::FeDepth);
        let inclusive = run(MhflMethod::InclusiveFl);
        assert!(fedepth > 1.0 / 6.0 + 0.05, "FeDepth accuracy {fedepth}");
        assert!(
            inclusive > 1.0 / 6.0 + 0.05,
            "InclusiveFL accuracy {inclusive}"
        );
    }

    #[test]
    fn momentum_transfer_moves_uncovered_blocks() {
        // Build two-block state dicts where block1 is "uncovered".
        let mut previous = StateDict::new();
        previous.insert("block0.fc.weight", Tensor::zeros(&[2, 2]));
        previous.insert("block1.fc.weight", Tensor::zeros(&[2, 2]));
        let mut updated = previous.clone();
        updated.insert("block0.fc.weight", Tensor::full(&[2, 2], 1.0));
        momentum_transfer(&previous, &mut updated, 0, 2).unwrap();
        let moved = updated.get("block1.fc.weight").unwrap();
        assert!((moved.as_slice()[0] - INCLUSIVE_TRANSFER_SCALE).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not a sub-model method")]
    fn wrong_method_is_rejected() {
        let _ = SubmodelAlgorithm::new(MhflMethod::FedEt);
    }

    #[test]
    fn use_before_setup_errors() {
        let mut alg = SubmodelAlgorithm::new(MhflMethod::FeDepth);
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 4, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
    }
}
