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

use mhfl_data::Dataset;
use mhfl_fl::submodel::{PlanCache, ServerAggregator, WidthSelection};
use mhfl_fl::train::evaluate_accuracy;
use mhfl_fl::{
    AlgorithmState, ClientPayload, ClientUpdate, FederationContext, FlAlgorithm, FlError, FlResult,
    LocalTrainConfig, Parallelism, RobustAggregation,
};
use mhfl_models::{MhflMethod, ProxyConfig, ProxyModel};
use mhfl_nn::loss::{accuracy, cross_entropy, soft_cross_entropy};
use mhfl_nn::{Layer, ParamSpec, Sgd, StateDict};
use mhfl_tensor::{SeededRng, Tensor};

use crate::common::{build_global_model, client_proxy_config, evaluate_distinct, extract_submodel};

/// The depth fractions a deployed model is keyed on.
const DEPTH_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Weight of the self-distillation term in DepthFL's local loss.
const DEPTHFL_KD_WEIGHT: f32 = 0.3;
/// Scale of InclusiveFL's momentum transfer into uncovered blocks.
const INCLUSIVE_TRANSFER_SCALE: f32 = 0.3;

/// A depth-heterogeneity MHFL algorithm (FeDepth / InclusiveFL / DepthFL).
pub struct DepthAlgorithm {
    method: MhflMethod,
    global: Option<ProxyModel>,
    global_sd: StateDict,
    global_specs: Vec<ParamSpec>,
    /// Gather/scatter plans reused across rounds (see [`PlanCache`]).
    plans: PlanCache,
    robust: RobustAggregation,
}

impl DepthAlgorithm {
    /// Creates the algorithm for one of the depth-level methods.
    ///
    /// # Panics
    /// Panics if `method` is not a depth-level method.
    pub fn new(method: MhflMethod) -> Self {
        assert!(
            matches!(
                method,
                MhflMethod::FeDepth | MhflMethod::InclusiveFl | MhflMethod::DepthFl
            ),
            "{method} is not a depth-level method"
        );
        DepthAlgorithm {
            method,
            global: None,
            global_sd: StateDict::new(),
            global_specs: Vec::new(),
            plans: PlanCache::new(),
            robust: RobustAggregation::None,
        }
    }

    fn require_setup(&self) -> FlResult<()> {
        self.global_config().map(|_| ())
    }

    fn global_config(&self) -> FlResult<ProxyConfig> {
        match &self.global {
            Some(global) => Ok(*global.config()),
            None => Err(FlError::InvalidConfig("algorithm used before setup".into())),
        }
    }

    /// The model `client` deploys: the block-prefix sub-model of the global
    /// parameters at a depth keyed on `client % 4`.
    fn deployed_config(global: ProxyConfig, client: usize) -> ProxyConfig {
        global.with_depth(DEPTH_FRACTIONS[client % DEPTH_FRACTIONS.len()])
    }

    fn evaluate_deployment(&self, cfg: ProxyConfig, data: &Dataset) -> FlResult<f32> {
        let mut model = extract_submodel(
            &self.plans,
            &self.global_specs,
            &self.global_sd,
            cfg,
            WidthSelection::Prefix,
        )?;
        if self.method == MhflMethod::DepthFl {
            Self::evaluate_ensemble(&mut model, data)
        } else {
            evaluate_accuracy(&mut model, data)
        }
    }

    /// DepthFL local training: joint cross-entropy over every available
    /// classifier plus distillation of the deepest classifier into the
    /// shallower ones.
    fn local_train_depthfl(
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
    fn momentum_transfer(
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

    /// Ensemble accuracy over all classifiers of a DepthFL global model.
    fn evaluate_ensemble(model: &mut ProxyModel, data: &Dataset) -> FlResult<f32> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let chunk = 128usize;
        let mut weighted = 0.0f32;
        let mut start = 0usize;
        while start < data.len() {
            let end = (start + chunk).min(data.len());
            let indices: Vec<usize> = (start..end).collect();
            let subset = data.subset(&indices);
            let batch = subset.as_batch();
            let out = model.forward_detailed(&batch.inputs, false)?;
            let mut probs = out.logits.softmax_rows()?;
            for aux in &out.aux_logits {
                probs.axpy(1.0, &aux.softmax_rows()?)?;
            }
            let acc = accuracy(&probs, &batch.labels)?;
            weighted += acc * batch.len() as f32;
            start = end;
        }
        Ok(weighted / data.len() as f32)
    }
}

impl FlAlgorithm for DepthAlgorithm {
    fn name(&self) -> String {
        self.method.display_name().to_string()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        let global = build_global_model(ctx, self.method);
        self.global_sd = global.state_dict();
        self.global_specs = global.param_specs();
        self.global = Some(global);
        Ok(())
    }

    fn client_update(
        &self,
        round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate> {
        self.require_setup()?;
        let mut rng = SeededRng::new(ctx.seed()).derive((round * 10_000 + client) as u64);
        let cfg = client_proxy_config(ctx, client, self.method);
        let mut model = extract_submodel(
            &self.plans,
            &self.global_specs,
            &self.global_sd,
            cfg,
            WidthSelection::Prefix,
        )?;
        let data = ctx.client_shard_at(client, round);
        match self.method {
            MhflMethod::DepthFl => {
                Self::local_train_depthfl(&mut model, &data, ctx.train_config(), &mut rng)?;
            }
            _ => {
                mhfl_fl::train::local_train_ce(&mut model, &data, ctx.train_config(), &mut rng)?;
            }
        }
        Ok(ClientUpdate::new(
            client,
            data.len(),
            ClientPayload::SubModel {
                state: model.state_dict(),
                selection: WidthSelection::Prefix,
                num_blocks: model.num_blocks(),
            },
        ))
    }

    fn aggregate(
        &mut self,
        _round: usize,
        updates: Vec<ClientUpdate>,
        _ctx: &FederationContext,
    ) -> FlResult<()> {
        self.require_setup()?;
        let previous = self.global_sd.clone();
        let mut aggregator =
            ServerAggregator::new(self.global_specs.clone()).with_robust(self.robust);
        let mut deepest_covered = 0usize;
        for update in &updates {
            let ClientPayload::SubModel {
                state,
                selection,
                num_blocks,
            } = &update.payload
            else {
                return Err(FlError::InvalidConfig(format!(
                    "depth aggregation expects sub-model payloads, got {} from client {}",
                    update.payload.kind(),
                    update.client
                )));
            };
            deepest_covered = deepest_covered.max(num_blocks.saturating_sub(1));
            let plan = self
                .plans
                .for_state(&self.global_specs, state, *selection)?;
            aggregator.add_update_with_plan(state, &plan, update.weight())?;
        }
        let mut merged = aggregator.finalize(&self.global_sd)?;
        if self.method == MhflMethod::InclusiveFl && !updates.is_empty() {
            let total_blocks = self
                .global
                .as_ref()
                .map(ProxyModel::num_blocks)
                .unwrap_or_default();
            Self::momentum_transfer(&previous, &mut merged, deepest_covered, total_blocks)?;
        }
        self.global_sd = merged;
        Ok(())
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        self.require_setup()?;
        let sd = self.global_sd.clone();
        let method = self.method;
        let global = self.global.as_mut().expect("checked by require_setup");
        global.load_state_dict(&sd)?;
        if method == MhflMethod::DepthFl {
            Self::evaluate_ensemble(global, data)
        } else {
            evaluate_accuracy(global, data)
        }
    }

    fn evaluate_client(&mut self, client: usize, data: &Dataset) -> FlResult<f32> {
        let cfg = Self::deployed_config(self.global_config()?, client);
        self.evaluate_deployment(cfg, data)
    }

    fn evaluate_point(
        &mut self,
        clients: &[usize],
        data: &Dataset,
        parallelism: Parallelism,
    ) -> FlResult<(f32, Vec<f32>)> {
        // The full-depth deployment *is* the global model, so a sample that
        // holds one costs no pass of its own.
        let global = self.global_config()?;
        let deployed = clients
            .iter()
            .map(|&client| Self::deployed_config(global, client));
        evaluate_distinct(global, deployed, parallelism, |&cfg| {
            self.evaluate_deployment(cfg, data)
        })
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
        // As in the width family, the global state dict is the only mutable
        // state across rounds.
        let mut state = AlgorithmState::new();
        state.insert_state("global", self.global_sd.clone());
        Ok(state)
    }

    fn restore(&mut self, mut state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        self.setup(ctx)?;
        self.global_sd = state.take_state("global")?;
        Ok(())
    }

    fn set_robust_aggregation(&mut self, robust: RobustAggregation) {
        self.robust = robust;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_data::{DataTask, FederatedDataset};
    use mhfl_device::{ConstraintCase, CostModel, ModelPool};
    use mhfl_fl::{EngineConfig, FlEngine};
    use mhfl_models::ModelFamily;

    fn context(method: MhflMethod, clients: usize) -> FederationContext {
        let task = DataTask::UciHar;
        let data = FederatedDataset::generate(task, clients, 20, None, 2);
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::ALL,
            task.num_classes(),
        );
        let case = ConstraintCase::Memory;
        let devices = case.build_population(clients, 4);
        let assignments = case.assign_clients(&pool, method, &devices, &CostModel::default());
        FederationContext::new(
            data,
            assignments,
            LocalTrainConfig {
                local_steps: 4,
                ..LocalTrainConfig::default()
            },
            2,
        )
        .unwrap()
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
        let mut alg = DepthAlgorithm::new(method);
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
        DepthAlgorithm::momentum_transfer(&previous, &mut updated, 0, 2).unwrap();
        let moved = updated.get("block1.fc.weight").unwrap();
        assert!((moved.as_slice()[0] - INCLUSIVE_TRANSFER_SCALE).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not a depth-level method")]
    fn wrong_method_is_rejected() {
        let _ = DepthAlgorithm::new(MhflMethod::Fjord);
    }

    #[test]
    fn use_before_setup_errors() {
        let mut alg = DepthAlgorithm::new(MhflMethod::FeDepth);
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 4, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
    }
}
