//! The sub-model skeleton shared by the width methods, the depth methods and
//! the homogeneous baseline.
//!
//! All seven follow one recipe: the server holds one global [`StateDict`];
//! each client receives the sub-model matching its configuration, trains it
//! locally, and the server averages every global entry over the clients that
//! covered it. What differs per method is confined to a `match self.method`
//! in five places — the global configuration ([`FlAlgorithm::setup`]), the
//! per-round client configuration and channel selection, the local trainer
//! (both in [`FlAlgorithm::client_update`]), the post-aggregation hook
//! ([`FlAlgorithm::aggregate`]) and the deployed configuration and its score
//! ([`SubmodelAlgorithm::deployed_config`], [`score_output`]) — with the
//! method-specific functions themselves in [`crate::width`], [`crate::depth`]
//! and [`crate::baseline`].

use std::iter::once;

use mhfl_data::{Batch, Dataset};
use mhfl_fl::submodel::{ExtractionPlan, ServerAggregator, WidthSelection};
use mhfl_fl::train::{evaluate_chunks, local_train_ce, top1_correct};
use mhfl_fl::{
    AlgorithmState, ClientPayload, ClientUpdate, FederationContext, FlAlgorithm, FlError, FlResult,
    Parallelism, RobustAggregation,
};
use mhfl_models::{
    ForwardOutput, HeterogeneityLevel, MhflMethod, ModelFamily, ProxyConfig, ProxyModel,
};
use mhfl_nn::{ParamSpec, StateDict};

use crate::common::{
    chance, client_proxy_config, client_rng, evaluate_distinct, global_proxy_config,
};
use crate::{baseline, depth, width};

/// A method that trains sub-models of one global model: Fjord, SHeteroFL,
/// FedRolex, FeDepth, InclusiveFL, DepthFL or the smallest-homogeneous
/// baseline.
pub(crate) struct SubmodelAlgorithm {
    method: MhflMethod,
    global: Option<ProxyModel>,
    global_sd: StateDict,
    global_specs: Vec<ParamSpec>,
    robust: RobustAggregation,
}

impl SubmodelAlgorithm {
    /// Creates the algorithm for one of the seven sub-model methods.
    ///
    /// # Panics
    /// Panics if `method` is a topology-level method — selecting the wrong
    /// variant is a programming error, not a runtime condition.
    pub(crate) fn new(method: MhflMethod) -> Self {
        assert!(
            !matches!(method, MhflMethod::FedProto | MhflMethod::FedEt),
            "{method} is not a sub-model method"
        );
        SubmodelAlgorithm {
            method,
            global: None,
            global_sd: StateDict::new(),
            global_specs: Vec::new(),
            robust: RobustAggregation::None,
        }
    }

    /// The global model's configuration, or the error every entry point
    /// returns before [`FlAlgorithm::setup`].
    pub(crate) fn require_setup(&self) -> FlResult<ProxyConfig> {
        match &self.global {
            Some(global) => Ok(*global.config()),
            None => Err(FlError::InvalidConfig("algorithm used before setup".into())),
        }
    }

    /// The model `client` deploys, keyed on `client % 4` for the width and
    /// depth methods; every baseline client deploys the global model.
    fn deployed_config(&self, global: ProxyConfig, client: usize) -> ProxyConfig {
        match self.method {
            MhflMethod::HomogeneousSmallest => global,
            MhflMethod::Fjord | MhflMethod::SHeteroFl | MhflMethod::FedRolex => {
                width::deployed_config(global, client)
            }
            _ => depth::deployed_config(global, client),
        }
    }

    /// Builds the `cfg`-shaped sub-model of the global parameters. Zero-init
    /// skips the Box-Muller draws the extracted parameters would overwrite
    /// anyway; the plan turns extraction into one gather pass per
    /// parameter.
    fn extract(&self, cfg: ProxyConfig, selection: WidthSelection) -> FlResult<ProxyModel> {
        let mut model = ProxyModel::zeroed(cfg)?;
        let plan =
            ExtractionPlan::for_client_specs(&self.global_specs, &model.param_specs(), selection)?;
        model.load_state_dict(&plan.extract(&self.global_sd)?)?;
        Ok(model)
    }

    /// The nested (prefix-sliced, matching how it would run offline)
    /// `cfg`-shaped sub-model of the global parameters that a client
    /// deploys.
    fn deployment(&self, cfg: ProxyConfig) -> FlResult<ProxyModel> {
        self.extract(cfg, WidthSelection::Prefix)
    }

    /// The model a deployment's score is read off at an evaluation point.
    /// A depth-family deployment is a block prefix of the global model, so
    /// the global model's [`ProxyModel::forward_depths`] gives it; any other
    /// deployment is read off itself.
    fn source(&self, global: ProxyConfig, deployed: &Realised) -> Realised {
        match self.method.level() {
            HeterogeneityLevel::Depth => Realised(global),
            _ => *deployed,
        }
    }

    /// An evaluation point's models: the global one, then the one each of
    /// `clients` deploys, each keyed on the model it realises.
    fn point_models(&self, global: ProxyConfig, clients: &[usize]) -> Vec<Option<Realised>> {
        once(global)
            .chain(
                clients
                    .iter()
                    .map(|&client| self.deployed_config(global, client)),
            )
            .map(|cfg| Some(Realised(cfg)))
            .collect()
    }
}

/// A deployed configuration, compared by the model it realises. Width and
/// depth fractions feed nothing but `dim()` and `num_blocks()`, so two
/// configurations of one shape (DepthFL's 0.25 and 0.5 of a 2-block
/// stack, say) build the same model and are scored once.
#[derive(Debug, Clone, Copy)]
struct Realised(ProxyConfig);

impl Realised {
    fn shape(&self) -> (ModelFamily, usize, usize, bool) {
        let cfg = &self.0;
        (cfg.family, cfg.dim(), cfg.num_blocks(), cfg.with_aux_heads)
    }
}

impl PartialEq for Realised {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape()
    }
}

/// How a method scores one evaluation chunk's forward: DepthFL models
/// answer as the ensemble of their classifiers, every other method's with
/// their one head.
fn score_output(method: MhflMethod) -> fn(&ForwardOutput, &Batch) -> FlResult<f32> {
    match method {
        MhflMethod::DepthFl => depth::ensemble_correct,
        _ => top1_correct,
    }
}

/// One deployment's score on `data`, on the calling thread: the serial
/// reference of [`score_deployments`].
fn evaluate_deployment(
    method: MhflMethod,
    model: &mut ProxyModel,
    data: &Dataset,
) -> FlResult<f32> {
    let score = score_output(method);
    evaluate_chunks(model, data, |model, batch| {
        score(&model.forward_detailed(&batch.inputs, false)?, batch)
    })
}

/// One chunk's term of each deployment in `deployed`, read off one forward
/// of `model` at each deployment's block count.
fn score_deployments(
    method: MhflMethod,
    model: &mut ProxyModel,
    deployed: &[Realised],
    batch: &Batch,
) -> FlResult<Vec<f32>> {
    let depths: Vec<usize> = deployed.iter().map(|r| r.0.num_blocks()).collect();
    let score = score_output(method);
    let outputs = model.forward_depths(&batch.inputs, &depths)?;
    outputs.iter().map(|out| score(out, batch)).collect()
}

impl FlAlgorithm for SubmodelAlgorithm {
    fn name(&self) -> String {
        self.method.display_name().to_string()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        let cfg = match self.method {
            MhflMethod::HomogeneousSmallest => baseline::smallest_config(ctx),
            method => global_proxy_config(ctx, method),
        };
        let global = ProxyModel::new(cfg)?;
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
        let global = self.require_setup()?;
        let mut rng = client_rng(ctx, round, client);
        let (cfg, selection) = match self.method {
            MhflMethod::HomogeneousSmallest => (global, WidthSelection::Prefix),
            MhflMethod::Fjord | MhflMethod::SHeteroFl | MhflMethod::FedRolex => {
                let assigned = ctx.assignment(client).entry.choice.width_fraction;
                let width = width::round_width(self.method, assigned, &mut rng);
                (
                    client_proxy_config(ctx, client, self.method).with_width(width),
                    width::selection(self.method, round),
                )
            }
            method => (
                client_proxy_config(ctx, client, method),
                WidthSelection::Prefix,
            ),
        };
        let mut model = self.extract(cfg, selection)?;
        let data = ctx.client_shard_at(client, round);
        match self.method {
            MhflMethod::DepthFl => {
                depth::local_train_depthfl(&mut model, &data, ctx.train_config(), &mut rng)?
            }
            _ => local_train_ce(&mut model, &data, ctx.train_config(), &mut rng)?,
        };
        Ok(ClientUpdate::new(
            client,
            data.len(),
            ClientPayload::SubModel {
                state: model.state_dict(),
                selection,
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
                    "{} aggregation expects sub-model payloads, got {} from client {}",
                    self.method,
                    update.payload.kind(),
                    update.client
                )));
            };
            deepest_covered = deepest_covered.max(num_blocks.saturating_sub(1));
            let plan = ExtractionPlan::for_state(&self.global_specs, state, *selection)?;
            aggregator.add_update_with_plan(state, &plan, update.weight())?;
        }
        let mut merged = aggregator.finalize(&self.global_sd)?;
        if self.method == MhflMethod::InclusiveFl && !updates.is_empty() {
            let total_blocks = self.global.as_ref().map_or(0, ProxyModel::num_blocks);
            depth::momentum_transfer(&self.global_sd, &mut merged, deepest_covered, total_blocks)?;
        }
        self.global_sd = merged;
        Ok(())
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        self.require_setup()?;
        let global = self.global.as_mut().expect("checked by require_setup");
        global.load_state_dict(&self.global_sd)?;
        evaluate_deployment(self.method, global, data)
    }

    fn evaluate_client(&mut self, client: usize, data: &Dataset) -> FlResult<f32> {
        let cfg = self.deployed_config(self.require_setup()?, client);
        evaluate_deployment(self.method, &mut self.deployment(cfg)?, data)
    }

    fn evaluate_point(
        &mut self,
        clients: &[usize],
        data: &Dataset,
        parallelism: Parallelism,
    ) -> FlResult<(f32, Vec<f32>)> {
        // The full-size deployment *is* the global model, deployments of one
        // shape are one model, and a depth-family point reads every block
        // prefix off the global model's forward, so each source model costs
        // one pass. Every deployment is trained, so none answers chance.
        let global = self.require_setup()?;
        evaluate_distinct(
            self.point_models(global, clients),
            chance(global.num_classes),
            data,
            parallelism,
            |deployed| self.source(global, deployed),
            |&Realised(cfg)| self.deployment(cfg),
            |model, deployed, batch| score_deployments(self.method, model, deployed, batch),
        )
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
        self.require_setup()?;
        // The global state dict is the only mutable state: the model shell
        // and parameter specs are rebuilt from the context.
        let mut state = AlgorithmState::new();
        state.insert_state("global", self.global_sd.clone());
        Ok(state)
    }

    fn restore(&mut self, mut state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        self.setup(ctx)?;
        let global_sd = state.take_state("global")?;
        // Loading checks every parameter's name and shape, so a state dict
        // of another model is refused here, not at the first extraction.
        self.global
            .as_mut()
            .expect("set by setup")
            .load_state_dict(&global_sd)?;
        self.global_sd = global_sd;
        Ok(())
    }

    fn set_robust_aggregation(&mut self, robust: RobustAggregation) {
        self.robust = robust;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::test_context;
    use mhfl_data::{generate_dataset, DataTask};
    use mhfl_device::ConstraintCase;
    use mhfl_tensor::Tensor;
    use std::sync::Mutex;

    /// A 2-block stack realises depths 0.25 and 0.5 as one block and 0.75
    /// and 1.0 as two, so a point over all four `client % 4` residues scores
    /// two models: the global one, shared with the two 2-block deployments,
    /// and the 1-block one. Both are read off one build of the global model.
    #[test]
    fn a_two_block_depthfl_point_scores_two_models() {
        let task = DataTask::StackOverflow;
        let global = ProxyConfig::for_family(
            ModelFamily::AlbertBase,
            task.input_kind(),
            task.num_classes(),
            0,
        )
        .with_aux_heads(true);
        assert_eq!(global.num_blocks(), 2);
        let algorithm = SubmodelAlgorithm::new(MhflMethod::DepthFl);
        let data = generate_dataset(task, 4, 0, None);
        let built = Mutex::new(Vec::new());
        let read = Mutex::new(Vec::new());
        let (_, per_client) = evaluate_distinct(
            algorithm.point_models(global, &[0, 1, 2, 3]),
            0.0,
            &data,
            Parallelism::Sequential,
            |deployed| algorithm.source(global, deployed),
            |&Realised(cfg)| {
                built.lock().unwrap().push(cfg.num_blocks());
                Ok(ProxyModel::new(cfg)?)
            },
            |model, deployed, batch| {
                read.lock()
                    .unwrap()
                    .extend(deployed.iter().map(|r| r.0.num_blocks()));
                score_deployments(MhflMethod::DepthFl, model, deployed, batch)
            },
        )
        .unwrap();
        assert_eq!(built.into_inner().unwrap(), [2]);
        assert_eq!(read.into_inner().unwrap(), [2, 1]);
        assert_eq!(per_client[0].to_bits(), per_client[1].to_bits());
        assert_eq!(per_client[2].to_bits(), per_client[3].to_bits());
    }

    /// A restored global state dict of the wrong shape is refused as a
    /// typed error instead of panicking in the first extraction that
    /// slices it.
    #[test]
    fn restore_refuses_a_global_state_of_the_wrong_shape() {
        let method = MhflMethod::SHeteroFl;
        let ctx = test_context(DataTask::UciHar, method, ConstraintCase::Memory, 4, 11);
        let mut algorithm = SubmodelAlgorithm::new(method);
        algorithm.setup(&ctx).unwrap();
        let snapshot = algorithm.snapshot().unwrap();
        let mut global = snapshot.clone().take_state("global").unwrap();
        for (_, t) in global.iter_mut() {
            *t = Tensor::zeros(&[1]);
        }
        let mut wrong = AlgorithmState::new();
        wrong.insert_state("global", global);
        assert!(algorithm.restore(wrong, &ctx).is_err());
        algorithm.restore(snapshot, &ctx).unwrap();
        algorithm.evaluate_client(0, ctx.test_set()).unwrap();
    }
}
