//! The resource-aware homogeneous baseline.
//!
//! The paper's *effectiveness* metric compares every MHFL algorithm against
//! "a simple resource-aware homogeneous baseline (i.e., training the smallest
//! homogeneous model across all heterogeneous devices)". This is plain FedAvg
//! where every client — fast or slow, big or small — trains an identical copy
//! of the smallest model any device in the federation can hold.

use mhfl_data::Dataset;
use mhfl_fl::submodel::{PlanCache, ServerAggregator, WidthSelection};
use mhfl_fl::train::{evaluate_accuracy, local_train_ce};
use mhfl_fl::{
    AlgorithmState, ClientPayload, ClientUpdate, FederationContext, FlAlgorithm, FlError, FlResult,
    Parallelism, RobustAggregation,
};
use mhfl_models::{MhflMethod, ProxyConfig, ProxyModel};
use mhfl_nn::{ParamSpec, StateDict};
use mhfl_tensor::SeededRng;

/// FedAvg on the smallest feasible homogeneous model.
pub struct SmallestHomogeneous {
    global: Option<ProxyModel>,
    global_sd: StateDict,
    global_specs: Vec<ParamSpec>,
    config: Option<ProxyConfig>,
    /// Scatter plans reused across rounds (see [`PlanCache`]).
    plans: PlanCache,
    robust: RobustAggregation,
}

impl SmallestHomogeneous {
    /// Creates the baseline.
    pub fn new() -> Self {
        SmallestHomogeneous {
            global: None,
            global_sd: StateDict::new(),
            global_specs: Vec::new(),
            config: None,
            plans: PlanCache::new(),
            robust: RobustAggregation::None,
        }
    }

    fn require_setup(&self) -> FlResult<()> {
        if self.global.is_none() {
            return Err(FlError::InvalidConfig("algorithm used before setup".into()));
        }
        Ok(())
    }
}

impl Default for SmallestHomogeneous {
    fn default() -> Self {
        Self::new()
    }
}

impl FlAlgorithm for SmallestHomogeneous {
    fn name(&self) -> String {
        MhflMethod::HomogeneousSmallest.display_name().to_string()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        let smallest = ctx.smallest_assignment();
        let task = ctx.task();
        let cfg = ProxyConfig::for_family(
            smallest.entry.choice.family,
            task.input_kind(),
            task.num_classes(),
            ctx.seed(),
        )
        .with_width(smallest.entry.choice.width_fraction)
        .with_depth(smallest.entry.choice.depth_fraction);
        let global = ProxyModel::new(cfg)?;
        self.global_sd = global.state_dict();
        self.global_specs = global.param_specs();
        self.config = Some(cfg);
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
        let cfg = self.config.expect("set during setup");
        let mut rng = SeededRng::new(ctx.seed()).derive((round * 10_000 + client) as u64);
        // The snapshot covers every parameter: skip the thrown-away random
        // initialisation entirely.
        let mut model = ProxyModel::from_state(cfg, &self.global_sd)?;
        let data = ctx.client_shard_at(client, round);
        local_train_ce(&mut model, &data, ctx.train_config(), &mut rng)?;
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
        let mut aggregator =
            ServerAggregator::new(self.global_specs.clone()).with_robust(self.robust);
        for update in &updates {
            let ClientPayload::SubModel {
                state, selection, ..
            } = &update.payload
            else {
                return Err(FlError::InvalidConfig(format!(
                    "baseline aggregation expects sub-model payloads, got {} from client {}",
                    update.payload.kind(),
                    update.client
                )));
            };
            let plan = self
                .plans
                .for_state(&self.global_specs, state, *selection)?;
            aggregator.add_update_with_plan(state, &plan, update.weight())?;
        }
        self.global_sd = aggregator.finalize(&self.global_sd)?;
        Ok(())
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        self.require_setup()?;
        let sd = self.global_sd.clone();
        let global = self.global.as_mut().expect("checked");
        global.load_state_dict(&sd)?;
        evaluate_accuracy(global, data)
    }

    fn evaluate_client(&mut self, _client: usize, data: &Dataset) -> FlResult<f32> {
        // Every client deploys the identical homogeneous model.
        self.evaluate_global(data)
    }

    fn evaluate_point(
        &mut self,
        clients: &[usize],
        data: &Dataset,
        _parallelism: Parallelism,
    ) -> FlResult<(f32, Vec<f32>)> {
        // One deployment, so one pass answers for the whole sample.
        let global = self.evaluate_global(data)?;
        Ok((global, vec![global; clients.len()]))
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
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
    use mhfl_fl::{EngineConfig, FlEngine, LocalTrainConfig};
    use mhfl_models::ModelFamily;

    fn context(clients: usize) -> FederationContext {
        let task = DataTask::UciHar;
        let data = FederatedDataset::generate(task, clients, 20, None, 3);
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::ALL,
            task.num_classes(),
        );
        let case = ConstraintCase::Memory;
        let devices = case.build_population(clients, 1);
        let assignments = case.assign_clients(
            &pool,
            MhflMethod::HomogeneousSmallest,
            &devices,
            &CostModel::default(),
        );
        FederationContext::new(
            data,
            assignments,
            LocalTrainConfig {
                local_steps: 4,
                ..LocalTrainConfig::default()
            },
            3,
        )
        .unwrap()
    }

    #[test]
    fn baseline_learns_above_chance() {
        let ctx = context(6);
        let engine = FlEngine::new(EngineConfig {
            rounds: 6,
            sample_ratio: 0.5,
            eval_every: 6,
            stability_clients: 2,
            ..EngineConfig::default()
        });
        let mut alg = SmallestHomogeneous::new();
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert!(report.final_accuracy() > 1.0 / 6.0 + 0.05);
        // All clients share the same deployed model, so stability variance is 0.
        assert!(report.stability() < 1e-9);
    }

    #[test]
    fn baseline_uses_smallest_assigned_model() {
        let ctx = context(5);
        let mut alg = SmallestHomogeneous::new();
        alg.setup(&ctx).unwrap();
        let smallest = ctx.smallest_assignment();
        let cfg = alg.config.unwrap();
        assert_eq!(cfg.width_fraction, smallest.entry.choice.width_fraction);
        assert_eq!(cfg.depth_fraction, smallest.entry.choice.depth_fraction);
    }

    #[test]
    fn use_before_setup_errors() {
        let mut alg = SmallestHomogeneous::new();
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 4, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
    }
}
