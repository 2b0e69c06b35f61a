//! Width-heterogeneous algorithms: Fjord, SHeteroFL and FedRolex.
//!
//! All three follow the sub-model partial-aggregation recipe: the server
//! holds one full-width global model; each client receives a channel-sliced
//! sub-model matching its assigned width fraction, trains it locally, and the
//! server averages every global entry over the clients that covered it. The
//! algorithms differ only in *which* channels a client receives:
//!
//! * **SHeteroFL** — the first `k` channels (static nested sub-networks);
//! * **Fjord** — also nested prefixes, but each round a client trains at a
//!   width sampled uniformly from the fractions it can support (ordered
//!   dropout);
//! * **FedRolex** — a rolling window whose offset advances with the round
//!   index, so every global channel is eventually trained by small clients.

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

use crate::common::{build_global_model, client_proxy_config, evaluate_distinct, extract_submodel};

/// The standard width fractions clients may train at.
const WIDTH_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// A width-heterogeneity MHFL algorithm (Fjord / SHeteroFL / FedRolex).
pub struct WidthAlgorithm {
    method: MhflMethod,
    global: Option<ProxyModel>,
    global_sd: StateDict,
    global_specs: Vec<ParamSpec>,
    /// Gather/scatter plans reused across rounds (see [`PlanCache`]).
    plans: PlanCache,
    robust: RobustAggregation,
}

impl WidthAlgorithm {
    /// Creates the algorithm for one of the width-level methods.
    ///
    /// # Panics
    /// Panics if `method` is not a width-level method — selecting the wrong
    /// variant is a programming error, not a runtime condition.
    pub fn new(method: MhflMethod) -> Self {
        assert!(
            matches!(
                method,
                MhflMethod::Fjord | MhflMethod::SHeteroFl | MhflMethod::FedRolex
            ),
            "{method} is not a width-level method"
        );
        WidthAlgorithm {
            method,
            global: None,
            global_sd: StateDict::new(),
            global_specs: Vec::new(),
            plans: PlanCache::new(),
            robust: RobustAggregation::None,
        }
    }

    fn selection(&self, round: usize) -> WidthSelection {
        match self.method {
            MhflMethod::FedRolex => WidthSelection::Rolling { shift: round },
            _ => WidthSelection::Prefix,
        }
    }

    /// The width a client trains at this round.
    fn round_width(&self, assigned: f64, rng: &mut SeededRng) -> f64 {
        match self.method {
            MhflMethod::Fjord => {
                let allowed: Vec<f64> = WIDTH_FRACTIONS
                    .iter()
                    .copied()
                    .filter(|w| *w <= assigned + 1e-9)
                    .collect();
                if allowed.is_empty() {
                    assigned
                } else {
                    allowed[rng.index(allowed.len())]
                }
            }
            _ => assigned,
        }
    }

    fn global_mut(&mut self) -> FlResult<&mut ProxyModel> {
        self.global
            .as_mut()
            .ok_or_else(|| FlError::InvalidConfig("algorithm used before setup".into()))
    }

    fn global_config(&self) -> FlResult<ProxyConfig> {
        match &self.global {
            Some(global) => Ok(*global.config()),
            None => Err(FlError::InvalidConfig("algorithm used before setup".into())),
        }
    }

    /// The model `client` deploys: its nested sub-model of the global
    /// parameters (prefix slice, matching how it would run offline), at a
    /// width keyed on `client % 4`.
    fn deployed_config(global: ProxyConfig, client: usize) -> ProxyConfig {
        let width = WIDTH_FRACTIONS[client % WIDTH_FRACTIONS.len()];
        global.with_width(width).with_aux_heads(false)
    }

    fn evaluate_deployment(&self, cfg: ProxyConfig, data: &Dataset) -> FlResult<f32> {
        let mut model = extract_submodel(
            &self.plans,
            &self.global_specs,
            &self.global_sd,
            cfg,
            WidthSelection::Prefix,
        )?;
        evaluate_accuracy(&mut model, data)
    }
}

impl FlAlgorithm for WidthAlgorithm {
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
        let selection = self.selection(round);
        let mut rng = SeededRng::new(ctx.seed()).derive((round * 10_000 + client) as u64);
        let assigned = ctx.assignment(client).entry.choice.width_fraction;
        let width = self.round_width(assigned, &mut rng);
        let cfg = client_proxy_config(ctx, client, self.method).with_width(width);
        let mut model = extract_submodel(
            &self.plans,
            &self.global_specs,
            &self.global_sd,
            cfg,
            selection,
        )?;
        let data = ctx.client_shard_at(client, round);
        local_train_ce(&mut model, &data, ctx.train_config(), &mut rng)?;
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
        let mut aggregator =
            ServerAggregator::new(self.global_specs.clone()).with_robust(self.robust);
        for update in &updates {
            let ClientPayload::SubModel {
                state, selection, ..
            } = &update.payload
            else {
                return Err(FlError::InvalidConfig(format!(
                    "width aggregation expects sub-model payloads, got {} from client {}",
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
        let sd = self.global_sd.clone();
        let global = self.global_mut()?;
        global.load_state_dict(&sd)?;
        evaluate_accuracy(global, data)
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
        // The full-width deployment *is* the global model, so a sample that
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
        // The global state dict is the only mutable state: the model shell,
        // parameter specs and plan cache are all rebuilt from the context.
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

    fn context(task: DataTask, method: MhflMethod, clients: usize) -> FederationContext {
        let data = FederatedDataset::generate(task, clients, 20, None, 1);
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::ALL,
            task.num_classes(),
        );
        let case = ConstraintCase::Computation {
            deadline_secs: 350.0,
        };
        let devices = case.build_population(clients, 2);
        let assignments = case.assign_clients(&pool, method, &devices, &CostModel::default());
        FederationContext::new(
            data,
            assignments,
            LocalTrainConfig {
                local_steps: 4,
                ..LocalTrainConfig::default()
            },
            1,
        )
        .unwrap()
    }

    fn run_method(method: MhflMethod, task: DataTask) -> f32 {
        let ctx = context(task, method, 6);
        let engine = FlEngine::new(EngineConfig {
            rounds: 6,
            sample_ratio: 0.5,
            eval_every: 6,
            stability_clients: 3,
            ..EngineConfig::default()
        });
        let mut alg = WidthAlgorithm::new(method);
        let report = engine.run(&mut alg, &ctx).unwrap();
        report.final_accuracy()
    }

    #[test]
    fn shetherofl_learns_above_chance_on_har() {
        let acc = run_method(MhflMethod::SHeteroFl, DataTask::UciHar);
        assert!(
            acc > 1.0 / 6.0 + 0.1,
            "SHeteroFL accuracy {acc} should beat chance"
        );
    }

    #[test]
    fn fedrolex_and_fjord_learn_above_chance_on_har() {
        let rolex = run_method(MhflMethod::FedRolex, DataTask::UciHar);
        let fjord = run_method(MhflMethod::Fjord, DataTask::UciHar);
        assert!(rolex > 1.0 / 6.0 + 0.05, "FedRolex accuracy {rolex}");
        assert!(fjord > 1.0 / 6.0 + 0.05, "Fjord accuracy {fjord}");
    }

    #[test]
    fn selection_strategy_matches_method() {
        let shetero = WidthAlgorithm::new(MhflMethod::SHeteroFl);
        assert_eq!(shetero.selection(7), WidthSelection::Prefix);
        let rolex = WidthAlgorithm::new(MhflMethod::FedRolex);
        assert_eq!(rolex.selection(7), WidthSelection::Rolling { shift: 7 });
    }

    #[test]
    fn fjord_samples_widths_up_to_assignment() {
        let alg = WidthAlgorithm::new(MhflMethod::Fjord);
        let mut rng = SeededRng::new(0);
        for _ in 0..50 {
            let w = alg.round_width(0.5, &mut rng);
            assert!(w <= 0.5 + 1e-9);
            assert!(WIDTH_FRACTIONS.contains(&w));
        }
        let shetero = WidthAlgorithm::new(MhflMethod::SHeteroFl);
        assert_eq!(shetero.round_width(0.75, &mut rng), 0.75);
    }

    #[test]
    #[should_panic(expected = "not a width-level method")]
    fn wrong_method_is_rejected() {
        let _ = WidthAlgorithm::new(MhflMethod::DepthFl);
    }

    #[test]
    fn evaluate_before_setup_errors() {
        let mut alg = WidthAlgorithm::new(MhflMethod::SHeteroFl);
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 8, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
        assert!(alg.evaluate_client(0, &data).is_err());
    }
}
