//! Helpers shared by all algorithm implementations.

use std::collections::BTreeMap;

use mhfl_data::{Batch, Dataset};
use mhfl_fl::train::{evaluate_accuracy, evaluate_models};
use mhfl_fl::{AlgorithmState, FederationContext, FlError, FlResult, Parallelism};
use mhfl_models::{MhflMethod, ProxyConfig, ProxyModel};
use mhfl_nn::StateDict;
use mhfl_tensor::SeededRng;

/// Builds the proxy-model configuration a client trains, combining the task's
/// input shape with the architecture family and width/depth fractions the
/// constraint case assigned to this client.
pub fn client_proxy_config(
    ctx: &FederationContext,
    client: usize,
    method: MhflMethod,
) -> ProxyConfig {
    let task = ctx.task();
    let assignment = ctx.assignment(client);
    let with_aux = matches!(method, MhflMethod::DepthFl);
    ProxyConfig::for_family(
        assignment.entry.choice.family,
        task.input_kind(),
        task.num_classes(),
        ctx.seed(),
    )
    .with_width(assignment.entry.choice.width_fraction)
    .with_depth(assignment.entry.choice.depth_fraction)
    .with_aux_heads(with_aux)
}

/// Builds the configuration of the server's full-size global model: the
/// largest family appearing in the assignments, at full width and depth.
pub fn global_proxy_config(ctx: &FederationContext, method: MhflMethod) -> ProxyConfig {
    let task = ctx.task();
    let largest = ctx.largest_assignment();
    let with_aux = matches!(method, MhflMethod::DepthFl);
    ProxyConfig::for_family(
        largest.entry.choice.family,
        task.input_kind(),
        task.num_classes(),
        ctx.seed(),
    )
    .with_aux_heads(with_aux)
}

/// The random stream of `client`'s work in `round`: the round's stream of
/// the experiment seed, then the client's stream of that. Two levels, so
/// every `(round, client)` pair gets its own stream at any population size.
pub(crate) fn client_rng(ctx: &FederationContext, round: usize, client: usize) -> SeededRng {
    SeededRng::new(ctx.seed())
        .derive(round as u64)
        .derive(client as u64)
}

/// A model a topology family (FedProto, Fed-ET) scores at an evaluation
/// point: the server side's, or a client's stored local model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Deployed {
    Server,
    Client(usize),
}

/// The local models a topology family (FedProto, Fed-ET) keeps per client
/// between rounds, as `(config, state)` snapshots. Only the states are
/// checkpointed: the configs are recomputed from the context by the
/// family's `client_config`.
pub(crate) struct ClientModels {
    client_config: fn(&FederationContext, usize) -> ProxyConfig,
    states: BTreeMap<usize, (ProxyConfig, StateDict)>,
}

impl ClientModels {
    pub(crate) fn new(client_config: fn(&FederationContext, usize) -> ProxyConfig) -> Self {
        ClientModels {
            client_config,
            states: BTreeMap::new(),
        }
    }

    /// Rebuilds `client`'s model from its stored (or freshly initialised)
    /// local state.
    pub(crate) fn build(&self, ctx: &FederationContext, client: usize) -> FlResult<ProxyModel> {
        match self.states.get(&client) {
            Some((cfg, state)) => Ok(ProxyModel::from_state(*cfg, state)?),
            None => Ok(ProxyModel::new((self.client_config)(ctx, client))?),
        }
    }

    /// Stores the state `client` uploaded.
    pub(crate) fn insert(&mut self, ctx: &FederationContext, client: usize, state: StateDict) {
        self.states
            .insert(client, ((self.client_config)(ctx, client), state));
    }

    /// The stored models, in client order.
    pub(crate) fn stored(&self) -> impl Iterator<Item = &(ProxyConfig, StateDict)> {
        self.states.values()
    }

    /// The evaluation key of the model `client` deploys: its stored local
    /// model, or `None` for a client that never participated (it would
    /// deploy an untrained model).
    pub(crate) fn deployed(&self, client: usize) -> Option<Deployed> {
        self.states
            .contains_key(&client)
            .then_some(Deployed::Client(client))
    }

    /// Rebuilds `client`'s stored local model.
    pub(crate) fn stored_model(&self, client: usize) -> FlResult<ProxyModel> {
        let (cfg, state) = self.states.get(&client).ok_or_else(|| {
            FlError::InvalidConfig(format!("client {client} has no stored model"))
        })?;
        Ok(ProxyModel::from_state(*cfg, state)?)
    }

    /// Accuracy of the model `client` deploys: its stored local model, or
    /// chance for a client that never participated.
    pub(crate) fn accuracy(
        &self,
        client: usize,
        num_classes: usize,
        data: &Dataset,
    ) -> FlResult<f32> {
        match self.deployed(client) {
            Some(_) => evaluate_accuracy(&mut self.stored_model(client)?, data),
            None => Ok(chance(num_classes)),
        }
    }

    /// Writes every stored state into its `client.<id>` slot of `state`.
    pub(crate) fn snapshot_into(&self, state: &mut AlgorithmState) {
        state.insert_states(
            self.states
                .iter()
                .map(|(&client, (_, sd))| (AlgorithmState::client_state_key(client), sd.clone())),
        );
    }

    /// Replaces the stored models with the `client.<id>` slots of `state`.
    pub(crate) fn restore_from(
        &mut self,
        state: &mut AlgorithmState,
        ctx: &FederationContext,
    ) -> FlResult<()> {
        self.states.clear();
        for (name, sd) in state.take_states_with_prefix("client.") {
            let client = AlgorithmState::parse_client_key(&name).ok_or_else(|| {
                FlError::InvalidConfig(format!("malformed client snapshot slot {name:?}"))
            })?;
            if client >= ctx.num_clients() {
                return Err(FlError::InvalidConfig(format!(
                    "snapshot covers client {client} but the context has only {} clients",
                    ctx.num_clients()
                )));
            }
            self.insert(ctx, client, sd);
        }
        Ok(())
    }
}

/// The accuracy of guessing among `num_classes` classes: what a model that
/// was never trained is scored.
pub(crate) fn chance(num_classes: usize) -> f32 {
    1.0 / num_classes.max(1) as f32
}

/// One evaluation point over distinct models. `models` names the global
/// model, then the model each sampled client deploys; `None` is a
/// deployment without a trained model, which answers `chance`. `source`
/// names the model a deployment's score is read off: the deployment itself,
/// or a deeper model whose forward gives it too. [`evaluate_models`] builds
/// each distinct source once and reads each distinct deployment once —
/// sources in first-seen order, the global model's first, so the first
/// error is the one a serial global-then-clients loop would hit — and the
/// scores are mapped back in sample order.
pub(crate) fn evaluate_distinct<K: PartialEq + Sync, M>(
    models: impl IntoIterator<Item = Option<K>>,
    chance: f32,
    data: &Dataset,
    parallelism: Parallelism,
    source: impl Fn(&K) -> K,
    build: impl Fn(&K) -> FlResult<M> + Sync,
    score_chunk: impl Fn(&mut M, &[K], &Batch) -> FlResult<Vec<f32>> + Sync,
) -> FlResult<(f32, Vec<f32>)> {
    let (mut sources, mut reads): (Vec<K>, Vec<Vec<K>>) = (Vec::new(), Vec::new());
    let read_at: Vec<Option<(usize, usize)>> = models
        .into_iter()
        .map(|key| {
            let key = key?;
            let model = position_or_push(&mut sources, source(&key));
            if model == reads.len() {
                reads.push(Vec::new());
            }
            Some((model, position_or_push(&mut reads[model], key)))
        })
        .collect();
    let models: Vec<(K, Vec<K>)> = sources.into_iter().zip(reads).collect();
    let scores = evaluate_models(&models, data, parallelism, build, score_chunk)?;
    let mut point = read_at
        .into_iter()
        .map(|at| at.map_or(chance, |(model, key)| scores[model][key]));
    let global = point.next().unwrap_or(chance);
    Ok((global, point.collect()))
}

/// The index of `item` in `seen`, appended first if it is new.
fn position_or_push<T: PartialEq>(seen: &mut Vec<T>, item: T) -> usize {
    seen.iter().position(|s| *s == item).unwrap_or_else(|| {
        seen.push(item);
        seen.len() - 1
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    use mhfl_data::{DataTask, ShardPlan};
    use mhfl_device::{ClientAssignment, ConstraintCase, CostModel, ModelPool};
    use mhfl_fl::{ClientSource, LocalTrainConfig};
    use mhfl_models::ModelFamily;

    /// Assignments built up front, as a source.
    pub(crate) struct Assignments(pub(crate) Vec<ClientAssignment>);

    impl ClientSource for Assignments {
        fn assignment(&self, client: usize) -> ClientAssignment {
            self.0[client]
        }
    }

    /// A federation of `method` clients under `case`, assigned from the
    /// ResNet pool: twenty samples and four local steps per client,
    /// everything seeded by `seed`.
    pub(crate) fn test_context(
        task: DataTask,
        method: MhflMethod,
        case: ConstraintCase,
        num_clients: usize,
        seed: u64,
    ) -> FederationContext {
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::ALL,
            task.num_classes(),
        );
        let assignments = (0..num_clients)
            .map(|client| {
                let device = case.derive_device(seed, client);
                case.assign_client(&pool, method, &device, &CostModel::default(), client)
            })
            .collect();
        let train = LocalTrainConfig {
            local_steps: 4,
            ..LocalTrainConfig::default()
        };
        FederationContext::new(
            ShardPlan::new(task, num_clients, 20, None, seed),
            Arc::new(Assignments(assignments)),
            train,
            seed,
        )
    }

    const COMP_400: ConstraintCase = ConstraintCase::Computation {
        deadline_secs: 400.0,
    };

    /// One round's client 10 000 and the next round's client 0 draw from
    /// different streams.
    #[test]
    fn client_streams_do_not_alias_across_rounds() {
        let ctx = test_context(DataTask::UciHar, MhflMethod::SHeteroFl, COMP_400, 1, 11);
        let first = |round, client| client_rng(&ctx, round, client).uniform(0.0, 1.0);
        assert_ne!(first(0, 10_000), first(1, 0));
    }

    #[test]
    fn client_configs_follow_assignments() {
        let ctx = test_context(DataTask::Cifar10, MhflMethod::SHeteroFl, COMP_400, 8, 11);
        for client in 0..ctx.num_clients() {
            let cfg = client_proxy_config(&ctx, client, MhflMethod::SHeteroFl);
            let a = ctx.assignment(client);
            assert_eq!(cfg.width_fraction, a.entry.choice.width_fraction);
            assert_eq!(cfg.num_classes, 10);
            assert!(!cfg.with_aux_heads);
        }
        let depth_cfg = client_proxy_config(&ctx, 0, MhflMethod::DepthFl);
        assert!(depth_cfg.with_aux_heads);
    }

    #[test]
    fn global_config_is_full_size() {
        let ctx = test_context(DataTask::Cifar10, MhflMethod::FedRolex, COMP_400, 6, 11);
        let cfg = global_proxy_config(&ctx, MhflMethod::FedRolex);
        assert_eq!(cfg.width_fraction, 1.0);
        assert_eq!(cfg.depth_fraction, 1.0);
        let model = ProxyModel::new(cfg).unwrap();
        assert!(model.num_parameters() > 0);
    }
}
