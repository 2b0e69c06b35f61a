//! Helpers shared by all algorithm implementations.

use std::collections::BTreeMap;

use mhfl_data::Dataset;
use mhfl_fl::submodel::{PlanCache, WidthSelection};
use mhfl_fl::train::evaluate_accuracy;
use mhfl_fl::{fan_out, FederationContext, FlResult, Parallelism};
use mhfl_models::{MhflMethod, ProxyConfig, ProxyModel};
use mhfl_nn::{ParamSpec, StateDict};

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

/// Builds and returns the global proxy model for a context/method.
///
/// # Panics
/// Panics only if the configuration is internally inconsistent, which would
/// indicate a bug in the constraint-assignment code.
pub fn build_global_model(ctx: &FederationContext, method: MhflMethod) -> ProxyModel {
    ProxyModel::new(global_proxy_config(ctx, method)).expect("global proxy config is valid")
}

/// Builds the `cfg`-shaped sub-model of the global parameters `global_sd`.
/// Zero-init skips the Box-Muller draws the extracted parameters would
/// overwrite anyway; the cached plan turns extraction into one gather pass
/// per parameter.
pub(crate) fn extract_submodel(
    plans: &PlanCache,
    global_specs: &[ParamSpec],
    global_sd: &StateDict,
    cfg: ProxyConfig,
    selection: WidthSelection,
) -> FlResult<ProxyModel> {
    let mut model = ProxyModel::zeroed(cfg)?;
    let plan = plans.for_client_specs(global_specs, &model.param_specs(), selection)?;
    model.load_state_dict(&plan.extract(global_sd)?)?;
    Ok(model)
}

/// Accuracy of the model a topology-family client deploys: its stored local
/// model, or chance for a client that never participated (it would deploy an
/// untrained model).
pub(crate) fn stored_client_accuracy(
    client_states: &BTreeMap<usize, (ProxyConfig, StateDict)>,
    client: usize,
    num_classes: usize,
    data: &Dataset,
) -> FlResult<f32> {
    match client_states.get(&client) {
        Some((cfg, state)) => evaluate_accuracy(&mut ProxyModel::from_state(*cfg, state)?, data),
        None => Ok(1.0 / num_classes.max(1) as f32),
    }
}

/// One evaluation point over *distinct* deployments: `global` and every
/// entry of `deployed` (one per sampled client) name a model by a key; each
/// distinct key is scored once — the global model first, then first-seen
/// order, so the first error is the one a serial global-then-clients loop
/// would hit — fanned out under `parallelism`, and mapped back in sample
/// order.
pub(crate) fn evaluate_distinct<K: PartialEq + Sync>(
    global: K,
    deployed: impl IntoIterator<Item = K>,
    parallelism: Parallelism,
    score: impl Fn(&K) -> FlResult<f32> + Sync,
) -> FlResult<(f32, Vec<f32>)> {
    let mut distinct = vec![global];
    let mut job_of = Vec::new();
    for key in deployed {
        let job = distinct.iter().position(|seen| *seen == key);
        job_of.push(job.unwrap_or(distinct.len()));
        if job.is_none() {
            distinct.push(key);
        }
    }
    let scores = fan_out(distinct.len(), parallelism, |job| score(&distinct[job]))?;
    Ok((
        scores[0],
        job_of.into_iter().map(|job| scores[job]).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_data::{DataTask, FederatedDataset};
    use mhfl_device::{ConstraintCase, CostModel, ModelPool};
    use mhfl_fl::LocalTrainConfig;
    use mhfl_models::ModelFamily;

    pub(crate) fn test_context(
        task: DataTask,
        base_family: ModelFamily,
        method: MhflMethod,
        num_clients: usize,
    ) -> FederationContext {
        let data = FederatedDataset::generate(task, num_clients, 16, None, 11);
        let pool = ModelPool::build(
            base_family,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::ALL,
            task.num_classes(),
        );
        let case = ConstraintCase::Computation {
            deadline_secs: 400.0,
        };
        let devices = case.build_population(num_clients, 5);
        let assignments = case.assign_clients(&pool, method, &devices, &CostModel::default());
        FederationContext::new(data, assignments, LocalTrainConfig::default(), 11).unwrap()
    }

    #[test]
    fn client_configs_follow_assignments() {
        let ctx = test_context(
            DataTask::Cifar10,
            ModelFamily::ResNet101,
            MhflMethod::SHeteroFl,
            8,
        );
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
        let ctx = test_context(
            DataTask::Cifar10,
            ModelFamily::ResNet101,
            MhflMethod::FedRolex,
            6,
        );
        let cfg = global_proxy_config(&ctx, MhflMethod::FedRolex);
        assert_eq!(cfg.width_fraction, 1.0);
        assert_eq!(cfg.depth_fraction, 1.0);
        let model = build_global_model(&ctx, MhflMethod::FedRolex);
        assert!(model.num_parameters() > 0);
    }
}
