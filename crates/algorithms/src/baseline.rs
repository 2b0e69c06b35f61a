//! The resource-aware homogeneous baseline.
//!
//! The paper's *effectiveness* metric compares every MHFL algorithm against
//! "a simple resource-aware homogeneous baseline (i.e., training the smallest
//! homogeneous model across all heterogeneous devices)". This is plain FedAvg
//! where every client — fast or slow, big or small — trains an identical copy
//! of the smallest model any device in the federation can hold.

use mhfl_fl::FederationContext;
use mhfl_models::ProxyConfig;

/// The configuration every baseline client trains and the server
/// aggregates: the smallest model any device in the federation was assigned.
pub(crate) fn smallest_config(ctx: &FederationContext) -> ProxyConfig {
    let smallest = ctx.smallest_assignment();
    let task = ctx.task();
    ProxyConfig::for_family(
        smallest.entry.choice.family,
        task.input_kind(),
        task.num_classes(),
        ctx.seed(),
    )
    .with_width(smallest.entry.choice.width_fraction)
    .with_depth(smallest.entry.choice.depth_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::test_context;
    use crate::submodel::SubmodelAlgorithm;
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_fl::{EngineConfig, FlAlgorithm, FlEngine};
    use mhfl_models::MhflMethod;

    fn context(clients: usize) -> FederationContext {
        let method = MhflMethod::HomogeneousSmallest;
        test_context(DataTask::UciHar, method, ConstraintCase::Memory, clients, 3)
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
        let mut alg = SubmodelAlgorithm::new(MhflMethod::HomogeneousSmallest);
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert!(report.final_accuracy() > 1.0 / 6.0 + 0.05);
        // All clients share the same deployed model, so stability variance is 0.
        assert!(report.stability() < 1e-9);
    }

    #[test]
    fn baseline_uses_smallest_assigned_model() {
        let ctx = context(5);
        let mut alg = SubmodelAlgorithm::new(MhflMethod::HomogeneousSmallest);
        alg.setup(&ctx).unwrap();
        let smallest = ctx.smallest_assignment();
        let cfg = alg.require_setup().unwrap();
        assert_eq!(cfg.width_fraction, smallest.entry.choice.width_fraction);
        assert_eq!(cfg.depth_fraction, smallest.entry.choice.depth_fraction);
    }

    #[test]
    fn use_before_setup_errors() {
        let mut alg = SubmodelAlgorithm::new(MhflMethod::HomogeneousSmallest);
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 4, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
    }
}
