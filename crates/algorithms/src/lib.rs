//! # mhfl-algorithms
//!
//! The model-heterogeneous federated learning algorithms benchmarked by
//! PracMHBench, all expressed against the [`mhfl_fl::FlAlgorithm`] trait so
//! the engine, the constraint cases and the metrics are shared.
//!
//! | Level | Algorithms | Mechanism |
//! |---|---|---|
//! | Width | Fjord, SHeteroFL, FedRolex | nested / rolling channel sub-models + partial aggregation |
//! | Depth | FeDepth, InclusiveFL, DepthFL | block-prefix sub-models, momentum transfer, self-distillation |
//! | Topology | [`FedProto`], [`FedEt`] | prototype exchange / public-set logit distillation across distinct architectures |
//! | Baseline | Smallest-Homogeneous | FedAvg on the smallest model every device can hold |
//!
//! The width, depth and baseline rows are one implementation, the crate's
//! `SubmodelAlgorithm`: extract a sub-model of one global state dict, train
//! it, scatter-average it back. `width.rs`, `depth.rs` and `baseline.rs` hold
//! only what differs per method. Use [`build_algorithm`] to instantiate any
//! method from its [`mhfl_models::MhflMethod`] tag.
//!
//! `tests/golden.rs` pins 36 UCI-HAR digests (all nine methods x two
//! executions x two seeds) and 28 Stack Overflow digests (the seven
//! sub-model methods); the Stack Overflow file is the end-to-end pin of
//! clients training sub-models narrower and shallower than the global one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod common;
mod depth;
mod fedet;
mod proto;
mod submodel;
mod width;

pub use common::{client_proxy_config, global_proxy_config};
pub use fedet::FedEt;
pub use proto::FedProto;

use mhfl_fl::FlAlgorithm;
use mhfl_models::MhflMethod;

/// Instantiates the algorithm implementing `method`.
pub fn build_algorithm(method: MhflMethod) -> Box<dyn FlAlgorithm> {
    match method {
        MhflMethod::FedProto => Box::new(FedProto::new()),
        MhflMethod::FedEt => Box::new(FedEt::new()),
        _ => Box::new(submodel::SubmodelAlgorithm::new(method)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::test_context;
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_fl::{FlError, FlResult, Parallelism};

    #[test]
    fn factory_builds_every_method() {
        for method in MhflMethod::ALL {
            let alg = build_algorithm(method);
            assert!(!alg.name().is_empty());
        }
    }

    #[test]
    fn factory_names_match_methods() {
        assert_eq!(build_algorithm(MhflMethod::SHeteroFl).name(), "SHeteroFL");
        assert_eq!(build_algorithm(MhflMethod::DepthFl).name(), "DepthFL");
        assert_eq!(build_algorithm(MhflMethod::FedProto).name(), "FedProto");
        assert_eq!(build_algorithm(MhflMethod::FedEt).name(), "Fed-ET");
    }

    /// Every entry point of every method reports use before `setup` as the
    /// same typed error: never a panic, an `Ok` (an aggregate that silently
    /// drops a real update) or an unrelated failure.
    #[test]
    fn every_entry_point_errors_before_setup() {
        for method in MhflMethod::ALL {
            let ctx = test_context(DataTask::UciHar, method, ConstraintCase::Memory, 4, 11);
            let mut twin = build_algorithm(method);
            twin.setup(&ctx).unwrap();
            let real_update = twin.client_update(1, 0, &ctx).unwrap();

            let data = ctx.test_set();
            let mut alg = build_algorithm(method);
            let results: [(&str, FlResult<()>); 7] = [
                ("client_update", alg.client_update(1, 0, &ctx).map(drop)),
                ("aggregate (empty)", alg.aggregate(1, Vec::new(), &ctx)),
                (
                    "aggregate (real update)",
                    alg.aggregate(1, vec![real_update], &ctx),
                ),
                ("evaluate_global", alg.evaluate_global(data).map(drop)),
                ("evaluate_client", alg.evaluate_client(0, data).map(drop)),
                (
                    "evaluate_point",
                    alg.evaluate_point(&[0, 1], data, Parallelism::Sequential)
                        .map(drop),
                ),
                ("snapshot", alg.snapshot().map(drop)),
            ];
            for (entry, result) in results {
                match result {
                    Err(FlError::InvalidConfig(msg)) if msg.contains("before setup") => {}
                    other => panic!("{method} {entry} before setup returned {other:?}"),
                }
            }
        }
    }
}
