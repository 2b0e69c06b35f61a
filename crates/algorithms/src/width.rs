//! Width-heterogeneous algorithms: Fjord, SHeteroFL and FedRolex.
//!
//! All three run the sub-model recipe of [`crate::submodel`] on
//! channel-sliced sub-models matching the client's assigned width fraction.
//! They differ only in *which* channels a client receives:
//!
//! * **SHeteroFL** — the first `k` channels (static nested sub-networks);
//! * **Fjord** — also nested prefixes, but each round a client trains at a
//!   width sampled uniformly from the fractions it can support (ordered
//!   dropout);
//! * **FedRolex** — a rolling window whose offset advances with the round
//!   index, so every global channel is eventually trained by small clients.

use mhfl_fl::submodel::WidthSelection;
use mhfl_models::{MhflMethod, ProxyConfig};
use mhfl_tensor::SeededRng;

/// The standard width fractions clients may train at.
const WIDTH_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Which channels a client receives in `round`.
pub(crate) fn selection(method: MhflMethod, round: usize) -> WidthSelection {
    match method {
        MhflMethod::FedRolex => WidthSelection::Rolling { shift: round },
        _ => WidthSelection::Prefix,
    }
}

/// The width a client trains at this round.
pub(crate) fn round_width(method: MhflMethod, assigned: f64, rng: &mut SeededRng) -> f64 {
    match method {
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

/// The model `client` deploys: its nested sub-model of the global
/// parameters, at a width keyed on `client % 4`.
pub(crate) fn deployed_config(global: ProxyConfig, client: usize) -> ProxyConfig {
    let width = WIDTH_FRACTIONS[client % WIDTH_FRACTIONS.len()];
    global.with_width(width).with_aux_heads(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::test_context;
    use crate::submodel::SubmodelAlgorithm;
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_fl::{EngineConfig, FederationContext, FlAlgorithm, FlEngine};

    fn context(task: DataTask, method: MhflMethod, clients: usize) -> FederationContext {
        let case = ConstraintCase::Computation {
            deadline_secs: 350.0,
        };
        test_context(task, method, case, clients, 1)
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
        let mut alg = SubmodelAlgorithm::new(method);
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
        assert_eq!(selection(MhflMethod::SHeteroFl, 7), WidthSelection::Prefix);
        assert_eq!(
            selection(MhflMethod::FedRolex, 7),
            WidthSelection::Rolling { shift: 7 }
        );
    }

    #[test]
    fn fjord_samples_widths_up_to_assignment() {
        let mut rng = SeededRng::new(0);
        for _ in 0..50 {
            let w = round_width(MhflMethod::Fjord, 0.5, &mut rng);
            assert!(w <= 0.5 + 1e-9);
            assert!(WIDTH_FRACTIONS.contains(&w));
        }
        assert_eq!(round_width(MhflMethod::SHeteroFl, 0.75, &mut rng), 0.75);
    }

    #[test]
    #[should_panic(expected = "not a sub-model method")]
    fn wrong_method_is_rejected() {
        let _ = SubmodelAlgorithm::new(MhflMethod::FedProto);
    }

    #[test]
    fn evaluate_before_setup_errors() {
        let mut alg = SubmodelAlgorithm::new(MhflMethod::SHeteroFl);
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 8, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
        assert!(alg.evaluate_client(0, &data).is_err());
    }
}
