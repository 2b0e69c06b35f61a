//! Fed-ET: heterogeneous ensemble knowledge transfer.
//!
//! Clients run small heterogeneous models and never upload weights. Instead,
//! after local training each selected client evaluates the shared *public*
//! dataset and uploads its logits; the server forms a confidence-weighted
//! ensemble of those logits and distils it into a large server-side model.
//! Clients also distil the server's knowledge back into their local models at
//! the start of their next participation (the "transfer" direction).

use std::iter::once;

use mhfl_data::Dataset;
use mhfl_fl::adversary::{clip_tensor, coordinate_median};
use mhfl_fl::train::{evaluate_accuracy, local_train_ce, top1_correct};
use mhfl_fl::{
    AlgorithmState, ClientPayload, ClientUpdate, FederationContext, FlAlgorithm, FlError, FlResult,
    Parallelism, RobustAggregation,
};
use mhfl_models::{MhflMethod, ProxyConfig, ProxyModel};
use mhfl_nn::loss::soft_cross_entropy;
use mhfl_nn::{Layer, Sgd};
use mhfl_tensor::Tensor;

use crate::common::{chance, client_rng, evaluate_distinct, ClientModels, Deployed};

/// Number of server distillation steps per round.
const SERVER_DISTILL_STEPS: usize = 5;
/// Number of client-side distillation steps from the server ensemble.
const CLIENT_DISTILL_STEPS: usize = 2;
/// Distillation temperature.
const TEMPERATURE: f32 = 2.0;

/// The Fed-ET algorithm.
///
/// Client models are persisted between rounds as `(config, state)` snapshots
/// so the client phase can rebuild, train and return them through the
/// [`ClientUpdate`] without mutating shared state — which is what lets the
/// engine run clients on a thread pool.
pub struct FedEt {
    server_model: Option<ProxyModel>,
    client_models: ClientModels,
    /// Server ensemble predictions on the public set from the previous round.
    server_public_probs: Option<Tensor>,
    num_classes: usize,
    robust: RobustAggregation,
}

impl FedEt {
    /// Creates the algorithm.
    pub fn new() -> Self {
        FedEt {
            server_model: None,
            client_models: ClientModels::new(Self::client_config),
            server_public_probs: None,
            num_classes: 0,
            robust: RobustAggregation::None,
        }
    }

    fn require_setup(&self) -> FlResult<()> {
        if self.server_model.is_none() {
            return Err(FlError::InvalidConfig("algorithm used before setup".into()));
        }
        Ok(())
    }

    fn client_config(ctx: &FederationContext, client: usize) -> ProxyConfig {
        let task = ctx.task();
        let assignment = ctx.assignment(client);
        ProxyConfig::for_family(
            assignment.entry.choice.family,
            task.input_kind(),
            task.num_classes(),
            ctx.seed() + 7 * client as u64,
        )
    }

    /// Mean maximum softmax probability — the confidence weight of a client's
    /// ensemble contribution.
    fn confidence(probs: &Tensor) -> f32 {
        let (rows, cols) = (probs.dims()[0], probs.dims()[1]);
        if rows == 0 {
            return 0.0;
        }
        let mut total = 0.0f32;
        for r in 0..rows {
            let row = &probs.as_slice()[r * cols..(r + 1) * cols];
            total += row.iter().copied().fold(0.0f32, f32::max);
        }
        total / rows as f32
    }

    /// Distils `teacher_probs` (on `inputs`) into `model` for a few steps.
    fn distill(
        model: &mut ProxyModel,
        inputs: &Tensor,
        teacher_probs: &Tensor,
        steps: usize,
        sgd: mhfl_nn::SgdConfig,
    ) -> FlResult<()> {
        let mut opt = Sgd::new(sgd);
        for _ in 0..steps {
            model.zero_grad();
            let out = model.forward_detailed(inputs, true)?;
            let (_, grad) = soft_cross_entropy(&out.logits, teacher_probs, TEMPERATURE)?;
            model.backward_detailed(&grad, None, &[])?;
            opt.step(model)?;
        }
        Ok(())
    }
}

impl Default for FedEt {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-coordinate median over `votes` ([rows, cols] each), clamped
/// non-negative and renormalised so every row sums to one (uniform when a
/// row's median mass is entirely zero).
fn median_vote_matrix(votes: &[Tensor], rows: usize, cols: usize) -> Tensor {
    let mut merged = vec![0.0f32; rows * cols];
    let mut column = Vec::with_capacity(votes.len());
    for (i, slot) in merged.iter_mut().enumerate() {
        column.clear();
        for vote in votes {
            if let Some(&v) = vote.as_slice().get(i) {
                column.push(v);
            }
        }
        *slot = coordinate_median(&mut column).unwrap_or(0.0).max(0.0);
    }
    for row in merged.chunks_mut(cols.max(1)) {
        let total: f32 = row.iter().sum();
        if total > 0.0 {
            for v in row.iter_mut() {
                *v /= total;
            }
        } else {
            let uniform = 1.0 / cols.max(1) as f32;
            row.fill(uniform);
        }
    }
    Tensor::from_vec(merged, &[rows, cols]).expect("vector length matches the shape")
}

impl FlAlgorithm for FedEt {
    fn name(&self) -> String {
        MhflMethod::FedEt.display_name().to_string()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        self.num_classes = ctx.task().num_classes();
        let server = ProxyModel::new(crate::common::global_proxy_config(ctx, MhflMethod::FedEt))?;
        self.server_model = Some(server);
        Ok(())
    }

    fn client_update(
        &self,
        round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate> {
        self.require_setup()?;
        // Borrow the shared public inputs — cloning them per client would
        // multiply the round's allocation cost by the participation count.
        let public_inputs = ctx.public_set().inputs();
        let cfg = *ctx.train_config();
        let mut rng = client_rng(ctx, round, client);
        let mut model = self.client_models.build(ctx, client)?;

        // Transfer direction: absorb the server ensemble before training.
        if let Some(probs) = &self.server_public_probs {
            Self::distill(
                &mut model,
                public_inputs,
                probs,
                CLIENT_DISTILL_STEPS,
                cfg.sgd,
            )?;
        }
        // Local supervised training.
        let data = ctx.client_shard_at(client, round);
        local_train_ce(&mut model, &data, &cfg, &mut rng)?;

        // Upload direction: logits on the public set, confidence-weighted.
        let out = model.forward_detailed(public_inputs, false)?;
        let probs = out.logits.softmax_rows()?;
        let confidence = Self::confidence(&probs).max(1e-3);
        Ok(ClientUpdate::new(
            client,
            data.len(),
            ClientPayload::PublicLogits {
                state: model.state_dict(),
                probs,
                confidence,
            },
        ))
    }

    fn aggregate(
        &mut self,
        _round: usize,
        updates: Vec<ClientUpdate>,
        ctx: &FederationContext,
    ) -> FlResult<()> {
        self.require_setup()?;
        let public = ctx.public_set();
        let cfg = *ctx.train_config();
        let mut weighted_probs = Tensor::zeros(&[public.len(), self.num_classes]);
        let mut total_weight = 0.0f32;
        // Per-client vote matrices, kept only under coordinate-median.
        let mut per_client: Vec<Tensor> = Vec::new();

        for update in updates {
            let client = update.client;
            let (state, mut probs, confidence) = match update.payload {
                ClientPayload::PublicLogits {
                    state,
                    probs,
                    confidence,
                } => (state, probs, confidence),
                other => {
                    return Err(FlError::InvalidConfig(format!(
                        "Fed-ET aggregation expects public-logit payloads, \
                         got {} from client {client}",
                        other.kind()
                    )))
                }
            };
            self.client_models.insert(ctx, client, state);
            if let RobustAggregation::NormClip { max_norm } = self.robust {
                clip_tensor(&mut probs, max_norm);
            }
            // Stale votes (asynchronous buffered execution) are discounted
            // on top of the client's own confidence; synchronous rounds
            // always carry a staleness weight of 1.0.
            let weight = confidence * update.staleness_weight;
            weighted_probs.axpy(weight, &probs)?;
            total_weight += weight;
            if self.robust == RobustAggregation::CoordinateMedian {
                per_client.push(probs);
            }
        }

        if self.robust == RobustAggregation::CoordinateMedian && !per_client.is_empty() {
            // Robust ensembling: per-coordinate median of the client vote
            // matrices (confidence and staleness weights deliberately
            // ignored — the median is an order statistic). The result is
            // clamped non-negative and row-renormalised so it remains a
            // distribution the distillation loss can consume.
            let ensemble = median_vote_matrix(&per_client, public.len(), self.num_classes);
            let server = self.server_model.as_mut().expect("checked");
            Self::distill(
                server,
                public.inputs(),
                &ensemble,
                SERVER_DISTILL_STEPS,
                cfg.sgd,
            )?;
            self.server_public_probs = Some(ensemble);
            return Ok(());
        }

        if total_weight > 0.0 {
            let ensemble = weighted_probs.scale(1.0 / total_weight);
            let server = self.server_model.as_mut().expect("checked");
            Self::distill(
                server,
                public.inputs(),
                &ensemble,
                SERVER_DISTILL_STEPS,
                cfg.sgd,
            )?;
            self.server_public_probs = Some(ensemble);
        }
        Ok(())
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        self.require_setup()?;
        evaluate_accuracy(self.server_model.as_mut().expect("checked"), data)
    }

    fn evaluate_client(&mut self, client: usize, data: &Dataset) -> FlResult<f32> {
        self.require_setup()?;
        self.client_models.accuracy(client, self.num_classes, data)
    }

    fn evaluate_point(
        &mut self,
        clients: &[usize],
        data: &Dataset,
        parallelism: Parallelism,
    ) -> FlResult<(f32, Vec<f32>)> {
        self.require_setup()?;
        // Tasks see `&self`, so the server model is scored on copies.
        let server = self.server_model.as_ref().expect("checked");
        let (server_cfg, server_sd) = (*server.config(), server.state_dict());
        let sampled = clients
            .iter()
            .map(|&client| self.client_models.deployed(client));
        evaluate_distinct(
            once(Some(Deployed::Server)).chain(sampled),
            chance(self.num_classes),
            data,
            parallelism,
            |&key| key,
            |key| match *key {
                Deployed::Server => Ok(ProxyModel::from_state(server_cfg, &server_sd)?),
                Deployed::Client(client) => self.client_models.stored_model(client),
            },
            |model, _, batch| {
                let out = model.forward_detailed(&batch.inputs, false)?;
                Ok(vec![top1_correct(&out, batch)?])
            },
        )
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
        self.require_setup()?;
        let mut state = AlgorithmState::new();
        // The server model is *trained* (distilled) across rounds, so its
        // weights must be captured — unlike the client configs, which are
        // recomputed from the context.
        let server = self
            .server_model
            .as_ref()
            .expect("checked by require_setup");
        state.insert_state("server", server.state_dict());
        if let Some(probs) = &self.server_public_probs {
            state.insert_tensor("server_public_probs", probs.clone());
        }
        self.client_models.snapshot_into(&mut state);
        Ok(state)
    }

    fn restore(&mut self, mut state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        self.num_classes = ctx.task().num_classes();
        let server_sd = state.take_state("server")?;
        // from_state skips the random initialisation the snapshot would
        // overwrite anyway.
        self.server_model = Some(ProxyModel::from_state(
            crate::common::global_proxy_config(ctx, MhflMethod::FedEt),
            &server_sd,
        )?);
        self.server_public_probs = state.try_take_tensor("server_public_probs");
        self.client_models.restore_from(&mut state, ctx)
    }

    fn set_robust_aggregation(&mut self, robust: RobustAggregation) {
        self.robust = robust;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::test_context;
    use mhfl_data::DataTask;
    use mhfl_device::ConstraintCase;
    use mhfl_fl::{EngineConfig, FlEngine};

    fn context(clients: usize) -> FederationContext {
        test_context(
            DataTask::UciHar,
            MhflMethod::FedEt,
            ConstraintCase::Memory,
            clients,
            5,
        )
    }

    #[test]
    fn fedet_server_model_learns_from_ensemble() {
        let ctx = context(6);
        let engine = FlEngine::new(EngineConfig {
            rounds: 6,
            sample_ratio: 0.5,
            eval_every: 6,
            stability_clients: 3,
            ..EngineConfig::default()
        });
        let mut alg = FedEt::new();
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert!(
            report.final_accuracy() > 1.0 / 6.0,
            "Fed-ET server accuracy {} should beat chance",
            report.final_accuracy()
        );
        assert!(alg.server_public_probs.is_some());
    }

    #[test]
    fn confidence_is_higher_for_peaked_distributions() {
        let peaked = Tensor::from_vec(vec![0.9, 0.05, 0.05], &[1, 3]).unwrap();
        let flat = Tensor::from_vec(vec![0.34, 0.33, 0.33], &[1, 3]).unwrap();
        assert!(FedEt::confidence(&peaked) > FedEt::confidence(&flat));
        assert_eq!(FedEt::confidence(&Tensor::zeros(&[0, 3])), 0.0);
    }

    #[test]
    fn unknown_clients_report_chance() {
        let ctx = context(4);
        let mut alg = FedEt::new();
        alg.setup(&ctx).unwrap();
        let acc = alg.evaluate_client(3, ctx.test_set()).unwrap();
        assert!((acc - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn use_before_setup_errors() {
        let mut alg = FedEt::new();
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 4, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
    }
}
