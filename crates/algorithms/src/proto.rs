//! FedProto: federated prototype learning across heterogeneous topologies.
//!
//! Clients may run entirely different architectures; the only thing they
//! exchange with the server is one prototype (mean feature vector) per class.
//! The server averages prototypes across clients and sends them back; each
//! client regularises its local training so that its features stay close to
//! the global prototype of the sample's class.

use std::iter::once;

use mhfl_data::{Batch, Dataset};
use mhfl_fl::adversary::{clip_tensor, coordinate_median};
use mhfl_fl::train::{evaluate_chunks, top1_correct};
use mhfl_fl::{
    AlgorithmState, ClientPayload, ClientUpdate, FederationContext, FlAlgorithm, FlError, FlResult,
    Parallelism, RobustAggregation,
};
use mhfl_models::{MhflMethod, ProxyConfig, ProxyModel};
use mhfl_nn::loss::{correct_count, cross_entropy, prototype_loss};
use mhfl_nn::{Layer, Sgd};
use mhfl_tensor::{SeededRng, Tensor};

use crate::common::{chance, client_rng, evaluate_distinct, ClientModels, Deployed};

/// Shared prototype dimensionality. FedProto requires every client topology
/// to produce embeddings in the same space, so all client proxies are built
/// with this feature width regardless of family.
const PROTO_DIM: usize = 16;
/// Weight of the prototype-regularisation term in the local loss.
const PROTO_LAMBDA: f32 = 1.0;
/// Number of client models averaged for the "global" evaluation ensemble.
const ENSEMBLE_SIZE: usize = 8;

/// The FedProto algorithm.
///
/// The server keeps each participating client's local weights (as a
/// `StateDict` snapshot) purely for simulation bookkeeping: the client
/// phase rebuilds the client's model from its stored state, trains it, and
/// ships the updated state back inside the [`ClientUpdate`], so the phase
/// itself needs only `&self` and parallelises freely.
pub struct FedProto {
    client_models: ClientModels,
    prototypes: Tensor,
    proto_counts: Vec<f32>,
    num_classes: usize,
    ready: bool,
    robust: RobustAggregation,
}

impl FedProto {
    /// Creates the algorithm.
    pub fn new() -> Self {
        FedProto {
            client_models: ClientModels::new(Self::client_config),
            prototypes: Tensor::zeros(&[0, 0]),
            proto_counts: Vec::new(),
            num_classes: 0,
            ready: false,
            robust: RobustAggregation::None,
        }
    }

    fn require_setup(&self) -> FlResult<()> {
        if !self.ready {
            return Err(FlError::InvalidConfig("algorithm used before setup".into()));
        }
        Ok(())
    }

    fn client_config(ctx: &FederationContext, client: usize) -> ProxyConfig {
        let task = ctx.task();
        let assignment = ctx.assignment(client);
        let mut cfg = ProxyConfig::for_family(
            assignment.entry.choice.family,
            task.input_kind(),
            task.num_classes(),
            ctx.seed() + client as u64,
        );
        // All topologies share the prototype embedding width.
        cfg.base_dim = PROTO_DIM;
        cfg
    }

    fn has_prototypes(&self) -> Vec<bool> {
        self.proto_counts.iter().map(|&c| c > 0.0).collect()
    }

    /// Local training with cross-entropy plus prototype regularisation, then
    /// the client's per-class prototype sums and counts on its full shard.
    fn train_client(
        &self,
        model: &mut ProxyModel,
        data: &Dataset,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> FlResult<(Tensor, Vec<f32>)> {
        let cfg = ctx.train_config();
        let prototypes = &self.prototypes;
        let has_proto = self.has_prototypes();
        let num_classes = self.num_classes;

        let mut opt = Sgd::new(cfg.sgd);
        let mut batches = data.batches(cfg.batch_size, rng);
        let mut cursor = 0usize;
        for _ in 0..cfg.local_steps {
            if batches.is_empty() {
                break;
            }
            if cursor >= batches.len() {
                batches = data.batches(cfg.batch_size, rng);
                cursor = 0;
            }
            let batch = &batches[cursor];
            cursor += 1;
            model.zero_grad();
            let out = model.forward_detailed(&batch.inputs, true)?;
            let (_, grad_logits) = cross_entropy(&out.logits, &batch.labels)?;
            let (_, grad_features) =
                prototype_loss(&out.features, &batch.labels, prototypes, &has_proto)?;
            model.backward_detailed(&grad_logits, Some(&grad_features.scale(PROTO_LAMBDA)), &[])?;
            opt.step(model)?;
        }

        // Compute the client's prototypes on its full shard (evaluation mode).
        let mut sums = Tensor::zeros(&[num_classes, PROTO_DIM]);
        let mut counts = vec![0.0f32; num_classes];
        let batch = data.as_batch();
        if !batch.is_empty() {
            let out = model.forward_detailed(&batch.inputs, false)?;
            for (i, &label) in batch.labels.iter().enumerate() {
                if label >= num_classes {
                    continue;
                }
                counts[label] += 1.0;
                for j in 0..PROTO_DIM {
                    let current = sums.at(&[label, j])?;
                    sums.set(&[label, j], current + out.features.at(&[i, j])?)?;
                }
            }
        }
        Ok((sums, counts))
    }

    /// FedProto keeps no single global model; the platform evaluates the
    /// ensemble of (up to `ENSEMBLE_SIZE`) trained client models. Its key is
    /// `None` when there is nothing to score: no trained client, or no test
    /// row; the ensemble then answers chance.
    fn ensemble_key(&self, data: &Dataset) -> Option<Deployed> {
        let trained = self.client_models.stored().next().is_some();
        (trained && !data.is_empty()).then_some(Deployed::Server)
    }

    /// The model behind an evaluation key.
    fn scored(&self, key: Deployed) -> FlResult<Scored> {
        match key {
            Deployed::Server => Ok(Scored::Ensemble {
                members: self
                    .client_models
                    .stored()
                    .take(ENSEMBLE_SIZE)
                    .map(|(cfg, state)| ProxyModel::from_state(*cfg, state))
                    .collect::<Result<_, _>>()?,
                num_classes: self.num_classes,
            }),
            Deployed::Client(client) => Ok(Scored::Local(Box::new(
                self.client_models.stored_model(client)?,
            ))),
        }
    }
}

/// What a FedProto evaluation point scores: the ensemble of client models,
/// or one client's local model.
enum Scored {
    Ensemble {
        members: Vec<ProxyModel>,
        num_classes: usize,
    },
    Local(Box<ProxyModel>),
}

impl Scored {
    /// One chunk of the model's score. The ensemble answers each row with
    /// the argmax of its members' summed softmax, summed in member order,
    /// and returns its correct rows as an exact integer count; a local model
    /// returns its top-1 accuracy weighted by the chunk's rows.
    fn score_chunk(&mut self, batch: &Batch) -> FlResult<f32> {
        match self {
            Scored::Ensemble {
                members,
                num_classes,
            } => {
                let mut probs = Tensor::zeros(&[batch.len(), *num_classes]);
                for member in members {
                    let out = member.forward_detailed(&batch.inputs, false)?;
                    probs.axpy(1.0, &out.logits.softmax_rows()?)?;
                }
                Ok(correct_count(&probs, &batch.labels)? as f32)
            }
            Scored::Local(model) => {
                top1_correct(&model.forward_detailed(&batch.inputs, false)?, batch)
            }
        }
    }
}

impl Default for FedProto {
    fn default() -> Self {
        Self::new()
    }
}

impl FlAlgorithm for FedProto {
    fn name(&self) -> String {
        MhflMethod::FedProto.display_name().to_string()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        self.num_classes = ctx.task().num_classes();
        self.prototypes = Tensor::zeros(&[self.num_classes, PROTO_DIM]);
        self.proto_counts = vec![0.0; self.num_classes];
        self.ready = true;
        Ok(())
    }

    fn client_update(
        &self,
        round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate> {
        self.require_setup()?;
        let mut rng = client_rng(ctx, round, client);
        let mut model = self.client_models.build(ctx, client)?;
        let data = ctx.client_shard_at(client, round);
        let (sums, counts) = self.train_client(&mut model, &data, ctx, &mut rng)?;
        Ok(ClientUpdate::new(
            client,
            data.len(),
            ClientPayload::Prototypes {
                state: model.state_dict(),
                sums,
                counts,
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
        let mut round_sums = Tensor::zeros(&[self.num_classes, PROTO_DIM]);
        let mut round_counts = vec![0.0f32; self.num_classes];
        // Per-client (sums, counts), kept only under coordinate-median.
        let mut per_client: Vec<(Tensor, Vec<f32>)> = Vec::new();
        for update in updates {
            let client = update.client;
            // Under asynchronous buffered execution the engine discounts
            // stale uploads; a stale client's samples contribute
            // proportionally fewer "effective samples" to the prototype
            // means. Synchronous rounds always carry weight 1.0.
            let staleness_weight = update.staleness_weight;
            let (state, mut sums, counts) = match update.payload {
                ClientPayload::Prototypes {
                    state,
                    sums,
                    counts,
                } => (state, sums, counts),
                other => {
                    return Err(FlError::InvalidConfig(format!(
                        "FedProto aggregation expects prototype payloads, \
                         got {} from client {client}",
                        other.kind()
                    )))
                }
            };
            self.client_models.insert(ctx, client, state);
            if let RobustAggregation::NormClip { max_norm } = self.robust {
                clip_tensor(&mut sums, max_norm);
            }
            round_sums.axpy(staleness_weight, &sums)?;
            for (acc, &c) in round_counts.iter_mut().zip(&counts) {
                *acc += c * staleness_weight;
            }
            if self.robust == RobustAggregation::CoordinateMedian {
                per_client.push((sums, counts));
            }
        }
        if self.robust == RobustAggregation::CoordinateMedian {
            // Robust server-side aggregation: for every class a client
            // reported, take the per-coordinate median of the client *class
            // means* (sums / counts) — a single corrupted client cannot move
            // the prototype when a majority of contributors is honest.
            // Staleness weights are deliberately ignored: the median is an
            // order statistic, not a weighted mean.
            for class in 0..self.num_classes {
                let contributors: Vec<&(Tensor, Vec<f32>)> = per_client
                    .iter()
                    .filter(|(_, counts)| counts[class] > 0.0)
                    .collect();
                if contributors.is_empty() {
                    continue;
                }
                for j in 0..PROTO_DIM {
                    let mut means = Vec::with_capacity(contributors.len());
                    for (sums, counts) in &contributors {
                        means.push(sums.at(&[class, j])? / counts[class]);
                    }
                    let median = coordinate_median(&mut means).expect("contributors is non-empty");
                    self.prototypes.set(&[class, j], median)?;
                }
                self.proto_counts[class] += round_counts[class];
            }
            return Ok(());
        }
        // Server-side prototype aggregation (weighted mean over contributing
        // samples); classes unseen this round keep their previous prototype.
        for (class, &count) in round_counts.iter().enumerate() {
            if count > 0.0 {
                for j in 0..PROTO_DIM {
                    let mean = round_sums.at(&[class, j])? / count;
                    self.prototypes.set(&[class, j], mean)?;
                }
                self.proto_counts[class] += count;
            }
        }
        Ok(())
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        self.require_setup()?;
        match self.ensemble_key(data) {
            Some(key) => evaluate_chunks(&mut self.scored(key)?, data, Scored::score_chunk),
            None => Ok(chance(self.num_classes)),
        }
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
        let sampled = clients
            .iter()
            .map(|&client| self.client_models.deployed(client));
        evaluate_distinct(
            once(self.ensemble_key(data)).chain(sampled),
            chance(self.num_classes),
            data,
            parallelism,
            |&key| key,
            |&key| self.scored(key),
            |scored, _, batch| Ok(vec![scored.score_chunk(batch)?]),
        )
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
        self.require_setup()?;
        // Per-client model snapshots plus the server's prototype table; the
        // ProxyConfigs are recomputed from the context on restore.
        let mut state = AlgorithmState::new();
        state.insert_tensor("prototypes", self.prototypes.clone());
        state.insert_scalars("proto_counts", self.proto_counts.clone());
        self.client_models.snapshot_into(&mut state);
        Ok(state)
    }

    fn restore(&mut self, mut state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        self.setup(ctx)?;
        self.prototypes = state.take_tensor("prototypes")?;
        self.proto_counts = state.take_scalars("proto_counts")?;
        self.client_models.restore_from(&mut state, ctx)
    }

    fn set_robust_aggregation(&mut self, robust: RobustAggregation) {
        self.robust = robust;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::common::tests::{test_context, Assignments};
    use mhfl_data::{DataTask, ShardPlan};
    use mhfl_device::ConstraintCase;
    use mhfl_fl::{EngineConfig, FlEngine};
    use mhfl_models::ModelFamily;

    fn context(clients: usize) -> FederationContext {
        // A tight compute deadline forces slow devices onto smaller family
        // members, so the federation is genuinely topology-heterogeneous.
        let case = ConstraintCase::Computation {
            deadline_secs: 60.0,
        };
        test_context(DataTask::UciHar, MhflMethod::FedProto, case, clients, 4)
    }

    #[test]
    fn fedproto_learns_above_chance_with_heterogeneous_topologies() {
        let ctx = context(6);
        let engine = FlEngine::new(EngineConfig {
            rounds: 6,
            sample_ratio: 0.5,
            eval_every: 6,
            stability_clients: 3,
            ..EngineConfig::default()
        });
        let mut alg = FedProto::new();
        let report = engine.run(&mut alg, &ctx).unwrap();
        assert!(
            report.final_accuracy() > 1.0 / 6.0 + 0.05,
            "FedProto ensemble accuracy {}",
            report.final_accuracy()
        );
        // Prototypes have been populated for at least a few classes.
        assert!(alg.proto_counts.iter().filter(|&&c| c > 0.0).count() >= 3);
    }

    #[test]
    fn clients_keep_distinct_architectures() {
        // Force an explicitly topology-heterogeneous federation: alternate the
        // assigned family between the smallest and largest ResNet.
        let base = context(4);
        let mut assignments: Vec<_> = (0..base.num_clients())
            .map(|c| base.assignment(c))
            .collect();
        for (i, a) in assignments.iter_mut().enumerate() {
            a.entry.choice.family = if i % 2 == 0 {
                ModelFamily::ResNet18
            } else {
                ModelFamily::ResNet101
            };
        }
        let ctx = FederationContext::new(
            ShardPlan::new(DataTask::UciHar, base.num_clients(), 20, None, 4),
            Arc::new(Assignments(assignments)),
            *base.train_config(),
            base.seed(),
        );
        let mut alg = FedProto::new();
        alg.setup(&ctx).unwrap();
        let updates: Vec<_> = [0, 1, 2, 3]
            .iter()
            .map(|&c| alg.client_update(1, c, &ctx).unwrap())
            .collect();
        alg.aggregate(1, updates, &ctx).unwrap();
        let block_counts: Vec<usize> = alg
            .client_models
            .stored()
            .map(|(cfg, _)| ProxyModel::new(*cfg).unwrap().num_blocks())
            .collect();
        let mut unique = block_counts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() >= 2,
            "expected heterogeneous topologies, got {block_counts:?}"
        );
    }

    #[test]
    fn untrained_clients_report_chance_accuracy() {
        let ctx = context(4);
        let mut alg = FedProto::new();
        alg.setup(&ctx).unwrap();
        let acc = alg.evaluate_client(2, ctx.test_set()).unwrap();
        assert!((acc - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn use_before_setup_errors() {
        let mut alg = FedProto::new();
        let data = mhfl_data::generate_dataset(DataTask::UciHar, 4, 0, None);
        assert!(alg.evaluate_global(&data).is_err());
    }
}
