//! Layer probes: the layers below the algorithm boundary (`mhfl-tensor`,
//! `mhfl-nn`, `mhfl-models`, `mhfl-data`, `mhfl-device`, `wire`, `persist`,
//! `submodel`) offer no hook to decorate, so after the traced run each public
//! call is timed directly — median µs over a fixed number of repetitions —
//! on the *probe client* (first client of round 1's selection) with its real
//! configuration, shard, batch and update.

use std::hint::black_box;
use std::time::Instant;

use mhfl_algorithms::{client_proxy_config, global_proxy_config};
use mhfl_fl::submodel::{ExtractionPlan, ServerAggregator};
use mhfl_fl::wire::{decode_client_update, encode_client_update};
use mhfl_fl::{Checkpoint, ClientPayload, FederationContext, FlAlgorithm, Session};
use mhfl_models::ProxyModel;
use mhfl_net::{read_message, write_message, Message};
use mhfl_nn::loss::cross_entropy;
use mhfl_nn::{Layer, Sgd};
use mhfl_tensor::{SeededRng, Tensor};

use crate::run::{Metric, Specific};
use crate::stats::median;
use crate::workloads::Workload;

/// Median µs of `reps` calls of `f`, and the last call's result.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let result = black_box(f());
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(result);
    }
    (median(&samples), last.expect("at least one repetition"))
}

/// What the end-of-run hook reads off the live session (all 0 when the run
/// never got that far).
#[derive(Default)]
pub struct Persist {
    checkpoint_us: f64,
    encode_us: f64,
    decode_us: f64,
    bytes: f64,
}

impl Persist {
    pub fn metrics(&self) -> [Metric; 4] {
        [
            ("fl.persist.checkpoint_us", self.checkpoint_us),
            ("fl.persist.encode_us", self.encode_us),
            ("fl.persist.decode_us", self.decode_us),
            ("fl.persist.bytes", self.bytes),
        ]
    }
}

/// `Session::checkpoint` → `to_bytes` → `from_bytes` on the live session.
pub fn persist(session: &Session<'_>, reps: usize) -> Persist {
    let (checkpoint_us, checkpoint) = time_us(reps, || session.checkpoint());
    let Ok(checkpoint) = checkpoint else {
        return Persist::default();
    };
    let (encode_us, bytes) = time_us(reps, || checkpoint.to_bytes());
    let (decode_us, decoded) = time_us(reps, || Checkpoint::from_bytes(&bytes));
    Persist {
        checkpoint_us,
        encode_us,
        // A checkpoint that does not decode is reported as not measured.
        decode_us: if decoded.is_ok() { decode_us } else { 0.0 },
        bytes: bytes.len() as f64,
    }
}

/// Every probe that needs no live session, plus the cross-check of how much
/// of the probe client's measured `client_update` the probes account for.
pub fn layers(
    w: &Workload,
    ctx: &FederationContext,
    algorithm: &dyn FlAlgorithm,
    client: usize,
) -> Result<(Vec<Metric>, Vec<Specific>), String> {
    let heavy = w.probe_reps;
    let light = heavy * 5;
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let mut out = Vec::new();
    let mut specific = Vec::new();

    // The real call the probes are to explain, and its real update.
    let (client_update_us, update) = time_us(heavy, || algorithm.client_update(1, client, ctx));
    let update = update.map_err(|e| text(&e))?;

    // wire: one update frame; one state frame as RemoteRunner ships it.
    let (encode_update_us, frame) = time_us(light, || encode_client_update(&update));
    let (decode_update_us, decoded) = time_us(light, || decode_client_update(&frame));
    decoded.map_err(|e| text(&e))?;
    let dispatch = Message::Dispatch {
        round: 1,
        clients: vec![client],
        state: Some(algorithm.snapshot().map_err(|e| text(&e))?),
        parallelism: w.parallelism,
    };
    let mut state_frame = Vec::new();
    let (encode_state_us, written) = time_us(heavy, || {
        state_frame.clear();
        write_message(&mut state_frame, &dispatch)
    });
    written.map_err(|e| text(&e))?;
    let (decode_state_us, read) = time_us(heavy, || read_message(&mut state_frame.as_slice()));
    read.map_err(|e| text(&e))?;
    out.extend([
        ("fl.wire.encode_update_us", encode_update_us),
        ("fl.wire.decode_update_us", decode_update_us),
        ("fl.wire.update_bytes", frame.len() as f64),
        ("fl.wire.encode_state_us", encode_state_us),
        ("fl.wire.decode_state_us", decode_state_us),
        ("fl.wire.state_bytes", state_frame.len() as f64),
    ]);

    // submodel: only where the method uploads sub-models.
    let mut extract_us = 0.0;
    if let ClientPayload::SubModel {
        state, selection, ..
    } = &update.payload
    {
        let global = ProxyModel::new(global_proxy_config(ctx, w.method)).map_err(|e| text(&e))?;
        let specs = global.param_specs();
        let global_state = global.state_dict();
        let plan = ExtractionPlan::for_state(&specs, state, *selection).map_err(|e| text(&e))?;
        let (us, extracted) = time_us(light, || plan.extract(&global_state));
        extracted.map_err(|e| text(&e))?;
        extract_us = us;
        let mut aggregator = ServerAggregator::new(specs);
        let (scatter_add_us, added) =
            time_us(light, || aggregator.add_update_with_plan(state, &plan, 1.0));
        added.map_err(|e| text(&e))?;
        let (finalize_us, finalized) = time_us(light, || aggregator.finalize(&global_state));
        finalized.map_err(|e| text(&e))?;
        specific.extend([
            ("fl.submodel.extract_us", "us", extract_us),
            ("fl.submodel.scatter_add_us", "us", scatter_add_us),
            ("fl.submodel.finalize_us", "us", finalize_us),
        ]);
    }

    // data / device.
    let train = *ctx.train_config();
    let (client_shard_us, shard) = time_us(light, || ctx.client_shard(client).into_owned());
    let mut rng = SeededRng::new(ctx.seed());
    let (batches_us, batches) = time_us(light, || shard.batches(train.batch_size, &mut rng));
    let chunk: Vec<usize> = (0..ctx.test_set().len().min(128)).collect();
    let (eval_chunk_copy_us, eval_batch) =
        time_us(light, || ctx.test_set().subset(&chunk).as_batch());
    let (assignment_us, _) = time_us(light, || ctx.assignment(client));
    out.extend([
        ("data.client_shard_us", client_shard_us),
        ("data.batches_us", batches_us),
        ("data.eval_chunk_copy_us", eval_chunk_copy_us),
        ("device.assignment_us", assignment_us),
    ]);

    // models / nn: one train step taken apart, on the client's own model.
    let config = client_proxy_config(ctx, client, w.method);
    let state = ProxyModel::new(config).map_err(|e| text(&e))?.state_dict();
    let (build_us, model) = time_us(heavy, || {
        ProxyModel::zeroed(config).and_then(|mut model| {
            model.load_state_dict(&state)?;
            Ok(model)
        })
    });
    let mut model = model.map_err(|e| text(&e))?;
    let batch = batches.first().ok_or("probe client has an empty shard")?;
    let (forward_train_us, forward) =
        time_us(heavy, || model.forward_detailed(&batch.inputs, true));
    let logits = forward.map_err(|e| text(&e))?.logits;
    let (loss_us, loss) = time_us(light, || cross_entropy(&logits, &batch.labels));
    let (_, grad) = loss.map_err(|e| text(&e))?;
    // Backward consumes the activations forward cached: pair them, time
    // only the backward half.
    let mut backward_samples = Vec::with_capacity(heavy);
    for _ in 0..heavy {
        model.zero_grad();
        model
            .forward_detailed(&batch.inputs, true)
            .map_err(|e| text(&e))?;
        let started = Instant::now();
        model
            .backward_detailed(&grad, None, &[])
            .map_err(|e| text(&e))?;
        backward_samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let backward_us = median(&backward_samples);
    let mut optimiser = Sgd::new(train.sgd);
    let (sgd_step_us, stepped) = time_us(heavy, || optimiser.step(&mut model));
    stepped.map_err(|e| text(&e))?;
    let (forward_eval_us, evaluated) =
        time_us(heavy, || model.forward_detailed(&eval_batch.inputs, false));
    evaluated.map_err(|e| text(&e))?;
    out.extend([
        ("models.build_us", build_us),
        ("models.forward_train_us", forward_train_us),
        ("models.backward_us", backward_us),
        ("models.forward_eval_us", forward_eval_us),
        ("nn.loss_us", loss_us),
        ("nn.sgd_step_us", sgd_step_us),
    ]);

    // tensor: the three matmul kernels at the probe model's own width.
    let dim = model.dim();
    let a = Tensor::randn(&[train.batch_size, dim], 1.0, &mut rng);
    let b = Tensor::randn(&[dim, dim], 0.1, &mut rng);
    let c = Tensor::randn(&[train.batch_size, dim], 0.5, &mut rng);
    let (matmul_us, product) = time_us(light, || a.matmul(&b));
    product.map_err(|e| text(&e))?;
    let (matmul_nt_us, product) = time_us(light, || a.matmul_nt(&b));
    product.map_err(|e| text(&e))?;
    let (matmul_tn_us, product) = time_us(light, || a.matmul_tn(&c));
    product.map_err(|e| text(&e))?;
    out.extend([
        ("tensor.matmul_us", matmul_us),
        ("tensor.matmul_nt_us", matmul_nt_us),
        ("tensor.matmul_tn_us", matmul_tn_us),
    ]);

    // Cross-check: what plain local SGD on this client should cost if the
    // probes above were the whole story. Methods that do more per update
    // (DepthFL's self-distillation, Fed-ET's public-set passes) fall short.
    let steps = train.local_steps as f64;
    let batch_calls = train.local_steps.div_ceil(batches.len().max(1)) as f64;
    let accounted = client_shard_us
        + build_us
        + extract_us
        + batch_calls * batches_us
        + steps * (forward_train_us + loss_us + backward_us + sgd_step_us);
    out.push((
        "algorithms.client_update.accounted_share",
        accounted / client_update_us.max(f64::MIN_POSITIVE),
    ));
    Ok((out, specific))
}
