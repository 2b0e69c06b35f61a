//! Every layer's backward state: a gradient that does not match the
//! forward's output is a typed error, refused before any parameter gradient
//! moves, and an evaluation forward keeps nothing a backward could use.
//! Every layer's name-free mutable walk also follows its named walk.

use mhfl_nn::{
    ChannelNorm2d, Conv2d, Embedding, Flatten, Gelu, GlobalAvgPool2d, Layer, LayerNorm, Linear,
    MeanPool1d, NnError, Relu, SelfAttention, Sequential, Tanh,
};
use mhfl_tensor::{SeededRng, Tensor};

/// Every layer kind, each with an input of batch 2 its forward accepts.
fn cases(rng: &mut SeededRng) -> Vec<(&'static str, Box<dyn Layer>, Tensor)> {
    let mut seq = Sequential::new();
    seq.push("fc", Linear::new(4, 3, rng));
    seq.push("act", Relu::new());
    let ids = Tensor::from_vec(vec![0.0, 3.0, 5.0, 1.0, 2.0, 4.0], &[2, 3]).unwrap();
    vec![
        (
            "Linear",
            Box::new(Linear::new(4, 3, rng)),
            Tensor::randn(&[2, 4], 1.0, rng),
        ),
        (
            "Linear (rank 3)",
            Box::new(Linear::new(4, 3, rng)),
            Tensor::randn(&[2, 5, 4], 1.0, rng),
        ),
        (
            "Conv2d",
            Box::new(Conv2d::new(2, 3, 3, 1, 1, rng).unwrap()),
            Tensor::randn(&[2, 2, 4, 4], 1.0, rng),
        ),
        (
            "LayerNorm",
            Box::new(LayerNorm::new(4)),
            Tensor::randn(&[2, 3, 4], 1.0, rng),
        ),
        (
            "ChannelNorm2d",
            Box::new(ChannelNorm2d::new(2)),
            Tensor::randn(&[2, 2, 3, 3], 1.0, rng),
        ),
        (
            "ChannelNorm2d (1x1 pass-through)",
            Box::new(ChannelNorm2d::new(2)),
            Tensor::randn(&[2, 2, 1, 1], 1.0, rng),
        ),
        (
            "Relu",
            Box::new(Relu::new()),
            Tensor::randn(&[2, 3], 1.0, rng),
        ),
        (
            "Gelu",
            Box::new(Gelu::new()),
            Tensor::randn(&[2, 3], 1.0, rng),
        ),
        (
            "Tanh",
            Box::new(Tanh::new()),
            Tensor::randn(&[2, 3], 1.0, rng),
        ),
        (
            "Embedding",
            Box::new(Embedding::new(6, 4, rng).unwrap()),
            ids,
        ),
        (
            "SelfAttention",
            Box::new(SelfAttention::new(4, rng).unwrap()),
            Tensor::randn(&[2, 3, 4], 1.0, rng),
        ),
        (
            "GlobalAvgPool2d",
            Box::new(GlobalAvgPool2d::new()),
            Tensor::randn(&[2, 3, 2, 2], 1.0, rng),
        ),
        (
            "Flatten",
            Box::new(Flatten::new()),
            Tensor::randn(&[2, 3, 4], 1.0, rng),
        ),
        (
            "MeanPool1d",
            Box::new(MeanPool1d::new()),
            Tensor::randn(&[2, 3, 4], 1.0, rng),
        ),
        (
            "Sequential",
            Box::new(seq),
            Tensor::randn(&[2, 4], 1.0, rng),
        ),
    ]
}

fn grad_bits(layer: &dyn Layer) -> Vec<u32> {
    let mut bits = Vec::new();
    layer.visit_params("", &mut |_, p| {
        bits.extend(p.grad.as_slice().iter().map(|v| v.to_bits()))
    });
    bits
}

#[test]
fn malformed_gradient_is_bad_input_in_every_layer() {
    let mut rng = SeededRng::new(0);
    for (name, mut layer, x) in cases(&mut rng) {
        let no_forward = layer.backward(&Tensor::zeros(x.dims()));
        assert!(
            matches!(no_forward, Err(NnError::MissingForwardCache(_))),
            "{name}: backward before forward gave {no_forward:?}"
        );

        // Non-zero parameter gradients, so an accumulation would show.
        layer.visit_params_mut(&mut |p| p.grad = Tensor::randn(p.grad.dims(), 1.0, &mut rng));
        let before = grad_bits(layer.as_ref());
        let y = layer.forward(&x, true).unwrap();
        for batch in [y.dims()[0] - 1, y.dims()[0] + 1] {
            let mut dims = y.dims().to_vec();
            dims[0] = batch;
            let result = layer.backward(&Tensor::randn(&dims, 1.0, &mut rng));
            assert!(
                matches!(result, Err(NnError::BadInput { .. })),
                "{name}: gradient {dims:?} for output {:?} gave {result:?}",
                y.dims()
            );
            assert_eq!(grad_bits(layer.as_ref()), before, "{name}: {dims:?}");
        }
        let dx = layer
            .backward(&Tensor::randn(y.dims(), 1.0, &mut rng))
            .unwrap();
        assert_eq!(dx.dims(), x.dims(), "{name}");
    }
}

/// Runs a params-only backward (`Conv2d::backward_params`,
/// `Linear::backward_params`) through the same refusals as
/// [`malformed_gradient_is_bad_input_in_every_layer`]'s backward, and checks
/// that an evaluation forward leaves it nothing to run on.
fn assert_params_only_backward_refuses<L: Layer>(
    layer: &mut L,
    x: &Tensor,
    backward_params: impl Fn(&mut L, &Tensor) -> Result<(), NnError>,
    rng: &mut SeededRng,
) {
    // The cache is looked for before the gradient's shape is checked.
    let no_forward = backward_params(layer, &Tensor::zeros(x.dims()));
    assert!(
        matches!(no_forward, Err(NnError::MissingForwardCache(_))),
        "backward_params before forward gave {no_forward:?}"
    );
    let y = layer.forward(x, true).unwrap();
    layer.forward(x, false).unwrap();
    let after_eval = backward_params(layer, &Tensor::zeros(y.dims()));
    assert!(
        matches!(after_eval, Err(NnError::MissingForwardCache(_))),
        "backward_params after an evaluation forward gave {after_eval:?}"
    );

    layer.visit_params_mut(&mut |p| p.grad = Tensor::randn(p.grad.dims(), 1.0, rng));
    let before = grad_bits(layer);
    let y = layer.forward(x, true).unwrap();
    for batch in [y.dims()[0] - 1, y.dims()[0] + 1] {
        let mut dims = y.dims().to_vec();
        dims[0] = batch;
        let result = backward_params(layer, &Tensor::randn(&dims, 1.0, rng));
        assert!(
            matches!(result, Err(NnError::BadInput { .. })),
            "gradient {dims:?} for output {:?} gave {result:?}",
            y.dims()
        );
        assert_eq!(grad_bits(layer), before, "{dims:?}");
    }
    backward_params(layer, &Tensor::randn(y.dims(), 1.0, rng)).unwrap();
    assert_ne!(grad_bits(layer), before);
}

#[test]
fn malformed_gradient_is_bad_input_in_conv2d_params_only_backward() {
    let mut rng = SeededRng::new(1);
    let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
    let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
    assert_params_only_backward_refuses(&mut conv, &x, Conv2d::backward_params, &mut rng);
}

#[test]
fn malformed_gradient_is_bad_input_in_linear_params_only_backward() {
    let mut rng = SeededRng::new(3);
    for dims in [&[2, 4][..], &[2, 5, 4]] {
        let mut linear = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(dims, 1.0, &mut rng);
        assert_params_only_backward_refuses(&mut linear, &x, Linear::backward_params, &mut rng);
    }
}

/// An evaluation forward returns the training forward's output bit for bit
/// and drops what the training forward kept, so a backward after it is
/// refused instead of running on stale activations.
#[test]
fn evaluation_forward_keeps_no_backward_state_in_every_layer() {
    let mut rng = SeededRng::new(2);
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (name, mut layer, x) in cases(&mut rng) {
        let trained = layer.forward(&x, true).unwrap();
        let evaluated = layer.forward(&x, false).unwrap();
        assert_eq!(evaluated.dims(), trained.dims(), "{name}");
        assert_eq!(bits(&evaluated), bits(&trained), "{name}");
        let after = layer.backward(&Tensor::ones(trained.dims()));
        assert!(
            matches!(after, Err(NnError::MissingForwardCache(_))),
            "{name}: backward after an evaluation forward gave {after:?}"
        );
    }
}

/// The name-free mutable walk visits the named walk's parameters in its
/// order, which `load_state_dict` relies on: the mutable walk stamps each
/// parameter with its position, and the named walk must read the positions
/// back as 0, 1, 2, … with the shapes it saw first.
#[test]
fn mutable_walk_visits_the_named_walk_in_order_in_every_layer() {
    let mut rng = SeededRng::new(4);
    for (name, mut layer, _) in cases(&mut rng) {
        let mut shapes = Vec::new();
        layer.visit_params("", &mut |_, p| shapes.push(p.value.dims().to_vec()));
        let mut stamped = Vec::new();
        layer.visit_params_mut(&mut |p| {
            p.value = Tensor::full(p.value.dims(), stamped.len() as f32);
            stamped.push(p.value.dims().to_vec());
        });
        assert_eq!(stamped, shapes, "{name}: count and shapes");
        let mut position = 0;
        layer.visit_params("", &mut |param, p| {
            let stamp = position as f32;
            assert!(
                p.value.as_slice().iter().all(|&v| v == stamp),
                "{name}: {param} at {position}"
            );
            position += 1;
        });
    }
}
