//! Whole condense steps held to the unfused reference graph and to
//! thread-count invariance.
//!
//! The fused kernels (`group_norm_relu`, `relu_avg_pool2d`, the fused
//! softmax cross-entropy and the conv bias epilogue) replicate the
//! exact per-element f32 operation and accumulation order of the
//! unfused graph. A model gradient or a DM feature gradient through the
//! fused ConvNet must therefore equal the same gradient through the
//! explicit unfused graph below, built from the same parameters, bit
//! for bit; and a full `one_step_match` — five forward/backward passes
//! through every fused op — must be bitwise identical at any thread
//! count. The per-kernel version of this contract lives in the
//! conformance fuzzer; these tests hold end-to-end matcher work to it.

use deco_condense::{gradient_distance, model_gradient, one_step_match, MatchBatch};
use deco_nn::{cosine_distance, ConvNet, ConvNetConfig, GradList};
use deco_tensor::{Conv2dSpec, Reduction, Rng, Tensor, Var};

fn batch_data(rng: &mut Rng) -> (Tensor, Vec<usize>, Tensor, Vec<usize>) {
    let syn = Tensor::randn([3, 1, 8, 8], rng);
    let syn_labels = vec![0, 1, 0];
    let real = Tensor::randn([6, 1, 8, 8], rng);
    let real_labels = vec![0, 1, 0, 1, 0, 1];
    (syn, syn_labels, real, real_labels)
}

fn config() -> ConvNetConfig {
    ConvNetConfig {
        in_channels: 1,
        image_side: 8,
        width: 4,
        depth: 2,
        num_classes: 2,
        norm: true,
    }
}

/// Parameters of a fresh net, shifted off their init values so the
/// conv biases and the norm affine are all live.
fn live_params(rng: &mut Rng) -> Vec<Tensor> {
    ConvNet::new(config(), rng)
        .get_params()
        .iter()
        .map(|t| t + &(&Tensor::randn(t.shape().clone(), rng) * 0.1))
        .collect()
}

/// The ConvNet's penultimate features as the unfused tape-op chain:
/// per block conv (with bias) → instance norm → affine → relu →
/// avg-pool, from `params` in [`ConvNet::params`] order.
fn reference_features(params: &[Var], x: &Var) -> Var {
    let n = x.shape().dim(0);
    let mut h = x.clone();
    for block in params[..4 * config().depth].chunks(4) {
        h = h.conv2d(&block[0], Some(&block[1]), Conv2dSpec::new(3, 1, 1));
        let (c, side) = (h.shape().dim(1), h.shape().dim(2));
        let grouped = h.reshape([n, c, side * side]);
        let mean = grouped.mean_axes_keepdim(&[2]);
        let centered = grouped.sub(&mean);
        let var = centered.square().mean_axes_keepdim(&[2]);
        let std = var.add_scalar(1e-5).sqrt();
        let normed = centered.div(&std).reshape([n, c, side, side]);
        h = normed.mul(&block[2]).add(&block[3]).relu().avg_pool2d(2);
    }
    h.reshape([n, config().feature_dim()])
}

/// [`model_gradient`] through the unfused reference graph.
fn reference_model_gradient(
    params: &[Tensor],
    images: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
) -> GradList {
    let leaves: Vec<Var> = params.iter().map(|t| Var::leaf(t.clone(), true)).collect();
    let feats = reference_features(&leaves, &Var::constant(images.clone()));
    let head = &leaves[4 * config().depth..];
    let logits = feats.matmul(&head[0]).add(&head[1]);
    logits
        .log_softmax()
        .nll(labels, weights, Reduction::Sum)
        .backward();
    GradList(
        leaves
            .iter()
            .map(|v| v.grad().expect("param grad"))
            .collect(),
    )
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} [{i}]: {x} vs {y}");
    }
}

/// `one_step_match` at 1 and 4 threads: distance and image gradient
/// bitwise identical.
#[test]
fn one_step_match_bitwise_across_thread_counts() {
    let mut rng = Rng::new(31);
    let params = live_params(&mut rng);
    let (syn, sl, real, rl) = batch_data(&mut rng);
    let batch = MatchBatch {
        syn_images: &syn,
        syn_labels: &sl,
        real_images: &real,
        real_labels: &rl,
        real_weights: None,
    };
    // The step perturbs and restores θ in floating point, which is not
    // bit-exact — so each run gets a fresh net from the same snapshot.
    let run = |threads: usize| {
        deco_runtime::with_thread_count(threads, || {
            one_step_match(&ConvNet::from_params(config(), &params), &batch, None, 0.01)
        })
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.distance.to_bits(), four.distance.to_bits());
    assert_bits_eq(&one.image_grad, &four.image_grad, "image grad");
}

/// Model gradients (weighted and not) and the matching distance `D`
/// through the fused ConvNet equal the unfused reference graph's,
/// bitwise.
#[test]
fn model_gradient_and_distance_match_the_unfused_reference() {
    let mut rng = Rng::new(32);
    let params = live_params(&mut rng);
    let net = ConvNet::from_params(config(), &params);
    let (syn, sl, real, rl) = batch_data(&mut rng);
    let weights = [0.5f32, 1.0, 0.25, 2.0, 1.0, 0.75];
    let g_real = model_gradient(&net, &real, &rl, Some(&weights), None);
    let g_syn = model_gradient(&net, &syn, &sl, None, None);
    let r_real = reference_model_gradient(&params, &real, &rl, Some(&weights));
    let r_syn = reference_model_gradient(&params, &syn, &sl, None);
    for (i, (a, b)) in g_real.tensors().iter().zip(r_real.tensors()).enumerate() {
        assert_bits_eq(a, b, &format!("real grad of param {i}"));
    }
    for (i, (a, b)) in g_syn.tensors().iter().zip(r_syn.tensors()).enumerate() {
        assert_bits_eq(a, b, &format!("syn grad of param {i}"));
    }
    let batch = MatchBatch {
        syn_images: &syn,
        syn_labels: &sl,
        real_images: &real,
        real_labels: &rl,
        real_weights: Some(&weights),
    };
    let d = gradient_distance(&net, &batch, None);
    assert_eq!(d.to_bits(), cosine_distance(&r_syn, &r_real).to_bits());
}

/// A DM-style feature-matching gradient (the `ConvNet::features`
/// encoder path, which routes through the fused block tail) at 1 and 4
/// threads equals the unfused reference graph's, bitwise on the
/// synthetic-image gradient.
#[test]
fn dm_feature_gradient_matches_the_unfused_reference() {
    let mut rng = Rng::new(33);
    let params = live_params(&mut rng);
    let real = Tensor::randn([5, 1, 8, 8], &mut rng);
    let syn = Tensor::randn([2, 1, 8, 8], &mut rng);
    let feature_grad = |features: &dyn Fn(&Var) -> Var| {
        let real_feats = features(&Var::constant(real.clone()));
        let real_mean = Var::constant(real_feats.value().mean_axes(&[0], true));
        let syn_leaf = Var::leaf(syn.clone(), true);
        let syn_mean = features(&syn_leaf).mean_axes_keepdim(&[0]);
        syn_mean.sub(&real_mean).square().sum().backward();
        syn_leaf.grad().expect("image gradient")
    };
    let reference = {
        let leaves: Vec<Var> = params.iter().map(|t| Var::constant(t.clone())).collect();
        feature_grad(&|x| reference_features(&leaves, x))
    };
    for threads in [1, 4] {
        let fused = deco_runtime::with_thread_count(threads, || {
            deco_tensor::with_tape_arena(|| {
                let net = ConvNet::from_params(config(), &params);
                feature_grad(&|x| net.features(x, true))
            })
        });
        assert_bits_eq(
            &fused,
            &reference,
            &format!("feature grad at {threads} threads"),
        );
    }
}
