//! Fused ConvNet ≡ unfused reference graph under both SIMD numerics
//! modes.
//!
//! The fusion contract (fused == unfused, bit for bit) must hold
//! whatever numerics mode the GEMM dispatches to: with `DECO_SIMD`
//! forced off, both graphs run the scalar microkernel; forced on, both
//! run the detected SIMD kernel — either way the pair must agree.
//!
//! This lives in its own integration-test binary because it flips the
//! process-global SIMD override (see
//! [`deco_tensor::testhook::set_simd_override`]).

use deco_condense::model_gradient;
use deco_conformance::unfused;
use deco_nn::{ConvNet, ConvNetConfig};
use deco_tensor::testhook::set_simd_override;
use deco_tensor::{ops::simd, Reduction, Rng, Tensor, Var};

#[test]
fn model_gradient_matches_unfused_graph_under_both_simd_modes() {
    let mut rng = Rng::new(77);
    let config = ConvNetConfig {
        in_channels: 3,
        image_side: 16,
        width: 8,
        depth: 2,
        num_classes: 4,
        norm: true,
    };
    // Shifted off the init values so conv biases and the norm affine
    // are all live.
    let params: Vec<Tensor> = ConvNet::new(config, &mut rng)
        .get_params()
        .iter()
        .map(|t| t + &(&Tensor::randn(t.shape().clone(), &mut rng) * 0.1))
        .collect();
    let images = Tensor::randn([6, 3, 16, 16], &mut rng);
    let labels = vec![0, 1, 2, 3, 0, 1];
    let weights = [1.0f32, 0.5, 2.0, 0.25, 1.5, 1.0];

    let mut modes = vec![Some(false)];
    if simd::detected_simd().is_some() {
        modes.push(Some(true));
    } else {
        eprintln!("[fusion_simd] host has no SIMD kernel; scalar mode only");
    }
    for simd_mode in modes {
        set_simd_override(simd_mode);
        let net = ConvNet::from_params(config, &params);
        let fused = model_gradient(&net, &images, &labels, Some(&weights), None);
        let leaves: Vec<Var> = params.iter().map(|t| Var::leaf(t.clone(), true)).collect();
        unfused::convnet_logits(config, &leaves, &Var::constant(images.clone()))
            .log_softmax()
            .nll(&labels, Some(&weights), Reduction::Sum)
            .backward();
        set_simd_override(None);
        for (p, (a, leaf)) in fused.tensors().iter().zip(&leaves).enumerate() {
            let b = leaf.grad().expect("param grad");
            assert_eq!(a.shape(), b.shape());
            for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "param {p} grad [{i}] drifted (simd={simd_mode:?})"
                );
            }
        }
    }
}
