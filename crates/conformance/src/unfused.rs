//! The unfused tape-op compositions that the fused ConvNet ops replace,
//! kept as explicit reference graphs.
//!
//! Production code runs only the fused ops (`Var::group_norm_relu`,
//! `Var::relu_avg_pool2d`, `Var::log_softmax_cross_entropy` and the
//! conv bias epilogue). Each replicates the per-element f32 operation
//! and accumulation order of the chain below it replaces, so the fuzzer,
//! the gradient audit and the SIMD-mode test hold the fused ops to these
//! graphs bit for bit.

use deco_nn::ConvNetConfig;
use deco_tensor::{Conv2dSpec, Var};

/// Group normalization over `groups` channel groups with `[1, c, 1, 1]`
/// affine parameters, then relu: the chain `Var::group_norm_relu`
/// replaces.
pub fn group_norm_relu(x: &Var, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
    let (n, c) = (x.shape().dim(0), x.shape().dim(1));
    let (h, w) = (x.shape().dim(2), x.shape().dim(3));
    let grouped = x.reshape([n, groups, (c / groups) * h * w]);
    let mean = grouped.mean_axes_keepdim(&[2]);
    let centered = grouped.sub(&mean);
    let var = centered.square().mean_axes_keepdim(&[2]);
    let std = var.add_scalar(eps).sqrt();
    let normed = centered.div(&std).reshape([n, c, h, w]);
    normed.mul(gamma).add(beta).relu()
}

/// `deco_nn::ConvNet::forward` as the unfused graph: per block a 3×3
/// conv with bias, instance norm + affine + relu (or a bare relu
/// without norm) and 2×2 average pooling, then the linear head.
/// `params` are in `ConvNet::params` order.
///
/// # Panics
/// Panics if `params` does not match `config`.
pub fn convnet_logits(config: ConvNetConfig, params: &[Var], x: &Var) -> Var {
    let per_block = if config.norm { 4 } else { 2 };
    assert_eq!(params.len(), per_block * config.depth + 2, "param count");
    let n = x.shape().dim(0);
    let mut h = x.clone();
    for block in params[..per_block * config.depth].chunks(per_block) {
        h = h.conv2d(&block[0], Some(&block[1]), Conv2dSpec::new(3, 1, 1));
        h = if config.norm {
            group_norm_relu(&h, &block[2], &block[3], config.width, 1e-5)
        } else {
            h.relu()
        };
        h = h.avg_pool2d(2);
    }
    let head = &params[per_block * config.depth..];
    h.reshape([n, config.feature_dim()])
        .matmul(&head[0])
        .add(&head[1])
}
