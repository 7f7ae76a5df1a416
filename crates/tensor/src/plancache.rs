//! The retired forward-plan cache. A convolution input now keeps its
//! im2col columns with its own buffer (see [`crate::ops::conv`]), GEMM
//! operands are packed per call and broadcasts walk strides directly,
//! so nothing is cached per thread.

/// Whether a forward-plan cache is active: never. Kept as a constant
/// for callers that record it in a host fingerprint.
pub const fn enabled() -> bool {
    false
}
