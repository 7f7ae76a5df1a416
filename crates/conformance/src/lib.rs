//! # deco-conformance
//!
//! Conformance harness for the DECO reproduction: proves the optimized
//! `f32` kernels, the autograd graph, and the end-to-end pipelines still
//! compute what they claim to compute.
//!
//! Three layers, from micro to macro (see `docs/testing.md`):
//!
//! 1. [`reference`] + [`fuzz`] — naive, obviously-correct `f64`
//!    implementations of every performance-sensitive kernel, plus a seeded
//!    differential fuzzer that cross-checks them against the optimized
//!    `deco-tensor`/`deco-nn` paths over randomized (including degenerate)
//!    shapes at `DECO_THREADS ∈ {1, 4}`. The fused ConvNet ops are also
//!    held bit for bit to the [`unfused`] reference graphs they replace.
//! 2. [`audit`] — a full-graph gradient audit: every public op in
//!    `crates/tensor/src/ops/` and every layer in `crates/nn/src/layers.rs`
//!    is finite-difference-checked, adjoint-checked, or explicitly exempted
//!    with a reason, and the coverage list is asserted against the parsed
//!    public surface of those modules so new ops cannot ship unchecked.
//!    The audit also verifies the paper's Eq. 7 finite-difference HVP
//!    against an exact baseline built from two gradient evaluations.
//! 3. [`golden`] — checked-in golden traces (loss curves, condensed-image
//!    checksums) for one condense→train→eval micro-pipeline per method, so
//!    any numeric drift turns CI red; `--bless` regenerates them.
//!
//! The `conformance` binary drives all three layers and writes a JSON
//! deviation report for CI artifacts.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod audit;
pub mod fuzz;
pub mod golden;
pub mod reference;
pub mod unfused;
