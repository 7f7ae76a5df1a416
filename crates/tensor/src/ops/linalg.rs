//! Matrix operations: matmul and 2-D transpose.

use std::sync::Arc;

use super::gemm::{self, MatRef, PackedB, MC};
use crate::pool;
use crate::tensor::Tensor;

/// Minimum `2·m·k·n` flop count before a matmul fans out to the pool.
const PAR_MIN_FLOPS: usize = 1 << 18;
/// Target flops per parallel chunk. Chunk boundaries are a function of
/// the operand shapes only — never the thread count — so the output is
/// bitwise identical at any `DECO_THREADS`.
const PAR_CHUNK_FLOPS: usize = 1 << 17;

/// Rows per parallel chunk: the flop target rounded up to a whole
/// number of `MC` row-panels, so every chunk hands the packed kernel
/// full cache blocks. Depends only on the shapes.
fn rows_per_chunk(m: usize, k: usize, n: usize) -> usize {
    let rows = (PAR_CHUNK_FLOPS / (2 * k * n).max(1)).clamp(1, m);
    (rows.div_ceil(MC) * MC).min(m)
}

/// Wraps a finished `m × n` product, applying the one-ULP test hook.
fn finish_matmul(mut out: Vec<f32>, m: usize, n: usize) -> Tensor {
    if crate::testhook::matmul_ulp_perturbation() {
        if let Some(first) = out.first_mut() {
            *first = crate::testhook::one_ulp_up(*first);
        }
    }
    Tensor::from_pool_buf(out, [m, n])
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Lowered onto the cache-blocked, panel-packed GEMM core in
    /// [`crate::ops::gemm`] (tiny products fall back to a naive ikj
    /// loop — the choice is a pure function of the shapes). Large
    /// products pack `B` once and fan row-panel ranges out across the
    /// `deco-runtime` pool; every output element is accumulated in a
    /// shape-derived order either way, so the result is bitwise
    /// identical to serial execution at any thread count. Output and
    /// packing buffers come from the thread-local [`crate::pool`].
    ///
    /// # Panics
    /// Panics unless both tensors are rank 2 with matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "matmul lhs must be rank 2, got {}",
            self.shape()
        );
        assert_eq!(
            other.rank(),
            2,
            "matmul rhs must be rank 2, got {}",
            other.shape()
        );
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(
            k,
            k2,
            "matmul inner dims: {} vs {}",
            self.shape(),
            other.shape()
        );
        deco_telemetry::counter!("tensor.ops.matmul");
        deco_telemetry::counter!("tensor.ops.matmul_flops", (2 * m * k * n) as u64);
        let mut out = pool::take(m * n);
        if gemm::use_packed(m, k, n) {
            let _span = deco_telemetry::span!("tensor.gemm");
            let bp = PackedB::pack(&MatRef::new(other.data(), k, n));
            self.matmul_packed_into(&mut out, bp, n);
        } else {
            gemm::gemm_into(
                &mut out,
                &MatRef::new(self.data(), m, k),
                &MatRef::new(other.data(), k, n),
            );
        }
        finish_matmul(out, m, n)
    }

    /// Matrix product against a *stored* right operand:
    /// `[m, k] × stored [k, n] → [m, n]`.
    ///
    /// Bitwise identical to `self.matmul(&other.decode())` — the stored
    /// payload is widened to the same f32 values and fed through the
    /// same kernels in the same order — but sub-f32 operands widen at
    /// *pack time*: the f32 values exist only in pooled scratch while
    /// the GEMM panels are packed, so a synthetic set held in
    /// bf16/f16/i8 never needs a persistent f32 copy. The `F32` variant
    /// delegates to [`Tensor::matmul`] directly (zero-copy).
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching inner
    /// dimension.
    pub fn matmul_stored(&self, other: &crate::dtype::StoredTensor) -> Tensor {
        if let Some(t) = other.as_f32() {
            return self.matmul(t);
        }
        assert_eq!(
            self.rank(),
            2,
            "matmul_stored lhs must be rank 2, got {}",
            self.shape()
        );
        assert_eq!(
            other.dims().len(),
            2,
            "matmul_stored rhs must be rank 2, got {:?}",
            other.dims()
        );
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_stored inner dims: {k} vs {k2}");
        if !gemm::use_packed(m, k, n) {
            // Tiny product: the naive kernel reads a flat f32 slice, so
            // widen and delegate (identical result, no pack).
            return self.matmul(&other.decode());
        }
        deco_telemetry::counter!("tensor.ops.matmul");
        deco_telemetry::counter!("tensor.ops.matmul_flops", (2 * m * k * n) as u64);
        let _span = deco_telemetry::span!("tensor.gemm");
        // Scratch: widen_into writes every element.
        let mut wide = pool::take_scratch(k * n);
        other.widen_into(&mut wide);
        let bp = PackedB::pack(&MatRef::new(&wide, k, n));
        pool::give(wide);
        let mut out = pool::take(m * n);
        self.matmul_packed_into(&mut out, bp, n);
        finish_matmul(out, m, n)
    }

    /// `out += self × B` for a packed `k × n` operand `bp`, which is
    /// recycled afterwards. Large products fan row-panel ranges out
    /// across the `deco-runtime` pool; every output element accumulates
    /// in the same shape-derived order serial or parallel, so the result
    /// is bitwise identical at any thread count.
    fn matmul_packed_into(&self, out: &mut [f32], bp: PackedB, n: usize) {
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        if deco_runtime::threads() > 1 && 2 * m * k * n >= PAR_MIN_FLOPS {
            let a = self.clone();
            let bp = Arc::new(bp);
            let bp_worker = Arc::clone(&bp);
            let chunks =
                deco_runtime::parallel_for_chunks(m, rows_per_chunk(m, k, n), move |rows| {
                    let av = MatRef::new(a.data(), m, k);
                    let mut buf = pool::take(rows.len() * n);
                    gemm::gemm_rows_packed(&mut buf, &av, &bp_worker, rows);
                    buf
                });
            let mut cursor = 0usize;
            for chunk in chunks {
                out[cursor..cursor + chunk.len()].copy_from_slice(&chunk);
                cursor += chunk.len();
                pool::give(chunk);
            }
            if let Ok(bp) = Arc::try_unwrap(bp) {
                bp.recycle();
            }
        } else {
            // A full-range row split is the unsplit run.
            gemm::gemm_rows_packed(out, &MatRef::new(self.data(), m, k), &bp, 0..m);
            bp.recycle();
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless the tensor is rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "transpose2 needs rank 2, got {}",
            self.shape()
        );
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let src = self.data();
        let mut out = pool::take(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = src[i * n + j];
            }
        }
        Tensor::from_pool_buf(out, [n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let t = a.transpose2();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), 6.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn parallel_matmul_matches_serial_bitwise() {
        // 2·64·64·64 flops crosses PAR_MIN_FLOPS, so 4 threads take the
        // pool path while 1 thread takes the exact serial path.
        let mut rng = crate::Rng::new(7);
        let a = Tensor::randn([64, 64], &mut rng);
        let b = Tensor::randn([64, 64], &mut rng);
        let serial = deco_runtime::with_thread_count(1, || a.matmul(&b));
        let parallel = deco_runtime::with_thread_count(4, || a.matmul(&b));
        assert_eq!(serial.data(), parallel.data());
        assert_eq!(serial.shape(), parallel.shape());
    }

    #[test]
    fn matmul_stored_matches_decode_bitwise_per_dtype() {
        use crate::dtype::{StorageDtype, StoredTensor};
        let mut rng = crate::Rng::new(11);
        // Large enough for the packed path at >1 thread; also check a
        // tiny (naive-path) product.
        for (m, k, n) in [(64usize, 64usize, 64usize), (3, 4, 2)] {
            let a = Tensor::randn([m, k], &mut rng);
            let b = Tensor::randn([k, n], &mut rng);
            for dtype in StorageDtype::ALL {
                let stored = StoredTensor::encode(&b, dtype);
                let via_decode = a.matmul(&stored.decode());
                let direct = a.matmul_stored(&stored);
                assert_eq!(direct.data(), via_decode.data(), "{dtype} {m}x{k}x{n}");
                let parallel = deco_runtime::with_thread_count(4, || a.matmul_stored(&stored));
                assert_eq!(direct.data(), parallel.data(), "{dtype} thread-invariance");
            }
        }
    }

    #[test]
    fn matmul_matches_transpose_identity() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.5).collect(), [3, 4]);
        let lhs = a.matmul(&b).transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2());
        assert_eq!(lhs, rhs);
    }
}
