//! The dense `f32` tensor type.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::ops::conv::{Cols, ColsKey};
use crate::rng::Rng;
use crate::shape::Shape;

/// A dense, row-major `f32` tensor.
///
/// Storage is shared (`Arc`), so `clone` is O(1); mutating accessors use
/// copy-on-write semantics. All numeric code in the reproduction — network
/// weights, images, gradients — is built on this type.
///
/// ```
/// use deco_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.shape().dims(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// ```
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Storage>,
    shape: Shape,
}

/// A tensor's backing buffer plus the im2col columns it was lowered to
/// as a convolution input.
///
/// The slot is filled by the first im2col lowering of the buffer (see
/// [`Tensor::kept_columns`]), so the backward pass's weight gradient
/// and every later convolution of the same bytes — the θ± passes of a
/// matching step, the constant batch a classifier trains on — reuse the
/// forward's columns. [`Tensor::data_mut`] empties the slot, a
/// copy-on-write clone starts empty, and the columns go back to the
/// pool when the buffer does: they never outlive the bytes they were
/// derived from.
pub(crate) struct Storage {
    buf: Vec<f32>,
    cols: OnceLock<(ColsKey, Arc<Cols>)>,
}

impl Storage {
    fn fresh(buf: Vec<f32>) -> Self {
        Storage {
            buf,
            cols: OnceLock::new(),
        }
    }
}

/// Copy-on-write duplication (via `Arc::make_mut`) copies the bytes only;
/// the copy is about to be written, so the original's columns stay behind.
impl Clone for Storage {
    fn clone(&self) -> Self {
        Storage::fresh(self.buf.clone())
    }
}

impl Deref for Storage {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

/// Counts a fresh heap buffer of `numel` elements against the telemetry
/// registry. No-op (one relaxed load) when telemetry is disabled.
#[inline]
fn track_buffer(numel: usize) {
    deco_telemetry::counter!("tensor.alloc.count");
    deco_telemetry::counter!(
        "tensor.alloc.bytes",
        (numel * std::mem::size_of::<f32>()) as u64
    );
}

/// Max parked `Arc<Storage>` shells per thread. Shells are tiny (an
/// empty `Vec` plus an empty column slot inside an `Arc` control
/// block), so the cap only bounds pathological churn.
const STORAGE_FREELIST_CAP: usize = 256;

thread_local! {
    /// Empty `Arc<Storage>` shells parked by [`Tensor`]'s `Drop` for
    /// reuse by [`alloc_storage`]. Together with the buffer pool this
    /// makes steady-state kernel outputs fully allocation-free: the
    /// f32 buffer comes from [`crate::pool`] and the `Arc` control
    /// block from here.
    static STORAGE_FREELIST: RefCell<Vec<Arc<Storage>>> = const { RefCell::new(Vec::new()) };
}

/// Wraps `buf` in storage, reusing a parked `Arc` shell when one is
/// available instead of allocating a control block.
fn alloc_storage(buf: Vec<f32>) -> Arc<Storage> {
    let recycled = STORAGE_FREELIST
        .try_with(|fl| fl.borrow_mut().pop())
        .ok()
        .flatten();
    match recycled {
        Some(mut arc) => {
            // Parked shells are uniquely owned by construction (Drop
            // only parks after proving unique ownership).
            let s = Arc::get_mut(&mut arc).expect("parked storage shell must be unique");
            debug_assert!(s.cols.get().is_none(), "parked shells hold no columns");
            s.buf = buf;
            arc
        }
        None => Arc::new(Storage::fresh(buf)),
    }
}

/// Shared empty storage swapped into a tensor being dropped so its real
/// buffer can be extracted without allocating a replacement.
fn hollow_storage() -> Arc<Storage> {
    static HOLLOW: OnceLock<Arc<Storage>> = OnceLock::new();
    Arc::clone(HOLLOW.get_or_init(|| Arc::new(Storage::fresh(Vec::new()))))
}

/// Recycles pool-compatible buffers when the last owner drops: a
/// uniquely-owned backing buffer — and its kept im2col columns — are
/// offered back to the thread-local [`crate::pool`] (which accepts
/// exactly the power-of-two capacities it hands out), closing the
/// allocate/reuse loop for kernel outputs and gradients without any
/// manual recycle calls. Shared buffers and
/// exact-size vectors from ordinary constructors pass through to the
/// normal deallocation path.
impl Drop for Tensor {
    fn drop(&mut self) {
        if Arc::strong_count(&self.data) != 1 || self.data.buf.capacity() == 0 {
            return;
        }
        let mut data = std::mem::replace(&mut self.data, hollow_storage());
        if Arc::get_mut(&mut data)
            .map(|storage| {
                storage.cols.take();
                crate::pool::give(std::mem::take(&mut storage.buf))
            })
            .is_some()
        {
            // The buffer went back to the pool; park the now-empty Arc
            // shell so the next output tensor skips the control-block
            // allocation too.
            let _ = STORAGE_FREELIST.try_with(|fl| {
                let mut fl = fl.borrow_mut();
                if fl.len() < STORAGE_FREELIST_CAP {
                    fl.push(data);
                }
            });
        }
    }
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        track_buffer(data.len());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// Wraps a buffer obtained from [`crate::pool::take`] without
    /// counting a fresh allocation (the pool's own hit/miss counters
    /// already account for it).
    pub(crate) fn from_pool_buf(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        debug_assert_eq!(data.len(), shape.numel());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// A dormant placeholder tensor backed by the shared hollow storage.
    /// Used by the autograd node arena to vacate a recycled node's value
    /// slot without allocating; never observed by numeric code.
    pub(crate) fn hollow() -> Self {
        Tensor {
            data: hollow_storage(),
            shape: Shape::scalar(),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        let mut buf = crate::pool::take_scratch(1);
        buf[0] = value;
        Tensor {
            data: alloc_storage(buf),
            shape: Shape::scalar(),
        }
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: alloc_storage(crate::pool::take(shape.numel())),
            shape,
        }
    }

    /// All-one tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant tensor of the given shape.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut buf = crate::pool::take_scratch(shape.numel());
        buf.fill(value);
        Tensor {
            data: alloc_storage(buf),
            shape,
        }
    }

    /// Tensor of iid standard-normal samples.
    pub fn randn(shape: impl Into<Shape>, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        track_buffer(shape.numel());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// Tensor of iid uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
        track_buffer(shape.numel());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Bytes of the heap buffer backing this tensor. Clones share the
    /// buffer, so summing `heap_bytes` over clones double-counts; callers
    /// accounting memory should sum over owning collections only.
    pub fn heap_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Mutable access to the data (copy-on-write if shared).
    ///
    /// Drops the buffer's kept im2col columns, which were derived from
    /// the contents about to change.
    pub fn data_mut(&mut self) -> &mut [f32] {
        let storage = Arc::make_mut(&mut self.data);
        storage.cols.take();
        &mut storage.buf
    }

    /// The full-batch im2col columns of this buffer as a convolution
    /// input of geometry `key`. The first lowering of a buffer is kept
    /// with it and returned again for the same `key`; a lowering under
    /// any other key (a different spec, or a reshaped view with other
    /// `(c_in, h, w)`) runs `build` and is not kept.
    pub(crate) fn kept_columns(&self, key: ColsKey, build: impl FnOnce() -> Cols) -> Arc<Cols> {
        let mut build = Some(build);
        let (kept_key, cols) = self
            .data
            .cols
            .get_or_init(|| (key, Arc::new((build.take().expect("unbuilt"))())));
        match build {
            Some(build) if *kept_key != key => Arc::new(build()),
            _ => Arc::clone(cols),
        }
    }

    /// The element at the given coordinates.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[self.shape.ravel(coords)]
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} into {}",
            self.shape,
            shape
        );
        Tensor {
            data: Arc::clone(&self.data),
            shape,
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = crate::pool::take_scratch(self.data.len());
        for (slot, &x) in out.iter_mut().zip(self.data.iter()) {
            *slot = f(x);
        }
        Tensor {
            data: alloc_storage(out),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f(self_elem, other_elem)` with numpy-style broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            let mut data = crate::pool::take_scratch(self.data.len());
            for (slot, (&a, &b)) in data.iter_mut().zip(self.data.iter().zip(other.data.iter())) {
                *slot = f(a, b);
            }
            return Tensor {
                data: alloc_storage(data),
                shape: self.shape.clone(),
            };
        }
        let out_shape = self.shape.broadcast(&other.shape).unwrap_or_else(|| {
            panic!(
                "shapes {} and {} not broadcastable",
                self.shape, other.shape
            )
        });
        // Every output slot is written below, so unzeroed scratch is safe.
        let mut out = crate::pool::take_scratch(out_shape.numel());
        let mut slots = out.iter_mut();
        broadcast_walk(
            out_shape.dims(),
            [self.shape.dims(), other.shape.dims()],
            |[ia, ib]| {
                *slots.next().expect("one slot per output element") =
                    f(self.data[ia], other.data[ib]);
            },
        );
        Tensor {
            data: alloc_storage(out),
            shape: out_shape,
        }
    }

    /// In-place `self += alpha * other` (same shape required).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        let dst = self.data_mut();
        for (d, &s) in dst.iter_mut().zip(other.data.iter()) {
            *d += alpha * s;
        }
    }

    /// In-place elementwise scale.
    pub fn scale_mut(&mut self, alpha: f32) {
        for d in self.data_mut() {
            *d *= alpha;
        }
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(self.numel() > 0, "min of empty tensor");
        self.data.iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        (self
            .data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>())
        .sqrt() as f32
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Reduces this tensor (a broadcast result gradient) back to `target`,
    /// summing over broadcast axes. This is the adjoint of broadcasting and
    /// is used by autograd backward passes.
    ///
    /// # Panics
    /// Panics if `target` is not broadcast-compatible with `self.shape()`.
    pub fn sum_to(&self, target: &Shape) -> Tensor {
        if &self.shape == target {
            return self.clone();
        }
        assert!(
            target.broadcast(&self.shape) == Some(self.shape.clone()),
            "cannot reduce {} to {}",
            self.shape,
            target
        );
        let mut out = crate::pool::take(target.numel());
        // Source elements in row-major order, each added into the
        // target slot it was broadcast from.
        let mut values = self.data.iter();
        broadcast_walk(self.shape.dims(), [target.dims()], |[it]| {
            out[it] += values.next().expect("one value per source element");
        });
        Tensor {
            data: alloc_storage(out),
            shape: target.clone(),
        }
    }
}

/// Walks the broadcast output shape `out` in row-major order and calls
/// `visit` once per element with the flat index of that element in each
/// of the `srcs` shapes (aligned to the right, stride 0 on stretched
/// axes). Allocates nothing: one recursion level per output axis.
fn broadcast_walk<const N: usize>(
    out: &[usize],
    srcs: [&[usize]; N],
    mut visit: impl FnMut([usize; N]),
) {
    if out.is_empty() {
        visit([0; N]);
    } else if !out.contains(&0) {
        walk_axis(0, out, &srcs, [0; N], &mut visit);
    }
}

fn walk_axis<const N: usize>(
    axis: usize,
    out: &[usize],
    srcs: &[&[usize]; N],
    base: [usize; N],
    visit: &mut impl FnMut([usize; N]),
) {
    let strides = srcs.map(|src| source_stride(src, out.len(), axis));
    let innermost = axis + 1 == out.len();
    let mut idx = base;
    for _ in 0..out[axis] {
        if innermost {
            visit(idx);
        } else {
            walk_axis(axis + 1, out, srcs, idx, visit);
        }
        for (i, s) in idx.iter_mut().zip(strides) {
            *i += s;
        }
    }
}

/// Stride in a row-major `src` of output axis `axis` of a rank-`out_rank`
/// broadcast: 0 where `src` lacks the axis or stretches it from size 1.
fn source_stride(src: &[usize], out_rank: usize, axis: usize) -> usize {
    let offset = out_rank - src.len();
    if axis < offset || src[axis - offset] == 1 {
        0
    } else {
        src[axis - offset + 1..].iter().product()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).cloned().collect();
        let ellipsis = if self.numel() > 8 { ", …" } else { "" };
        write!(f, "Tensor({} {:?}{})", self.shape, preview, ellipsis)
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data.buf == other.data.buf
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

// ---- elementwise operators (broadcasting) ----

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $f:expr) => {
        impl std::ops::$trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_broadcast(rhs, $f)
            }
        }
        impl std::ops::$trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
        impl std::ops::$trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|x| $f(x, rhs))
            }
        }
        impl std::ops::$trait<f32> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|x| $f(x, rhs))
            }
        }
    };
}

impl_binop!(Add, add, |a: f32, b: f32| a + b);
impl_binop!(Sub, sub, |a: f32, b: f32| a - b);
impl_binop!(Mul, mul, |a: f32, b: f32| a * b);
impl_binop!(Div, div, |a: f32, b: f32| a / b);

impl std::ops::Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl std::ops::Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0; 6], [2, 3]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn clone_is_shallow_mutation_is_cow() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(b.data()[0], 9.0);
    }

    #[test]
    fn elementwise_add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        assert_eq!((&a + &b).data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn broadcast_row_vector_over_matrix() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let r = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        let out = &m + &r;
        assert_eq!(out.shape().dims(), &[2, 3]);
        assert_eq!(out.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector_over_matrix() {
        let m = Tensor::ones([2, 3]);
        let c = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let out = &m * &c;
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![1.0, -2.0], [2]);
        assert_eq!((&a * 2.0).data(), &[2.0, -4.0]);
        assert_eq!((&a + 1.0).data(), &[2.0, -1.0]);
        assert_eq!((-&a).data(), &[-1.0, 2.0]);
    }

    #[test]
    fn sum_to_reverses_broadcast() {
        let g = Tensor::ones([2, 3]);
        let reduced = g.sum_to(&Shape::new(vec![3]));
        assert_eq!(reduced.data(), &[2.0, 2.0, 2.0]);
        let reduced2 = g.sum_to(&Shape::new(vec![2, 1]));
        assert_eq!(reduced2.data(), &[3.0, 3.0]);
    }

    /// Flat index into `src` of output coordinates `coords` (aligned to
    /// the right, stretched axes ignored) — the coordinate form of the
    /// stride walk.
    fn naive_source_index(src: &Shape, coords: &[usize]) -> usize {
        let offset = coords.len() - src.rank();
        let strides = src.strides();
        (0..src.rank())
            .filter(|&i| src.dim(i) != 1)
            .map(|i| coords[i + offset] * strides[i])
            .sum()
    }

    #[test]
    fn stride_walk_matches_coordinate_indexing_bitwise() {
        let mut rng = Rng::new(8);
        for (a_dims, b_dims) in [
            (vec![2, 1, 3, 1], vec![4, 1, 5]),
            (vec![1, 3, 1, 4], vec![2, 1, 5, 1]),
            (vec![3, 4], vec![]),
            (vec![2, 3], vec![1, 1]),
        ] {
            let a = Tensor::randn(a_dims, &mut rng);
            let b = Tensor::randn(b_dims, &mut rng);
            let out = a.zip_broadcast(&b, |x, y| x * 3.0 - y);
            let shape = out.shape().clone();
            let mut naive_sums = [vec![0.0f32; a.numel()], vec![0.0f32; b.numel()]];
            for (i, &v) in out.data().iter().enumerate() {
                let coords = shape.unravel(i);
                let (ia, ib) = (
                    naive_source_index(a.shape(), &coords),
                    naive_source_index(b.shape(), &coords),
                );
                let expect = a.data()[ia] * 3.0 - b.data()[ib];
                assert_eq!(v.to_bits(), expect.to_bits(), "{shape} element {i}");
                naive_sums[0][ia] += v;
                naive_sums[1][ib] += v;
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (src, naive) in [&a, &b].into_iter().zip(&naive_sums) {
                let reduced = out.sum_to(src.shape());
                assert_eq!(
                    bits(reduced.data()),
                    bits(naive),
                    "{shape} to {}",
                    src.shape()
                );
            }
        }
    }

    #[test]
    fn sum_to_scalar() {
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(g.sum_to(&Shape::scalar()).item(), 6.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!(a.l2_norm(), 5.0);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let r = t.reshape([4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[4]);
    }

    #[test]
    fn add_scaled_in_place() {
        let mut a = Tensor::zeros([3]);
        let b = Tensor::ones([3]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[0.5, 0.5, 0.5]);
    }

    #[test]
    fn randn_is_seeded() {
        let mut r1 = Rng::new(5);
        let mut r2 = Rng::new(5);
        let a = Tensor::randn([4, 4], &mut r1);
        let b = Tensor::randn([4, 4], &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones([2]);
        assert!(t.is_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.is_finite());
    }
}
