//! `offer_segment` equivalence for the feature-space strategies.
//!
//! K-Center and Herding decide a whole segment in one call, computing
//! each stored item's feature at most once. The per-candidate bodies they
//! replaced live on here as reference strategies, and every test asserts
//! that the segment path leaves a byte-identical buffer: same items, same
//! bits, same order, same offered-item counter, same RNG state.

use std::collections::{BTreeMap, HashMap};

use deco_nn::{ConvNet, ConvNetConfig};
use deco_replay::{BaselineKind, BufferItem, ReplayBuffer, SelectionContext, SelectionStrategy};
use deco_tensor::dtype::snap_to_dtype;
use deco_tensor::{Rng, StorageDtype, Tensor, Var};

fn model(rng: &mut Rng) -> ConvNet {
    ConvNet::new(
        ConvNetConfig {
            in_channels: 1,
            image_side: 8,
            width: 4,
            depth: 2,
            num_classes: 4,
            norm: true,
        },
        rng,
    )
}

fn feature(model: &ConvNet, image: &Tensor) -> Tensor {
    let dims = image.shape().dims().to_vec();
    let mut batched = vec![1usize];
    batched.extend_from_slice(&dims);
    let x = Var::constant(image.reshape(batched));
    model.features(&x, true).value().clone()
}

fn dist2(a: &Tensor, b: &Tensor) -> f32 {
    let d = a - b;
    d.dot(&d)
}

/// Per-candidate K-Center: recomputes every stored feature and every
/// pairwise distance for each candidate.
struct RefKCenter;

impl SelectionStrategy for RefKCenter {
    fn name(&self) -> &'static str {
        "K-Center (reference)"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    ) {
        buffer.record_seen();
        if !buffer.is_full() {
            buffer.push(candidate);
            return;
        }
        if buffer.capacity() == 1 {
            return;
        }
        let cand_feat = feature(ctx.model, &candidate.image);
        let feats: Vec<Tensor> = buffer
            .items()
            .iter()
            .map(|it| feature(ctx.model, &it.image))
            .collect();
        let cand_nearest = feats
            .iter()
            .map(|f| dist2(&cand_feat, f))
            .fold(f32::INFINITY, f32::min);
        let mut pair = (0usize, 1usize);
        let mut pair_d = f32::INFINITY;
        for i in 0..feats.len() {
            for j in (i + 1)..feats.len() {
                let d = dist2(&feats[i], &feats[j]);
                if d < pair_d {
                    pair_d = d;
                    pair = (i, j);
                }
            }
        }
        if cand_nearest > pair_d {
            buffer.replace(pair.1, candidate);
        }
    }
}

/// Per-candidate Herding: recomputes every same-class stored feature for
/// each candidate. A class without exemplars takes a slot from the
/// lowest label among the largest classes.
#[derive(Default)]
struct RefHerding {
    class_means: HashMap<usize, (Tensor, usize)>,
}

impl RefHerding {
    fn update_running_mean(&mut self, class: usize, feat: &Tensor) {
        match self.class_means.get_mut(&class) {
            Some((mean, count)) => {
                *count += 1;
                let alpha = 1.0 / *count as f32;
                let delta = feat - &*mean;
                mean.add_scaled(&delta, alpha);
            }
            None => {
                self.class_means.insert(class, (feat.clone(), 1));
            }
        }
    }

    fn mean_gap(feats: &[&Tensor], target: &Tensor) -> f32 {
        let mut mean = Tensor::zeros(target.shape().dims().to_vec());
        for f in feats {
            mean.add_scaled(f, 1.0 / feats.len() as f32);
        }
        let d = &mean - target;
        d.dot(&d)
    }
}

impl SelectionStrategy for RefHerding {
    fn name(&self) -> &'static str {
        "Herding (reference)"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    ) {
        buffer.record_seen();
        let cand_feat = feature(ctx.model, &candidate.image);
        self.update_running_mean(candidate.label, &cand_feat);
        if !buffer.is_full() {
            buffer.push(candidate);
            return;
        }
        let class = candidate.label;
        let target = match self.class_means.get(&class) {
            Some((mean, _)) => mean.clone(),
            None => return,
        };
        let same: Vec<(usize, Tensor)> = buffer
            .items()
            .iter()
            .enumerate()
            .filter(|(_, it)| it.label == class)
            .map(|(i, it)| (i, feature(ctx.model, &it.image)))
            .collect();
        if same.is_empty() {
            let mut counts = BTreeMap::new();
            for it in buffer.items() {
                *counts.entry(it.label).or_insert(0usize) += 1;
            }
            let largest = counts.values().copied().max();
            let y = counts
                .iter()
                .find(|&(_, &c)| Some(c) == largest)
                .map(|(&y, _)| y);
            if let Some(y) = y {
                let victim = buffer
                    .items()
                    .iter()
                    .position(|it| it.label == y)
                    .expect("class has members");
                buffer.replace(victim, candidate);
            }
            return;
        }
        let baseline_feats: Vec<&Tensor> = same.iter().map(|(_, f)| f).collect();
        let current_gap = Self::mean_gap(&baseline_feats, &target);
        let mut best: Option<(usize, f32)> = None;
        for drop in 0..same.len() {
            let feats: Vec<&Tensor> = same
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != drop)
                .map(|(_, (_, f))| f)
                .chain(std::iter::once(&cand_feat))
                .collect();
            let gap = Self::mean_gap(&feats, &target);
            if gap < best.map_or(current_gap, |(_, g)| g) {
                best = Some((same[drop].0, gap));
            }
        }
        if let Some((victim, _)) = best {
            buffer.replace(victim, candidate);
        }
    }
}

/// A random stream. Labels come from a small alphabet, so Herding sees
/// both same-class swaps and classes without exemplars (with ties among
/// the largest classes at small capacities). Every other image carries
/// one outlier pixel, which stretches the i8 quantization range so far
/// that the stored image's feature differs clearly from the candidate's.
fn stream(rng: &mut Rng, n: usize) -> Vec<BufferItem> {
    (0..n)
        .map(|k| {
            let mut pixels = Tensor::randn([1, 8, 8], rng).data().to_vec();
            if k % 2 == 0 {
                pixels[rng.below(64)] *= 40.0;
            }
            BufferItem {
                image: Tensor::from_vec(pixels, [1, 8, 8]),
                label: rng.below(4),
                confidence: rng.next_f32(),
            }
        })
        .collect()
}

/// Cuts `n` items into consecutive segments at random boundaries; empty
/// segments included.
fn random_segments(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = n;
    while left > 0 {
        let size = rng.below(7).min(left);
        sizes.push(size);
        left -= size;
    }
    sizes
}

/// Buffers and RNGs of the reference (one `offer` per item) and the
/// segmented (one `offer_segment` per segment) runs over the same stream.
struct Runs {
    reference: (ReplayBuffer, Rng),
    segmented: (ReplayBuffer, Rng),
}

fn run_both(
    reference: &mut dyn SelectionStrategy,
    kind: BaselineKind,
    capacity: usize,
    dtype: StorageDtype,
    items: &[BufferItem],
    segments: &[usize],
    seed: u64,
) -> Runs {
    let net = model(&mut Rng::new(seed ^ 0x5EED));

    let mut ref_buffer = ReplayBuffer::with_storage_dtype(capacity, dtype);
    let mut ref_rng = Rng::new(seed);
    for item in items {
        let mut ctx = SelectionContext {
            model: &net,
            rng: &mut ref_rng,
        };
        reference.offer(&mut ref_buffer, item.clone(), &mut ctx);
    }

    let mut strategy = kind.build();
    let mut seg_buffer = ReplayBuffer::with_storage_dtype(capacity, dtype);
    let mut seg_rng = Rng::new(seed);
    let mut start = 0;
    for &size in segments {
        let mut ctx = SelectionContext {
            model: &net,
            rng: &mut seg_rng,
        };
        strategy.offer_segment(
            &mut seg_buffer,
            items[start..start + size].to_vec(),
            &mut ctx,
        );
        start += size;
    }
    assert_eq!(start, items.len(), "segments cover the stream");

    Runs {
        reference: (ref_buffer, ref_rng),
        segmented: (seg_buffer, seg_rng),
    }
}

fn assert_identical(runs: &Runs, what: &str) {
    let (a, a_rng) = &runs.reference;
    let (b, b_rng) = &runs.segmented;
    assert_eq!(a.seen(), b.seen(), "{what}: offered-item counter");
    assert_eq!(a.len(), b.len(), "{what}: buffer length");
    for (slot, (x, y)) in a.items().iter().zip(b.items()).enumerate() {
        assert_eq!(x.label, y.label, "{what}: slot {slot} label");
        assert_eq!(
            x.confidence.to_bits(),
            y.confidence.to_bits(),
            "{what}: slot {slot} confidence"
        );
        assert_eq!(
            x.image.shape().dims(),
            y.image.shape().dims(),
            "{what}: slot {slot} shape"
        );
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.image), bits(&y.image), "{what}: slot {slot} image");
    }
    assert_eq!(a_rng, b_rng, "{what}: RNG state");
}

/// Whether the final buffer differs from the first `capacity` items the
/// stream offered, i.e. whether any replacement survived.
fn replaced_any(buffer: &ReplayBuffer, items: &[BufferItem]) -> bool {
    buffer
        .items()
        .iter()
        .zip(items)
        .any(|(kept, first)| kept.label != first.label || kept.confidence != first.confidence)
}

const DTYPES: [StorageDtype; 3] = [StorageDtype::F32, StorageDtype::Bf16, StorageDtype::I8];
const CAPACITIES: [usize; 3] = [1, 2, 7];

fn random_streams_match(kind: BaselineKind, reference: impl Fn() -> Box<dyn SelectionStrategy>) {
    let mut replaced = 0usize;
    for dtype in DTYPES {
        for capacity in CAPACITIES {
            for seed in 0..6u64 {
                let mut rng = Rng::new(seed * 1009 + capacity as u64);
                let items = stream(&mut rng, 30);
                let segments = random_segments(&mut rng, items.len());
                let runs = run_both(
                    reference().as_mut(),
                    kind,
                    capacity,
                    dtype,
                    &items,
                    &segments,
                    seed,
                );
                assert_identical(
                    &runs,
                    &format!("{kind} {dtype} capacity {capacity} seed {seed} {segments:?}"),
                );
                replaced += usize::from(replaced_any(&runs.segmented.0, &items));
            }
        }
    }
    assert!(replaced > 0, "{kind}: no stream ever replaced an item");
}

#[test]
fn kcenter_segments_match_per_candidate_reference_on_random_streams() {
    random_streams_match(BaselineKind::KCenter, || Box::new(RefKCenter));
}

#[test]
fn herding_segments_match_per_candidate_reference_on_random_streams() {
    random_streams_match(BaselineKind::Herding, || Box::new(RefHerding::default()));
}

/// A short first segment leaves the buffer below capacity; the second
/// fills it partway through the call and then starts replacing.
#[test]
fn buffer_filling_mid_segment_matches_reference() {
    for dtype in DTYPES {
        for capacity in CAPACITIES {
            let mut rng = Rng::new(77 + capacity as u64);
            let items = stream(&mut rng, 20);
            // The second segment starts below capacity and ends past it.
            let segments = [capacity / 2, items.len() - capacity / 2];
            let kc = run_both(
                &mut RefKCenter,
                BaselineKind::KCenter,
                capacity,
                dtype,
                &items,
                &segments,
                5,
            );
            assert_identical(&kc, &format!("K-Center {dtype} capacity {capacity}"));
            let herding = run_both(
                &mut RefHerding::default(),
                BaselineKind::Herding,
                capacity,
                dtype,
                &items,
                &segments,
                5,
            );
            assert_identical(&herding, &format!("Herding {dtype} capacity {capacity}"));
        }
    }
}

/// A replaced slot's feature must come from the *stored* (snapped)
/// image. Two stored copies of the lattice image `s = snap(c)` tie at
/// distance 0; candidate `c` lies off the lattice, so it replaces slot 1
/// and is stored as `s` again. A second candidate with image `c` is then
/// at distance `|f(c) - f(s)| > 0` from both stored items, so it must
/// replace slot 1 too. A slot refilled with the candidate's own feature
/// `f(c)` would see distance 0 and keep the old item.
#[test]
fn kcenter_refills_replaced_slot_from_the_stored_image() {
    for dtype in [StorageDtype::Bf16, StorageDtype::I8] {
        let mut rng = Rng::new(21);
        let c = Tensor::randn([1, 8, 8], &mut rng);
        let s = snap_to_dtype(&c, dtype);
        assert_ne!(s, c, "{dtype}: the test image must lie off the lattice");
        let at = |image: &Tensor, label| BufferItem {
            image: image.clone(),
            label,
            confidence: 0.5,
        };
        let items = [at(&s, 0), at(&s, 0), at(&c, 1), at(&c, 2)];
        let runs = run_both(
            &mut RefKCenter,
            BaselineKind::KCenter,
            2,
            dtype,
            &items,
            &[items.len()],
            3,
        );
        assert_identical(&runs, &format!("K-Center {dtype} stored-image refill"));
        let labels: Vec<usize> = runs.segmented.0.items().iter().map(|it| it.label).collect();
        assert_eq!(labels, vec![0, 2], "{dtype}: the last candidate entered");
    }
}
