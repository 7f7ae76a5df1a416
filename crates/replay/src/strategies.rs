//! The five buffer-selection baselines the paper compares against:
//! Random (reservoir), FIFO, Selective-BP, K-Center and GSS-Greedy.
//!
//! # One call, one model
//!
//! The learning loop hands a segment's kept items to a strategy in one
//! [`SelectionStrategy::offer_segment`] call. Within that call the model
//! in the [`SelectionContext`] cannot change, so a strategy may compute
//! each stored item's feature once and reuse it for every candidate of
//! the segment. K-Center and Herding do exactly that: they keep a
//! per-slot feature table (and K-Center a pairwise distance matrix)
//! that lives only for the call, refill a slot from the *stored* item
//! after a replacement (storage precision snaps the image on entry),
//! and decide every candidate exactly as a per-candidate
//! [`SelectionStrategy::offer`] would. Nothing outlives the call, so
//! there is nothing to invalidate between segments. Every batch-1
//! feature forward counts towards the `replay.feature_passes` counter.

use deco_nn::{cosine_distance, ConvNet, GradList};
use deco_tensor::{Reduction, Rng, Tensor, Var};

use crate::buffer::{BufferItem, ReplayBuffer};

/// Everything a strategy may consult when deciding on a candidate: the
/// current on-device model (for features/gradients/confidence) and a
/// deterministic RNG.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// The deployed model.
    pub model: &'a ConvNet,
    /// Strategy randomness.
    pub rng: &'a mut Rng,
}

/// A buffer-maintenance policy: decides whether an offered sample enters
/// the buffer and which stored sample it evicts.
pub trait SelectionStrategy {
    /// Short identifier used in reports (e.g. `"FIFO"`).
    fn name(&self) -> &'static str;

    /// Offers one candidate. Implementations must keep `buffer.len() <=
    /// buffer.capacity()`.
    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    );

    /// Offers one segment's candidates in order, under one model. The
    /// resulting buffer, strategy state and RNG draws are exactly those
    /// of calling [`SelectionStrategy::offer`] on each candidate in
    /// turn; strategies override it only to share work across the
    /// segment's candidates.
    fn offer_segment(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidates: Vec<BufferItem>,
        ctx: &mut SelectionContext<'_>,
    ) {
        for candidate in candidates {
            self.offer(buffer, candidate, ctx);
        }
    }
}

/// The batch-1 feature embedding K-Center and Herding compare samples in.
fn feature(model: &ConvNet, image: &Tensor) -> Tensor {
    deco_telemetry::counter!("replay.feature_passes");
    let dims = image.shape().dims().to_vec();
    let mut batched = vec![1usize];
    batched.extend_from_slice(&dims);
    let x = Var::constant(image.reshape(batched));
    model.features(&x, true).value().clone()
}

/// Squared Euclidean distance, summed in f64 in element order: bitwise
/// `(a - b).dot(&(a - b))` without the temporary.
fn dist2(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.numel(), b.numel(), "dist2 length mismatch");
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>() as f32
}

/// Features of the buffer's stored items, one entry per buffer slot,
/// filled on first use and valid for one `offer_segment` call.
struct SlotFeatures {
    feats: Vec<Option<Tensor>>,
}

impl SlotFeatures {
    fn new(buffer: &ReplayBuffer) -> Self {
        SlotFeatures {
            feats: vec![None; buffer.capacity()],
        }
    }

    /// The feature of the item stored in `slot`, computed on first use.
    fn get(&mut self, model: &ConvNet, buffer: &ReplayBuffer, slot: usize) -> &Tensor {
        self.feats[slot].get_or_insert_with(|| feature(model, &buffer.items()[slot].image))
    }

    /// The feature of `slot`, which an earlier [`SlotFeatures::get`]
    /// filled.
    fn filled(&self, slot: usize) -> &Tensor {
        self.feats[slot].as_ref().expect("slot feature filled")
    }

    /// Forgets `slot` after the buffer replaced its item.
    fn invalidate(&mut self, slot: usize) {
        self.feats[slot] = None;
    }
}

/// Identifier for constructing baselines by name (used by the experiment
/// grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Vitter reservoir sampling.
    Random,
    /// Replace the oldest item.
    Fifo,
    /// Keep low-confidence samples.
    SelectiveBp,
    /// Greedy k-center coverage in feature space.
    KCenter,
    /// Gradient-similarity-based replacement.
    GssGreedy,
    /// iCaRL-style herding toward class-mean features (extension; not a
    /// Table I column).
    Herding,
}

impl BaselineKind {
    /// The paper's five Table I baselines, in column order.
    pub const ALL: [BaselineKind; 5] = [
        BaselineKind::Random,
        BaselineKind::Fifo,
        BaselineKind::SelectiveBp,
        BaselineKind::KCenter,
        BaselineKind::GssGreedy,
    ];

    /// The paper's five plus the herding extension.
    pub const EXTENDED: [BaselineKind; 6] = [
        BaselineKind::Random,
        BaselineKind::Fifo,
        BaselineKind::SelectiveBp,
        BaselineKind::KCenter,
        BaselineKind::GssGreedy,
        BaselineKind::Herding,
    ];

    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn SelectionStrategy> {
        match self {
            BaselineKind::Random => Box::new(RandomReservoir::new()),
            BaselineKind::Fifo => Box::new(Fifo::new()),
            BaselineKind::SelectiveBp => Box::new(SelectiveBp::new()),
            BaselineKind::KCenter => Box::new(KCenter::new()),
            BaselineKind::GssGreedy => Box::new(GssGreedy::new()),
            BaselineKind::Herding => Box::new(Herding::new()),
        }
    }

    /// The paper's display name.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Random => "Random",
            BaselineKind::Fifo => "FIFO",
            BaselineKind::SelectiveBp => "Selective-BP",
            BaselineKind::KCenter => "K-Center",
            BaselineKind::GssGreedy => "GSS-Greedy",
            BaselineKind::Herding => "Herding",
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------- Random

/// Vitter's reservoir sampling: every offered item ends up in the buffer
/// with equal probability `capacity / seen`.
#[derive(Debug, Default)]
pub struct RandomReservoir {
    _private: (),
}

impl RandomReservoir {
    /// Creates the strategy.
    pub fn new() -> Self {
        RandomReservoir { _private: () }
    }
}

impl SelectionStrategy for RandomReservoir {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    ) {
        let seen = buffer.record_seen();
        if !buffer.is_full() {
            buffer.push(candidate);
            return;
        }
        let j = ctx.rng.below(seen);
        if j < buffer.capacity() {
            buffer.replace(j, candidate);
        }
    }
}

// ------------------------------------------------------------------ FIFO

/// First-in-first-out replacement: always store the newest item, evicting
/// the oldest.
#[derive(Debug, Default)]
pub struct Fifo {
    next_out: usize,
}

impl Fifo {
    /// Creates the strategy.
    pub fn new() -> Self {
        Fifo { next_out: 0 }
    }
}

impl SelectionStrategy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        _ctx: &mut SelectionContext<'_>,
    ) {
        buffer.record_seen();
        if !buffer.is_full() {
            buffer.push(candidate);
            return;
        }
        buffer.replace(self.next_out, candidate);
        self.next_out = (self.next_out + 1) % buffer.capacity();
    }
}

// ----------------------------------------------------------- Selective-BP

/// Keeps the samples the model is *least* confident about (hard examples),
/// following the selective-backprop idea: a candidate replaces the current
/// most-confident stored item if the candidate is less confident.
#[derive(Debug, Default)]
pub struct SelectiveBp {
    _private: (),
}

impl SelectiveBp {
    /// Creates the strategy.
    pub fn new() -> Self {
        SelectiveBp { _private: () }
    }
}

impl SelectionStrategy for SelectiveBp {
    fn name(&self) -> &'static str {
        "Selective-BP"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        _ctx: &mut SelectionContext<'_>,
    ) {
        buffer.record_seen();
        if !buffer.is_full() {
            buffer.push(candidate);
            return;
        }
        let (max_idx, max_conf) = buffer
            .items()
            .iter()
            .enumerate()
            .map(|(i, it)| (i, it.confidence))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("confidence is finite"))
            .expect("buffer non-empty");
        if candidate.confidence < max_conf {
            buffer.replace(max_idx, candidate);
        }
    }
}

// -------------------------------------------------------------- K-Center

/// Greedy k-center coverage in the model's feature space: a candidate that
/// is farther from its nearest stored sample than the two closest stored
/// samples are from each other replaces one of that closest pair — growing
/// the covered radius.
#[derive(Debug, Default)]
pub struct KCenter {
    _private: (),
}

impl KCenter {
    /// Creates the strategy.
    pub fn new() -> Self {
        KCenter { _private: () }
    }
}

/// Pairwise squared feature distances of a full buffer, for one
/// `offer_segment` call. Entry `(i, j)` with `i < j` holds
/// `dist2(f_i, f_j)`; the lower triangle is unused.
struct PairDistances {
    n: usize,
    d: Vec<f32>,
}

impl PairDistances {
    fn build(feats: &SlotFeatures, n: usize) -> Self {
        let mut pairs = PairDistances {
            n,
            d: vec![f32::INFINITY; n * n],
        };
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.d[i * n + j] = dist2(feats.filled(i), feats.filled(j));
            }
        }
        pairs
    }

    /// Recomputes the row and column of `slot` after its item changed.
    fn refresh(&mut self, feats: &SlotFeatures, slot: usize) {
        let n = self.n;
        for i in 0..slot {
            self.d[i * n + slot] = dist2(feats.filled(i), feats.filled(slot));
        }
        for j in (slot + 1)..n {
            self.d[slot * n + j] = dist2(feats.filled(slot), feats.filled(j));
        }
    }

    /// The closest pair, scanned in `i < j` order with a strict `<`, so
    /// the first of several tied pairs wins.
    fn closest(&self) -> ((usize, usize), f32) {
        let n = self.n;
        let mut pair = (0usize, 1usize);
        let mut pair_d = f32::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.d[i * n + j];
                if d < pair_d {
                    pair_d = d;
                    pair = (i, j);
                }
            }
        }
        (pair, pair_d)
    }
}

impl SelectionStrategy for KCenter {
    fn name(&self) -> &'static str {
        "K-Center"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    ) {
        self.offer_segment(buffer, vec![candidate], ctx);
    }

    fn offer_segment(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidates: Vec<BufferItem>,
        ctx: &mut SelectionContext<'_>,
    ) {
        let mut feats = SlotFeatures::new(buffer);
        let mut pairs: Option<PairDistances> = None;
        for candidate in candidates {
            buffer.record_seen();
            if !buffer.is_full() {
                buffer.push(candidate);
                continue;
            }
            if buffer.capacity() == 1 {
                // Degenerate coverage: keep the first sample.
                continue;
            }
            let pairs = pairs.get_or_insert_with(|| {
                for slot in 0..buffer.len() {
                    feats.get(ctx.model, buffer, slot);
                }
                PairDistances::build(&feats, buffer.len())
            });
            let cand_feat = feature(ctx.model, &candidate.image);
            // Candidate's distance to its nearest stored sample.
            let cand_nearest = (0..buffer.len())
                .map(|slot| dist2(&cand_feat, feats.filled(slot)))
                .fold(f32::INFINITY, f32::min);
            let ((_, victim), pair_d) = pairs.closest();
            if cand_nearest > pair_d {
                buffer.replace(victim, candidate);
                feats.invalidate(victim);
                feats.get(ctx.model, buffer, victim);
                pairs.refresh(&feats, victim);
            }
        }
    }
}

// ------------------------------------------------------------- GSS-Greedy

/// Gradient-based sample selection (Aljundi et al.): each stored sample
/// carries a score derived from its gradient's similarity to the buffer; a
/// candidate whose gradient is more *dissimilar* (novel) replaces a stored
/// sample drawn proportionally to the stored scores.
pub struct GssGreedy {
    grads: Vec<GradList>,
    scores: Vec<f32>,
    /// How many stored gradients to compare a candidate against.
    subset: usize,
}

impl std::fmt::Debug for GssGreedy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GssGreedy")
            .field("stored", &self.grads.len())
            .field("subset", &self.subset)
            .finish()
    }
}

impl Default for GssGreedy {
    fn default() -> Self {
        Self::new()
    }
}

impl GssGreedy {
    /// Creates the strategy with the default comparison-subset size (10).
    pub fn new() -> Self {
        GssGreedy {
            grads: Vec::new(),
            scores: Vec::new(),
            subset: 10,
        }
    }

    /// The gradient of one sample's cross-entropy loss w.r.t. the model
    /// parameters.
    fn sample_gradient(model: &ConvNet, item: &BufferItem) -> GradList {
        let dims = item.image.shape().dims().to_vec();
        let mut batched = vec![1usize];
        batched.extend_from_slice(&dims);
        let x = Var::constant(item.image.reshape(batched));
        let loss = model
            .forward(&x, false)
            .log_softmax()
            .nll(&[item.label], None, Reduction::Mean);
        loss.backward();
        GradList::from_params(&model.params())
    }

    /// Max cosine *similarity* of `grad` against up to `subset` random
    /// stored gradients (`-1` when the store is empty).
    fn max_similarity(&self, grad: &GradList, rng: &mut Rng) -> f32 {
        if self.grads.is_empty() {
            return -1.0;
        }
        let k = self.subset.min(self.grads.len());
        let picks = rng.choose_indices(self.grads.len(), k);
        picks
            .into_iter()
            .map(|i| 1.0 - cosine_distance(grad, &self.grads[i]) / grad.len().max(1) as f32)
            .fold(f32::NEG_INFINITY, f32::max)
    }
}

impl SelectionStrategy for GssGreedy {
    fn name(&self) -> &'static str {
        "GSS-Greedy"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    ) {
        buffer.record_seen();
        let grad = Self::sample_gradient(ctx.model, &candidate);
        let sim = self.max_similarity(&grad, ctx.rng);
        let score = sim + 1.0; // in [0, 2]; lower = more novel
        if !buffer.is_full() {
            buffer.push(candidate);
            self.grads.push(grad);
            self.scores.push(score);
            return;
        }
        // Draw a victim proportional to stored scores (high score = similar
        // to the rest = expendable).
        let total: f32 = self.scores.iter().sum();
        if total <= 0.0 {
            return;
        }
        let mut threshold = ctx.rng.next_f32() * total;
        let mut victim = self.scores.len() - 1;
        for (i, &s) in self.scores.iter().enumerate() {
            if threshold < s {
                victim = i;
                break;
            }
            threshold -= s;
        }
        if score < self.scores[victim] {
            buffer.replace(victim, candidate);
            self.grads[victim] = grad;
            self.scores[victim] = score;
        }
    }
}

// --------------------------------------------------------------- Herding

/// iCaRL-style herding: keeps, per class, the exemplars whose mean feature
/// best approximates the running mean feature of *all* samples seen for
/// that class. When the buffer is full, a candidate enters only if swapping
/// it for a same-class exemplar (or an exemplar of an over-represented
/// class) moves the stored class mean closer to the running mean.
pub struct Herding {
    /// Per-class running mean of features and observation count.
    class_means: std::collections::HashMap<usize, (Tensor, usize)>,
}

impl std::fmt::Debug for Herding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Herding")
            .field("classes", &self.class_means.len())
            .finish()
    }
}

impl Default for Herding {
    fn default() -> Self {
        Self::new()
    }
}

impl Herding {
    /// Creates the strategy.
    pub fn new() -> Self {
        Herding {
            class_means: std::collections::HashMap::new(),
        }
    }

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

    /// Squared distance between the mean of `feats` and `target`.
    fn mean_gap(feats: &[&Tensor], target: &Tensor) -> f32 {
        let mut mean = Tensor::zeros(target.shape().dims().to_vec());
        for f in feats {
            mean.add_scaled(f, 1.0 / feats.len() as f32);
        }
        dist2(&mean, target)
    }
}

impl SelectionStrategy for Herding {
    fn name(&self) -> &'static str {
        "Herding"
    }

    fn offer(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidate: BufferItem,
        ctx: &mut SelectionContext<'_>,
    ) {
        self.offer_segment(buffer, vec![candidate], ctx);
    }

    fn offer_segment(
        &mut self,
        buffer: &mut ReplayBuffer,
        candidates: Vec<BufferItem>,
        ctx: &mut SelectionContext<'_>,
    ) {
        let mut feats = SlotFeatures::new(buffer);
        for candidate in candidates {
            buffer.record_seen();
            let cand_feat = feature(ctx.model, &candidate.image);
            self.update_running_mean(candidate.label, &cand_feat);
            if !buffer.is_full() {
                buffer.push(candidate);
                continue;
            }
            let class = candidate.label;
            let target = match self.class_means.get(&class) {
                Some((mean, _)) => mean.clone(),
                None => continue,
            };
            // Same-class stored exemplars.
            let same: Vec<usize> = (0..buffer.len())
                .filter(|&i| buffer.items()[i].label == class)
                .collect();
            if same.is_empty() {
                // The class has no exemplars: take a slot from the largest
                // class, the lowest label among equally large ones.
                let mut counts = std::collections::BTreeMap::new();
                for it in buffer.items() {
                    *counts.entry(it.label).or_insert(0usize) += 1;
                }
                let largest = counts
                    .into_iter()
                    .max_by_key(|&(y, c)| (c, std::cmp::Reverse(y)))
                    .map(|(y, _)| y);
                if let Some(y) = largest {
                    let victim = buffer
                        .items()
                        .iter()
                        .position(|it| it.label == y)
                        .expect("class has members");
                    buffer.replace(victim, candidate);
                    feats.invalidate(victim);
                }
                continue;
            }
            for &slot in &same {
                feats.get(ctx.model, buffer, slot);
            }
            // Evaluate dropping each stored same-class exemplar in favor of
            // the candidate; accept the best swap if it tightens the mean
            // gap.
            let baseline_feats: Vec<&Tensor> = same.iter().map(|&i| feats.filled(i)).collect();
            let current_gap = Self::mean_gap(&baseline_feats, &target);
            let mut best: Option<(usize, f32)> = None;
            for drop in 0..same.len() {
                let swapped: Vec<&Tensor> = same
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != drop)
                    .map(|(_, &i)| feats.filled(i))
                    .chain(std::iter::once(&cand_feat))
                    .collect();
                let gap = Self::mean_gap(&swapped, &target);
                if gap < best.map_or(current_gap, |(_, g)| g) {
                    best = Some((same[drop], gap));
                }
            }
            if let Some((victim, _)) = best {
                buffer.replace(victim, candidate);
                feats.invalidate(victim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_nn::ConvNetConfig;

    fn tiny_model(rng: &mut Rng) -> ConvNet {
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

    fn item(label: usize, conf: f32, fill: f32) -> BufferItem {
        BufferItem {
            image: Tensor::full([1, 8, 8], fill),
            label,
            confidence: conf,
        }
    }

    fn run_stream(strategy: &mut dyn SelectionStrategy, n: usize, cap: usize) -> ReplayBuffer {
        let mut rng = Rng::new(1);
        let model = tiny_model(&mut rng);
        let mut buffer = ReplayBuffer::new(cap);
        for i in 0..n {
            let mut ctx = SelectionContext {
                model: &model,
                rng: &mut rng,
            };
            strategy.offer(
                &mut buffer,
                item(i % 4, (i as f32 * 0.37).fract(), i as f32),
                &mut ctx,
            );
        }
        buffer
    }

    #[test]
    fn all_strategies_respect_capacity() {
        for kind in BaselineKind::ALL {
            let mut strat = kind.build();
            let buf = run_stream(strat.as_mut(), 40, 5);
            assert_eq!(buf.len(), 5, "{}", kind.label());
        }
    }

    #[test]
    fn fifo_keeps_most_recent_items() {
        let mut strat = Fifo::new();
        let buf = run_stream(&mut strat, 20, 4);
        // Items 16..20 were offered last; FIFO must hold exactly those.
        let mut fills: Vec<f32> = buf.items().iter().map(|i| i.image.data()[0]).collect();
        fills.sort_by(f32::total_cmp);
        assert_eq!(fills, vec![16.0, 17.0, 18.0, 19.0]);
    }

    #[test]
    fn reservoir_is_approximately_uniform() {
        // Offer 200 items into a 10-slot buffer many times; early and late
        // items must be retained at comparable rates.
        let mut early = 0usize;
        let mut late = 0usize;
        for seed in 0..200 {
            let mut rng = Rng::new(seed);
            let model = tiny_model(&mut rng);
            let mut strat = RandomReservoir::new();
            let mut buffer = ReplayBuffer::new(10);
            for i in 0..200 {
                let mut ctx = SelectionContext {
                    model: &model,
                    rng: &mut rng,
                };
                strat.offer(&mut buffer, item(0, 0.5, i as f32), &mut ctx);
            }
            for it in buffer.items() {
                let idx = it.image.data()[0] as usize;
                if idx < 100 {
                    early += 1;
                } else {
                    late += 1;
                }
            }
        }
        let ratio = early as f32 / late.max(1) as f32;
        assert!((0.7..1.4).contains(&ratio), "early/late ratio {ratio}");
    }

    #[test]
    fn selective_bp_keeps_low_confidence() {
        let mut rng = Rng::new(2);
        let model = tiny_model(&mut rng);
        let mut strat = SelectiveBp::new();
        let mut buffer = ReplayBuffer::new(3);
        for (i, conf) in [0.9, 0.8, 0.7, 0.95, 0.1, 0.2].iter().enumerate() {
            let mut ctx = SelectionContext {
                model: &model,
                rng: &mut rng,
            };
            strat.offer(&mut buffer, item(0, *conf, i as f32), &mut ctx);
        }
        let mut confs: Vec<f32> = buffer.items().iter().map(|i| i.confidence).collect();
        confs.sort_by(f32::total_cmp);
        assert_eq!(confs, vec![0.1, 0.2, 0.7]);
    }

    #[test]
    fn kcenter_prefers_spread() {
        let mut rng = Rng::new(3);
        // No normalization: instance norm would collapse constant test
        // images to identical features.
        let model = ConvNet::new(
            ConvNetConfig {
                in_channels: 1,
                image_side: 8,
                width: 4,
                depth: 2,
                num_classes: 4,
                norm: false,
            },
            &mut rng,
        );
        let mut strat = KCenter::new();
        let mut buffer = ReplayBuffer::new(2);
        let mut offer = |buffer: &mut ReplayBuffer, fill: f32, rng: &mut Rng| {
            let mut ctx = SelectionContext { model: &model, rng };
            strat.offer(buffer, item(0, 0.5, fill), &mut ctx);
        };
        // Two nearly identical items, then a distant one: the distant one
        // must enter.
        offer(&mut buffer, 0.0, &mut rng);
        offer(&mut buffer, 0.01, &mut rng);
        offer(&mut buffer, 5.0, &mut rng);
        let fills: Vec<f32> = buffer.items().iter().map(|i| i.image.data()[0]).collect();
        assert!(fills.contains(&5.0), "buffer {fills:?}");
    }

    #[test]
    fn gss_greedy_fills_then_replaces_similar() {
        let mut strat = GssGreedy::new();
        let buf = run_stream(&mut strat, 12, 4);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn baseline_kind_labels_are_unique() {
        let labels: Vec<&str> = BaselineKind::EXTENDED.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn herding_respects_capacity_and_fills() {
        let mut strat = Herding::new();
        let buf = run_stream(&mut strat, 25, 6);
        assert_eq!(buf.len(), 6);
    }

    #[test]
    fn herding_tracks_running_means() {
        let mut h = Herding::new();
        let f1 = Tensor::from_vec(vec![2.0, 0.0], [2]);
        let f2 = Tensor::from_vec(vec![0.0, 2.0], [2]);
        h.update_running_mean(0, &f1);
        h.update_running_mean(0, &f2);
        let (mean, count) = &h.class_means[&0];
        assert_eq!(*count, 2);
        assert_eq!(mean.data(), &[1.0, 1.0]);
    }

    #[test]
    fn herding_breaks_largest_class_ties_by_lowest_label() {
        // Classes 3 and 1 tie as the largest; a class-0 candidate has no
        // exemplars, so it takes the first label-1 slot — every time, with
        // a fresh strategy (and fresh hash maps) per run.
        let mut rng = Rng::new(11);
        let model = tiny_model(&mut rng);
        for _ in 0..32 {
            let mut strat = Herding::new();
            let mut buffer = ReplayBuffer::new(4);
            for (i, label) in [3, 1, 3, 1, 0].into_iter().enumerate() {
                let mut ctx = SelectionContext {
                    model: &model,
                    rng: &mut rng,
                };
                strat.offer(&mut buffer, item(label, 0.5, i as f32), &mut ctx);
            }
            let labels: Vec<usize> = buffer.items().iter().map(|it| it.label).collect();
            assert_eq!(labels, vec![3, 0, 3, 1]);
        }
    }

    #[test]
    fn herding_swaps_toward_class_mean() {
        // Buffer of one class; an exemplar far from the running mean should
        // be displaced by a candidate near it.
        let mut rng = Rng::new(8);
        let model = ConvNet::new(
            ConvNetConfig {
                in_channels: 1,
                image_side: 8,
                width: 4,
                depth: 2,
                num_classes: 4,
                norm: false,
            },
            &mut rng,
        );
        let mut strat = Herding::new();
        let mut buffer = ReplayBuffer::new(2);
        // Feed several items at fill value 1.0 (the class mode), one outlier
        // at 30.0, then more at 1.0 — the outlier should eventually leave.
        let fills = [1.0f32, 30.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        for (i, &fill) in fills.iter().enumerate() {
            let mut ctx = SelectionContext {
                model: &model,
                rng: &mut rng,
            };
            strat.offer(&mut buffer, item(2, 0.5, fill + 0.001 * i as f32), &mut ctx);
        }
        let max_fill = buffer
            .items()
            .iter()
            .map(|it| it.image.data()[0])
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(max_fill < 5.0, "outlier survived herding: {max_fill}");
    }
}
