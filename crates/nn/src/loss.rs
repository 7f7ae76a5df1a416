//! Loss functions: confidence-weighted cross-entropy (paper Eq. 4) and the
//! feature-discrimination contrastive loss (paper Eq. 8).

use deco_tensor::{Reduction, Tensor, Var};

/// Confidence-weighted softmax cross-entropy (the paper's Eq. 4).
///
/// For synthetic data pass `weights = None` (all weights 1); for real data
/// pass each sample's pseudo-label confidence so low-confidence labels
/// contribute less to the matched gradient.
///
/// # Panics
/// Panics on label/weight length mismatch or out-of-range labels.
pub fn weighted_cross_entropy(
    logits: &Var,
    labels: &[usize],
    weights: Option<&[f32]>,
    reduction: Reduction,
) -> Var {
    // Fused log-softmax + nll, bitwise identical to the
    // `log_softmax().nll(...)` chain.
    logits.log_softmax_cross_entropy(labels, weights, reduction)
}

/// Inputs to [`feature_discrimination_loss`]: for each active sample, its
/// index in the buffer and the randomly drawn negative class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscriminationSpec {
    /// Buffer indices of the active samples (the set `A`).
    pub active: Vec<usize>,
    /// Negative class `c_i^neg` for each active sample (same length).
    pub negative_class: Vec<usize>,
}

/// The feature-discrimination loss of the paper (Eq. 8):
///
/// `L = Σ_{i∈A} −1/|P(i)| Σ_{p∈P(i)} log [ exp(z_i·z_p/τ) / Σ_{n∈N(i)} exp(z_i·z_n/τ) ]`
///
/// where `P(i)` is every other sample with the same label as `i` and `N(i)`
/// every sample of the drawn negative class. Gradients flow through the
/// feature matrix `z`, and from there back into the synthetic images.
///
/// Active samples with no positives (`IpC = 1` leaves `P(i)` empty) are
/// skipped; if every active sample is skipped the loss is a constant zero.
///
/// # Panics
/// Panics if `z` is not `[n, d]`, lengths are inconsistent, an active index
/// or negative class is out of range, a negative class equals the sample's
/// own label, or a negative class has no samples in the buffer.
pub fn feature_discrimination_loss(
    z: &Var,
    labels: &[usize],
    spec: &DiscriminationSpec,
    tau: f32,
) -> Var {
    assert_eq!(z.shape().rank(), 2, "features must be [n, d]");
    let n = z.shape().dim(0);
    assert_eq!(labels.len(), n, "label count mismatch");
    assert_eq!(
        spec.active.len(),
        spec.negative_class.len(),
        "spec length mismatch"
    );
    assert!(tau > 0.0, "temperature must be positive");

    // Keep only active samples with at least one positive partner.
    let mut rows: Vec<usize> = Vec::new(); // buffer index per retained row
    let mut negs: Vec<usize> = Vec::new();
    for (&i, &neg) in spec.active.iter().zip(&spec.negative_class) {
        assert!(i < n, "active index {i} out of range");
        assert!(
            neg != labels[i],
            "negative class equals own label for sample {i}"
        );
        let has_positive = labels
            .iter()
            .enumerate()
            .any(|(j, &y)| j != i && y == labels[i]);
        if has_positive {
            assert!(
                labels.contains(&neg),
                "negative class {neg} has no samples in the buffer"
            );
            rows.push(i);
            negs.push(neg);
        }
    }
    if rows.is_empty() {
        return Var::constant(Tensor::scalar(0.0));
    }
    let m = rows.len();

    // Similarity rows for the retained samples: S = z[rows] · zᵀ / τ.
    let s = z.select_rows(&rows).matmul(&z.t()).mul_scalar(1.0 / tau);

    // Positive weight matrix: w[r, j] = 1/|P(i_r)| for j ∈ P(i_r).
    let mut pos_w = vec![0.0f32; m * n];
    // Negative mask: mask[r, j] = 1 for j ∈ N(i_r).
    let mut neg_mask = vec![0.0f32; m * n];
    for (r, (&i, &neg)) in rows.iter().zip(&negs).enumerate() {
        let positives: Vec<usize> = (0..n)
            .filter(|&j| j != i && labels[j] == labels[i])
            .collect();
        let w = 1.0 / positives.len() as f32;
        for j in positives {
            pos_w[r * n + j] = w;
        }
        for (j, &y) in labels.iter().enumerate() {
            if y == neg {
                neg_mask[r * n + j] = 1.0;
            }
        }
    }
    let pos_w = Tensor::from_vec(pos_w, [m, n]);
    let neg_mask = Tensor::from_vec(neg_mask, [m, n]);

    // loss = Σ_r [ lse_{N(r)}(S_r) − Σ_p w_rp · S_rp ]
    let lse = s.masked_log_sum_exp_rows(&neg_mask).sum();
    let pos_term = s.mul(&Var::constant(pos_w)).sum();
    lse.sub(&pos_term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_tensor::Rng;

    #[test]
    fn weighted_ce_matches_plain_ce_with_unit_weights() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn([3, 4], &mut rng);
        let labels = [0usize, 1, 2];
        let a = weighted_cross_entropy(&Var::constant(t.clone()), &labels, None, Reduction::Mean);
        let b = weighted_cross_entropy(
            &Var::constant(t),
            &labels,
            Some(&[1.0, 1.0, 1.0]),
            Reduction::Mean,
        );
        assert!((a.value().item() - b.value().item()).abs() < 1e-6);
    }

    #[test]
    fn zero_weights_zero_the_loss() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn([2, 3], &mut rng);
        let l = weighted_cross_entropy(
            &Var::constant(t),
            &[0, 1],
            Some(&[0.0, 0.0]),
            Reduction::Sum,
        );
        assert_eq!(l.value().item(), 0.0);
    }

    fn spec_all_active(labels: &[usize], neg_for: impl Fn(usize) -> usize) -> DiscriminationSpec {
        DiscriminationSpec {
            active: (0..labels.len()).collect(),
            negative_class: (0..labels.len()).map(|i| neg_for(labels[i])).collect(),
        }
    }

    #[test]
    fn discrimination_loss_decreases_when_classes_separate() {
        // Two classes, two samples each. Well-separated features must give a
        // smaller loss than collapsed features.
        let labels = [0usize, 0, 1, 1];
        let spec = spec_all_active(&labels, |y| 1 - y);
        let separated = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [4, 2]);
        let collapsed = Tensor::from_vec([[0.7f32, 0.7]; 4].concat(), [4, 2]);
        let l_sep = feature_discrimination_loss(&Var::constant(separated), &labels, &spec, 0.5)
            .value()
            .item();
        let l_col = feature_discrimination_loss(&Var::constant(collapsed), &labels, &spec, 0.5)
            .value()
            .item();
        assert!(l_sep < l_col, "separated {l_sep} vs collapsed {l_col}");
    }

    #[test]
    fn discrimination_gradient_pushes_classes_apart() {
        let mut rng = Rng::new(3);
        let labels = [0usize, 0, 1, 1];
        let spec = spec_all_active(&labels, |y| 1 - y);
        let z0 = Tensor::randn([4, 3], &mut rng);
        let z = Var::leaf(z0.clone(), true);
        let loss0 = feature_discrimination_loss(&z, &labels, &spec, 0.1);
        loss0.backward();
        let g = z.grad().unwrap();
        // One gradient step must reduce the loss.
        let mut z1 = z0.clone();
        z1.add_scaled(&g, -0.05);
        let loss1 = feature_discrimination_loss(&Var::constant(z1), &labels, &spec, 0.1)
            .value()
            .item();
        assert!(loss1 < loss0.value().item());
    }

    #[test]
    fn singleton_classes_are_skipped() {
        // IpC = 1: every P(i) is empty → constant zero loss, no panic.
        let labels = [0usize, 1, 2];
        let spec = spec_all_active(&labels, |y| (y + 1) % 3);
        let mut rng = Rng::new(4);
        let z = Var::leaf(Tensor::randn([3, 2], &mut rng), true);
        let loss = feature_discrimination_loss(&z, &labels, &spec, 0.07);
        assert_eq!(loss.value().item(), 0.0);
    }

    #[test]
    fn partial_active_set_only_involves_active_rows() {
        let labels = [0usize, 0, 1, 1];
        let spec = DiscriminationSpec {
            active: vec![0, 1],
            negative_class: vec![1, 1],
        };
        let mut rng = Rng::new(5);
        let z = Var::leaf(Tensor::randn([4, 2], &mut rng), true);
        feature_discrimination_loss(&z, &labels, &spec, 0.07).backward();
        let g = z.grad().unwrap();
        // Rows 0 and 1 (active, as anchors) must receive gradient.
        let active_norm: f32 = (0..2)
            .map(|i| g.at(&[i, 0]).abs() + g.at(&[i, 1]).abs())
            .sum();
        assert!(active_norm > 0.0);
    }

    #[test]
    fn gradcheck_discrimination_loss() {
        let mut rng = Rng::new(6);
        let labels = [0usize, 0, 1, 1];
        let spec = spec_all_active(&labels, |y| 1 - y);
        let z = Tensor::randn([4, 3], &mut rng);
        let dev = deco_tensor::gradcheck::max_grad_deviation(&[z], 1e-2, 1, |v| {
            feature_discrimination_loss(&v[0], &labels, &spec, 0.5)
        });
        assert!(dev < 2e-2, "deviation {dev}");
    }

    #[test]
    #[should_panic(expected = "negative class equals own label")]
    fn rejects_negative_equal_to_own_class() {
        let labels = [0usize, 0];
        let spec = DiscriminationSpec {
            active: vec![0],
            negative_class: vec![0],
        };
        let z = Var::constant(Tensor::ones([2, 2]));
        let _ = feature_discrimination_loss(&z, &labels, &spec, 0.07);
    }
}
