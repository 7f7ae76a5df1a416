//! Model training and evaluation helpers shared by the learner, the
//! pre-training stage and the experiment harness.

use deco_datasets::LabeledSet;
use deco_nn::{weighted_cross_entropy, ConvNet, Sgd};
use deco_tensor::{Reduction, Tensor, Var};

/// Paper default weight decay.
pub const WEIGHT_DECAY: f32 = 5e-4;

/// Trains `net` with full-batch SGD for `steps` steps on a labeled batch,
/// optionally weighting samples by confidence (Eq. 4). Returns the final
/// loss.
///
/// # Panics
/// Panics on label/weight length mismatches.
pub fn train_classifier(
    net: &ConvNet,
    images: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
    steps: usize,
    opt: &mut Sgd,
) -> f32 {
    let mut last = 0.0;
    for _ in 0..steps {
        let logits = net.forward(&Var::constant(images.clone()), false);
        let loss = weighted_cross_entropy(&logits, labels, weights, Reduction::Mean);
        loss.backward();
        opt.step(&net.params());
        last = loss.value().item();
    }
    last
}

/// Pre-trains a model on the small labeled set available before deployment
/// (the paper uses 1 % of labels, 10 % for CIFAR-100).
pub fn pretrain(net: &ConvNet, set: &LabeledSet, steps: usize, lr: f32) -> f32 {
    let mut opt = Sgd::new(lr)
        .with_momentum(0.9)
        .with_weight_decay(WEIGHT_DECAY);
    train_classifier(net, &set.images, &set.labels, None, steps, &mut opt)
}

/// Top-1 accuracy of `net` on a labeled set, evaluated in chunks to bound
/// memory.
///
/// # Panics
/// Panics on an empty set.
pub fn accuracy(net: &ConvNet, set: &LabeledSet) -> f32 {
    assert!(!set.is_empty(), "cannot evaluate on an empty set");
    let n = set.len();
    let chunk = 128;
    let mut correct = 0usize;
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let images = set.images.select_rows(&idx);
        let logits = net.forward(&Var::constant(images), true);
        for (row, pred) in logits.value().argmax_rows().into_iter().enumerate() {
            if pred == set.labels[start + row] {
                correct += 1;
            }
        }
        start = end;
    }
    correct as f32 / n as f32
}

/// The `num_classes × num_classes` confusion matrix of `net` on a labeled
/// set: `matrix[true][predicted]` counts.
pub fn confusion_matrix(net: &ConvNet, set: &LabeledSet, num_classes: usize) -> Vec<Vec<usize>> {
    let mut matrix = vec![vec![0usize; num_classes]; num_classes];
    let n = set.len();
    let chunk = 128;
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let images = set.images.select_rows(&idx);
        let logits = net.forward(&Var::constant(images), true);
        for (row, pred) in logits.value().argmax_rows().into_iter().enumerate() {
            let truth = set.labels[start + row];
            if truth < num_classes && pred < num_classes {
                matrix[truth][pred] += 1;
            }
        }
        start = end;
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_nn::ConvNetConfig;
    use deco_tensor::Rng;

    fn separable_set(rng: &mut Rng, n_per_class: usize) -> LabeledSet {
        // Two classes with clearly different mean intensity.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for _ in 0..n_per_class {
                for _ in 0..64 {
                    data.push(if class == 0 { -1.0 } else { 1.0 } + 0.3 * rng.normal());
                }
                labels.push(class);
            }
        }
        LabeledSet {
            images: Tensor::from_vec(data, [2 * n_per_class, 1, 8, 8]),
            labels,
        }
    }

    fn tiny_net(rng: &mut Rng) -> ConvNet {
        ConvNet::new(
            ConvNetConfig {
                in_channels: 1,
                image_side: 8,
                width: 4,
                depth: 2,
                num_classes: 2,
                norm: false,
            },
            rng,
        )
    }

    #[test]
    fn training_over_fresh_batches_returns_every_buffer_to_the_pool() {
        // A batch keeps its im2col columns only as long as the batch
        // itself lives. Once warm, a step over a fresh batch is served
        // entirely from the pool, and the pool's held bytes do not grow
        // by anything near one batch's columns over many steps.
        deco_runtime::with_thread_count(1, || {
            let mut rng = Rng::new(4);
            let net = tiny_net(&mut rng);
            let mut opt = Sgd::new(0.05).with_momentum(0.9);
            let labels: Vec<usize> = (0..14).map(|i| i % 2).collect();
            let mut step = |rng: &mut Rng| {
                let images = Tensor::randn([14, 1, 8, 8], rng);
                train_classifier(&net, &images, &labels, None, 2, &mut opt);
                deco_tensor::pool::stats()
            };
            for _ in 0..3 {
                step(&mut rng);
            }
            let warm = step(&mut rng);
            let mut now = warm;
            for i in 0..10 {
                now = step(&mut rng);
                assert_eq!(now.misses, warm.misses, "step {i} missed the pool");
            }
            // First conv: 14 images × (1·3·3 taps × 8·8 positions) f32.
            let cols_bytes = 14 * 9 * 64 * 4;
            assert!(
                now.held_bytes < warm.held_bytes + cols_bytes,
                "pool grew from {} to {} bytes",
                warm.held_bytes,
                now.held_bytes
            );
        });
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let mut rng = Rng::new(1);
        let net = tiny_net(&mut rng);
        let set = separable_set(&mut rng, 10);
        pretrain(&net, &set, 60, 0.02);
        let acc = accuracy(&net, &set);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn accuracy_of_untrained_net_is_near_chance() {
        let mut rng = Rng::new(2);
        let net = tiny_net(&mut rng);
        let set = separable_set(&mut rng, 50);
        let acc = accuracy(&net, &set);
        assert!((0.2..=0.8).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn confusion_matrix_sums_to_set_size() {
        let mut rng = Rng::new(3);
        let net = tiny_net(&mut rng);
        let set = separable_set(&mut rng, 7);
        let m = confusion_matrix(&net, &set, 2);
        let total: usize = m.iter().flatten().sum();
        assert_eq!(total, 14);
        // Row sums equal per-class counts.
        assert_eq!(m[0].iter().sum::<usize>(), 7);
        assert_eq!(m[1].iter().sum::<usize>(), 7);
    }

    #[test]
    fn weighted_training_ignores_zero_weight_samples() {
        let mut rng = Rng::new(4);
        let net = tiny_net(&mut rng);
        let set = separable_set(&mut rng, 5);
        // Flip the labels of every other sample but zero those samples'
        // weights: training signal comes only from the correctly labeled
        // half (both classes stay represented there).
        let mut labels = set.labels.clone();
        let n = labels.len();
        let mut weights = vec![1.0f32; n];
        for i in (0..n).step_by(2) {
            labels[i] = 1 - labels[i];
            weights[i] = 0.0;
        }
        let mut opt = Sgd::new(0.02).with_momentum(0.9);
        train_classifier(&net, &set.images, &labels, Some(&weights), 60, &mut opt);
        let acc = accuracy(&net, &set);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn chunked_evaluation_matches_small_batches() {
        // More samples than one chunk to exercise the loop.
        let mut rng = Rng::new(5);
        let net = tiny_net(&mut rng);
        let set = separable_set(&mut rng, 80); // 160 samples > 128 chunk
        let full = accuracy(&net, &set);
        // Accuracy over two manual halves must average to the same value.
        let idx_a: Vec<usize> = (0..80).collect();
        let idx_b: Vec<usize> = (80..160).collect();
        let a = accuracy(&net, &set.select(&idx_a));
        let b = accuracy(&net, &set.select(&idx_b));
        assert!((full - (a + b) / 2.0).abs() < 1e-6);
    }
}
