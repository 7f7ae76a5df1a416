//! Feature-pass budget of one segment: with a full buffer of capacity `C`
//! and `N` candidates, K-Center and Herding run at most `C + 2N` batch-1
//! feature forwards — each stored item once, each candidate once, and one
//! refill per replacement — where per-candidate offers ran about `N·C`.
//!
//! This binary holds a single test because it reads the process-global
//! `replay.feature_passes` counter.

use deco_nn::{ConvNet, ConvNetConfig};
use deco_replay::{BaselineKind, BufferItem, ReplayBuffer, SelectionContext};
use deco_tensor::{Rng, StorageDtype, Tensor};

#[test]
fn one_segment_costs_at_most_capacity_plus_twice_candidates() {
    const CAPACITY: usize = 12;
    const CANDIDATES: usize = 20;
    let mut rng = Rng::new(31);
    let model = ConvNet::new(
        ConvNetConfig {
            in_channels: 1,
            image_side: 8,
            width: 4,
            depth: 2,
            num_classes: 3,
            norm: true,
        },
        &mut rng,
    );
    let item = |rng: &mut Rng| BufferItem {
        image: Tensor::randn([1, 8, 8], rng),
        label: rng.below(3),
        confidence: rng.next_f32(),
    };
    let passes = || deco_telemetry::metrics::counter("replay.feature_passes").get();
    deco_telemetry::set_enabled(true);
    for kind in [BaselineKind::KCenter, BaselineKind::Herding] {
        for dtype in [StorageDtype::F32, StorageDtype::Bf16] {
            let mut strategy = kind.build();
            let mut buffer = ReplayBuffer::with_storage_dtype(CAPACITY, dtype);
            let fill: Vec<BufferItem> = (0..CAPACITY).map(|_| item(&mut rng)).collect();
            let segment: Vec<BufferItem> = (0..CANDIDATES).map(|_| item(&mut rng)).collect();
            let mut ctx = SelectionContext {
                model: &model,
                rng: &mut rng,
            };
            strategy.offer_segment(&mut buffer, fill, &mut ctx);
            assert!(buffer.is_full());
            let before = passes();
            strategy.offer_segment(&mut buffer, segment, &mut ctx);
            let used = passes() - before;
            assert!(
                (CANDIDATES as u64..=(CAPACITY + 2 * CANDIDATES) as u64).contains(&used),
                "{kind} {dtype}: {used} feature passes for one segment"
            );
        }
    }
    deco_telemetry::set_enabled(false);
}
