//! The single-thread workload, `device_stream`: a DECO, a DM and a K-Center
//! raw-replay learner absorb smoke-scale CORe50-analogue streams back to
//! back on one thread, like one edge device. The three learners absorb the
//! same stream one after another and their per-segment times are added, so
//! a segment's latency is one sample. Each learner is built the way
//! `deco_eval::run_trial` builds it, at the Table I/II settings with IpC 5.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use deco::{pretrain, BufferPolicy, DecoCondenser, DecoConfig, LearnerConfig, OnDeviceLearner};
use deco_condense::{DmCondenser, DmConfig, SyntheticBuffer};
use deco_datasets::{Segment, Stream, StreamConfig, SyntheticVision};
use deco_eval::{DatasetId, ExperimentScale, ScaleParams};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_replay::{BaselineKind, BufferItem, ReplayBuffer, SelectionContext};
use deco_tensor::Rng;

use crate::ledger::{
    self, Ledger, COMPLETE, CONDENSE, EVALUATE, OFFER, PREPARE, PRETRAIN, RENDER, TRAIN,
};
use crate::RunRecord;

/// Runtime threads: a single edge device.
pub const THREADS: usize = 1;
/// Images (or stored items) per class, as in Tables I and II.
const IPC: usize = 5;
/// Test images per class for the final accuracy. Larger than the smoke
/// scale's 4 so that one image moves the accuracy by 0.5%, not 2.5%.
const TEST_PER_CLASS: usize = 20;
/// Streams whose learners make up the accuracy metric: the first ones of a
/// run. A run always absorbs at least these streams, so the metric covers
/// the same learners whatever the host's speed.
const ACCURACY_STREAMS: usize = 6;

/// The learners of every stream, in the order they absorb it.
const METHODS: [Method; 3] = [Method::Deco, Method::Dm, Method::KCenter];

/// A buffer-maintenance method under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    /// The paper's method.
    Deco,
    /// Distribution matching.
    Dm,
    /// K-Center raw replay.
    KCenter,
}

fn params() -> ScaleParams {
    ExperimentScale::Smoke.params(DatasetId::Core50)
}

/// The learner seed (and stream seed) of stream `j` of a run.
fn stream_seed(seed: u64, j: usize) -> u64 {
    let mut z = seed ^ (j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one learner left behind at the end of its stream.
#[derive(Debug)]
struct Outcome {
    /// `None` when a segment panicked.
    accuracy: Option<f32>,
    checksum: u64,
    state_bytes: u64,
}

/// What one stream left behind.
#[derive(Debug, Default)]
struct StreamRun {
    setup: Duration,
    segment_ms: Vec<f64>,
    items: u64,
    steady: Duration,
    attempted: u64,
    failed: u64,
    learners: Vec<Outcome>,
}

impl StreamRun {
    /// No failures, and the same accuracy bits and buffer checksum as
    /// `other` for every learner.
    fn same_as(&self, other: &StreamRun) -> bool {
        self.failed == 0
            && other.failed == 0
            && self.learners.len() == other.learners.len()
            && self.learners.iter().zip(&other.learners).all(|(a, b)| {
                a.accuracy.map(f32::to_bits) == b.accuracy.map(f32::to_bits)
                    && a.checksum == b.checksum
            })
    }
}

/// Runs the workload: streams back to back until `budget` has passed and,
/// untraced, the first [`ACCURACY_STREAMS`] streams are done. Untraced,
/// every learner calls `process_segment`, and stream 0 is repeated at the
/// end to check determinism. Traced, each stream runs twice with the same seed,
/// untraced and through the per-phase calls, and the two must agree bit for
/// bit.
pub fn run(seed: u64, budget: Duration, traced: bool) -> RunRecord {
    deco_runtime::with_thread_count(THREADS, || {
        let mut rec = RunRecord::default();
        let mut ledger = Ledger::default();
        let mut untimed = Ledger::default();
        let mut first = None;
        let start = Instant::now();
        // The traced run reports no accuracy, so it need not wait for the
        // accuracy streams.
        let min_streams = if traced { 1 } else { ACCURACY_STREAMS };
        let mut j = 0;
        while j < min_streams || start.elapsed() < budget {
            let s = stream_seed(seed, j);
            // Traced, the pair's order alternates, so that neither side of
            // the overhead ratio always runs on warmer caches.
            let (run, phased) = if !traced {
                (absorb(s, false, &mut untimed), None)
            } else if j % 2 == 0 {
                let run = absorb(s, false, &mut untimed);
                (run, Some(absorb(s, true, &mut ledger)))
            } else {
                let phased = absorb(s, true, &mut ledger);
                (absorb(s, false, &mut untimed), Some(phased))
            };
            if let Some(phased) = phased {
                rec.check("phased_equals_process_segment", run.same_as(&phased));
            }
            if j < ACCURACY_STREAMS {
                rec.accuracy
                    .extend(run.learners.iter().map(|l| l.accuracy.unwrap_or(f32::NAN)));
            }
            rec.setup_s.push(run.setup.as_secs_f64());
            rec.segment_ms.extend(&run.segment_ms);
            rec.items += run.items;
            rec.steady += run.steady;
            rec.attempted += run.attempted;
            rec.failed += run.failed;
            rec.state_bytes
                .extend(run.learners.iter().map(|l| l.state_bytes));
            if j == 0 {
                first = Some(run);
            }
            j += 1;
        }
        if traced {
            let mut probe = Ledger::default();
            ledger::with_tape_accounting(|| absorb(stream_seed(seed, 0), true, &mut probe));
            ledger.tape_peak_bytes = probe.tape_peak_bytes;
            let untraced_items_per_s = rec.items as f64 / rec.steady.as_secs_f64();
            rec.layers = ledger.metrics(untraced_items_per_s);
            rec.traced_segments = ledger.segments;
        } else if let Some(first) = first {
            let again = absorb(stream_seed(seed, 0), false, &mut untimed);
            rec.check("repeated_seed_identical", first.same_as(&again));
        }
        rec
    })
}

/// Absorbs one stream with each of the workload's learners in turn and
/// pairs their samples: a segment's latency is the time all learners took
/// to absorb it, and set-up covers all of them. The learners run one after
/// another, not interleaved, so that only one is resident at a time.
fn absorb(seed: u64, traced: bool, ledger: &mut Ledger) -> StreamRun {
    let passes: Vec<LearnerPass> = METHODS
        .iter()
        .map(|&method| absorb_one(method, seed, traced, ledger))
        .collect();
    let attempted = params().num_segments;
    let absorbed = passes.iter().map(|p| p.segments.len()).min().unwrap_or(0);
    let mut run = StreamRun {
        setup: passes.iter().map(|p| p.setup).sum(),
        attempted: attempted as u64,
        failed: (attempted - absorbed) as u64,
        ..StreamRun::default()
    };
    for k in 0..absorbed {
        run.items += passes[0].segments[k].items;
        run.steady += passes
            .iter()
            .map(|p| p.segments[k].steady)
            .sum::<Duration>();
        let latency: Duration = passes.iter().map(|p| p.segments[k].latency).sum();
        run.segment_ms.push(latency.as_secs_f64() * 1e3);
    }
    run.learners = passes.into_iter().map(|p| p.outcome).collect();
    if traced {
        ledger.segments += absorbed as u64;
        ledger.steady_items += run.items;
        ledger.steady += run.steady;
    }
    run
}

/// One absorbed segment of one learner.
#[derive(Debug)]
struct SegmentSample {
    items: u64,
    /// Render plus absorb.
    steady: Duration,
    /// Absorb only.
    latency: Duration,
}

/// One learner's pass over a stream.
#[derive(Debug)]
struct LearnerPass {
    setup: Duration,
    /// Every segment absorbed before the stream ended or a segment panicked.
    segments: Vec<SegmentSample>,
    outcome: Outcome,
}

/// Builds one learner and its stream from nothing, absorbs the stream and
/// evaluates the learner. Set-up (dataset, pre-training, buffer and
/// learner construction) is timed apart from the steady-state segments.
fn absorb_one(method: Method, seed: u64, traced: bool, ledger: &mut Ledger) -> LearnerPass {
    let p = params();
    let start = Instant::now();
    let data = ledger.time(RENDER, || DatasetId::Core50.build());
    let test = ledger.time(RENDER, || data.test_set(TEST_PER_CLASS));
    let mut learner = build(method, seed, &p, &data, ledger);
    let setup = start.elapsed();
    let mut stream = Stream::new(
        &data,
        StreamConfig {
            stc: p.stc,
            segment_size: p.segment_size,
            num_segments: p.num_segments,
            seed,
        },
    );
    let pool_before = deco_tensor::pool::stats();
    let allocs_before = ledger::allocations();
    let mut segments = Vec::new();
    loop {
        let t = Instant::now();
        let segment = if traced {
            ledger.time(RENDER, || stream.next())
        } else {
            stream.next()
        };
        let Some(segment) = segment else { break };
        let s = Instant::now();
        let absorbed = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                absorb_phased(&mut learner, &segment, ledger);
            } else {
                learner.process_segment(&segment);
            }
        }));
        let latency = s.elapsed();
        if absorbed.is_err() {
            // The learner's state is unknown after a panic: the stream's
            // remaining segments count as failed too.
            break;
        }
        segments.push(SegmentSample {
            items: segment.len() as u64,
            steady: t.elapsed(),
            latency,
        });
    }
    let completed = segments.len() == p.num_segments;
    let outcome = Outcome {
        accuracy: completed.then(|| ledger.time(EVALUATE, || learner.evaluate(&test))),
        checksum: buffer_checksum(&learner),
        state_bytes: learner.buffer_bytes(),
    };
    if traced {
        ledger.allocs += ledger::allocations() - allocs_before;
        ledger.add_pool_since(pool_before);
        ledger.note_tape_peak();
        ledger.wall += start.elapsed();
    }
    LearnerPass {
        setup,
        segments,
        outcome,
    }
}

/// `process_segment` taken apart into its three public phases, each
/// timed: the same calls in the same order, so the same bits.
fn absorb_phased(learner: &mut OnDeviceLearner, segment: &Segment, ledger: &mut Ledger) {
    let prepared = ledger.time(PREPARE, || learner.prepare_segment(segment));
    ledger.voted += segment.len() as u64;
    ledger.kept += prepared.kept() as u64;
    let layer = match learner.policy() {
        BufferPolicy::Condensed { .. } => CONDENSE,
        BufferPolicy::Selection { .. } => OFFER,
    };
    ledger.time(layer, || learner.condense_prepared(&prepared));
    let t = Instant::now();
    let report = learner.complete_segment(prepared);
    ledger.add(
        if report.model_updated {
            TRAIN
        } else {
            COMPLETE
        },
        t.elapsed(),
    );
}

/// FNV-1a over the buffer's training batch: image bits, labels and, for
/// raw replay, confidence weights.
fn buffer_checksum(learner: &OnDeviceLearner) -> u64 {
    let mut bytes = Vec::new();
    if let Some((images, labels, weights)) = learner.policy().training_data() {
        for v in images.data() {
            bytes.extend(v.to_bits().to_le_bytes());
        }
        for l in labels {
            bytes.extend((l as u64).to_le_bytes());
        }
        for w in weights.unwrap_or_default() {
            bytes.extend(w.to_bits().to_le_bytes());
        }
    }
    deco_serve::wire::fnv1a64(&bytes)
}

/// One learner as `deco_eval::run_trial` builds it: the same RNG
/// derivation, pre-training and buffer policy.
fn build(
    method: Method,
    seed: u64,
    p: &ScaleParams,
    data: &SyntheticVision,
    ledger: &mut Ledger,
) -> OnDeviceLearner {
    let spec = data.spec();
    let net = ConvNetConfig {
        in_channels: spec.channels,
        image_side: spec.image_side,
        width: p.net_width,
        depth: p.net_depth,
        num_classes: spec.num_classes,
        norm: true,
    };
    let classes = data.num_classes();
    let mut rng = Rng::new(0xDEC0 ^ seed.wrapping_mul(0x9E37_79B9));
    let model = ConvNet::new(net, &mut rng);
    let pretrain_set = ledger.time(RENDER, || data.pretrain_set(p.pretrain_per_class));
    ledger.time(PRETRAIN, || {
        pretrain(&model, &pretrain_set, p.pretrain_steps, p.pretrain_lr)
    });
    let scratch = ConvNet::new(net, &mut rng);
    let policy = match method {
        Method::Deco => BufferPolicy::Condensed {
            condenser: Box::new(DecoCondenser::new(
                DecoConfig::default()
                    .with_iterations(p.deco_iterations)
                    .with_model_lr(p.model_lr)
                    .with_model_epochs(p.model_epochs)
                    .with_beta(p.beta),
            )),
            buffer: SyntheticBuffer::from_labeled(&pretrain_set, IPC, classes, &mut rng),
        },
        Method::Dm => BufferPolicy::Condensed {
            condenser: Box::new(DmCondenser::new(DmConfig::default())),
            buffer: SyntheticBuffer::from_labeled(&pretrain_set, IPC, classes, &mut rng),
        },
        Method::KCenter => {
            // Pre-filled from the pre-training set, so every method starts
            // from the same labeled knowledge.
            let mut strategy = BaselineKind::KCenter.build();
            let mut buffer = ReplayBuffer::new(IPC * classes);
            let frame: Vec<usize> = pretrain_set.images.shape().dims()[1..].to_vec();
            for i in 0..pretrain_set.len() {
                if buffer.is_full() {
                    break;
                }
                let item = BufferItem {
                    image: pretrain_set.images.select_rows(&[i]).reshape(frame.clone()),
                    label: pretrain_set.labels[i],
                    confidence: 1.0,
                };
                let mut ctx = SelectionContext {
                    model: &model,
                    rng: &mut rng,
                };
                ledger.time(OFFER, || strategy.offer(&mut buffer, item, &mut ctx));
            }
            BufferPolicy::Selection { strategy, buffer }
        }
    };
    OnDeviceLearner::new(
        model,
        scratch,
        policy,
        LearnerConfig {
            vote_threshold: 0.4,
            beta: p.beta,
            model_lr: p.model_lr,
            model_epochs: p.model_epochs,
        },
        rng.fork(1),
    )
}
