//! `condense_step`: single-thread wall time and allocation behaviour of
//! one condensation step — the matcher's five-pass Eq. 7 step and a full
//! DM round. This is the headline bench for the condense-step fast path.
//!
//! Writes `BENCH_condense.json` at the repository root (linked from
//! EXPERIMENTS.md), following the `BENCH_kernels.json` schema
//! conventions. A counting `#[global_allocator]` measures heap
//! allocations per step.
//!
//! A second section sweeps the buffer's at-rest storage precision: one
//! DM condense round per [`StorageDtype`] (the f32 working mirror makes
//! the compute identical — the delta is the per-segment
//! `commit_storage` snap) plus the resulting at-rest buffer bytes and
//! the reduction relative to f32. Restrict the sweep with
//! `--storage-dtype f32,i8`.
//!
//! ```bash
//! cargo bench -p deco-bench --bench condense_step            # full run
//! DECO_BENCH_ITERS=5 cargo bench -p deco-bench --bench condense_step -- --check
//! ```
//!
//! `--check` reads the committed `BENCH_condense.json` *before*
//! overwriting it and fails (exit 1) if `one_step_match` got
//! slower than [`CHECK_FACTOR`] × the committed mean — a generous
//! threshold meant to catch order-of-magnitude regressions on shared CI
//! runners, not micro-noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use deco_condense::{
    one_step_match, CondenseContext, Condenser, DmCondenser, DmConfig, MatchBatch, SegmentData,
    SyntheticBuffer,
};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_telemetry::json::Json;
use deco_tensor::{Rng, StorageDtype, Tensor};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Regression gate for `--check`: fail if the tracked op's mean exceeds
/// this multiple of the committed baseline.
const CHECK_FACTOR: f64 = 2.5;
/// Op the `--check` gate tracks.
const CHECK_OP: &str = "one_step_match";

fn iters() -> usize {
    std::env::var("DECO_BENCH_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(30)
}

fn net(rng: &mut Rng) -> ConvNet {
    ConvNet::new(
        ConvNetConfig {
            in_channels: 3,
            image_side: 16,
            width: 8,
            depth: 3,
            num_classes: 10,
            norm: true,
        },
        rng,
    )
}

struct OpResult {
    name: &'static str,
    mean_ms: f64,
    allocs_per_op: f64,
}

/// Times `f` single-threaded: one warm-up call, then `iters` timed
/// calls with the allocation counter read around the timed region.
fn time_op(name: &'static str, iters: usize, mut f: impl FnMut()) -> OpResult {
    deco_runtime::with_thread_count(1, move || {
        f();
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        OpResult {
            name,
            mean_ms: secs * 1e3,
            allocs_per_op: allocs as f64 / iters as f64,
        }
    })
}

fn bench_ops(iters: usize) -> Vec<OpResult> {
    let mut rng = Rng::new(1);
    let model = net(&mut rng);
    let syn = Tensor::randn([5, 3, 16, 16], &mut rng);
    let syn_labels = vec![0usize; 5];
    let real = Tensor::randn([32, 3, 16, 16], &mut rng);
    let real_labels = vec![0usize; 32];
    let step = |_: ()| {
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &syn_labels,
            real_images: &real,
            real_labels: &real_labels,
            real_weights: None,
        };
        std::hint::black_box(one_step_match(&model, &batch, None, 0.01));
    };

    let mut dm_rng = Rng::new(3);
    let scratch = net(&mut dm_rng);
    let deployed = net(&mut dm_rng);
    let images = Tensor::randn([32, 3, 16, 16], &mut dm_rng);
    let labels = vec![3usize; 32];
    let weights = vec![1.0f32; 32];
    let mut buffer = SyntheticBuffer::new_random(5, 10, [3, 16, 16], &mut dm_rng);
    let mut dm = DmCondenser::new(DmConfig::default());
    let mut dm_round = move |round_rng: &mut Rng| {
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[3],
        };
        let mut ctx = CondenseContext {
            scratch: &scratch,
            deployed: &deployed,
            rng: round_rng,
        };
        dm.condense(&mut buffer, &seg, &mut ctx);
    };

    let mut round_rng = Rng::new(7);
    vec![
        time_op(CHECK_OP, iters, || step(())),
        time_op("dm_round", iters, || dm_round(&mut round_rng)),
    ]
}

struct DtypeResult {
    dtype: StorageDtype,
    mean_round_ms: f64,
    commit_ms: f64,
    buffer_bytes: u64,
}

/// One DM condense round per storage precision over an identically
/// seeded buffer, plus the per-segment `commit_storage` cost and the
/// at-rest footprint of the committed buffer.
fn bench_storage_dtypes(iters: usize, dtypes: &[StorageDtype]) -> Vec<DtypeResult> {
    dtypes
        .iter()
        .map(|&dtype| {
            deco_runtime::with_thread_count(1, move || {
                let mut rng = Rng::new(3);
                let scratch = net(&mut rng);
                let deployed = net(&mut rng);
                let images = Tensor::randn([32, 3, 16, 16], &mut rng);
                let labels = vec![3usize; 32];
                let weights = vec![1.0f32; 32];
                let mut buffer = SyntheticBuffer::new_random(5, 10, [3, 16, 16], &mut rng)
                    .with_storage_dtype(dtype);
                let mut dm = DmCondenser::new(DmConfig::default());
                let mut round_rng = Rng::new(7);
                let mut round = |buffer: &mut SyntheticBuffer, rng: &mut Rng| {
                    let seg = SegmentData {
                        images: &images,
                        labels: &labels,
                        weights: &weights,
                        active_classes: &[3],
                    };
                    let mut ctx = CondenseContext {
                        scratch: &scratch,
                        deployed: &deployed,
                        rng,
                    };
                    dm.condense(buffer, &seg, &mut ctx);
                };
                round(&mut buffer, &mut round_rng); // warm-up
                buffer.commit_storage();
                let start = Instant::now();
                for _ in 0..iters {
                    round(&mut buffer, &mut round_rng);
                }
                let round_secs = start.elapsed().as_secs_f64() / iters as f64;
                let start = Instant::now();
                for _ in 0..iters {
                    buffer.commit_storage();
                }
                let commit_secs = start.elapsed().as_secs_f64() / iters as f64;
                DtypeResult {
                    dtype,
                    mean_round_ms: round_secs * 1e3,
                    commit_ms: commit_secs * 1e3,
                    buffer_bytes: buffer.approx_bytes(),
                }
            })
        })
        .collect()
}

fn baseline_mean_ms(path: &str, op: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text).ok()?;
    json.get("ops")?
        .as_array()?
        .iter()
        .find(|o| o.get("op").and_then(Json::as_str) == Some(op))?
        .get("mean_ms")?
        .as_f64()
}

fn parse_dtypes() -> Vec<StorageDtype> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--storage-dtype" {
            let list = args.get(i + 1).expect("--storage-dtype needs a value");
            return list
                .split(',')
                .map(|name| {
                    StorageDtype::parse(name.trim())
                        .unwrap_or_else(|| panic!("unknown storage dtype {name:?}"))
                })
                .collect();
        }
    }
    StorageDtype::ALL.to_vec()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let iters = iters();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_condense.json");
    let baseline = baseline_mean_ms(path, CHECK_OP);

    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let dispatch = deco_tensor::ops::simd::active_kernel().name();
    eprintln!(
        "[condense_step] {iters} iters/op, single thread, host parallelism {parallelism}, \
         simd_dispatch {dispatch}"
    );
    let results = bench_ops(iters);

    println!("\n## condense_step — single thread\n");
    println!("| op | 1T mean (ms) | allocs/op |");
    println!("|---|---|---|");
    for r in &results {
        println!("| {} | {:.4} | {:.1} |", r.name, r.mean_ms, r.allocs_per_op);
    }

    let dtypes = parse_dtypes();
    eprintln!(
        "[condense_step] storage-precision sweep: {} dtype(s)",
        dtypes.len()
    );
    let dtype_results = bench_storage_dtypes(iters, &dtypes);
    let f32_bytes = dtype_results
        .iter()
        .find(|r| r.dtype == StorageDtype::F32)
        .map(|r| r.buffer_bytes);
    println!("\n## condense_step — storage precision (at-rest buffer)\n");
    println!("| dtype | DM round (ms) | commit (ms) | buffer bytes | vs f32 |");
    println!("|---|---|---|---|---|");
    for r in &dtype_results {
        let ratio = f32_bytes
            .map(|f| f as f64 / r.buffer_bytes as f64)
            .unwrap_or(0.0);
        println!(
            "| {} | {:.4} | {:.4} | {} | {:.2}x |",
            r.dtype, r.mean_round_ms, r.commit_ms, r.buffer_bytes, ratio
        );
    }

    let ops: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("op", Json::Str(r.name.to_string())),
                ("mean_ms", Json::Num(r.mean_ms)),
                ("allocs_per_op", Json::Num(r.allocs_per_op)),
            ])
        })
        .collect();
    let dtype_rows: Vec<Json> = dtype_results
        .iter()
        .map(|r| {
            let ratio = f32_bytes
                .map(|f| f as f64 / r.buffer_bytes as f64)
                .unwrap_or(0.0);
            Json::obj([
                ("dtype", Json::Str(r.dtype.label().to_string())),
                ("mean_round_ms", Json::Num(r.mean_round_ms)),
                ("commit_ms", Json::Num(r.commit_ms)),
                ("buffer_bytes", Json::Num(r.buffer_bytes as f64)),
                ("reduction_vs_f32", Json::Num(ratio)),
            ])
        })
        .collect();
    let report = Json::obj([
        ("bench", Json::Str("condense_step".to_string())),
        ("iters_per_point", Json::Num(iters as f64)),
        ("threads", Json::Num(1.0)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("simd_dispatch", Json::Str(dispatch.to_string())),
        ("ops", Json::Arr(ops)),
        ("storage_dtypes", Json::Arr(dtype_rows)),
    ]);
    let mut text = report.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("write BENCH_condense.json");
    eprintln!("[condense_step] wrote {path}");

    if check {
        let current = results
            .iter()
            .find(|r| r.name == CHECK_OP)
            .expect("tracked op missing")
            .mean_ms;
        match baseline {
            Some(base) if current > base * CHECK_FACTOR => {
                eprintln!(
                    "[condense_step] REGRESSION: {CHECK_OP} {current:.4} ms > \
                     {CHECK_FACTOR} x committed {base:.4} ms"
                );
                std::process::exit(1);
            }
            Some(base) => {
                eprintln!(
                    "[condense_step] check ok: {CHECK_OP} {current:.4} ms vs \
                     committed {base:.4} ms (limit {CHECK_FACTOR}x)"
                );
            }
            None => {
                eprintln!("[condense_step] check skipped: no committed baseline for {CHECK_OP}");
            }
        }
    }
}
