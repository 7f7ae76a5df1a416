//! Bench-side tracing for the `--trace 1` run: the wall time spent inside
//! calls into each layer's public functions, timed from this package
//! around the calls, plus the counts the per-layer metrics are made of.
//! The program itself carries no tracing for this benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// System allocator wrapped with an allocation counter, so that the
/// traced run can report allocations per segment. It is installed in
/// every run, traced or not, so both runs execute the same allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates directly to `System` with the caller's
// arguments; the counter is a relaxed statistic that publishes no other
// data. `realloc` and `alloc_zeroed` use the trait's defaults, which call
// `alloc` and so are counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above, that is by
        // `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` with telemetry on, so that the autograd tape counts its bytes.
/// Telemetry slows every layer, so this is for one extra, untimed pass
/// whose only output is the tape high-water mark.
pub fn with_tape_accounting<R>(f: impl FnOnce() -> R) -> R {
    deco_telemetry::set_enabled(true);
    let out = f();
    deco_telemetry::set_enabled(false);
    deco_telemetry::reset();
    out
}

/// Stream rendering: `SyntheticVision::new`, `Stream::next`,
/// `pretrain_set`, `test_set`, `TenantSession::next_segment`.
pub const RENDER: &str = "datasets.render_ms";
/// `OnDeviceLearner::prepare_segment`: pseudo-label and vote.
pub const PREPARE: &str = "core.prepare_ms";
/// `condense_prepared` of a condensing (DECO or DM) learner.
pub const CONDENSE: &str = "core.condense_ms";
/// `condense_prepared` of a selection learner and its buffer pre-fill
/// (`SelectionStrategy::offer`).
pub const OFFER: &str = "replay.offer_ms";
/// `complete_segment` of a segment that retrains the model.
pub const TRAIN: &str = "core.train_model_ms";
/// `complete_segment` of any other segment.
pub const COMPLETE: &str = "core.complete_ms";
/// `deco_begin_segment` and `deco_build_iteration`.
pub const BUILD: &str = "condense.build_ms";
/// `match_jobs_parallel` over one batch's merged jobs.
pub const MATCH: &str = "condense.match_ms";
/// `deco_apply_iteration`.
pub const APPLY: &str = "condense.apply_ms";
/// `TenantSession::state` plus `SessionState::save`.
pub const SAVE: &str = "wire.save_ms";
/// `SessionState::load` plus `TenantSession::from_state`.
pub const LOAD: &str = "wire.load_ms";
/// `TenantSession::new`: a tenant built on first touch (pre-training
/// included).
pub const TENANT_BUILD: &str = "serve.tenant_build_ms";
/// `deco::pretrain`.
pub const PRETRAIN: &str = "eval.pretrain_ms";
/// `OnDeviceLearner::evaluate`.
pub const EVALUATE: &str = "eval.evaluate_ms";

/// Every timed layer, in report order.
const LAYERS: [&str; 14] = [
    RENDER,
    PREPARE,
    CONDENSE,
    OFFER,
    TRAIN,
    COMPLETE,
    BUILD,
    MATCH,
    APPLY,
    SAVE,
    LOAD,
    TENANT_BUILD,
    PRETRAIN,
    EVALUATE,
];

/// Busy time per layer and the counts behind the per-layer ratios.
#[derive(Debug, Default)]
pub struct Ledger {
    busy: BTreeMap<&'static str, Duration>,
    /// Wall time of the traced work the layers are meant to cover.
    pub wall: Duration,
    /// Steady-state time of the traced segments and the items they
    /// carried (for the overhead ratio).
    pub steady: Duration,
    /// See `steady`.
    pub steady_items: u64,
    /// Segments (or events) absorbed under tracing.
    pub segments: u64,
    /// Items that went through majority voting (a segment counts once per
    /// learner that voted on it), and the items the vote kept.
    pub voted: u64,
    /// See `voted`.
    pub kept: u64,
    /// Allocations made while absorbing the traced segments.
    pub allocs: u64,
    /// Buffer-pool hits and misses on the calling thread.
    pub pool_hits: u64,
    /// See `pool_hits`.
    pub pool_misses: u64,
    /// Most bytes seen parked in the calling thread's buffer-pool free
    /// lists.
    pub pool_held_bytes: u64,
    /// Highest autograd-tape high-water mark seen on the calling thread.
    pub tape_peak_bytes: u64,
    /// Merged `match_jobs_parallel` dispatches and the jobs they carried.
    pub dispatches: u64,
    /// See `dispatches`.
    pub jobs: u64,
    /// Batch wall time outside `match_jobs_parallel`.
    pub serial: Duration,
    /// Serving rounds, and the evictions and rehydrations the server made
    /// in them.
    pub rounds: u64,
    /// See `rounds`.
    pub evictions: u64,
    /// See `rounds`.
    pub rehydrations: u64,
    /// Serialized session sizes, summed, and how many were summed.
    pub session_bytes: u64,
    /// See `session_bytes`.
    pub sessions: u64,
}

impl Ledger {
    /// Runs `f`, adding its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Adds `elapsed` to `layer`.
    pub fn add(&mut self, layer: &'static str, elapsed: Duration) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        *self.busy.entry(layer).or_default() += elapsed;
    }

    /// Busy time recorded under `layer` so far.
    pub fn busy(&self, layer: &'static str) -> Duration {
        self.busy.get(layer).copied().unwrap_or_default()
    }

    /// Adds this thread's buffer-pool counters since `before` and raises
    /// the held-bytes high-water mark.
    pub fn add_pool_since(&mut self, before: deco_tensor::pool::PoolStats) {
        let now = deco_tensor::pool::stats();
        self.pool_hits += now.hits - before.hits;
        self.pool_misses += now.misses - before.misses;
        self.pool_held_bytes = self.pool_held_bytes.max(now.held_bytes);
    }

    /// Raises the tape high-water mark to this thread's current peak. The
    /// tape counts its bytes only while telemetry is on; see
    /// [`with_tape_accounting`].
    pub fn note_tape_peak(&mut self) {
        self.tape_peak_bytes = self.tape_peak_bytes.max(deco_tensor::tape_peak_bytes());
    }

    /// The per-layer metrics. Every `_ms` metric is that layer's busy time
    /// per traced segment, so the layers plus `unattributed_frac` add up to
    /// the traced wall time per segment. A layer the workload never calls
    /// reads 0. `untraced_items_per_s` is the same work's throughput with
    /// no per-layer timing, for `trace_overhead_frac`.
    pub fn metrics(&self, untraced_items_per_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let mut out: Vec<(&'static str, f64, &'static str)> = LAYERS
            .iter()
            .map(|&layer| {
                let ms = self.busy(layer).as_secs_f64() * 1e3;
                (layer, per(ms, self.segments), "ms")
            })
            .collect();
        let serial_ms = self.serial.as_secs_f64() * 1e3;
        let covered: Duration = self.busy.values().sum();
        let traced_items_per_s = self.steady_items as f64 / self.steady.as_secs_f64().max(1e-9);
        out.extend([
            (
                "core.kept_ratio",
                per(self.kept as f64, self.voted),
                "fraction",
            ),
            (
                "condense.jobs_per_dispatch",
                per(self.jobs as f64, self.dispatches),
                "jobs",
            ),
            ("serve.serial_ms", per(serial_ms, self.segments), "ms"),
            (
                "wire.session_bytes",
                per(self.session_bytes as f64, self.sessions),
                "B",
            ),
            (
                "serve.evictions",
                per(self.evictions as f64, self.rounds),
                "1/round",
            ),
            (
                "serve.rehydrations",
                per(self.rehydrations as f64, self.rounds),
                "1/round",
            ),
            (
                "tensor.allocs_per_segment",
                per(self.allocs as f64, self.segments),
                "count",
            ),
            ("tensor.tape_peak_bytes", self.tape_peak_bytes as f64, "B"),
            (
                "tensor.pool_hit_ratio",
                per(self.pool_hits as f64, self.pool_hits + self.pool_misses),
                "fraction",
            ),
            ("tensor.pool_held_bytes", self.pool_held_bytes as f64, "B"),
            (
                "unattributed_frac",
                1.0 - covered.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
                "fraction",
            ),
            (
                "trace_overhead_frac",
                1.0 - traced_items_per_s / untraced_items_per_s.max(1e-9),
                "fraction",
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use deco_telemetry::json::Json;

    /// The per-layer metrics the ledger prints, with their units, are
    /// exactly the ones `BENCHMARK.json` declares.
    #[test]
    fn printed_layer_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
        let mut declared: Vec<(String, String)> = spec
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer is a list")
            .iter()
            .map(|m| {
                (
                    field(m, "name").expect("name"),
                    field(m, "unit").expect("unit"),
                )
            })
            .collect();
        let mut printed: Vec<(String, String)> = super::Ledger::default()
            .metrics(1.0)
            .into_iter()
            .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
            .collect();
        declared.sort_unstable();
        printed.sort_unstable();
        assert_eq!(printed, declared);
    }
}
