//! `deco-perfbench`: one run of one workload of the repository's
//! benchmark. `perfbench/run.py` builds this binary, runs it as a child
//! process (so that it can read the child's peak resident memory from
//! outside) and turns the raw samples printed here into the benchmark's
//! metrics.
//!
//! ```text
//! deco-perfbench --workload <device_stream|serve_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! The last line of stdout is one JSON object of raw samples: set-up
//! times, per-segment latencies, items absorbed and steady-state seconds,
//! at-rest state sizes, final accuracies, attempted and failed segments,
//! the correctness checks, a host and knob fingerprint and, with
//! `--trace 1`, the per-layer ledger.

mod fleet;
mod ledger;
mod streams;

use std::path::PathBuf;
use std::time::Duration;

use deco_telemetry::json::Json;

/// Raw samples of one workload run, shared by every workload.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// Set-up time of each learner or fleet built during the run, seconds.
    pub setup_s: Vec<f64>,
    /// Steady-state latency of each absorbed segment (or served event), ms.
    pub segment_ms: Vec<f64>,
    /// Stream items absorbed in steady state.
    pub items: u64,
    /// Steady-state wall time those items took.
    pub steady: Duration,
    /// At-rest state kept between segments, one entry per learner/tenant.
    pub state_bytes: Vec<u64>,
    /// Final test accuracy of each learner in the run's fixed accuracy set.
    pub accuracy: Vec<f32>,
    /// Segments (or events) offered.
    pub attempted: u64,
    /// Offered segments that panicked or went missing.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer metrics `(name, value, unit)`; traced runs only.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Segments (or events) the per-layer metrics were measured over.
    pub traced_segments: u64,
}

impl RunRecord {
    /// Records a check; a name checked more than once holds only if
    /// every instance held.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, held)) => *held &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    fn to_json(&self, workload: &str, threads: usize) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("fingerprint", fingerprint(threads)),
            ("setup_s", nums(&self.setup_s)),
            ("segment_ms", nums(&self.segment_ms)),
            ("items", Json::Num(self.items as f64)),
            ("steady_s", Json::Num(self.steady.as_secs_f64())),
            (
                "state_bytes",
                Json::Arr(
                    self.state_bytes
                        .iter()
                        .map(|&b| Json::Num(b as f64))
                        .collect(),
                ),
            ),
            (
                "accuracy",
                Json::Arr(
                    self.accuracy
                        .iter()
                        .map(|&a| Json::Num(f64::from(a)))
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|&(name, ok)| (name.to_string(), Json::Bool(ok)))
                        .collect(),
                ),
            ),
            ("traced_segments", Json::Num(self.traced_segments as f64)),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(value)),
                                    ("unit", Json::Str(unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The host and every knob that changes speed or numerics, so that runs
/// from different hosts or knob states are never compared silently.
fn fingerprint(threads: usize) -> Json {
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DECO_"))
        .collect();
    env.sort();
    Json::obj([
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("runtime_threads", Json::Num(threads as f64)),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        (
            "gemm_kernel",
            Json::Str(deco_tensor::ops::simd::active_kernel().name().to_string()),
        ),
        ("fusion", Json::Bool(deco_tensor::fusion::enabled())),
        ("plan_cache", Json::Bool(deco_tensor::plancache::enabled())),
        (
            "env",
            Json::Obj(env.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scratch) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            "--scratch" => scratch = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("deco-perfbench: {e}");
        std::process::exit(2);
    });
    let budget = Duration::from_secs_f64(args.seconds);
    let (record, threads) = match args.workload.as_str() {
        "device_stream" => (
            streams::run(args.seed, budget, args.trace),
            streams::THREADS,
        ),
        "serve_fleet" => (
            fleet::run(args.seed, budget, args.trace, &args.scratch),
            fleet::THREADS,
        ),
        other => {
            eprintln!("deco-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        record.to_json(&args.workload, threads).to_string_compact()
    );
}
