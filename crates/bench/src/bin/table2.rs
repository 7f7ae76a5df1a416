//! Regenerates **Table II**: execution time and accuracy of the
//! condensation methods DC, DSA, DM and DECO on the CORe50 analogue across
//! the IpC grid. Times are the wall-clock spent inside segment processing
//! (pseudo-labeling + condensation), the cost the paper compares.
//!
//! With `--telemetry`, two raw-replay-buffer baselines (Random, FIFO) join
//! the grid and every entry carries measured `peak_memory_bytes` and
//! per-segment `wall_time_ms`, reproducing the paper's memory model
//! (raw buffer vs. condensed IpC×C images) as a measured quantity, plus
//! the telemetry snapshot of that trial alone.
//!
//! ```bash
//! cargo run -p deco-bench --release --bin table2 -- --scale smoke --telemetry
//! ```

use deco_bench::BenchArgs;
use deco_eval::{
    run_trial, write_json_value, DatasetId, ExperimentScale, MethodKind, ResourceUsage, Table,
    TrialSpec,
};
use deco_replay::BaselineKind;
use deco_telemetry::json::{Json, ToJson};
use deco_telemetry::{impl_to_json, TelemetrySnapshot};

struct Entry {
    method: String,
    ipc: usize,
    seconds: f32,
    accuracy: f32,
    peak_memory_bytes: Option<u64>,
    wall_time_ms: Vec<f64>,
    /// What this trial alone recorded (`None` without `--telemetry`).
    telemetry: Option<TelemetrySnapshot>,
}

impl_to_json!(Entry {
    method,
    ipc,
    seconds,
    accuracy,
    peak_memory_bytes,
    wall_time_ms,
    telemetry
});

fn main() {
    let args = BenchArgs::parse();
    let mut params = args.scale.params(DatasetId::Core50);
    // Timing comparison needs fewer segments than the accuracy table; the
    // per-segment cost ratio is what matters.
    params.num_segments = match args.scale {
        ExperimentScale::Smoke => 6,
        ExperimentScale::Paper => 30,
    };

    let ipcs = match args.scale {
        ExperimentScale::Smoke => vec![1, 5, 10],
        ExperimentScale::Paper => vec![1, 5, 10, 50],
    };

    // With telemetry on, raw-buffer baselines anchor the memory
    // comparison: at equal IpC a condensed buffer must measure strictly
    // smaller than a raw replay buffer of IpC×C stored items.
    let mut methods: Vec<MethodKind> = MethodKind::TABLE2.to_vec();
    if args.telemetry {
        methods.push(MethodKind::Selection(BaselineKind::Random));
        methods.push(MethodKind::Selection(BaselineKind::Fifo));
    }

    let mut header: Vec<String> = vec!["Method".into()];
    for ipc in &ipcs {
        header.push(format!("IpC={ipc} Time(s)"));
        header.push(format!("IpC={ipc} Acc(%)"));
        if args.telemetry {
            header.push(format!("IpC={ipc} PeakMem(KiB)"));
        }
    }
    let mut table = Table::new(
        format!(
            "Table II — condensation execution time & accuracy on CORe50 (scale: {})",
            args.scale
        ),
        header,
    );

    let mut entries = Vec::new();
    for &method in &methods {
        let mut row = vec![method.label().to_string()];
        for &ipc in &ipcs {
            eprintln!("[table2] {method} IpC={ipc}…");
            deco_telemetry::reset();
            let spec = TrialSpec::new(DatasetId::Core50, method, ipc, 0, params);
            let result = run_trial(&spec);
            let secs = result.processing_time.as_secs_f32();
            row.push(format!("{secs:.1}"));
            row.push(format!("{:.1}", result.final_accuracy * 100.0));
            if args.telemetry {
                let kib = result.peak_memory_bytes.unwrap_or(0) as f64 / 1024.0;
                row.push(format!("{kib:.1}"));
            }
            entries.push(Entry {
                method: method.label().into(),
                ipc,
                seconds: secs,
                accuracy: result.final_accuracy,
                peak_memory_bytes: result.peak_memory_bytes,
                wall_time_ms: result.segment_wall_time_ms,
                telemetry: args.telemetry.then(TelemetrySnapshot::capture),
            });
        }
        table.push_row(row);
        println!("{table}");
    }

    println!("{table}");
    // Speedup summary (the paper's ~10x claim for DECO vs DC/DSA).
    for &ipc in &ipcs {
        let time_of = |name: &str| {
            entries
                .iter()
                .find(|e| e.method == name && e.ipc == ipc)
                .map(|e| e.seconds)
                .unwrap_or(f32::NAN)
        };
        let deco = time_of("DECO");
        println!(
            "IpC={ipc}: DECO speedup vs DC {:.1}x, vs DSA {:.1}x, vs DM {:.2}x",
            time_of("DC") / deco,
            time_of("DSA") / deco,
            time_of("DM") / deco,
        );
    }
    if args.telemetry {
        // Memory summary: condensed methods vs the raw-buffer baselines.
        for &ipc in &ipcs {
            let peak_of = |name: &str| {
                entries
                    .iter()
                    .find(|e| e.method == name && e.ipc == ipc)
                    .and_then(|e| e.peak_memory_bytes)
                    .unwrap_or(0)
            };
            println!(
                "IpC={ipc}: peak memory DECO {} B, DC {} B, raw Random {} B, raw FIFO {} B",
                peak_of("DECO"),
                peak_of("DC"),
                peak_of("Random"),
                peak_of("FIFO"),
            );
        }
    }

    let usage = ResourceUsage {
        peak_memory_bytes: entries.iter().filter_map(|e| e.peak_memory_bytes).max(),
        wall_time_ms: Some(
            entries
                .iter()
                .flat_map(|e| e.wall_time_ms.iter())
                .sum::<f64>(),
        ),
    };
    let report = Json::obj([("entries", entries.to_json()), ("usage", usage.to_json())]);
    write_json_value(&args.out_dir, "table2", &report).expect("write table2.json");
    eprintln!(
        "[table2] report written to {}/table2.json",
        args.out_dir.display()
    );
}
