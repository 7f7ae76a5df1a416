//! The tape arena's high-water gauge must be mirrored into the
//! telemetry registry, so any `--telemetry` JSON export (bench report
//! `"telemetry"` keys, `write_snapshot` files) carries it without extra
//! plumbing — also after a telemetry reset.
//!
//! A process-isolated integration test because it toggles the global
//! telemetry switch.

use deco_telemetry::json::ToJson;
use deco_telemetry::TelemetrySnapshot;
use deco_tensor::{with_tape_arena, Rng, Tensor, Var};

const GAUGE: &str = "tensor.tape.arena_node_high_water";

#[test]
fn arena_high_water_reaches_the_telemetry_export() {
    let mut rng = Rng::new(11);
    deco_telemetry::set_enabled(true);
    deco_telemetry::reset();
    // A backward pass under the arena records the gauge when the scope
    // ends.
    with_tape_arena(|| {
        let x = Var::leaf(Tensor::randn([4, 8], &mut rng), true);
        let bias = Var::leaf(Tensor::randn([1, 8], &mut rng), true);
        x.add(&bias).square().sum().backward();
    });
    let text = TelemetrySnapshot::capture().to_json().to_string_pretty();
    assert!(
        text.contains(GAUGE),
        "telemetry export is missing the {GAUGE} series:\n{text}"
    );

    // Bench binaries reset telemetry between cells; an arena scope
    // ending after the reset must re-register the high-water gauge even
    // when the thread's high water was reached before it (table2 hit
    // exactly this).
    deco_telemetry::reset();
    with_tape_arena(|| {
        let x = Var::leaf(Tensor::randn([2, 4], &mut rng), true);
        x.square().sum().backward();
    });
    let after_reset = TelemetrySnapshot::capture().to_json().to_string_pretty();
    deco_telemetry::set_enabled(false);
    assert!(
        after_reset.contains(GAUGE),
        "high-water gauge lost after a telemetry reset:\n{after_reset}"
    );
}
