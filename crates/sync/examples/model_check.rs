//! Model-check runner: explores every model program (1 correct, 1 seeded
//! buggy variant) and prints a coverage report. The CI `model-check` job
//! runs this; a non-zero exit means either a correct protocol failed or a
//! seeded bug escaped detection.

use vr_sync::model::{explore, ExplorerConfig, ModelSpec};
use vr_sync::programs::PublishVsLookup;

fn run(spec: &dyn ModelSpec, expect_failure: bool) -> bool {
    let report = explore(spec, &ExplorerConfig::default());
    let verdict = match (&report.failure, expect_failure) {
        (None, false) => "OK (all schedules clean)".to_string(),
        (Some(f), true) => format!("OK (seeded bug caught: {f})"),
        (None, true) => "FAIL: seeded bug escaped detection".to_string(),
        (Some(f), false) => format!("FAIL: {f}"),
    };
    println!(
        "{:28} {:>8} interleavings {:>9} steps{}  {}",
        spec.name(),
        report.schedules,
        report.steps,
        if report.capped { " (capped)" } else { "" },
        verdict
    );
    report.failure.is_some() == expect_failure
}

fn main() {
    let mut ok = true;
    ok &= run(&PublishVsLookup::correct(), false);
    ok &= run(&PublishVsLookup::relaxed_gen_store(), true);
    if !ok {
        std::process::exit(1);
    }
}
