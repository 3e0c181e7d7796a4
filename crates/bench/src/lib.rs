//! # vr-bench — experiment harness and benchmarks
//!
//! One table entry per table/figure of the paper (see DESIGN.md §5) in
//! [`EXPERIMENTS`]: `cargo run --release -p vr-bench --bin
//! all_experiments -- fig5` prints the series the paper plots and writes
//! CSV + JSON under `results/`; with no name it runs the whole table.
//! The other binaries (`bench_lookup`, `control_churn`, `obs_smoke`,
//! `vrpower`, `wire_smoke`, `workload_stats`) are tools and CI smokes,
//! not paper experiments.
//!
//! Every binary accepts `--quick` to run the reduced configuration used
//! by the test suite instead of the full paper scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;

pub use experiments::{run, Ctx, Experiment, EXPERIMENTS};
use serde::Serialize;
use std::path::PathBuf;
use vr_power::experiments::ExperimentConfig;
use vr_power::report::{render_table, to_csv, write_json};

/// Resolves the experiment configuration from CLI args / environment.
#[must_use]
pub fn config_from_args() -> ExperimentConfig {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        eprintln!("[vr-bench] running QUICK configuration");
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    }
}

/// Directory experiment outputs are written to (`results/` next to the
/// workspace root, falling back to the current directory).
#[must_use]
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; workspace root is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    root.join("results")
}

/// Prints an experiment as an aligned table and persists CSV + JSON under
/// `results/<name>.{csv,json}`.
pub fn emit<T: Serialize>(name: &str, headers: &[&str], rows: &[Vec<String>], raw: &T) {
    println!("== {name} ==");
    println!("{}", render_table(headers, rows));
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let csv_path = dir.join(format!("{name}.csv"));
        if std::fs::write(&csv_path, to_csv(headers, rows)).is_ok() {
            eprintln!("[vr-bench] wrote {}", csv_path.display());
        }
        let json_path = dir.join(format!("{name}.json"));
        if write_json(&json_path, raw).is_ok() {
            eprintln!("[vr-bench] wrote {}", json_path.display());
        }
    }
}

/// Formats an `Option<f64>` cell.
#[must_use]
pub fn opt_num(value: Option<f64>, digits: usize) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.digits$}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_points_into_workspace() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn opt_num_formats() {
        assert_eq!(opt_num(None, 2), "-");
        assert_eq!(opt_num(Some(1.234), 2), "1.23");
    }
}
