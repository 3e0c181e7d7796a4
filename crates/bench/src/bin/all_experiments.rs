//! Runs the experiment table (`vr_bench::EXPERIMENTS`) — the one-shot
//! regeneration entry point backing EXPERIMENTS.md.
//!
//! `all_experiments [--quick] [<name>...]`: no name runs every experiment
//! in table order, names run just those. Exits 1 when a paper claim
//! fails and 2 on a name the table does not have.

use std::process::ExitCode;
use vr_bench::config_from_args;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| arg != "--quick")
        .collect();
    match vr_bench::run(config_from_args(), &names) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(unknown) => {
            eprintln!("[all_experiments] {unknown}");
            ExitCode::from(2)
        }
    }
}
