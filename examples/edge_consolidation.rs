//! Edge-network consolidation: an ISP replaces 8 dedicated edge routers
//! (each serving one customer network at low duty cycle) with a single
//! virtualized FPGA router, and wants the power story — the paper's §I
//! motivating scenario, end to end.
//!
//! ```text
//! cargo run --release -p vr-bench --example edge_consolidation
//! ```

use vr_net::synth::FamilySpec;
use vr_power::models::{analytical_power, experimental_power_w};
use vr_power::par::ParSimulator;
use vr_power::validate::behavioral_check;
use vr_power::{Device, Scenario, ScenarioSpec, SchemeKind, SpeedGrade};

fn main() {
    const K: usize = 8;
    let tables = FamilySpec {
        k: K,
        prefixes_per_table: 1500,
        shared_fraction: 0.5,
        seed: 7,
        distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
        next_hops: 16,
    }
    .generate()
    .expect("family");

    let par = ParSimulator::default();
    println!("Consolidating {K} edge routers onto one XC6VLX760 (-2 grade)\n");

    let mut before_after = Vec::new();
    for scheme in [SchemeKind::NonVirtualized, SchemeKind::Separate] {
        let scenario = Scenario::build(
            &tables,
            ScenarioSpec::paper_default(scheme, SpeedGrade::Minus2),
            Device::xc6vlx760(),
        )
        .expect("scenario");
        let model = analytical_power(&scenario);
        let measured = experimental_power_w(&scenario, &par);
        println!(
            "{scheme}: model {:.2} W, post-PAR {:.2} W, capacity {:.0} Gbps",
            model.total_w(),
            measured,
            scenario.capacity_gbps()
        );
        before_after.push(model.total_w());

        // Prove the consolidated router still forwards correctly.
        let check = behavioral_check(&tables, &scenario, 2000, 99).expect("behavioral check");
        assert!(check.fully_correct, "forwarding must be exact");
        println!(
            "  cycle-level check: {} lookups, all correct, simulated dynamic {:.1} mW",
            check.completed,
            check.simulated_dynamic_w * 1e3
        );
    }

    let saving = before_after[0] - before_after[1];
    println!(
        "\nConsolidation saves {saving:.1} W ({:.0} %) — proportional to K, as the paper's\n\
         abstract promises: the K−1 redundant devices' static power disappears.",
        saving / before_after[0] * 100.0
    );
}
