//! Route-update replay and the stale-data-plane window (paper ref. [6]):
//! stream BGP-like updates against a running virtualized router, watch
//! the snapshot hardware misforward until the write-back, then rebuild.
//!
//! ```text
//! cargo run --release -p vr-bench --example update_replay
//! ```

use vr_power::{ArrivalModel, EngineConfig, SimConfig, VirtualRouterSim};
use vr_net::synth::FamilySpec;
use vr_net::{SkewedSpec, SkewedTraffic, UpdateMix, UpdateStream};
use vr_power::SchemeKind;

fn main() {
    let k = 3usize;
    let tables = FamilySpec {
        k,
        prefixes_per_table: 800,
        shared_fraction: 0.5,
        seed: 21,
        distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
        next_hops: 16,
    }
    .generate()
    .expect("family");

    let mut stream =
        UpdateStream::new(tables.clone(), UpdateMix::default(), 16, 7).expect("stream");
    let updates = stream.batch(1500);
    println!(
        "replaying {} updates against a {k}-network separate router\n",
        updates.len()
    );

    let cfg = SimConfig {
        organization: SchemeKind::Separate,
        stages: 28,
        engine: EngineConfig::paper_default(),
        arrivals: ArrivalModel::SharedLine { offered_load: 1.0 },
        arrival_seed: 3,
    };
    let mut sim = VirtualRouterSim::new(tables.clone(), cfg).expect("sim");
    let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(k, 9), &tables).expect("traffic");

    let before = sim.run(&mut traffic, 2000).expect("run");
    println!(
        "before updates : {} lookups, {} mismatches",
        before.completed, before.mismatches
    );

    for update in &updates {
        sim.apply_update(update);
    }
    let stale = sim.run(&mut traffic, 2000).expect("run");
    println!(
        "stale hardware : {} lookups, {} mismatches ({:.1}% of traffic hits moved routes)",
        stale.completed,
        stale.mismatches,
        stale.mismatches as f64 / stale.completed as f64 * 100.0
    );

    sim.rebuild_engines().expect("rebuild");
    let after = sim.run(&mut traffic, 2000).expect("run");
    println!(
        "after rebuild  : {} lookups, {} mismatches",
        after.completed, after.mismatches
    );
    assert_eq!(after.mismatches, 0);
    println!(
        "\nThe staleness window is why ref. [6] adds on-the-fly incremental\n\
         updates; `vr_trie::MergedTrie::insert/remove` provides exactly that\n\
         for the merged organization."
    );
}
