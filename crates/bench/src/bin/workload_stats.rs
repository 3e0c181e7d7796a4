//! Diagnostic: characteristics of the synthetic worst-case workload vs the
//! paper's published numbers (§V-E: 3725 prefixes → 9726 trie nodes →
//! 16127 leaf-pushed nodes).

use vr_net::stats::TableStats;
use vr_net::synth::{TableSpec, PAPER_TRIE_NODES, PAPER_TRIE_NODES_LEAF_PUSHED};
use vr_trie::MergedTrie;

fn main() {
    let spec = TableSpec::paper_worst_case(2012);
    let table = spec.generate().expect("generation");
    let stats = TableStats::of(&table);
    let trie = MergedTrie::from_tables(std::slice::from_ref(&table)).expect("one table");
    let pushed = trie.leaf_pushed();

    println!("synthetic worst-case table (seed {}):", spec.seed);
    println!("  prefixes            {}", stats.routes);
    println!("  mean prefix length  {:.2}", stats.mean_prefix_len);
    println!("  coverage            {:.4}", stats.coverage);
    println!(
        "  trie nodes          {}   (paper: {})",
        trie.node_count(),
        PAPER_TRIE_NODES
    );
    println!(
        "  leaf-pushed nodes   {}   (paper: {})",
        pushed.node_count(),
        PAPER_TRIE_NODES_LEAF_PUSHED
    );
    println!(
        "  leaves / internal   {} / {}",
        pushed.leaf_count(),
        pushed.internal_count()
    );
}
