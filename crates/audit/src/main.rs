//! `vr-audit` — command-line front end for `vr_trie::audit`'s structural
//! verifier and the workspace source lints.
//!
//! ```text
//! vr-audit tables   [--prefixes N] [--seed S] [--k K] [--out PATH] [--pretty]
//! vr-audit lint     [--root PATH] [--allow PATH] [--out PATH] [--pretty] [--format json|text]
//! ```
//!
//! `tables` generates a synthetic routing table (and a K-table family for
//! the virtualization encodings), builds every lookup structure through
//! every `from_*` constructor the workspace has, audits each one (the
//! family's trie again after a seeded 1 % of each VN's routes is
//! withdrawn and announced again), holds every jump trie a service
//! publishes to the one walked off the leaf-pushed trie word for word,
//! and emits the [`AuditReport`]s as a
//! JSON array — the CI `audit` job runs this at paper scale and uploads
//! the output. `lint` runs the source rules of [`lint`] over the
//! workspace tree. Exit status: 0 clean, 1 violations found, 2 usage or
//! I/O error.

mod lint;

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lint::lint_workspace;
use vr_net::synth::{ClusterSpec, FamilySpec, TableSpec, PAPER_TABLE_PREFIXES};
use vr_trie::audit::{
    audit_jump, audit_jump_against, audit_jump_with_table, audit_leaf_pushed, audit_merged,
    AuditReport,
};
use vr_trie::{DirtyBuckets, JumpTrie, MergedTrie};

const USAGE: &str =
    "vr-audit: structural audit of the lookup-table encodings, and the workspace source lints

Usage:
  vr-audit tables   [--prefixes N] [--seed S] [--k K] [--out PATH] [--pretty]
  vr-audit lint     [--root PATH] [--allow PATH] [--out PATH] [--pretty] [--format json|text]

Exit status: 0 clean, 1 violations found, 2 usage or I/O error.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("tables") => cmd_tables(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Minimal flag cursor: `--name value` pairs plus boolean switches.
struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Self { args, i: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.i)?;
        self.i += 1;
        Some(arg.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let v = self
            .args
            .get(self.i)
            .ok_or(format!("{flag} needs a value"))?;
        self.i += 1;
        Ok(v.as_str())
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
}

/// Serializes reports, writes them to `--out` or stdout, and prints one
/// human summary line per report on stderr.
fn emit(reports: &[AuditReport], out: Option<&str>, pretty: bool) -> Result<bool, String> {
    for report in reports {
        eprintln!("{}", report.summary());
    }
    let json = if pretty {
        serde_json::to_string_pretty(reports)
    } else {
        serde_json::to_string(reports)
    }
    .map_err(|e| format!("serializing reports: {e}"))?;
    match out {
        Some(path) => {
            std::fs::write(path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?
        }
        None => println!("{json}"),
    }
    Ok(reports.iter().all(AuditReport::is_clean))
}

fn cmd_tables(args: &[String]) -> Result<bool, String> {
    let mut prefixes = PAPER_TABLE_PREFIXES;
    let mut seed = 7u64;
    let mut k = 8usize;
    let mut out: Option<String> = None;
    let mut pretty = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--prefixes" => prefixes = parse_num(flag, flags.value(flag)?)?,
            "--seed" => seed = parse_num(flag, flags.value(flag)?)?,
            "--k" => k = parse_num(flag, flags.value(flag)?)?,
            "--out" => out = Some(flags.value(flag)?.to_string()),
            "--pretty" => pretty = true,
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if prefixes == 0 || k == 0 || k > 64 {
        return Err("--prefixes must be positive and --k in 1..=64".to_string());
    }

    let mut spec = TableSpec::paper_worst_case(seed);
    spec.prefixes = prefixes;
    spec.clustering = Some(ClusterSpec::edge_default(prefixes));
    let table = spec
        .generate()
        .map_err(|e| format!("generating table: {e}"))?;
    eprintln!(
        "auditing every encoding of a {}-prefix table (seed {seed}) and a K={k} family",
        table.len()
    );

    let mut reports = Vec::new();

    // Single-table pipeline: every constructor path for every encoding,
    // the pointer trie at K = 1 included.
    let single = MergedTrie::from_tables(std::slice::from_ref(&table))
        .map_err(|e| format!("building the single-table trie: {e}"))?;
    reports.push(audit_merged(&single));
    let leaf_pushed = single.leaf_pushed();
    reports.push(audit_leaf_pushed(
        &leaf_pushed,
        std::slice::from_ref(&table),
    ));
    // The reference jump trie is the materialised leaf-pushed trie,
    // walked; every trie a service publishes must equal it word for word.
    let reference = JumpTrie::from_leaf_pushed(&leaf_pushed);
    reports.push(audit_jump_with_table(&reference, &table));
    let tables = std::slice::from_ref(&table);
    reports.push(audit_jump_against(
        &JumpTrie::from_table(&table),
        tables,
        &reference,
    ));

    // K-table family: the virtualization (merged) encodings.
    let mut family = FamilySpec::paper_worst_case(k, 0.5, seed ^ 0x5EED);
    family.prefixes_per_table = (prefixes / k).max(64);
    let tables = family
        .generate()
        .map_err(|e| format!("generating family: {e}"))?;
    let (merged, served) =
        MergedTrie::from_tables_with_jump(&tables).map_err(|e| format!("merging: {e}"))?;
    reports.push(audit_merged(&merged));
    let mlp = merged.leaf_pushed();
    reports.push(audit_leaf_pushed(&mlp, &tables));
    let reference = JumpTrie::from_leaf_pushed(&mlp);
    reports.push(audit_jump(&reference));
    // What the services publish at construction — `LookupService`'s arena
    // and painter in one pass, `ShardedService`'s painter alone — and
    // after a foreign publish: every bucket painted from the arena.
    reports.push(audit_jump_against(&served, &tables, &reference));
    let painted = JumpTrie::from_tables(&tables).map_err(|e| format!("painting: {e}"))?;
    reports.push(audit_jump_against(&painted, &tables, &reference));
    let repainted = served.repaint(&merged, &DirtyBuckets::all());
    reports.push(audit_jump_against(&repainted, &tables, &reference));

    // The update path: a seeded 1 % of each VN's routes withdrawn, then
    // announced again, leaves a trie that must audit the same, and the
    // dirty buckets repainted over the live trie as a service repaints
    // them must give the reference of the churned trie.
    let mut churned = merged;
    let mut dirty = DirtyBuckets::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    for (vn, table) in tables.iter().enumerate() {
        let picked: Vec<_> = table.iter().filter(|_| rng.gen_bool(0.01)).collect();
        for route in &picked {
            churned.remove(vn, &route.prefix);
            dirty.mark_prefix(&route.prefix);
        }
        for route in &picked {
            churned.insert(vn, route.prefix, route.next_hop);
        }
    }
    reports.push(audit_merged(&churned));
    let reference = JumpTrie::from_leaf_pushed(&churned.leaf_pushed());
    let repainted = repainted.repaint(&churned, &dirty);
    reports.push(audit_jump_against(&repainted, &tables, &reference));

    emit(&reports, out.as_deref(), pretty)
}

fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let mut root = ".".to_string();
    let mut allow_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut pretty = false;
    let mut format = "json".to_string();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--root" => root = flags.value(flag)?.to_string(),
            "--allow" => allow_path = Some(flags.value(flag)?.to_string()),
            "--out" => out = Some(flags.value(flag)?.to_string()),
            "--pretty" => pretty = true,
            "--format" => format = flags.value(flag)?.to_string(),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if format != "json" && format != "text" {
        return Err(format!("unknown --format {format} (json|text)"));
    }
    let default_allow = format!("{root}/crates/audit/lint.allow");
    let allow_path = allow_path.unwrap_or(default_allow);
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("reading {allow_path}: {e}")),
    };
    // Stale entries report against the allowlist's workspace-relative
    // path so the finding is clickable from the repo root.
    let allow_name = allow_path
        .strip_prefix(&format!("{root}/"))
        .unwrap_or(&allow_path);
    let report = lint_workspace(std::path::Path::new(&root), &allowlist, allow_name)
        .map_err(|e| format!("linting {root}: {e}"))?;
    // Human rendering always goes to stderr (stale-allow findings
    // included — they are findings, not footnotes).
    for finding in &report.findings {
        eprintln!("{}", finding.render());
    }
    eprintln!(
        "lint: {} files scanned, {} findings ({} stale allows)",
        report.files_scanned,
        report.findings.len(),
        report.unused_allows.len()
    );
    // `--format text` repeats the findings on stdout for piping; the
    // default stays machine-readable JSON (what CI archives).
    if format == "text" {
        for finding in &report.findings {
            println!("{}", finding.render());
        }
        if let Some(path) = out {
            let text: String = report
                .findings
                .iter()
                .map(|f| format!("{}\n", f.render()))
                .collect();
            std::fs::write(&path, text.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        return Ok(report.is_clean());
    }
    let json = if pretty {
        serde_json::to_string_pretty(&report)
    } else {
        serde_json::to_string(&report)
    }
    .map_err(|e| format!("serializing lint report: {e}"))?;
    match out {
        Some(path) => {
            std::fs::write(&path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        None => println!("{json}"),
    }
    Ok(report.is_clean())
}
