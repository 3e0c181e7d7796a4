//! `vr-audit` — command-line front end for the structural verifier and
//! the workspace lints.
//!
//! ```text
//! vr-audit tables   [--prefixes N] [--seed S] [--k K] [--out PATH] [--pretty]
//! vr-audit artifact <trie.json> [--structure jump|flat-stride] [--out PATH] [--pretty]
//! vr-audit lint     [--root PATH] [--allow PATH] [--out PATH] [--pretty] [--format json|text]
//! ```
//!
//! `tables` generates a synthetic routing table (and a K-table family for
//! the virtualization encodings), builds every lookup structure through
//! every `from_*` constructor the workspace has, audits each one, and
//! emits the [`AuditReport`]s as a JSON array — the CI `audit` job runs
//! this at paper scale and uploads the output. `artifact` audits a
//! serialized trie from disk. `lint` runs the source rules over the
//! workspace tree. Exit status: 0 clean, 1 violations found, 2 usage or
//! I/O error.

use std::process::ExitCode;

use vr_audit::{
    audit_flat_stride, audit_flat_stride_with_table, audit_jump, audit_jump_with_table,
    audit_jump_with_tables, audit_leaf_pushed, audit_merged, audit_unibit, lint_workspace,
    AuditReport,
};
use vr_net::synth::{ClusterSpec, FamilySpec, TableSpec, PAPER_TABLE_PREFIXES};
use vr_trie::{
    FlatStrideTrie, JumpSlabs, JumpTrie, LeafPushedTrie, MergedTrie, StrideTrie, UnibitTrie,
};

const USAGE: &str = "vr-audit: structural invariant verifier for lookup-table encodings

Usage:
  vr-audit tables   [--prefixes N] [--seed S] [--k K] [--out PATH] [--pretty]
  vr-audit artifact <trie.json> [--structure jump|flat-stride] [--out PATH] [--pretty]
  vr-audit lint     [--root PATH] [--allow PATH] [--out PATH] [--pretty] [--format json|text]

Exit status: 0 clean, 1 violations found, 2 usage or I/O error.";

/// Stride schedules exercised by `tables` (each must sum to 32).
const STRIDE_SCHEDULES: [&[u8]; 2] = [&[8, 8, 8, 8], &[4, 4, 4, 4, 4, 4, 4, 4]];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("tables") => cmd_tables(&args[1..]),
        Some("artifact") => cmd_artifact(&args[1..]),
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
        let v = self.args.get(self.i).ok_or(format!("{flag} needs a value"))?;
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
        Some(path) => std::fs::write(path, json.as_bytes())
            .map_err(|e| format!("writing {path}: {e}"))?,
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
    let table = spec.generate().map_err(|e| format!("generating table: {e}"))?;
    eprintln!(
        "auditing every encoding of a {}-prefix table (seed {seed}) and a K={k} family",
        table.len()
    );

    let mut reports = Vec::new();

    // Single-table pipeline: every constructor path for every encoding.
    let unibit = UnibitTrie::from_table(&table);
    reports.push(audit_unibit(&unibit));
    let leaf_pushed = LeafPushedTrie::from_unibit(&unibit);
    reports.push(audit_leaf_pushed(&leaf_pushed, std::slice::from_ref(&table)));
    reports.push(audit_jump_with_table(&JumpTrie::from_table(&table), &table));
    reports.push(audit_jump_with_table(&JumpTrie::from_unibit(&unibit), &table));
    reports.push(audit_jump_with_table(
        &JumpTrie::from_leaf_pushed(&leaf_pushed),
        &table,
    ));
    for strides in STRIDE_SCHEDULES {
        let stride = StrideTrie::from_table(&table, strides)
            .map_err(|e| format!("stride trie {strides:?}: {e}"))?;
        reports.push(audit_flat_stride_with_table(
            &FlatStrideTrie::from_stride(&stride),
            &table,
        ));
    }

    // K-table family: the virtualization (merged) encodings.
    let mut family = FamilySpec::paper_worst_case(k, 0.5, seed ^ 0x5EED);
    family.prefixes_per_table = (prefixes / k).max(64);
    let tables = family.generate().map_err(|e| format!("generating family: {e}"))?;
    let merged = MergedTrie::from_tables(&tables).map_err(|e| format!("merging: {e}"))?;
    reports.push(audit_merged(&merged));
    let mlp = merged.leaf_pushed();
    reports.push(audit_leaf_pushed(&mlp, &tables));
    reports.push(audit_jump(&JumpTrie::from_leaf_pushed(&mlp)));
    // The structure a service publishes after an update comes from the
    // other builder: per-bucket blocks, assembled.
    reports.push(audit_jump_with_tables(
        &JumpSlabs::from_merged(&merged).assemble(),
        &tables,
    ));

    emit(&reports, out.as_deref(), pretty)
}

fn cmd_artifact(args: &[String]) -> Result<bool, String> {
    let mut path: Option<&str> = None;
    let mut structure = "jump";
    let mut out: Option<String> = None;
    let mut pretty = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--structure" => structure = flags.value(flag)?,
            "--out" => out = Some(flags.value(flag)?.to_string()),
            "--pretty" => pretty = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    let path = path.ok_or(format!("artifact needs a file path\n\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report = match structure {
        "jump" => audit_jump(
            &serde_json::from_str::<JumpTrie>(&text)
                .map_err(|e| format!("{path}: not a serialized JumpTrie: {e}"))?,
        ),
        "flat-stride" => audit_flat_stride(
            &serde_json::from_str::<FlatStrideTrie>(&text)
                .map_err(|e| format!("{path}: not a serialized FlatStrideTrie: {e}"))?,
        ),
        other => return Err(format!("unknown --structure {other} (jump|flat-stride)")),
    };
    emit(&[report], out.as_deref(), pretty)
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
