//! Source lints for the workspace, run by `vr-audit lint` and the CI
//! `audit` job. Nine rules, numbered 1–4 and 6–10:
//!
//! 1. **no-unsafe** — `unsafe` is forbidden everywhere outside `vendor/`
//!    (the crates also carry `#![forbid(unsafe_code)]`, but that only
//!    guards compiled targets; this lint also covers examples, build
//!    scripts, and code behind `cfg` gates the CI build never enables).
//! 2. **no-panic-hot-path** — `.unwrap()` / `.expect(` are forbidden in
//!    the hot-path lookup modules ([`HOT_PATH_FILES`]): a panic there
//!    takes down the datapath thread mid-swap. Deliberate uses (builder
//!    capacity limits, test-only code) go in the allowlist file.
//! 3. **no-raw-power-literal** — floating-point literals on lines that
//!    mention power units inside `crates/core` / `crates/fpga` must go
//!    through the unit-typed constructors in `vr-fpga`'s `units`/`grade`
//!    modules; a raw `13.65` elsewhere bypasses the single calibration
//!    point the reproduction depends on.
//! 4. **no-raw-instant** — `Instant::now(` is forbidden in the engine's
//!    and observability plane's timed modules ([`TIMED_FILES`]): all
//!    hot-path timing goes through
//!    `vr-telemetry`'s `Stopwatch`/`Span` API so overhead is paid in one
//!    audited place and every measurement lands in a histogram instead
//!    of an ad-hoc local.
//! 5. *Retired.* `no-tables-clone` fenced the one clone of a per-VN
//!    table mirror on the publish path. The services keep no such mirror
//!    any more (a `LookupService`'s routes live only in its merged
//!    trie), so there is nothing to clone; the number is not reused.
//! 6. **no-prefetch-outside-home** — the `_mm_prefetch` intrinsic (and
//!    with it the workspace's only `#[allow(unsafe_code)]`) lives in
//!    exactly one audited place: the safe wrapper in [`PREFETCH_HOME`].
//!    Anywhere else it fires, keeping `unsafe_code = forbid` meaningful
//!    across the rest of the workspace.
//! 7. **no-raw-cache-slot** — reading a result-cache slot's stored
//!    next-hop (a raw `.nhi` field access) is forbidden in engine
//!    modules outside the cache's own module ([`CACHE_HOME`]): every
//!    read must go through the generation-checked probe API, because a
//!    slot read that skips the generation compare is exactly the stale
//!    post-publish hit the cache's invalidation scheme exists to make
//!    impossible. Deliberate exceptions go in the allowlist.
//! 8. **no-raw-atomic** — raw `std::sync::atomic` types and memory
//!    orderings are forbidden outside their sanctioned homes
//!    ([`ATOMIC_HOMES`]): the `vr-sync` wrappers (the workspace's one
//!    place where ordering decisions are made, model-checked, and
//!    trace-instrumented) and the telemetry counters (relaxed-by-design
//!    statistics that never publish data). Everywhere else, a raw
//!    `AtomicU64` or `Ordering::Acquire` is an ordering decision made
//!    outside the audited surface.
//! 9. **no-relaxed-publish** — a line that mentions a publication-side
//!    name (`generation` / `publish`) *and* `Relaxed` is the exact bug
//!    the model checker's `RelaxedGenStore` seeded variant demonstrates:
//!    a generation counter published without release ordering lets a
//!    reader observe the new generation before the payload it tags.
//!    `crates/sync` itself is exempt — its memory model and seeded-bug
//!    programs name `Relaxed` deliberately.
//! 10. **stale-allow** — every allowlist entry must still waive at least
//!     one finding; entries that match nothing are reported as findings
//!     against the allowlist file itself, so dead waivers cannot
//!     accumulate and silently re-open a hole later.
//!
//! The scanner is intentionally a line-based text pass, not a parser: it
//! blanks `//`/`/* */` comments and string-literal contents (preserving
//! byte positions, so findings carry exact columns) well enough for
//! these rules, runs with zero dependencies, and reports
//! file:line:column coordinates that editors understand.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Hot-path modules where `.unwrap()` / `.expect(` are forbidden
/// (allowlist entries excepted): the per-packet lookup datapath and the
/// table-swap service.
pub(crate) const HOT_PATH_FILES: [&str; 9] = [
    "crates/trie/src/jump.rs",
    "crates/trie/src/prefetch.rs",
    "crates/engine/src/service.rs",
    "crates/engine/src/service_core.rs",
    "crates/engine/src/sharded.rs",
    "crates/engine/src/cache.rs",
    // The wire serving tier sits on the per-frame path: a panic in the
    // codec or the connection loop takes the whole connection down
    // with it.
    "crates/wire/src/frame.rs",
    "crates/wire/src/decoder.rs",
    "crates/wire/src/server.rs",
];

/// Engine and observability modules whose timing must go through the
/// `vr-telemetry` `Stopwatch`/`Span` API: a bare `Instant::now(` here
/// is untracked overhead on the packet path and a measurement no
/// exporter ever sees. The vr-obs modules are held to the same rule —
/// the tracer stamps every hot-path span, so its clock must be the one
/// audited epoch (`Stopwatch`), not ad-hoc `Instant` reads.
pub(crate) const TIMED_FILES: [&str; 8] = [
    "crates/engine/src/service.rs",
    "crates/engine/src/service_core.rs",
    "crates/engine/src/sharded.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/flight.rs",
    "crates/obs/src/http.rs",
    // Wire timing feeds admission (token bucket) and the replay RTT
    // histograms — both must run on the audited Stopwatch epoch.
    "crates/wire/src/server.rs",
    "crates/wire/src/replay.rs",
];

/// The one module allowed to use the software-prefetch intrinsic (and
/// the `#[allow(unsafe_code)]` wrapping it): the bounds-checked hint the
/// result cache calls. Everywhere else `_mm_prefetch` fires
/// [`LintRule::NoPrefetchOutsideHome`].
pub(crate) const PREFETCH_HOME: &str = "crates/trie/src/prefetch.rs";

/// The one engine module allowed to touch a result-cache slot's stored
/// `.nhi` field: the cache itself, whose probe API pairs every read with
/// a generation compare. Anywhere else under [`CACHE_SLOT_SCOPE`], a raw
/// `.nhi` access fires [`LintRule::NoRawCacheSlot`].
pub(crate) const CACHE_HOME: &str = "crates/engine/src/cache.rs";

/// Crate subtree the raw-cache-slot rule covers.
pub(crate) const CACHE_SLOT_SCOPE: &str = "crates/engine/";

/// Subtrees allowed to use raw `std::sync::atomic` types and memory
/// orderings: the vr-sync wrappers (where ordering is decided, traced,
/// and model-checked) and the telemetry counters (relaxed-by-design
/// statistics that never carry a publication).
pub(crate) const ATOMIC_HOMES: [&str; 2] = ["crates/sync/", "crates/telemetry/"];

/// Tokens that mark a raw atomic usage. Memory orderings are matched by
/// their variant names so `std::cmp::Ordering::Less` in sort code never
/// fires.
const ATOMIC_TOKENS: [&str; 14] = [
    "sync::atomic",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "Ordering::",
];

/// Memory-ordering variants; `Ordering::` only counts as atomic usage
/// when followed by one of these (ruling out `cmp::Ordering::Less`).
const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Publication-side names for the relaxed-publish rule: a `Relaxed` on
/// the same line as one of these is a publication without ordering.
const PUBLISH_MARKERS: [&str; 2] = ["generation", "publish"];

/// Subtree exempt from the relaxed-publish rule: vr-sync's memory model
/// and seeded-bug programs name `Relaxed` next to `generation` on
/// purpose — that is what they exist to model.
const RELAXED_PUBLISH_EXEMPT: &str = "crates/sync/";

/// Directories never scanned (vendored third-party code, build output).
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", ".claude"];

/// Crates subject to the raw-power-literal rule.
const POWER_CRATES: [&str; 2] = ["crates/core", "crates/fpga"];

/// Files inside [`POWER_CRATES`] allowed to hold raw power literals: the
/// unit newtypes themselves and the single calibration table.
const POWER_LITERAL_HOMES: [&str; 2] = ["crates/fpga/src/units.rs", "crates/fpga/src/grade.rs"];

/// Unit markers that make a float literal a *power* literal. Matched
/// case-insensitively against the comment-stripped line.
const POWER_MARKERS: [&str; 6] = ["watt", "_w ", "_uw", "_mw", "uw_per", "mhz"];

/// Which lint rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) enum LintRule {
    /// `unsafe` outside `vendor/`.
    NoUnsafe,
    /// `.unwrap()` / `.expect(` in a hot-path module.
    NoPanicHotPath,
    /// Raw floating-point power literal bypassing the unit constructors.
    NoRawPowerLiteral,
    /// `Instant::now(` in a timed engine module bypassing the telemetry
    /// `Stopwatch`/`Span` API.
    NoRawInstant,
    /// The `_mm_prefetch` intrinsic outside its sanctioned home
    /// ([`PREFETCH_HOME`]).
    NoPrefetchOutsideHome,
    /// A raw `.nhi` cache-slot field access in an engine module outside
    /// the generation-checked probe API's home module.
    NoRawCacheSlot,
    /// A raw `std::sync::atomic` type or memory ordering outside the
    /// sanctioned homes ([`ATOMIC_HOMES`]).
    NoRawAtomic,
    /// `Relaxed` on a line naming a publication-side identifier
    /// (`generation` / `publish`) outside `crates/sync`.
    NoRelaxedPublish,
    /// An allowlist entry that waived nothing this run.
    StaleAllow,
}

impl LintRule {
    /// Stable lowercase label used in JSON and log lines.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            LintRule::NoUnsafe => "no-unsafe",
            LintRule::NoPanicHotPath => "no-panic-hot-path",
            LintRule::NoRawPowerLiteral => "no-raw-power-literal",
            LintRule::NoRawInstant => "no-raw-instant",
            LintRule::NoPrefetchOutsideHome => "no-prefetch-outside-home",
            LintRule::NoRawCacheSlot => "no-raw-cache-slot",
            LintRule::NoRawAtomic => "no-raw-atomic",
            LintRule::NoRelaxedPublish => "no-relaxed-publish",
            LintRule::StaleAllow => "stale-allow",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct LintFinding {
    /// Which rule fired.
    pub(crate) rule: LintRule,
    /// Workspace-relative path.
    pub(crate) file: String,
    /// 1-based line number.
    pub(crate) line: usize,
    /// 1-based byte column of the match within the line.
    pub(crate) column: usize,
    /// The offending line, trimmed.
    pub(crate) snippet: String,
}

impl LintFinding {
    /// `file:line:column: [rule] snippet` — the editor-clickable
    /// rendering.
    #[must_use]
    pub(crate) fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.column,
            self.rule.label(),
            self.snippet
        )
    }
}

/// Result of a lint run.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct LintReport {
    /// Files scanned.
    pub(crate) files_scanned: usize,
    /// Findings, in file order.
    pub(crate) findings: Vec<LintFinding>,
    /// Allowlist entries that matched nothing (candidates for removal).
    pub(crate) unused_allows: Vec<String>,
}

impl LintReport {
    /// True when no rule fired.
    #[must_use]
    pub(crate) fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One allowlist entry: `path-suffix<TAB>substring`. A finding is waived
/// when its file ends with the suffix and its line contains the
/// substring.
#[derive(Debug, Clone)]
struct Allow {
    path_suffix: String,
    needle: String,
    raw: String,
    /// 1-based line in the allowlist file (for [`LintRule::StaleAllow`]).
    line: usize,
}

/// Parses the allowlist format: one `path<TAB>substring` entry per line,
/// `#` comments and blank lines ignored.
fn parse_allowlist(text: &str) -> Vec<Allow> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(i, l)| {
            let (path, needle) = l.split_once('\t')?;
            Some(Allow {
                path_suffix: path.trim().to_string(),
                needle: needle.trim().to_string(),
                raw: l.to_string(),
                line: i + 1,
            })
        })
        .collect()
}

/// Blanks line comments and the contents of string literals, so `unsafe`
/// in a doc comment or `"unwrap"` in a message cannot fire a rule.
/// Block comments are handled across lines via the `in_block` state.
///
/// The pass is **length-preserving**: every input byte maps to exactly
/// one output byte (blanked positions become spaces, non-ASCII bytes
/// too), so a match offset in the stripped line is the match's byte
/// column in the raw line — what puts exact columns in the findings.
fn strip_line(line: &str, in_block: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block = false;
                out.extend_from_slice(b"  ");
                i += 2;
            } else {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        let c = bytes[i];
        if in_str {
            if c == b'\\' && i + 1 < bytes.len() {
                out.extend_from_slice(b"  ");
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
                out.push(b'"');
            } else {
                out.push(b' ');
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                out.push(b'"');
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                out.resize(bytes.len(), b' ');
                break;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block = true;
                out.extend_from_slice(b"  ");
                i += 2;
            }
            _ => {
                out.push(if c.is_ascii() { c } else { b' ' });
                i += 1;
            }
        }
    }
    debug_assert_eq!(out.len(), bytes.len());
    String::from_utf8(out).expect("blanked line is pure ASCII")
}

/// Byte offset of the first *non-trivial* float literal in the stripped
/// line — one carrying calibration information. Trivial literals (zero,
/// one, and powers of ten like `1e-6`, `100.0`) are unit conversions and
/// comparisons, not smuggled power constants, and do not fire the rule.
fn find_float_literal(stripped: &str) -> Option<usize> {
    let bytes = stripped.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        // A digit run starts here. Runs continuing an identifier, a hex
        // literal, or a tuple-field access (`group.1`) are not floats.
        let glued = i > 0
            && (bytes[i - 1].is_ascii_alphanumeric()
                || bytes[i - 1] == b'_'
                || bytes[i - 1] == b'.');
        let mut j = i;
        let mut saw_dot = false;
        let mut saw_exp = false;
        let mut mantissa = String::new();
        while j < bytes.len() {
            let c = bytes[j];
            if c.is_ascii_digit() {
                if !saw_exp {
                    mantissa.push(c as char);
                }
                j += 1;
            } else if c == b'_' && !saw_exp {
                j += 1;
            } else if c == b'.'
                && !saw_dot
                && !saw_exp
                && j + 1 < bytes.len()
                && bytes[j + 1].is_ascii_digit()
            {
                saw_dot = true;
                j += 1;
            } else if (c == b'e' || c == b'E')
                && !saw_exp
                && j + 1 < bytes.len()
                && (bytes[j + 1] == b'-' || bytes[j + 1] == b'+' || bytes[j + 1].is_ascii_digit())
            {
                saw_exp = true;
                j += if bytes[j + 1].is_ascii_digit() { 1 } else { 2 };
            } else {
                break;
            }
        }
        if !glued && (saw_dot || saw_exp) {
            // Trivial mantissas reduce to "" (zero) or "1" (a power of
            // ten) once padding zeros go; anything else is calibration.
            let trimmed = mantissa.trim_start_matches('0').trim_end_matches('0');
            if !trimmed.is_empty() && trimmed != "1" {
                return Some(i);
            }
        }
        i = j;
    }
    None
}

fn path_matches(rel: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| rel == *s || rel.ends_with(s))
}

/// Recursively collects `.rs` files under `root`, skipping [`SKIP_DIRS`].
fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every Rust file under `root` against the rules, waiving
/// findings matched by `allowlist` (the `parse_allowlist` format).
/// Allowlist entries that waive nothing become [`LintRule::StaleAllow`]
/// findings against `allow_name` (the allowlist's display path), so a
/// stale waiver fails the lint gate until it is pruned.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub(crate) fn lint_workspace(
    root: &Path,
    allowlist: &str,
    allow_name: &str,
) -> std::io::Result<LintReport> {
    let allows = parse_allowlist(allowlist);
    let mut allow_used = vec![false; allows.len()];
    let mut findings = Vec::new();
    let files = collect_rust_files(root)?;
    let files_scanned = files.len();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        lint_file(&rel, &text, &allows, &mut allow_used, &mut findings);
    }
    let mut unused_allows = Vec::new();
    for (allow, used) in allows.iter().zip(&allow_used) {
        if !used {
            unused_allows.push(allow.raw.clone());
            findings.push(LintFinding {
                rule: LintRule::StaleAllow,
                file: allow_name.to_string(),
                line: allow.line,
                column: 1,
                snippet: allow.raw.clone(),
            });
        }
    }
    Ok(LintReport {
        files_scanned,
        findings,
        unused_allows,
    })
}

/// Lints one file's text (exposed for tests; `rel` is workspace-relative).
fn lint_file(
    rel: &str,
    text: &str,
    allows: &[Allow],
    allow_used: &mut [bool],
    findings: &mut Vec<LintFinding>,
) {
    let hot_path = path_matches(rel, &HOT_PATH_FILES);
    let timed = path_matches(rel, &TIMED_FILES);
    let power_scope =
        POWER_CRATES.iter().any(|c| rel.starts_with(c)) && !path_matches(rel, &POWER_LITERAL_HOMES);
    let atomic_home = ATOMIC_HOMES.iter().any(|h| rel.starts_with(h));
    let relaxed_exempt = rel.starts_with(RELAXED_PUBLISH_EXEMPT);
    let mut in_block = false;
    let mut in_tests = false;
    for (lineno, raw_line) in text.lines().enumerate() {
        // Everything after a #[cfg(test)] marker is test code: panics and
        // literals there assert, they don't serve packets. The marker is
        // conventionally the last section of these modules.
        if raw_line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        let stripped = strip_line(raw_line, &mut in_block);
        if stripped.trim().is_empty() {
            continue;
        }
        // `offset` is a byte offset into the raw line (strip_line is
        // length-preserving), reported 1-based.
        let mut push = |rule: LintRule, offset: usize| {
            let snippet = raw_line.trim().to_string();
            for (i, allow) in allows.iter().enumerate() {
                if rel.ends_with(&allow.path_suffix) && snippet.contains(&allow.needle) {
                    allow_used[i] = true;
                    return;
                }
            }
            findings.push(LintFinding {
                rule,
                file: rel.to_string(),
                line: lineno + 1,
                column: offset + 1,
                snippet,
            });
        };
        if let Some(col) = find_word(&stripped, "unsafe") {
            push(LintRule::NoUnsafe, col);
        }
        if hot_path && !in_tests {
            if let Some(col) = stripped
                .find(".unwrap()")
                .into_iter()
                .chain(stripped.find(".expect("))
                .min()
            {
                push(LintRule::NoPanicHotPath, col);
            }
        }
        if timed && !in_tests {
            if let Some(col) = stripped.find("Instant::now(") {
                push(LintRule::NoRawInstant, col);
            }
        }
        if !in_tests && !path_matches(rel, &[PREFETCH_HOME]) {
            if let Some(col) = stripped.find("_mm_prefetch") {
                push(LintRule::NoPrefetchOutsideHome, col);
            }
        }
        if !in_tests && rel.starts_with(CACHE_SLOT_SCOPE) && !path_matches(rel, &[CACHE_HOME]) {
            if let Some(col) = find_field_access(&stripped, ".nhi") {
                push(LintRule::NoRawCacheSlot, col);
            }
        }
        if !in_tests && !atomic_home {
            if let Some(col) = find_atomic_token(&stripped) {
                push(LintRule::NoRawAtomic, col);
            }
        }
        if !in_tests && !relaxed_exempt {
            if let Some(col) = find_word(&stripped, "Relaxed") {
                let lower = stripped.to_ascii_lowercase();
                if PUBLISH_MARKERS.iter().any(|m| lower.contains(m)) {
                    push(LintRule::NoRelaxedPublish, col);
                }
            }
        }
        if power_scope && !in_tests {
            if let Some(col) = find_float_literal(&stripped) {
                let lower = stripped.to_ascii_lowercase();
                if POWER_MARKERS.iter().any(|m| lower.contains(m)) {
                    push(LintRule::NoRawPowerLiteral, col);
                }
            }
        }
    }
}

/// Field-access match: `.nhi` must fire on `slot.nhi` but not on
/// `.nhis` or `.nhi_bits` — the character after the needle must end the
/// identifier. Returns the byte offset of the match.
fn find_field_access(haystack: &str, needle: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let abs = start + pos;
        let after = abs + needle.len();
        let after_ok = after >= haystack.len()
            || !haystack.as_bytes()[after].is_ascii_alphanumeric()
                && haystack.as_bytes()[after] != b'_';
        if after_ok {
            return Some(abs);
        }
        start = after;
    }
    None
}

/// Word-boundary match: `unsafe` must not fire on `unsafe_code` (the
/// forbid attribute) or identifiers embedding the word. Returns the byte
/// offset of the match.
fn find_word(haystack: &str, word: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !haystack.as_bytes()[abs - 1].is_ascii_alphanumeric()
                && haystack.as_bytes()[abs - 1] != b'_';
        let after = abs + word.len();
        let after_ok = after >= haystack.len()
            || !haystack.as_bytes()[after].is_ascii_alphanumeric()
                && haystack.as_bytes()[after] != b'_';
        if before_ok && after_ok {
            return Some(abs);
        }
        start = abs + word.len();
    }
    None
}

/// First raw-atomic token on the stripped line ([`ATOMIC_TOKENS`]), with
/// `Ordering::` qualified to memory-ordering variants only so
/// `cmp::Ordering::Less` in sort code never fires.
fn find_atomic_token(stripped: &str) -> Option<usize> {
    ATOMIC_TOKENS
        .iter()
        .filter_map(|token| {
            if *token == "Ordering::" {
                MEMORY_ORDERINGS
                    .iter()
                    .filter_map(|ord| stripped.find(&format!("Ordering::{ord}")))
                    .min()
            } else {
                stripped.find(token)
            }
        })
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_text(rel: &str, text: &str, allowlist: &str) -> Vec<LintFinding> {
        let allows = parse_allowlist(allowlist);
        let mut used = vec![false; allows.len()];
        let mut findings = Vec::new();
        lint_file(rel, text, &allows, &mut used, &mut findings);
        findings
    }

    /// A deleted module must take its entry with it: a listed path that
    /// is not on disk is a fence around nothing.
    #[test]
    fn every_fenced_file_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in HOT_PATH_FILES.iter().chain(&TIMED_FILES) {
            assert!(root.join(rel).is_file(), "{rel} is listed but missing");
        }
    }

    #[test]
    fn unsafe_fires_outside_vendor() {
        let findings = lint_text("crates/x/src/lib.rs", "fn f() { unsafe { } }\n", "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::NoUnsafe);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn unsafe_in_comments_strings_and_attributes_is_ignored() {
        let text =
            "// unsafe here\n/* unsafe\n unsafe */\nlet s = \"unsafe\";\n#![forbid(unsafe_code)]\n";
        assert!(lint_text("crates/x/src/lib.rs", text, "").is_empty());
    }

    #[test]
    fn hot_path_unwrap_fires_only_in_hot_files() {
        let text = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_text("crates/trie/src/jump.rs", text, "").len(), 1);
        assert!(lint_text("crates/trie/src/merge.rs", text, "").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }\n";
        assert!(lint_text("crates/engine/src/service.rs", text, "").is_empty());
    }

    #[test]
    fn allowlist_waives_findings() {
        let text = "let cap = v.len().try_into().expect(\"slab overflow\");\n";
        let allow = "crates/trie/src/jump.rs\texpect(\"slab overflow\")";
        assert!(lint_text("crates/trie/src/jump.rs", text, allow).is_empty());
        assert_eq!(lint_text("crates/trie/src/jump.rs", text, "").len(), 1);
    }

    #[test]
    fn raw_power_literal_fires_in_power_crates_only() {
        let text = "let static_w = 4.5;\n";
        let findings = lint_text("crates/fpga/src/bram.rs", text, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::NoRawPowerLiteral);
        // Outside the power crates the same line is fine.
        assert!(lint_text("crates/trie/src/stats.rs", text, "").is_empty());
        // In the designated calibration homes it is also fine.
        assert!(lint_text("crates/fpga/src/grade.rs", text, "").is_empty());
    }

    #[test]
    fn raw_instant_fires_in_timed_engine_modules_only() {
        let text = "let start = std::time::Instant::now();\n";
        let findings = lint_text("crates/engine/src/service.rs", text, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::NoRawInstant);
        // The telemetry crate is the sanctioned home of Instant.
        assert!(lint_text("crates/telemetry/src/span.rs", text, "").is_empty());
        // Bench binaries time whole runs; they are not packet-path code.
        assert!(lint_text("crates/bench/src/bin/bench_lookup.rs", text, "").is_empty());
    }

    #[test]
    fn raw_instant_in_tests_and_comments_is_ignored() {
        let text = "fn f() {}\n// Instant::now() in prose\n#[cfg(test)]\nmod tests { fn g() { let t = Instant::now(); } }\n";
        assert!(TIMED_FILES.contains(&"crates/engine/src/sharded.rs"));
        assert!(lint_text("crates/engine/src/sharded.rs", text, "").is_empty());
    }

    #[test]
    fn prefetch_is_confined_to_its_home_module() {
        let text = "core::arch::x86_64::_mm_prefetch::<0>(p);\n";
        let findings = lint_text("crates/trie/src/jump.rs", text, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::NoPrefetchOutsideHome);
        // The engine must not grow its own prefetch either.
        assert_eq!(
            lint_text("crates/engine/src/sharded.rs", text, "")[0].rule,
            LintRule::NoPrefetchOutsideHome
        );
        // In its sanctioned home the intrinsic is fine.
        assert!(lint_text(PREFETCH_HOME, text, "").is_empty());
        // Mentions in comments and strings do not fire.
        let prose = "// _mm_prefetch in prose\nlet s = \"_mm_prefetch\";\n";
        assert!(lint_text("crates/engine/src/service.rs", prose, "").is_empty());
    }

    #[test]
    fn raw_cache_slot_access_is_confined_to_the_cache_module() {
        let text = "let nh = decode(slot.nhi);\n";
        let findings = lint_text("crates/engine/src/service.rs", text, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::NoRawCacheSlot);
        assert_eq!(
            lint_text("crates/engine/src/sharded.rs", text, "")[0].rule,
            LintRule::NoRawCacheSlot
        );
        // In the probe API's home module the access is the point.
        assert!(lint_text(CACHE_HOME, text, "").is_empty());
        // Outside the engine crate the field name is not ours to police.
        assert!(lint_text("crates/trie/src/jump.rs", text, "").is_empty());
        // `.nhis` / `.nhi_bits` are different identifiers, not slot reads.
        let other = "let v = &self.nhis[base..];\nlet b = layout.nhi_bits;\n";
        assert!(lint_text("crates/engine/src/service.rs", other, "").is_empty());
        // Comments, strings, and test modules do not fire.
        let prose = "// slot.nhi in prose\nlet s = \"x.nhi\";\n#[cfg(test)]\nmod tests { fn g(s: Slot) -> u16 { s.nhi } }\n";
        assert!(lint_text("crates/engine/src/service.rs", prose, "").is_empty());
        // The allowlist escape hatch works here like everywhere else.
        let allow = "crates/engine/src/service.rs\tdecode(slot.nhi)";
        assert!(lint_text("crates/engine/src/service.rs", text, allow).is_empty());
    }

    #[test]
    fn float_without_power_marker_is_fine() {
        let text = "let ratio = 0.5;\n";
        assert!(lint_text("crates/fpga/src/par.rs", text, "").is_empty());
    }

    #[test]
    fn float_literal_shapes() {
        assert_eq!(find_float_literal("let x = 13.65;"), Some(8));
        assert!(find_float_literal("let x = 0.32;").is_some());
        assert!(find_float_literal("let x = 2.5e3;").is_some());
        assert!(find_float_literal("let x = 42;").is_none());
        assert!(find_float_literal("let x = 0xE5;").is_none());
        assert!(find_float_literal("foo.bar()").is_none());
        assert!(find_float_literal("group.1.push(x)").is_none());
        // Trivial scale factors and identities are not calibration data.
        assert!(find_float_literal("w * 1e-6").is_none());
        assert!(find_float_literal("w * 1e3").is_none());
        assert!(find_float_literal("ratio * 100.0").is_none());
        assert!(find_float_literal("if x > 0.0 {").is_none());
        assert!(find_float_literal("1.0 - systematic").is_none());
    }

    #[test]
    fn unused_allow_entries_become_stale_allow_findings() {
        let dir = std::env::temp_dir().join("vr_audit_lint_test");
        let src = dir.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "fn f() {}\n").unwrap();
        let allow = "# comment\ncrates/x/src/lib.rs\tnever-matches";
        let report = lint_workspace(&dir, allow, "lint.allow").unwrap();
        // A stale entry is a finding, not a footnote: the gate fails.
        assert!(!report.is_clean());
        assert_eq!(report.unused_allows.len(), 1);
        let stale = &report.findings[0];
        assert_eq!(stale.rule, LintRule::StaleAllow);
        assert_eq!(stale.file, "lint.allow");
        assert_eq!(stale.line, 2, "entry line in the allowlist file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn findings_carry_exact_columns() {
        let text = "fn f() {\n    let x = foo.unwrap();\n}\n";
        let findings = lint_text("crates/trie/src/jump.rs", text, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        // `.unwrap()` starts at byte 15 → 1-based column 16.
        assert_eq!(findings[0].column, 16);
        assert!(findings[0]
            .render()
            .starts_with("crates/trie/src/jump.rs:2:16:"));
    }

    #[test]
    fn strip_line_is_length_preserving() {
        let mut in_block = false;
        for line in [
            "let x = 1; // trailing comment with unsafe",
            "let s = \"unsafe in a string\"; let y = 2;",
            "before /* block unsafe */ after",
            "plain line",
        ] {
            let stripped = strip_line(line, &mut in_block);
            assert_eq!(stripped.len(), line.len(), "{line:?}");
        }
        // An open block comment blanks to the end of the line.
        let stripped = strip_line("code(); /* starts here", &mut in_block);
        assert!(in_block);
        assert_eq!(stripped.len(), "code(); /* starts here".len());
        assert!(stripped.starts_with("code(); "));
    }

    #[test]
    fn raw_atomics_are_confined_to_their_homes() {
        let text = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        let findings = lint_text("crates/engine/src/service.rs", text, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::NoRawAtomic);
        // A bare ordering argument fires too.
        let store = "self.flag.store(true, Ordering::Release);\n";
        assert_eq!(
            lint_text("crates/control/src/plane.rs", store, "")[0].rule,
            LintRule::NoRawAtomic
        );
        // The wrapper crate and the telemetry counters are the homes.
        assert!(lint_text("crates/sync/src/genctr.rs", text, "").is_empty());
        assert!(lint_text("crates/telemetry/src/metrics.rs", text, "").is_empty());
        // `cmp::Ordering` in sort code is not an atomic ordering.
        let sort = "items.sort_by(|a, b| a.cmp(b).then(std::cmp::Ordering::Less));\n";
        assert!(lint_text("crates/engine/src/service.rs", sort, "").is_empty());
        // Comments and test modules do not fire.
        let prose = "// AtomicU64 in prose\n#[cfg(test)]\nmod tests { use std::sync::atomic::AtomicU64; }\n";
        assert!(lint_text("crates/engine/src/service.rs", prose, "").is_empty());
    }

    #[test]
    fn relaxed_publication_fires_outside_the_sync_crate() {
        // The textual twin of the model checker's RelaxedGenStore seeded
        // bug: a generation published without release ordering.
        let text = "self.generation.store(next, Ordering::Relaxed);\n";
        let findings = lint_text("crates/engine/src/service.rs", text, "");
        assert_eq!(findings.len(), 2, "raw atomic AND relaxed publish");
        assert!(findings
            .iter()
            .any(|f| f.rule == LintRule::NoRelaxedPublish));
        let publish = "publish_flag.store(1, Ordering::Relaxed);\n";
        assert!(lint_text("crates/control/src/plane.rs", publish, "")
            .iter()
            .any(|f| f.rule == LintRule::NoRelaxedPublish));
        // Relaxed without a publication-side name on the line is rule 8's
        // business, not rule 9's (telemetry-style statistics counters).
        let counter = "self.count.fetch_add(1, Ordering::Relaxed);\n";
        assert!(lint_text("crates/engine/src/service.rs", counter, "")
            .iter()
            .all(|f| f.rule == LintRule::NoRawAtomic));
        // crates/sync models Relaxed publication deliberately.
        assert!(lint_text("crates/sync/src/programs.rs", text, "").is_empty());
        // A mention in a comment does not fire.
        let prose = "// a Relaxed generation store would tear\n";
        assert!(lint_text("crates/engine/src/service.rs", prose, "").is_empty());
    }
}
