//! Prometheus text exposition for a [`TelemetrySnapshot`], plus a
//! structural validator the smoke tests and CI run over the output.
//!
//! The format follows the Prometheus text exposition conventions:
//! one `# TYPE` line per metric family, counters suffixed `_total`,
//! histograms as cumulative `le`-labelled bucket series plus `_sum`
//! and `_count`. Log₂ buckets are emitted up to the highest non-empty
//! bucket (then `+Inf`), so a 64-bucket histogram stays compact.

use crate::histogram::{bucket_bounds, HistogramSnapshot};
use crate::snapshot::TelemetrySnapshot;
use std::fmt::Write as _;

/// Curated `# HELP` strings for the metric families the workspace
/// emits. Families not listed fall back to a generated one-liner, so
/// every family always carries a HELP line (some scrapers warn on its
/// absence).
const KNOWN_HELP: &[(&str, &str)] = &[
    (
        "vr_service_lookups_total",
        "Packets looked up by the service",
    ),
    (
        "vr_service_batches_total",
        "Lookup calls the service resolved",
    ),
    ("vr_service_lookup_ns", "Per-lookup wall time of each call"),
    ("vr_service_swaps_total", "RCU table-generation publishes"),
    (
        "vr_service_generation",
        "Table generation currently visible to lookups",
    ),
    (
        "vr_service_updates_total",
        "Route updates applied through apply_updates",
    ),
    (
        "vr_service_update_ns",
        "Wall time of each apply_updates call",
    ),
];

/// Escapes a `# HELP` string per the Prometheus text exposition rules:
/// backslash and newline are the only characters with escape sequences
/// (`\\` and `\n`); everything else passes through verbatim.
#[must_use]
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn write_help(out: &mut String, name: &str, kind: &str) {
    let help = KNOWN_HELP.iter().find(|(n, _)| *n == name).map_or_else(
        || format!("vr-telemetry {kind} {name}"),
        |(_, h)| (*h).to_string(),
    );
    let _ = writeln!(out, "# HELP {} {}", name, escape_help(&help));
}

/// Renders the snapshot in Prometheus text exposition format. Events
/// are not exported here (they are structured, not numeric); use the
/// JSON exporter for the ring. Every family gets a `# HELP` line
/// (escaped per the exposition rules) followed by its `# TYPE` line.
#[must_use]
pub fn to_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        write_help(&mut out, &c.name, "counter");
        let _ = writeln!(out, "# TYPE {} counter", c.name);
        let _ = writeln!(out, "{} {}", c.name, c.value);
    }
    for g in &snapshot.gauges {
        write_help(&mut out, &g.name, "gauge");
        let _ = writeln!(out, "# TYPE {} gauge", g.name);
        let _ = writeln!(out, "{} {}", g.name, g.value);
    }
    for h in &snapshot.histograms {
        write_histogram(&mut out, h);
    }
    out
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    write_help(out, &h.name, "histogram");
    let _ = writeln!(out, "# TYPE {} histogram", h.name);
    let last_used = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| i + 1)
        .min(h.buckets.len().saturating_sub(1));
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate().take(last_used + 1) {
        cumulative += c;
        let _ = writeln!(
            out,
            "{}_bucket{{le=\"{}\"}} {}",
            h.name,
            bucket_bounds(i).1,
            cumulative
        );
    }
    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
    let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
    let _ = writeln!(out, "{}_count {}", h.name, h.count);
}

/// Structurally validates Prometheus text output:
///
/// * exactly one `# TYPE` line per metric family, with a known type;
/// * at most one `# HELP` line per family, naming a family that is
///   also `# TYPE`-declared somewhere in the exposition;
/// * every sample line belongs to a declared family and its value
///   parses as a finite number;
/// * histogram `le` buckets are cumulative (non-decreasing) and the
///   `+Inf` bucket equals `_count`.
///
/// # Errors
/// Returns a description of the first violation found.
pub fn check_prometheus(text: &str) -> Result<(), String> {
    let mut families: Vec<(String, &'static str)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    // Per-histogram running state: (family, last cumulative, inf, count)
    let mut hist_last: Vec<(String, u64, Option<u64>, Option<u64>)> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some(name) = rest.split_whitespace().next() else {
                return Err(format!("line {lineno}: # HELP line names no family"));
            };
            if helped.iter().any(|n| n == name) {
                return Err(format!("line {lineno}: duplicate # HELP for {name}"));
            }
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {lineno}: malformed # TYPE line"));
            };
            let kind = match kind {
                "counter" => "counter",
                "gauge" => "gauge",
                "histogram" => "histogram",
                other => return Err(format!("line {lineno}: unknown metric type {other:?}")),
            };
            if families.iter().any(|(n, _)| n == name) {
                return Err(format!("line {lineno}: duplicate # TYPE for {name}"));
            }
            families.push((name.to_string(), kind));
            if kind == "histogram" {
                hist_last.push((name.to_string(), 0, None, None));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comments / HELP lines
        }
        let Some((sample, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {lineno}: sample line has no value"));
        };
        let Ok(value) = value.parse::<f64>() else {
            return Err(format!("line {lineno}: value {value:?} is not a number"));
        };
        if !value.is_finite() {
            return Err(format!("line {lineno}: non-finite sample value"));
        }
        let (name, label) = match sample.split_once('{') {
            Some((n, rest)) => (n, rest.strip_suffix('}')),
            None => (sample, None),
        };
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| families.iter().any(|(n, k)| n == base && *k == "histogram"))
            .unwrap_or(name);
        let Some((_, kind)) = families.iter().find(|(n, _)| n == family) else {
            return Err(format!("line {lineno}: sample {name} has no # TYPE line"));
        };
        if *kind == "histogram" {
            let state = hist_last
                .iter_mut()
                .find(|(n, ..)| n == family)
                .expect("histogram families are tracked");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let count = value as u64;
            if name.ends_with("_bucket") {
                let le = label
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: bucket without le label"))?;
                if le == "+Inf" {
                    state.2 = Some(count);
                } else {
                    le.parse::<u64>()
                        .map_err(|_| format!("line {lineno}: bad le bound {le:?}"))?;
                    if count < state.1 {
                        return Err(format!(
                            "line {lineno}: histogram {family} buckets not cumulative"
                        ));
                    }
                    state.1 = count;
                }
            } else if name.ends_with("_count") {
                state.3 = Some(count);
            }
        } else if (*kind == "counter") && value < 0.0 {
            return Err(format!("line {lineno}: counter {name} is negative"));
        }
    }
    for name in &helped {
        if !families.iter().any(|(n, _)| n == name) {
            return Err(format!("# HELP {name} has no matching # TYPE line"));
        }
    }
    for (family, last, inf, count) in &hist_last {
        let (Some(inf), Some(count)) = (inf, count) else {
            return Err(format!("histogram {family} missing +Inf bucket or _count"));
        };
        if inf != count {
            return Err(format!(
                "histogram {family}: +Inf bucket {inf} != _count {count}"
            ));
        }
        if last > inf {
            return Err(format!(
                "histogram {family}: finite buckets exceed +Inf ({last} > {inf})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use crate::registry::MetricsRegistry;

    fn sample() -> TelemetrySnapshot {
        let reg = MetricsRegistry::new(1);
        reg.counter("vr_lookups_total").add(100);
        reg.counter("vr_misses_total").inc();
        reg.gauge("vr_generation").set(3);
        let h = reg.histogram("vr_lookup_ns");
        for v in [1u64, 5, 300, 300, 9000] {
            h.record(v);
        }
        reg.events()
            .publish(EventKind::GenerationSwap { generation: 3 });
        reg.snapshot()
    }

    #[test]
    fn exposition_has_one_type_line_per_metric() {
        let text = to_prometheus(&sample());
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        assert_eq!(type_lines.len(), 4);
        assert!(text.contains("# TYPE vr_lookups_total counter"));
        assert!(text.contains("# TYPE vr_generation gauge"));
        assert!(text.contains("# TYPE vr_lookup_ns histogram"));
        assert!(text.contains("vr_lookup_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("vr_lookup_ns_sum 9606"));
        assert!(text.contains("vr_lookup_ns_count 5"));
    }

    #[test]
    fn exposition_passes_its_own_checker() {
        check_prometheus(&to_prometheus(&sample())).unwrap();
        // An empty snapshot is trivially valid too.
        let empty = MetricsRegistry::new(1).snapshot();
        check_prometheus(&to_prometheus(&empty)).unwrap();
    }

    #[test]
    fn help_lines_round_trip_through_the_checker() {
        let snap = sample();
        let text = to_prometheus(&snap);
        check_prometheus(&text).unwrap();
        // Every family — counter, gauge, histogram, curated or
        // fallback — carries exactly one HELP line, adjacent to (and
        // before) its TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        let helps: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("# HELP "))
            .collect();
        let types: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("# TYPE "))
            .collect();
        assert_eq!(helps.len(), types.len());
        for (i, l) in lines.iter().enumerate() {
            if let Some(rest) = l.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(
                    lines[i + 1].starts_with(&format!("# TYPE {name} ")),
                    "HELP for {name} not followed by its TYPE line"
                );
            }
        }
        // Unknown families get the generated fallback text…
        assert!(text.contains("# HELP vr_lookups_total vr-telemetry counter vr_lookups_total"));
        // …and a family from the curated table lands verbatim.
        let reg = MetricsRegistry::new(1);
        reg.counter("vr_service_swaps_total").inc();
        let curated = to_prometheus(&reg.snapshot());
        check_prometheus(&curated).unwrap();
        assert!(curated.contains("# HELP vr_service_swaps_total RCU table-generation publishes"));

        // The checker rejects HELP-specific malformations.
        assert!(check_prometheus("# HELP \n# TYPE vr_x counter\nvr_x 1\n").is_err());
        let dup = "# HELP vr_x a\n# HELP vr_x b\n# TYPE vr_x counter\nvr_x 1\n";
        assert!(check_prometheus(dup).is_err());
        assert!(check_prometheus("# HELP vr_ghost spooky\n").is_err());
    }

    #[test]
    fn escape_help_covers_backslash_and_newline() {
        assert_eq!(escape_help("plain text"), "plain text");
        assert_eq!(escape_help("a\\b"), "a\\\\b");
        assert_eq!(escape_help("line1\nline2"), "line1\\nline2");
        // Escaped output never contains a raw newline, so a HELP line
        // built from arbitrary text stays a single exposition line.
        let nasty = "multi\nline \\ with\nbreaks";
        assert!(!escape_help(nasty).contains('\n'));
    }

    #[test]
    fn checker_rejects_structural_violations() {
        assert!(check_prometheus("vr_orphan 1\n").is_err());
        assert!(check_prometheus("# TYPE vr_x widget\n").is_err());
        assert!(check_prometheus("# TYPE vr_x counter\n# TYPE vr_x counter\nvr_x 1\n").is_err());
        assert!(check_prometheus("# TYPE vr_x counter\nvr_x abc\n").is_err());
        let non_cumulative = "# TYPE vr_h histogram\n\
             vr_h_bucket{le=\"1\"} 5\n\
             vr_h_bucket{le=\"3\"} 2\n\
             vr_h_bucket{le=\"+Inf\"} 5\n\
             vr_h_sum 9\n\
             vr_h_count 5\n";
        assert!(check_prometheus(non_cumulative).is_err());
        let missing_inf = "# TYPE vr_h histogram\nvr_h_sum 9\nvr_h_count 5\n";
        assert!(check_prometheus(missing_inf).is_err());
    }
}
