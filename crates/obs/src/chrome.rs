//! Chrome trace-event JSON export.
//!
//! Renders [`BatchTrace`] stage chains in the Chrome trace-event
//! *object* format (`{"traceEvents": [...]}`), the shape both
//! `about:tracing` and Perfetto open directly. Each stage span becomes
//! one complete (`"ph": "X"`) event; timestamps are microseconds since
//! the tracer epoch, kept fractional so nanosecond spans survive.
//! Batches are laid out one thread-row per worker/shard (`tid`), with
//! the dispatcher/control plane on `tid` 0, so a dump reads like the
//! service's actual thread structure.

use crate::trace::{BatchTrace, Stage};
use serde::Value;

/// `tid` assigned to spans with no worker/shard attribution (the
/// dispatcher and control-plane rows).
const CONTROL_TID: u64 = 0;

fn event(trace: &BatchTrace, stage: Stage, start_ns: u64, dur_ns: u64) -> Value {
    let tid = match (trace.worker, trace.shard) {
        (Some(w), _) => w + 1,
        (None, Some(s)) => s + 1,
        (None, None) => CONTROL_TID,
    };
    // Enqueue happens on the dispatcher thread regardless of which
    // worker later ran the batch; pin it to the control row.
    let tid = if matches!(stage, Stage::Enqueue | Stage::Publish | Stage::ApplyUpdates) {
        CONTROL_TID
    } else {
        tid
    };
    Value::Map(vec![
        ("name".into(), Value::Str(stage.name().into())),
        ("cat".into(), Value::Str("batch".into())),
        ("ph".into(), Value::Str("X".into())),
        ("ts".into(), Value::F64(start_ns as f64 / 1000.0)),
        ("dur".into(), Value::F64(dur_ns as f64 / 1000.0)),
        ("pid".into(), Value::U64(1)),
        ("tid".into(), Value::U64(tid)),
        (
            "args".into(),
            Value::Map(vec![
                ("trace_id".into(), Value::U64(trace.trace_id)),
                ("seq".into(), Value::U64(trace.seq)),
                ("generation".into(), Value::U64(trace.generation)),
                ("packets".into(), Value::U64(trace.packets)),
            ]),
        ),
    ])
}

/// Renders traces as a Chrome trace-event JSON document.
#[must_use]
pub fn chrome_trace_json(traces: &[BatchTrace]) -> String {
    let mut events = Vec::new();
    for trace in traces {
        for span in &trace.stages {
            events.push(event(trace, span.stage, span.start_ns, span.dur_ns));
        }
    }
    let value = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
    ]);
    serde_json::to_string_pretty(&value).unwrap_or_else(|_| String::from("{\"traceEvents\": []}"))
}

/// Structurally validates a Chrome trace-event JSON document: the top
/// level must be an object whose `traceEvents` key holds a sequence of
/// event objects, each carrying `name`/`ph`/`ts`/`pid`/`tid`. This is
/// what the CI obs job runs over a scraped `/traces.json`.
///
/// # Errors
/// Returns a description of the first violation found.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    let value = serde_json::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    let Value::Map(top) = value else {
        return Err("top level is not an object".into());
    };
    let Some((_, Value::Seq(events))) = top.iter().find(|(k, _)| k == "traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let Value::Map(fields) = ev else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if !fields.iter().any(|(k, _)| k == key) {
                return Err(format!("traceEvents[{i}] missing {key:?}"));
            }
        }
        let ph_ok = fields.iter().any(|(k, v)| {
            k == "ph" && matches!(v, Value::Str(s) if s == "X" || s == "i" || s == "I")
        });
        if !ph_ok {
            return Err(format!("traceEvents[{i}] has unsupported ph"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Stage, Tracer};

    fn sample_trace() -> BatchTrace {
        let tracer = Tracer::new(1, 8);
        let mut b = tracer.begin(64, 32);
        b.mark(Stage::Enqueue);
        b.mark(Stage::Dequeue);
        b.mark(Stage::LaneWalk);
        b.set_worker(2);
        b.mark(Stage::Complete);
        b.finish()
    }

    #[test]
    fn export_round_trips_through_the_checker() {
        let t = sample_trace();
        let json = chrome_trace_json(std::slice::from_ref(&t));
        let n = check_chrome_trace(&json).unwrap();
        assert_eq!(n, 4, "one event per stage span");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"lane_walk\""));
        // Worker spans land on the worker row, enqueue on the control row.
        let value = serde_json::parse(&json).unwrap();
        let Value::Map(top) = value else {
            unreachable!()
        };
        let Value::Seq(events) = &top[0].1 else {
            unreachable!()
        };
        let tid_of = |name: &str| {
            events.iter().find_map(|e| {
                let Value::Map(f) = e else { return None };
                let matches = f
                    .iter()
                    .any(|(k, v)| k == "name" && matches!(v, Value::Str(s) if s == name));
                if !matches {
                    return None;
                }
                f.iter().find_map(|(k, v)| {
                    (k == "tid").then_some(match v {
                        Value::U64(t) => *t,
                        _ => u64::MAX,
                    })
                })
            })
        };
        assert_eq!(tid_of("enqueue"), Some(0));
        assert_eq!(tid_of("dequeue"), Some(3), "worker 2 -> tid 3");
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        assert!(check_chrome_trace("[1, 2]").is_err());
        assert!(check_chrome_trace("{\"events\": []}").is_err());
        assert!(check_chrome_trace("{\"traceEvents\": [{\"name\": \"x\"}]}").is_err());
        assert!(check_chrome_trace("not json").is_err());
    }
}
