//! Benchmark-side spans: one around every call into the program during a
//! traced segment. They are kept in memory and written once, at exit, as
//! Chrome trace-event JSON. The program's own `vr-obs` tracer is read only
//! for the cross-check; spans inside the program are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans written per run; later ones are counted and dropped so the file
/// stays openable.
const MAX_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Shared by all spans of one frame or call.
    pub request: u64,
    /// Index of the enclosing span, `None` for a segment.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Row in the trace viewer: 0 the lookup client, 1 the update client.
    pub tid: u32,
}

impl Span {
    /// A top-level span; the segment becomes its parent when it is merged.
    pub fn new(name: &'static str, request: u64, (start_ns, end_ns): (u64, u64), tid: u32) -> Self {
        Self {
            name,
            request,
            parent: None,
            start_ns,
            end_ns,
            tid,
        }
    }

    pub fn child_of(self, parent: u32) -> Self {
        Self {
            parent: Some(parent),
            ..self
        }
    }
}

/// Nanoseconds from `epoch` to `t` (0 if `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn at(&self, t: Instant) -> u64 {
        ns_since(self.epoch, t)
    }

    /// Records a closed span and returns its index, for use as a parent.
    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is filled in by [`Self::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
    ) -> u32 {
        let start_ns = self.at(start);
        self.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            tid: 0,
        })
    }

    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.at(end);
        self.spans[index as usize].end_ns = end_ns;
    }

    pub fn append(&mut self, mut other: Vec<Span>) {
        self.spans.append(&mut other);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total nanoseconds of the spans called `name`, and how many there are.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Self time of the spans called `name`: their duration minus the part
    /// their direct children cover.
    pub fn self_time(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum()
    }

    /// Chrome trace-event JSON (object format, complete `X` events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len().min(MAX_WRITTEN) * 160 + 128);
        out.push_str("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().take(MAX_WRITTEN).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"request\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
                s.tid,
                s.request,
            );
        }
        let _ = write!(
            out,
            "\n], \"displayTimeUnit\": \"ns\", \"spans_recorded\": {}, \"spans_written\": {}}}\n",
            self.spans.len(),
            self.spans.len().min(MAX_WRITTEN)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_the_file_passes_the_repo_checker() {
        let mut spans = Spans::new();
        let t0 = spans.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let seg = spans.open("segment", 0, None, at(0));
        let req = spans.open("request", 1, Some(seg), at(10));
        let call = spans.open("wire.lookup", 1, Some(req), at(10));
        spans.close(call, at(40));
        let check = spans.open("verify", 1, Some(req), at(40));
        spans.close(check, at(45));
        spans.close(req, at(50));
        spans.close(seg, at(100));
        assert_eq!(spans.total("wire.lookup"), (30_000, 1));
        assert_eq!(spans.self_time("request"), 5_000);
        assert_eq!(spans.self_time("segment"), 60_000);
        let json = spans.chrome_json();
        assert_eq!(vr_obs::check_chrome_trace(&json), Ok(4));
    }
}
