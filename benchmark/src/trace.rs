//! In-memory spans around every call the harness makes into a layer.
//!
//! A span is `{name, op_id, parent, start_ns, end_ns}`; spans of one
//! operation share `op_id`, and `parent` is the index of the span that
//! caused this one (`null` for an operation's root). A layer's *self
//! time* is its span minus the part of it its children cover. Spans are
//! kept in memory and written out once, after the measured window.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, usable as a later span's `parent`.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean span duration in microseconds (0 when never recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The span recorder. Recording can be switched per operation so a
/// traced run interleaves traced and untraced blocks and reports the
/// difference as the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            recording: false,
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records one finished span; `None` while recording is off.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.recording {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Moves the end of an already recorded span (an operation's root is
    /// opened before its children and closed after them).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.nanos(end);
        self.spans[id].end_ns = end_ns;
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Per-name totals with self times: each span's duration minus the
    /// part of its interval its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                covered[parent] += end.saturating_sub(start);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        totals
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{index},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tracer = Tracer::new();
        tracer.set_recording(true);
        let t0 = tracer.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = tracer.span("op", 0, None, at(0), at(100));
        tracer.span("a", 0, root, at(10), at(40));
        tracer.span("b", 0, root, at(50), at(90));
        let totals = tracer.totals();
        assert_eq!(totals["op"].total_ns, 100_000);
        assert_eq!(totals["op"].self_ns, 30_000);
        assert_eq!(totals["a"].self_ns, 30_000);
        assert_eq!(totals["b"].count, 1);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let mut tracer = Tracer::new();
        let now = Instant::now();
        assert_eq!(tracer.span("op", 0, None, now, now), None);
        assert_eq!(tracer.to_json(), "[\n]\n");
    }
}
