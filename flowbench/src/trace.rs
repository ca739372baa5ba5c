//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API; nothing inside the library is
//! instrumented. Spans stay in memory and are written out once, at the
//! end, as Chrome trace-event JSON. With tracing off every call is a
//! plain pass-through that reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Parent index of a span with no parent.
pub const NO_PARENT: usize = usize::MAX;
/// Request id of a span that belongs to no single request.
pub const NO_REQ: u64 = u64::MAX;

/// One timed interval on the trace's clock (nanoseconds since the
/// tracer's origin).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: usize,
    /// Request (or graph) id shared by every span of one request.
    pub req: u64,
}

/// Records spans when enabled; does nothing when not.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index ([`NO_PARENT`] when disabled),
    /// to be passed to [`Tracer::close`] and used as a parent.
    pub fn open(&mut self, name: &'static str, parent: usize) -> usize {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req: NO_REQ,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        if self.enabled {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        out
    }

    /// Records a span that ran from `base + start` to `base + end`, for
    /// intervals another component timed (spans before the tracer's
    /// origin are clamped to it).
    pub fn record(
        &mut self,
        name: &'static str,
        base: Instant,
        (start, end): (Duration, Duration),
        parent: usize,
        req: u64,
    ) {
        if !self.enabled {
            return;
        }
        let at = |d: Duration| (base + d).saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            req,
        });
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Share of span `idx`'s interval covered by its direct children.
    pub fn coverage(&self, idx: usize) -> f64 {
        let children = self.children();
        let span = self.spans[idx];
        let dur = span.end_ns - span.start_ns;
        if dur == 0 {
            return 0.0;
        }
        covered_ns(
            &self.spans,
            children.get(&idx).map_or(&[][..], Vec::as_slice),
        ) as f64
            / dur as f64
    }

    fn children(&self) -> BTreeMap<usize, Vec<usize>> {
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                map.entry(s.parent).or_default().push(i);
            }
        }
        map
    }

    /// Per span name: calls, total seconds, and self seconds (each span's
    /// duration minus the part of it its children cover), sorted by
    /// self time, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let children = self.children();
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
            let own = dur.saturating_sub(covered_ns(&self.spans, kids));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, total, own))| (n, c, total as f64 / 1e9, own as f64 / 1e9))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(b.0)));
        rows
    }

    /// Chrome trace-event JSON of every span (complete `X` events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ =
                writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"req\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
                if s.req == NO_REQ { -1 } else { s.req as i64 },
                if i + 1 == self.spans.len() { "" } else { "," },
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Nanoseconds of the union of the given spans' intervals.
fn covered_ns(spans: &[Span], idx: &[usize]) -> u64 {
    let mut iv: Vec<(u64, u64)> = idx
        .iter()
        .map(|&i| (spans[i].start_ns, spans[i].end_ns))
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: NO_REQ,
        }
    }

    fn push(t: &mut Tracer, s: Span) -> usize {
        t.spans.push(s);
        t.spans.len() - 1
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = push(&mut t, span("root", 0, 100, NO_PARENT));
        push(&mut t, span("a", 10, 40, root));
        push(&mut t, span("a", 30, 50, root));
        push(&mut t, span("b", 60, 70, root));
        let rows = t.self_times();
        let root_row = rows.iter().find(|r| r.0 == "root").unwrap();
        assert_eq!(root_row.3, 50e-9);
        assert!((t.coverage(root) - 0.5).abs() < 1e-12);
        assert_eq!(t.calls("a"), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let idx = t.open("x", NO_PARENT);
        t.close(idx);
        assert_eq!(t.time("y", idx, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
