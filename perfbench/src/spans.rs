//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the span
//! that caused it, and the operation it belongs to. Spans on an
//! operation's path are children of the operation's span; a *probe* (an
//! extra call made off the path to split a fused cost) has no parent and
//! is a sibling of the operation. Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// What an operation span ran (a program, a request class).
    pub label: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        self.begin_labelled(name, "", op, parent)
    }

    pub fn begin_labelled(
        &mut self,
        name: &'static str,
        label: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let parent = parent.map(|p| p.0);
        self.spans.push(Span { name, label, op, parent, start_ns, end_ns: start_ns });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) -> f64 {
        self.spans[id.0].end_ns = self.now_ns();
        self.spans[id.0].ms()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per operation, the summed self time (span minus its children) of
    /// every span named `name`, for the operations that have one.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_op: Vec<(u64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let self_ms = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            match per_op.last_mut() {
                Some((op, ms)) if *op == s.op => *ms += self_ms,
                _ => per_op.push((s.op, self_ms)),
            }
        }
        per_op.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Operation wall time not covered by the spans on its path, over
    /// operation wall time, summed across every operation span (a span
    /// without a parent whose name ends in `.op`).
    pub fn unattributed_share(&self) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut wall, mut loose) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name.ends_with(".op") {
                let d = s.end_ns - s.start_ns;
                wall += d;
                loose += d.saturating_sub(covered[i]);
            }
        }
        if wall == 0 {
            0.0
        } else {
            loose as f64 / wall as f64
        }
    }

    /// The spans as JSON lines (times in microseconds from the run start).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"label\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.label,
                s.op,
                parent,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes_are_siblings() {
        let mut t = Tracer::default();
        let op = t.begin("w.op", 0, None);
        let spin = || {
            let start = std::time::Instant::now();
            while start.elapsed().as_micros() < 2000 {}
        };
        t.time("layer.a", 0, Some(op), spin);
        t.end(op);
        t.time("layer.probe", 0, None, || ());
        let op1 = t.begin("w.op", 1, None);
        t.end(op1);
        assert_eq!(t.self_ms_per_op("layer.a").len(), 1);
        assert!(t.self_ms_per_op("layer.a")[0] >= 2.0);
        let op_self = t.self_ms_per_op("w.op");
        assert_eq!(op_self.len(), 2);
        assert!(op_self[0] < t.spans()[0].ms());
        assert!(t.unattributed_share() < 0.5);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
