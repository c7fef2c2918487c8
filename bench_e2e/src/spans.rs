//! In-memory span recording for the traced pass.
//!
//! One span per call into a layer: name (the layer-metric prefix), start,
//! end, the span that caused it, and the batch/request it belongs to.
//! Spans stay in memory until the run ends, then go to an ndjson file.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Batch or request ordinal shared by the spans of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans of one thread; nesting follows call order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to operation `op`;
    /// spans opened by `f` through the tracer it is handed become children.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// A leaf span around one call.
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.scope(name, op, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in milliseconds, grouped by span name, in recording order.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            out.entry(span.name).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id": {}, "parent": {parent}, "name": "{}", "op": {}, "start_ns": {}, "end_ns": {}, "self_ns": {self_ns}}}"#,
                s.id, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span). Indexed like `spans`;
/// `spans[i].id` must equal `i`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps its sibling: the shared 30..40 is covered once.
            span(2, Some(0), 30, 60),
            // A grandchild shortens its parent, not the root.
            span(3, Some(2), 35, 45),
            // A child that outlives its parent is clipped to it.
            span(4, Some(0), 90, 130),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::default();
        t.scope("batch", 7, |t| {
            t.leaf("ir.add", 7, || ());
            t.leaf("ir.flush", 7, || ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let by_name = t.self_ms_by_name();
        assert_eq!(by_name["ir.add"].len(), 1);
        assert_eq!(by_name.len(), 3);
    }
}
