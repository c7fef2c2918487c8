//! Request-scoped tracing: a per-request span tree with near-zero cost
//! when sampling is off.
//!
//! A [`TraceCtx`] is allocated per *sampled* request at the serving
//! boundary and carried with the request. While the request executes on a
//! reader thread, the context is **installed** into a thread-local slot;
//! instrumentation sites anywhere below ([`stage`], [`add_bytes`],
//! [`add_blocks`], [`add_items`]) attach spans and per-stage byte/block
//! counts to whatever context is installed — no signature threading
//! through the engine, long-list store, or disk layers.
//!
//! The cost model, in order of how often each path runs:
//!
//! * **No trace installed anywhere** (sampling off — the production
//!   default): every instrumentation site is one relaxed atomic load and
//!   a branch.
//! * **A trace installed on some other thread**: one atomic load plus a
//!   thread-local probe that finds nothing.
//! * **A trace installed on this thread**: a `Vec` push and two
//!   `Instant` reads per span.
//!
//! On [`TraceCtx::finish`] the whole tree is emitted on the NDJSON event
//! stream: one `trace` event for the request plus one `tspan` event per
//! span, linked by `trace_id` and parent indices. Span 0 is always the
//! root `request` span; its duration is the end-to-end latency measured
//! from context creation (admission) to finish.

use crate::events::{emit_event, events_enabled, Field};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One node of a span tree.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (`"queue"`, `"cache"`, `"engine"`, `"disk"`, ...).
    pub name: &'static str,
    /// Index of the parent span in [`TraceCtx::spans`]; `-1` for the root.
    pub parent: i64,
    /// Start offset from the trace start, microseconds.
    pub start_us: u64,
    /// Duration, microseconds (filled when the span closes).
    pub dur_us: u64,
    /// Bytes attributed to this span (e.g. device bytes read).
    pub bytes: u64,
    /// Device blocks attributed to this span.
    pub blocks: u64,
    /// Generic item count (postings, cache lookups, ...).
    pub items: u64,
}

/// A request's span tree under construction. Span 0 (`request`) is opened
/// at creation and closed by [`TraceCtx::finish`].
#[derive(Debug)]
pub struct TraceCtx {
    trace_id: u64,
    started: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

/// Number of contexts currently installed across all threads. The fast
/// no-trace bail-out in [`stage`] and the count helpers is a single
/// relaxed load of this.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// Process-wide trace id allocator (monotonic, good enough to correlate
/// events within one NDJSON stream).
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl TraceCtx {
    /// Begin a trace; the root `request` span starts now.
    pub fn start(trace_id: u64) -> Self {
        let mut spans = Vec::with_capacity(8);
        spans.push(SpanRecord {
            name: "request",
            parent: -1,
            start_us: 0,
            dur_us: 0,
            bytes: 0,
            blocks: 0,
            items: 0,
        });
        Self { trace_id, started: Instant::now(), spans, stack: vec![0] }
    }

    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The spans recorded so far (span 0 is the root).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Record an already-measured span as a child of the innermost open
    /// span — used for intervals measured outside the installed window,
    /// like queue wait (`start_us` 0 = admission).
    pub fn add_span(&mut self, name: &'static str, start_us: u64, dur_us: u64) {
        let parent = *self.stack.last().unwrap_or(&0) as i64;
        self.spans.push(SpanRecord {
            name,
            parent,
            start_us,
            dur_us,
            bytes: 0,
            blocks: 0,
            items: 0,
        });
    }

    fn open_span(&mut self, name: &'static str) {
        let parent = *self.stack.last().unwrap_or(&0) as i64;
        let start_us = self.now_us();
        self.spans.push(SpanRecord {
            name,
            parent,
            start_us,
            dur_us: 0,
            bytes: 0,
            blocks: 0,
            items: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close_span(&mut self) {
        // The root (index 0) only closes via finish().
        if self.stack.len() > 1 {
            if let Some(idx) = self.stack.pop() {
                let end = self.now_us();
                self.spans[idx].dur_us = end.saturating_sub(self.spans[idx].start_us);
            }
        }
    }

    fn innermost(&mut self) -> &mut SpanRecord {
        let idx = *self.stack.last().unwrap_or(&0);
        &mut self.spans[idx]
    }

    /// Close the root span and emit the tree on the event stream (one
    /// `trace` event plus one `tspan` per span; a no-op stream-wise when
    /// no sink is installed). Returns the end-to-end duration in µs.
    pub fn finish(mut self, label: &str, outcome: &str) -> u64 {
        let total_us = self.now_us();
        self.spans[0].dur_us = total_us;
        if events_enabled() {
            emit_event(
                "trace",
                &[
                    ("trace_id", Field::U64(self.trace_id)),
                    ("req", Field::Str(label.to_string())),
                    ("outcome", Field::Str(outcome.to_string())),
                    ("total_us", Field::U64(total_us)),
                    ("spans", Field::U64(self.spans.len() as u64)),
                ],
            );
            for (id, s) in self.spans.iter().enumerate() {
                emit_event(
                    "tspan",
                    &[
                        ("trace_id", Field::U64(self.trace_id)),
                        ("id", Field::U64(id as u64)),
                        ("parent", Field::I64(s.parent)),
                        ("name", Field::Str(s.name.to_string())),
                        ("start_us", Field::U64(s.start_us)),
                        ("dur_us", Field::U64(s.dur_us)),
                        ("bytes", Field::U64(s.bytes)),
                        ("blocks", Field::U64(s.blocks)),
                        ("items", Field::U64(s.items)),
                    ],
                );
            }
        }
        total_us
    }
}

/// Install `ctx` as this thread's current trace. Subsequent [`stage`] /
/// `add_*` calls on this thread attach to it until [`uninstall`].
pub fn install(ctx: TraceCtx) {
    CURRENT.with(|cell| {
        let prev = cell.borrow_mut().replace(ctx);
        if prev.is_none() {
            INSTALLED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Remove and return this thread's current trace (if any).
pub fn uninstall() -> Option<TraceCtx> {
    CURRENT.with(|cell| {
        let ctx = cell.borrow_mut().take();
        if ctx.is_some() {
            INSTALLED.fetch_sub(1, Ordering::Relaxed);
        }
        ctx
    })
}

/// Whether any thread currently has a trace installed (the cheap global
/// gate instrumentation sites check first).
#[inline]
pub fn trace_active() -> bool {
    INSTALLED.load(Ordering::Relaxed) > 0
}

/// RAII guard for a stage span opened by [`stage`]. Closes the span on
/// drop; a no-op when no trace was installed at open time.
pub struct StageGuard {
    open: bool,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if self.open {
            CURRENT.with(|cell| {
                if let Some(ctx) = cell.borrow_mut().as_mut() {
                    ctx.close_span();
                }
            });
        }
    }
}

/// Open a stage span on the current thread's trace. When no trace is
/// installed this is one relaxed atomic load.
#[inline]
pub fn stage(name: &'static str) -> StageGuard {
    if !trace_active() {
        return StageGuard { open: false };
    }
    CURRENT.with(|cell| match cell.borrow_mut().as_mut() {
        Some(ctx) => {
            ctx.open_span(name);
            StageGuard { open: true }
        }
        None => StageGuard { open: false },
    })
}

#[inline]
fn with_innermost(f: impl FnOnce(&mut SpanRecord)) {
    if !trace_active() {
        return;
    }
    CURRENT.with(|cell| {
        if let Some(ctx) = cell.borrow_mut().as_mut() {
            f(ctx.innermost());
        }
    });
}

/// Attribute `n` bytes to the innermost open span of this thread's trace.
#[inline]
pub fn add_bytes(n: u64) {
    with_innermost(|s| s.bytes += n);
}

/// Attribute `n` device blocks to the innermost open span.
#[inline]
pub fn add_blocks(n: u64) {
    with_innermost(|s| s.blocks += n);
}

/// Attribute `n` items (postings, lookups, ...) to the innermost open
/// span.
#[inline]
pub fn add_items(n: u64) {
    with_innermost(|s| s.items += n);
}

/// 1-in-N request sampler. `every == 0` never samples, `1` samples
/// everything, `N` samples every Nth arrival (deterministic round-robin,
/// so load tests get an exact sampled fraction).
#[derive(Debug)]
pub struct Sampler {
    every: u32,
    ticket: AtomicU64,
}

impl Sampler {
    /// A sampler admitting one in `every` requests.
    pub fn new(every: u32) -> Self {
        Self { every, ticket: AtomicU64::new(0) }
    }

    /// The configured rate (0 = off).
    pub fn every(&self) -> u32 {
        self.every
    }

    /// Should this arrival be sampled?
    #[inline]
    pub fn hit(&self) -> bool {
        match self.every {
            0 => false,
            1 => true,
            n => self.ticket.fetch_add(1, Ordering::Relaxed).is_multiple_of(n as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_rates() {
        assert!(!Sampler::new(0).hit());
        let all = Sampler::new(1);
        assert!(all.hit() && all.hit());
        let s = Sampler::new(4);
        let hits = (0..16).filter(|_| s.hit()).count();
        assert_eq!(hits, 4);
    }

    #[test]
    fn stage_without_install_is_noop() {
        let before = trace_active();
        {
            let _g = stage("nothing");
            add_bytes(10);
        }
        assert_eq!(trace_active(), before);
    }

    #[test]
    fn span_tree_nests_and_annotates() {
        install(TraceCtx::start(next_trace_id()));
        {
            let _outer = stage("engine");
            {
                let _inner = stage("disk");
                add_blocks(4);
                add_bytes(4096);
            }
            {
                let _inner = stage("disk");
                add_blocks(2);
            }
            add_items(7);
        }
        let mut ctx = uninstall().expect("installed");
        ctx.add_span("queue", 0, 123);
        let spans = ctx.spans();
        assert_eq!(spans[0].name, "request");
        let engine = spans.iter().position(|s| s.name == "engine").unwrap();
        assert_eq!(spans[engine].parent, 0);
        assert_eq!(spans[engine].items, 7);
        let disks: Vec<_> = spans.iter().filter(|s| s.name == "disk").collect();
        assert_eq!(disks.len(), 2);
        assert!(disks.iter().all(|s| s.parent == engine as i64));
        assert_eq!(disks[0].blocks, 4);
        assert_eq!(disks[0].bytes, 4096);
        let queue = spans.iter().find(|s| s.name == "queue").unwrap();
        assert_eq!((queue.parent, queue.dur_us), (0, 123));
        assert!(!trace_active());
        let total = ctx.finish("QUERY x", "ok");
        let _ = total;
    }

    #[test]
    fn finish_emits_tree_on_event_stream() {
        // The sink is process-global; keep this self-contained and
        // tolerant of other tests by draining first.
        let _ = crate::take_memory_events();
        crate::init_memory_event_sink();
        install(TraceCtx::start(42));
        {
            let _s = stage("engine");
        }
        let ctx = uninstall().unwrap();
        ctx.finish("QUERY cat", "ok");
        let text = crate::take_memory_events().unwrap();
        let trace_lines: Vec<&str> =
            text.lines().filter(|l| l.contains("\"kind\":\"trace\"")).collect();
        assert_eq!(trace_lines.len(), 1);
        assert!(trace_lines[0].contains("\"trace_id\":42"));
        assert!(trace_lines[0].contains("\"req\":\"QUERY cat\""));
        let span_lines: Vec<&str> =
            text.lines().filter(|l| l.contains("\"kind\":\"tspan\"")).collect();
        assert_eq!(span_lines.len(), 2); // request + engine
        assert!(span_lines[0].contains("\"name\":\"request\""));
        assert!(span_lines[1].contains("\"name\":\"engine\""));
        assert!(span_lines[1].contains("\"parent\":0"));
    }
}
