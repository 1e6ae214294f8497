//! Structured request tracing: typed events in a lock-cheap ring buffer.
//!
//! The metrics in [`crate::registry`] aggregate over the process
//! lifetime; this module answers the *per-request* questions — which
//! tiles did this query touch, where did its latency go, which epoch did
//! this commit land in. The design mirrors the registry's: one
//! process-wide [`Tracer`] ([`tracer`]), cheap handles, and recording
//! paths that cost a single relaxed atomic load when tracing is off.
//!
//! # Model
//!
//! A **trace** groups everything done on behalf of one request and is
//! identified by a non-zero `u64` (allocated by [`new_trace_id`] or
//! supplied by the client). A **span** is a named, timed interval inside
//! a trace with parent linkage ([`begin_span`] / [`end_span`]); **point
//! events** ([`TraceEventKind`]) attach to whatever span is current on
//! the recording thread. The current span travels in a thread-local
//! ([`enter`], [`scoped`]) so deep layers — the buffer pool, the WAL,
//! the retry wrapper — can attribute events without threading context
//! through every signature. Spans that outlive the scope that opened
//! them (a serve request's root opens when its line is parsed and closes
//! after its sweep's replies are written) carry their [`SpanCtx`] by
//! value instead.
//!
//! # Storage and export
//!
//! Events land in a fixed-capacity ring of slots, each behind its own
//! (uncontended) mutex; a writer claims a slot with one `fetch_add` and
//! overwrites the oldest event when the ring is full — recording never
//! blocks on a reader, never allocates after the ring exists, and never
//! panics. Overwrites are counted ([`Tracer::dropped`]). In
//! [`TraceMode::Export`] each event is additionally serialised as one
//! `ss-trace-v1` JSON line to a configured writer; [`chrome_trace`]
//! converts those lines to the Chrome `trace_event` format for
//! chrome://tracing.

use crate::json::Value;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Version tag written on every exported JSON trace line.
pub const TRACE_SCHEMA: &str = "ss-trace-v1";

/// Ring capacity of the process-wide tracer (events).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// What the tracer does with recorded events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; every recording path is one relaxed load.
    Off,
    /// Keep events in the in-memory ring only.
    Ring,
    /// Ring plus one `ss-trace-v1` JSON line per event to the configured
    /// writer.
    Export,
}

const MODE_OFF: u8 = 0;
const MODE_RING: u8 = 1;
const MODE_EXPORT: u8 = 2;

/// One typed trace event (the payload part; identity and timing live in
/// [`TraceEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened.
    SpanBegin {
        /// Static span name (e.g. `serve.request`).
        name: &'static str,
    },
    /// A span closed; `dur_ns` is its wall-clock length.
    SpanEnd {
        /// Static span name, repeated so a single line is self-contained.
        name: &'static str,
        /// Nanoseconds between begin and end.
        dur_ns: u64,
    },
    /// The buffer pool resolved one tile/block read.
    TileFetch {
        /// Block id within the store.
        tile: u64,
        /// Whether the frame was already resident.
        hit: bool,
    },
    /// A WAL record was written (not yet durable).
    WalAppend {
        /// Epoch the record publishes.
        epoch: u64,
        /// Encoded frame length in bytes.
        bytes: u64,
    },
    /// The WAL write reached disk — the commit point.
    WalFsync {
        /// Epoch the fsync makes durable.
        epoch: u64,
    },
    /// A snapshot-store commit published a new epoch.
    Commit {
        /// The published epoch.
        epoch: u64,
        /// Dirty tiles in the commit.
        tiles: u64,
    },
    /// A checkpoint folded the overlay into the base store.
    Checkpoint {
        /// Epoch the checkpoint made the new base.
        epoch: u64,
    },
    /// A transient block-I/O failure triggered a retry.
    Retry {
        /// Block id being retried.
        block: u64,
        /// 1-based attempt number that failed.
        attempt: u64,
    },
    /// A request exceeded the slow-request threshold.
    SlowRequest {
        /// Observed request duration.
        dur_ns: u64,
        /// Configured threshold.
        threshold_ns: u64,
    },
}

impl TraceEventKind {
    /// The `ev` tag used on exported JSON lines.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEventKind::SpanBegin { .. } => "span_begin",
            TraceEventKind::SpanEnd { .. } => "span_end",
            TraceEventKind::TileFetch { .. } => "tile_fetch",
            TraceEventKind::WalAppend { .. } => "wal_append",
            TraceEventKind::WalFsync { .. } => "wal_fsync",
            TraceEventKind::Commit { .. } => "commit",
            TraceEventKind::Checkpoint { .. } => "checkpoint",
            TraceEventKind::Retry { .. } => "retry",
            TraceEventKind::SlowRequest { .. } => "slow_request",
        }
    }
}

/// One recorded event: identity, timing, payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's start instant (a per-process
    /// monotonic clock; not wall time).
    pub ts_ns: u64,
    /// Owning trace id (`0` = not tied to a request, e.g. a background
    /// checkpoint).
    pub trace: u64,
    /// The span this event belongs to (the span itself for
    /// `span_begin`/`span_end`; the enclosing span for point events; `0`
    /// for none).
    pub span: u64,
    /// Parent span id (`0` = root). Meaningful for span events.
    pub parent: u64,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// A live span's identity, returned by [`begin_span`] and consumed by
/// [`end_span`]. `Copy`, so it can ride through queues to whichever
/// thread finishes the work. A `SpanCtx` with `trace == 0` is inert:
/// ending it records nothing.
#[derive(Clone, Copy, Debug)]
pub struct SpanCtx {
    /// Owning trace id (`0` = inert).
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanCtx {
    /// An inert context: ending it records nothing.
    pub const fn none() -> SpanCtx {
        SpanCtx {
            trace: 0,
            span: 0,
            parent: 0,
            name: "",
            start_ns: 0,
        }
    }

    /// Whether this context belongs to a live trace.
    pub fn active(&self) -> bool {
        self.trace != 0
    }
}

struct Ring {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    /// Total events ever recorded; slot = `next % capacity`.
    next: AtomicU64,
    /// Events overwritten before anyone read them (oldest-first).
    dropped: AtomicU64,
}

/// Recovers from a poisoned slot/writer mutex: tracing is diagnostics,
/// a panic elsewhere must not cascade through it.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The trace sink: mode, ring, id allocators, optional export writer.
pub struct Tracer {
    mode: AtomicU8,
    capacity: usize,
    ring: OnceLock<Ring>,
    start: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    out: Mutex<Option<Box<dyn Write + Send>>>,
}

/// The process-wide tracer used by the free functions in this module.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(DEFAULT_RING_CAPACITY))
}

impl Tracer {
    /// A fresh tracer (mode [`TraceMode::Off`]) whose ring, allocated
    /// lazily on first enable, holds `capacity` events.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            mode: AtomicU8::new(MODE_OFF),
            capacity: capacity.max(1),
            ring: OnceLock::new(),
            start: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            out: Mutex::new(None),
        }
    }

    /// The current mode.
    pub fn mode(&self) -> TraceMode {
        match self.mode.load(Ordering::Relaxed) {
            MODE_RING => TraceMode::Ring,
            MODE_EXPORT => TraceMode::Export,
            _ => TraceMode::Off,
        }
    }

    /// Whether any recording is happening.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.load(Ordering::Relaxed) != MODE_OFF
    }

    /// Switches to ring-only recording.
    pub fn enable_ring(&self) {
        self.ring();
        self.mode.store(MODE_RING, Ordering::Relaxed);
    }

    /// Switches to ring + JSON-lines export through `out`.
    pub fn enable_export(&self, out: Box<dyn Write + Send>) {
        self.ring();
        *lock_unpoisoned(&self.out) = Some(out);
        self.mode.store(MODE_EXPORT, Ordering::Relaxed);
    }

    /// Stops recording and flushes/drops any export writer. Events
    /// already in the ring stay readable.
    pub fn disable(&self) {
        self.mode.store(MODE_OFF, Ordering::Relaxed);
        if let Some(mut w) = lock_unpoisoned(&self.out).take() {
            let _ = w.flush();
        }
    }

    /// Flushes the export writer, if any.
    pub fn flush(&self) {
        if let Some(w) = lock_unpoisoned(&self.out).as_mut() {
            let _ = w.flush();
        }
    }

    /// Allocates a fresh non-zero trace id.
    pub fn new_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's start (the `ts` clock on events).
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn ring(&self) -> &Ring {
        self.ring.get_or_init(|| Ring {
            slots: (0..self.capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Events overwritten before export (oldest dropped first).
    pub fn dropped(&self) -> u64 {
        self.ring
            .get()
            .map_or(0, |r| r.dropped.load(Ordering::Relaxed))
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.ring
            .get()
            .map_or(0, |r| r.next.load(Ordering::Relaxed))
    }

    /// Opens a span. Returns an inert context (and records nothing) when
    /// tracing is off or `trace` is zero.
    pub fn begin_span(&self, trace: u64, parent: u64, name: &'static str) -> SpanCtx {
        if trace == 0 || !self.enabled() {
            return SpanCtx::none();
        }
        let span = self.next_span.fetch_add(1, Ordering::Relaxed);
        let ts_ns = self.now_ns();
        self.record(TraceEvent {
            ts_ns,
            trace,
            span,
            parent,
            kind: TraceEventKind::SpanBegin { name },
        });
        SpanCtx {
            trace,
            span,
            parent,
            name,
            start_ns: ts_ns,
        }
    }

    /// Closes a span opened by [`begin_span`](Tracer::begin_span).
    pub fn end_span(&self, ctx: SpanCtx) {
        if !ctx.active() || !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        self.record(TraceEvent {
            ts_ns,
            trace: ctx.trace,
            span: ctx.span,
            parent: ctx.parent,
            kind: TraceEventKind::SpanEnd {
                name: ctx.name,
                dur_ns: ts_ns.saturating_sub(ctx.start_ns),
            },
        });
    }

    /// Records a point event under the explicit `(trace, span)` context.
    /// Pass `trace = 0` for process-level events (e.g. a background
    /// checkpoint) — they are recorded, just not tied to a request.
    pub fn event_for(&self, trace: u64, span: u64, kind: TraceEventKind) {
        if !self.enabled() {
            return;
        }
        self.record(TraceEvent {
            ts_ns: self.now_ns(),
            trace,
            span,
            parent: 0,
            kind,
        });
    }

    fn record(&self, ev: TraceEvent) {
        let ring = self.ring();
        let n = ring.next.fetch_add(1, Ordering::Relaxed);
        let cap = ring.slots.len() as u64;
        *lock_unpoisoned(&ring.slots[(n % cap) as usize]) = Some(ev);
        if n >= cap {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if self.mode.load(Ordering::Relaxed) == MODE_EXPORT {
            if let Some(w) = lock_unpoisoned(&self.out).as_mut() {
                let _ = writeln!(w, "{}", event_value(&ev));
            }
        }
    }

    /// Copies the ring's surviving events, oldest first. Concurrent
    /// writers may overwrite slots mid-copy; each event is still read
    /// whole (per-slot locking), so the copy is a consistent sample, not
    /// a serialisable snapshot.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(ring) = self.ring.get() else {
            return Vec::new();
        };
        let n = ring.next.load(Ordering::Relaxed);
        let cap = ring.slots.len() as u64;
        (n.saturating_sub(cap)..n)
            .filter_map(|i| *lock_unpoisoned(&ring.slots[(i % cap) as usize]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Thread-local current-span context.

thread_local! {
    static CTX: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// The recording thread's current `(trace, span)` (`(0, 0)` = none).
pub fn current() -> (u64, u64) {
    CTX.with(|c| c.get())
}

/// Restores the previous thread-local context on drop (see [`enter`]).
pub struct EnterGuard {
    prev: (u64, u64),
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Makes `ctx` the thread's current span until the guard drops, so
/// point events recorded by deeper layers attach to it.
pub fn enter(ctx: SpanCtx) -> EnterGuard {
    let prev = CTX.with(|c| c.replace((ctx.trace, ctx.span)));
    EnterGuard { prev }
}

/// A child span of the thread's current span, closed (and the previous
/// context restored) on drop. Inert when tracing is off or the thread
/// has no current trace.
pub struct ScopedSpan {
    ctx: SpanCtx,
    prev: (u64, u64),
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        if self.ctx.active() {
            CTX.with(|c| c.set(self.prev));
            tracer().end_span(self.ctx);
        }
    }
}

/// Opens a child span of the thread's current span on the global tracer.
pub fn scoped(name: &'static str) -> ScopedSpan {
    if !tracer().enabled() {
        return ScopedSpan {
            ctx: SpanCtx::none(),
            prev: (0, 0),
        };
    }
    let (trace, parent) = current();
    if trace == 0 {
        return ScopedSpan {
            ctx: SpanCtx::none(),
            prev: (0, 0),
        };
    }
    let ctx = tracer().begin_span(trace, parent, name);
    let prev = CTX.with(|c| c.replace((trace, ctx.span)));
    ScopedSpan { ctx, prev }
}

// ---------------------------------------------------------------------------
// Global-tracer conveniences (the instrumentation API).

/// Whether the global tracer is recording.
#[inline]
pub fn enabled() -> bool {
    tracer().enabled()
}

/// Allocates a trace id on the global tracer.
pub fn new_trace_id() -> u64 {
    tracer().new_trace_id()
}

/// Opens a span on the global tracer.
pub fn begin_span(trace: u64, parent: u64, name: &'static str) -> SpanCtx {
    tracer().begin_span(trace, parent, name)
}

/// Closes a span on the global tracer.
pub fn end_span(ctx: SpanCtx) {
    tracer().end_span(ctx)
}

/// Records a point event under the thread's current context. Skipped
/// (one relaxed load, one TLS read) when the thread is not inside a
/// traced request — so untraced background work never floods the ring.
#[inline]
pub fn event(kind: TraceEventKind) {
    let t = tracer();
    if !t.enabled() {
        return;
    }
    let (trace, span) = current();
    if trace == 0 {
        return;
    }
    t.event_for(trace, span, kind);
}

/// Records a point event even without a request context (trace id 0):
/// commit-pipeline events keep their epoch visibility when triggered by
/// background work. Uses the thread's context when one is set.
#[inline]
pub fn pipeline_event(kind: TraceEventKind) {
    let t = tracer();
    if !t.enabled() {
        return;
    }
    let (trace, span) = current();
    t.event_for(trace, span, kind);
}

// ---------------------------------------------------------------------------
// JSON-lines export (`ss-trace-v1`) and Chrome trace_event conversion.

/// Serialises one event as an `ss-trace-v1` JSON object.
pub fn event_value(ev: &TraceEvent) -> Value {
    let mut pairs = vec![
        ("schema".to_string(), Value::from(TRACE_SCHEMA)),
        ("ts".to_string(), Value::from(ev.ts_ns)),
        ("trace".to_string(), Value::from(ev.trace)),
        ("span".to_string(), Value::from(ev.span)),
        ("parent".to_string(), Value::from(ev.parent)),
        ("ev".to_string(), Value::from(ev.kind.tag())),
    ];
    match ev.kind {
        TraceEventKind::SpanBegin { name } => {
            pairs.push(("name".into(), Value::from(name)));
        }
        TraceEventKind::SpanEnd { name, dur_ns } => {
            pairs.push(("name".into(), Value::from(name)));
            pairs.push(("dur".into(), Value::from(dur_ns)));
        }
        TraceEventKind::TileFetch { tile, hit } => {
            pairs.push(("tile".into(), Value::from(tile)));
            pairs.push(("hit".into(), Value::Bool(hit)));
        }
        TraceEventKind::WalAppend { epoch, bytes } => {
            pairs.push(("epoch".into(), Value::from(epoch)));
            pairs.push(("bytes".into(), Value::from(bytes)));
        }
        TraceEventKind::WalFsync { epoch } => {
            pairs.push(("epoch".into(), Value::from(epoch)));
        }
        TraceEventKind::Commit { epoch, tiles } => {
            pairs.push(("epoch".into(), Value::from(epoch)));
            pairs.push(("tiles".into(), Value::from(tiles)));
        }
        TraceEventKind::Checkpoint { epoch } => {
            pairs.push(("epoch".into(), Value::from(epoch)));
        }
        TraceEventKind::Retry { block, attempt } => {
            pairs.push(("block".into(), Value::from(block)));
            pairs.push(("attempt".into(), Value::from(attempt)));
        }
        TraceEventKind::SlowRequest {
            dur_ns,
            threshold_ns,
        } => {
            pairs.push(("dur".into(), Value::from(dur_ns)));
            pairs.push(("threshold".into(), Value::from(threshold_ns)));
        }
    }
    Value::Object(pairs)
}

/// Converts parsed `ss-trace-v1` lines into a Chrome `trace_event`
/// document (`{"traceEvents": [...]}`) for chrome://tracing / Perfetto.
///
/// Every `span_end` becomes one complete (`ph: "X"`) slice — begin/end
/// matching is unnecessary because the end line carries its duration —
/// and every point event becomes a thread-scoped instant (`ph: "i"`).
/// The trace id is mapped to `tid`, so each request renders as its own
/// row and parent linkage shows as slice nesting on that row.
pub fn chrome_trace(lines: &[Value]) -> Value {
    let us = |ns: u64| Value::Float(ns as f64 / 1_000.0);
    let mut out = Vec::new();
    for line in lines {
        let field = |k: &str| line.get(k).and_then(Value::as_u64).unwrap_or(0);
        let ev = line.get("ev").and_then(Value::as_str).unwrap_or("");
        let name = line
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or(ev)
            .to_string();
        let mut args = Vec::new();
        for key in [
            "span",
            "parent",
            "tile",
            "epoch",
            "bytes",
            "tiles",
            "block",
            "attempt",
            "threshold",
        ] {
            if let Some(v) = line.get(key) {
                if !matches!(v, Value::Null) {
                    args.push((key.to_string(), v.clone()));
                }
            }
        }
        if let Some(hit) = line.get("hit") {
            args.push(("hit".into(), hit.clone()));
        }
        let common = |ph: &str, ts_ns: u64| {
            vec![
                ("name".to_string(), Value::from(name.as_str())),
                ("ph".to_string(), Value::from(ph)),
                ("ts".to_string(), us(ts_ns)),
                ("pid".to_string(), Value::from(1u64)),
                ("tid".to_string(), Value::from(field("trace"))),
            ]
        };
        match ev {
            "span_begin" => {} // the matching span_end carries the slice
            "span_end" => {
                let dur = field("dur");
                let mut pairs = common("X", field("ts").saturating_sub(dur));
                pairs.push(("dur".into(), us(dur)));
                pairs.push(("args".into(), Value::Object(args)));
                out.push(Value::Object(pairs));
            }
            _ => {
                let mut pairs = common("i", field("ts"));
                pairs.push(("s".into(), Value::from("t")));
                pairs.push(("args".into(), Value::Object(args)));
                out.push(Value::Object(pairs));
            }
        }
    }
    Value::Object(vec![("traceEvents".into(), Value::Array(out))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn off_mode_records_nothing_and_contexts_are_inert() {
        let t = Tracer::new(8);
        let ctx = t.begin_span(7, 0, "x");
        assert!(!ctx.active());
        t.end_span(ctx);
        t.event_for(7, 0, TraceEventKind::WalFsync { epoch: 1 });
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.events().len(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_link_parents_and_time_durations() {
        let t = Tracer::new(64);
        t.enable_ring();
        let root = t.begin_span(t.new_trace_id(), 0, "root");
        let child = t.begin_span(root.trace, root.span, "child");
        t.event_for(
            child.trace,
            child.span,
            TraceEventKind::TileFetch { tile: 3, hit: true },
        );
        t.end_span(child);
        t.end_span(root);
        let evs = t.events();
        assert_eq!(evs.len(), 5);
        assert!(matches!(
            evs[0].kind,
            TraceEventKind::SpanBegin { name: "root" }
        ));
        assert_eq!(evs[1].parent, root.span, "child parented under root");
        assert_eq!(evs[2].span, child.span, "event attributed to child");
        match evs[3].kind {
            TraceEventKind::SpanEnd { name, .. } => assert_eq!(name, "child"),
            other => panic!("expected child end, got {other:?}"),
        }
        // Timestamps are monotone over the ring.
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn ring_wraparound_drops_oldest_first_and_counts_drops() {
        let t = Tracer::new(4);
        t.enable_ring();
        for i in 1..=10u64 {
            t.event_for(1, 0, TraceEventKind::WalFsync { epoch: i });
        }
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 6, "10 events through a 4-slot ring drop 6");
        let epochs: Vec<u64> = t
            .events()
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::WalFsync { epoch } => epoch,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            epochs,
            vec![7, 8, 9, 10],
            "newest survive, oldest-first order"
        );
    }

    #[test]
    fn concurrent_wraparound_never_panics_and_counts_add_up() {
        let t = std::sync::Arc::new(Tracer::new(8));
        t.enable_ring();
        let threads = 4;
        let per = 1000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per {
                        t.event_for(
                            1,
                            0,
                            TraceEventKind::Retry {
                                block: i,
                                attempt: 1,
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(t.recorded(), threads * per);
        assert_eq!(t.dropped(), threads * per - 8);
        assert!(t.events().len() <= 8);
    }

    #[test]
    fn scoped_spans_nest_through_the_thread_local() {
        // Uses the process-global tracer: filter by our own trace id so
        // concurrently running tests cannot interfere.
        tracer().enable_ring();
        let trace = new_trace_id();
        let root = begin_span(trace, 0, "tls.root");
        {
            let _g = enter(root);
            let _child = scoped("tls.child");
            event(TraceEventKind::TileFetch {
                tile: 9,
                hit: false,
            });
        }
        end_span(root);
        let evs: Vec<TraceEvent> = tracer()
            .events()
            .into_iter()
            .filter(|e| e.trace == trace)
            .collect();
        assert_eq!(evs.len(), 5);
        let child_span = evs[1].span;
        assert_eq!(evs[1].parent, root.span);
        assert_eq!(evs[2].span, child_span, "event lands in the scoped child");
        assert!(matches!(
            evs[3].kind,
            TraceEventKind::SpanEnd {
                name: "tls.child",
                ..
            }
        ));
        assert_eq!(current(), (0, 0), "context restored");
    }

    #[test]
    fn events_outside_a_trace_are_skipped_but_pipeline_events_are_kept() {
        // Sentinel payloads, because the global tracer is shared with
        // concurrently running tests.
        std::thread::spawn(|| {
            tracer().enable_ring();
            event(TraceEventKind::TileFetch {
                tile: 987_654_321,
                hit: true,
            });
            pipeline_event(TraceEventKind::Checkpoint { epoch: 987_654_321 });
        })
        .join()
        .unwrap();
        let evs = tracer().events();
        assert!(
            !evs.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::TileFetch {
                    tile: 987_654_321,
                    ..
                }
            )),
            "unattributed point events are dropped"
        );
        assert!(
            evs.iter()
                .any(|e| matches!(e.kind, TraceEventKind::Checkpoint { epoch: 987_654_321 })),
            "pipeline events survive without a request context"
        );
    }

    #[test]
    fn export_writes_parseable_schema_tagged_lines() {
        let t = Tracer::new(32);
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        t.enable_export(Box::new(SharedBuf(std::sync::Arc::clone(&buf))));
        let root = t.begin_span(t.new_trace_id(), 0, "req");
        t.event_for(
            root.trace,
            root.span,
            TraceEventKind::WalAppend {
                epoch: 3,
                bytes: 128,
            },
        );
        t.end_span(root);
        t.disable();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert_eq!(l.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        }
        assert_eq!(lines[1].get("ev").unwrap().as_str(), Some("wal_append"));
        assert_eq!(lines[1].get("epoch").unwrap().as_u64(), Some(3));
        assert!(lines[2].get("dur").unwrap().as_u64().is_some());
    }

    #[test]
    fn chrome_conversion_builds_slices_and_instants() {
        let t = Tracer::new(32);
        t.enable_ring();
        let root = t.begin_span(t.new_trace_id(), 0, "req");
        t.event_for(
            root.trace,
            root.span,
            TraceEventKind::TileFetch {
                tile: 4,
                hit: false,
            },
        );
        t.end_span(root);
        let lines: Vec<Value> = t.events().iter().map(event_value).collect();
        let doc = chrome_trace(&lines);
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        // begin is folded into the X slice: 1 slice + 1 instant.
        assert_eq!(evs.len(), 2);
        let slice = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("one complete slice");
        assert_eq!(slice.get("name").unwrap().as_str(), Some("req"));
        assert_eq!(slice.get("tid").unwrap().as_u64(), Some(root.trace));
        let inst = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .expect("one instant");
        assert_eq!(inst.get("name").unwrap().as_str(), Some("tile_fetch"));
    }
}
