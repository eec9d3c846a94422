//! The span/event tracing core.
//!
//! Tracing is opt-in: everything is gated behind the process [`Recorder`].
//! While it is disabled — the default — [`Span::enter`] is a single relaxed
//! atomic load returning an inert guard, and [`event`] is the same load
//! plus an early return. No allocation, no clock read, no thread-local touch.
//! Because instrumentation neither consumes RNG state nor reorders work,
//! `canonical_bytes` of every decomposition is byte-identical with the
//! recorder disabled, enabled, or drained mid-run (proptested in the
//! workspace `tests/observability.rs`).
//!
//! When recording, each thread appends to a thread-local buffer; the
//! buffer is appended to one global sink, a `Mutex<Vec<TraceEvent>>`,
//! whenever the thread's span stack empties, and again when the thread
//! exits. [`Recorder::drain`] takes the sink's vector: each thread's
//! events in its own chronological order, ready for
//! [`chrome_trace_json`](crate::export::chrome_trace_json).
//!
//! ```
//! use forest_obs::trace::{recorder, Span};
//! let rec = recorder();
//! rec.enable();
//! {
//!     let _outer = Span::enter("demo.outer");
//!     let _inner = Span::enter("demo.inner");
//! }
//! let events = rec.drain();
//! assert!(events.len() >= 4); // two begins, two ends
//! rec.disable();
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::clock;

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event.
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// The span or event name (static — instrumentation sites name
    /// themselves with literals, `layer.operation` dotted lowercase).
    pub name: &'static str,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Timestamp from [`clock::now_nanos`] (nanoseconds since the process
    /// anchor).
    pub ts_nanos: u64,
    /// A small dense thread id (assigned in first-record order, not the
    /// OS tid).
    pub tid: u32,
    /// The span this event belongs to (0 for instants outside any span).
    pub span: u64,
    /// The enclosing span at the time of recording (0 = root).
    pub parent: u64,
}

/// Next span id; 0 is reserved for "no span".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Next dense thread id.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Whether the process recorder is recording.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Every flushed event, each thread's flushes in the order it made them.
/// No code that can panic runs under the lock; a poisoned guard is taken
/// anyway.
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

struct ThreadBuf {
    tid: u32,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
    buf: Vec<TraceEvent>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        ThreadBuf {
            tid: u32::try_from(tid).unwrap_or(u32::MAX),
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            SINK.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut self.buf);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// The process recorder handle: the on/off gate plus the drain side.
#[derive(Debug)]
pub struct Recorder(());

/// The process recorder.
pub fn recorder() -> &'static Recorder {
    static RECORDER: Recorder = Recorder(());
    &RECORDER
}

impl Recorder {
    /// `true` while recording.
    pub fn is_enabled(&self) -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Starts recording. Spans entered before this call stay unrecorded
    /// (their guards are inert — a guard never records an `End` without
    /// its `Begin`).
    pub fn enable(&self) {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Stops recording. Already-buffered events remain drainable.
    pub fn disable(&self) {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Flushes the current thread's buffer and takes every flushed event,
    /// each thread's in its chronological order. Other recording threads
    /// should be quiescent (joined) for a complete picture — events they
    /// have not flushed yet are not visible.
    pub fn drain(&self) -> Vec<TraceEvent> {
        THREAD_BUF.with(|b| b.borrow_mut().flush());
        std::mem::take(&mut *SINK.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Drops everything recorded so far.
    pub fn clear(&self) {
        let _ = self.drain();
    }
}

/// An RAII span guard. Entering records a `Begin` (when the recorder is
/// enabled), dropping records the matching `End`. The disabled path is one
/// atomic load and the guard is inert.
#[must_use = "a span measures the scope of its guard"]
#[derive(Debug)]
pub struct Span {
    /// 0 for inert guards.
    id: u64,
    name: &'static str,
}

impl Span {
    /// Opens a span named `name` (a `'static` literal, dotted lowercase).
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !ENABLED.load(Ordering::Relaxed) {
            return Span { id: 0, name };
        }
        Span::enter_recorded(name)
    }

    #[cold]
    fn enter_recorded(name: &'static str) -> Span {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let ts = clock::now_nanos();
        THREAD_BUF.with(|b| {
            let mut b = b.borrow_mut();
            let parent = b.stack.last().copied().unwrap_or(0);
            let tid = b.tid;
            b.buf.push(TraceEvent {
                name,
                phase: Phase::Begin,
                ts_nanos: ts,
                tid,
                span: id,
                parent,
            });
            b.stack.push(id);
        });
        Span { id, name }
    }

    /// The span id (0 when the guard is inert).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let ts = clock::now_nanos();
        THREAD_BUF.with(|b| {
            let mut b = b.borrow_mut();
            // Pop through any abandoned inner ids (mem::forget of an inner
            // guard) so the stack stays consistent.
            while let Some(top) = b.stack.pop() {
                if top == self.id {
                    break;
                }
            }
            let parent = b.stack.last().copied().unwrap_or(0);
            let tid = b.tid;
            b.buf.push(TraceEvent {
                name: self.name,
                phase: Phase::End,
                ts_nanos: ts,
                tid,
                span: self.id,
                parent,
            });
            if b.stack.is_empty() {
                b.flush();
            }
        });
    }
}

/// Records a point-in-time event (a chrome-trace `i` phase). A no-op
/// unless the recorder is enabled.
#[inline]
pub fn event(name: &'static str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    event_recorded(name);
}

#[cold]
fn event_recorded(name: &'static str) {
    let ts = clock::now_nanos();
    THREAD_BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.stack.last().copied().unwrap_or(0);
        let tid = b.tid;
        b.buf.push(TraceEvent {
            name,
            phase: Phase::Instant,
            ts_nanos: ts,
            tid,
            span: parent,
            parent,
        });
        if b.stack.is_empty() {
            b.flush();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The recorder is process-global; serialize the tests that toggle it.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = TRACE_LOCK.lock().unwrap();
        let rec = recorder();
        rec.disable();
        rec.clear();
        {
            let s = Span::enter("test.disabled");
            assert_eq!(s.id(), 0);
            event("test.disabled.event");
        }
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let _guard = TRACE_LOCK.lock().unwrap();
        let rec = recorder();
        rec.clear();
        rec.enable();
        let (outer_id, inner_id);
        {
            let outer = Span::enter("test.outer");
            outer_id = outer.id();
            {
                let inner = Span::enter("test.inner");
                inner_id = inner.id();
                event("test.tick");
            }
        }
        rec.disable();
        let events = rec.drain();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[0].span, outer_id);
        assert_eq!(events[0].parent, 0);
        assert_eq!(events[1].span, inner_id);
        assert_eq!(events[1].parent, outer_id);
        assert_eq!(events[2].phase, Phase::Instant);
        assert_eq!(events[2].parent, inner_id);
        assert_eq!(events[3].phase, Phase::End);
        assert_eq!(events[3].span, inner_id);
        assert_eq!(events[4].span, outer_id);
        // Timestamps are per-thread monotone.
        for w in events.windows(2) {
            assert!(w[1].ts_nanos >= w[0].ts_nanos);
        }
    }

    #[test]
    fn cross_thread_events_carry_distinct_tids() {
        let _guard = TRACE_LOCK.lock().unwrap();
        let rec = recorder();
        rec.clear();
        rec.enable();
        let main_span = Span::enter("test.main");
        let handle = std::thread::spawn(|| {
            let _s = Span::enter("test.worker");
        });
        handle.join().unwrap();
        drop(main_span);
        rec.disable();
        let events = rec.drain();
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two threads, two tids: {events:?}");
    }

    #[test]
    fn concurrent_flushes_keep_every_event_once_in_thread_order() {
        let _guard = TRACE_LOCK.lock().unwrap();
        let rec = recorder();
        rec.clear();
        rec.enable();
        // Each thread records 200 spans, each with a nested span and an
        // instant, and returns its tid and every event's (phase, span,
        // parent) in order. The barrier starts all four at once, so their
        // flushes contend for the sink.
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut recorded = Vec::new();
                    for _ in 0..200 {
                        let outer = Span::enter("test.outer");
                        let inner = Span::enter("test.inner");
                        event("test.tick");
                        let (o, i) = (outer.id(), inner.id());
                        drop(inner);
                        drop(outer);
                        recorded.extend([
                            (Phase::Begin, o, 0),
                            (Phase::Begin, i, o),
                            (Phase::Instant, i, i),
                            (Phase::End, i, o),
                            (Phase::End, o, 0),
                        ]);
                    }
                    (THREAD_BUF.with(|b| b.borrow().tid), recorded)
                })
            })
            .collect();
        let recorded: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        rec.disable();
        let events = rec.drain();
        crate::export::validate_trace(&events).unwrap();
        // Every one of the 4 × 200 × 5 events once, each thread's in order.
        assert_eq!(events.len(), 4 * 200 * 5);
        for (tid, recorded) in recorded {
            let drained = events.iter().filter(|e| e.tid == tid);
            let drained: Vec<_> = drained.map(|e| (e.phase, e.span, e.parent)).collect();
            assert_eq!(drained, recorded, "thread {tid}");
        }
    }

    #[test]
    fn thread_exit_flushes_a_span_left_open() {
        let _guard = TRACE_LOCK.lock().unwrap();
        let rec = recorder();
        rec.clear();
        rec.enable();
        let id = std::thread::spawn(|| {
            let open = Span::enter("test.forgotten");
            let id = open.id();
            // The span stack never empties again, so only the flush at
            // thread exit can hand this `Begin` to the sink.
            std::mem::forget(open);
            id
        })
        .join()
        .unwrap();
        rec.disable();
        let events = rec.drain();
        let drained: Vec<_> = events.iter().map(|e| (e.name, e.phase, e.span)).collect();
        assert_eq!(drained, [("test.forgotten", Phase::Begin, id)]);
    }
}
