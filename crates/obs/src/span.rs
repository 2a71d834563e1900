//! Hierarchical spans with thread-local stacks and bounded ring recorders.
//!
//! A [`SpanRecorder`] owns a monotonic epoch and a bounded ring of finished
//! [`SpanEvent`]s. A thread *installs* a recorder (via [`SpanRecorder::install`]
//! or [`SpanContext::attach`]) and then every [`span`] opened on that thread is
//! timed against the recorder's epoch, linked to its parent via the
//! thread-local span stack, and pushed into the ring when the guard drops.
//!
//! The whole subsystem is gated on one process-global [`AtomicBool`]: when
//! recording is disabled (the default) a call to [`span`] performs exactly one
//! relaxed atomic load and returns an inert guard — no clock read, no
//! allocation, no thread-local access. That is the contract the solver hot
//! paths rely on.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Process-global recording switch. Off by default: library users opt in.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled. One relaxed atomic load;
/// call sites may use this to skip attribute construction entirely.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer attribute.
    Int(i64),
    /// Unsigned integer attribute.
    Uint(u64),
    /// Floating-point attribute.
    Float(f64),
    /// String attribute (owned; prefer the numeric variants on hot paths).
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Uint(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// How an event occupies time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`ph:"X"` in Chrome trace terms).
    Span,
    /// A zero-duration point event (`ph:"i"`).
    Instant,
}

/// One finished event in a recorder's ring.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Recorder-unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static event name, e.g. `"simplex.phase1"`.
    pub name: &'static str,
    /// Microseconds from the recorder epoch to the event start.
    pub start_us: u64,
    /// Event duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Recorder-scoped logical thread id (stable per installed thread).
    pub tid: u64,
    /// Key=value attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Span or instant.
    pub kind: EventKind,
}

struct RecorderInner {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<SpanEvent>>,
    evicted: AtomicU64,
    next_id: AtomicU64,
    next_tid: AtomicU64,
}

/// A bounded ring buffer of finished span events, shared across threads.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same ring.
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<RecorderInner>,
}

fn ring_lock(inner: &RecorderInner) -> MutexGuard<'_, VecDeque<SpanEvent>> {
    inner.ring.lock().unwrap_or_else(|p| p.into_inner())
}

impl SpanRecorder {
    /// A recorder whose ring holds at most `capacity` finished events;
    /// older events are evicted (and counted) once the ring is full.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                ring: Mutex::new(VecDeque::new()),
                evicted: AtomicU64::new(0),
                next_id: AtomicU64::new(1),
                next_tid: AtomicU64::new(1),
            }),
        }
    }

    /// Install this recorder as the current thread's span destination.
    /// The previous installation (if any) is restored when the returned
    /// guard drops. Spans are only captured while [`enabled`] is also true.
    #[must_use]
    pub fn install(&self) -> RecorderGuard {
        self.install_with_parent(None)
    }

    fn install_with_parent(&self, base_parent: Option<u64>) -> RecorderGuard {
        let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
        let slot = ThreadSlot {
            rec: self.clone(),
            stack: Vec::new(),
            base_parent,
            tid,
        };
        let prev = CURRENT.with(|c| c.replace(Some(slot)));
        RecorderGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Snapshot of all finished events, oldest first.
    #[must_use]
    pub fn finished(&self) -> Vec<SpanEvent> {
        let ring = ring_lock(&self.inner);
        ring.iter().cloned().collect()
    }

    /// Number of events evicted because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.inner.evicted.load(Ordering::Relaxed)
    }

    /// Number of finished events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        ring_lock(&self.inner).len()
    }

    /// Whether the ring holds no finished events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events (eviction counter is kept).
    pub fn clear(&self) {
        ring_lock(&self.inner).clear();
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: SpanEvent) {
        let mut ring = ring_lock(&self.inner);
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
            self.inner.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

struct ThreadSlot {
    rec: SpanRecorder,
    stack: Vec<u64>,
    base_parent: Option<u64>,
    tid: u64,
}

impl ThreadSlot {
    fn current_parent(&self) -> Option<u64> {
        self.stack.last().copied().or(self.base_parent)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadSlot>> = const { RefCell::new(None) };
}

/// Restores the previously installed recorder when dropped, and
/// publishes the thread's pending allocation counts (see
/// [`crate::alloc`]). Must be dropped on the thread that created it (it
/// is `!Send`).
pub struct RecorderGuard {
    prev: Option<ThreadSlot>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| c.replace(prev));
        crate::alloc::flush_thread();
    }
}

/// A handle to "the recorder and open span of this thread, right now",
/// capturable before spawning workers and attachable on the new thread so
/// spans nest correctly across thread boundaries.
#[derive(Clone)]
pub struct SpanContext {
    rec: SpanRecorder,
    parent: Option<u64>,
}

impl SpanContext {
    /// Capture the calling thread's recorder and innermost open span.
    /// Returns `None` when no recorder is installed here.
    #[must_use]
    pub fn current() -> Option<SpanContext> {
        CURRENT.with(|c| {
            c.borrow().as_ref().map(|slot| SpanContext {
                rec: slot.rec.clone(),
                parent: slot.current_parent(),
            })
        })
    }

    /// Install the captured recorder on *this* thread, with new root spans
    /// parented under the captured span. Restores on guard drop.
    #[must_use]
    pub fn attach(&self) -> RecorderGuard {
        self.rec.install_with_parent(self.parent)
    }
}

struct ActiveSpan {
    id: u64,
    start_us: u64,
    name: &'static str,
    parent: Option<u64>,
    tid: u64,
    rec: SpanRecorder,
    attrs: Vec<(&'static str, AttrValue)>,
    /// Subsystem attribution label to restore when this span closes.
    prev_subsystem: u8,
    /// `alloc::thread_allocated_bytes()` at span entry; the delta at
    /// exit becomes the span's `alloc_bytes` attribute.
    alloc_at_enter: u64,
}

/// Times a region of code; records a [`SpanEvent`] when dropped.
/// Inert (and near-free) when recording is disabled or no recorder is
/// installed. `!Send`: a span must end on the thread that opened it.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attach a key=value attribute. No-op on an inert guard.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(active) = self.active.as_mut() {
            active.attrs.push((key, value.into()));
        }
    }

    /// Whether this guard is actually recording.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut active) = self.active.take() else {
            return;
        };
        let end_us = active.rec.now_us();
        crate::alloc::set_subsystem(active.prev_subsystem);
        if crate::alloc::tracking_enabled() {
            let delta =
                crate::alloc::thread_allocated_bytes().saturating_sub(active.alloc_at_enter);
            active.attrs.push(("alloc_bytes", AttrValue::Uint(delta)));
        }
        CURRENT.with(|c| {
            if let Some(slot) = c.borrow_mut().as_mut() {
                // Tolerate out-of-order drops: pop through our id if present.
                if let Some(pos) = slot.stack.iter().rposition(|&id| id == active.id) {
                    slot.stack.truncate(pos);
                }
            }
        });
        active.rec.push(SpanEvent {
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_us: active.start_us,
            dur_us: end_us.saturating_sub(active.start_us),
            tid: active.tid,
            attrs: active.attrs,
            kind: EventKind::Span,
        });
    }
}

/// Open a span named `name` on the current thread.
///
/// Fast path: when recording is disabled this is one relaxed atomic load
/// and the construction of an inert guard.
#[inline]
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: None,
            _not_send: PhantomData,
        };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    let active = CURRENT.with(|c| {
        let mut slot = c.borrow_mut();
        let slot = slot.as_mut()?;
        let id = slot.rec.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = slot.current_parent();
        slot.stack.push(id);
        // Attribute allocations made while this span is innermost to its
        // subsystem. The label lives in a Cell-based thread-local the
        // allocator can read without touching this RefCell.
        let prev_subsystem = crate::alloc::set_subsystem(crate::alloc::subsystem_of(name));
        Some(ActiveSpan {
            id,
            start_us: slot.rec.now_us(),
            name,
            parent,
            tid: slot.tid,
            rec: slot.rec.clone(),
            attrs: Vec::new(),
            prev_subsystem,
            alloc_at_enter: crate::alloc::thread_allocated_bytes(),
        })
    });
    SpanGuard {
        active,
        _not_send: PhantomData,
    }
}

/// Record a zero-duration point event (e.g. "new incumbent") under the
/// current span. No-op when disabled or no recorder is installed.
pub fn instant(name: &'static str, attrs: Vec<(&'static str, AttrValue)>) {
    if !enabled() {
        return;
    }
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let Some(slot) = borrow.as_ref() else {
            return;
        };
        let id = slot.rec.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let event = SpanEvent {
            id,
            parent: slot.current_parent(),
            name,
            start_us: slot.rec.now_us(),
            dur_us: 0,
            tid: slot.tid,
            attrs,
            kind: EventKind::Instant,
        };
        slot.rec.push(event);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that flip the global flag.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_enabled<T>(f: impl FnOnce() -> T) -> T {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_span_is_inert() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        let rec = SpanRecorder::new(8);
        let _g = rec.install();
        let mut s = span("nothing");
        s.attr("k", 1u64);
        assert!(!s.is_recording());
        drop(s);
        assert!(rec.is_empty());
    }

    #[test]
    fn nesting_and_parent_links() {
        let rec = SpanRecorder::new(64);
        with_enabled(|| {
            let _g = rec.install();
            let outer = span("outer");
            let mut inner = span("inner");
            inner.attr("n", 3u64);
            instant("tick", vec![("v", AttrValue::Int(-1))]);
            drop(inner);
            drop(outer);
        });
        let events = rec.finished();
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        let tick = events.iter().find(|e| e.name == "tick").expect("tick");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(inner.id));
        assert_eq!(tick.kind, EventKind::Instant);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.attrs.iter().any(|(k, _)| *k == "n"));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = SpanRecorder::new(4);
        with_enabled(|| {
            let _g = rec.install();
            for _ in 0..10 {
                drop(span("s"));
            }
        });
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.evicted(), 6);
    }

    #[test]
    fn context_crosses_threads() {
        let rec = SpanRecorder::new(64);
        with_enabled(|| {
            let _g = rec.install();
            let outer = span("outer");
            let ctx = SpanContext::current().expect("context");
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _g = ctx.attach();
                    drop(span("worker"));
                });
            });
            drop(outer);
        });
        let events = rec.finished();
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let worker = events.iter().find(|e| e.name == "worker").expect("worker");
        assert_eq!(worker.parent, Some(outer.id));
        assert_ne!(worker.tid, outer.tid);
    }
}
