//! Allocator-level memory accounting.
//!
//! The `TrackingAlloc` global allocator wraps the system allocator and counts every
//! allocation: live bytes and live allocation count globally (with a
//! high-water mark), cumulative totals, a per-thread cumulative byte
//! counter (the basis for per-span `alloc_bytes` attribution), and
//! cumulative bytes/allocations attributed to a small fixed set of
//! *subsystem* labels. The innermost open span decides the
//! subsystem: entering a span maps its static name prefix
//! (`simplex.phase1` → `milp`, `laygen.solve` → `layout`, ...) onto one
//! of [`SUBSYSTEMS`] and parks the index in a `Cell`-based thread-local
//! that the allocator reads without ever touching the span stack's
//! `RefCell` — the allocator must never re-enter borrow-tracked state,
//! because any allocation *inside* that state would deadlock or panic.
//!
//! **Per-thread batching.** The process-wide counters are shared
//! atomics, and a read-modify-write on them from every allocation makes
//! their cache lines bounce between cores whenever two threads
//! allocate at once. So a thread that has entered a span keeps its
//! deltas in its own `Cell`s and publishes them in one batch — one
//! atomic add per non-zero counter — once [`BATCH_EVENTS`] events are
//! pending or the pending live-byte delta reaches [`BATCH_BYTES`], when
//! [`stats`] runs on it, when a [`crate::RecorderGuard`] drops on it,
//! and when it exits. A thread that never entered a span, and every
//! allocation during a thread's teardown after its exit flush, counts
//! straight onto the atomics. Hence:
//!
//! - the cumulative totals ([`AllocStats::total_allocs`],
//!   [`AllocStats::total_alloc_bytes`], the subsystem counters) are
//!   exact once the allocating threads have flushed or exited;
//! - [`AllocStats::live_bytes`] and [`AllocStats::peak_live_bytes`] may
//!   differ from the truth by less than [`BATCH_BYTES`] per live thread,
//!   and [`AllocStats::live_allocs`] by less than [`BATCH_EVENTS`] per
//!   live thread;
//! - the per-thread readings ([`thread_allocated_bytes`],
//!   [`thread_mark`], [`thread_peak_since`]) are always exact.
//!
//! The whole module sits behind the default-on `alloc-track` cargo
//! feature. With the feature off every function here compiles to a
//! constant and no `#[global_allocator]` is registered, so the wrapper
//! costs literally nothing — the same discipline as the disabled span
//! path. With the feature on, the per-allocation cost is a few `Cell`
//! updates in one thread-local, plus a batch of relaxed atomic adds
//! every [`BATCH_EVENTS`] events; the `obs_overhead` CI guard bounds
//! that cost at 3% of a chip4ip solve by the same deterministic-budget
//! method used for spans (measured per-operation bookkeeping cost, on
//! one thread and on two at once, × observed allocation count).

/// Subsystem labels allocations are attributed to. Index 0 is the
/// catch-all for allocations outside any recognised span.
pub const SUBSYSTEMS: &[&str] = &["other", "milp", "layout", "schedule", "service"];

/// A batching thread publishes its pending counts once this many
/// allocation and free events are pending: the most by which
/// [`AllocStats::live_allocs`] can lag per live thread.
pub const BATCH_EVENTS: u32 = 64;

/// A batching thread publishes its pending counts once its pending
/// live-byte delta reaches this many bytes either way: the most by which
/// [`AllocStats::live_bytes`] and [`AllocStats::peak_live_bytes`] can
/// be off per live thread.
pub const BATCH_BYTES: u64 = 64 * 1024;

/// Maps a span name onto a [`SUBSYSTEMS`] index by its first dotted
/// segment. Unknown names attribute to `other` (index 0).
#[must_use]
pub fn subsystem_of(span_name: &str) -> u8 {
    let head = span_name.split('.').next().unwrap_or("");
    match head {
        "simplex" | "bnb" | "milp" | "presolve" => 1,
        "laygen" | "layval" | "rung" | "layout" => 2,
        "schedule" => 3,
        "http" | "job" | "service" => 4,
        _ => 0,
    }
}

#[cfg(feature = "alloc-track")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    use super::{BATCH_BYTES, BATCH_EVENTS, SUBSYSTEMS};

    // Live gauges, wrapping: a thread may publish a batch of frees
    // before another publishes the allocations they free, so they read
    // as two's-complement deltas around the truth.
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static LIVE_ALLOCS: AtomicU64 = AtomicU64::new(0);

    // One (bytes, allocs) pair per SUBSYSTEMS entry. Cumulative, not
    // live: a subsystem frequently frees memory another one allocated
    // (results handed across span boundaries), so live-per-subsystem
    // would drift negative; cumulative counters stay meaningful. The
    // process-wide totals are the sums of these.
    static SUBSYS_BYTES: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
    static SUBSYS_ALLOCS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
    const _: () = assert!(SUBSYSTEMS.len() == 5);

    /// The thread has no exit flush registered: it counts straight onto
    /// the shared atomics.
    const DIRECT: u8 = 0;
    /// The thread batches its counts in its cells.
    const BATCHED: u8 = 1;
    /// The thread's exit flush has run: direct again until it is gone.
    const EXITED: u8 = 2;

    // Const-initialized, Drop-free thread-local: safe to touch from
    // inside the allocator (plain `#[thread_local]` cells, no lazy init,
    // no destructor re-entry).
    struct ThreadCells {
        subsystem: Cell<u8>,
        mode: Cell<u8>,
        allocated: Cell<u64>,
        live: Cell<u64>,
        peak: Cell<u64>,
        // Deltas not yet published to the shared atomics.
        pending_events: Cell<u32>,
        pending_live_bytes: Cell<i64>,
        pending_live_allocs: Cell<i64>,
        pending_bytes: [Cell<u64>; 5],
        pending_allocs: [Cell<u64>; 5],
    }

    thread_local! {
        static CELLS: ThreadCells = const {
            ThreadCells {
                subsystem: Cell::new(0),
                mode: Cell::new(DIRECT),
                allocated: Cell::new(0),
                live: Cell::new(0),
                peak: Cell::new(0),
                pending_events: Cell::new(0),
                pending_live_bytes: Cell::new(0),
                pending_live_allocs: Cell::new(0),
                pending_bytes: [const { Cell::new(0) }; 5],
                pending_allocs: [const { Cell::new(0) }; 5],
            }
        };
    }

    /// Publishes the thread's pending counts when it exits. Registering
    /// a thread-local destructor allocates, so this is first touched by
    /// [`set_subsystem`], never from inside the allocator.
    struct ExitFlush;

    impl Drop for ExitFlush {
        fn drop(&mut self) {
            let _ = CELLS.try_with(|c| {
                c.flush();
                c.mode.set(EXITED);
            });
        }
    }

    thread_local! {
        static EXIT_FLUSH: ExitFlush = const { ExitFlush };
    }

    /// Adds a live-bytes and live-allocations delta to the shared
    /// gauges, raising the peak after growth.
    fn publish_live(bytes: i64, allocs: i64) {
        if bytes != 0 {
            let live = LIVE_BYTES
                .fetch_add(bytes as u64, Relaxed)
                .wrapping_add(bytes as u64);
            // a wrapped (transiently negative) gauge is no peak
            if bytes > 0 && (live as i64) > 0 {
                PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
            }
        }
        if allocs != 0 {
            LIVE_ALLOCS.fetch_add(allocs as u64, Relaxed);
        }
    }

    impl ThreadCells {
        fn subsystem_index(&self) -> usize {
            usize::from(self.subsystem.get()).min(SUBSYSTEMS.len() - 1)
        }

        /// Counts one event's live delta into the pending batch and
        /// publishes the batch once it is full.
        #[inline]
        fn pend(&self, bytes: i64, allocs: i64) {
            let live = self.pending_live_bytes.get() + bytes;
            self.pending_live_bytes.set(live);
            self.pending_live_allocs
                .set(self.pending_live_allocs.get() + allocs);
            let events = self.pending_events.get() + 1;
            self.pending_events.set(events);
            if events >= BATCH_EVENTS || live.unsigned_abs() >= BATCH_BYTES {
                self.flush();
            }
        }

        /// Publishes the pending batch: one atomic add per non-zero
        /// counter.
        fn flush(&self) {
            publish_live(
                self.pending_live_bytes.replace(0),
                self.pending_live_allocs.replace(0),
            );
            for i in 0..SUBSYSTEMS.len() {
                let bytes = self.pending_bytes[i].replace(0);
                if bytes != 0 {
                    SUBSYS_BYTES[i].fetch_add(bytes, Relaxed);
                }
                let allocs = self.pending_allocs[i].replace(0);
                if allocs != 0 {
                    SUBSYS_ALLOCS[i].fetch_add(allocs, Relaxed);
                }
            }
            self.pending_events.set(0);
        }
    }

    #[inline]
    fn record_alloc(size: u64) {
        let batched = CELLS.try_with(|c| {
            c.allocated.set(c.allocated.get().wrapping_add(size));
            let live = c.live.get().wrapping_add(size);
            c.live.set(live);
            if live > c.peak.get() {
                c.peak.set(live);
            }
            let idx = c.subsystem_index();
            if c.mode.get() != BATCHED {
                SUBSYS_BYTES[idx].fetch_add(size, Relaxed);
                SUBSYS_ALLOCS[idx].fetch_add(1, Relaxed);
                return false;
            }
            c.pending_bytes[idx].set(c.pending_bytes[idx].get().wrapping_add(size));
            c.pending_allocs[idx].set(c.pending_allocs[idx].get() + 1);
            c.pend(size as i64, 1);
            true
        });
        // Without the thread-local the allocation falls out of the
        // cumulative totals (sums of the subsystem counters), but the
        // live gauges still see it.
        if batched != Ok(true) {
            publish_live(size as i64, 1);
        }
    }

    #[inline]
    fn record_dealloc(size: u64) {
        let batched = CELLS.try_with(|c| {
            // Freeing bytes another thread allocated saturates at zero
            // instead of wrapping the watermark.
            c.live.set(c.live.get().saturating_sub(size));
            if c.mode.get() != BATCHED {
                return false;
            }
            c.pend(-(size as i64), -1);
            true
        });
        if batched != Ok(true) {
            publish_live(-(size as i64), -1);
        }
    }

    /// The `#[global_allocator]` wrapper over [`System`].
    pub struct TrackingAlloc;

    // SAFETY: defers every allocation to `System` unchanged; the
    // bookkeeping never allocates (atomics + const-init Cell TLS only).
    unsafe impl GlobalAlloc for TrackingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                record_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                record_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            record_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                record_dealloc(layout.size() as u64);
                record_alloc(new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: TrackingAlloc = TrackingAlloc;

    pub fn flush_thread() {
        let _ = CELLS.try_with(ThreadCells::flush);
    }

    pub fn stats() -> super::AllocStats {
        // Allocated before the flush, so the snapshot counts itself.
        let mut subsystems = Vec::with_capacity(SUBSYSTEMS.len());
        flush_thread();
        subsystems.extend(
            SUBSYSTEMS
                .iter()
                .enumerate()
                .map(|(i, name)| super::SubsystemAlloc {
                    name,
                    bytes: SUBSYS_BYTES[i].load(Relaxed),
                    allocs: SUBSYS_ALLOCS[i].load(Relaxed),
                }),
        );
        // a gauge that batches of frees pushed below zero reads zero
        let gauge = |g: &AtomicU64| (g.load(Relaxed) as i64).max(0) as u64;
        super::AllocStats {
            live_bytes: gauge(&LIVE_BYTES),
            peak_live_bytes: PEAK_LIVE_BYTES.load(Relaxed),
            live_allocs: gauge(&LIVE_ALLOCS),
            total_allocs: subsystems.iter().map(|s| s.allocs).sum(),
            total_alloc_bytes: subsystems.iter().map(|s| s.bytes).sum(),
            subsystems,
        }
    }

    pub fn set_subsystem(idx: u8) -> u8 {
        CELLS
            .try_with(|c| {
                if c.mode.get() == DIRECT {
                    // The thread batches from its first span on, once
                    // its exit flush is registered.
                    c.mode.set(if EXIT_FLUSH.try_with(|_| ()).is_ok() {
                        BATCHED
                    } else {
                        EXITED
                    });
                }
                c.subsystem.replace(idx)
            })
            .unwrap_or_default()
    }

    pub fn thread_allocated_bytes() -> u64 {
        CELLS.try_with(|c| c.allocated.get()).unwrap_or_default()
    }

    pub fn thread_mark() -> u64 {
        CELLS
            .try_with(|c| {
                let live = c.live.get();
                c.peak.set(live);
                live
            })
            .unwrap_or_default()
    }

    pub fn thread_peak_since(mark: u64) -> u64 {
        CELLS
            .try_with(|c| c.peak.get().saturating_sub(mark))
            .unwrap_or_default()
    }

    pub fn bookkeeping_probe(size: u64) {
        record_alloc(size);
        record_dealloc(size);
    }
}

#[cfg(not(feature = "alloc-track"))]
mod imp {
    //! Feature-off stubs: everything constant-folds to nothing and no
    //! global allocator is registered.

    pub fn flush_thread() {}

    pub fn stats() -> super::AllocStats {
        super::AllocStats::default()
    }

    pub fn set_subsystem(_idx: u8) -> u8 {
        0
    }

    pub fn thread_allocated_bytes() -> u64 {
        0
    }

    pub fn thread_mark() -> u64 {
        0
    }

    pub fn thread_peak_since(_mark: u64) -> u64 {
        0
    }

    pub fn bookkeeping_probe(_size: u64) {}
}

/// Cumulative allocation counters for one subsystem label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubsystemAlloc {
    /// The [`SUBSYSTEMS`] label.
    pub name: &'static str,
    /// Cumulative bytes allocated while this subsystem was innermost.
    pub bytes: u64,
    /// Cumulative allocation count for this subsystem.
    pub allocs: u64,
}

/// A point-in-time snapshot of the process-wide allocation counters,
/// taken after publishing the calling thread's pending batch. Other
/// threads' batches are not yet in it: see the module docs for the
/// bounds. All zeros when the `alloc-track` feature is off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated and not yet freed, to within less
    /// than [`BATCH_BYTES`] per live thread that has entered a span.
    pub live_bytes: u64,
    /// High-water mark of the published `live_bytes` since process
    /// start: within less than [`BATCH_BYTES`] per live thread of the
    /// true peak, since a peak inside one thread's pending batch is
    /// never published.
    pub peak_live_bytes: u64,
    /// Allocations currently live, to within less than [`BATCH_EVENTS`]
    /// per live thread that has entered a span.
    pub live_allocs: u64,
    /// Cumulative allocation count since process start.
    pub total_allocs: u64,
    /// Cumulative bytes allocated since process start.
    pub total_alloc_bytes: u64,
    /// Per-subsystem cumulative attribution, in [`SUBSYSTEMS`] order.
    pub subsystems: Vec<SubsystemAlloc>,
}

/// Whether allocator tracking is compiled in (`alloc-track` feature).
#[must_use]
pub const fn tracking_enabled() -> bool {
    cfg!(feature = "alloc-track")
}

/// Snapshot the global allocation counters, after publishing the
/// calling thread's pending batch. All zeros when tracking is compiled
/// out.
#[must_use]
pub fn stats() -> AllocStats {
    imp::stats()
}

/// Publish the calling thread's pending batch to the shared counters.
/// [`crate::RecorderGuard`] runs this on drop, because a thread under
/// `std::thread::scope` counts as finished before its exit flush runs.
pub(crate) fn flush_thread() {
    imp::flush_thread();
}

/// Set the calling thread's subsystem attribution label (a
/// [`SUBSYSTEMS`] index); returns the previous label so span exit can
/// restore it. The first call switches the thread to batched counting.
/// No-op returning 0 when tracking is compiled out.
pub fn set_subsystem(idx: u8) -> u8 {
    imp::set_subsystem(idx)
}

/// Cumulative bytes allocated on the calling thread. Monotone: the
/// difference across a region is "bytes allocated inside it", which is
/// what per-span `alloc_bytes` reports.
#[must_use]
pub fn thread_allocated_bytes() -> u64 {
    imp::thread_allocated_bytes()
}

/// Reset the calling thread's live-byte high-water mark to its current
/// level and return that level. Pair with [`thread_peak_since`] to get a
/// peak-RSS-equivalent for a region (e.g. one job) on this thread.
pub fn thread_mark() -> u64 {
    imp::thread_mark()
}

/// Peak live bytes on the calling thread above the level captured by
/// [`thread_mark`].
#[must_use]
pub fn thread_peak_since(mark: u64) -> u64 {
    imp::thread_peak_since(mark)
}

/// Run exactly the bookkeeping one allocation + deallocation pair costs,
/// without calling the allocator. The `obs_overhead` guard times this in
/// a loop to bound tracking overhead deterministically.
#[doc(hidden)]
pub fn bookkeeping_probe(size: u64) {
    imp::bookkeeping_probe(size);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_mapping_by_prefix() {
        assert_eq!(subsystem_of("simplex.phase1"), 1);
        assert_eq!(subsystem_of("bnb.search"), 1);
        assert_eq!(subsystem_of("laygen.solve"), 2);
        assert_eq!(subsystem_of("layval"), 2);
        assert_eq!(subsystem_of("schedule.list"), 3);
        assert_eq!(subsystem_of("http.request"), 4);
        assert_eq!(subsystem_of("job"), 4);
        assert_eq!(subsystem_of("mystery"), 0);
        assert_eq!(subsystem_of(""), 0);
    }

    #[cfg(feature = "alloc-track")]
    #[test]
    fn counters_observe_a_large_allocation() {
        let before = stats();
        let v = vec![0u8; 1 << 20];
        let during = stats();
        assert!(
            during.total_alloc_bytes >= before.total_alloc_bytes + (1 << 20),
            "a 1 MiB allocation must move the cumulative byte counter"
        );
        assert!(during.total_allocs > before.total_allocs);
        assert!(during.live_bytes >= 1 << 20);
        assert!(during.peak_live_bytes >= during.live_bytes);
        drop(v);
        let after = stats();
        assert!(
            after.live_bytes < during.live_bytes,
            "freeing must shrink live bytes"
        );
    }

    #[cfg(feature = "alloc-track")]
    #[test]
    fn thread_watermark_tracks_a_region() {
        let mark = thread_mark();
        let v = vec![0u8; 512 * 1024];
        let peak = thread_peak_since(mark);
        assert!(
            peak >= 512 * 1024,
            "peak above the mark must cover the region's allocation, got {peak}"
        );
        drop(v);
        // after the free the peak is sticky
        assert!(thread_peak_since(mark) >= 512 * 1024);
        // a fresh mark resets it
        let mark = thread_mark();
        assert!(thread_peak_since(mark) < 512 * 1024);
    }

    #[cfg(feature = "alloc-track")]
    #[test]
    fn subsystem_attribution_follows_set_subsystem() {
        let prev = set_subsystem(1);
        let before = stats();
        let v = vec![0u8; 256 * 1024];
        let after = stats();
        set_subsystem(prev);
        assert_eq!(after.subsystems[1].name, "milp");
        assert!(
            after.subsystems[1].bytes >= before.subsystems[1].bytes + 256 * 1024,
            "bytes allocated under the milp label must land on its counter"
        );
        drop(v);
    }

    #[cfg(feature = "alloc-track")]
    #[test]
    fn thread_allocated_bytes_is_monotone() {
        let a = thread_allocated_bytes();
        let v = vec![0u8; 64 * 1024];
        let b = thread_allocated_bytes();
        assert!(b >= a + 64 * 1024);
        drop(v);
        assert!(thread_allocated_bytes() >= b, "cumulative, never decreases");
    }

    #[cfg(not(feature = "alloc-track"))]
    #[test]
    fn stubs_report_zero_when_compiled_out() {
        let v = vec![0u8; 1 << 20];
        assert_eq!(stats(), AllocStats::default());
        assert_eq!(thread_allocated_bytes(), 0);
        assert_eq!(set_subsystem(3), 0);
        assert_eq!(thread_peak_since(thread_mark()), 0);
        assert!(!tracking_enabled());
        drop(v);
    }
}
