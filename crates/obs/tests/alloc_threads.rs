//! The tracking allocator's per-thread batching, seen from the shared
//! counters: threads that allocate inside spans and then finish leave
//! the cumulative totals exact and the live gauge without drift.
//!
//! One test in its own process: no other test's allocations can move
//! the global deltas it compares, and the two parts run in sequence.
#![cfg(feature = "alloc-track")]

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;

use columba_obs::alloc::{self, AllocStats, BATCH_BYTES};
use columba_obs::{span, SpanContext, SpanRecorder};

const THREADS: usize = 4;
const BLOCK: usize = 1000;
/// The `schedule` label: nothing else in this process allocates under it.
const SUBSYSTEM: usize = 3;

fn subsystem_delta(before: &AllocStats, after: &AllocStats) -> (u64, u64) {
    let (b, a) = (&before.subsystems[SUBSYSTEM], &after.subsystems[SUBSYSTEM]);
    (a.bytes - b.bytes, a.allocs - b.allocs)
}

/// Allocates and frees `blocks` blocks of [`BLOCK`] bytes.
fn churn(blocks: usize) {
    for _ in 0..blocks {
        black_box(vec![0u8; BLOCK]);
    }
}

/// One worker thread's work: `blocks` blocks inside a `schedule.*` span
/// under `ctx`.
fn work(ctx: &SpanContext, blocks: usize) {
    let _attach = ctx.attach();
    let _span = span("schedule.block");
    churn(blocks);
}

/// Four spawned-and-joined threads, then four scoped threads, each
/// running [`work`]. The scoped threads are held at a barrier after
/// their recorder guard has dropped, and the counters are read then,
/// while they are still alive; the returned stats are those readings
/// for each half.
fn round(ctx: &SpanContext, blocks: usize) -> [AllocStats; 2] {
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let ctx = ctx.clone();
            thread::spawn(move || work(&ctx, blocks))
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker thread");
    }
    let joined = alloc::stats();
    let flushed = Barrier::new(THREADS + 1);
    let scoped = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    work(ctx, blocks);
                    flushed.wait();
                    flushed.wait();
                })
            })
            .collect();
        flushed.wait();
        let scoped = alloc::stats();
        flushed.wait();
        // the scope itself returns before its threads have exited; the
        // next round's readings must not see these threads' teardown
        for handle in handles {
            handle.join().expect("scoped thread");
        }
        scoped
    });
    [joined, scoped]
}

/// Part (a): cumulative totals are exact across joined and scoped
/// threads. Thread start-up allocates too, so each half of a round with
/// blocks is compared against the same half of a round without.
fn cumulative_totals_are_exact(ctx: &SpanContext) {
    const BLOCKS: usize = 150;
    round(ctx, 0); // warm up lazily initialized std state
    let start = alloc::stats();
    let [idle_joined, idle_scoped] = round(ctx, 0);
    let mid = alloc::stats();
    let [busy_joined, busy_scoped] = round(ctx, BLOCKS);

    let expect_allocs = (THREADS * BLOCKS) as u64;
    let expect_bytes = expect_allocs * BLOCK as u64;
    for (half, idle_before, idle, busy_before, busy) in [
        ("joined", &start, &idle_joined, &mid, &busy_joined),
        (
            "scoped",
            &idle_joined,
            &idle_scoped,
            &busy_joined,
            &busy_scoped,
        ),
    ] {
        assert_eq!(
            subsystem_delta(busy_before, busy),
            (expect_bytes, expect_allocs),
            "{half} threads: schedule bytes and allocations"
        );
        assert_eq!(
            subsystem_delta(idle_before, idle),
            (0, 0),
            "{half} threads without blocks"
        );
        let idle_total = idle.total_allocs - idle_before.total_allocs;
        let busy_total = busy.total_allocs - busy_before.total_allocs;
        assert_eq!(
            busy_total,
            idle_total + expect_allocs,
            "{half} threads: total allocations {busy_total} with blocks, {idle_total} without"
        );
    }
}

/// Part (b): 200 short-lived threads one after another each open a
/// span, allocate and free, and free their last block after their
/// recorder guard has dropped, so only the exit flush publishes that
/// free. The live gauge must come back to within [`BATCH_BYTES`] of its
/// start once they are gone.
fn exited_threads_leave_no_live_drift(rec: &SpanRecorder) {
    const SEQUENTIAL: usize = 200;
    rec.clear();
    let start = alloc::stats().live_bytes;
    for _ in 0..SEQUENTIAL {
        let rec = rec.clone();
        thread::spawn(move || {
            let kept = {
                let _installed = rec.install();
                let _span = span("service.block");
                churn(3);
                vec![0u8; BLOCK]
            };
            drop(black_box(kept));
        })
        .join()
        .expect("short-lived thread");
    }
    rec.clear();
    let end = alloc::stats().live_bytes;
    assert!(
        end.abs_diff(start) < BATCH_BYTES,
        "live bytes drifted from {start} to {end} over {SEQUENTIAL} exited threads"
    );
}

#[test]
fn batched_counters_stay_exact_across_thread_exits() {
    columba_obs::set_enabled(true);
    let rec = SpanRecorder::new(1);
    {
        let _installed = rec.install();
        let _root = span("test.root");
        let ctx = SpanContext::current().expect("recorder installed");
        cumulative_totals_are_exact(&ctx);
    }
    exited_threads_leave_no_live_drift(&rec);
}
