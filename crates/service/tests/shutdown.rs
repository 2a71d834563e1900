//! Graceful shutdown under load: `Service::shutdown` must cancel
//! in-flight solves through their `CancelToken`s, drain the queue, join
//! every worker and log `shutdown` in the service log — quickly, and
//! without a single worker panic.

mod common;

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use columba_s::{LayoutOptions, SynthesisOptions};
use columba_service::{JobState, Service, ServiceConfig, SubmitError, TraceKind};

/// Options that make a single solve run long enough to still be
/// in-flight when shutdown lands: a huge node budget with a long time
/// limit, so only cancellation stops the search.
fn slow_options() -> SynthesisOptions {
    SynthesisOptions {
        layout: LayoutOptions {
            time_limit: Duration::from_secs(600),
            node_limit: 50_000_000,
            threads: 1,
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    }
}

#[test]
fn shutdown_under_load_never_hangs() {
    let (_, text) = common::bundled_cases()
        .into_iter()
        .find(|(name, _)| name == "columba2_21u")
        .expect("bundled case present");
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        options: slow_options(),
        job_deadline: None,
        ..ServiceConfig::default()
    }));

    // saturate: both workers busy on effectively-unbounded solves, more
    // jobs queued behind them
    let ids: Vec<_> = (0..6)
        .map(|_| service.submit_text(&text).expect("queue has room"))
        .collect();
    // let the workers actually pick jobs up before pulling the plug
    let entered = Instant::now();
    while service.metrics().jobs_running < 2 && entered.elapsed() < Duration::from_secs(30) {
        thread::sleep(Duration::from_millis(10));
    }

    // clients keep hammering while shutdown runs; they must get clean
    // rejections, never hangs or panics
    let hammer = {
        let service = Arc::clone(&service);
        let text = text.clone();
        thread::spawn(move || {
            let mut rejected_for_shutdown = 0u32;
            for _ in 0..200 {
                match service.submit_text(&text) {
                    Ok(_) | Err(SubmitError::QueueFull { .. } | SubmitError::Persist { .. }) => {}
                    Err(SubmitError::ShuttingDown) => rejected_for_shutdown += 1,
                }
                thread::sleep(Duration::from_millis(1));
            }
            rejected_for_shutdown
        })
    };

    let t0 = Instant::now();
    service.shutdown();
    let took = t0.elapsed();
    // cooperative cancellation winds the ladder down at the next token
    // check — far faster than the 600 s budget
    assert!(
        took < Duration::from_secs(60),
        "shutdown took {took:?}; cancellation is not reaching the solver"
    );
    let rejected_for_shutdown = hammer.join().expect("hammer thread");
    assert!(
        rejected_for_shutdown > 0,
        "submissions during shutdown must be rejected with ShuttingDown"
    );

    // every job landed in a terminal state; none is stuck
    for id in ids {
        let status = service.status(id).expect("job known");
        assert!(
            status.state.is_terminal(),
            "job {id:?} left non-terminal: {:?}",
            status.state
        );
        assert_ne!(status.state, JobState::Queued);
        assert_ne!(status.state, JobState::Running);
    }
    let m = service.metrics();
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.jobs_running, 0);
    assert_eq!(m.queue_depth, 0);
    // the service log saw the shutdown event
    let shutdowns = service
        .service_events()
        .iter()
        .filter(|e| e.kind == TraceKind::Shutdown)
        .count();
    assert_eq!(shutdowns, 1);

    // idempotent: a second shutdown returns immediately
    let t1 = Instant::now();
    service.shutdown();
    assert!(t1.elapsed() < Duration::from_secs(1));
}
