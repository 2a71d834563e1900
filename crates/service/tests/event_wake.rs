//! Event-stream wake-up on a job's final state flip. A
//! `GET /jobs/<id>/events` stream that has read the job's `solved` event
//! while the job still reads `Running` blocks on the service's event
//! counter; the worker's flip to `Done` must advance that counter, or
//! the stream sleeps until its next heartbeat.
//!
//! The interleaving is forced, not raced for: the trace sink arms a gate
//! on `solved`, and the clock's next `mark_wake` on the worker thread —
//! the one `trace` issues right after bumping the counter — parks the
//! worker until the test has taken the stream's view.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use columba_service::{
    Clock, JobState, RealClock, Service, ServiceConfig, TraceEvent, TraceKind, TraceSink,
};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";

/// `(worker parked, gate open)` plus the arming flag.
#[derive(Debug, Default)]
struct Gate {
    armed: AtomicBool,
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut st = self.state.lock().expect("gate lock");
        st.0 = true;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).expect("gate lock");
        }
    }

    fn wait_parked(&self) {
        let mut st = self.state.lock().expect("gate lock");
        while !st.0 {
            st = self.cv.wait(st).expect("gate lock");
        }
    }

    fn open(&self) {
        self.state.lock().expect("gate lock").1 = true;
        self.cv.notify_all();
    }
}

struct GateSink(Arc<Gate>);

impl TraceSink for GateSink {
    fn record(&self, event: &TraceEvent) {
        if event.kind == TraceKind::Solved {
            self.0.armed.store(true, Ordering::SeqCst);
        }
    }
}

#[derive(Debug)]
struct GateClock {
    gate: Arc<Gate>,
    real: Arc<dyn Clock>,
}

impl Clock for GateClock {
    fn now(&self) -> Duration {
        self.real.now()
    }

    fn sleep(&self, d: Duration) {
        self.real.sleep(d);
    }

    fn wait_begin(&self, timeout: Duration) -> (Duration, u64) {
        self.real.wait_begin(timeout)
    }

    fn wait_end(&self, token: u64) {
        self.real.wait_end(token);
    }

    fn party_begin(&self) {}

    fn party_end(&self) {}

    fn mark_wake(&self) {
        let on_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("columba-worker"));
        if on_worker && self.gate.armed.swap(false, Ordering::SeqCst) {
            self.gate.park();
        }
    }
}

#[test]
fn done_flip_wakes_a_stream_that_already_read_solved() {
    let gate = Arc::new(Gate::default());
    let service = Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        trace: Arc::new(GateSink(Arc::clone(&gate))),
        clock: Some(Arc::new(GateClock {
            gate: Arc::clone(&gate),
            real: RealClock::shared(),
        })),
        ..ServiceConfig::default()
    });
    let id = service.submit_text(TINY).expect("admitted");
    gate.wait_parked();

    // the stream's view: `solved` is in the ring, the job still runs
    let seen = service.events_seq();
    let events = service.job_events(id).expect("known job");
    assert!(events.iter().any(|e| e.kind == TraceKind::Solved));
    assert_eq!(service.status(id).expect("known").state, JobState::Running);

    // `wait_events` is one bounded wait, and the `solved` notify itself
    // may end it: re-wait, as the stream does, until the counter moves
    gate.open();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = seen;
    while now == seen && Instant::now() < deadline {
        now = service.wait_events(seen, deadline.saturating_duration_since(Instant::now()));
    }
    assert!(
        now > seen,
        "the flip to a final state must wake event streams"
    );
    let status = service.status(id).expect("known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}
