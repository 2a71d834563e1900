//! Event streams against a job's final state flip. A
//! `GET /jobs/<id>/events` stream reads the job's trace ring, then its
//! state, then blocks on the service's event counter. Two orderings keep
//! that loop exact:
//!
//! - the flip to a final state advances the counter, so a stream that
//!   already read the job's last event while it still ran wakes up;
//! - the job's terminal lifecycle event (`solved`, `cache_hit`, `failed`
//!   or `cancelled`) is in its ring before any reader sees the terminal
//!   state, so a stream that sees the state has the event too.
//!
//! The interleavings are forced, not raced for: at each worker
//! `mark_wake` the clock reads the job's log, arms a gate once one event
//! kind is in it, and parks the worker at its n-th wake after that
//! event's own until the test has taken its view.

mod common;

use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use columba_service::{Clock, JobId, JobState, RealClock, Service, ServiceConfig, TraceKind};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";

/// The one job each test submits: the first id of a fresh service.
const JOB: JobId = JobId(1);

/// Parks the worker at its `skip`-th wake after an `arm_on` event's own
/// wake (0: the event's own wake).
#[derive(Debug)]
struct Gate {
    arm_on: TraceKind,
    skip: usize,
    /// The service whose [`JOB`] log arms the gate.
    service: OnceLock<Weak<Service>>,
    /// Worker wakes so far that saw an `arm_on` event in the log.
    armed_wakes: Mutex<usize>,
    /// `(worker parked, gate open)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new(arm_on: TraceKind, skip: usize) -> Arc<Gate> {
        Arc::new(Gate {
            arm_on,
            skip,
            service: OnceLock::new(),
            armed_wakes: Mutex::new(0),
            state: Mutex::new((false, false)),
            cv: Condvar::new(),
        })
    }

    /// Whether [`JOB`]'s log holds an `arm_on` event. A job's event is
    /// in its log before the wake that announces it, so that wake is the
    /// first to see it.
    fn armed(&self) -> bool {
        let service = self.service.get().and_then(Weak::upgrade);
        service
            .and_then(|service| service.job_events(JOB))
            .is_some_and(|events| events.iter().any(|e| e.kind == self.arm_on))
    }

    /// One worker wake: parks at the `skip`-th armed wake after the first.
    fn wake(&self) {
        if !self.armed() {
            return;
        }
        let park = {
            let mut wakes = self.armed_wakes.lock().expect("gate lock");
            *wakes += 1;
            *wakes == self.skip + 1
        };
        if park {
            let mut st = self.state.lock().expect("gate lock");
            st.0 = true;
            self.cv.notify_all();
            while !st.1 {
                st = self.cv.wait(st).expect("gate lock");
            }
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
        if on_worker {
            self.gate.wake();
        }
    }
}

/// A one-worker service whose worker parks on `gate`.
fn gated_service(gate: &Arc<Gate>) -> Arc<Service> {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        clock: Some(Arc::new(GateClock {
            gate: Arc::clone(gate),
            real: RealClock::shared(),
        })),
        ..ServiceConfig::default()
    }));
    gate.service
        .set(Arc::downgrade(&service))
        .expect("one service per gate");
    service
}

/// Re-waits on the event counter, as a stream does, until it moves past
/// `seen` or 10 s pass; returns the last reading.
fn wait_past(service: &Service, seen: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = seen;
    while now == seen && Instant::now() < deadline {
        now = service.wait_events(seen, deadline.saturating_duration_since(Instant::now()));
    }
    now
}

fn has(service: &Service, id: JobId, kind: TraceKind) -> bool {
    service
        .job_events(id)
        .expect("known job")
        .iter()
        .any(|e| e.kind == kind)
}

#[test]
fn done_flip_wakes_a_stream_that_already_read_solved() {
    let gate = Gate::new(TraceKind::Solved, 0);
    let service = gated_service(&gate);
    let id = service.submit_text(TINY).expect("admitted");
    assert_eq!(id, JOB);
    gate.wait_parked();

    // the stream's view: `solved` is in the ring, the job still runs.
    // Open the gate before asserting, so a failure cannot leave the
    // worker parked under shutdown's join.
    let seen = service.events_seq();
    let read_solved = has(&service, id, TraceKind::Solved);
    let state = service.status(id).expect("known").state;
    gate.open();
    assert!(read_solved);
    assert_eq!(state, JobState::Running);

    // `wait_events` is one bounded wait, and the `solved` notify itself
    // may end it: re-wait until the counter moves
    assert!(
        wait_past(&service, seen) > seen,
        "the flip to a final state must wake event streams"
    );
    let status = service.status(id).expect("known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}

#[test]
fn failed_event_is_in_the_ring_before_the_state_reads_failed() {
    // the first worker wake after `started` comes after the job failed
    // to parse: the one that announces the flip
    let gate = Gate::new(TraceKind::Started, 1);
    let service = gated_service(&gate);
    let id = service
        .submit_text("definitely not a netlist")
        .expect("admitted");
    assert_eq!(id, JOB);
    gate.wait_parked();

    // the stream's order: state first, then the ring
    let state = service.status(id).expect("known").state;
    let kinds: Vec<TraceKind> = service
        .job_events(id)
        .expect("known job")
        .iter()
        .map(|e| e.kind)
        .collect();
    gate.open();
    if state.is_terminal() {
        assert!(
            kinds.contains(&TraceKind::Failed),
            "status reads {state} but the ring holds {kinds:?}"
        );
    }

    let status = service.wait(id, Duration::from_secs(30)).expect("known");
    assert_eq!(status.state, JobState::Failed);
    assert!(has(&service, id, TraceKind::Failed));
    service.shutdown();
}
