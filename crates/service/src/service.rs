//! The synthesis service: admission control, a bounded job queue, a fixed
//! worker pool running the resilient synthesis ladder, and the
//! content-addressed design cache in front of it.
//!
//! Concurrency layout: one `Mutex<State>` holds the queue and the job
//! table; two condvars on it wake workers (`work`) and waiters (`done`).
//! The cache and the cumulative solver telemetry live behind their own
//! locks so a long solve never blocks status queries. Workers run each
//! job inside `catch_unwind` — a panicking solve fails that job, bumps
//! `worker_panics`, and the worker lives on.
//!
//! Durability is opt-in through [`ServiceConfig::persist`]: with a
//! [`PersistConfig`], every submission is journaled (fsync before ack),
//! pristine designs are mirrored to a checksummed disk cache, and
//! [`Service::open`] replays both on startup — re-enqueueing jobs that
//! were submitted but never finished, restoring terminal job records,
//! and warming the in-memory cache (see [`crate::persist`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use columba_obs::{
    Histogram, RecorderGuard, SloDef, SloEngine, SloSnapshot, SloTransition, SpanRecorder,
};
use columba_s::{CancelToken, Columba, Netlist, Rung, SolveStats, SynthesisOptions};

use crate::batch::{BatchId, BatchStatus, MemberStatus};
use crate::cache::{entry_cost, CacheConfig, CompletedDesign, DesignCache, DesignSummary};
use crate::hash::ContentKey;
use crate::job::{JobId, JobState, JobStatus, QosClass};
use crate::lifecycle::{
    transition, withdrawn, Canceller, Counter, Effects, Event, Finish, Folded, JobEnd, JobRecord,
};
use crate::metrics::MetricsSnapshot;
use crate::persist::{
    BreakerConfig, BreakerState, JournalRecord, Persist, PersistConfig, PersistSupervisor,
    Recovery, Storage, WriteOutcome,
};
use crate::simenv::clock::{clock_wait, Clock, ClockParty, ClockSuspend, RealClock};
use crate::trace::{NullSink, RingConfig, RingSink, TraceEvent, TraceKind, TraceSink};

/// Locks a mutex, recovering from poisoning: a panic in a worker is
/// already contained and counted, so the shared state stays usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service construction parameters.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool. `0` picks
    /// `min(available_parallelism, 4)`.
    pub workers: usize,
    /// Bound on the *interactive* submission queue. A submission
    /// arriving when the queue holds this many jobs is rejected with
    /// [`SubmitError::QueueFull`] — backpressure, never indefinite
    /// blocking.
    pub queue_capacity: usize,
    /// Bound on the *bulk* submission queue (batch members land here by
    /// default). The two budgets are separate: a batch saturating the
    /// bulk queue never blocks interactive admission, and vice versa.
    pub bulk_queue_capacity: usize,
    /// Design-cache limits.
    pub cache: CacheConfig,
    /// Synthesis options every job runs under (also half of the cache
    /// key — see [`SynthesisOptions::canonical_text`]).
    pub options: SynthesisOptions,
    /// Schedule options every *assay* submission runs under: storage
    /// policy, idle threshold, transport cost and default device bounds.
    /// Their canonical text joins the assay's in the cache key, so the
    /// same assay under a different policy is a different design.
    pub schedule: columba_schedule::ScheduleOptions,
    /// Per-job wall-clock deadline. The job's [`CancelToken`] fires when
    /// it expires, degrading the solve through the resilience ladder.
    pub job_deadline: Option<Duration>,
    /// Terminal job records kept for status queries; the oldest beyond
    /// this are pruned so a long-running service does not grow without
    /// bound.
    pub max_records: usize,
    /// Trace sink for lifecycle events.
    pub trace: Arc<dyn TraceSink>,
    /// Durability: `Some` journals every job and mirrors the design cache
    /// to disk under the given state directory, recovering both on
    /// startup; `None` (the default) keeps everything in memory.
    pub persist: Option<PersistConfig>,
    /// Span profiling: when `true` (the default) the process-global
    /// [`columba_obs`] flag is switched on at startup, every job runs
    /// under a bounded per-job [`SpanRecorder`], and the captured solver
    /// and layout spans are served as a Chrome trace by
    /// `GET /jobs/<id>/profile`.
    pub profile_spans: bool,
    /// Span events kept per job profile; the recorder ring evicts the
    /// oldest beyond this (evictions surface in `/metrics` as
    /// `profile_events_dropped`).
    pub profile_capacity: usize,
    /// Bounds for the per-job lifecycle trace rings behind
    /// `GET /jobs/<id>/trace`.
    pub trace_ring: RingConfig,
    /// Tail-sampling latency threshold: a finished job whose solve took
    /// at least this long keeps its full trace ring and span profile
    /// even when head sampling would have dropped it. Error, degraded,
    /// cancelled and watchdog-fired jobs are always kept.
    pub trace_keep_slow: Duration,
    /// Head-sampling rate for fast, clean jobs: 1 in this many such jobs
    /// keeps its trace/profile; the rest are discarded as they finish and
    /// counted in `/metrics` as `traces_sampled_out`. `1` (the default)
    /// keeps everything; `0` is treated as `1`.
    pub trace_head_sample: u64,
    /// Declarative SLO set the burn-rate engine evaluates. The first
    /// three entries are fed by the service in a fixed order —
    /// availability per HTTP route, HTTP latency per route, solve
    /// latency per QoS class — so replace them to change targets or
    /// thresholds, but keep the order. A shorter vector silently
    /// disables the missing streams.
    pub slos: Vec<SloDef>,
    /// Persist self-healing thresholds: retries per write, consecutive
    /// failures before the breaker trips the service into volatile
    /// degraded mode, and the half-open probe pacing.
    pub breaker: BreakerConfig,
    /// Grace past [`ServiceConfig::job_deadline`] before the stuck-job
    /// watchdog cancels a running job that ignored its deadline token.
    pub watchdog_grace: Duration,
    /// Test hook: sleep this long per journal record during startup
    /// recovery, making the not-ready window observable from `/healthz`.
    /// `None` (the default) replays at full speed.
    pub replay_throttle: Option<Duration>,
    /// Time source for every deadline, backoff, watchdog, uptime and
    /// trace timestamp in the service. `None` (the default) uses the
    /// real monotonic clock; tests install a
    /// [`crate::simenv::SimClock`] to make timeout interleavings
    /// deterministic.
    pub clock: Option<Arc<dyn Clock>>,
    /// Storage backend the persist layer runs on when
    /// [`ServiceConfig::persist`] is set. `None` (the default) is the
    /// real filesystem; tests install a [`crate::persist::SimFs`] to
    /// inject storage faults and crashes.
    pub storage: Option<Arc<dyn Storage>>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            bulk_queue_capacity: 256,
            cache: CacheConfig::default(),
            options: SynthesisOptions::default(),
            schedule: columba_schedule::ScheduleOptions::default(),
            job_deadline: Some(Duration::from_secs(120)),
            max_records: 4096,
            trace: Arc::new(NullSink),
            persist: None,
            profile_spans: true,
            profile_capacity: 4096,
            trace_ring: RingConfig::default(),
            trace_keep_slow: Duration::from_secs(30),
            trace_head_sample: 1,
            slos: default_slos(),
            breaker: BreakerConfig::default(),
            watchdog_grace: Duration::from_secs(30),
            replay_throttle: None,
            clock: None,
            storage: None,
        }
    }
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("bulk_queue_capacity", &self.bulk_queue_capacity)
            .field("cache", &self.cache)
            .field("job_deadline", &self.job_deadline)
            .field("max_records", &self.max_records)
            .field("persist", &self.persist)
            .field("profile_spans", &self.profile_spans)
            .field("breaker", &self.breaker)
            .field("watchdog_grace", &self.watchdog_grace)
            .finish_non_exhaustive()
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; resubmit later.
    QueueFull {
        /// Jobs waiting when the submission arrived.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// The submission could not be made durable (journal append failed).
    /// The job was NOT admitted: acked means journaled, so a submission
    /// that cannot be journaled is refused rather than accepted with a
    /// silent durability hole.
    Persist {
        /// The underlying I/O error, rendered.
        detail: String,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth, capacity } => {
                write!(f, "queue full (depth {depth}, capacity {capacity})")
            }
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
            SubmitError::Persist { detail } => {
                write!(f, "submission could not be journaled: {detail}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Which CAD artifact to export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportKind {
    /// The SVG render.
    Svg,
    /// The AutoCAD `.scr` script.
    Scr,
}

/// Why an export was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// No such job.
    NotFound,
    /// The job has no design (yet): still queued/running, failed, or
    /// cancelled before an incumbent existed.
    NotReady(JobState),
}

/// Why a `GET /jobs/<id>/profile` request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// No such job.
    NotFound,
    /// The job is not terminal yet; its profile is still being recorded.
    NotReady(JobState),
    /// The job finished but no spans were captured —
    /// [`ServiceConfig::profile_spans`] was off when it ran.
    Disabled,
}

/// A point-in-time liveness/readiness report, served as JSON by
/// `GET /healthz`. `ready` is the overall verdict: the HTTP front end
/// answers 503 with `Retry-After` until it turns true.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The service can take traffic: startup recovery has finished and
    /// shutdown has not begun.
    pub ready: bool,
    /// Startup recovery (journal replay + cache load) is still running;
    /// submissions block and `/healthz` answers 503 meanwhile.
    pub recovering: bool,
    /// [`Service::shutdown`] has begun.
    pub shutting_down: bool,
    /// The persist breaker's state ([`BreakerState::Closed`] when
    /// persistence is off).
    pub breaker: BreakerState,
    /// Persist writes are being skipped: work accepted now is volatile
    /// until the breaker closes again.
    pub degraded: bool,
    /// Interactive-queue depth (admitted + reserved).
    pub queue_depth_interactive: usize,
    /// Bulk-queue depth (admitted + reserved).
    pub queue_depth_bulk: usize,
    /// Jobs currently running on workers.
    pub jobs_running: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs the stuck-job watchdog has cancelled since startup.
    pub watchdog_cancels: u64,
}

impl HealthReport {
    /// The report as a single-line JSON object — the `/healthz` body.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ready\":{},\"recovering\":{},\"shutting_down\":{},\
             \"breaker\":\"{}\",\"degraded\":{},\
             \"queue_depth_interactive\":{},\"queue_depth_bulk\":{},\
             \"jobs_running\":{},\"workers\":{},\"watchdog_cancels\":{}}}",
            self.ready,
            self.recovering,
            self.shutting_down,
            self.breaker.as_str(),
            self.degraded,
            self.queue_depth_interactive,
            self.queue_depth_bulk,
            self.jobs_running,
            self.workers,
            self.watchdog_cancels,
        )
    }
}

/// A batch group's membership: the job id backing each member, in
/// submission order (duplicate members repeat their representative's id).
struct BatchRecord {
    class: QosClass,
    members: Vec<u64>,
}

struct State {
    /// One queue per [`QosClass`], indexed by [`QosClass::idx`].
    queues: [VecDeque<u64>; 2],
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    /// Ids handed out by admission control whose journal append is still
    /// in flight, per class: they count against that class's capacity
    /// (so a burst of submissions cannot overshoot the bound while the
    /// journal fsyncs) but are not yet in a queue or `jobs`.
    reserved: [usize; 2],
    batches: BTreeMap<u64, BatchRecord>,
    next_batch_id: u64,
    /// Jobs claimed by workers so far; every fourth claim prefers the
    /// bulk queue so bulk work is never starved outright.
    claims: u64,
}

impl State {
    fn depth(&self, class: QosClass) -> usize {
        let i = class.idx();
        self.queues[i].len() + self.reserved[i]
    }

    /// Jobs currently in `state`.
    fn count(&self, state: JobState) -> usize {
        self.jobs.values().filter(|r| r.state() == state).count()
    }
}

struct Inner {
    /// The service's time source; every timestamp below is a reading of
    /// it ("clock time": duration since the clock's own epoch).
    clock: Arc<dyn Clock>,
    /// Clock time at construction; uptime and trace timestamps are
    /// measured from it.
    epoch: Duration,
    columba: Columba,
    options_canon: String,
    /// Schedule options assay submissions run under, plus their
    /// canonical text (the schedule half of an assay job's cache key).
    schedule_options: columba_schedule::ScheduleOptions,
    schedule_canon: String,
    /// Per-class admission budgets, indexed by [`QosClass::idx`].
    queue_capacity: [usize; 2],
    job_deadline: Option<Duration>,
    max_records: usize,
    worker_count: usize,
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    shutting_down: AtomicBool,
    cache: Mutex<DesignCache>,
    agg: Mutex<SolveStats>,
    trace_sink: Arc<dyn TraceSink>,
    /// Bounded per-job trace rings behind `GET /jobs/<id>/trace`; every
    /// event recorded through [`Inner::trace`] is teed here as well as
    /// to the configured sink.
    ring: RingSink,
    persist: Option<Persist>,
    /// Retry/breaker state every persist write runs under; meaningful
    /// only when `persist` is `Some` (stays closed forever otherwise).
    supervisor: PersistSupervisor,
    /// Startup recovery has finished (immediately true without
    /// persistence). Guarded by its own mutex so `/healthz` reads it
    /// without touching the job table; every other public API blocks on
    /// it through [`Inner::wait_ready`].
    ready: Mutex<bool>,
    ready_cv: Condvar,
    /// Monotone count of lifecycle trace events recorded so far; SSE
    /// streams block on it (through [`Service::wait_events`]) instead of
    /// fixed-interval polling.
    events_seq: Mutex<u64>,
    events_cv: Condvar,
    /// The supervisor thread's tick lock/condvar; shutdown (and the
    /// recovery replay throttle's abort) signal it so nothing waits out
    /// a full tick.
    tick: Mutex<()>,
    tick_cv: Condvar,
    watchdog_grace: Duration,
    rejected: AtomicU64,
    panics: AtomicU64,
    /// Batch groups admitted.
    batches_submitted: AtomicU64,
    /// Batch members received (including duplicates).
    batch_members: AtomicU64,
    /// Batch members that collapsed onto another member's job instead of
    /// getting their own solve.
    batch_dedup_hits: AtomicU64,
    drc_rejected: AtomicU64,
    /// Assay submissions that went through the schedule front end.
    assay_jobs: AtomicU64,
    /// Storage ops the scheduler inserted across all assay jobs.
    storage_ops_inserted: AtomicU64,
    /// The lifecycle counters, indexed by [`Counter`].
    counts: [AtomicU64; 4],
    profile_spans: bool,
    profile_capacity: usize,
    /// Span events evicted from per-job profile recorders (and the
    /// HTTP request recorder) because their rings were full.
    profile_dropped: AtomicU64,
    /// Wall-clock latency of completed non-cache-hit solves.
    solve_hist: Histogram,
    /// HTTP request service latency, fed by the front end through
    /// [`Service::observe_http`].
    http_hist: Histogram,
    /// HTTP request counts by (route label, status).
    http_counts: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Nanoseconds each worker has spent running jobs; busy fraction is
    /// this over uptime.
    worker_busy_ns: Vec<AtomicU64>,
    /// Service-level recorder the HTTP front end installs per
    /// connection: request spans land here, served by `GET /profile`.
    http_recorder: SpanRecorder,
    /// The SLO/error-budget engine: availability and latency burn rates
    /// over 5m/1h/6h windows, fed by [`Service::observe_http`] and each
    /// finished solve, evaluated every supervisor tick and on `GET /slo`.
    /// Pure `Duration` arithmetic over [`Inner::clock`], so burn math is
    /// deterministic under a [`crate::simenv::SimClock`].
    slo: Mutex<SloEngine>,
    /// Job trace rings + span profiles discarded by the tail-sampling
    /// policy (fast, clean, and not head-sampled).
    traces_sampled_out: AtomicU64,
    /// Tail-sampling knobs (see [`ServiceConfig`]).
    trace_keep_slow: Duration,
    trace_head_sample: u64,
    /// Per-bucket exemplars for the solve-latency histogram: the last
    /// *retained* job to land in each bucket, `(job id, seconds)`, so
    /// `/metrics` exemplars always link to a resolvable trace.
    solve_exemplars: Mutex<BTreeMap<usize, (u64, f64)>>,
}

/// Index of the availability SLO (labels: HTTP route) in [`default_slos`].
const SLO_AVAILABILITY: usize = 0;
/// Index of the HTTP p99-latency SLO (labels: HTTP route).
const SLO_HTTP_LATENCY: usize = 1;
/// Index of the solve-latency SLO (labels: QoS class).
const SLO_SOLVE_LATENCY: usize = 2;

/// The service's declarative SLO set: 99.9% of HTTP requests answered
/// without a 5xx, 99% of HTTP requests under 1s, and 95% of non-cache
/// solves under 30s. Order must match the `SLO_*` index constants.
fn default_slos() -> Vec<SloDef> {
    vec![
        SloDef::availability("availability", 0.999),
        SloDef::latency("http_latency", 0.99, Duration::from_secs(1)),
        SloDef::latency("solve_latency", 0.95, Duration::from_secs(30)),
    ]
}

impl Inner {
    fn trace(&self, job: Option<u64>, kind: TraceKind, detail: impl Into<String>) {
        let event = TraceEvent {
            ts: self.clock.now().saturating_sub(self.epoch),
            job,
            kind,
            detail: detail.into(),
        };
        self.ring.record(&event);
        self.trace_sink.record(&event);
        self.notify_events();
    }

    /// Runs `event` through [`transition`] on a record of the locked job
    /// table; `None` when the record refused it. The lifecycle event goes
    /// into the job's trace ring here, under the state lock, so no reader
    /// sees a terminal state before its event. Everything else waits for
    /// [`Inner::apply`].
    fn step(&self, r: &mut JobRecord, event: Event) -> Option<Effects> {
        let mut fx = transition(r, event)?;
        if let Some((_, elapsed)) = fx.solve {
            self.solve_hist.record(elapsed);
        }
        if let Some(event) = &mut fx.event {
            event.ts = self.clock.now().saturating_sub(self.epoch);
            self.ring.record(event);
        }
        Some(fx)
    }

    /// Applies a transition's effects, outside the state lock: the trace
    /// sink, event-stream wakeups, tail sampling, the solve SLO and
    /// exemplar feeds, the journal append, the lifecycle counter, and
    /// finally the wakeup of the job's waiters.
    fn apply(&self, fx: Effects) {
        if let Some(event) = &fx.event {
            self.trace_sink.record(event);
        }
        // A final state is an event of its own: a stream that already read
        // the job's last trace event while it still ran waits on the
        // counter, not on the job table.
        if fx.event.is_some() || fx.terminal {
            self.notify_events();
        }
        if fx.sampled_out {
            self.ring.forget(&[fx.id]);
            self.traces_sampled_out.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((class, elapsed)) = fx.solve {
            // Feed the solve-latency SLO (per QoS class), and pin this job
            // as its latency bucket's exemplar — but only when its trace
            // was retained, so `/metrics` exemplars always resolve.
            let now = self.clock.now().saturating_sub(self.epoch);
            lock(&self.slo).observe_latency(SLO_SOLVE_LATENCY, class.as_str(), now, elapsed);
            if !fx.sampled_out {
                #[allow(clippy::cast_precision_loss)]
                let bucket = columba_obs::bucket_index(elapsed.as_micros() as f64);
                lock(&self.solve_exemplars).insert(bucket, (fx.id, elapsed.as_secs_f64()));
            }
        }
        if let Some(record) = &fx.journal {
            self.journal_best_effort(record);
        }
        if let Some(counter) = fx.counter {
            self.counts[counter as usize].fetch_add(1, Ordering::Relaxed);
        }
        if fx.terminal {
            self.clock.mark_wake();
            self.done.notify_all();
        }
    }

    fn count(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }

    /// Blocks on the `done` condvar until `snap` reports its snapshot
    /// final or `timeout` passes, and returns the last snapshot; `None`
    /// once `snap` does not know its subject.
    fn wait_until<T>(
        &self,
        timeout: Duration,
        snap: impl Fn(&State) -> Option<(T, bool)>,
    ) -> Option<T> {
        self.wait_ready();
        let deadline = self.clock.now() + timeout;
        let mut st = lock(&self.state);
        loop {
            let (snapshot, last) = snap(&st)?;
            let now = self.clock.now();
            if last || now >= deadline {
                return Some(snapshot);
            }
            st = clock_wait(&*self.clock, &self.done, st, deadline - now).0;
        }
    }

    /// A fresh job's cancel token, carrying the per-job deadline.
    fn job_token(&self) -> CancelToken {
        self.job_deadline
            .map_or_else(CancelToken::new, CancelToken::with_timeout)
    }

    /// Advances the event counter and wakes every event-stream waiter.
    fn notify_events(&self) {
        *lock(&self.events_seq) += 1;
        self.clock.mark_wake();
        self.events_cv.notify_all();
    }

    /// Blocks until startup recovery has finished (or shutdown began).
    /// Every public API that reads or mutates the job table goes through
    /// this so recovered state is never observed half-applied; `/healthz`
    /// deliberately does not — reporting "not ready yet" is its job.
    fn wait_ready(&self) {
        let mut ready = lock(&self.ready);
        while !*ready && !self.shutting_down.load(Ordering::Acquire) {
            let (g, _) = clock_wait(
                &*self.clock,
                &self.ready_cv,
                ready,
                Duration::from_millis(50),
            );
            ready = g;
        }
    }

    /// Appends a journal record when persistence is on, through the
    /// breaker, tracing (never propagating) failures and compactions.
    /// These are the records whose loss recovery tolerates — `started`,
    /// terminal states; admission records go through
    /// [`Inner::journal_admission`] because there a closed-breaker
    /// failure must refuse the ack.
    fn journal_best_effort(&self, record: &JournalRecord) {
        let Some(persist) = &self.persist else {
            return;
        };
        if let Err(e) = self.journal_admission(persist, record) {
            let detail = format!("journal append failed: {e}");
            self.trace(Some(record.id()), TraceKind::PersistError, detail);
        }
    }

    /// Journals an admission record under the breaker. `Ok(true)` means
    /// the record is durable; `Ok(false)` means the breaker is (or this
    /// very failure tripped it) open and the job is accepted *volatile*;
    /// `Err` refuses the submission — the write failed but the breaker is
    /// still closed, and while healthy, acked means journaled.
    fn journal_admission(&self, persist: &Persist, record: &JournalRecord) -> io::Result<bool> {
        let compacted = self.persist_write(Some(record.id()), || persist.append(record))?;
        if compacted == Some(true) {
            self.trace(None, TraceKind::Compacted, "journal compacted");
        }
        Ok(compacted.is_some())
    }

    /// Runs one persist write through the breaker. `Ok(Some(_))`: the
    /// write is durable. `Ok(None)`: the breaker is open, or this very
    /// failure tripped it, and the write was skipped. `Err`: the write
    /// failed with the breaker still closed.
    fn persist_write<T>(
        &self,
        job: Option<u64>,
        write: impl FnMut() -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        match self.supervisor.run(write) {
            WriteOutcome::Done(out) => Ok(Some(out)),
            WriteOutcome::Skipped => Ok(None),
            WriteOutcome::Tripped(cause) => {
                let detail =
                    format!("persist breaker opened; serving volatile from memory: {cause}");
                self.trace(job, TraceKind::BreakerOpen, detail);
                Ok(None)
            }
            WriteOutcome::Failed(e) => Err(e),
        }
    }

    /// Counts and traces a refused submission; returns the reason.
    fn reject(&self, err: SubmitError) -> SubmitError {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.trace(None, TraceKind::Rejected, err.to_string());
        err
    }

    /// Admits `texts` under `class`, atomically: every one or none. A
    /// batch passes each member's slot in `texts`. Returns the batch's
    /// group id and the member job ids (a single submission's one id).
    fn admit(
        &self,
        class: QosClass,
        texts: Vec<Arc<String>>,
        member_of: Option<&[usize]>,
    ) -> Result<(Option<u64>, Vec<u64>), SubmitError> {
        let n = texts.len();
        let capacity = self.queue_capacity[class.idx()];
        // Phase 1 — admission + id reservation under the state lock. The
        // reservation counts against capacity so concurrent submissions
        // cannot overshoot the bound while phase 2 runs the (possibly
        // slow, fsyncing) journal appends outside the lock.
        let (ids, batch_id) = {
            let mut st = lock(&self.state);
            // Check the flag *under the state lock*: shutdown() drains the
            // queues under this same lock after setting the flag, so either
            // this submission sees the flag and is rejected, or it enqueues
            // before the drain and the drain cancels it. Checking before
            // taking the lock would leave a window where a job lands in a
            // queue whose workers have already been joined and stays
            // `Queued` forever.
            if self.shutting_down.load(Ordering::Acquire) {
                drop(st);
                return Err(self.reject(SubmitError::ShuttingDown));
            }
            let depth = st.depth(class);
            if depth + n > capacity {
                drop(st);
                return Err(self.reject(SubmitError::QueueFull { depth, capacity }));
            }
            let ids: Vec<u64> = (st.next_id..).take(n).collect();
            st.next_id += n as u64;
            st.reserved[class.idx()] += n;
            let batch_id = member_of.map(|_| {
                st.next_batch_id += 1;
                st.next_batch_id - 1
            });
            (ids, batch_id)
        };
        let members: Vec<u64> = member_of.map_or_else(
            || ids.clone(),
            |slots| slots.iter().map(|&slot| ids[slot]).collect(),
        );
        // Phase 2 — journal every `submitted` record, then a batch's group
        // record, before the ack. While the breaker is closed a failed
        // append refuses the whole submission and withdraws what was
        // journaled. Once it is open — or this very failure trips it —
        // the jobs are accepted *volatile*: solved and served from memory,
        // non-durable until the breaker heals.
        let mut durable = false;
        if let Some(persist) = &self.persist {
            let mut records: Vec<JournalRecord> = ids
                .iter()
                .zip(&texts)
                .map(|(&id, text)| JournalRecord::Submitted {
                    id,
                    class,
                    text: Arc::clone(text),
                })
                .collect();
            if let Some(id) = batch_id {
                records.push(JournalRecord::Batch {
                    id,
                    members: members.clone(),
                });
            }
            durable = true;
            let mut journaled = Vec::new();
            for record in &records {
                match self.journal_admission(persist, record) {
                    Ok(true) => journaled.push(record.id()),
                    Ok(false) => durable = false,
                    Err(e) => {
                        lock(&self.state).reserved[class.idx()] -= n;
                        for id in journaled {
                            self.apply(withdrawn(id));
                        }
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        let (job, what) = match batch_id {
                            Some(_) => (None, "batch journal append failed"),
                            None => (Some(ids[0]), "journal append failed"),
                        };
                        self.trace(job, TraceKind::PersistError, format!("{what}: {e}"));
                        return Err(SubmitError::Persist {
                            detail: e.to_string(),
                        });
                    }
                }
            }
        }
        // Phase 3 — enqueue. Shutdown may have raced phase 2; re-check
        // under the lock and withdraw the journaled submissions so they
        // are not re-enqueued on the next startup.
        {
            let mut st = lock(&self.state);
            st.reserved[class.idx()] -= n;
            if self.shutting_down.load(Ordering::Acquire) {
                drop(st);
                for &id in &ids {
                    self.apply(withdrawn(id));
                }
                return Err(self.reject(SubmitError::ShuttingDown));
            }
            for (&id, text) in ids.iter().zip(texts) {
                let token = self.job_token();
                st.jobs
                    .insert(id, JobRecord::new(id, class, text, token, durable));
                st.queues[class.idx()].push_back(id);
            }
            if let Some(id) = batch_id {
                let group = BatchRecord {
                    class,
                    members: members.clone(),
                };
                st.batches.insert(id, group);
                prune_batches(&mut st, self.max_records);
            }
            let pruned = prune_records(&mut st, self.max_records);
            drop(st);
            self.ring.forget(&pruned);
        }
        if let Some(b) = batch_id {
            self.batches_submitted.fetch_add(1, Ordering::Relaxed);
            self.trace(
                None,
                TraceKind::Batch,
                format!(
                    "batch {b} admitted: {} members, {n} unique, class {class}",
                    members.len()
                ),
            );
        }
        for &id in &ids {
            let detail = batch_id.map_or(String::new(), |b| format!("batch {b}"));
            self.trace(Some(id), TraceKind::Admitted, detail);
        }
        self.clock.mark_wake();
        if batch_id.is_some() {
            self.work.notify_all();
        } else {
            self.work.notify_one();
        }
        Ok((batch_id, members))
    }
}

/// A running synthesis service. Construct with [`Service::start`]; share
/// behind an `Arc` (the HTTP front end does). Dropping the service shuts
/// it down.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.inner.worker_count)
            .field("queue_capacity", &self.inner.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the worker pool and returns the running service.
    ///
    /// # Panics
    ///
    /// When [`ServiceConfig::persist`] is set and the state directory
    /// cannot be opened. Use [`Service::open`] to handle that error;
    /// `start` remains the infallible constructor for in-memory use.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Service {
        match Service::open(config) {
            Ok(service) => service,
            Err(e) => panic!("opening the service state directory: {e}"),
        }
    }

    /// Starts the worker pool, first recovering persisted state when
    /// [`ServiceConfig::persist`] is set: the job journal is replayed
    /// (re-enqueueing submitted-but-unfinished jobs and restoring
    /// terminal records) and the disk cache is verified and loaded into
    /// the in-memory cache — all before the first worker runs, so
    /// recovered queue order is preserved. Corrupt journal records and
    /// cache files are counted, traced, and skipped, never a panic.
    ///
    /// # Errors
    ///
    /// An I/O error creating or opening the state directory or journal
    /// file. Corrupt *contents* never error.
    pub fn open(config: ServiceConfig) -> io::Result<Service> {
        let worker_count = if config.workers == 0 {
            thread::available_parallelism().map_or(2, |n| n.get().min(4))
        } else {
            config.workers
        };
        let clock: Arc<dyn Clock> = config.clock.clone().unwrap_or_else(RealClock::shared);
        let (persist, recovery) = match &config.persist {
            Some(pc) => {
                let (p, r) = match &config.storage {
                    Some(fs) => Persist::open_on(Arc::clone(fs), pc)?,
                    None => Persist::open(pc)?,
                };
                (Some(p), Some(r))
            }
            None => (None, None),
        };
        if config.profile_spans {
            columba_obs::set_enabled(true);
        }
        let inner = Arc::new(Inner {
            epoch: clock.now(),
            clock: Arc::clone(&clock),
            columba: Columba::with_options(config.options.clone()),
            options_canon: config.options.canonical_text(),
            schedule_options: config.schedule,
            schedule_canon: config.schedule.canonical_text(),
            queue_capacity: [
                config.queue_capacity.max(1),
                config.bulk_queue_capacity.max(1),
            ],
            job_deadline: config.job_deadline,
            max_records: config.max_records.max(1),
            worker_count,
            state: Mutex::new(State {
                queues: [VecDeque::new(), VecDeque::new()],
                jobs: HashMap::new(),
                next_id: 1,
                reserved: [0, 0],
                batches: BTreeMap::new(),
                next_batch_id: 1,
                claims: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            cache: Mutex::new(DesignCache::new(config.cache)),
            agg: Mutex::new(SolveStats::default()),
            trace_sink: config.trace,
            ring: RingSink::new(config.trace_ring),
            persist,
            supervisor: PersistSupervisor::new(config.breaker, 0x0c01_7b5a, Arc::clone(&clock)),
            ready: Mutex::new(recovery.is_none()),
            ready_cv: Condvar::new(),
            events_seq: Mutex::new(0),
            events_cv: Condvar::new(),
            tick: Mutex::new(()),
            tick_cv: Condvar::new(),
            watchdog_grace: config.watchdog_grace,
            rejected: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            batches_submitted: AtomicU64::new(0),
            batch_members: AtomicU64::new(0),
            batch_dedup_hits: AtomicU64::new(0),
            drc_rejected: AtomicU64::new(0),
            assay_jobs: AtomicU64::new(0),
            storage_ops_inserted: AtomicU64::new(0),
            counts: Default::default(),
            profile_spans: config.profile_spans,
            profile_capacity: config.profile_capacity.max(64),
            profile_dropped: AtomicU64::new(0),
            solve_hist: Histogram::new(),
            http_hist: Histogram::new(),
            http_counts: Mutex::new(BTreeMap::new()),
            worker_busy_ns: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            http_recorder: SpanRecorder::new(2048),
            slo: Mutex::new(SloEngine::new(config.slos.clone())),
            traces_sampled_out: AtomicU64::new(0),
            trace_keep_slow: config.trace_keep_slow,
            trace_head_sample: config.trace_head_sample.max(1),
            solve_exemplars: Mutex::new(BTreeMap::new()),
        });
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(worker_count + 2);
        // Reserve a sim-clock party slot for every thread about to be
        // spawned — all of them, before any spawn — so virtual time
        // cannot advance while part of the pool is still starting up.
        for _ in 0..(worker_count + 1 + usize::from(recovery.is_some())) {
            clock.party_reserve();
        }
        // Recovery runs off-thread so the constructor returns immediately
        // and `/healthz` can report 503-not-ready while the replay is
        // still re-enqueueing jobs. Workers and submissions block on the
        // ready flag, so recovered queue order is still preserved.
        if let Some(recovery) = recovery {
            let inner = Arc::clone(&inner);
            let throttle = config.replay_throttle;
            handles.push(
                thread::Builder::new()
                    .name("columba-recovery".into())
                    .spawn(move || {
                        let _party = ClockParty::adopt(&inner.clock);
                        apply_recovery(&inner, recovery, throttle);
                        *lock(&inner.ready) = true;
                        inner.clock.mark_wake();
                        inner.ready_cv.notify_all();
                    })
                    .expect("spawning the recovery thread"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            handles.push(
                thread::Builder::new()
                    .name("columba-supervisor".into())
                    .spawn(move || supervisor_loop(&inner))
                    .expect("spawning the supervisor thread"),
            );
        }
        for i in 0..worker_count {
            let inner = Arc::clone(&inner);
            handles.push(
                thread::Builder::new()
                    .name(format!("columba-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawning a worker thread"),
            );
        }
        Ok(Service {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// The worker pool size.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.inner.worker_count
    }

    /// Submits a netlist (plain-text format) for synthesis.
    ///
    /// Admission control is immediate: the call never blocks on the
    /// queue. Parsing happens on the worker, so a malformed netlist is
    /// admitted and then fails its job with the parse error.
    ///
    /// With persistence on, a `submitted` journal record is made durable
    /// (written and, under the default fsync policy, fsynced) *before*
    /// this call returns the id — an acked submission survives a crash.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after [`Service::shutdown`],
    /// [`SubmitError::Persist`] when the journal append failed (the job
    /// was not admitted).
    pub fn submit_text(&self, text: impl Into<String>) -> Result<JobId, SubmitError> {
        self.submit_text_as(text, QosClass::Interactive)
    }

    /// [`Service::submit_text`] under an explicit [`QosClass`]. The two
    /// classes have separate admission budgets and queues; workers prefer
    /// the interactive queue with a periodic bulk pick.
    ///
    /// # Errors
    ///
    /// As [`Service::submit_text`]; `QueueFull` is judged against the
    /// class's own capacity.
    pub fn submit_text_as(
        &self,
        text: impl Into<String>,
        class: QosClass,
    ) -> Result<JobId, SubmitError> {
        let text: Arc<String> = Arc::new(text.into());
        let inner = &self.inner;
        inner.wait_ready();
        inner.trace(None, TraceKind::Received, format!("{} bytes", text.len()));
        let (_, ids) = inner.admit(class, vec![text], None)?;
        Ok(JobId(ids[0]))
    }

    /// Submits many netlists as one batch group under `class`
    /// ([`QosClass::Bulk`] for `POST /batch`). Admission is atomic: either
    /// every member is admitted or none is.
    ///
    /// Members are deduplicated before any solve runs: each parseable
    /// netlist is canonicalized and keyed exactly like the design cache
    /// (the canonical record behind [`ContentKey`]), so identical members
    /// collapse onto one job and read the same [`CompletedDesign`]
    /// byte-for-byte. Unparseable members dedup by their raw text (they
    /// fail identically anyway). Only the *unique* members count against
    /// the class's admission budget.
    ///
    /// With persistence on, every unique member's `submitted` record and
    /// one `batch` group record are journaled before the ack.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the unique members do not fit the
    /// class's budget, [`SubmitError::ShuttingDown`],
    /// [`SubmitError::Persist`] when journaling failed (nothing was
    /// admitted). An empty batch is rejected as `QueueFull` with depth 0
    /// and capacity 0 — there is nothing to admit.
    pub fn submit_batch(
        &self,
        texts: &[String],
        class: QosClass,
    ) -> Result<(BatchId, Vec<JobId>), SubmitError> {
        let inner = &self.inner;
        inner.wait_ready();
        if texts.is_empty() {
            return Err(SubmitError::QueueFull {
                depth: 0,
                capacity: 0,
            });
        }
        inner.trace(
            None,
            TraceKind::Received,
            format!(
                "batch of {} members, {} bytes",
                texts.len(),
                texts.iter().map(String::len).sum::<usize>()
            ),
        );
        // Dedup members through the cache's canonical-record path before
        // admission, so duplicates never consume queue slots or solves.
        let mut unique: Vec<Arc<String>> = Vec::new();
        let mut member_of: Vec<usize> = Vec::with_capacity(texts.len());
        {
            let mut seen: HashMap<String, usize> = HashMap::new();
            for text in texts {
                let dedup_key = match Netlist::parse(text) {
                    Ok(n) => cache_record(&n.canonical_text(), &inner.options_canon),
                    // unparseable members fail identically; dedup on the
                    // raw text so they still collapse
                    Err(_) => format!("!{text}"),
                };
                let slot = *seen.entry(dedup_key).or_insert_with(|| {
                    unique.push(Arc::new(text.clone()));
                    unique.len() - 1
                });
                member_of.push(slot);
            }
        }
        inner
            .batch_members
            .fetch_add(texts.len() as u64, Ordering::Relaxed);
        inner
            .batch_dedup_hits
            .fetch_add((texts.len() - unique.len()) as u64, Ordering::Relaxed);
        let (Some(batch_id), members) = inner.admit(class, unique, Some(&member_of))? else {
            unreachable!("a batch admission returns its group id");
        };
        Ok((BatchId(batch_id), members.into_iter().map(JobId).collect()))
    }

    /// A point-in-time snapshot of one batch group, `None` for an
    /// unknown (or pruned) id.
    #[must_use]
    pub fn batch_status(&self, id: BatchId) -> Option<BatchStatus> {
        self.inner.wait_ready();
        let st = lock(&self.inner.state);
        let batch = st.batches.get(&id.0)?;
        Some(batch_snapshot(id, batch, &st.jobs))
    }

    /// Blocks until every member of the batch is terminal or `timeout`
    /// passes; returns the final snapshot either way (`None` for an
    /// unknown id).
    #[must_use]
    pub fn wait_batch(&self, id: BatchId, timeout: Duration) -> Option<BatchStatus> {
        self.inner.wait_until(timeout, |st| {
            let snap = batch_snapshot(id, st.batches.get(&id.0)?, &st.jobs);
            let terminal = snap.is_terminal();
            Some((snap, terminal))
        })
    }

    /// The lifecycle trace events of one job, oldest first — the data
    /// behind `GET /jobs/<id>/events` (SSE). `None` for a job the
    /// service has never seen.
    #[must_use]
    pub fn job_events(&self, id: JobId) -> Option<Vec<TraceEvent>> {
        self.inner.wait_ready();
        let known = lock(&self.inner.state).jobs.contains_key(&id.0);
        let events = self.inner.ring.job_events(id.0);
        if !known && events.is_none() {
            return None;
        }
        Some(events.unwrap_or_default())
    }

    /// The monotone count of lifecycle trace events recorded so far.
    /// Together with [`Service::wait_events`] this is the condvar the
    /// SSE streams block on instead of fixed-interval polling.
    #[must_use]
    pub fn events_seq(&self) -> u64 {
        *lock(&self.inner.events_seq)
    }

    /// Blocks until the event counter moves past `seen`, shutdown
    /// begins, or `timeout` passes — whichever comes first — and returns
    /// the current counter. One bounded wait, not a loop: callers
    /// re-check their own predicate (new events for *their* job, their
    /// heartbeat deadline) and call again.
    #[must_use]
    pub fn wait_events(&self, seen: u64, timeout: Duration) -> u64 {
        let seq = lock(&self.inner.events_seq);
        if *seq != seen || self.inner.shutting_down.load(Ordering::Acquire) {
            return *seq;
        }
        let (seq, _) = clock_wait(&*self.inner.clock, &self.inner.events_cv, seq, timeout);
        *seq
    }

    /// The time source the service runs on — the HTTP front end shares
    /// it so request deadlines and SSE heartbeats tick on the same
    /// (possibly simulated) clock.
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// Whether shutdown has begun. Streaming handlers poll this so an
    /// SSE loop ends promptly instead of waiting out its deadline.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::Acquire)
    }

    /// A point-in-time snapshot of one job, `None` for an unknown (or
    /// pruned) id.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.wait_ready();
        let st = lock(&self.inner.state);
        st.jobs.get(&id.0).map(JobRecord::snapshot)
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// passes; returns the final snapshot either way (`None` for an
    /// unknown id).
    #[must_use]
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        self.inner.wait_until(timeout, |st| {
            let r = st.jobs.get(&id.0)?;
            Some((r.snapshot(), r.state().is_terminal()))
        })
    }

    /// Requests cancellation. A queued job becomes `Cancelled`
    /// immediately; a running job's [`CancelToken`] fires, the resilience
    /// ladder winds down cooperatively, and the job lands in `Cancelled`
    /// (with the best incumbent attached when one exists). Returns `false`
    /// for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let inner = &self.inner;
        inner.wait_ready();
        let mut st = lock(&inner.state);
        let Some(r) = st.jobs.get_mut(&id.0) else {
            return false;
        };
        let class = r.class();
        let Some(fx) = inner.step(r, Event::Cancel(Canceller::Client)) else {
            return false;
        };
        if fx.terminal {
            st.queues[class.idx()].retain(|&q| q != id.0);
        }
        drop(st);
        inner.apply(fx);
        true
    }

    /// Returns the finished design for a CAD export and records the
    /// `exported` trace event.
    ///
    /// # Errors
    ///
    /// [`ExportError::NotFound`] for an unknown id, [`ExportError::NotReady`]
    /// when the job has no design.
    pub fn export(&self, id: JobId, kind: ExportKind) -> Result<Arc<CompletedDesign>, ExportError> {
        self.inner.wait_ready();
        let design = {
            let st = lock(&self.inner.state);
            let r = st.jobs.get(&id.0).ok_or(ExportError::NotFound)?;
            r.design()
                .cloned()
                .ok_or(ExportError::NotReady(r.state()))?
        };
        let what = match kind {
            ExportKind::Svg => "svg",
            ExportKind::Scr => "scr",
        };
        self.inner.trace(Some(id.0), TraceKind::Exported, what);
        Ok(design)
    }

    /// The liveness/readiness report behind `GET /healthz`. Unlike every
    /// other accessor this does NOT block on startup recovery —
    /// reporting "not ready yet" during the replay is its job.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        let inner = &self.inner;
        let recovering = !*lock(&inner.ready);
        let shutting_down = inner.shutting_down.load(Ordering::Acquire);
        let (queue_depth_interactive, queue_depth_bulk, jobs_running) = {
            let st = lock(&inner.state);
            (
                st.depth(QosClass::Interactive),
                st.depth(QosClass::Bulk),
                st.count(JobState::Running),
            )
        };
        let breaker = inner.supervisor.state();
        HealthReport {
            ready: !recovering && !shutting_down,
            recovering,
            shutting_down,
            breaker,
            degraded: breaker != BreakerState::Closed,
            queue_depth_interactive,
            queue_depth_bulk,
            jobs_running,
            workers: inner.worker_count,
            watchdog_cancels: inner.count(Counter::WatchdogCancels),
        }
    }

    /// Current counters for `/metrics`.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        inner.wait_ready();
        let (queue_depths, batches_live, jobs_queued, jobs_running) = {
            let st = lock(&inner.state);
            (
                [st.queues[0].len(), st.queues[1].len()],
                st.batches.len(),
                st.count(JobState::Queued),
                st.count(JobState::Running),
            )
        };
        let (replayed, corrupt_journal, files_loaded, corrupt_cache, compactions, persist_errors) =
            match &inner.persist {
                Some(p) => (
                    p.journal_records_replayed,
                    p.journal_corrupt_skipped,
                    p.cache_files_loaded,
                    p.cache_corrupt_dropped,
                    p.compactions(),
                    p.error_count(),
                ),
                None => (0, 0, 0, 0, 0, 0),
            };
        let uptime = inner.clock.now().saturating_sub(inner.epoch);
        let uptime_ns = uptime.as_nanos().max(1);
        let worker_busy = inner
            .worker_busy_ns
            .iter()
            .map(|ns| {
                #[allow(clippy::cast_precision_loss)]
                let frac = u128::from(ns.load(Ordering::Relaxed)) as f64 / uptime_ns as f64;
                frac.min(1.0)
            })
            .collect();
        let http_by_route = lock(&inner.http_counts)
            .iter()
            .map(|(&(route, status), &count)| (route.to_string(), status, count))
            .collect();
        MetricsSnapshot {
            cache: lock(&inner.cache).stats(),
            queue_depth: queue_depths[0] + queue_depths[1],
            queue_depth_interactive: queue_depths[0],
            queue_depth_bulk: queue_depths[1],
            queue_capacity: inner.queue_capacity[0],
            bulk_queue_capacity: inner.queue_capacity[1],
            batches_submitted: inner.batches_submitted.load(Ordering::Relaxed),
            batch_members: inner.batch_members.load(Ordering::Relaxed),
            batch_dedup_hits: inner.batch_dedup_hits.load(Ordering::Relaxed),
            batches_live,
            rejected: inner.rejected.load(Ordering::Relaxed),
            jobs_queued,
            jobs_running,
            jobs_done: usize::try_from(inner.count(Counter::Done)).unwrap_or(0),
            jobs_failed: usize::try_from(inner.count(Counter::Failed)).unwrap_or(0),
            jobs_cancelled: usize::try_from(inner.count(Counter::Cancelled)).unwrap_or(0),
            worker_panics: inner.panics.load(Ordering::Relaxed),
            workers: inner.worker_count,
            drc_rejected: inner.drc_rejected.load(Ordering::Relaxed),
            assay_jobs: inner.assay_jobs.load(Ordering::Relaxed),
            storage_ops_inserted: inner.storage_ops_inserted.load(Ordering::Relaxed),
            journal_records_replayed: replayed,
            journal_corrupt_skipped: corrupt_journal,
            cache_files_loaded: files_loaded,
            cache_corrupt_dropped: corrupt_cache,
            compactions,
            persist_errors,
            persist_retries: inner.supervisor.retries(),
            breaker_trips: inner.supervisor.trips(),
            breaker_state: inner.supervisor.state().as_gauge(),
            degraded_seconds: inner.supervisor.degraded_time().as_secs_f64(),
            watchdog_cancels: inner.count(Counter::WatchdogCancels),
            solve: lock(&inner.agg).clone(),
            uptime,
            worker_busy,
            trace_events_evicted: inner.ring.evicted(),
            profile_events_dropped: inner.profile_dropped.load(Ordering::Relaxed)
                + inner.http_recorder.evicted(),
            solve_hist: inner.solve_hist.snapshot(),
            http_hist: inner.http_hist.snapshot(),
            http_by_route,
            traces_sampled_out: inner.traces_sampled_out.load(Ordering::Relaxed),
            slo_alerts_fired: lock(&inner.slo).alerts_fired(),
            alloc: columba_obs::alloc::stats(),
            solve_exemplars: lock(&inner.solve_exemplars)
                .iter()
                .map(|(&bucket, &(job, secs))| (bucket, job, secs))
                .collect(),
        }
    }

    /// The lifecycle trace of one job as JSON Lines (one event per
    /// line, oldest first — the schema of [`TraceEvent::to_jsonl`]),
    /// served by `GET /jobs/<id>/trace`. `None` for a job the service
    /// has never seen; an admitted job with an evicted or empty ring
    /// renders as an empty document.
    #[must_use]
    pub fn job_trace(&self, id: JobId) -> Option<String> {
        let events = self.job_events(id)?;
        Some(events.iter().map(|e| e.to_jsonl() + "\n").collect())
    }

    /// The captured solver/layout span profile of one finished job as a
    /// Chrome trace-event JSON document (loadable in `chrome://tracing`
    /// and Perfetto), served by `GET /jobs/<id>/profile`.
    ///
    /// # Errors
    ///
    /// [`ProfileError::NotFound`] for an unknown id,
    /// [`ProfileError::NotReady`] while the job is queued or running,
    /// [`ProfileError::Disabled`] when the job finished without a
    /// recorded profile (profiling was off).
    pub fn job_profile(&self, id: JobId) -> Result<String, ProfileError> {
        self.inner.wait_ready();
        let (state, profile) = {
            let st = lock(&self.inner.state);
            let r = st.jobs.get(&id.0).ok_or(ProfileError::NotFound)?;
            (r.state(), r.profile().cloned())
        };
        match profile {
            Some(events) => Ok(columba_obs::chrome_trace(&events)),
            None if state.is_terminal() => Err(ProfileError::Disabled),
            None => Err(ProfileError::NotReady(state)),
        }
    }

    /// The service-level span profile — recent HTTP request spans — as a
    /// Chrome trace-event JSON document, served by `GET /profile`.
    #[must_use]
    pub fn http_profile(&self) -> String {
        columba_obs::chrome_trace(&self.inner.http_recorder.finished())
    }

    /// Installs the service-level HTTP span recorder on the calling
    /// thread; the front end holds the guard for the life of one
    /// connection so its `http.request` span lands in [`Service::http_profile`].
    #[must_use]
    pub fn attach_http_recorder(&self) -> RecorderGuard {
        self.inner.http_recorder.install()
    }

    /// Records one served HTTP request: latency into the request
    /// histogram, and one count under the `(route label, status)` pair.
    /// Route labels are static strings (`"POST /synthesize"`,
    /// `"GET /jobs/{id}"`, ...) so metric cardinality stays bounded no
    /// matter what paths clients send.
    pub fn observe_http(&self, route: &'static str, status: u16, elapsed: Duration) {
        self.inner.http_hist.record(elapsed);
        *lock(&self.inner.http_counts)
            .entry((route, status))
            .or_insert(0) += 1;
        // Feed the availability and HTTP-latency SLOs. `/healthz` is
        // exempt: answering 503 while not ready is its contract, not an
        // availability failure.
        if route != "GET /healthz" {
            let now = self.inner.clock.now().saturating_sub(self.inner.epoch);
            let mut slo = lock(&self.inner.slo);
            slo.observe(SLO_AVAILABILITY, route, now, status < 500);
            slo.observe_latency(SLO_HTTP_LATENCY, route, now, elapsed);
        }
    }

    /// Evaluates every SLO tracker now and returns the snapshot served
    /// as JSON by `GET /slo`. Burn/alert transitions that happen during
    /// the evaluation are traced (`slo_burn` / `slo_alert`), exactly as
    /// the supervisor tick would have.
    #[must_use]
    pub fn slo_snapshot(&self) -> SloSnapshot {
        let inner = &self.inner;
        inner.wait_ready();
        let now = inner.clock.now().saturating_sub(inner.epoch);
        let (snapshot, transitions) = lock(&inner.slo).evaluate(now);
        trace_slo_transitions(inner, &transitions);
        snapshot
    }

    /// The current submission-queue depth (admitted jobs waiting for a
    /// worker, plus reservations in flight). Cheaper than
    /// [`Service::metrics`] for callers that only need backpressure
    /// context, like the HTTP front end computing `Retry-After`.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.wait_ready();
        let st = lock(&self.inner.state);
        st.depth(QosClass::Interactive) + st.depth(QosClass::Bulk)
    }

    /// Graceful shutdown: stops admitting, cancels every queued and
    /// in-flight job through its [`CancelToken`], joins all workers, and
    /// flushes the trace sink. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        if inner.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake anything blocked on the ready flag (workers, submissions,
        // queries during a recovery replay), the supervisor tick, and
        // event-stream waiters, so they all observe the shutdown.
        inner.clock.mark_wake();
        inner.ready_cv.notify_all();
        inner.tick_cv.notify_all();
        inner.events_cv.notify_all();
        drain_for_shutdown(inner);
        inner.clock.mark_wake();
        inner.work.notify_all();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        // Joining sim threads from a sim party pins virtual time (a join
        // is invisible to the clock); suspend so a joined worker can
        // finish a clock sleep (persist retry backoff, say).
        let suspend = ClockSuspend::new(&inner.clock);
        for h in handles {
            let _ = h.join();
        }
        drop(suspend);
        // Drain again after the join: a job that landed after the first
        // drain (re-enqueued by a recovery replay that was still running)
        // would otherwise stay `Queued` forever and block its waiters.
        drain_for_shutdown(inner);
        inner.trace(None, TraceKind::Shutdown, "");
        inner.trace_sink.flush();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shutdown's drain, in id order: every queued job ends `Cancelled` and
/// every running job's token fires (see [`Canceller::Shutdown`]).
fn drain_for_shutdown(inner: &Inner) {
    let mut guard = lock(&inner.state);
    let st = &mut *guard;
    st.queues.iter_mut().for_each(VecDeque::clear);
    let mut live: Vec<(&u64, &mut JobRecord)> = st
        .jobs
        .iter_mut()
        .filter(|(_, r)| !r.state().is_terminal())
        .collect();
    live.sort_unstable_by_key(|&(&id, _)| id);
    let drained: Vec<Effects> = live
        .into_iter()
        .filter_map(|(_, r)| inner.step(r, Event::Cancel(Canceller::Shutdown)))
        .collect();
    drop(guard);
    for fx in drained {
        inner.apply(fx);
    }
}

/// Assembles the client-facing snapshot of one batch from the job table.
fn batch_snapshot(id: BatchId, batch: &BatchRecord, jobs: &HashMap<u64, JobRecord>) -> BatchStatus {
    BatchStatus {
        id,
        class: batch.class,
        members: batch
            .members
            .iter()
            .enumerate()
            .map(|(index, &job)| MemberStatus {
                index,
                job: JobId(job),
                status: jobs.get(&job).map(JobRecord::snapshot),
            })
            .collect(),
    }
}

/// Drops the oldest fully-terminal batch groups beyond `max_batches`.
/// A batch with any non-terminal member is never dropped; ids are
/// monotonic, so iteration order of the `BTreeMap` is age order.
fn prune_batches(st: &mut State, max_batches: usize) {
    if st.batches.len() <= max_batches {
        return;
    }
    let excess = st.batches.len() - max_batches;
    let removable: Vec<u64> = st
        .batches
        .iter()
        .filter(|(_, b)| {
            b.members
                .iter()
                .all(|m| st.jobs.get(m).is_none_or(|r| r.state().is_terminal()))
        })
        .map(|(&id, _)| id)
        .take(excess)
        .collect();
    for id in removable {
        st.batches.remove(&id);
    }
}

/// Drops the oldest terminal job records beyond `max_records`, returning
/// the dropped ids so side tables (the trace rings) can forget them too.
/// Ids are monotonic, so "oldest" is "smallest id". Jobs referenced by a
/// retained batch group are kept so `GET /batch/<id>` member statuses
/// stay resolvable until the group itself is pruned.
fn prune_records(st: &mut State, max_records: usize) -> Vec<u64> {
    if st.jobs.len() <= max_records {
        return Vec::new();
    }
    let referenced: std::collections::HashSet<u64> = st
        .batches
        .values()
        .flat_map(|b| b.members.iter().copied())
        .collect();
    let mut terminal: Vec<u64> = st
        .jobs
        .iter()
        .filter(|(id, r)| r.state().is_terminal() && !referenced.contains(id))
        .map(|(&id, _)| id)
        .collect();
    terminal.sort_unstable();
    let excess = st.jobs.len() - max_records;
    terminal.truncate(excess);
    for id in &terminal {
        st.jobs.remove(id);
    }
    terminal
}

/// Applies recovered persistent state before the first worker runs: warms
/// the in-memory cache from the verified disk cache, folds the journal
/// into final per-job states, re-enqueues live jobs in submission order
/// (ids are monotonic, so id order *is* submission order), restores
/// terminal job records for status queries, and traces every corruption
/// the persist layer skipped.
fn apply_recovery(inner: &Inner, recovery: Recovery, throttle: Option<Duration>) {
    for note in recovery
        .replay
        .notes
        .iter()
        .chain(recovery.cache.notes.iter())
    {
        inner.trace(None, TraceKind::Corrupt, note.clone());
    }
    // Warm the cache first, so the fold resolves `completed` keys to
    // their recovered designs. Workers have not been spawned yet.
    {
        let mut cache = lock(&inner.cache);
        for stored in &recovery.cache.designs {
            let cost = entry_cost(&stored.design, &stored.canon);
            cache.insert(
                stored.key,
                Arc::clone(&stored.design),
                stored.canon.clone(),
                cost,
            );
        }
    }
    let replayed_good = recovery.replay.records.len();
    let mut folded: BTreeMap<u64, Folded> = BTreeMap::new();
    let mut texts: HashMap<u64, Arc<String>> = HashMap::new();
    let mut classes: HashMap<u64, QosClass> = HashMap::new();
    let mut batches: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for record in recovery.replay.records {
        if let Some(pause) = throttle {
            // Test hook: stretch the replay so the not-ready window is
            // observable. Shutdown aborts the stretch, not the replay —
            // the tick condvar is signaled when the flag flips, so the
            // remaining records apply immediately and the flag flip
            // never leaves half-applied state behind.
            if !inner.shutting_down.load(Ordering::Acquire) {
                let tick = lock(&inner.tick);
                let _ = clock_wait(&*inner.clock, &inner.tick_cv, tick, pause);
            }
        }
        match record {
            JournalRecord::Submitted { id, class, text } => {
                texts.insert(id, text);
                classes.insert(id, class);
                folded.insert(id, Folded::Live);
            }
            JournalRecord::Started { id } => {
                // advisory; but a started record with no submitted record
                // means the submission was lost to corruption — there is
                // nothing to re-enqueue
                if !folded.contains_key(&id) {
                    inner.trace(
                        Some(id),
                        TraceKind::Corrupt,
                        "started record without a submitted record; job unrecoverable",
                    );
                }
            }
            JournalRecord::Completed { id, key, rung } => {
                // a dropped (corrupt/evicted) design file leaves the job
                // Done with no exportable design
                let design = key.and_then(|k| lock(&inner.cache).peek_key(k));
                folded.insert(id, Folded::Done { design, rung });
            }
            JournalRecord::Failed { id, error } => {
                folded.insert(id, Folded::Failed(error));
            }
            JournalRecord::Cancelled { id } => {
                folded.insert(id, Folded::Cancelled);
            }
            JournalRecord::Batch { id, members } => {
                batches.insert(id, members);
            }
            JournalRecord::Resync { dropped } => {
                inner.trace(
                    None,
                    TraceKind::Resync,
                    format!(
                        "journal has a resync point: {dropped} persist \
                         writes were skipped while degraded before it"
                    ),
                );
            }
        }
    }
    let mut requeued: Vec<u64> = Vec::new();
    let mut restored_terminal = 0usize;
    let restored_batches;
    {
        let mut st = lock(&inner.state);
        for (id, folded) in folded {
            st.next_id = st.next_id.max(id + 1);
            let class = classes.get(&id).copied().unwrap_or_default();
            let text = texts.get(&id).cloned().unwrap_or_default();
            // it came out of the journal, so it is in the journal
            let mut r = JobRecord::new(id, class, text, inner.job_token(), true);
            let _ = transition(&mut r, Event::Restore(folded));
            if r.state() == JobState::Queued {
                st.queues[class.idx()].push_back(id);
                requeued.push(id);
            } else {
                restored_terminal += 1;
            }
            st.jobs.insert(id, r);
        }
        for (id, members) in batches {
            st.next_batch_id = st.next_batch_id.max(id + 1);
            // the group's class is its members' class; a batch whose
            // every member was lost to corruption defaults to bulk
            let class = members
                .iter()
                .find_map(|m| classes.get(m).copied())
                .unwrap_or(QosClass::Bulk);
            st.batches.insert(id, BatchRecord { class, members });
        }
        restored_batches = st.batches.len();
        prune_batches(&mut st, inner.max_records);
        let pruned = prune_records(&mut st, inner.max_records);
        inner.ring.forget(&pruned);
    }
    for &id in &requeued {
        inner.trace(Some(id), TraceKind::Recovery, "re-enqueued after restart");
    }
    inner.trace(
        None,
        TraceKind::Recovery,
        format!(
            "replayed {} journal records ({} corrupt skipped), \
             loaded {} cached designs ({} corrupt dropped), \
             re-enqueued {} jobs, restored {} terminal records, \
             restored {} batch groups",
            replayed_good,
            recovery.replay.corrupt,
            recovery.cache.designs.len(),
            recovery.cache.dropped,
            requeued.len(),
            restored_terminal,
            restored_batches,
        ),
    );
}

/// The supervisor thread: a ~50 ms tick running the stuck-job watchdog
/// and, when the persist breaker is open, the half-open probe that heals
/// it. Exits at shutdown (promptly — the tick condvar is signaled, not
/// waited out).
fn supervisor_loop(inner: &Arc<Inner>) {
    let _party = ClockParty::adopt(&inner.clock);
    while !inner.shutting_down.load(Ordering::Acquire) {
        let tick = lock(&inner.tick);
        let _ = clock_wait(
            &*inner.clock,
            &inner.tick_cv,
            tick,
            Duration::from_millis(50),
        );
        if inner.shutting_down.load(Ordering::Acquire) {
            return;
        }
        watchdog_sweep(inner);
        probe_persist(inner);
        slo_sweep(inner);
    }
}

/// Evaluates the SLO engine at the current clock reading and traces any
/// burn-threshold or alert transitions. Runs every supervisor tick so
/// alerts fire (and clear) even when nobody is polling `GET /slo`.
fn slo_sweep(inner: &Inner) {
    let now = inner.clock.now().saturating_sub(inner.epoch);
    let transitions = lock(&inner.slo).evaluate(now).1;
    trace_slo_transitions(inner, &transitions);
}

/// Turns SLO engine transitions into lifecycle trace events: burn
/// windows crossing their threshold become `slo_burn`, the two-window
/// page rule firing or clearing becomes `slo_alert`.
fn trace_slo_transitions(inner: &Inner, transitions: &[SloTransition]) {
    for t in transitions {
        let (kind, detail) = match t.what {
            "alert_fire" => (
                TraceKind::SloAlert,
                format!("{}/{}: page fired (5m burn {:.2})", t.slo, t.label, t.burn),
            ),
            "alert_clear" => (
                TraceKind::SloAlert,
                format!("{}/{}: page cleared", t.slo, t.label),
            ),
            "burn_high" => (
                TraceKind::SloBurn,
                format!(
                    "{}/{}: {} burn {:.2} over threshold",
                    t.slo, t.label, t.window, t.burn
                ),
            ),
            _ => (
                TraceKind::SloBurn,
                format!(
                    "{}/{}: {} burn {:.2} back under threshold",
                    t.slo, t.label, t.window, t.burn
                ),
            ),
        };
        inner.trace(None, kind, detail);
    }
}

/// Cancels running jobs that have outlived deadline + grace. The
/// deadline token normally fires on its own and the ladder winds down
/// cooperatively; the watchdog is the backstop for a solve that ignored
/// it: [`Canceller::Watchdog`] re-fires the token and marks the job
/// cancel-requested so it finishes as `Cancelled`, once per job.
fn watchdog_sweep(inner: &Inner) {
    let Some(deadline) = inner.job_deadline else {
        return;
    };
    let limit = deadline + inner.watchdog_grace;
    let now = inner.clock.now();
    let fired: Vec<Effects> = lock(&inner.state)
        .jobs
        .values_mut()
        .filter(|r| {
            r.started_at()
                .is_some_and(|t0| now.saturating_sub(t0) > limit)
        })
        .filter_map(|r| inner.step(r, Event::Cancel(Canceller::Watchdog)))
        .collect();
    for staged in fired {
        inner.apply(staged);
    }
}

/// When the breaker is open and its probe interval has passed, sends the
/// single half-open probe write — the `resync` journal record itself, so
/// a successful probe leaves the degraded-mode marker in the journal. On
/// success the breaker closes and the live volatile jobs are
/// re-journaled; on failure the breaker re-opens and the clock restarts.
fn probe_persist(inner: &Inner) {
    let Some(persist) = &inner.persist else {
        return;
    };
    let sup = &inner.supervisor;
    if !sup.probe_due() || !sup.begin_probe() {
        return;
    }
    let dropped = sup.skipped();
    match persist.append(&JournalRecord::Resync { dropped }) {
        Ok(_) => {
            let skipped = sup.close();
            inner.trace(
                None,
                TraceKind::Resync,
                format!("{skipped} persist writes were skipped while degraded"),
            );
            rejournal_volatile(inner, persist);
            inner.trace(
                None,
                TraceKind::BreakerClosed,
                "probe write succeeded; journaling resumed",
            );
        }
        Err(e) => {
            sup.probe_failed();
            inner.trace(
                None,
                TraceKind::PersistError,
                format!("probe write failed; breaker stays open: {e}"),
            );
        }
    }
}

/// Re-journals every live volatile job after the breaker closes, marking
/// each durable again. Terminal volatile jobs stay volatile: they are
/// results, not obligations, and losing them in a crash is the
/// documented cost of having served through the outage.
fn rejournal_volatile(inner: &Inner, persist: &Persist) {
    let live: Vec<(u64, QosClass, Arc<String>)> = {
        let st = lock(&inner.state);
        st.jobs
            .iter()
            .filter(|(_, r)| !r.durable() && !r.state().is_terminal())
            .map(|(&id, r)| (id, r.class(), Arc::clone(&r.text)))
            .collect()
    };
    let mut healed = Vec::new();
    for (id, class, text) in live {
        match persist.append(&JournalRecord::Submitted { id, class, text }) {
            Ok(_) => healed.push(id),
            Err(e) => inner.trace(
                Some(id),
                TraceKind::PersistError,
                format!("re-journal after heal failed: {e}"),
            ),
        }
    }
    let mut st = lock(&inner.state);
    for id in &healed {
        if let Some(r) = st.jobs.get_mut(id) {
            r.make_durable();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    let _party = ClockParty::adopt(&inner.clock);
    // Never claim before startup recovery finishes: recovered queue
    // order is part of the durability contract.
    inner.wait_ready();
    loop {
        let claimed = {
            let mut st = lock(&inner.state);
            loop {
                // Interactive-first, with every fourth claim preferring
                // bulk so a steady interactive stream cannot starve bulk
                // work outright.
                let order = if st.claims % 4 == 3 { [1, 0] } else { [0, 1] };
                let next = order.into_iter().find_map(|i| st.queues[i].pop_front());
                if let Some(id) = next {
                    st.claims += 1;
                    // cancel() removes queued ids, but double-check: only
                    // a still-Queued record runs
                    let Some(r) = st.jobs.get_mut(&id) else {
                        continue;
                    };
                    let now = inner.clock.now();
                    let Some(started) = inner.step(r, Event::Claim { now }) else {
                        continue;
                    };
                    break Some((id, Arc::clone(&r.text), r.token.clone(), started));
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                let (g, _) = clock_wait(&*inner.clock, &inner.work, st, Duration::from_millis(100));
                st = g;
            }
        };
        let Some((id, text, token, started)) = claimed else {
            return;
        };
        // The `started` journal record is advisory: recovery re-enqueues a
        // started-but-unfinished job either way, so losing it is harmless.
        inner.apply(started);
        let t0 = inner.clock.now();
        // Watermark the tracking allocator so the job's peak live bytes
        // on this thread (solver arenas included) land in its status.
        let alloc_mark = columba_obs::alloc::thread_mark();
        // Each job gets its own bounded span recorder: the worker thread
        // installs it, opens the "job" root span, and everything the
        // solver and layout stack record while the job runs nests under
        // it (including B&B worker threads, which attach the context
        // across the scope boundary). The finished events become the
        // job's `/profile`.
        let recorder = inner
            .profile_spans
            .then(|| SpanRecorder::new(inner.profile_capacity));
        let end = {
            let _rec = recorder.as_ref().map(SpanRecorder::install);
            let mut job_span = columba_obs::span("job");
            let end = match catch_unwind(AssertUnwindSafe(|| run_job(inner, id, &text, &token))) {
                Ok(end) => end,
                Err(_) => {
                    inner.panics.fetch_add(1, Ordering::Relaxed);
                    JobEnd::Failed("worker panicked during synthesis (contained)".into())
                }
            };
            if job_span.is_recording() {
                job_span.attr("id", id);
                job_span.attr(
                    "outcome",
                    match &end {
                        JobEnd::Done {
                            from_cache: true, ..
                        } => "cache_hit",
                        JobEnd::Done { .. } => "done",
                        JobEnd::Failed(_) => "failed",
                    },
                );
            }
            end
        };
        let elapsed = inner.clock.now().saturating_sub(t0);
        let peak_alloc = columba_obs::alloc::tracking_enabled()
            .then(|| columba_obs::alloc::thread_peak_since(alloc_mark));
        inner.worker_busy_ns[index].fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let profile = recorder.map(|rec| {
            inner
                .profile_dropped
                .fetch_add(rec.evicted(), Ordering::Relaxed);
            Arc::new(rec.finished())
        });
        let finish = Event::Finish(Finish {
            end,
            elapsed,
            profile,
            peak_alloc,
            keep_slow: inner.trace_keep_slow,
            head_sample: inner.trace_head_sample,
        });
        let mut st = lock(&inner.state);
        if let Some(fx) = st.jobs.get_mut(&id).and_then(|r| inner.step(r, finish)) {
            drop(st);
            inner.apply(fx);
        }
    }
}

/// The canonical record a cache entry is keyed from: the same two
/// sections as the [`ContentKey`], with the first length-prefixed so the
/// section boundary stays unambiguous. Stored alongside the entry and
/// compared on every hit, because FNV collisions are craftable.
fn cache_record(netlist_canon: &str, options_canon: &str) -> String {
    format!(
        "{}\u{1f}{netlist_canon}{options_canon}",
        netlist_canon.len()
    )
}

/// Storage-insertion traces kept per assay job; beyond this one summary
/// event stands in for the rest so a storage-heavy assay cannot flood
/// the per-job trace ring.
const MAX_STORAGE_TRACES: usize = 16;

/// The assay front end of [`run_job`]: parses the behavioral text,
/// list-schedules it under the service's [`columba_schedule::ScheduleOptions`],
/// records the stats on the job record, and hands back the emitted
/// structural netlist plus the canonical section the cache key is built
/// from (assay canonical text + schedule options — NOT the emitted
/// netlist, so the key survives emitter changes only via the cache's
/// full-record comparison).
fn run_assay_front_end(inner: &Inner, id: u64, text: &str) -> Result<(Netlist, String), String> {
    let assay = match columba_schedule::Assay::parse(text) {
        Ok(a) => a,
        Err(e) => return Err(format!("assay error: {e}")),
    };
    inner.assay_jobs.fetch_add(1, Ordering::Relaxed);
    let report = match columba_schedule::schedule(&assay, &inner.schedule_options) {
        Ok(r) => r,
        Err(e) => return Err(format!("schedule error: {e}")),
    };
    let stats = report.stats();
    inner.trace(
        Some(id),
        TraceKind::Scheduled,
        format!(
            "makespan {:.3}s over {} op(s), policy {}, utilization {:.3}",
            stats.makespan_s, stats.ops, stats.policy, stats.utilization
        ),
    );
    inner
        .storage_ops_inserted
        .fetch_add(report.storage.ops.len() as u64, Ordering::Relaxed);
    for s in report.storage.ops.iter().take(MAX_STORAGE_TRACES) {
        inner.trace(
            Some(id),
            TraceKind::StorageInserted,
            format!(
                "fluid {} held in {} for [{:.1}s, {:.1}s]",
                s.fluid, s.home, s.from_s, s.until_s
            ),
        );
    }
    if report.storage.ops.len() > MAX_STORAGE_TRACES {
        inner.trace(
            Some(id),
            TraceKind::StorageInserted,
            format!("(+{} more)", report.storage.ops.len() - MAX_STORAGE_TRACES),
        );
    }
    if let Some(r) = lock(&inner.state).jobs.get_mut(&id) {
        r.set_schedule(stats);
    }
    let canonical = format!("{}\u{1f}{}", assay.canonical_text(), inner.schedule_canon);
    Ok((report.netlist, canonical))
}

fn run_job(inner: &Inner, id: u64, text: &str, token: &CancelToken) -> JobEnd {
    let (netlist, canonical) = if columba_schedule::is_assay_text(text) {
        match run_assay_front_end(inner, id, text) {
            Ok(pair) => pair,
            Err(msg) => return JobEnd::Failed(msg),
        }
    } else {
        let netlist = match Netlist::parse(text) {
            Ok(n) => n,
            Err(e) => return JobEnd::Failed(format!("netlist error: {e}")),
        };
        let canonical = netlist.canonical_text();
        (netlist, canonical)
    };
    let record = cache_record(&canonical, &inner.options_canon);
    let key = ContentKey::of_sections(&[&canonical, &inner.options_canon]);
    if let Some(design) = lock(&inner.cache).get(key, &record) {
        inner.trace(
            Some(id),
            TraceKind::CacheHit,
            format!("key {}", key.short()),
        );
        return JobEnd::Done {
            design,
            from_cache: true,
            key: Some(key),
        };
    }
    match inner
        .columba
        .synthesize_resilient(&netlist, Some(token.clone()))
    {
        Ok(result) => {
            for (i, attempt) in result.log.attempts.iter().enumerate() {
                inner.trace(
                    Some(id),
                    TraceKind::Rung,
                    format!("{} of {}: {}", i + 1, attempt.rung, summarize(attempt)),
                );
            }
            // Replay the winning solve's incumbent trajectory into the
            // trace ring so `GET /jobs/<id>/events` streams the
            // objective's descent alongside the rung transitions.
            for (secs, objective) in result.outcome.layout.solve.trajectory() {
                inner.trace(
                    Some(id),
                    TraceKind::Incumbent,
                    format!("t={secs:.3}s obj={objective:.4}"),
                );
            }
            lock(&inner.agg).absorb(&result.log.aggregate_solve());
            // DRC gate: every synthesized design's rule check (run once,
            // by layout validation, on this very design) is consulted
            // before it is served or cached. A non-clean report fails the
            // job with the violation list — a design that breaks the
            // rules must never reach a client or pin a cache slot.
            if let Some(msg) = drc_failure(&result.outcome.drc) {
                inner.drc_rejected.fetch_add(1, Ordering::Relaxed);
                return JobEnd::Failed(msg);
            }
            let svg = result.outcome.to_svg().unwrap_or_default();
            let scr = result.outcome.to_autocad_script().unwrap_or_default();
            let solved_in = result.outcome.elapsed;
            let design = Arc::new(CompletedDesign {
                svg,
                scr,
                rung: result.rung.to_string(),
                solved_in,
                summary: DesignSummary::of_outcome(&result.outcome),
            });
            // Cache only pristine results: a fired token (client DELETE or
            // the job deadline) or a rung below full MILP means this design
            // is what the resilience ladder salvaged, not what a full-budget
            // solve would produce — caching it would pin the degraded
            // artifact under the same key forever.
            let pristine = result.rung == Rung::FullMilp && !token.is_cancelled();
            if pristine {
                let cost = entry_cost(&design, &record);
                lock(&inner.cache).insert(key, Arc::clone(&design), record.clone(), cost);
                if let Some(persist) = &inner.persist {
                    let store = || persist.store_design(key, &record, &design);
                    if let Err(e) = inner.persist_write(Some(id), store) {
                        let detail = format!("design store failed: {e}");
                        inner.trace(Some(id), TraceKind::PersistError, detail);
                    }
                }
            }
            inner.trace(
                Some(id),
                TraceKind::Solved,
                format!(
                    "{} in {:.3}s, key {}{}",
                    design.rung,
                    solved_in.as_secs_f64(),
                    key.short(),
                    if pristine {
                        ""
                    } else {
                        ", not cached (degraded)"
                    }
                ),
            );
            JobEnd::Done {
                design,
                from_cache: false,
                key: pristine.then_some(key),
            }
        }
        Err(e) => JobEnd::Failed(e.to_string()),
    }
}

/// Renders a non-clean DRC report as the job-failure message (one line,
/// every violation listed); `None` for a clean report.
fn drc_failure(report: &columba_s::design::drc::DrcReport) -> Option<String> {
    if report.is_clean() {
        return None;
    }
    let list = report
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    Some(format!(
        "design failed DRC with {} violation(s): {list}",
        report.violations.len()
    ))
}

fn summarize(attempt: &columba_s::Attempt) -> String {
    use columba_s::AttemptOutcome;
    match &attempt.outcome {
        AttemptOutcome::Produced(status) => format!("produced ({status:?})"),
        AttemptOutcome::Failed(why) => format!("failed: {why}"),
        AttemptOutcome::Skipped(why) => format!("skipped: {why}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;

    const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                        connect a -> m1.left\nconnect m1.right -> b\n";

    fn quick_config(trace: Arc<dyn TraceSink>) -> ServiceConfig {
        let mut options = SynthesisOptions::default();
        // bounded by work: four nodes, with a clock that never fires
        options.layout.node_limit = 4;
        options.layout.time_limit = Duration::from_secs(3600);
        options.layout.threads = 1;
        ServiceConfig {
            workers: 2,
            options,
            trace,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_solve_and_cache_hit() {
        let sink = Arc::new(MemorySink::new());
        let service = Service::start(quick_config(Arc::clone(&sink) as Arc<dyn TraceSink>));
        let first = service.submit_text(TINY).expect("admitted");
        let status = service
            .wait(first, Duration::from_secs(60))
            .expect("known job");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert!(!status.from_cache);
        assert!(status.design.is_some());
        let second = service.submit_text(TINY).expect("admitted");
        let status2 = service
            .wait(second, Duration::from_secs(60))
            .expect("known job");
        assert_eq!(status2.state, JobState::Done);
        assert!(status2.from_cache, "second submission must hit the cache");
        // byte-identical artifacts between solve and cache hit
        let d1 = status.design.expect("design");
        let d2 = status2.design.expect("design");
        assert_eq!(d1.svg, d2.svg);
        assert_eq!(d1.scr, d2.scr);
        let m = service.metrics();
        assert_eq!(m.cache.hits, 1);
        assert_eq!(m.cache.misses, 1);
        assert_eq!(m.jobs_done, 2);
        assert_eq!(m.worker_panics, 0);
        assert!(m.solve.simplex_iterations > 0, "aggregated solver stats");
        service.shutdown();
        assert_eq!(sink.of_kind(TraceKind::CacheHit).len(), 1);
        assert_eq!(sink.of_kind(TraceKind::Solved).len(), 1);
        assert!(sink.flush_count() >= 1, "shutdown flushes the sink");
    }

    #[test]
    fn malformed_netlist_fails_the_job_not_the_worker() {
        let service = Service::start(quick_config(Arc::new(NullSink)));
        let bad = service
            .submit_text("definitely not a netlist")
            .expect("admitted");
        let status = service.wait(bad, Duration::from_secs(30)).expect("known");
        assert_eq!(status.state, JobState::Failed);
        assert!(status
            .error
            .as_deref()
            .is_some_and(|e| e.contains("netlist")));
        // the worker survives and serves the next job
        let good = service.submit_text(TINY).expect("admitted");
        let status = service.wait(good, Duration::from_secs(60)).expect("known");
        assert_eq!(status.state, JobState::Done);
        let m = service.metrics();
        assert_eq!(m.worker_panics, 0);
        assert_eq!(m.jobs_failed, 1);
    }

    #[test]
    fn queue_full_rejects_with_reason() {
        // zero-worker pool cannot drain the queue — but workers: 0 means
        // "auto", so use capacity 1 and saturate it faster than two
        // workers can drain: submit while the queue is artificially held
        // by not starting... simplest deterministic route: capacity 1 and
        // one worker busy on a slow job.
        let mut config = quick_config(Arc::new(NullSink));
        config.workers = 1;
        config.queue_capacity = 1;
        let service = Service::start(config);
        // the worker picks this up quickly...
        let _running = service.submit_text(TINY).expect("admitted");
        // ...then one job can sit in the queue; the next must bounce.
        // Submission order is racy against the worker, so just drive until
        // a rejection shows up — admission control must answer immediately
        // either way.
        let mut saw_rejection = None;
        for _ in 0..64 {
            match service.submit_text(TINY) {
                Ok(_) => continue,
                Err(e) => {
                    saw_rejection = Some(e);
                    break;
                }
            }
        }
        let Some(SubmitError::QueueFull { capacity, .. }) = saw_rejection else {
            panic!("expected a QueueFull rejection, got {saw_rejection:?}");
        };
        assert_eq!(capacity, 1);
        assert!(service.metrics().rejected >= 1);
        service.shutdown();
    }

    #[test]
    fn cancel_queued_job_and_unknown_ids() {
        let mut config = quick_config(Arc::new(NullSink));
        config.workers = 1;
        config.queue_capacity = 8;
        let service = Service::start(config);
        let ids: Vec<JobId> = (0..4)
            .map(|_| service.submit_text(TINY).expect("admitted"))
            .collect();
        // cancel the last one — almost certainly still queued behind the
        // solver; either way cancel() must succeed on a non-terminal job
        let last = ids[3];
        assert!(service.cancel(last));
        let status = service.wait(last, Duration::from_secs(60)).expect("known");
        assert_eq!(status.state, JobState::Cancelled);
        assert!(!service.cancel(last), "already terminal");
        assert!(!service.cancel(JobId(999_999)), "unknown id");
        service.shutdown();
    }

    #[test]
    fn degraded_results_are_not_cached() {
        // the token fires before the solve starts, so the ladder salvages
        // a degraded design instead of failing — which must NOT be cached,
        // or every future identical submission would be served the
        // degraded artifact instead of a full solve
        let mut config = quick_config(Arc::new(NullSink));
        config.job_deadline = Some(Duration::ZERO);
        let service = Service::start(config);
        let first = service.submit_text(TINY).expect("admitted");
        let s1 = service
            .wait(first, Duration::from_secs(60))
            .expect("known job");
        assert!(
            s1.design.is_some(),
            "ladder degrades, not fails: {:?}",
            s1.error
        );
        let second = service.submit_text(TINY).expect("admitted");
        let s2 = service
            .wait(second, Duration::from_secs(60))
            .expect("known job");
        assert!(
            !s2.from_cache,
            "degraded design must not be served from cache"
        );
        let m = service.metrics();
        assert_eq!(m.cache.hits, 0);
        assert_eq!(m.cache.entries, 0, "no degraded entry may be inserted");
        service.shutdown();
    }

    #[test]
    fn drc_gate_message_lists_every_violation() {
        use columba_s::design::drc::{DrcReport, Rule, Violation};
        assert!(
            drc_failure(&DrcReport::default()).is_none(),
            "clean reports pass the gate"
        );
        // real synthesized designs are DRC-clean (the stress suite asserts
        // it), so the gate's failure path is exercised with a fabricated
        // report
        let report = DrcReport {
            violations: vec![
                Violation {
                    rule: Rule::ModuleOverlap,
                    message: "m1 overlaps m2".into(),
                },
                Violation {
                    rule: Rule::InletPitch,
                    message: "inlets a,b closer than d'".into(),
                },
            ],
        };
        let msg = drc_failure(&report).expect("non-clean report fails the gate");
        assert!(msg.contains("2 violation(s)"), "{msg}");
        assert!(msg.contains("module-overlap"), "{msg}");
        assert!(msg.contains("inlets a,b closer than d'"), "{msg}");
    }

    #[test]
    fn persist_error_display_names_the_cause() {
        let e = SubmitError::Persist {
            detail: "disk on fire".into(),
        };
        assert_eq!(
            e.to_string(),
            "submission could not be journaled: disk on fire"
        );
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = Service::start(quick_config(Arc::new(NullSink)));
        service.shutdown();
        assert_eq!(service.submit_text(TINY), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn export_errors() {
        let service = Service::start(quick_config(Arc::new(NullSink)));
        assert_eq!(
            service.export(JobId(42), ExportKind::Svg).err(),
            Some(ExportError::NotFound)
        );
        let id = service.submit_text(TINY).expect("admitted");
        let status = service.wait(id, Duration::from_secs(60)).expect("known");
        assert_eq!(status.state, JobState::Done);
        let svg = service.export(id, ExportKind::Svg).expect("design ready");
        assert!(svg.svg.contains("<svg"));
        let scr = service.export(id, ExportKind::Scr).expect("design ready");
        assert!(scr.scr.contains("RECTANG"));
        service.shutdown();
    }
}
