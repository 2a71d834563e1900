//! The job lifecycle: one record per job and the one function that
//! changes its state.
//!
//! A job is `Queued` at admission, `Running` once a worker claims it, and
//! ends `Done`, `Failed` or `Cancelled`; a queued job can also be
//! cancelled outright. Terminal states absorb every event. [`transition`]
//! is the only code that assigns a state (the field is private to this
//! module). It touches nothing but the record (a cancel fires the
//! record's token) and returns the [`Effects`] the service applies
//! afterwards: the journal record to append, the counter to bump and the
//! lifecycle event to trace.

use std::sync::Arc;
use std::time::Duration;

use columba_obs::SpanEvent;
use columba_s::CancelToken;

use crate::cache::CompletedDesign;
use crate::hash::ContentKey;
use crate::job::{JobId, JobState, JobStatus, QosClass};
use crate::persist::JournalRecord;
use crate::trace::{TraceEvent, TraceKind};

/// How a job's run ended, as the worker reports it.
pub(crate) enum JobEnd {
    Done {
        design: Arc<CompletedDesign>,
        from_cache: bool,
        /// The key the design was cached under (in memory and on disk);
        /// `None` for degraded, uncached results.
        key: Option<ContentKey>,
    },
    Failed(String),
}

/// Who cancels a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Canceller {
    /// The client. A queued job ends `Cancelled` at once; a running one
    /// is marked cancel-requested and finishes as `Cancelled`.
    Client,
    /// The stuck-job watchdog, at most once per job: a running job is
    /// marked cancel-requested and finishes as `Cancelled`.
    Watchdog,
    /// Shutdown. A queued job ends `Cancelled` at once; a running job's
    /// token fires but it is not marked cancel-requested, so it still
    /// finishes `Done` (degraded, uncached) or `Failed`.
    Shutdown,
}

/// What the journal fold knows about one job after replay. Later records
/// overwrite earlier ones, so the fold ends holding each job's final
/// journaled state.
pub(crate) enum Folded {
    /// Submitted (possibly started) but never terminal: re-enqueued.
    Live,
    /// Completed. `design` is `None` when its disk-cache file was lost
    /// (corrupt or evicted): the record is `Done` with nothing to export.
    Done {
        design: Option<Arc<CompletedDesign>>,
        rung: String,
    },
    Failed(String),
    Cancelled,
}

/// A worker's report on a job it ran.
pub(crate) struct Finish {
    pub(crate) end: JobEnd,
    pub(crate) elapsed: Duration,
    /// The job's span profile; `None` when profiling is off.
    pub(crate) profile: Option<Arc<Vec<SpanEvent>>>,
    pub(crate) peak_alloc: Option<u64>,
    /// The tail-sampling policy (`ServiceConfig::trace_keep_slow` and
    /// `trace_head_sample`).
    pub(crate) keep_slow: Duration,
    pub(crate) head_sample: u64,
}

/// One lifecycle event.
pub(crate) enum Event {
    /// A worker claims the queued job at clock time `now`.
    Claim {
        now: Duration,
    },
    /// The worker finished running the job.
    Finish(Finish),
    Cancel(Canceller),
    /// Startup recovery restores a journaled job into a fresh record.
    Restore(Folded),
}

/// A lifecycle counter served in `/metrics`; the discriminant indexes
/// the service's counter array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    Done,
    Failed,
    Cancelled,
    WatchdogCancels,
}

/// What a transition asks the service to do once the state lock is
/// released.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    pub(crate) id: u64,
    /// The job reached a terminal state: wake its waiters.
    pub(crate) terminal: bool,
    pub(crate) journal: Option<JournalRecord>,
    pub(crate) counter: Option<Counter>,
    /// The lifecycle event; the service stamps its `ts` when it records it.
    pub(crate) event: Option<TraceEvent>,
    /// The tail sampler drops the finished job's trace ring.
    pub(crate) sampled_out: bool,
    /// A `Done` job that ran a solve rather than hitting the cache: its
    /// class and latency, for the solve histogram, SLO and exemplars.
    pub(crate) solve: Option<(QosClass, Duration)>,
}

/// The effects of withdrawing an admission whose `submitted` record was
/// journaled but which was refused afterwards: only a `cancelled` record,
/// so the next startup does not re-enqueue it. The job never entered the
/// job table, so nothing is counted or traced.
pub(crate) fn withdrawn(id: u64) -> Effects {
    Effects {
        id,
        journal: Some(JournalRecord::Cancelled { id }),
        ..Effects::default()
    }
}

/// One job's record in the service's job table: what `GET /jobs/<id>`
/// reports, plus the flags that steer its lifecycle.
#[derive(Default)]
pub(crate) struct JobRecord {
    pub(crate) text: Arc<String>,
    pub(crate) token: CancelToken,
    /// The reported status. Only [`transition`] writes its `state`.
    status: JobStatus,
    cancel_requested: bool,
    /// Clock time at which a worker claimed the job; the stuck-job
    /// watchdog measures deadline + grace against it.
    started_at: Option<Duration>,
    watchdog_fired: bool,
    /// Finished span events captured while the job ran; the source of
    /// `GET /jobs/<id>/profile`. `None` until terminal, or forever when
    /// profiling is off or the tail sampler dropped it.
    profile: Option<Arc<Vec<SpanEvent>>>,
}

impl JobRecord {
    /// A `Queued` record: the one constructor, for admission and recovery.
    /// `durable` says whether its submission reached the journal.
    pub(crate) fn new(
        id: u64,
        class: QosClass,
        text: Arc<String>,
        token: CancelToken,
        durable: bool,
    ) -> JobRecord {
        let status = JobStatus {
            id: JobId(id),
            class,
            durable,
            ..JobStatus::default()
        };
        JobRecord {
            text,
            token,
            status,
            ..JobRecord::default()
        }
    }

    pub(crate) fn state(&self) -> JobState {
        self.status.state
    }

    pub(crate) fn class(&self) -> QosClass {
        self.status.class
    }

    pub(crate) fn durable(&self) -> bool {
        self.status.durable
    }

    /// The breaker healed and the submission was re-journaled.
    pub(crate) fn make_durable(&mut self) {
        self.status.durable = true;
    }

    pub(crate) fn set_schedule(&mut self, stats: columba_schedule::ScheduleStats) {
        self.status.schedule = Some(stats);
    }

    pub(crate) fn started_at(&self) -> Option<Duration> {
        self.started_at
    }

    pub(crate) fn design(&self) -> Option<&Arc<CompletedDesign>> {
        self.status.design.as_ref()
    }

    pub(crate) fn profile(&self) -> Option<&Arc<Vec<SpanEvent>>> {
        self.profile.as_ref()
    }

    pub(crate) fn snapshot(&self) -> JobStatus {
        self.status.clone()
    }
}

/// Applies `event` to `record`. `None` means the record refused the
/// event and is unchanged; otherwise the state moved along a legal edge,
/// or stayed for a cancel that only marks a running job, and the returned
/// effects are due. DESIGN.md ("Job lifecycle") tabulates every edge.
pub(crate) fn transition(record: &mut JobRecord, event: Event) -> Option<Effects> {
    use JobState::{Cancelled, Queued, Running};
    let r = record;
    let id = r.status.id.0;
    match (r.status.state, event) {
        (Queued, Event::Claim { now }) => {
            r.status.state = Running;
            r.started_at = Some(now);
            Some(Effects {
                id,
                journal: Some(JournalRecord::Started { id }),
                event: trace_event(id, TraceKind::Started, ""),
                ..Effects::default()
            })
        }
        (Running, Event::Finish(finish)) => Some(finish_run(r, finish)),
        (Queued, Event::Cancel(by @ (Canceller::Client | Canceller::Shutdown))) => {
            r.token.cancel();
            r.status.elapsed = Some(Duration::ZERO);
            let detail = if by == Canceller::Client {
                r.cancel_requested = true;
                "while queued"
            } else {
                r.status.error = Some("service shut down before the job ran".into());
                "shutdown drained the queue"
            };
            Some(end(r, Cancelled, None, detail))
        }
        (Running, Event::Cancel(by @ (Canceller::Client | Canceller::Shutdown))) => {
            r.cancel_requested |= by == Canceller::Client;
            r.token.cancel();
            Some(Effects::default())
        }
        (Running, Event::Cancel(Canceller::Watchdog)) if !r.watchdog_fired => {
            r.watchdog_fired = true;
            r.cancel_requested = true;
            r.token.cancel();
            Some(Effects {
                id,
                counter: Some(Counter::WatchdogCancels),
                event: trace_event(
                    id,
                    TraceKind::Watchdog,
                    "running past deadline + grace; cancelled",
                ),
                ..Effects::default()
            })
        }
        (Queued, Event::Restore(folded)) => {
            match folded {
                Folded::Live => {}
                Folded::Done { design, rung } => {
                    r.status.state = JobState::Done;
                    r.status.rung = Some(rung);
                    r.status.design = design;
                }
                Folded::Failed(error) => {
                    r.status.state = JobState::Failed;
                    r.status.error = Some(error);
                }
                Folded::Cancelled => r.status.state = Cancelled,
            }
            Some(Effects::default())
        }
        _ => None,
    }
}

fn trace_event(id: u64, kind: TraceKind, detail: &str) -> Option<TraceEvent> {
    Some(TraceEvent {
        ts: Duration::ZERO,
        job: Some(id),
        kind,
        detail: detail.into(),
    })
}

/// Moves the record to terminal `state` and returns its effects: the
/// terminal journal record, counter and event (`detail` names how a
/// cancelled job ended; a `Done` job's event precedes its `Finish`).
fn end(r: &mut JobRecord, state: JobState, key: Option<ContentKey>, detail: &str) -> Effects {
    let id = r.status.id.0;
    r.status.state = state;
    let (journal, counter, event) = match state {
        JobState::Done => {
            let rung = r.status.rung.clone().unwrap_or_default();
            let journal = JournalRecord::Completed { id, key, rung };
            (journal, Counter::Done, None)
        }
        JobState::Failed => {
            let error = r.status.error.clone().unwrap_or_default();
            let event = trace_event(id, TraceKind::Failed, &error);
            (JournalRecord::Failed { id, error }, Counter::Failed, event)
        }
        _ => {
            let event = trace_event(id, TraceKind::Cancelled, detail);
            (JournalRecord::Cancelled { id }, Counter::Cancelled, event)
        }
    };
    Effects {
        id,
        terminal: true,
        journal: Some(journal),
        counter: Some(counter),
        event,
        ..Effects::default()
    }
}

/// The `Finish` edge: records the run's outcome and decides the job's
/// final state and whether its trace survives tail sampling.
fn finish_run(r: &mut JobRecord, finish: Finish) -> Effects {
    r.status.elapsed = Some(finish.elapsed);
    r.profile = finish.profile;
    r.status.peak_alloc_bytes = finish.peak_alloc;
    let (ended, key) = match finish.end {
        JobEnd::Done {
            design,
            from_cache,
            key,
        } => {
            r.status.from_cache = from_cache;
            r.status.rung = Some(design.rung.clone());
            r.status.design = Some(design);
            (JobState::Done, key)
        }
        JobEnd::Failed(error) => {
            r.status.error = Some(error);
            (JobState::Failed, None)
        }
    };
    let state = if r.cancel_requested {
        JobState::Cancelled
    } else {
        ended
    };
    let mut fx = end(r, state, key, "while running");
    // Tail sampling: errors, cancellations, watchdog victims, degraded
    // rungs and slow solves always keep their full trace and profile;
    // fast clean jobs keep theirs 1-in-N.
    let degraded = r.status.rung.as_deref().is_some_and(|g| g != "full MILP");
    let keep = r.status.state != JobState::Done
        || r.watchdog_fired
        || degraded
        || finish.elapsed >= finish.keep_slow
        || fx.id.is_multiple_of(finish.head_sample);
    if !keep {
        r.profile = None;
    }
    fx.sampled_out = !keep;
    fx.solve = (r.status.state == JobState::Done && !r.status.from_cache)
        .then_some((r.status.class, finish.elapsed));
    fx
}

#[cfg(test)]
mod tests {
    use columba_prng::Rng;

    use super::*;
    use crate::cache::DesignSummary;

    /// Events go to one of the `WINDOW` most recently admitted jobs.
    const WINDOW: usize = 6;

    fn design(rung: &str) -> Arc<CompletedDesign> {
        Arc::new(CompletedDesign {
            summary: DesignSummary {
                drc_clean: true,
                width_mm: 1.0,
                height_mm: 1.0,
                control_inlets: 0,
                solve_nodes: 0,
                solve_pruned: 0,
                solve_simplex_iterations: 0,
            },
            svg: String::new(),
            scr: String::new(),
            rung: rung.into(),
            solved_in: Duration::ZERO,
        })
    }

    /// The event kinds, for the model's bookkeeping.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Claim,
        Finish { done: bool, from_cache: bool },
        Cancel(Canceller),
        Restore(JobState),
    }

    /// An independent model of one job: its expected state, the flags
    /// that steer its edges, and the effects seen so far.
    struct Shadow {
        record: JobRecord,
        state: JobState,
        cancel_requested: bool,
        watchdog_fired: bool,
        restored: bool,
        terminal_journals: u32,
        terminal_counts: u32,
        terminal_events: u32,
        watchdogs: u32,
    }

    impl Shadow {
        fn admit(id: u64) -> Shadow {
            let record = JobRecord::new(
                id,
                QosClass::Interactive,
                Arc::default(),
                CancelToken::new(),
                true,
            );
            Shadow {
                record,
                state: JobState::Queued,
                cancel_requested: false,
                watchdog_fired: false,
                restored: false,
                terminal_journals: 0,
                terminal_counts: 0,
                terminal_events: 0,
                watchdogs: 0,
            }
        }
    }

    fn random_event(rng: &mut Rng, now: Duration) -> (Kind, Event) {
        match rng.gen_range(0..8u64) {
            0 | 1 => (Kind::Claim, Event::Claim { now }),
            2 | 3 => {
                let done = rng.gen_bool(0.6);
                let from_cache = done && rng.gen_bool(0.3);
                let end = if done {
                    let rung = if rng.gen_bool(0.8) {
                        "full MILP"
                    } else {
                        "heuristic"
                    };
                    JobEnd::Done {
                        design: design(rung),
                        from_cache,
                        key: rng.gen_bool(0.5).then(|| ContentKey::of_sections(&["k"])),
                    }
                } else {
                    JobEnd::Failed("netlist error: seeded".into())
                };
                let finish = Finish {
                    end,
                    elapsed: Duration::from_millis(rng.gen_range(0..100u64)),
                    profile: rng.gen_bool(0.5).then(|| Arc::new(Vec::new())),
                    peak_alloc: None,
                    keep_slow: Duration::from_millis(50),
                    head_sample: rng.gen_range(1..4u64),
                };
                (Kind::Finish { done, from_cache }, Event::Finish(finish))
            }
            4 => (
                Kind::Cancel(Canceller::Client),
                Event::Cancel(Canceller::Client),
            ),
            5 => (
                Kind::Cancel(Canceller::Watchdog),
                Event::Cancel(Canceller::Watchdog),
            ),
            6 => (
                Kind::Cancel(Canceller::Shutdown),
                Event::Cancel(Canceller::Shutdown),
            ),
            _ => {
                let (state, folded) = match rng.gen_range(0..4u64) {
                    0 => (JobState::Queued, Folded::Live),
                    1 => (
                        JobState::Done,
                        Folded::Done {
                            design: rng.gen_bool(0.5).then(|| design("full MILP")),
                            rung: "full MILP".into(),
                        },
                    ),
                    2 => (JobState::Failed, Folded::Failed("journaled".into())),
                    _ => (JobState::Cancelled, Folded::Cancelled),
                };
                (Kind::Restore(state), Event::Restore(folded))
            }
        }
    }

    /// Checks one transition against the model and advances the model.
    fn check(job: &mut Shadow, kind: Kind, event: Event, ctx: &str) {
        use JobState::{Cancelled, Done, Failed, Queued, Running};
        let id = job.record.status.id.0;
        let sampling = match &event {
            Event::Finish(f) => Some((f.elapsed, f.keep_slow, f.head_sample)),
            _ => None,
        };
        let before = job.state;
        let fx = transition(&mut job.record, event);
        let Some(fx) = fx else {
            // a refused event leaves the record as it was
            assert_eq!(job.record.state(), before, "{ctx}: refused yet moved");
            let expected_refusal = before.is_terminal()
                || matches!(
                    (before, kind),
                    (Running, Kind::Claim | Kind::Restore(_))
                        | (
                            Queued,
                            Kind::Finish { .. } | Kind::Cancel(Canceller::Watchdog)
                        )
                )
                || (before == Running
                    && kind == Kind::Cancel(Canceller::Watchdog)
                    && job.watchdog_fired);
            assert!(expected_refusal, "{ctx}: {kind:?} refused from {before:?}");
            return;
        };
        // terminal states absorb every event
        assert!(
            !before.is_terminal(),
            "{ctx}: {kind:?} accepted from {before:?}"
        );
        let after = match (before, kind) {
            (Queued, Kind::Claim) => {
                assert_eq!(fx.journal, Some(JournalRecord::Started { id }), "{ctx}");
                assert_eq!(
                    fx.event.as_ref().map(|e| e.kind),
                    Some(TraceKind::Started),
                    "{ctx}"
                );
                assert_eq!(
                    job.record.started_at(),
                    Some(Duration::from_millis(7)),
                    "{ctx}"
                );
                Running
            }
            (Running, Kind::Finish { done, from_cache }) => {
                let ended = if job.cancel_requested {
                    Cancelled
                } else if done {
                    Done
                } else {
                    Failed
                };
                if ended == Done {
                    assert!(
                        job.record.design().is_some(),
                        "{ctx}: Done implies a design"
                    );
                }
                let (elapsed, keep_slow, head_sample) =
                    sampling.expect("a finish carries its sampling policy");
                let degraded = done && job.record.status.rung.as_deref() != Some("full MILP");
                let keep = ended != Done
                    || job.watchdog_fired
                    || degraded
                    || elapsed >= keep_slow
                    || id.is_multiple_of(head_sample);
                assert_eq!(fx.sampled_out, !keep, "{ctx}: tail sampling");
                assert_eq!(
                    fx.solve.is_some(),
                    ended == Done && !from_cache,
                    "{ctx}: solve feed"
                );
                ended
            }
            (Queued, Kind::Cancel(Canceller::Client | Canceller::Shutdown)) => Cancelled,
            (Running, Kind::Cancel(Canceller::Client)) => {
                job.cancel_requested = true;
                Running
            }
            // the shutdown quirk: the token fires, no cancel request
            (Running, Kind::Cancel(Canceller::Shutdown)) => Running,
            (Running, Kind::Cancel(Canceller::Watchdog)) => {
                assert!(!job.watchdog_fired, "{ctx}: the watchdog fires once");
                job.watchdog_fired = true;
                job.cancel_requested = true;
                Running
            }
            (Queued, Kind::Restore(folded)) => {
                assert!(
                    fx.journal.is_none() && fx.counter.is_none() && fx.event.is_none(),
                    "{ctx}: restore journals, counts and traces nothing"
                );
                job.restored = folded != Queued;
                folded
            }
            _ => panic!("{ctx}: {kind:?} accepted from {before:?}"),
        };
        // the only edges: Queued→Running→terminal, Queued→Cancelled, and
        // recovery's Queued→restored state; everything else stays put
        let legal = after == before
            || matches!(
                (before, after),
                (Queued, Running) | (Running, Done | Failed | Cancelled)
            )
            || (before == Queued && after == Cancelled)
            || matches!(kind, Kind::Restore(_));
        assert!(legal, "{ctx}: illegal edge {before:?} → {after:?}");
        assert_eq!(job.record.state(), after, "{ctx}: {kind:?} from {before:?}");
        assert_eq!(fx.terminal, after.is_terminal() && !job.restored, "{ctx}");
        if matches!(kind, Kind::Cancel(_)) {
            assert!(
                job.record.token.is_cancelled(),
                "{ctx}: a cancel fires the token"
            );
        }
        if fx.journal.is_some() || fx.counter.is_some() || fx.event.is_some() {
            assert_eq!(fx.id, id, "{ctx}");
        }
        if matches!(
            fx.journal,
            Some(
                JournalRecord::Completed { .. }
                    | JournalRecord::Failed { .. }
                    | JournalRecord::Cancelled { .. }
            )
        ) {
            job.terminal_journals += 1;
        }
        match fx.counter {
            Some(Counter::Done | Counter::Failed | Counter::Cancelled) => job.terminal_counts += 1,
            Some(Counter::WatchdogCancels) => job.watchdogs += 1,
            None => {}
        }
        if let Some(event) = &fx.event {
            match event.kind {
                TraceKind::Failed | TraceKind::Cancelled => job.terminal_events += 1,
                TraceKind::Watchdog => assert_eq!(fx.counter, Some(Counter::WatchdogCancels)),
                TraceKind::Started => {}
                other => panic!("{ctx}: unexpected lifecycle event {other:?}"),
            }
        }
        job.state = after;
    }

    #[test]
    fn randomized_events_keep_the_lifecycle_exact() {
        for seed in 0..128u64 {
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ 0x11fe);
            let mut jobs: Vec<Shadow> = vec![Shadow::admit(1)];
            for step in 0..400u32 {
                if rng.gen_range(0..10u64) == 0 {
                    let id = jobs.len() as u64 + 1;
                    jobs.push(Shadow::admit(id));
                    continue;
                }
                let first = jobs.len().saturating_sub(WINDOW);
                let pick = rng.gen_range(first as u64..jobs.len() as u64);
                let job = &mut jobs[usize::try_from(pick).expect("small index")];
                let (kind, event) = random_event(&mut rng, Duration::from_millis(7));
                let ctx = format!("seed {seed} step {step} job {}", job.record.status.id.0);
                check(job, kind, event, &ctx);
            }
            for job in &jobs {
                let ctx = format!("seed {seed} job {}", job.record.status.id.0);
                let ended_live = job.state.is_terminal() && !job.restored;
                let once = u32::from(ended_live);
                assert_eq!(
                    job.terminal_journals, once,
                    "{ctx}: terminal journal records"
                );
                assert_eq!(job.terminal_counts, once, "{ctx}: terminal counter bumps");
                // a `Done` job's `solved`/`cache_hit` event is traced by
                // the run itself, before the `Finish` that ends it
                let event = u32::from(ended_live && job.state != JobState::Done);
                assert_eq!(job.terminal_events, event, "{ctx}: terminal events");
                assert!(job.watchdogs <= 1, "{ctx}: the watchdog fires once");
                assert_eq!(job.record.snapshot().state, job.state, "{ctx}");
            }
        }
    }
}
