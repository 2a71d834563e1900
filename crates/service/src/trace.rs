//! Structured lifecycle tracing.
//!
//! Every job lifecycle transition records one [`TraceEvent`]: `received`,
//! `admitted`, `rejected`, `cache_hit`, `started`, `rung`, `solved`,
//! `failed`, `cancelled`, `exported`, `shutdown` — plus the persistence
//! lifecycle: `recovery`, `corrupt`, `compacted`, `persist_error` — and
//! the assay front end: `scheduled`, `storage_inserted`. Timestamps are
//! monotonic offsets from the service epoch (`Instant`-based, never wall
//! clock), so traces order correctly even across clock adjustments.
//!
//! Events land in one of two bounded `EventLog`s of the same capacity.
//! An event whose job has a record goes to that record's log, which
//! `GET /jobs/<id>/trace` and `GET /jobs/<id>/events` read; it lives and
//! dies with the record (tail sampling clears it, pruning drops it).
//! Every other event — service-level ones (`shutdown`, `recovery`,
//! breaker and SLO notes, a batch's `received`), a refused submission's
//! `rejected`, and notes on jobs without a record — goes to the service
//! log, which `GET /trace` serves. Both render as JSON Lines in the
//! schema of [`TraceEvent::to_jsonl`], and each event a full log drops
//! counts in `/metrics` as `trace_events_evicted`.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The lifecycle transition a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A submission arrived at the service boundary.
    Received,
    /// The submission passed admission control and was queued.
    Admitted,
    /// Admission control rejected the submission (queue full or shutdown).
    Rejected,
    /// The job was served from the content-addressed design cache.
    CacheHit,
    /// A worker picked the job up and began synthesis.
    Started,
    /// One resilience-ladder rung ran (detail carries rung + outcome).
    Rung,
    /// One incumbent improvement during the MILP search (detail carries
    /// `t=<secs> obj=<objective>`), replayed from the solve's incumbent
    /// trajectory so `GET /jobs/<id>/events` can stream it.
    Incumbent,
    /// Synthesis produced a design.
    Solved,
    /// Synthesis failed (parse error, infeasibility, exhausted ladder).
    Failed,
    /// The job ended cancelled, by client request.
    Cancelled,
    /// A CAD export of the finished design was served.
    Exported,
    /// The service shut down.
    Shutdown,
    /// Startup recovery replayed persisted state (detail carries the
    /// replay summary, or names the re-enqueued job when `job` is set).
    Recovery,
    /// A corrupt persisted record or file was skipped during recovery.
    Corrupt,
    /// The journal was compacted down to its live records.
    Compacted,
    /// A persist-layer write failed (journal append or design store).
    PersistError,
    /// Batch-group lifecycle (admission, recovery; detail carries the
    /// member/unique counts).
    Batch,
    /// The persist breaker tripped open: writes are skipped and the
    /// service is serving volatile from memory.
    BreakerOpen,
    /// The half-open probe write succeeded: the breaker closed and
    /// journaling resumed.
    BreakerClosed,
    /// A `resync` journal record: the count of persist writes skipped
    /// while the breaker was open (written on heal, replayed on
    /// recovery).
    Resync,
    /// The stuck-job watchdog cancelled a running job that outlived its
    /// deadline plus the configured grace.
    Watchdog,
    /// An assay submission was list-scheduled onto devices (detail
    /// carries the makespan and device counts).
    Scheduled,
    /// The scheduler evicted an idle fluid from its channel into a
    /// storage home (detail carries the fluid, home and interval).
    StorageInserted,
    /// An SLO burn-rate window crossed its threshold in either direction
    /// (detail carries the slo, label, window and burn rate).
    SloBurn,
    /// An SLO alert fired or cleared under the two-window page rule
    /// (detail carries the slo and label).
    SloAlert,
}

impl TraceKind {
    /// The stable event name used in the JSONL schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Received => "received",
            TraceKind::Admitted => "admitted",
            TraceKind::Rejected => "rejected",
            TraceKind::CacheHit => "cache_hit",
            TraceKind::Started => "started",
            TraceKind::Rung => "rung",
            TraceKind::Incumbent => "incumbent",
            TraceKind::Solved => "solved",
            TraceKind::Failed => "failed",
            TraceKind::Cancelled => "cancelled",
            TraceKind::Exported => "exported",
            TraceKind::Shutdown => "shutdown",
            TraceKind::Recovery => "recovery",
            TraceKind::Corrupt => "corrupt",
            TraceKind::Compacted => "compacted",
            TraceKind::PersistError => "persist_error",
            TraceKind::Batch => "batch",
            TraceKind::BreakerOpen => "breaker_open",
            TraceKind::BreakerClosed => "breaker_closed",
            TraceKind::Resync => "resync",
            TraceKind::Watchdog => "watchdog",
            TraceKind::Scheduled => "scheduled",
            TraceKind::StorageInserted => "storage_inserted",
            TraceKind::SloBurn => "slo_burn",
            TraceKind::SloAlert => "slo_alert",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lifecycle transition.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Monotonic offset from the service epoch.
    pub ts: Duration,
    /// The job the event belongs to; `None` for service-level events
    /// (`shutdown`, `recovery`, `rejected`, ...), which only the service
    /// log keeps.
    pub job: Option<u64>,
    /// The transition.
    pub kind: TraceKind,
    /// Free-form detail (rung name, rejection reason, error text, ...).
    pub detail: String,
}

impl TraceEvent {
    /// Renders the event as one JSON Lines record:
    ///
    /// ```json
    /// {"ts_us":123456,"job":7,"event":"solved","detail":"full MILP"}
    /// ```
    ///
    /// `ts_us` is the monotonic offset in microseconds; `job` is omitted
    /// for service-level events; `detail` is omitted when empty.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64 + self.detail.len());
        let _ = write!(s, "{{\"ts_us\":{}", self.ts.as_micros());
        if let Some(job) = self.job {
            let _ = write!(s, ",\"job\":{job}");
        }
        let _ = write!(s, ",\"event\":\"{}\"", self.kind);
        if !self.detail.is_empty() {
            s.push_str(",\"detail\":");
            columba_obs::export::json_string_into(&mut s, &self.detail);
        }
        s.push('}');
        s
    }
}

/// Lifecycle events kept per log; the oldest is dropped beyond this.
pub(crate) const LOG_CAPACITY: usize = 256;

/// A bounded log of lifecycle events: the newest [`LOG_CAPACITY`],
/// oldest first, and a count of every event ever appended. Each job
/// record keeps one; the service keeps one more for events with no job
/// record.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    events: VecDeque<TraceEvent>,
    /// Events ever appended: the cursor event streams resume from, which
    /// keeps growing after the log is full or cleared.
    recorded: u64,
}

impl EventLog {
    /// Appends an event. A full log first drops its oldest one and
    /// counts it in `evicted`.
    pub(crate) fn push(&mut self, event: TraceEvent, evicted: &AtomicU64) {
        self.recorded += 1;
        if self.events.len() >= LOG_CAPACITY {
            self.events.pop_front();
            evicted.fetch_add(1, Ordering::Relaxed);
        }
        self.events.push_back(event);
    }

    /// The kept events recorded after the first `cursor`, oldest first,
    /// and the cursor past them. Events dropped or cleared before the
    /// caller read them are skipped, never replayed.
    pub(crate) fn events_after(&self, cursor: u64) -> (Vec<TraceEvent>, u64) {
        let first = self.recorded - self.events.len() as u64;
        let skip = usize::try_from(cursor.saturating_sub(first)).unwrap_or(usize::MAX);
        (
            self.events.iter().skip(skip).cloned().collect(),
            self.recorded,
        )
    }

    /// Drops every kept event; the cursor keeps counting.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_schema_and_escaping() {
        let e = TraceEvent {
            ts: Duration::from_micros(1234),
            job: Some(7),
            kind: TraceKind::Failed,
            detail: "line 2: unknown keyword `\"bo\\gus`\n".into(),
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"ts_us\":1234,\"job\":7,\"event\":\"failed\",\
             \"detail\":\"line 2: unknown keyword `\\\"bo\\\\gus`\\n\"}"
        );
        let service_level = TraceEvent {
            ts: Duration::ZERO,
            job: None,
            kind: TraceKind::Shutdown,
            detail: String::new(),
        };
        assert_eq!(
            service_level.to_jsonl(),
            "{\"ts_us\":0,\"event\":\"shutdown\"}"
        );
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        let e = TraceEvent {
            ts: Duration::ZERO,
            job: None,
            kind: TraceKind::Rejected,
            detail: "\u{1}".into(),
        };
        assert!(e.to_jsonl().contains("\\u0001"), "{}", e.to_jsonl());
    }
}
