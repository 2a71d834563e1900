//! Structured lifecycle tracing.
//!
//! Every job lifecycle transition emits one [`TraceEvent`] through the
//! service's [`TraceSink`]: `received`, `admitted`, `rejected`,
//! `cache_hit`, `started`, `rung`, `solved`, `failed`, `cancelled`,
//! `exported`, `shutdown` — plus the persistence lifecycle: `recovery`,
//! `corrupt`, `compacted`, `persist_error` — and the assay front end:
//! `scheduled`, `storage_inserted`. Timestamps are monotonic
//! offsets from the
//! service epoch (`Instant`-based, never wall clock), so traces order
//! correctly even across clock adjustments.
//!
//! The sink is pluggable: production writes JSON Lines through
//! [`JsonlSink`] (one self-contained JSON object per line — the schema is
//! documented on [`TraceEvent::to_jsonl`]), tests capture events in memory
//! with [`MemorySink`], and the default [`NullSink`] drops them.
//!
//! An event that names a job is also kept in that job's record: a
//! bounded log of its newest 256 events, which `GET /jobs/<id>/trace`
//! and `GET /jobs/<id>/events` read. The log lives and dies with the
//! record (tail sampling clears it, pruning drops it), and each event a
//! full log drops counts in `/metrics` as `trace_events_evicted`.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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
    /// (`shutdown`).
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
        s.push_str("{\"ts_us\":");
        s.push_str(&self.ts.as_micros().to_string());
        if let Some(job) = self.job {
            s.push_str(",\"job\":");
            s.push_str(&job.to_string());
        }
        s.push_str(",\"event\":\"");
        s.push_str(self.kind.as_str());
        s.push('"');
        if !self.detail.is_empty() {
            s.push_str(",\"detail\":\"");
            escape_json_into(&self.detail, &mut s);
            s.push('"');
        }
        s.push('}');
        s
    }
}

/// Escapes `text` for inclusion inside a JSON string literal.
fn escape_json_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Where trace events go. Implementations must tolerate concurrent
/// `record` calls from the admission path, every worker, and the HTTP
/// connection threads.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &TraceEvent);
    /// Flushes buffered events to durable form. Called by
    /// `Service::shutdown`.
    fn flush(&self) {}
}

/// Drops every event. The default sink.
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}
}

/// Default [`MemorySink`] capacity: generous for tests, yet a hard bound
/// — an unbounded in-memory sink on a long-lived service is a slow OOM.
pub const MEMORY_SINK_CAPACITY: usize = 65_536;

/// Captures events in a bounded in-memory ring; the test sink. At
/// capacity the oldest event is dropped and counted in
/// [`MemorySink::evicted`].
#[derive(Debug)]
pub struct MemorySink {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    evicted: AtomicU64,
    flushes: Mutex<usize>,
}

impl Default for MemorySink {
    fn default() -> MemorySink {
        MemorySink::with_capacity(MEMORY_SINK_CAPACITY)
    }
}

impl MemorySink {
    /// An empty sink with the default capacity.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// An empty sink holding at most `capacity` events (floor of one).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> MemorySink {
        MemorySink {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            evicted: AtomicU64::new(0),
            flushes: Mutex::new(0),
        }
    }

    /// A copy of every event still in the ring, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().map_or_else(
            |e| e.into_inner().iter().cloned().collect(),
            |g| g.iter().cloned().collect(),
        )
    }

    /// Events dropped because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// How many times [`TraceSink::flush`] ran.
    #[must_use]
    pub fn flush_count(&self) -> usize {
        self.flushes.lock().map_or_else(|e| *e.into_inner(), |g| *g)
    }

    /// Events of one kind, in order.
    #[must_use]
    pub fn of_kind(&self, kind: TraceKind) -> Vec<TraceEvent> {
        self.snapshot()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        if let Ok(mut g) = self.events.lock() {
            if g.len() >= self.capacity {
                g.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            g.push_back(event.clone());
        }
    }

    fn flush(&self) {
        if let Ok(mut g) = self.flushes.lock() {
            *g += 1;
        }
    }
}

/// Writes one JSON line per event to any [`Write`] (a file, a pipe,
/// stderr). Lines are written atomically under an internal lock.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Mutex::new(out),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        if let Ok(mut g) = self.out.lock() {
            // tracing must never take the service down: I/O errors drop
            // the event
            let _ = writeln!(g, "{}", event.to_jsonl());
        }
    }

    fn flush(&self) {
        if let Ok(mut g) = self.out.lock() {
            let _ = g.flush();
        }
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

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = JsonlSink::new(Vec::new());
        for job in 0..3u64 {
            sink.record(&TraceEvent {
                ts: Duration::from_micros(job),
                job: Some(job),
                kind: TraceKind::Admitted,
                detail: String::new(),
            });
        }
        sink.flush();
        let buf = sink.out.lock().expect("sink lock");
        let text = String::from_utf8(buf.clone()).expect("utf8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    fn ev(job: Option<u64>, seq: u64) -> TraceEvent {
        TraceEvent {
            ts: Duration::from_micros(seq),
            job,
            kind: TraceKind::Rung,
            detail: format!("e{seq}"),
        }
    }

    #[test]
    fn memory_sink_is_bounded_and_counts_evictions() {
        let sink = MemorySink::with_capacity(3);
        for seq in 0..5 {
            sink.record(&ev(Some(1), seq));
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 3, "ring capacity holds");
        assert_eq!(events[0].detail, "e2", "oldest events were dropped");
        assert_eq!(sink.evicted(), 2);
    }

    #[test]
    fn memory_sink_filters_by_kind() {
        let sink = MemorySink::new();
        sink.record(&TraceEvent {
            ts: Duration::ZERO,
            job: Some(1),
            kind: TraceKind::Admitted,
            detail: String::new(),
        });
        sink.record(&TraceEvent {
            ts: Duration::ZERO,
            job: Some(1),
            kind: TraceKind::Solved,
            detail: "full MILP".into(),
        });
        assert_eq!(sink.of_kind(TraceKind::Solved).len(), 1);
        assert_eq!(sink.of_kind(TraceKind::Rejected).len(), 0);
        sink.flush();
        assert_eq!(sink.flush_count(), 1);
    }
}
