//! Job identity, states and status snapshots.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::cache::CompletedDesign;

/// Handle to one submitted synthesis job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The quality-of-service class a job is admitted and scheduled under.
///
/// The two classes have *separate* admission budgets (see
/// `ServiceConfig::queue_capacity` and
/// `ServiceConfig::bulk_queue_capacity`) so a large batch filling the
/// bulk queue can never crowd single-design interactive traffic out of
/// admission, and workers prefer the interactive queue (with a periodic
/// bulk pick so bulk work is never starved outright).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Latency-sensitive single-design traffic; the default for
    /// `POST /synthesize`.
    #[default]
    Interactive,
    /// Throughput traffic — batch members default here.
    Bulk,
}

impl QosClass {
    /// Stable lowercase name (journal records, HTTP query values).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Bulk => "bulk",
        }
    }

    /// Parses the stable name back; `None` for anything else.
    #[must_use]
    pub fn parse(name: &str) -> Option<QosClass> {
        match name {
            "interactive" => Some(QosClass::Interactive),
            "bulk" => Some(QosClass::Bulk),
            _ => None,
        }
    }

    /// Index into per-class tables (`[interactive, bulk]`).
    #[must_use]
    pub(crate) fn idx(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Bulk => 1,
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Lifecycle state of a job. Terminal states are `Done`, `Failed` and
/// `Cancelled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    #[default]
    Queued,
    /// A worker is synthesizing it.
    Running,
    /// Synthesis produced a design (possibly a degraded ladder rung).
    Done,
    /// Synthesis failed; [`JobStatus::error`] carries the reason.
    Failed,
    /// Cancelled by the client before producing a design.
    Cancelled,
}

impl JobState {
    /// Whether the job will change state again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Stable lowercase name (HTTP status lines, metrics).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time snapshot of one job, as returned by `Service::status`
/// and rendered by `GET /jobs/<id>`.
#[derive(Debug, Clone, Default)]
pub struct JobStatus {
    /// The job.
    pub id: JobId,
    /// Current state.
    pub state: JobState,
    /// The QoS class the job was admitted under.
    pub class: QosClass,
    /// Whether the design came from the content-addressed cache.
    pub from_cache: bool,
    /// Time from worker pickup to terminal state, once terminal.
    pub elapsed: Option<Duration>,
    /// The resilience-ladder rung that produced the design, once done.
    pub rung: Option<String>,
    /// The failure reason, when `state == Failed`.
    pub error: Option<String>,
    /// The finished design (also present on a cancelled job whose ladder
    /// still produced an incumbent before the token fired).
    pub design: Option<Arc<CompletedDesign>>,
    /// Whether the submission is journaled on disk. `false` while the
    /// persist breaker is open (the job was accepted in volatile
    /// degraded mode) and always `false` for in-memory-only services.
    pub durable: bool,
    /// Scheduling stats when the submission was an assay (behavioral)
    /// text that went through the `columba-schedule` front end.
    pub schedule: Option<columba_schedule::ScheduleStats>,
    /// Peak bytes the worker thread held live while running this job,
    /// measured by the tracking allocator. `None` until the job ran, and
    /// always `None` when the `alloc-track` feature is compiled out.
    pub peak_alloc_bytes: Option<u64>,
}

impl JobStatus {
    /// Renders the flat `key value` text form served by `GET /jobs/<id>`:
    /// always `id`, `state`, `from_cache`; then `elapsed_us` and `rung`
    /// once finished, `error` on failure, and the design's headline
    /// numbers (`drc_clean`, `width_mm`, `height_mm`, solver counters)
    /// when a design exists.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "id {}", self.id);
        let _ = writeln!(s, "state {}", self.state);
        let _ = writeln!(s, "class {}", self.class);
        let _ = writeln!(s, "from_cache {}", self.from_cache);
        let _ = writeln!(s, "durable {}", self.durable);
        if let Some(elapsed) = self.elapsed {
            let _ = writeln!(s, "elapsed_us {}", elapsed.as_micros());
        }
        if let Some(rung) = &self.rung {
            let _ = writeln!(s, "rung {rung}");
        }
        if let Some(error) = &self.error {
            let _ = writeln!(s, "error {}", error.replace('\n', " "));
        }
        if let Some(sched) = &self.schedule {
            let _ = writeln!(s, "schedule_policy {}", sched.policy);
            let _ = writeln!(s, "schedule_ops {}", sched.ops);
            let _ = writeln!(s, "schedule_storage_ops {}", sched.storage_ops);
            let _ = writeln!(s, "schedule_storage_peak {}", sched.storage_peak);
            let _ = writeln!(s, "schedule_makespan_s {:.3}", sched.makespan_s);
            let _ = writeln!(s, "schedule_utilization {:.3}", sched.utilization);
        }
        if let Some(design) = &self.design {
            let sum = &design.summary;
            let _ = writeln!(s, "drc_clean {}", sum.drc_clean);
            let _ = writeln!(s, "width_mm {:.3}", sum.width_mm);
            let _ = writeln!(s, "height_mm {:.3}", sum.height_mm);
            let _ = writeln!(s, "control_inlets {}", sum.control_inlets);
            let _ = writeln!(s, "solve_nodes {}", sum.solve_nodes);
            let _ = writeln!(s, "solve_pruned {}", sum.solve_pruned);
            let _ = writeln!(
                s,
                "solve_simplex_iterations {}",
                sum.solve_simplex_iterations
            );
            let _ = writeln!(s, "solved_in_us {}", design.solved_in.as_micros());
        }
        if let Some(peak) = self.peak_alloc_bytes {
            let _ = writeln!(s, "peak_alloc_bytes {peak}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert_eq!(JobState::Running.to_string(), "running");
    }

    #[test]
    fn qos_class_names_round_trip() {
        for class in [QosClass::Interactive, QosClass::Bulk] {
            assert_eq!(QosClass::parse(class.as_str()), Some(class));
        }
        assert_eq!(QosClass::parse("premium"), None);
        assert_eq!(QosClass::default(), QosClass::Interactive);
        assert_eq!(QosClass::Bulk.to_string(), "bulk");
    }

    #[test]
    fn render_includes_error_single_line() {
        let status = JobStatus {
            id: JobId(3),
            state: JobState::Failed,
            class: QosClass::Interactive,
            from_cache: false,
            elapsed: Some(Duration::from_micros(42)),
            rung: None,
            error: Some("line 1:\nbad".into()),
            design: None,
            durable: false,
            schedule: None,
            peak_alloc_bytes: Some(1024),
        };
        let text = status.render();
        assert!(text.contains("id 3\n"), "{text}");
        assert!(text.contains("state failed\n"), "{text}");
        assert!(text.contains("elapsed_us 42\n"), "{text}");
        assert!(text.contains("error line 1: bad\n"), "{text}");
        assert!(text.contains("peak_alloc_bytes 1024\n"), "{text}");
    }
}
