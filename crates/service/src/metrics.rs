//! Service-level metrics.
//!
//! One [`MetricsSnapshot`] gathers everything `/metrics` serves: cache
//! counters, queue state, jobs by state, latency histograms, per-worker
//! utilisation, and the cumulative [`SolveStats`] absorbed from every
//! solve the service ran. Every served series is listed once, in
//! `MetricsSnapshot::series`, and both wire formats are loops over that
//! list:
//!
//! * [`MetricsSnapshot::render`] — flat text, one `name value` pair per
//!   line, integers and fixed-point decimals only — trivially
//!   scrape-able and diff-able. The default for `GET /metrics`.
//! * [`MetricsSnapshot::render_prometheus`] — the Prometheus text
//!   exposition format, served for `GET /metrics?format=prometheus`:
//!   counters/gauges with `# HELP`/`# TYPE` lines, plus full histogram
//!   families (`_bucket{le="…"}`, `_sum`, `_count`, and
//!   `_p50`/`_p90`/`_p99` summary gauges).

use std::time::Duration;

use columba_obs::export::{prom_histogram, prom_sample, prom_type_line, HistExemplar};
use columba_obs::{AllocStats, HistSnapshot};
use columba_s::SolveStats;

use crate::cache::CacheStats;

/// Point-in-time service counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Cache counters.
    pub cache: CacheStats,
    /// Jobs admitted but not yet picked up (both classes).
    pub queue_depth: usize,
    /// Interactive jobs waiting for a worker.
    pub queue_depth_interactive: usize,
    /// Bulk jobs waiting for a worker.
    pub queue_depth_bulk: usize,
    /// The interactive admission-control bound.
    pub queue_capacity: usize,
    /// The bulk admission-control bound.
    pub bulk_queue_capacity: usize,
    /// Batch groups admitted since start.
    pub batches_submitted: u64,
    /// Batch members received since start (including duplicates).
    pub batch_members: u64,
    /// Batch members that collapsed onto another member's job through
    /// canonical-text dedup instead of getting their own solve.
    pub batch_dedup_hits: u64,
    /// Batch groups currently tracked (not yet pruned).
    pub batches_live: usize,
    /// Submissions rejected by admission control since start.
    pub rejected: u64,
    /// Jobs currently queued.
    pub jobs_queued: usize,
    /// Jobs currently running.
    pub jobs_running: usize,
    /// Jobs finished with a design.
    pub jobs_done: usize,
    /// Jobs failed.
    pub jobs_failed: usize,
    /// Jobs cancelled.
    pub jobs_cancelled: usize,
    /// Worker panics contained by the pool (each one failed its job but
    /// kept the worker alive).
    pub worker_panics: u64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Synthesized designs rejected by the post-synthesis DRC gate
    /// (failed their job, never cached).
    pub drc_rejected: u64,
    /// Assay submissions that went through the schedule front end.
    pub assay_jobs: u64,
    /// Storage operations the scheduler inserted for idle fluids, total
    /// across assay jobs.
    pub storage_ops_inserted: u64,
    /// Journal records replayed at the last startup (0 without
    /// persistence).
    pub journal_records_replayed: u64,
    /// Corrupt journal records skipped at the last startup.
    pub journal_corrupt_skipped: u64,
    /// Disk-cache files that verified clean at the last startup.
    pub cache_files_loaded: u64,
    /// Corrupt disk-cache files dropped at the last startup.
    pub cache_corrupt_dropped: u64,
    /// Journal compactions run since startup.
    pub compactions: u64,
    /// Persist-layer write failures since startup.
    pub persist_errors: u64,
    /// Persist-write retries the self-healing supervisor performed.
    pub persist_retries: u64,
    /// Times the persist breaker tripped into degraded mode.
    pub breaker_trips: u64,
    /// Current breaker state as a gauge: 0 closed, 1 open, 2 half-open.
    pub breaker_state: u64,
    /// Total seconds the service has spent in degraded (volatile) mode,
    /// including the current open period.
    pub degraded_seconds: f64,
    /// Running jobs the stuck-job watchdog cancelled past deadline +
    /// grace.
    pub watchdog_cancels: u64,
    /// Cumulative solver telemetry across every completed solve
    /// (aggregated with [`SolveStats::absorb`]).
    pub solve: SolveStats,
    /// Time since the service started.
    pub uptime: Duration,
    /// Fraction of the uptime each worker spent running jobs, in worker
    /// index order (one entry per worker, each in `[0, 1]`).
    pub worker_busy: Vec<f64>,
    /// Lifecycle trace events dropped by the bounded trace rings.
    pub trace_events_evicted: u64,
    /// Profiling span events dropped by bounded per-job span recorders.
    pub profile_events_dropped: u64,
    /// Job traces discarded by the tail-sampling policy (fast, clean,
    /// and not head-sampled).
    pub traces_sampled_out: u64,
    /// SLO burn-rate page alerts fired since start (cumulative).
    pub slo_alerts_fired: u64,
    /// Allocator-level memory accounting from the tracking global
    /// allocator (all zeros when the `alloc-track` feature is off).
    pub alloc: AllocStats,
    /// Wall-clock latency of completed non-cache-hit solves.
    pub solve_hist: HistSnapshot,
    /// Exemplars for `solve_hist` buckets: `(bucket, job id, seconds)`
    /// for the last *retained* job that landed in each bucket, so a bad
    /// percentile links to a job whose trace is still resolvable.
    pub solve_exemplars: Vec<HistExemplar>,
    /// HTTP request service latency (read + route + write).
    pub http_hist: HistSnapshot,
    /// HTTP requests by `(route label, status, count)`, label-sorted.
    pub http_by_route: Vec<(String, u16, u64)>,
}

/// How one sample prints.
#[derive(Clone, Copy)]
enum Value<'a> {
    /// A count: a decimal integer in both formats.
    Int(u64),
    /// A real: this many fixed decimals in the flat form, the exposition
    /// format's shortest form in the Prometheus one.
    Real(f64, usize),
    /// A latency histogram family with its exemplars (Prometheus only).
    Hist(&'a HistSnapshot, &'a [HistExemplar]),
}

/// A Prometheus family declaration: name, `# TYPE` kind, `# HELP` text.
type Prom = (&'static str, &'static str, &'static str);

const HISTOGRAM: &str = "histogram";

fn counter(name: &'static str, help: &'static str) -> Prom {
    (name, "counter", help)
}

fn gauge(name: &'static str, help: &'static str) -> Prom {
    (name, "gauge", help)
}

/// One served family, listed once for both wire formats. A labelled
/// sample's flat name is the flat name with `_<value>` appended for each
/// label. Where the formats disagree, a family is flat-only or
/// Prometheus-only.
struct Series<'a> {
    flat: Option<&'static str>,
    prom: Option<Prom>,
    samples: Vec<(Vec<(String, String)>, Value<'a>)>,
}

fn both<'a>(flat: &'static str, prom: Prom, value: Value<'a>) -> Series<'a> {
    Series {
        flat: Some(flat),
        prom: Some(prom),
        samples: vec![(Vec::new(), value)],
    }
}

fn flat_only<'a>(flat: &'static str, value: Value<'a>) -> Series<'a> {
    Series {
        flat: Some(flat),
        prom: None,
        samples: vec![(Vec::new(), value)],
    }
}

fn prom_only(prom: Prom, value: Value<'_>) -> Series<'_> {
    Series {
        flat: None,
        prom: Some(prom),
        samples: vec![(Vec::new(), value)],
    }
}

fn label(key: &str, value: impl ToString) -> Vec<(String, String)> {
    vec![(key.to_string(), value.to_string())]
}

impl MetricsSnapshot {
    /// Every served series, in serve order.
    fn series(&self) -> Vec<Series<'_>> {
        use Value::{Hist, Int, Real};
        let n = |v: usize| Int(v as u64);
        let cache = &self.cache;
        let alloc = &self.alloc;
        let mut out = vec![
            both(
                "cache_hits",
                counter("columba_cache_hits_total", "Design cache hits"),
                Int(cache.hits),
            ),
            both(
                "cache_misses",
                counter("columba_cache_misses_total", "Design cache misses"),
                Int(cache.misses),
            ),
            both(
                "cache_evictions",
                counter(
                    "columba_cache_evictions_total",
                    "Design cache LRU evictions",
                ),
                Int(cache.evictions),
            ),
            both(
                "cache_entries",
                gauge("columba_cache_entries", "Design cache entries"),
                n(cache.entries),
            ),
            both(
                "cache_bytes",
                gauge("columba_cache_bytes", "Design cache bytes held"),
                n(cache.bytes),
            ),
            flat_only("cache_capacity_bytes", n(cache.capacity_bytes)),
            both(
                "queue_depth",
                gauge("columba_queue_depth", "Jobs waiting for a worker"),
                n(self.queue_depth),
            ),
            // the flat form names each class; Prometheus labels one family
            flat_only("queue_depth_interactive", n(self.queue_depth_interactive)),
            flat_only("queue_depth_bulk", n(self.queue_depth_bulk)),
            Series {
                flat: None,
                prom: Some(gauge(
                    "columba_queue_class_depth",
                    "Jobs waiting for a worker by QoS class",
                )),
                samples: vec![
                    (
                        label("class", "interactive"),
                        n(self.queue_depth_interactive),
                    ),
                    (label("class", "bulk"), n(self.queue_depth_bulk)),
                ],
            },
            both(
                "queue_capacity",
                gauge(
                    "columba_queue_capacity",
                    "Interactive admission-control bound",
                ),
                n(self.queue_capacity),
            ),
            both(
                "bulk_queue_capacity",
                gauge(
                    "columba_bulk_queue_capacity",
                    "Bulk admission-control bound",
                ),
                n(self.bulk_queue_capacity),
            ),
            both(
                "queue_rejected",
                counter(
                    "columba_queue_rejected_total",
                    "Submissions rejected by admission control",
                ),
                Int(self.rejected),
            ),
            both(
                "batches_submitted",
                counter("columba_batches_submitted_total", "Batch groups admitted"),
                Int(self.batches_submitted),
            ),
            both(
                "batch_members",
                counter(
                    "columba_batch_members_total",
                    "Batch members received including duplicates",
                ),
                Int(self.batch_members),
            ),
            both(
                "batch_dedup_hits",
                counter(
                    "columba_batch_dedup_hits_total",
                    "Batch members collapsed onto another member's job",
                ),
                Int(self.batch_dedup_hits),
            ),
            both(
                "batches_live",
                gauge("columba_batches_live", "Batch groups tracked"),
                n(self.batches_live),
            ),
            both(
                "jobs_queued",
                gauge("columba_jobs_queued", "Jobs currently queued"),
                n(self.jobs_queued),
            ),
            both(
                "jobs_running",
                gauge("columba_jobs_running", "Jobs currently running"),
                n(self.jobs_running),
            ),
            both(
                "jobs_done",
                counter("columba_jobs_done_total", "Jobs finished with a design"),
                n(self.jobs_done),
            ),
            both(
                "jobs_failed",
                counter("columba_jobs_failed_total", "Jobs failed"),
                n(self.jobs_failed),
            ),
            both(
                "jobs_cancelled",
                counter("columba_jobs_cancelled_total", "Jobs cancelled"),
                n(self.jobs_cancelled),
            ),
            both(
                "workers",
                gauge("columba_workers", "Worker threads in the pool"),
                n(self.workers),
            ),
            both(
                "worker_panics",
                counter(
                    "columba_worker_panics_total",
                    "Worker panics contained by the pool",
                ),
                Int(self.worker_panics),
            ),
            both(
                "drc_rejected",
                counter(
                    "columba_drc_rejected_total",
                    "Designs rejected by the post-synthesis DRC gate",
                ),
                Int(self.drc_rejected),
            ),
            both(
                "assay_jobs",
                counter(
                    "columba_assay_jobs_total",
                    "Assay submissions through the schedule front end",
                ),
                Int(self.assay_jobs),
            ),
            both(
                "storage_ops_inserted",
                counter(
                    "columba_storage_ops_inserted_total",
                    "Storage operations inserted for idle fluids",
                ),
                Int(self.storage_ops_inserted),
            ),
            flat_only(
                "journal_records_replayed",
                Int(self.journal_records_replayed),
            ),
            flat_only("journal_corrupt_skipped", Int(self.journal_corrupt_skipped)),
            flat_only("cache_files_loaded", Int(self.cache_files_loaded)),
            flat_only("cache_corrupt_dropped", Int(self.cache_corrupt_dropped)),
            // compactions come before persist errors in the flat form and
            // after them in the Prometheus one
            flat_only("compactions", Int(self.compactions)),
            both(
                "persist_errors",
                counter(
                    "columba_persist_errors_total",
                    "Persist-layer write failures",
                ),
                Int(self.persist_errors),
            ),
            prom_only(
                counter(
                    "columba_journal_compactions_total",
                    "Journal compactions run",
                ),
                Int(self.compactions),
            ),
            both(
                "persist_retries",
                counter(
                    "columba_persist_retries_total",
                    "Persist-write retries by the self-healing supervisor",
                ),
                Int(self.persist_retries),
            ),
            both(
                "breaker_trips",
                counter(
                    "columba_breaker_trips_total",
                    "Persist breaker trips into degraded mode",
                ),
                Int(self.breaker_trips),
            ),
            both(
                "breaker_state",
                gauge(
                    "columba_breaker_state",
                    "Breaker state: 0 closed, 1 open, 2 half-open",
                ),
                Int(self.breaker_state),
            ),
            both(
                "degraded_seconds",
                counter(
                    "columba_degraded_seconds_total",
                    "Seconds spent in degraded (volatile) mode",
                ),
                Real(self.degraded_seconds, 3),
            ),
            both(
                "watchdog_cancels",
                counter(
                    "columba_watchdog_cancels_total",
                    "Stuck jobs cancelled by the watchdog",
                ),
                Int(self.watchdog_cancels),
            ),
            both(
                "solve_nodes",
                counter(
                    "columba_solve_nodes_total",
                    "Branch-and-bound nodes processed",
                ),
                n(self.solve.nodes_processed),
            ),
            both(
                "solve_pruned",
                counter(
                    "columba_solve_pruned_total",
                    "Branch-and-bound nodes pruned",
                ),
                n(self.solve.nodes_pruned),
            ),
            both(
                "solve_simplex_iterations",
                counter(
                    "columba_solve_simplex_iterations_total",
                    "Simplex iterations across all solves",
                ),
                n(self.solve.simplex_iterations),
            ),
            flat_only(
                "solve_time_seconds",
                Real(self.solve.total_time.as_secs_f64(), 6),
            ),
            flat_only("solve_worker_panics", n(self.solve.worker_panics)),
            both(
                "uptime_seconds",
                gauge("columba_uptime_seconds", "Time since the service started"),
                Real(self.uptime.as_secs_f64(), 3),
            ),
            Series {
                flat: Some("worker_busy_fraction"),
                prom: Some(gauge(
                    "columba_worker_busy_fraction",
                    "Fraction of uptime each worker spent running jobs",
                )),
                samples: (self.worker_busy.iter().enumerate())
                    .map(|(i, &busy)| (label("worker", i), Real(busy, 6)))
                    .collect(),
            },
            both(
                "trace_events_evicted",
                counter(
                    "columba_trace_events_evicted_total",
                    "Lifecycle trace events dropped by bounded rings",
                ),
                Int(self.trace_events_evicted),
            ),
            both(
                "profile_events_dropped",
                counter(
                    "columba_profile_events_dropped_total",
                    "Span events dropped by bounded per-job recorders",
                ),
                Int(self.profile_events_dropped),
            ),
            both(
                "traces_sampled_out",
                counter(
                    "columba_traces_sampled_out_total",
                    "Job traces discarded by the tail-sampling policy",
                ),
                Int(self.traces_sampled_out),
            ),
            both(
                "slo_alerts_fired",
                counter(
                    "columba_slo_alerts_fired_total",
                    "SLO burn-rate page alerts fired",
                ),
                Int(self.slo_alerts_fired),
            ),
            both(
                "alloc_live_bytes",
                gauge(
                    "columba_alloc_live_bytes",
                    "Live heap bytes tracked by the global allocator",
                ),
                Int(alloc.live_bytes),
            ),
            both(
                "alloc_peak_live_bytes",
                gauge(
                    "columba_alloc_peak_live_bytes",
                    "High-water mark of live heap bytes",
                ),
                Int(alloc.peak_live_bytes),
            ),
            both(
                "alloc_live_allocs",
                gauge(
                    "columba_alloc_live_allocs",
                    "Live allocations tracked by the global allocator",
                ),
                Int(alloc.live_allocs),
            ),
            both(
                "alloc_total_allocs",
                counter(
                    "columba_alloc_allocations_total",
                    "Heap allocations since start",
                ),
                Int(alloc.total_allocs),
            ),
            both(
                "alloc_total_alloc_bytes",
                counter(
                    "columba_alloc_allocated_bytes_total",
                    "Heap bytes allocated since start",
                ),
                Int(alloc.total_alloc_bytes),
            ),
        ];
        // with allocator tracking compiled out there are no subsystems,
        // and the family is left out rather than declared empty
        if !alloc.subsystems.is_empty() {
            out.push(Series {
                flat: Some("alloc_subsystem_bytes"),
                prom: Some(counter(
                    "columba_alloc_subsystem_bytes_total",
                    "Heap bytes allocated while each subsystem's span was innermost",
                )),
                samples: (alloc.subsystems.iter())
                    .map(|sub| (label("subsystem", sub.name), Int(sub.bytes)))
                    .collect(),
            });
        }
        out.push(Series {
            flat: None,
            prom: Some(counter(
                "columba_http_requests_total",
                "HTTP requests by route and status",
            )),
            samples: (self.http_by_route.iter())
                .map(|(route, status, count)| {
                    let labels = vec![
                        ("route".to_string(), route.clone()),
                        ("status".to_string(), status.to_string()),
                    ];
                    (labels, Int(*count))
                })
                .collect(),
        });
        out.push(prom_only(
            (
                "columba_solve_seconds",
                HISTOGRAM,
                "Wall-clock latency of completed non-cache-hit solves",
            ),
            Hist(&self.solve_hist, &self.solve_exemplars),
        ));
        out.push(prom_only(
            (
                "columba_http_request_seconds",
                HISTOGRAM,
                "HTTP request service latency",
            ),
            Hist(&self.http_hist, &[]),
        ));
        // the flat form summarises each histogram as a count and three
        // percentiles
        let (s50, s90, s99) = self.solve_hist.percentiles_us();
        let (h50, h90, h99) = self.http_hist.percentiles_us();
        out.extend([
            flat_only("solve_latency_count", Int(self.solve_hist.count)),
            flat_only("solve_seconds_p50", Real(s50 / 1e6, 6)),
            flat_only("solve_seconds_p90", Real(s90 / 1e6, 6)),
            flat_only("solve_seconds_p99", Real(s99 / 1e6, 6)),
            flat_only("http_requests_total", Int(self.http_hist.count)),
            flat_only("http_seconds_p50", Real(h50 / 1e6, 6)),
            flat_only("http_seconds_p90", Real(h90 / 1e6, 6)),
            flat_only("http_seconds_p99", Real(h99 / 1e6, 6)),
        ]);
        out
    }

    /// Renders the flat text form served by `GET /metrics`.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        for series in self.series() {
            let Some(flat) = series.flat else { continue };
            for (labels, value) in &series.samples {
                s.push_str(flat);
                for (_, v) in labels {
                    s.push('_');
                    s.push_str(v);
                }
                let _ = match *value {
                    Value::Int(v) => writeln!(s, " {v}"),
                    Value::Real(v, places) => writeln!(s, " {v:.places$}"),
                    Value::Hist(..) => unreachable!("histograms are Prometheus-only"),
                };
            }
        }
        s
    }

    /// Renders the Prometheus text exposition form served by
    /// `GET /metrics?format=prometheus`. Metric names carry a `columba_`
    /// prefix; the two latency histograms render as full Prometheus
    /// histogram families plus `_p50`/`_p90`/`_p99` summary gauges, and
    /// per-route HTTP counts become one family labelled by route and
    /// status.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn render_prometheus(&self) -> String {
        let mut s = String::with_capacity(8192);
        let mut last = String::new();
        for series in self.series() {
            let Some((name, kind, help)) = series.prom else {
                continue;
            };
            // a histogram family writes its own HELP/TYPE header
            if kind != HISTOGRAM {
                prom_type_line(&mut s, &mut last, name, kind, help);
            }
            for (labels, value) in &series.samples {
                match *value {
                    Value::Int(v) => prom_sample(&mut s, name, labels, v as f64),
                    Value::Real(v, _) => prom_sample(&mut s, name, labels, v),
                    Value::Hist(h, ex) => prom_histogram(&mut s, name, help, labels, h, ex),
                }
            }
        }
        s
    }
}

/// Parses one counter back out of the rendered form (test helper for
/// clients asserting on `/metrics`).
#[must_use]
pub fn metric_value(rendered: &str, name: &str) -> Option<f64> {
    rendered.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        if k == name {
            v.parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_is_flat_and_parseable() {
        let snap = MetricsSnapshot {
            cache: CacheStats {
                hits: 3,
                misses: 7,
                evictions: 1,
                entries: 6,
                bytes: 1234,
                capacity_bytes: 4096,
            },
            queue_depth: 2,
            queue_depth_interactive: 1,
            queue_depth_bulk: 1,
            queue_capacity: 64,
            bulk_queue_capacity: 256,
            batches_submitted: 2,
            batch_members: 50,
            batch_dedup_hits: 40,
            batches_live: 1,
            rejected: 5,
            jobs_queued: 2,
            jobs_running: 1,
            jobs_done: 9,
            jobs_failed: 1,
            jobs_cancelled: 1,
            worker_panics: 0,
            workers: 4,
            drc_rejected: 2,
            assay_jobs: 3,
            storage_ops_inserted: 4,
            journal_records_replayed: 11,
            journal_corrupt_skipped: 1,
            cache_files_loaded: 4,
            cache_corrupt_dropped: 1,
            compactions: 1,
            persist_errors: 0,
            persist_retries: 6,
            breaker_trips: 1,
            breaker_state: 1,
            degraded_seconds: 2.5,
            watchdog_cancels: 1,
            solve: SolveStats {
                nodes_processed: 100,
                nodes_pruned: 40,
                simplex_iterations: 999,
                total_time: Duration::from_millis(1500),
                ..SolveStats::default()
            },
            uptime: Duration::from_secs(12),
            worker_busy: vec![0.25, 0.75],
            trace_events_evicted: 3,
            profile_events_dropped: 1,
            traces_sampled_out: 2,
            slo_alerts_fired: 1,
            alloc: AllocStats::default(),
            solve_hist: HistSnapshot::default(),
            solve_exemplars: Vec::new(),
            http_hist: HistSnapshot::default(),
            http_by_route: vec![("GET /metrics".into(), 200, 4)],
        };
        let text = snap.render();
        for line in text.lines() {
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
        assert_eq!(metric_value(&text, "cache_hits"), Some(3.0));
        assert_eq!(metric_value(&text, "queue_rejected"), Some(5.0));
        assert_eq!(metric_value(&text, "queue_depth_interactive"), Some(1.0));
        assert_eq!(metric_value(&text, "queue_depth_bulk"), Some(1.0));
        assert_eq!(metric_value(&text, "bulk_queue_capacity"), Some(256.0));
        assert_eq!(metric_value(&text, "batches_submitted"), Some(2.0));
        assert_eq!(metric_value(&text, "batch_members"), Some(50.0));
        assert_eq!(metric_value(&text, "batch_dedup_hits"), Some(40.0));
        assert_eq!(metric_value(&text, "batches_live"), Some(1.0));
        assert_eq!(metric_value(&text, "drc_rejected"), Some(2.0));
        assert_eq!(metric_value(&text, "assay_jobs"), Some(3.0));
        assert_eq!(metric_value(&text, "storage_ops_inserted"), Some(4.0));
        assert_eq!(metric_value(&text, "journal_records_replayed"), Some(11.0));
        assert_eq!(metric_value(&text, "journal_corrupt_skipped"), Some(1.0));
        assert_eq!(metric_value(&text, "cache_files_loaded"), Some(4.0));
        assert_eq!(metric_value(&text, "cache_corrupt_dropped"), Some(1.0));
        assert_eq!(metric_value(&text, "compactions"), Some(1.0));
        assert_eq!(metric_value(&text, "persist_errors"), Some(0.0));
        assert_eq!(metric_value(&text, "persist_retries"), Some(6.0));
        assert_eq!(metric_value(&text, "breaker_trips"), Some(1.0));
        assert_eq!(metric_value(&text, "breaker_state"), Some(1.0));
        assert_eq!(metric_value(&text, "degraded_seconds"), Some(2.5));
        assert_eq!(metric_value(&text, "watchdog_cancels"), Some(1.0));
        assert_eq!(metric_value(&text, "solve_simplex_iterations"), Some(999.0));
        assert_eq!(metric_value(&text, "solve_time_seconds"), Some(1.5));
        assert_eq!(metric_value(&text, "uptime_seconds"), Some(12.0));
        assert_eq!(metric_value(&text, "worker_busy_fraction_0"), Some(0.25));
        assert_eq!(metric_value(&text, "worker_busy_fraction_1"), Some(0.75));
        assert_eq!(metric_value(&text, "trace_events_evicted"), Some(3.0));
        assert_eq!(metric_value(&text, "profile_events_dropped"), Some(1.0));
        assert_eq!(metric_value(&text, "traces_sampled_out"), Some(2.0));
        assert_eq!(metric_value(&text, "slo_alerts_fired"), Some(1.0));
        assert_eq!(metric_value(&text, "alloc_live_bytes"), Some(0.0));
        assert_eq!(metric_value(&text, "http_requests_total"), Some(0.0));
        assert_eq!(metric_value(&text, "nope"), None);
    }

    #[test]
    fn prometheus_render_parses_and_carries_histograms() {
        let solve_hist = {
            let h = columba_obs::Histogram::new();
            h.record(Duration::from_millis(40));
            h.record(Duration::from_millis(90));
            h.snapshot()
        };
        let snap = MetricsSnapshot {
            jobs_done: 2,
            uptime: Duration::from_secs(30),
            worker_busy: vec![0.5],
            solve_hist,
            solve_exemplars: vec![(columba_obs::bucket_index(40_000.0), 7, 0.04)],
            alloc: AllocStats {
                live_bytes: 1024,
                subsystems: vec![columba_obs::SubsystemAlloc {
                    name: "milp",
                    bytes: 512,
                    allocs: 3,
                }],
                ..AllocStats::default()
            },
            http_by_route: vec![
                ("GET /metrics".into(), 200, 3),
                ("POST /synthesize".into(), 202, 2),
            ],
            ..MetricsSnapshot::default()
        };
        let text = snap.render_prometheus();
        let samples = columba_obs::parse_prometheus(&text).expect("valid exposition");
        assert!(samples.iter().any(|s| s.name == "columba_jobs_done_total"));
        assert!(
            samples
                .iter()
                .any(|s| s.name == "columba_solve_seconds_bucket"),
            "histogram buckets must be present"
        );
        let p99 = samples
            .iter()
            .find(|s| s.name == "columba_solve_seconds_p99")
            .expect("p99 summary line");
        assert!(p99.value > 0.0);
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "columba_solve_seconds_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        let routed = samples
            .iter()
            .filter(|s| s.name == "columba_http_requests_total")
            .count();
        assert_eq!(routed, 2, "one sample per (route, status)");
        assert!(
            text.contains("columba_worker_busy_fraction{worker=\"0\"} 0.5"),
            "{text}"
        );
        assert!(
            text.contains("columba_queue_class_depth{class=\"interactive\"}"),
            "{text}"
        );
        assert!(
            samples
                .iter()
                .any(|s| s.name == "columba_batch_dedup_hits_total"),
            "batch counters must be exported"
        );
        let exemplar = samples
            .iter()
            .find_map(|s| {
                (s.name == "columba_solve_seconds_bucket")
                    .then_some(s.exemplar.as_ref())
                    .flatten()
            })
            .expect("an exemplar rides a solve bucket line");
        assert_eq!(exemplar.labels, vec![("job".to_string(), "7".to_string())]);
        assert!(
            text.contains("columba_alloc_subsystem_bytes_total{subsystem=\"milp\"} 512"),
            "{text}"
        );
        assert!(
            samples.iter().any(|s| s.name == "columba_alloc_live_bytes"),
            "alloc gauges must be exported"
        );
        assert!(
            text.contains("# HELP columba_jobs_done_total"),
            "every family carries a HELP line"
        );
    }
}
