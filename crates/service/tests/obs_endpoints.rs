//! End-to-end observability over real TCP: a solved job serves a JSONL
//! lifecycle trace and a Chrome-trace span profile whose solver spans
//! nest under the job root; `/metrics?format=prometheus` parses under
//! the exposition mini-parser and carries solve-latency histogram
//! buckets; a full job log surfaces its evictions, and every job the
//! service still knows keeps its trace.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use columba_obs::{parse_json, parse_prometheus, validate_chrome_trace, Json};
use columba_service::{metric_value, HttpConfig, HttpServer, JobState, Service, ServiceConfig};

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

/// One parsed span: `(name, parent span id)`.
type SpanMap = HashMap<u64, (String, Option<u64>)>;

/// Indexes a Chrome trace document by `args.span_id`.
fn index_spans(doc: &Json) -> SpanMap {
    let mut spans = SpanMap::new();
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    for event in events {
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .expect("event name")
            .to_string();
        let args = event.get("args").expect("args object");
        let id = args.get("span_id").and_then(Json::as_f64).expect("span_id") as u64;
        let parent = args.get("parent").and_then(Json::as_f64).map(|p| p as u64);
        spans.insert(id, (name, parent));
    }
    spans
}

/// Whether some span named `name` has an ancestor named `ancestor`.
fn nests_under(spans: &SpanMap, name: &str, ancestor: &str) -> bool {
    'outer: for (mut cursor, (n, _)) in spans.iter().map(|(id, v)| (*id, v)) {
        if n != name {
            continue;
        }
        loop {
            let Some((_, parent)) = spans.get(&cursor) else {
                continue 'outer;
            };
            let Some(parent) = parent else {
                continue 'outer;
            };
            let Some((pname, _)) = spans.get(parent) else {
                continue 'outer;
            };
            if pname == ancestor {
                return true;
            }
            cursor = *parent;
        }
    }
    false
}

#[test]
fn trace_profile_and_prometheus_endpoints() {
    // deep enough that the search meets a node LP the crash start
    // refuses (chip4ip's first is near node 31), which runs phase 1
    let mut options = common::deterministic_options();
    options.layout.node_limit = 48;
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options,
        // Debug-build solves run far slower than the production 30s
        // solve-latency objective; loosen the thresholds so the
        // clean-run assertion below tests the engine, not the build
        // profile.
        slos: vec![
            columba_obs::SloDef::availability("availability", 0.999),
            columba_obs::SloDef::latency("http_latency", 0.99, Duration::from_secs(30)),
            columba_obs::SloDef::latency("solve_latency", 0.95, Duration::from_secs(3600)),
        ],
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let netlist =
        std::fs::read_to_string(common::cases_dir().join("chip4ip.netlist")).expect("bundled case");

    let (status, body) = common::request(addr, "POST", "/synthesize", Some(&netlist));
    assert_eq!(status, 202, "{body}");
    let id = field(&body, "id").expect("id").trim().to_string();
    let done = common::poll_terminal(addr, &id, Duration::from_secs(300));
    assert_eq!(field(&done, "state"), Some("done"), "{done}");

    // ---- allocator accounting: the job status carries the worker's
    // peak live bytes (the tracking allocator is on by default)
    assert!(
        field(&done, "peak_alloc_bytes").is_some_and(|v| v.trim().parse::<u64>().is_ok()),
        "job status must carry peak_alloc_bytes: {done}"
    );

    // ---- per-job lifecycle trace: JSONL, every line valid JSON
    let (status, trace) = common::request(addr, "GET", &format!("/jobs/{id}/trace"), None);
    assert_eq!(status, 200, "{trace}");
    assert!(!trace.trim().is_empty(), "trace must not be empty");
    let mut kinds = Vec::new();
    for line in trace.lines() {
        let doc = parse_json(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        if let Some(kind) = doc.get("event").and_then(Json::as_str) {
            kinds.push(kind.to_string());
        }
    }
    assert!(kinds.iter().any(|k| k == "started"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "solved"), "{kinds:?}");

    // ---- per-job profile: a valid Chrome trace with the span chain
    // job → rung.full_milp → laygen → milp.solve → simplex/bnb, + layval
    let (status, profile) = common::request(addr, "GET", &format!("/jobs/{id}/profile"), None);
    assert_eq!(status, 200, "{profile}");
    let n = validate_chrome_trace(&profile).expect("profile is a valid Chrome trace");
    assert!(n > 0, "profile must contain events");
    let doc = parse_json(&profile).expect("profile parses");
    let spans = index_spans(&doc);
    let names: Vec<&str> = spans.values().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "job",
        "laygen",
        "laygen.solve",
        "milp.solve",
        "simplex.phase1",
        "simplex.phase2",
        "layval",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected} missing from profile; got {names:?}"
        );
    }
    for (child, ancestor) in [
        ("laygen", "job"),
        ("milp.solve", "laygen.solve"),
        ("simplex.phase1", "milp.solve"),
        ("simplex.phase2", "milp.solve"),
        ("layval", "job"),
    ] {
        assert!(
            nests_under(&spans, child, ancestor),
            "{child} must nest under {ancestor}"
        );
    }
    if names.contains(&"bnb.search") {
        assert!(nests_under(&spans, "bnb.search", "milp.solve"));
    }

    // ---- profile/trace error paths
    let (status, _) = common::request(addr, "GET", "/jobs/999999/trace", None);
    assert_eq!(status, 404);
    let (status, _) = common::request(addr, "GET", "/jobs/999999/profile", None);
    assert_eq!(status, 404);
    let (status, _) = common::request(addr, "GET", "/jobs/banana/profile", None);
    assert_eq!(status, 400);

    // ---- Prometheus exposition parses and carries the solve histogram
    let (status, prom) = common::request(addr, "GET", "/metrics?format=prometheus", None);
    assert_eq!(status, 200);
    let samples = parse_prometheus(&prom).expect("valid Prometheus exposition");
    let buckets = samples
        .iter()
        .filter(|s| s.name == "columba_solve_seconds_bucket")
        .count();
    assert!(buckets > 10, "solve histogram buckets must be exposed");
    for name in [
        "columba_solve_seconds_p50",
        "columba_solve_seconds_p99",
        "columba_solve_seconds_count",
        "columba_http_request_seconds_count",
        "columba_uptime_seconds",
        "columba_jobs_done_total",
        "columba_worker_busy_fraction",
        "columba_http_requests_total",
        "columba_alloc_live_bytes",
        "columba_alloc_allocations_total",
        "columba_traces_sampled_out_total",
        "columba_slo_alerts_fired_total",
    ] {
        assert!(
            samples.iter().any(|s| s.name == name),
            "{name} missing from exposition"
        );
    }
    let solve_count = samples
        .iter()
        .find(|s| s.name == "columba_solve_seconds_count")
        .expect("count");
    assert!(solve_count.value >= 1.0, "one solve was recorded");

    // ---- an exemplar rides a solve bucket and its job id resolves to
    // a live trace (the exemplar contract: only retained jobs qualify)
    let exemplar = samples
        .iter()
        .find_map(|s| {
            (s.name == "columba_solve_seconds_bucket")
                .then_some(s.exemplar.as_ref())
                .flatten()
        })
        .expect("a solve bucket carries an exemplar");
    let (label, ex_job) = exemplar.labels.first().expect("exemplar label");
    assert_eq!(label, "job");
    let (status, ex_trace) = common::request(addr, "GET", &format!("/jobs/{ex_job}/trace"), None);
    assert_eq!(status, 200, "exemplar job {ex_job} must resolve to a trace");
    assert!(
        !ex_trace.trim().is_empty(),
        "exemplar job {ex_job} trace must be retained"
    );

    // ---- GET /slo: JSON burn-rate report; nothing alerts on a healthy
    // run, and the HTTP traffic above has fed the availability trackers
    let (status, slo) = common::request(addr, "GET", "/slo", None);
    assert_eq!(status, 200, "{slo}");
    let slo_doc = parse_json(&slo).expect("slo body is JSON");
    slo_doc.get("at_us").and_then(Json::as_f64).expect("at_us");
    let slos = slo_doc.get("slos").and_then(Json::as_arr).expect("slos");
    assert!(
        slos.iter()
            .any(|r| r.get("slo").and_then(Json::as_str) == Some("availability")),
        "availability trackers must exist after HTTP traffic: {slo}"
    );
    for report in slos {
        assert!(
            matches!(report.get("alerting"), Some(Json::Bool(false))),
            "no SLO may alert during a healthy run: {slo}"
        );
        let windows = report
            .get("windows")
            .and_then(Json::as_arr)
            .expect("windows");
        assert!(!windows.is_empty(), "{slo}");
    }

    // ---- flat format keeps working and gained the new lines
    let (status, flat) = common::request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metric_value(&flat, "uptime_seconds").is_some_and(|v| v > 0.0));
    assert!(metric_value(&flat, "worker_busy_fraction_0").is_some());
    assert!(metric_value(&flat, "solve_seconds_p50").is_some_and(|v| v > 0.0));
    assert!(metric_value(&flat, "http_requests_total").is_some_and(|v| v >= 1.0));
    assert_eq!(metric_value(&flat, "jobs_done"), Some(1.0));
    assert!(
        metric_value(&flat, "alloc_live_bytes").is_some_and(|v| v > 0.0),
        "tracking allocator gauges must be live:\n{flat}"
    );
    assert_eq!(metric_value(&flat, "traces_sampled_out"), Some(0.0));
    assert_eq!(metric_value(&flat, "slo_alerts_fired"), Some(0.0));

    // ---- service-level HTTP span profile
    let (status, http_profile) = common::request(addr, "GET", "/profile", None);
    assert_eq!(status, 200);
    let n = validate_chrome_trace(&http_profile).expect("valid Chrome trace");
    assert!(n > 0, "http.request spans were recorded");
    assert!(http_profile.contains("http.request"), "{http_profile}");

    drop(server);
    service.shutdown();
}

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";

#[test]
fn full_job_log_evicts_and_reports() {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let (status, body) = common::request(addr, "POST", "/synthesize", Some(TINY));
    assert_eq!(status, 202, "{body}");
    let id = id_of(&body);
    let done = common::poll_terminal(addr, &id, Duration::from_secs(120));
    assert_eq!(field(&done, "state"), Some("done"), "{done}");

    // every export appends one `exported` event; 300 of them overflow the
    // job's 256-event log, which keeps the newest and counts the rest
    for _ in 0..300 {
        let (status, _) = common::request(addr, "GET", &format!("/jobs/{id}/svg"), None);
        assert_eq!(status, 200);
    }
    let (status, trace) = common::request(addr, "GET", &format!("/jobs/{id}/trace"), None);
    assert_eq!(status, 200);
    assert_eq!(trace.lines().count(), 256, "the log holds its bound");
    assert!(
        trace.lines().all(|l| l.contains("\"exported\"")),
        "the oldest events were dropped first:\n{trace}"
    );
    let (status, flat) = common::request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metric_value(&flat, "trace_events_evicted").is_some_and(|v| v >= 1.0),
        "evictions must surface in /metrics:\n{flat}"
    );
    drop(server);
    service.shutdown();
}

#[test]
fn every_known_job_keeps_its_trace() {
    // The record owns the log: as long as `status` answers for a job, its
    // trace is there, however many jobs ran after it.
    let service = Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        ..ServiceConfig::default()
    });
    let mut ids = Vec::new();
    for _ in 0..1030 {
        let id = service.submit_text(TINY).expect("admitted");
        let done = service.wait(id, Duration::from_secs(120)).expect("known");
        assert_eq!(done.state, JobState::Done, "{done:?}");
        ids.push(id);
    }
    let mut known = 0;
    for id in ids {
        if service.status(id).is_none() {
            continue;
        }
        known += 1;
        let trace = service.job_trace(id).expect("a known job has a trace");
        assert!(
            !trace.is_empty(),
            "job {id} is known but its trace is empty"
        );
    }
    assert_eq!(known, 1030, "the 4,096-record cap keeps every job here");
    assert_eq!(service.metrics().trace_events_evicted, 0);
    service.shutdown();
}

#[test]
fn tail_sampling_drops_fast_clean_traces() {
    // Head-sample 1-in-2 with an unreachable slow threshold: job 1
    // (1 % 2 != 0) is sampled out, job 2 is head-sampled in. Errors,
    // degradation and slowness would override — neither applies here.
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        trace_head_sample: 2,
        trace_keep_slow: Duration::from_secs(3600),
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let one = "chip t\nmixer m1\nport a\nport b\n\
               connect a -> m1.left\nconnect m1.right -> b\n";
    let two = "chip u\nmixer m1\nmixer m2\nport a\nport b\n\
               connect a -> m1.left\nconnect m1.right -> m2.left\n\
               connect m2.right -> b\n";
    for (netlist, expect_id) in [(one, "1"), (two, "2")] {
        let (status, body) = common::request(addr, "POST", "/synthesize", Some(netlist));
        assert_eq!(status, 202, "{body}");
        assert_eq!(field(&body, "id").map(str::trim), Some(expect_id), "{body}");
        let done = common::poll_terminal(addr, &id_of(&body), Duration::from_secs(120));
        assert_eq!(field(&done, "state"), Some("done"), "{done}");
    }

    // job 1: known but sampled out — empty trace, profile gone
    let (status, trace) = common::request(addr, "GET", "/jobs/1/trace", None);
    assert_eq!(status, 200);
    assert!(
        trace.trim().is_empty(),
        "sampled-out job must serve an empty trace:\n{trace}"
    );
    let (status, _) = common::request(addr, "GET", "/jobs/1/profile", None);
    assert_eq!(status, 409, "sampled-out job has no profile");

    // job 2: head-sampled in — full trace and profile survive
    let (status, trace) = common::request(addr, "GET", "/jobs/2/trace", None);
    assert_eq!(status, 200);
    assert!(trace.contains("\"solved\""), "{trace}");
    let (status, profile) = common::request(addr, "GET", "/jobs/2/profile", None);
    assert_eq!(status, 200);
    assert!(validate_chrome_trace(&profile).expect("valid trace") > 0);

    let (status, flat) = common::request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(
        metric_value(&flat, "traces_sampled_out"),
        Some(1.0),
        "{flat}"
    );
    drop(server);
    service.shutdown();
}

/// The trimmed id from a `202` submit body.
fn id_of(body: &str) -> String {
    field(body, "id").expect("id").trim().to_string()
}
