//! End-to-end assay front end over real TCP: POST an assay text to
//! `/synthesize-assay`, poll to done, check the schedule stats and
//! trace events, then resubmit and prove the cache hit (same canonical
//! assay + schedule options ⇒ same ContentKey ⇒ zero new solve work).

mod common;

use std::sync::Arc;
use std::time::Duration;

use columba_service::{
    metric_value, HttpConfig, HttpServer, QosClass, ScheduleOptions, Service, ServiceConfig,
    StoragePolicy,
};

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

fn start(policy: StoragePolicy) -> (Arc<Service>, HttpServer) {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        options: common::deterministic_options(),
        schedule: ScheduleOptions {
            policy,
            ..ScheduleOptions::default()
        },
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
        .expect("bind an ephemeral port");
    (service, server)
}

#[test]
fn assay_submit_schedules_synthesizes_and_caches() {
    let (service, server) = start(StoragePolicy::Dedicated);
    let addr = server.addr();
    let assay = std::fs::read_to_string(common::cases_dir().join("pooled_capture.assay"))
        .expect("bundled assay");

    // submit and poll to done
    let (status, body) = common::request(addr, "POST", "/synthesize-assay", Some(&assay));
    assert_eq!(status, 202, "{body}");
    let id = field(&body, "id").expect("202 body carries the id").trim();
    let done = common::poll_terminal(addr, id, Duration::from_secs(300));
    assert_eq!(field(&done, "state"), Some("done"), "{done}");
    assert_eq!(field(&done, "from_cache"), Some("false"), "{done}");
    assert_eq!(field(&done, "drc_clean"), Some("true"), "{done}");

    // schedule stats land in the status
    assert_eq!(field(&done, "schedule_policy"), Some("dedicated"), "{done}");
    assert_eq!(field(&done, "schedule_ops"), Some("5"), "{done}");
    let storage_ops: usize = field(&done, "schedule_storage_ops")
        .expect("storage ops")
        .parse()
        .expect("integer");
    assert!(storage_ops >= 1, "idle preps must be stored: {done}");
    let makespan: f64 = field(&done, "schedule_makespan_s")
        .expect("makespan")
        .parse()
        .expect("number");
    assert!(makespan > 120.0, "makespan must exceed the capture: {done}");

    // trace carries the schedule lifecycle
    let (status, trace) = common::request(addr, "GET", &format!("/jobs/{id}/trace"), None);
    assert_eq!(status, 200);
    assert!(trace.contains("\"event\":\"scheduled\""), "{trace}");
    assert!(trace.contains("\"event\":\"storage_inserted\""), "{trace}");

    // the emitted design exports like any other
    let (status, svg) = common::request(addr, "GET", &format!("/jobs/{id}/svg"), None);
    assert_eq!(status, 200);
    assert!(svg.contains("<svg"), "{}", &svg[..svg.len().min(80)]);

    // resubmitting the same assay is a cache hit — the canonical assay
    // plus schedule options hash to the same ContentKey
    let (status, body) = common::request(addr, "POST", "/synthesize-assay", Some(&assay));
    assert_eq!(status, 202, "{body}");
    let id2 = field(&body, "id").expect("id").trim().to_string();
    let done2 = common::poll_terminal(addr, &id2, Duration::from_secs(60));
    assert_eq!(field(&done2, "state"), Some("done"), "{done2}");
    assert_eq!(field(&done2, "from_cache"), Some("true"), "{done2}");
    // the hit still reports its schedule stats (scheduling reruns; only
    // the solve is skipped)
    assert_eq!(
        field(&done2, "schedule_policy"),
        Some("dedicated"),
        "{done2}"
    );

    // a statement-reordered but semantically identical assay also hits:
    // canonicalization makes the key line-order invariant
    let reordered = {
        let mut header = Vec::new();
        let mut ops = Vec::new();
        let mut deps = Vec::new();
        for line in assay.lines() {
            let t = line.trim();
            if t.starts_with("op ") {
                ops.push(line);
            } else if t.starts_with("dep ") {
                deps.push(line);
            } else if !t.is_empty() && !t.starts_with('#') {
                header.push(line);
            }
        }
        ops.reverse();
        deps.reverse();
        header.extend(ops);
        header.extend(deps);
        header.join("\n")
    };
    let (status, body) = common::request(addr, "POST", "/synthesize-assay", Some(&reordered));
    assert_eq!(status, 202, "{body}");
    let id3 = field(&body, "id").expect("id").trim().to_string();
    let done3 = common::poll_terminal(addr, &id3, Duration::from_secs(60));
    assert_eq!(field(&done3, "from_cache"), Some("true"), "{done3}");

    // metrics reflect the assay pipeline
    let (status, metrics) = common::request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(metric_value(&metrics, "assay_jobs"), Some(3.0), "{metrics}");
    assert_eq!(metric_value(&metrics, "cache_hits"), Some(2.0));
    assert!(
        metric_value(&metrics, "storage_ops_inserted").is_some_and(|v| v >= 3.0),
        "{metrics}"
    );

    drop(server);
    service.shutdown();
}

#[test]
fn assay_policies_sweep_to_different_makespans() {
    // The same assay under dedicated vs distributed storage completes
    // under both policies with different makespans (dedicated pays the
    // chamber transport, distributed parks fluids in their channels).
    let assay = std::fs::read_to_string(common::cases_dir().join("pooled_capture.assay"))
        .expect("bundled assay");
    let mut makespans = Vec::new();
    for policy in [StoragePolicy::Dedicated, StoragePolicy::Distributed] {
        let (service, server) = start(policy);
        let addr = server.addr();
        let (status, body) = common::request(addr, "POST", "/synthesize-assay", Some(&assay));
        assert_eq!(status, 202, "{body}");
        let id = field(&body, "id").expect("id").trim().to_string();
        let done = common::poll_terminal(addr, &id, Duration::from_secs(300));
        assert_eq!(field(&done, "state"), Some("done"), "{done}");
        assert_eq!(field(&done, "drc_clean"), Some("true"), "{done}");
        let makespan: f64 = field(&done, "schedule_makespan_s")
            .expect("makespan")
            .parse()
            .expect("number");
        makespans.push(makespan);
        drop(server);
        service.shutdown();
    }
    assert!(
        (makespans[0] - makespans[1]).abs() > 1e-9,
        "dedicated {} vs distributed {} should differ",
        makespans[0],
        makespans[1]
    );
}

#[test]
fn batch_dedups_assays_on_their_canonical_text() {
    // two copies of one assay, one with an extra comment line: the batch
    // keys them like the cache does (canonical assay + schedule options),
    // so they collapse onto one job instead of two solves
    let service = Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        ..ServiceConfig::default()
    });
    let assay = std::fs::read_to_string(common::cases_dir().join("pooled_capture.assay"))
        .expect("bundled assay");
    let commented = format!("# the same assay, resubmitted\n{assay}");
    let (batch, jobs) = service
        .submit_batch(&[assay, commented], QosClass::Bulk)
        .expect("batch admitted");
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[0], jobs[1], "both members map to one job");
    let status = service.batch_status(batch).expect("batch known");
    assert_eq!(status.summary().unique, 1);
    service.shutdown();
}
