//! Batch groups, QoS classes, and SSE event streams, end to end.
//!
//! The load-bearing test: a 50-member batch with 10 unique netlists
//! performs exactly 10 solves, and every member's result is
//! byte-identical to submitting its netlist serially on a fresh
//! service.

mod common;

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use columba_s::netlist::{generators, MuxCount};
use columba_service::{
    BatchId, ExportKind, HttpConfig, HttpServer, JobId, JobState, QosClass, Service, ServiceConfig,
    SubmitError,
};
use common::{deterministic_options, parse_response, request};

/// A chain of 1–3 units drawn from `{mixer, chamber}`: 14 distinct
/// netlists, each tiny enough to solve quickly under the deterministic
/// budgets.
fn chain_netlist(tag: usize, units: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut text = format!("chip c{tag}\n");
    for (i, unit) in units.iter().enumerate() {
        let _ = writeln!(text, "{unit} u{i}");
    }
    text.push_str("port a\nport b\n");
    text.push_str("connect a -> u0.left\n");
    for i in 1..units.len() {
        let _ = writeln!(text, "connect u{}.right -> u{i}.left", i - 1);
    }
    let _ = writeln!(text, "connect u{}.right -> b", units.len() - 1);
    text
}

/// Ten structurally distinct netlists.
fn ten_unique() -> Vec<String> {
    let combos: [&[&str]; 10] = [
        &["mixer"],
        &["chamber"],
        &["mixer", "mixer"],
        &["mixer", "chamber"],
        &["chamber", "mixer"],
        &["chamber", "chamber"],
        &["mixer", "mixer", "mixer"],
        &["mixer", "mixer", "chamber"],
        &["mixer", "chamber", "mixer"],
        &["chamber", "mixer", "mixer"],
    ];
    combos
        .iter()
        .enumerate()
        .map(|(tag, units)| chain_netlist(tag, units))
        .collect()
}

fn quick_service(workers: usize) -> Service {
    Service::start(ServiceConfig {
        workers,
        queue_capacity: 64,
        bulk_queue_capacity: 64,
        options: deterministic_options(),
        ..ServiceConfig::default()
    })
}

#[test]
fn batch_dedups_to_one_solve_per_unique_and_matches_serial_bytes() {
    let unique = ten_unique();

    // the serial reference: each unique netlist on a fresh service
    let reference: Vec<(String, String)> = {
        let service = quick_service(2);
        let designs = unique
            .iter()
            .map(|text| {
                let id = service.submit_text(text.clone()).expect("admitted");
                let status = service.wait(id, Duration::from_secs(300)).expect("known");
                assert_eq!(status.state, JobState::Done, "{:?}", status.error);
                let design = service.export(id, ExportKind::Svg).expect("design");
                (design.svg.clone(), design.scr.clone())
            })
            .collect();
        service.shutdown();
        designs
    };

    // 50 members: each unique netlist five times, interleaved
    let members: Vec<String> = (0..50).map(|i| unique[i % 10].clone()).collect();
    let service = quick_service(2);
    let (batch, jobs) = service
        .submit_batch(&members, QosClass::Bulk)
        .expect("admitted");
    assert_eq!(jobs.len(), 50, "every member gets a job id");
    let distinct: std::collections::HashSet<JobId> = jobs.iter().copied().collect();
    assert_eq!(distinct.len(), 10, "members collapse to one job per unique");

    let status = service
        .wait_batch(batch, Duration::from_secs(300))
        .expect("batch known");
    assert!(status.is_terminal());
    let summary = status.summary();
    assert_eq!(summary.members, 50);
    assert_eq!(summary.unique, 10);
    assert_eq!(summary.done, 50, "every member (duplicates included) done");

    // exactly one solve per unique netlist: all cache misses, no
    // repeats — duplicates never even reached the cache
    let m = service.metrics();
    assert_eq!(m.cache.misses, 10, "exactly ten solves");
    assert_eq!(m.cache.hits, 0, "duplicates dedup before submission");
    assert_eq!(m.batches_submitted, 1);
    assert_eq!(m.batch_members, 50);
    assert_eq!(m.batch_dedup_hits, 40);

    // every member's bytes match its serial reference
    for (i, job) in jobs.iter().enumerate() {
        let design = service.export(*job, ExportKind::Svg).expect("design");
        let (svg, scr) = &reference[i % 10];
        assert_eq!(&design.svg, svg, "member {i} svg must match serial run");
        assert_eq!(&design.scr, scr, "member {i} scr must match serial run");
    }
    service.shutdown();
}

#[test]
fn interactive_admission_survives_bulk_saturation() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        bulk_queue_capacity: 3,
        options: deterministic_options(),
        ..ServiceConfig::default()
    });
    // hold the worker so queues stay full for the admission checks:
    // interactive jobs drain before any bulk work, so a stack of them
    // keeps the bulk queue untouched however fast one solve runs
    let busy = service
        .submit_text(chain_netlist(90, &["mixer"]))
        .expect("admitted");
    let pins: Vec<_> = (0..4)
        .map(|i| {
            service
                .submit_text(chain_netlist(80 + i, &["mixer"]))
                .expect("admitted")
        })
        .collect();

    let bulk: Vec<String> = (0..3)
        .map(|i| chain_netlist(91 + i, &["chamber"]))
        .collect();
    let (batch, _) = service
        .submit_batch(&bulk, QosClass::Bulk)
        .expect("bulk batch fits its budget");

    // the bulk queue is saturated: one more bulk member is rejected...
    let overflow = vec![chain_netlist(99, &["mixer", "chamber"])];
    match service.submit_batch(&overflow, QosClass::Bulk) {
        Err(SubmitError::QueueFull { depth, capacity }) => {
            assert_eq!(capacity, 3, "rejection quotes the bulk budget");
            assert!(depth >= 3, "bulk depth at least its capacity, got {depth}");
        }
        other => panic!("saturated bulk queue must reject, got {other:?}"),
    }

    // ...but interactive traffic still gets in: separate budget
    let interactive = service
        .submit_text(chain_netlist(95, &["mixer"]))
        .expect("interactive admission is independent of bulk saturation");

    for id in [busy, interactive].into_iter().chain(pins) {
        let status = service.wait(id, Duration::from_secs(300)).expect("known");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    }
    let status = service
        .wait_batch(batch, Duration::from_secs(300))
        .expect("batch known");
    assert!(status.is_terminal());
    service.shutdown();
}

#[test]
fn http_batch_submit_status_and_event_stream() {
    let service = Arc::new(quick_service(2));
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default()).expect("bind");
    let addr = server.addr();

    // three members, two unique, %%-separated
    let a = chain_netlist(50, &["mixer"]);
    let b = chain_netlist(51, &["chamber"]);
    let body = format!("{a}%%\n{b}%%\n{a}");
    let (status, text) = request(addr, "POST", "/batch", Some(&body));
    assert_eq!(status, 202, "{text}");
    assert!(text.contains("members 3\n"), "{text}");
    let batch_id = text
        .lines()
        .find_map(|l| l.strip_prefix("batch "))
        .expect("batch id line")
        .to_string();
    let member_jobs: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split(" job ").nth(1))
        .collect();
    assert_eq!(member_jobs.len(), 3);
    assert_eq!(member_jobs[0], member_jobs[2], "duplicates share a job");
    assert_ne!(member_jobs[0], member_jobs[1]);

    // status endpoint: group summary + per-member lines
    let (status, text) = request(addr, "GET", &format!("/batch/{batch_id}"), None);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("members 3\n"), "{text}");
    assert!(text.contains("unique 2\n"), "{text}");
    assert!(text.contains("class bulk\n"), "{text}");

    // the group event stream runs to `end` as members finish
    let raw = format!("GET /batch/{batch_id}/events HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    conn.write_all(raw.as_bytes()).expect("send");
    let mut stream_text = String::new();
    conn.read_to_string(&mut stream_text).expect("read stream");
    assert!(
        stream_text.contains("Transfer-Encoding: chunked"),
        "{stream_text}"
    );
    assert!(
        stream_text.contains("Content-Type: text/event-stream"),
        "{stream_text}"
    );
    assert!(stream_text.contains("event: batch"), "{stream_text}");
    assert!(stream_text.contains("event: end"), "{stream_text}");
    assert!(
        stream_text.contains("data: state done"),
        "the stream must end because the group finished: {stream_text}"
    );
    assert!(stream_text.ends_with("0\r\n\r\n"), "chunked terminator");

    // after the stream closed, the batch reports done over plain GET
    let (status, text) = request(addr, "GET", &format!("/batch/{batch_id}"), None);
    assert_eq!(status, 200);
    assert!(text.contains("state done\n"), "{text}");
    assert!(text.contains("done 3\n"), "{text}");

    // unknown and malformed ids stay plain 4xx, never a stream
    let (status, _) = request(addr, "GET", "/batch/99999/events", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/batch/banana", None);
    assert_eq!(status, 400);

    drop(server);
    service.shutdown();
}

#[test]
fn job_event_stream_replays_lifecycle_and_ends() {
    let service = Arc::new(quick_service(1));
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default()).expect("bind");
    let addr = server.addr();

    let (status, text) = request(
        addr,
        "POST",
        "/synthesize",
        Some(&chain_netlist(60, &["mixer", "chamber"])),
    );
    assert_eq!(status, 202, "{text}");
    let id = text
        .lines()
        .find_map(|l| l.strip_prefix("id "))
        .expect("id line")
        .to_string();

    // open the stream while the job is live; it must follow the job to
    // completion and then end
    let raw = format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    conn.write_all(raw.as_bytes()).expect("send");
    let mut stream_text = String::new();
    conn.read_to_string(&mut stream_text).expect("read stream");
    assert!(stream_text.starts_with("HTTP/1.1 200 OK"), "{stream_text}");
    assert!(stream_text.contains("event: admitted"), "{stream_text}");
    assert!(stream_text.contains("event: started"), "{stream_text}");
    assert!(stream_text.contains("event: solved"), "{stream_text}");
    assert!(
        stream_text.contains("event: end\ndata: state done"),
        "{stream_text}"
    );
    // frames carry the JSONL trace record as their data line
    assert!(stream_text.contains("data: {\"ts_us\":"), "{stream_text}");

    drop(server);
    service.shutdown();
}

#[test]
fn slow_sse_consumer_neither_blocks_workers_nor_outlives_deadline() {
    // slow by work, not by the clock: chip_ip(4) searched for 600 nodes
    let mut options = deterministic_options();
    options.layout.node_limit = 600;
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        bulk_queue_capacity: 64,
        options,
        ..ServiceConfig::default()
    }));
    let config = HttpConfig {
        sse_deadline: Duration::from_secs(1),
        sse_heartbeat: Duration::from_millis(100),
        ..HttpConfig::default()
    };
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    // a genuinely slow solve (several seconds in a debug build): its
    // stream replays the admitted/started frames, then idles while the
    // MILP runs — the idle window where heartbeats must flow, and long
    // enough that the 1 s stream deadline fires first
    let slow = service
        .submit_text(generators::chip_ip(4, MuxCount::One).to_text())
        .expect("admitted");

    // the "slow consumer": opens the stream and never reads
    let raw = format!("GET /jobs/{slow}/events HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send");
    let t0 = Instant::now();

    // the stalled stream must not block the worker: work submitted
    // after it still runs to completion
    let quick = service
        .submit_text(chain_netlist(72, &["mixer"]))
        .expect("admitted");

    // past the stream deadline, the server has torn the stream down:
    // the socket reaches EOF instead of leaking with the job still live
    std::thread::sleep(Duration::from_millis(1300).saturating_sub(t0.elapsed()));
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut leftover = String::new();
    conn.read_to_string(&mut leftover)
        .expect("server must close the stream");
    assert!(
        t0.elapsed() < Duration::from_secs(12),
        "stream outlived its deadline"
    );
    let (status, body) = parse_response(&leftover);
    assert_eq!(status, 200);
    assert!(body.contains("event: end"), "{body}");
    assert!(
        body.contains(": hb"),
        "an idle stream must heartbeat: {body}"
    );
    assert!(
        body.contains("data: reason deadline") || body.contains("data: state done"),
        "the stream must say why it ended: {body}"
    );

    // everything still completes
    for id in [slow, quick] {
        let status = service.wait(id, Duration::from_secs(300)).expect("known");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    }
    drop(server);
    service.shutdown();
}

#[test]
fn empty_and_single_class_batches_are_rejected_cleanly() {
    let service = quick_service(1);
    assert!(matches!(
        service.submit_batch(&[], QosClass::Bulk),
        Err(SubmitError::QueueFull {
            depth: 0,
            capacity: 0
        })
    ));
    // unknown ids answer None, not panic
    assert!(service.batch_status(BatchId(424_242)).is_none());
    service.shutdown();
}
