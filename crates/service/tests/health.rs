//! The `/healthz` readiness contract: while startup recovery is still
//! replaying a large journal, the endpoint answers `503` with a
//! `Retry-After` header and a JSON report (`ready:false`,
//! `recovering:true`) — so a load balancer keeps traffic away — and
//! flips to `200` with `ready:true` once the replay completes.

mod common;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columba_service::{
    FsyncPolicy, HttpConfig, HttpServer, Journal, JournalRecord, PersistConfig, QosClass, RealFs,
    Service, ServiceConfig,
};

fn fresh_state_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("columba-health-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

#[test]
fn healthz_returns_503_with_retry_after_until_recovery_completes() {
    // a large journal of live submissions, so startup recovery has real
    // work; the replay throttle stretches it into a window the test can
    // observe deterministically
    let dir = fresh_state_dir("replay");
    fs::create_dir_all(&dir).expect("mkdir");
    {
        let (mut journal, _) = Journal::open(
            Arc::new(RealFs),
            &dir.join("journal.log"),
            FsyncPolicy::Never,
        )
        .expect("journal");
        for id in 0..240 {
            journal
                .append(&JournalRecord::Submitted {
                    id,
                    class: QosClass::Bulk,
                    text: Arc::new(format!("chip broken{id}\nport only\n")),
                })
                .expect("append");
        }
    }

    let mut options = common::deterministic_options();
    options.layout.time_limit = Duration::from_secs(60);
    let service = Arc::new(
        Service::open(ServiceConfig {
            workers: 2,
            options,
            persist: Some(PersistConfig {
                state_dir: dir.clone(),
                fsync_policy: FsyncPolicy::Never,
            }),
            replay_throttle: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        })
        .expect("state dir opens"),
    );
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default()).expect("bind");
    let addr = server.addr();

    // mid-replay: alive but not ready
    let first = common::send_raw(addr, HEALTHZ);
    assert!(first.starts_with("HTTP/1.1 503"), "{first}");
    assert!(
        first.contains("Retry-After: "),
        "a not-ready 503 must tell the poller when to come back: {first}"
    );
    assert!(first.contains("\"ready\":false"), "{first}");
    assert!(first.contains("\"recovering\":true"), "{first}");

    // readiness arrives exactly when the replay completes — never an
    // error, never a hang, monotonic 503 -> 200
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = common::send_raw(addr, HEALTHZ);
        if resp.starts_with("HTTP/1.1 200") {
            assert!(resp.contains("\"ready\":true"), "{resp}");
            assert!(resp.contains("\"recovering\":false"), "{resp}");
            break;
        }
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(
            Instant::now() < deadline,
            "recovery never completed; last: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // and the now-ready service serves the normal API
    let (status, body) = common::request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200, "{body}");
    drop(server);
    service.shutdown();
}

#[test]
fn healthz_is_immediately_ready_without_persistence() {
    // no journal, nothing to replay: ready from the first poll
    let mut options = common::deterministic_options();
    options.layout.time_limit = Duration::from_secs(60);
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options,
        ..ServiceConfig::default()
    }));
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default()).expect("bind");
    let resp = common::send_raw(server.addr(), HEALTHZ);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"ready\":true"), "{resp}");
    assert!(resp.contains("\"breaker\":\"closed\""), "{resp}");
    drop(server);
    service.shutdown();
}
