//! Shared helpers for the service integration tests: bundled-case
//! loading, deterministic synthesis options, and a tiny raw-TCP HTTP
//! client (the tests exercise the real wire format, not the router
//! functions).

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use columba_s::{LayoutOptions, SynthesisOptions};

/// The bundled `cases/` directory at the workspace root.
pub fn cases_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

/// Every bundled `.netlist` case as `(file stem, text)`, sorted by name.
pub fn bundled_cases() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = std::fs::read_dir(cases_dir())
        .expect("cases/ exists at the workspace root")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "netlist"))
        .map(|e| {
            let name = e
                .path()
                .file_stem()
                .expect("netlist files have stems")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(e.path()).expect("case file is readable");
            (name, text)
        })
        .collect();
    cases.sort();
    cases
}

/// Options under which synthesis is bit-for-bit deterministic: the node
/// budget binds long before the (generous) time budget, so reruns and
/// the serial baseline agree byte-for-byte. Budgets are small and the
/// auto-scale threshold low to keep debug-build test time reasonable —
/// determinism needs the *limits* to be deterministic, not deep search.
pub fn deterministic_options() -> SynthesisOptions {
    SynthesisOptions {
        layout: LayoutOptions {
            time_limit: Duration::from_secs(120),
            node_limit: 24,
            threads: 1,
            ..LayoutOptions::default()
        },
        scale_threshold: 12,
        ..SynthesisOptions::default()
    }
}

/// Writes `raw` to the server, half-closes, and returns the full
/// response text (empty if the server dropped the connection).
pub fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Issues one well-formed request; returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if let Some(body) = body {
        raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    raw.push_str("\r\n");
    if let Some(body) = body {
        raw.push_str(body);
    }
    let response = send_raw(addr, raw.as_bytes());
    parse_response(&response)
}

/// Splits a raw HTTP response into `(status, body)`.
pub fn parse_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `GET /jobs/<id>` until the reported state is terminal.
pub fn poll_terminal(addr: SocketAddr, id: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "status poll failed: {body}");
        for state in ["done", "failed", "cancelled"] {
            if body.contains(&format!("state {state}\n")) {
                return body;
            }
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached a terminal state; last status:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Schedules `fault` for the next 1024 mutating operations on `sim`, far
/// more than any test issues: a disk that stays broken across retries
/// and probes until [`columba_service::SimFs::clear_faults`].
pub fn fail_storage_from_now(sim: &columba_service::SimFs, fault: columba_service::SimFault) {
    let from = sim.op_count();
    for index in from..from + 1024 {
        sim.schedule_fault(index, fault);
    }
}
