//! Seeded random-mutation fuzz of the HTTP front end, modeled on the
//! netlist parser's mutation harness (`crates/netlist/tests/mutation.rs`):
//! corrupt a valid request with byte flips, truncations, span shuffles
//! and insertions of protocol-relevant tokens, fire it at a live server
//! over real TCP, and require a well-formed HTTP response (4xx for the
//! malformed shapes) with the server still serving afterwards. Seeded,
//! so any failure reproduces by round number alone.

mod common;

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use columba_prng::Rng;
use columba_service::{
    Clock, ClockParty, HttpConfig, HttpServer, NetFault, Service, ServiceConfig, SimClock, SimNet,
};

/// Protocol-relevant fragments — worst case for the request parser.
const TOKENS: &[&str] = &[
    "GET",
    "POST",
    "DELETE",
    "BREW",
    " ",
    "/synthesize",
    "/jobs/",
    "/jobs/18446744073709551616",
    "/metrics",
    "HTTP/1.1",
    "HTTP/9.9",
    "SMTP/1.0",
    "\r\n",
    "\n",
    "\r",
    ":",
    "Content-Length:",
    "Content-Length: -1",
    "Content-Length: 99999999999999999999",
    "Content-Length: banana",
    "Transfer-Encoding: chunked",
    "Host:",
    "\0",
    "\u{fffd}",
    "%2e%2e",
];

fn mutate(rng: &mut Rng, text: &str) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let edits = rng.gen_range(1..8usize);
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0..5usize) {
            0 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = (rng.next_u64() & 0xff) as u8;
            }
            1 => {
                let i = rng.gen_range(0..bytes.len());
                bytes.truncate(i);
            }
            2 => {
                let i = rng.gen_range(0..bytes.len());
                let j = (i + rng.gen_range(1..24usize)).min(bytes.len());
                bytes.drain(i..j);
            }
            3 => {
                let i = rng.gen_range(0..bytes.len());
                let j = (i + rng.gen_range(1..24usize)).min(bytes.len());
                let span: Vec<u8> = bytes[i..j].to_vec();
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, span);
            }
            _ => {
                let tok = TOKENS[rng.gen_range(0..TOKENS.len())];
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, tok.bytes());
            }
        }
    }
    bytes
}

fn start_server() -> (Arc<Service>, HttpServer) {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        options: common::deterministic_options(),
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
        .expect("bind an ephemeral port");
    (service, server)
}

#[test]
fn mutated_requests_get_4xx_and_the_server_keeps_serving() {
    let (service, server) = start_server();
    let addr = server.addr();
    let seeds = [
        "GET /metrics HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_string(),
        "POST /synthesize HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 11\r\n\r\nnot-a-chip\n"
            .to_string(),
        "DELETE /jobs/1 HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_string(),
    ];
    let mut rng = Rng::seed_from_u64(0x4177_F022);
    for round in 0..150 {
        for (s, seed) in seeds.iter().enumerate() {
            let corrupted = mutate(&mut rng, seed);
            let response = common::send_raw(addr, &corrupted);
            // a mutation can still be a valid request, so any well-formed
            // status is acceptable; an empty or non-HTTP reply is not
            assert!(
                response.starts_with("HTTP/1.1 "),
                "seed {s} round {round}: non-HTTP reply {response:?} to {corrupted:?}"
            );
            let (status, _) = common::parse_response(&response);
            assert!(
                (200..=599).contains(&status),
                "seed {s} round {round}: status {status}"
            );
        }
    }
    // after the storm, a well-formed request still works
    let (status, body) = common::request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"ready\":true"), "{body}");
    assert_eq!(service.metrics().worker_panics, 0);
    service.shutdown();
}

const NETLIST_A: &str =
    "chip fz1\nmixer m1\nport a\nport b\nconnect a -> m1.left\nconnect m1.right -> b\n";
const NETLIST_B: &str =
    "chip fz2\nmixer m1\nport a\nport b\nconnect a -> m1.left\nconnect m1.right -> b\n";
const ASSAY: &str =
    "assay t\nop a duration=5 device=mixer\nop b duration=5 device=mixer\ndep a -> b\n";

fn batch_seed() -> String {
    let body = format!("{NETLIST_A}%%\n{NETLIST_B}");
    format!(
        "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn assay_seed() -> String {
    format!(
        "POST /synthesize-assay HTTP/1.1\r\nContent-Length: {}\r\n\r\n{ASSAY}",
        ASSAY.len()
    )
}

/// One sequential exchange over the simulated network: write the whole
/// request, half-close, read to EOF. Timeouts are virtual, so a server
/// that never answers shows up as a bounded error, not a hung test.
fn sim_exchange(net: &SimNet, request: &[u8]) -> (Vec<u8>, Option<std::io::ErrorKind>) {
    let mut sock = net.connect();
    sock.set_read_timeout(Some(Duration::from_secs(40)));
    sock.set_write_timeout(Some(Duration::from_secs(40)));
    let mut error = None;
    if let Err(e) = sock.write_all(request) {
        error = Some(e.kind());
    }
    sock.shutdown_write();
    let mut raw = Vec::new();
    let mut buf = [0u8; 2048];
    while raw.len() < (1 << 20) {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) => {
                error.get_or_insert(e.kind());
                break;
            }
        }
    }
    sock.close();
    (raw, error)
}

fn sim_status(raw: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(raw);
    let rest = text.strip_prefix("HTTP/1.1 ")?;
    rest.get(..3)?.parse().ok()
}

/// Blocks (in virtual time) until no job is queued or running.
fn sim_drain(service: &Service, clock: &Arc<dyn Clock>) {
    for _ in 0..2000 {
        let m = service.metrics();
        if m.jobs_queued == 0 && m.jobs_running == 0 {
            return;
        }
        clock.sleep(Duration::from_millis(10));
    }
    panic!("job queue failed to drain in virtual time");
}

/// Satellite extension of the mutation fuzz: `/batch`,
/// `/synthesize-assay` and the SSE stream, driven over the simulated
/// network with slow-loris drip and mid-request reset faults layered
/// on top of the byte mutations. Every reply must be structured HTTP
/// (or a clean connection error for the reset shapes) — never a hang,
/// never a worker panic — and the server must keep serving afterwards.
#[test]
fn mutated_batch_assay_and_sse_over_simnet_stay_structured() {
    let sim = SimClock::new();
    let clock: Arc<dyn Clock> = Arc::<SimClock>::clone(&sim);
    // the test thread is a sim party: virtual time holds while it computes
    let _driver = ClockParty::enter(&clock);
    let net = SimNet::new(Arc::clone(&clock));
    net.set_latency(Duration::from_micros(200));

    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        bulk_queue_capacity: 8,
        options: common::deterministic_options(),
        clock: Some(Arc::clone(&clock)),
        ..ServiceConfig::default()
    }));
    let mut server = HttpServer::serve_on(
        Arc::clone(&service),
        Arc::new(net.clone()),
        HttpConfig {
            max_connections: 8,
            sse_deadline: Duration::from_secs(30),
            ..HttpConfig::default()
        },
    )
    .expect("serve_on the sim network");

    // a clean batch first, so /jobs/1/events names a real job whose
    // stream terminates (the SSE fuzz seeds below mutate this shape)
    let (raw, error) = sim_exchange(&net, batch_seed().as_bytes());
    assert_eq!(error, None, "clean batch errored");
    assert_eq!(sim_status(&raw), Some(202), "clean batch not acked");
    sim_drain(&service, &clock);

    let seeds = [
        batch_seed(),
        assay_seed(),
        "GET /jobs/1/events HTTP/1.1\r\nAccept: text/event-stream\r\n\r\n".to_string(),
    ];
    let mut rng = Rng::seed_from_u64(0x51_4E_E7);
    for round in 0..40u32 {
        for (s, seed) in seeds.iter().enumerate() {
            let corrupted = mutate(&mut rng, seed);
            // layer a network fault over some rounds: a slow-loris drip
            // or a mid-request reset on this exchange's write op
            net.clear_faults();
            let fault = match rng.gen_range(0..4u64) {
                0 => {
                    let gap = Duration::from_millis(1 + rng.gen_range(0..9u64));
                    net.schedule_fault(net.ops() + 2, NetFault::Drip { gap });
                    "drip"
                }
                1 => {
                    net.schedule_fault(net.ops() + 2, NetFault::Reset);
                    "reset"
                }
                _ => "none",
            };
            let (raw, error) = sim_exchange(&net, &corrupted);
            if raw.is_empty() {
                // torn down before a response: only acceptable as a
                // clean connection error (the reset shapes), not a
                // silent empty success
                assert!(
                    error.is_some(),
                    "seed {s} round {round} fault {fault}: empty non-error reply to {corrupted:?}"
                );
                continue;
            }
            let status = sim_status(&raw).unwrap_or_else(|| {
                panic!(
                    "seed {s} round {round} fault {fault}: non-HTTP reply {:?}",
                    String::from_utf8_lossy(&raw[..raw.len().min(80)])
                )
            });
            assert!(
                (200..=599).contains(&status),
                "seed {s} round {round} fault {fault}: status {status}"
            );
            if service.metrics().jobs_queued > 0 {
                sim_drain(&service, &clock);
            }
        }
    }

    // deterministic slow-loris: a valid assay dripped one byte per
    // second blows the 15 s request deadline and must get a 408, not a
    // parked handler
    net.clear_faults();
    net.schedule_fault(
        net.ops() + 2,
        NetFault::Drip {
            gap: Duration::from_secs(1),
        },
    );
    let (raw, _) = sim_exchange(&net, assay_seed().as_bytes());
    assert_eq!(
        sim_status(&raw),
        Some(408),
        "slow-loris should time out with 408: {:?}",
        String::from_utf8_lossy(&raw[..raw.len().min(120)])
    );

    // deterministic mid-body reset: the server sees the connection die
    // while reading and must simply move on
    net.clear_faults();
    net.schedule_fault(net.ops() + 2, NetFault::Reset);
    let (_raw, _error) = sim_exchange(&net, batch_seed().as_bytes());

    // after the storm the server still answers cleanly
    net.clear_faults();
    let (raw, error) = sim_exchange(&net, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(error, None, "healthz after the storm errored");
    assert_eq!(sim_status(&raw), Some(200));
    sim_drain(&service, &clock);
    assert_eq!(service.metrics().worker_panics, 0);
    server.shutdown();
    service.shutdown();
}

#[test]
fn explicit_malformed_shapes() {
    let (service, server) = start_server();
    let addr = server.addr();
    let checks: &[(&[u8], u16)] = &[
        (b"\r\n\r\n", 400),
        (b"GET\r\n\r\n", 400),
        (b"BREW /coffee HTTP/1.1\r\n\r\n", 405),
        (b"GET nopath HTTP/1.1\r\n\r\n", 400),
        (
            b"POST /synthesize HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            400,
        ),
        (
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n",
            413,
        ),
        // Content-Length larger than the bytes actually sent
        (
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
            400,
        ),
        (b"GET /jobs/notanumber HTTP/1.1\r\n\r\n", 400),
        (b"GET /jobs/42 HTTP/1.1\r\n\r\n", 404),
        (b"GET /no/such/route HTTP/1.1\r\n\r\n", 404),
        (
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            400,
        ),
    ];
    for (raw, expected) in checks {
        let response = common::send_raw(addr, raw);
        let (status, body) = common::parse_response(&response);
        assert_eq!(
            status,
            *expected,
            "request {:?} gave {status} ({body:?})",
            String::from_utf8_lossy(raw)
        );
    }
    // an oversized header block is cut off at 8 KiB with a 431
    let mut huge = b"GET /metrics HTTP/1.1\r\nX-Filler: ".to_vec();
    huge.extend(std::iter::repeat_n(b'a', 16 << 10));
    let (status, _) = common::parse_response(&common::send_raw(addr, &huge));
    assert_eq!(status, 431);
    // still alive
    let (status, _) = common::request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    service.shutdown();
}
