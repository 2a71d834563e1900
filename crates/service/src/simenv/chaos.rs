//! Seeded whole-service chaos scenarios over the deterministic
//! simulation triad.
//!
//! A [`ChaosPlan`] is generated from a seed: a workload of HTTP
//! requests (submit, batch, assay, status, SSE, cancel, metrics,
//! malformed bytes) plus fault schedules for the storage layer
//! ([`SimFs`]), the network ([`SimNet`]) and — implicitly, through both
//! — the virtual clock ([`SimClock`]). [`run_plan`] builds a fresh
//! world, drives the workload through a real [`HttpServer`] serving the
//! simulated network, checks service-level invariants after every
//! request, optionally crashes the storage and re-opens the service to
//! check durability, and returns a [`ChaosReport`] whose `log` is a
//! pure function of the plan — the determinism test asserts the same
//! seed yields a byte-identical log.
//!
//! Determinism strategy: the driver thread registers as a sim-clock
//! party (so virtual time can never advance while it is computing) and
//! drives requests *sequentially, draining the job queue after each
//! one*. Between requests the service is quiescent, so every status
//! body, metrics counter and trace timestamp the log records is decided
//! by the plan, not by thread scheduling. Concurrency bugs are hunted
//! by the invariants (a lost fsync-acked job, a non-monotone counter,
//! an illegal breaker transition, a leaked connection), not by racing
//! the driver.
//!
//! [`shrink`] greedily removes faults and requests from a failing plan
//! while the violation persists, so a failing seed reduces to a small
//! reproducer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use columba_prng::Rng;

use crate::http::{HttpConfig, HttpServer};
use crate::job::JobId;
use crate::persist::{BreakerConfig, CrashMode, PersistConfig, SimFault, SimFs};
use crate::service::{ExportKind, Service, ServiceConfig};
use crate::simenv::clock::{Clock, ClockParty, SimClock};
use crate::simenv::net::{NetFault, SimNet};

/// One workload step. Ids are resolved at run time against the jobs
/// acked so far (deterministically: "last acked" / "first acked").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// `POST /synthesize` with a tiny netlist named `c<name>`.
    Submit {
        /// Chip-name variant (same name twice = cache-hit path).
        name: u32,
    },
    /// `POST /batch` with one tiny netlist per member name.
    Batch {
        /// Chip-name variant per member (duplicates = dedup path).
        names: Vec<u32>,
    },
    /// `POST /synthesize-assay` with a small valid assay.
    Assay,
    /// `GET /jobs/<last acked>`.
    Status,
    /// `GET /jobs/<last acked>/events` (SSE over the sim network).
    Events,
    /// `DELETE /jobs/<first acked>`.
    Cancel,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// Malformed bytes; must come back a structured 4xx, never a hang.
    Malformed {
        /// Which malformation (request line, id, truncated body, method).
        which: u8,
    },
}

impl ChaosOp {
    fn name(&self) -> &'static str {
        match self {
            ChaosOp::Submit { .. } => "submit",
            ChaosOp::Batch { .. } => "batch",
            ChaosOp::Assay => "assay",
            ChaosOp::Status => "status",
            ChaosOp::Events => "events",
            ChaosOp::Cancel => "cancel",
            ChaosOp::Metrics => "metrics",
            ChaosOp::Healthz => "healthz",
            ChaosOp::Malformed { .. } => "malformed",
        }
    }
}

/// A fully-expanded chaos scenario: the workload plus every fault
/// schedule. Generated from a seed; shrinkable.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The seed this plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// One-way delivery latency on the simulated network.
    pub latency: Duration,
    /// Storage faults by global mutating-op index.
    pub fs_faults: Vec<(u64, SimFault)>,
    /// Network faults by global op index (connects + writes).
    pub net_faults: Vec<(u64, NetFault)>,
    /// The request workload, driven sequentially.
    pub requests: Vec<ChaosOp>,
    /// Crash the storage after the run and re-open the service to check
    /// that no fsync-acked job is lost.
    pub crash: bool,
}

impl ChaosPlan {
    /// Expands `seed` into a workload and fault schedules.
    #[must_use]
    pub fn generate(seed: u64) -> ChaosPlan {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n = 6 + (rng.next_u64() % 9) as usize;
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            let roll = rng.next_u64() % 100;
            requests.push(match roll {
                0..=29 => ChaosOp::Submit {
                    name: (rng.next_u64() % 5) as u32,
                },
                30..=39 => {
                    let members = 2 + rng.next_u64() % 2;
                    ChaosOp::Batch {
                        names: (0..members).map(|_| (rng.next_u64() % 4) as u32).collect(),
                    }
                }
                40..=47 => ChaosOp::Assay,
                48..=58 => ChaosOp::Status,
                59..=68 => ChaosOp::Events,
                69..=75 => ChaosOp::Cancel,
                76..=83 => ChaosOp::Metrics,
                84..=90 => ChaosOp::Healthz,
                _ => ChaosOp::Malformed {
                    which: (rng.next_u64() % 4) as u8,
                },
            });
        }
        let fs_faults = (0..rng.next_u64() % 3)
            .map(|_| {
                let index = 8 + rng.next_u64() % 80;
                let fault = match rng.next_u64() % 3 {
                    0 => SimFault::IoError,
                    1 => SimFault::Enospc,
                    _ => SimFault::ShortWrite,
                };
                (index, fault)
            })
            .collect();
        let net_faults = (0..rng.next_u64() % 3)
            .map(|_| {
                let index = 1 + rng.next_u64() % (n as u64 * 10);
                let fault = match rng.next_u64() % 5 {
                    0 => NetFault::Reset,
                    1 => NetFault::Torn,
                    2 => NetFault::HalfClose,
                    3 => NetFault::Drip {
                        gap: Duration::from_millis(1 + rng.next_u64() % 10),
                    },
                    _ => NetFault::Delay {
                        extra: Duration::from_millis(1 + rng.next_u64() % 10),
                    },
                };
                (index, fault)
            })
            .collect();
        ChaosPlan {
            seed,
            latency: Duration::from_micros(rng.next_u64() % 2000),
            fs_faults,
            net_faults,
            requests,
            crash: rng.gen_bool(0.5),
        }
    }
}

/// The outcome of one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The plan's seed.
    pub seed: u64,
    /// Deterministic run log (same seed ⇒ byte-identical).
    pub log: String,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
}

/// Generates and runs the scenario for `seed`.
#[must_use]
pub fn run_seed(seed: u64) -> ChaosReport {
    run_plan(&ChaosPlan::generate(seed))
}

/// Last-sampled metric values, for the monotonicity invariant.
#[derive(Default)]
struct Sampled {
    jobs_done: usize,
    jobs_failed: usize,
    jobs_cancelled: usize,
    rejected: u64,
    persist_errors: u64,
    breaker_trips: u64,
    breaker_state: u64,
    degraded_seconds: f64,
    uptime: Duration,
}

fn check_metrics(service: &Service, prev: &mut Sampled, step: usize, violations: &mut Vec<String>) {
    let m = service.metrics();
    let counters = [
        ("jobs_done", m.jobs_done as u64, prev.jobs_done as u64),
        ("jobs_failed", m.jobs_failed as u64, prev.jobs_failed as u64),
        (
            "jobs_cancelled",
            m.jobs_cancelled as u64,
            prev.jobs_cancelled as u64,
        ),
        ("rejected", m.rejected, prev.rejected),
        ("persist_errors", m.persist_errors, prev.persist_errors),
        ("breaker_trips", m.breaker_trips, prev.breaker_trips),
    ];
    for (name, now, before) in counters {
        if now < before {
            violations.push(format!(
                "step {step}: counter {name} went backwards ({before} -> {now})"
            ));
        }
    }
    if m.breaker_state > 2 {
        violations.push(format!(
            "step {step}: breaker gauge {} outside 0..=2",
            m.breaker_state
        ));
    }
    if prev.breaker_state == 0 && m.breaker_state != 0 && m.breaker_trips <= prev.breaker_trips {
        violations.push(format!(
            "step {step}: breaker left closed without a trip (gauge {} trips {})",
            m.breaker_state, m.breaker_trips
        ));
    }
    if m.degraded_seconds + 1e-9 < prev.degraded_seconds {
        violations.push(format!(
            "step {step}: degraded_seconds went backwards ({} -> {})",
            prev.degraded_seconds, m.degraded_seconds
        ));
    }
    if m.degraded_seconds > m.uptime.as_secs_f64() + 1e-3 {
        violations.push(format!(
            "step {step}: degraded_seconds {} exceeds uptime {:.3}",
            m.degraded_seconds,
            m.uptime.as_secs_f64()
        ));
    }
    if m.uptime < prev.uptime {
        violations.push(format!(
            "step {step}: uptime went backwards ({:?} -> {:?})",
            prev.uptime, m.uptime
        ));
    }
    *prev = Sampled {
        jobs_done: m.jobs_done,
        jobs_failed: m.jobs_failed,
        jobs_cancelled: m.jobs_cancelled,
        rejected: m.rejected,
        persist_errors: m.persist_errors,
        breaker_trips: m.breaker_trips,
        breaker_state: m.breaker_state,
        degraded_seconds: m.degraded_seconds,
        uptime: m.uptime,
    };
}

fn netlist(name: u32) -> String {
    format!(
        "chip c{name}\nmixer m1\nport a\nport b\n\
         connect a -> m1.left\nconnect m1.right -> b\n"
    )
}

const ASSAY: &str = "assay t\nop a duration=5 device=mixer\n\
                     op b duration=5 device=mixer\ndep a -> b\n";

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

/// What the driver saw for one request.
struct Outcome {
    status: Option<u16>,
    body: String,
    error: Option<String>,
}

impl Outcome {
    fn summarize(&self) -> String {
        let mut s = match self.status {
            Some(code) => code.to_string(),
            None => "none".to_string(),
        };
        if let Some(e) = &self.error {
            let _ = write!(s, " err={e}");
        }
        // Allocator watermarks are real measurements, not plan-determined
        // values — mask them so same-seed logs stay byte-identical.
        let body: String = self
            .body
            .replace('\r', "")
            .lines()
            .filter(|l| !l.starts_with("peak_alloc_bytes "))
            .collect::<Vec<_>>()
            .join("\\n")
            .chars()
            .take(160)
            .collect();
        let _ = write!(s, " body=\"{body}\"");
        s
    }
}

fn find(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if hay.len() < needle.len() {
        return None;
    }
    (from..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

/// Reassembles a chunked transfer-encoded body (chunk boundaries are
/// scheduling-dependent; the reassembled payload is not).
fn dechunk(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(eol) = find(body, pos, b"\r\n") {
        let Ok(size) = usize::from_str_radix(
            std::str::from_utf8(&body[pos..eol]).unwrap_or("").trim(),
            16,
        ) else {
            break;
        };
        if size == 0 {
            break;
        }
        let start = eol + 2;
        let end = (start + size).min(body.len());
        out.extend_from_slice(&body[start..end]);
        if end < start + size {
            break; // truncated by a fault; keep what arrived
        }
        pos = end + 2;
        if pos > body.len() {
            break;
        }
    }
    out
}

fn parse_response(raw: &[u8], error: Option<String>) -> Outcome {
    let Some(head_end) = find(raw, 0, b"\r\n\r\n") else {
        return Outcome {
            status: None,
            body: String::new(),
            error: error.or_else(|| Some("no response head".to_string())),
        };
    };
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok());
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    let body_raw = &raw[head_end + 4..];
    let body = if chunked {
        dechunk(body_raw)
    } else {
        body_raw.to_vec()
    };
    Outcome {
        status,
        body: String::from_utf8_lossy(&body).into_owned(),
        error,
    }
}

/// One sequential HTTP exchange over the simulated network.
fn exchange(net: &SimNet, request: &[u8]) -> Outcome {
    let mut sock = net.connect();
    sock.set_read_timeout(Some(Duration::from_secs(20)));
    sock.set_write_timeout(Some(Duration::from_secs(20)));
    let mut error = None;
    if let Err(e) = sock.write_all(request) {
        error = Some(format!("request write {:?}", e.kind()));
    }
    sock.shutdown_write();
    let mut raw = Vec::new();
    let mut buf = [0u8; 2048];
    while raw.len() < (1 << 20) {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) => {
                if error.is_none() {
                    error = Some(format!("response read {:?}", e.kind()));
                }
                break;
            }
        }
    }
    sock.close();
    parse_response(&raw, error)
}

/// Blocks (in virtual time) until no job is queued or running. Bounded;
/// returns whether the queue drained.
fn drain(service: &Service, clock: &Arc<dyn Clock>) -> bool {
    for _ in 0..2000 {
        let m = service.metrics();
        if m.jobs_queued == 0 && m.jobs_running == 0 {
            return true;
        }
        clock.sleep(Duration::from_millis(10));
    }
    false
}

fn service_config(clock: &Arc<dyn Clock>, fs: &SimFs) -> ServiceConfig {
    let mut options = columba_s::SynthesisOptions::default();
    options.layout.time_limit = Duration::from_secs(5);
    options.layout.threads = 1;
    ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        bulk_queue_capacity: 8,
        options,
        job_deadline: None,
        persist: Some(PersistConfig::at("/chaos/state")),
        storage: Some(Arc::new(fs.clone())),
        clock: Some(Arc::clone(clock)),
        breaker: BreakerConfig {
            failure_threshold: 2,
            probe_interval: Duration::from_millis(200),
            max_retries: 1,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
        ..ServiceConfig::default()
    }
}

fn http_config() -> HttpConfig {
    HttpConfig {
        max_connections: 8,
        sse_deadline: Duration::from_secs(30),
        ..HttpConfig::default()
    }
}

/// Parses `id <n>` and `member <i> job <n>` lines out of a 202 body.
fn acked_ids(body: &str) -> Vec<u64> {
    let mut ids = Vec::new();
    for line in body.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["id", n] => ids.extend(n.parse::<u64>()),
            ["member", _, "job", n] => ids.extend(n.parse::<u64>()),
            _ => {}
        }
    }
    ids
}

/// Runs one scenario to completion and reports.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_plan(plan: &ChaosPlan) -> ChaosReport {
    let sim = SimClock::new();
    let clock: Arc<dyn Clock> = Arc::<SimClock>::clone(&sim);
    // The driver is a party: virtual time holds still while it computes,
    // so timeout interleavings depend only on the plan.
    let _driver = ClockParty::enter(&clock);
    let fs = SimFs::new();
    for &(index, fault) in &plan.fs_faults {
        fs.schedule_fault(index, fault);
    }
    let net = SimNet::new(Arc::clone(&clock));
    net.set_latency(plan.latency);
    for &(index, fault) in &plan.net_faults {
        net.schedule_fault(index, fault);
    }

    let mut log = String::new();
    let mut violations: Vec<String> = Vec::new();
    let _ = writeln!(
        log,
        "plan seed={} requests={} fs_faults={:?} net_faults={:?} latency={}us crash={}",
        plan.seed,
        plan.requests.len(),
        plan.fs_faults,
        plan.net_faults,
        plan.latency.as_micros(),
        plan.crash
    );

    let service = match Service::open(service_config(&clock, &fs)) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            // a storage fault during startup is a legitimate outcome,
            // not an invariant violation
            let _ = writeln!(log, "open failed: {e}");
            return ChaosReport {
                seed: plan.seed,
                log,
                violations,
            };
        }
    };
    let server =
        match HttpServer::serve_on(Arc::clone(&service), Arc::new(net.clone()), http_config()) {
            Ok(s) => s,
            Err(e) => {
                service.shutdown();
                return ChaosReport {
                    seed: plan.seed,
                    log: format!("{log}serve_on failed: {e}\n"),
                    violations: vec![format!("accept thread failed to start: {e}")],
                };
            }
        };

    let mut acked: Vec<u64> = Vec::new();
    let mut texts: HashMap<u64, String> = HashMap::new();
    let mut prev = Sampled::default();
    for (step, op) in plan.requests.iter().enumerate() {
        let request = match op {
            ChaosOp::Submit { name } => post("/synthesize", &netlist(*name)),
            ChaosOp::Batch { names } => {
                let members: Vec<String> = names.iter().map(|&n| netlist(n)).collect();
                post("/batch", &members.join("%%\n"))
            }
            ChaosOp::Assay => post("/synthesize-assay", ASSAY),
            ChaosOp::Status => get(&format!("/jobs/{}", acked.last().copied().unwrap_or(999))),
            ChaosOp::Events => get(&format!(
                "/jobs/{}/events",
                acked.last().copied().unwrap_or(999)
            )),
            ChaosOp::Cancel => {
                let id = acked.first().copied().unwrap_or(999);
                format!("DELETE /jobs/{id} HTTP/1.1\r\n\r\n").into_bytes()
            }
            ChaosOp::Metrics => get("/metrics"),
            ChaosOp::Healthz => get("/healthz"),
            ChaosOp::Malformed { which } => match which % 4 {
                0 => b"GARBAGE\r\n\r\n".to_vec(),
                1 => get("/jobs/not-a-number"),
                2 => b"POST /synthesize HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec(),
                _ => b"PUT /x HTTP/1.1\r\n\r\n".to_vec(),
            },
        };
        let outcome = exchange(&net, &request);
        let _ = writeln!(
            log,
            "t={:>9}us req{step:02} {} -> {}",
            clock.now().as_micros(),
            op.name(),
            outcome.summarize()
        );
        if matches!(op, ChaosOp::Malformed { .. }) {
            if let Some(code) = outcome.status {
                if !(400..=499).contains(&code) {
                    violations.push(format!(
                        "step {step}: malformed request answered {code}, wanted a 4xx"
                    ));
                }
            }
        }
        if outcome.status == Some(202) {
            let fresh = acked_ids(&outcome.body);
            if let (ChaosOp::Submit { name }, [id]) = (op, fresh.as_slice()) {
                texts.insert(*id, netlist(*name));
            }
            if let (ChaosOp::Batch { names }, members) = (op, fresh.as_slice()) {
                for (&name, &id) in names.iter().zip(members) {
                    texts.insert(id, netlist(name));
                }
            }
            acked.extend(fresh);
        }
        // Drain before the next request: the quiescent state between
        // requests is what makes the log reproducible.
        if !drain(&service, &clock) {
            violations.push(format!("step {step}: job queue failed to drain"));
        }
        check_metrics(&service, &mut prev, step, &mut violations);
    }

    // Every acked job must be terminal (done, failed, or cancelled) —
    // accepted work never vanishes or wedges.
    for &id in &acked {
        match service.status(JobId(id)) {
            Some(s) if s.state.is_terminal() => {
                let _ = writeln!(log, "job {id} state={}", s.state.as_str());
            }
            Some(s) => violations.push(format!(
                "job {id} not terminal after drain: {}",
                s.state.as_str()
            )),
            None => violations.push(format!("acked job {id} has no record")),
        }
    }
    // Design consistency: the same canonical netlist text must export
    // the same design bytes, whichever job produced it.
    let mut by_text: HashMap<&str, (u64, String)> = HashMap::new();
    for (&id, text) in &texts {
        if let Ok(design) = service.export(JobId(id), ExportKind::Svg) {
            match by_text.get(text.as_str()) {
                Some((other, svg)) if *svg != design.svg => violations.push(format!(
                    "jobs {other} and {id} share a netlist but exported different designs"
                )),
                Some(_) => {}
                None => {
                    by_text.insert(text.as_str(), (id, design.svg.clone()));
                }
            }
        }
    }
    // Connection threads must drain — no leaked handlers.
    let mut waited = 0;
    while server.active_connections() > 0 && waited < 100 {
        clock.sleep(Duration::from_millis(50));
        waited += 1;
    }
    if server.active_connections() > 0 {
        violations.push(format!(
            "{} connection handler(s) leaked past the workload",
            server.active_connections()
        ));
    }
    let final_metrics = service.metrics();
    let _ = writeln!(
        log,
        "final done={} failed={} cancelled={} rejected={} persist_errors={} trips={} degraded={:.3} slo_alerts={}",
        final_metrics.jobs_done,
        final_metrics.jobs_failed,
        final_metrics.jobs_cancelled,
        final_metrics.rejected,
        final_metrics.persist_errors,
        final_metrics.breaker_trips,
        final_metrics.degraded_seconds,
        final_metrics.slo_alerts_fired,
    );
    // SLO invariant: burn-rate page alerts may only fire when the plan
    // actually injected faults — a clean run burning its error budget
    // means the SLO plumbing (or the service) is broken.
    if final_metrics.slo_alerts_fired > 0 && plan.fs_faults.is_empty() && plan.net_faults.is_empty()
    {
        violations.push(format!(
            "{} SLO alert(s) fired during a clean run (no injected faults)",
            final_metrics.slo_alerts_fired
        ));
    }
    let clean_persist = final_metrics.persist_errors == 0 && final_metrics.breaker_trips == 0;
    let mut server = server;
    server.shutdown();
    service.shutdown();
    drop(service);

    if plan.crash {
        // Power loss: unsynced bytes vanish, then recovery re-opens the
        // same storage. Every job acked while the breaker was closed
        // (fsync-before-ack) must still have a record.
        fs.crash(CrashMode::DropUnsynced);
        match Service::open(service_config(&clock, &fs)) {
            Ok(s2) => {
                let s2 = Arc::new(s2);
                let mut recovered = 0usize;
                for &id in &acked {
                    if s2.status(JobId(id)).is_some() {
                        recovered += 1;
                    } else if clean_persist {
                        violations.push(format!("fsync-acked job {id} lost across the crash"));
                    }
                }
                let m2 = s2.metrics();
                let _ = writeln!(
                    log,
                    "recovery: acked={} recovered={recovered} replayed={} corrupt_skipped={}",
                    acked.len(),
                    m2.journal_records_replayed,
                    m2.journal_corrupt_skipped,
                );
                s2.shutdown();
            }
            Err(e) => violations.push(format!("recovery open failed after crash: {e}")),
        }
    }

    ChaosReport {
        seed: plan.seed,
        log,
        violations,
    }
}

/// Greedily minimizes a failing plan: repeatedly drops one fault or one
/// request, keeping any removal under which the plan still fails.
/// Bounded at 100 re-runs. Returns the original plan if it passes.
#[must_use]
pub fn shrink(plan: &ChaosPlan) -> ChaosPlan {
    let mut best = plan.clone();
    if run_plan(&best).violations.is_empty() {
        return best;
    }
    let mut budget = 100usize;
    let mut improved = true;
    while improved && budget > 0 {
        improved = false;
        for slot in 0..(best.net_faults.len() + best.fs_faults.len() + best.requests.len()) {
            if budget == 0 {
                break;
            }
            let mut candidate = best.clone();
            if slot < candidate.net_faults.len() {
                candidate.net_faults.remove(slot);
            } else if slot - candidate.net_faults.len() < candidate.fs_faults.len() {
                let i = slot - candidate.net_faults.len();
                candidate.fs_faults.remove(i);
            } else {
                let i = slot - candidate.net_faults.len() - candidate.fs_faults.len();
                candidate.requests.remove(i);
            }
            budget -= 1;
            if !run_plan(&candidate).violations.is_empty() {
                best = candidate;
                improved = true;
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let a = run_seed(7);
        let b = run_seed(7);
        assert_eq!(a.log, b.log, "chaos runs must be deterministic");
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn smoke_seed_holds_invariants() {
        let report = run_seed(1);
        assert!(
            report.violations.is_empty(),
            "seed 1 violations: {:?}\nlog:\n{}",
            report.violations,
            report.log
        );
    }

    #[test]
    fn dechunk_reassembles_across_boundaries() {
        assert_eq!(dechunk(b"5\r\nhello\r\n3\r\nabc\r\n0\r\n\r\n"), b"helloabc");
        assert_eq!(dechunk(b"5\r\nhel"), b"hel", "truncated chunk keeps prefix");
        assert_eq!(dechunk(b""), b"");
    }

    #[test]
    fn acked_id_parsing() {
        assert_eq!(acked_ids("id 7\n"), vec![7]);
        assert_eq!(
            acked_ids("batch 1\nmembers 2\nmember 0 job 3\nmember 1 job 4\n"),
            vec![3, 4]
        );
        assert!(acked_ids("error queue full\n").is_empty());
    }
}
