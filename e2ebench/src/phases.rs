//! The load phases: a closed loop (each client sends its next design
//! only after the previous one came back) and an open loop (operations
//! sent at due times whatever the replies do), both over real sockets
//! to an in-process `HttpServer`.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use columba_service::{HttpConfig, HttpServer, Service, ServiceConfig};

use crate::client::{self, DesignReply};
use crate::inputs::{Arrival, Input, Op};
use crate::stats::OpenLoopSample;
use crate::trace::{Span, Tracer};

/// Load generator threads (and so concurrent connections): the
/// machine's two cores.
const CLIENTS: usize = 2;

/// Event streams followed in an SSE phase to count SSE stalls.
const SSE_SAMPLES: usize = 16;

/// Peak resident set of this process, MiB (`VmHWM`).
#[allow(clippy::cast_precision_loss)]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Design replies after which memory is read. Every finished job keeps
/// its design in the service's job table (up to
/// `ServiceConfig::max_records`), so the high-water marks climb with the
/// designs served; reading them at a fixed count keeps a faster service
/// from reporting more memory. A 30 s run of either workload serves
/// more designs than this.
const MEMORY_AT_DESIGNS: usize = 50;

/// Memory as [`MemoryProbe`] reads it.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    /// Peak RSS of the process, MiB.
    pub peak_rss_mb: f64,
    /// The allocator's peak live heap bytes.
    pub peak_live_bytes: u64,
}

/// Reads the peak RSS and peak live heap when the run's
/// [`MEMORY_AT_DESIGNS`]-th design reply arrives, and counts the
/// design replies of the whole run.
pub struct MemoryProbe {
    service: Arc<Service>,
    designs: AtomicUsize,
    at: Mutex<Option<Memory>>,
}

impl MemoryProbe {
    /// A probe reading `service`'s allocator counters.
    pub fn new(service: Arc<Service>) -> MemoryProbe {
        MemoryProbe {
            service,
            designs: AtomicUsize::new(0),
            at: Mutex::new(None),
        }
    }

    fn read(&self) -> Memory {
        Memory {
            peak_rss_mb: peak_rss_mb(),
            peak_live_bytes: self.service.metrics().alloc.peak_live_bytes,
        }
    }

    fn design_done(&self) {
        if self.designs.fetch_add(1, Ordering::Relaxed) + 1 == MEMORY_AT_DESIGNS {
            *self.at.lock().expect("memory probe poisoned") = Some(self.read());
        }
    }

    /// The reading, or the peaks so far when the run served fewer
    /// designs.
    pub fn memory(&self) -> Memory {
        let at = *self.at.lock().expect("memory probe poisoned");
        at.unwrap_or_else(|| self.read())
    }

    /// Design replies received so far.
    pub fn designs(&self) -> usize {
        self.designs.load(Ordering::Relaxed)
    }
}

/// A running service behind its HTTP front end.
pub struct Running {
    /// The service.
    pub service: Arc<Service>,
    /// The front end.
    pub server: HttpServer,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Running {
    /// Opens the service, binds the front end on an ephemeral port and
    /// waits for the first `200` from `/healthz`, returning the seconds
    /// that took (a `setup_s` sample).
    ///
    /// # Errors
    ///
    /// The service or the listener failed to start, or never got healthy.
    pub fn open(config: ServiceConfig) -> Result<(Running, f64), String> {
        let t0 = Instant::now();
        let service = Arc::new(Service::open(config).map_err(|e| format!("service open: {e}"))?);
        let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr();
        client::await_healthy(addr, Duration::from_secs(120))?;
        let setup = t0.elapsed().as_secs_f64();
        Ok((
            Running {
                service,
                server,
                addr,
            },
            setup,
        ))
    }

    /// Stops accepting, then shuts the service down and joins it.
    pub fn stop(mut self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// One finished design request.
#[derive(Debug)]
pub struct Sample {
    /// Index of the input's reference.
    pub base: usize,
    /// Seconds from submission (closed loop) or due time (open loop) to
    /// the SVG body; a batch's latency is carried by its first member.
    pub latency: Option<f64>,
    /// The reply, or why the request failed.
    pub reply: Result<DesignReply, String>,
}

/// An SSE stream followed beside a polled job: when polling saw the
/// terminal state, and when the stream's end frame arrived.
pub type SseProbe = (Instant, Result<Instant, String>);

/// What a load phase produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Every design reply, with its latency.
    pub samples: Vec<Sample>,
    /// Open-loop timing of every operation (empty for closed loops).
    pub timings: Vec<OpenLoopSample>,
    /// Wall seconds from the first send to the last reply.
    pub wall: f64,
    /// Client-side spans (traced phases only).
    pub spans: Vec<Span>,
    /// SSE probes (SSE phases only).
    pub sse: Vec<SseProbe>,
}

impl PhaseResult {
    /// Adds `other`'s samples, timings, spans and probes to this phase,
    /// and its wall time to this one's.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.samples.extend(other.samples);
        self.timings.extend(other.timings);
        self.wall += other.wall;
        self.spans.extend(other.spans);
        self.sse.extend(other.sse);
    }
}

/// Yields the inputs of a closed loop round by round: a new round starts
/// only before the deadline, and a started round is always finished, so
/// every run submits whole rounds.
pub struct Rounds<'a> {
    make: Box<dyn FnMut() -> Vec<(Input, usize)> + Send + 'a>,
    queue: VecDeque<(Input, usize)>,
    deadline: Instant,
}

impl<'a> Rounds<'a> {
    /// Rounds from `make()`, until `seconds` from now.
    pub fn new(seconds: f64, make: impl FnMut() -> Vec<(Input, usize)> + Send + 'a) -> Rounds<'a> {
        Rounds {
            make: Box::new(make),
            queue: VecDeque::new(),
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    /// Exactly the inputs listed, as one round.
    pub fn once(inputs: Vec<(Input, usize)>) -> Rounds<'a> {
        let mut left = Some(inputs);
        Rounds::new(86_400.0, move || left.take().unwrap_or_default())
    }

    fn next(&mut self) -> Option<(Input, usize)> {
        if self.queue.is_empty() {
            if Instant::now() >= self.deadline {
                return None;
            }
            self.queue.extend((self.make)());
        }
        self.queue.pop_front()
    }
}

/// Starts an SSE follower for the job when the phase still samples.
fn probe(
    addr: SocketAddr,
    id: u64,
    sampled: &AtomicUsize,
    on: bool,
) -> Option<thread::JoinHandle<Result<Instant, String>>> {
    (on && sampled.fetch_add(1, Ordering::Relaxed) < SSE_SAMPLES)
        .then(|| thread::spawn(move || client::follow_events(addr, id)))
}

fn join_probe(
    handle: thread::JoinHandle<Result<Instant, String>>,
    terminal_at: Instant,
) -> SseProbe {
    (
        terminal_at,
        handle
            .join()
            .unwrap_or_else(|_| Err("follower panicked".into())),
    )
}

/// One design request: submit, poll to completion, fetch the SVG.
fn design(
    addr: SocketAddr,
    input: &Input,
    t: &mut Tracer,
    sampled: &AtomicUsize,
    sse: bool,
    probes: &mut Vec<SseProbe>,
) -> Result<DesignReply, String> {
    let t0 = Instant::now();
    let id = client::submit(addr, input.route(), &input.text, t)?;
    let follower = probe(addr, id, sampled, sse);
    let reply = client::finish(addr, id, t0, t);
    if let Some(h) = follower {
        let probe = join_probe(
            h,
            reply
                .as_ref()
                .map_or_else(|_| Instant::now(), |r| r.terminal_at),
        );
        if reply.is_ok() {
            probes.push(probe);
        }
    }
    reply
}

/// Runs a closed loop of [`CLIENTS`] clients over `rounds`: with
/// `traced`, spans around every HTTP call; with `sse`, up to
/// [`SSE_SAMPLES`] jobs also followed over their event streams.
pub fn closed_loop(
    addr: SocketAddr,
    rounds: Rounds<'_>,
    traced: bool,
    sse: bool,
    epoch: Instant,
    memory: &MemoryProbe,
) -> PhaseResult {
    let rounds = Mutex::new(rounds);
    let sampled = AtomicUsize::new(0);
    let start = Instant::now();
    let mut result = PhaseResult::default();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (rounds, sampled) = (&rounds, &sampled);
                scope.spawn(move || {
                    let mut t = Tracer::new(traced, epoch, 1_000_000 * (c as u32 + 1));
                    let mut samples = Vec::new();
                    let mut probes = Vec::new();
                    loop {
                        let next = rounds.lock().expect("round source poisoned").next();
                        let Some((input, base)) = next else { break };
                        let t0 = Instant::now();
                        t.begin("request");
                        let reply = design(addr, &input, &mut t, sampled, sse, &mut probes);
                        t.end();
                        memory.design_done();
                        samples.push(Sample {
                            base,
                            latency: Some(t0.elapsed().as_secs_f64()),
                            reply,
                        });
                    }
                    (samples, t.spans, probes)
                })
            })
            .collect();
        for h in handles {
            let (samples, spans, probes) = h.join().expect("client thread panicked");
            result.samples.extend(samples);
            result.spans.extend(spans);
            result.sse.extend(probes);
        }
    });
    result.wall = start.elapsed().as_secs_f64();
    result
}

/// Runs `schedule` as an open loop: operations dealt round-robin to
/// [`CLIENTS`] generator threads, each sending its operations at their
/// due times (or as soon as it is free, when it runs late).
pub fn open_loop(
    addr: SocketAddr,
    inputs: &[Input],
    schedule: &[Arrival],
    traced: bool,
    epoch: Instant,
    memory: &MemoryProbe,
) -> PhaseResult {
    // both generators share one start instant, a little ahead of now
    let start = Instant::now() + Duration::from_millis(5);
    let mut result = PhaseResult::default();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|g| {
                scope.spawn(move || {
                    let mut t = Tracer::new(traced, epoch, 1_000_000 * (g as u32 + 1));
                    let mut out = PhaseResult::default();
                    for arrival in schedule.iter().skip(g).step_by(CLIENTS) {
                        let due = start + Duration::from_secs_f64(arrival.due_s);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        t.begin("request");
                        let designs = operation(addr, inputs, arrival.op, &mut t);
                        t.end();
                        let timing = OpenLoopSample {
                            due: arrival.due_s,
                            sent: sent.duration_since(start).as_secs_f64(),
                            done: start.elapsed().as_secs_f64(),
                        };
                        for (i, (base, reply)) in designs.into_iter().enumerate() {
                            memory.design_done();
                            out.samples.push(Sample {
                                base,
                                latency: (i == 0).then(|| timing.latency()),
                                reply,
                            });
                        }
                        out.timings.push(timing);
                    }
                    out.spans = t.spans;
                    out
                })
            })
            .collect();
        for h in handles {
            result.absorb(h.join().expect("generator thread panicked"));
        }
    });
    result.wall = result.timings.iter().map(|s| s.done).fold(0.0, f64::max);
    result
}

/// Performs one open-loop operation, returning its design replies.
fn operation(
    addr: SocketAddr,
    inputs: &[Input],
    op: Op,
    t: &mut Tracer,
) -> Vec<(usize, Result<DesignReply, String>)> {
    match op {
        Op::Resubmit(i) => {
            let unsampled = AtomicUsize::new(0);
            let reply = design(addr, &inputs[i], t, &unsampled, false, &mut Vec::new());
            vec![(i, reply)]
        }
        Op::Batch(members) => {
            let texts: Vec<&str> = members.iter().map(|&i| inputs[i].text.as_str()).collect();
            let t0 = Instant::now();
            match client::submit_batch(addr, &texts, t) {
                Err(e) => members.iter().map(|&i| (i, Err(e.clone()))).collect(),
                Ok(ids) => {
                    // duplicates share one job: fetch each job once
                    let mut fetched: Vec<(u64, Result<DesignReply, String>)> = Vec::new();
                    members
                        .iter()
                        .zip(&ids)
                        .map(|(&i, &id)| {
                            if let Some((_, r)) = fetched.iter().find(|(j, _)| *j == id) {
                                return (i, r.clone());
                            }
                            let r = client::finish(addr, id, t0, t);
                            fetched.push((id, r.clone()));
                            (i, r)
                        })
                        .collect()
                }
            }
        }
    }
}
