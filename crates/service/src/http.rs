//! A minimal hand-rolled HTTP/1.1 front end over `std::net`.
//!
//! No external dependencies, no keep-alive: every request carries an
//! optional `Content-Length` body, every response closes the
//! connection. Plain responses are `Content-Length`-framed; the two
//! event-stream routes are the one place chunked transfer encoding is
//! used, because their length is unknown until the job finishes. That
//! subset is exactly what the service API needs and keeps the parser
//! small enough to fuzz exhaustively.
//!
//! Routes:
//!
//! | method   | path                  | response                              |
//! |----------|-----------------------|---------------------------------------|
//! | `POST`   | `/synthesize`         | `202` with `id <n>`, `429` queue full |
//! | `POST`   | `/synthesize-assay`   | assay text → schedule → synthesize;   |
//! |          |                       | `202` with `id <n>`, `400` on parse   |
//! |          |                       | errors and cyclic graphs              |
//! | `POST`   | `/batch`              | `202` with group + member job ids     |
//! | `GET`    | `/jobs/<id>`          | flat `key value` status text          |
//! | `GET`    | `/jobs/<id>/svg`      | the SVG render                        |
//! | `GET`    | `/jobs/<id>/scr`      | the AutoCAD script                    |
//! | `GET`    | `/jobs/<id>/trace`    | the job's lifecycle trace as JSONL    |
//! | `GET`    | `/jobs/<id>/events`   | live SSE progress stream (chunked)    |
//! | `GET`    | `/jobs/<id>/profile`  | the job's span profile (Chrome trace) |
//! | `DELETE` | `/jobs/<id>`          | cancels the job                       |
//! | `GET`    | `/batch/<id>`         | per-member status + group summary     |
//! | `GET`    | `/batch/<id>/events`  | live SSE group progress (chunked)     |
//! | `GET`    | `/metrics`            | flat counters                         |
//! | `GET`    | `/metrics?format=prometheus` | Prometheus text exposition     |
//! | `GET`    | `/slo`                | SLO burn rates + error budgets (JSON) |
//! | `GET`    | `/trace`              | the service log as JSONL: events with |
//! |          |                       | no job record (`rejected`, `batch`,   |
//! |          |                       | `recovery`, `shutdown`, ...)          |
//! | `GET`    | `/profile`            | recent HTTP request spans (Chrome)    |
//! | `GET`    | `/healthz`            | JSON readiness report (`503` while    |
//! |          |                       | recovering, with `Retry-After`)       |
//!
//! `POST /batch` takes many netlists in one body, separated by lines
//! containing only `%%`, and admits them as one group under the bulk
//! QoS class (override with `?class=interactive`). `POST /synthesize`
//! accepts the same `?class=` override (default interactive).
//!
//! `POST /synthesize-assay` takes a behavioral assay text (`assay` /
//! `devices` / `op` / `dep` statements), validates it eagerly — a
//! malformed body or a cyclic sequencing graph is a structured `400`
//! naming the offending line or operations, never a `500` — and admits
//! it as one job that list-schedules the assay onto devices, inserts
//! storage for idle fluids, and runs the emitted netlist through the
//! normal synthesis flow. Schedule stats land in the job status
//! (`schedule_*` keys) and the job's trace (`scheduled`,
//! `storage_inserted` events).
//!
//! The event streams are server-sent events: `event:`/`data:` frames
//! carrying the job's lifecycle trace (rung transitions, incumbent
//! trajectory, completion) as JSONL, with `: hb` comment heartbeats
//! while nothing changes. A stream ends with an `event: end` frame when
//! the job (or every batch member) reaches a terminal state, when the
//! stream deadline passes, or silently when the client disconnects —
//! writes against a gone or stalled client time out, the handler drops
//! the connection, and its slot frees. Streams never hold service locks
//! between polls, so a slow consumer cannot block a worker.
//!
//! Every served request is observed: its latency lands in the request
//! histogram, its `(route label, status)` pair in a counter, and an
//! `http.request` span in the service-level recorder behind
//! `GET /profile`. Route labels are static (`GET /jobs/{id}`, ...), so
//! metric cardinality stays bounded no matter what paths clients send.
//!
//! Connections are served by reused handler threads. The accept loop
//! queues each connection for a free handler and spawns a new one only
//! when fewer handlers are free than connections wait, so there are never
//! more handlers than `max_connections`. A handler counts itself free
//! before it closes its connection, so a client that sends its requests
//! one after another is served by one thread. Handlers idle (in a clock
//! wait) until [`HttpServer::shutdown`]. A request is read in chunks, and
//! a response goes out in one vectored write: head and body, the body
//! never copied.
//!
//! Malformed requests get a 4xx and the server keeps serving; nothing a
//! client sends can take the accept loop down. Slow clients are bounded
//! twice over: each `read()` has a socket timeout and the whole request
//! has a wall-clock deadline (`408`), and the number of concurrent
//! connections is capped (`503` beyond the cap). Both backpressure
//! responses (`429` queue-full, `503` connection-cap) carry a
//! `Retry-After` header scaled to the current queue depth.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::batch::BatchId;
use crate::cache::CompletedDesign;
use crate::job::{JobId, JobState, QosClass};
use crate::service::{ExportError, ExportKind, ProfileError, Service, SubmitError};
use crate::simenv::clock::{clock_wait, Clock, ClockParty, ClockSuspend};
use crate::simenv::net::{Conn, TcpTransport, Transport};

/// Front-end limits.
#[derive(Debug, Clone, Copy)]
pub struct HttpConfig {
    /// Cap on request bodies; a larger `Content-Length` gets `413`.
    pub max_body_bytes: usize,
    /// Per-`read()` timeout; a fully stalled client gets `408`.
    pub read_timeout: Duration,
    /// Per-`write()` timeout. Bounds how long a stalled *consumer* can
    /// hold a handler thread per response chunk — on the SSE path every
    /// frame and heartbeat write is cut off at this bound, so a client
    /// that stops reading tears its stream down instead of parking the
    /// thread. (Historically this silently reused `read_timeout`.)
    pub write_timeout: Duration,
    /// Overall deadline for reading one request. `read_timeout` alone only
    /// bounds each *individual* read, so a slow-drip client (one byte
    /// every few seconds) could hold a handler thread for hours; this
    /// caps the whole request and answers `408`.
    pub request_deadline: Duration,
    /// Cap on concurrently served connections, and so on handler threads:
    /// handlers are reused, and one is spawned only when none is free.
    /// Arrivals beyond the cap are answered `503` on the accept thread
    /// instead of growing threads without bound.
    pub max_connections: usize,
    /// Hard lifetime cap on one event stream. A client that never
    /// disconnects still releases its connection slot at this deadline
    /// (the stream ends with an `event: end` frame, reason `deadline`).
    pub sse_deadline: Duration,
    /// Idle interval after which an event stream writes a `: hb` comment
    /// heartbeat — the write doubles as disconnect detection, so an
    /// abandoned stream is torn down within one heartbeat.
    pub sse_heartbeat: Duration,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(15),
            max_connections: 64,
            sse_deadline: Duration::from_secs(300),
            sse_heartbeat: Duration::from_secs(5),
        }
    }
}

const MAX_HEAD_BYTES: usize = 8 << 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Get,
    Post,
    Delete,
}

#[derive(Debug, PartialEq, Eq)]
struct Request {
    method: Method,
    path: String,
    body: Vec<u8>,
}

#[derive(Debug, PartialEq, Eq)]
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// A response body: bytes built for this reply, or one render of a
/// finished design, served from the shared record without a copy.
#[derive(Debug)]
enum Body {
    Bytes(Vec<u8>),
    Export(Arc<CompletedDesign>, ExportKind),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Bytes(bytes) => bytes,
            Body::Export(design, ExportKind::Svg) => design.svg.as_bytes(),
            Body::Export(design, ExportKind::Scr) => design.scr.as_bytes(),
        }
    }
}

/// A response about to be written. Public only for the load bench.
#[derive(Debug)]
pub struct Response {
    status: u16,
    content_type: &'static str,
    body: Body,
    /// Emitted as a `Retry-After: <seconds>` header — set on the
    /// backpressure responses (429 queue-full, 503 connection-cap) so a
    /// polite client knows when resubmitting is worth its while.
    retry_after: Option<u64>,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Bytes(body.into().into_bytes()),
            retry_after: None,
        }
    }

    fn export(design: Arc<CompletedDesign>, kind: ExportKind) -> Response {
        Response {
            status: 200,
            content_type: match kind {
                ExportKind::Svg => "image/svg+xml",
                ExportKind::Scr => "text/plain; charset=utf-8",
            },
            body: Body::Export(design, kind),
            retry_after: None,
        }
    }

    fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: Body::Bytes(body.into_bytes()),
            retry_after: None,
        }
    }

    fn jsonl(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/x-ndjson",
            body: Body::Bytes(body.into_bytes()),
            retry_after: None,
        }
    }

    fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    fn from_error(e: &HttpError) -> Response {
        Response::text(e.status, format!("error {}\n", e.message))
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Writes the response: the head is formatted into one buffer and
    /// goes out with the body in one vectored write (more only on short
    /// writes). The body is never copied.
    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        use std::fmt::Write as _;
        let body = self.body.as_bytes();
        let mut head = String::with_capacity(160);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            body.len()
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(head, "Retry-After: {seconds}\r\n");
        }
        head.push_str("\r\n");
        write_parts(out, [head.as_bytes(), body])?;
        out.flush()
    }
}

/// Writes every byte of `parts`, in order, through `write_vectored`: one
/// call when the writer takes them all, another after each short write.
fn write_parts<const N: usize>(out: &mut impl Write, parts: [&[u8]; N]) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
    // drops leading empty parts
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Process-wide RNG behind the retry-after jitter. Seeded once with a
/// fixed constant: determinism per call is not the point (the state
/// advances every draw), only freedom from `/dev/urandom` and external
/// crates.
static RETRY_JITTER: Mutex<Option<columba_prng::Rng>> = Mutex::new(None);

/// How long a rejected client should wait before retrying, from the
/// backlog it is queued behind: roughly two solves' worth of queue per
/// worker, jittered by ±25% and clamped to a sane `[1, 60]` second
/// window. The formula is deliberately coarse — its job is to spread
/// retries out in proportion to load, not to predict solve times. The
/// jitter desynchronizes the herd: without it, every client rejected in
/// the same load spike computes the same wait and stampedes back in
/// lockstep, re-creating the spike it was told to avoid.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn retry_after_secs(queue_depth: usize, workers: usize) -> u64 {
    let base = (queue_depth as u64 * 2) / workers.max(1) as u64;
    let factor = {
        let mut slot = RETRY_JITTER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let rng = slot.get_or_insert_with(|| columba_prng::Rng::seed_from_u64(0x52e7_4a11));
        0.75 + rng.gen_f64() * 0.5
    };
    // jitter the raw backlog estimate, then clamp — so the floor and
    // ceiling stay hard guarantees rather than jitter inputs
    ((base as f64 * factor) as u64).clamp(1, 60)
}

/// What the router decided: either a fully-formed plain response, or an
/// event stream the handler must serve incrementally (the stream owns
/// the socket until the job ends or the client goes away).
#[derive(Debug)]
enum Routed {
    Plain(Response),
    JobEvents(JobId),
    BatchEvents(BatchId),
}

/// Chunked transfer encoding over any `Write`: each `chunk()` is one
/// `<hex len>\r\n<data>\r\n` frame sent in one write and flushed
/// immediately (an SSE event must reach the client now, not when a
/// buffer fills), `finish()` is the `0\r\n\r\n` terminator.
struct ChunkedWriter<W: Write> {
    out: W,
}

impl<W: Write> ChunkedWriter<W> {
    fn new(out: W) -> ChunkedWriter<W> {
        ChunkedWriter { out }
    }

    fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            // an empty chunk would terminate the stream
            return Ok(());
        }
        let size = format!("{:x}\r\n", data.len());
        write_parts(&mut self.out, [size.as_bytes(), data, b"\r\n"])?;
        self.out.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

/// One server-sent event: `event: <kind>` + one `data:` line per line of
/// `data`, blank-line terminated. SSE forbids raw newlines inside a
/// `data:` value, so multi-line payloads become multiple `data:` lines.
fn sse_frame(kind: &str, data: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(data.len() + kind.len() + 16);
    let _ = writeln!(out, "event: {kind}");
    for line in data.lines() {
        let _ = writeln!(out, "data: {line}");
    }
    if data.is_empty() {
        out.push_str("data:\n");
    }
    out.push('\n');
    out
}

/// Writes the response head that commits the connection to a chunked
/// `text/event-stream` body.
fn write_sse_head(out: &mut impl Write) -> io::Result<()> {
    out.write_all(
        b"HTTP/1.1 200 OK\r\n\
          Content-Type: text/event-stream\r\n\
          Cache-Control: no-cache\r\n\
          Transfer-Encoding: chunked\r\n\
          Connection: close\r\n\r\n",
    )?;
    out.flush()
}

/// Runs one SSE stream: `poll` appends the frames new since its last call
/// and returns the `end` frame's detail once the stream is over. It also
/// ends on shutdown or at its deadline, heartbeats while idle, and blocks
/// on the service's event counter between polls. Writes are bounded by
/// the socket write timeout, so a vanished client tears the stream down
/// within one heartbeat; the service is never held across a write.
fn stream_events(
    service: &Service,
    out: &mut impl Write,
    config: HttpConfig,
    mut poll: impl FnMut(&mut String) -> Option<String>,
) {
    if write_sse_head(out).is_err() {
        return;
    }
    let clock = service.clock();
    let mut chunks = ChunkedWriter::new(out);
    let deadline = clock.now().saturating_add(config.sse_deadline);
    let mut last_write = clock.now();
    loop {
        // Snapshot the event counter *before* polling: anything arriving
        // after this point pops the wait below immediately, so no event
        // can fall between the poll and the block.
        let seen = service.events_seq();
        let mut frames = String::new();
        let end = poll(&mut frames);
        if !frames.is_empty() {
            if chunks.chunk(frames.as_bytes()).is_err() {
                return; // client gone
            }
            last_write = clock.now();
        }
        let now = clock.now();
        let end = end
            .or_else(|| service.is_shutting_down().then(|| "reason shutdown".into()))
            .or_else(|| (now >= deadline).then(|| "reason deadline".into()));
        if let Some(end) = end {
            let _ = chunks.chunk(sse_frame("end", &end).as_bytes());
            break;
        }
        if now.saturating_sub(last_write) >= config.sse_heartbeat {
            if chunks.chunk(b": hb\n\n").is_err() {
                return; // disconnect detected on heartbeat
            }
            last_write = now;
        }
        // Block until a new trace event lands (or shutdown), bounded by
        // whichever of the next heartbeat and the stream deadline comes
        // first — no fixed-interval polling.
        let bound = last_write
            .saturating_add(config.sse_heartbeat)
            .min(deadline);
        let timeout = bound.saturating_sub(now).max(Duration::from_millis(1));
        let _ = service.wait_events(seen, timeout);
    }
    let _ = chunks.finish();
}

/// Serves `GET /jobs/<id>/events`: replays the job's lifecycle log as
/// SSE frames as it grows, and ends with `event: end` once the job is
/// terminal.
fn stream_job_events(service: &Service, out: &mut impl Write, config: HttpConfig, id: JobId) {
    let mut cursor = 0u64;
    stream_events(service, out, config, |frames| {
        // Read the state before the log. A job's terminal event
        // (`solved`, `cache_hit`, `failed` or `cancelled`) enters its log
        // before any reader can see the terminal state, so a log read
        // after a terminal state holds it: no final drain is needed.
        let state = service.status(id).map(|s| s.state);
        let Some((events, next)) = service.job_events_after(id, cursor) else {
            // pruned mid-stream; nothing more will arrive
            return Some("reason pruned".into());
        };
        for event in &events {
            frames.push_str(&sse_frame(event.kind.as_str(), &event.to_jsonl()));
        }
        cursor = next;
        let over = state.is_none_or(JobState::is_terminal);
        over.then(|| format!("state {}", state.map_or("pruned", JobState::as_str)))
    });
}

/// Serves `GET /batch/<id>/events`: emits a `batch` frame carrying the
/// one-line group summary whenever it changes, then `event: end` when
/// every member is terminal.
fn stream_batch_events(service: &Service, out: &mut impl Write, config: HttpConfig, id: BatchId) {
    let mut last_line = String::new();
    stream_events(service, out, config, |frames| {
        let Some(status) = service.batch_status(id) else {
            return Some("reason pruned".into());
        };
        let s = status.summary();
        let line = format!(
            "members {} unique {} queued {} running {} done {} failed {} cancelled {} pruned {}",
            s.members, s.unique, s.queued, s.running, s.done, s.failed, s.cancelled, s.pruned
        );
        if line != last_line {
            frames.push_str(&sse_frame("batch", &line));
            last_line = line;
        }
        status.is_terminal().then(|| "state done".into())
    });
}

/// Bytes asked of the socket per `read` while the header block is open.
/// A typical request head, and the start of a small body, arrive in one
/// call.
const READ_CHUNK: usize = 4 << 10;

/// Reads and parses one request. Strictly bounded: the header block is
/// capped at 8 KiB, the body at `max_body`, the whole read at `deadline`
/// (checked before every read, so a slow-drip client cannot hold the
/// handler past it), and every malformed shape maps to a 4xx. The socket
/// is read in chunks; bytes read past the head start the body, and bytes
/// past `Content-Length` are ignored.
fn read_request(
    stream: &mut impl Read,
    max_body: usize,
    clock: &dyn Clock,
    deadline: Duration,
) -> Result<Request, HttpError> {
    let mut buf = Vec::new();
    let mut filled = 0;
    let head_len = loop {
        if filled == buf.len() {
            buf.resize(filled + READ_CHUNK, 0);
        }
        let scanned = filled;
        filled += read_some(
            stream,
            &mut buf[filled..],
            clock,
            deadline,
            "connection closed before the header block ended",
            "timed out reading the request",
        )?;
        match head_end(&buf[..filled], scanned) {
            Some(end) if end <= MAX_HEAD_BYTES + 1 => break end,
            None if filled <= MAX_HEAD_BYTES => {}
            _ => return Err(HttpError::new(431, "header block exceeds 8 KiB")),
        }
    };
    let (method, path, len) = parse_head(&buf[..head_len])?;
    if len > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {len} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    // the body starts with what arrived behind the head
    let early = (filled - head_len).min(len);
    let mut body = Vec::with_capacity(len);
    body.extend_from_slice(&buf[head_len..head_len + early]);
    body.resize(len, 0);
    let mut got = early;
    while got < len {
        got += read_some(
            stream,
            &mut body[got..],
            clock,
            deadline,
            "request body shorter than Content-Length",
            "timed out reading the request body",
        )?;
    }
    Ok(Request { method, path, body })
}

/// One `read` into `buf`, after the deadline check. Returns the byte
/// count, never zero: an early close answers `400` with `closed`, a
/// socket timeout `408` with `timed_out`.
fn read_some(
    stream: &mut impl Read,
    buf: &mut [u8],
    clock: &dyn Clock,
    deadline: Duration,
    closed: &str,
    timed_out: &str,
) -> Result<usize, HttpError> {
    if clock.now() >= deadline {
        return Err(HttpError::new(408, "request deadline exceeded"));
    }
    match stream.read(buf) {
        Ok(0) => Err(HttpError::new(400, closed)),
        Ok(n) => Ok(n),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            Err(HttpError::new(408, timed_out))
        }
        Err(_) => Err(HttpError::new(400, "read error")),
    }
}

/// The length of the header block in `bytes`: up to and including the
/// first blank line (`\r\n\r\n` or `\n\n`). `scanned` bytes were searched
/// by an earlier call, so the search starts at the first `\n` after them.
fn head_end(bytes: &[u8], scanned: usize) -> Option<usize> {
    (scanned..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .find(|&end| bytes[..end].ends_with(b"\r\n\r\n") || bytes[..end].ends_with(b"\n\n"))
}

/// Parses a header block into its method, target and `Content-Length`
/// (zero when absent).
fn parse_head(head: &[u8]) -> Result<(Method, String, usize), HttpError> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(400, "malformed request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/") {
        return Err(HttpError::new(400, "malformed request line"));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        _ => {
            return Err(HttpError::new(
                405,
                format!("method {method} not supported"),
            ))
        }
    };
    if !path.starts_with('/') {
        return Err(HttpError::new(400, "request path must start with '/'"));
    }
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(
                400,
                format!("malformed header line: {line}"),
            ));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(HttpError::new(400, "conflicting Content-Length headers"));
            }
            content_length = Some(parsed);
        }
    }
    Ok((method, path.to_string(), content_length.unwrap_or(0)))
}

/// Splits a request target into its path and (possibly empty) query.
fn split_target(target: &str) -> (&str, &str) {
    target
        .split_once('?')
        .map_or((target, ""), |(path, query)| (path, query))
}

/// Whether a query string contains `key=value` (no percent-decoding —
/// the only recognised parameters are plain ASCII).
fn query_has(query: &str, key: &str, value: &str) -> bool {
    query
        .split('&')
        .any(|pair| pair.split_once('=') == Some((key, value)))
}

/// Parses the `?class=` override; `None` on an unknown class name.
fn parse_class(query: &str, default: QosClass) -> Option<QosClass> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("class="))
        .map_or(Some(default), QosClass::parse)
}

/// Splits a `POST /batch` body into member netlists on `%%` separator
/// lines. Members are kept verbatim (the dedup path canonicalizes);
/// fully blank members are dropped so a trailing separator is harmless.
fn split_batch_members(body: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut current = String::new();
    for line in body.lines() {
        if line.trim() == "%%" {
            if !current.trim().is_empty() {
                members.push(std::mem::take(&mut current));
            } else {
                current.clear();
            }
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    if !current.trim().is_empty() {
        members.push(current);
    }
    members
}

/// Maps a [`SubmitError`] to the shared backpressure response shape used
/// by both submit routes.
fn submit_error_response(service: &Service, e: &SubmitError) -> Response {
    match e {
        SubmitError::QueueFull { depth, .. } => Response::text(429, format!("error {e}\n"))
            .with_retry_after(retry_after_secs(*depth, service.worker_count())),
        SubmitError::ShuttingDown => Response::text(503, format!("error {e}\n")),
        // the journal write failed — likely transient (disk pressure);
        // invite a quick retry
        SubmitError::Persist { .. } => {
            Response::text(503, format!("error {e}\n")).with_retry_after(1)
        }
    }
}

/// The routing table. Every arm names the bounded-cardinality label its
/// request is observed under: the route pattern, never the raw path. The
/// event-stream routes answer `Routed::..Events` once the target is
/// known to exist (unknown ids still get a plain 404 — a stream must not
/// commit a 200 head for a job that is not there). A `jobs`/`batch` route
/// is matched before its id is parsed, so an unknown sub-route is
/// `other` whatever its id.
fn route(service: &Service, req: Request) -> (&'static str, Routed) {
    let (path, query) = split_target(&req.path);
    let segments: Vec<&str> = path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let plain = |label, response| (label, Routed::Plain(response));
    match (req.method, segments.as_slice()) {
        (Method::Post, ["synthesize"]) => plain(
            "POST /synthesize",
            submit(service, "netlist", req.body, query),
        ),
        (Method::Post, ["synthesize-assay"]) => plain(
            "POST /synthesize-assay",
            submit(service, "assay", req.body, query),
        ),
        (Method::Post, ["batch"]) => plain("POST /batch", submit_batch(service, req.body, query)),
        (method, ["jobs", raw, rest @ ..]) => {
            let id = parse_id(raw);
            let no_job = |id| Response::text(404, format!("error no job {id}\n"));
            let (label, routed) = match (method, rest) {
                (Method::Get, []) => (
                    "GET /jobs/{id}",
                    id.map(|id| match service.status(id) {
                        Some(status) => Routed::Plain(Response::text(200, status.render())),
                        None => Routed::Plain(no_job(id)),
                    }),
                ),
                (Method::Get, ["svg"]) => (
                    "GET /jobs/{id}/svg",
                    id.map(|id| Routed::Plain(export(service, id, ExportKind::Svg))),
                ),
                (Method::Get, ["scr"]) => (
                    "GET /jobs/{id}/scr",
                    id.map(|id| Routed::Plain(export(service, id, ExportKind::Scr))),
                ),
                (Method::Get, ["trace"]) => (
                    "GET /jobs/{id}/trace",
                    id.map(|id| match service.job_trace(id) {
                        Some(jsonl) => Routed::Plain(Response::jsonl(jsonl)),
                        None => Routed::Plain(no_job(id)),
                    }),
                ),
                (Method::Get, ["events"]) => (
                    "GET /jobs/{id}/events",
                    id.map(|id| match service.status(id) {
                        Some(_) => Routed::JobEvents(id),
                        None => Routed::Plain(no_job(id)),
                    }),
                ),
                (Method::Get, ["profile"]) => (
                    "GET /jobs/{id}/profile",
                    id.map(|id| Routed::Plain(profile(service, id))),
                ),
                (Method::Delete, []) => (
                    "DELETE /jobs/{id}",
                    id.map(|id| {
                        Routed::Plain(if service.cancel(id) {
                            Response::text(200, format!("cancelled {id}\n"))
                        } else {
                            Response::text(
                                404,
                                format!("error job {id} not found or already terminal\n"),
                            )
                        })
                    }),
                ),
                _ => return plain("other", no_route(path)),
            };
            let bad_id = || Routed::Plain(Response::text(400, "error job id must be an integer\n"));
            (label, routed.unwrap_or_else(bad_id))
        }
        (Method::Get, ["batch", raw, rest @ ..]) => {
            let id = raw.parse().ok().map(BatchId);
            let no_batch = |id| Response::text(404, format!("error no batch {id}\n"));
            let (label, routed) = match rest {
                [] => (
                    "GET /batch/{id}",
                    id.map(|id| match service.batch_status(id) {
                        Some(status) => Routed::Plain(Response::text(200, status.render())),
                        None => Routed::Plain(no_batch(id)),
                    }),
                ),
                ["events"] => (
                    "GET /batch/{id}/events",
                    id.map(|id| match service.batch_status(id) {
                        Some(_) => Routed::BatchEvents(id),
                        None => Routed::Plain(no_batch(id)),
                    }),
                ),
                _ => return plain("other", no_route(path)),
            };
            let bad_id =
                || Routed::Plain(Response::text(400, "error batch id must be an integer\n"));
            (label, routed.unwrap_or_else(bad_id))
        }
        (Method::Get, ["metrics"]) => plain(
            "GET /metrics",
            if query_has(query, "format", "prometheus") {
                Response::text(200, service.metrics().render_prometheus())
            } else {
                Response::text(200, service.metrics().render())
            },
        ),
        (Method::Get, ["slo"]) => {
            plain("GET /slo", Response::json(service.slo_snapshot().to_json()))
        }
        (Method::Get, ["trace"]) => plain("GET /trace", Response::jsonl(service.service_trace())),
        (Method::Get, ["profile"]) => plain("GET /profile", Response::json(service.http_profile())),
        (Method::Get, ["healthz"]) => plain("GET /healthz", healthz(service)),
        _ => plain("other", no_route(path)),
    }
}

fn no_route(path: &str) -> Response {
    Response::text(404, format!("error no route for {path}\n"))
}

/// `POST /synthesize` (`what` = `netlist`) and `POST /synthesize-assay`
/// (`what` = `assay`).
fn submit(service: &Service, what: &str, body: Vec<u8>, query: &str) -> Response {
    let Ok(text) = String::from_utf8(body) else {
        return Response::text(400, format!("error {what} body is not UTF-8\n"));
    };
    if text.trim().is_empty() {
        return Response::text(400, format!("error empty {what} body\n"));
    }
    let Some(class) = parse_class(query, QosClass::Interactive) else {
        return Response::text(400, "error class must be interactive or bulk\n");
    };
    // Eager assay validation so malformed bodies and cyclic graphs
    // are structured 4xx at the boundary (the worker re-parses the
    // journaled text, which by then is known good).
    if what == "assay" {
        if let Err(e) = columba_schedule::Assay::parse(&text) {
            return Response::text(400, format!("error assay error: {e}\n"));
        }
    }
    match service.submit_text_as(text, class) {
        Ok(id) => Response::text(202, format!("id {id}\n")),
        Err(e) => submit_error_response(service, &e),
    }
}

/// `POST /batch`: members split on `%%` lines, admitted as one group.
fn submit_batch(service: &Service, body: Vec<u8>, query: &str) -> Response {
    let Ok(text) = String::from_utf8(body) else {
        return Response::text(400, "error batch body is not UTF-8\n");
    };
    let members = split_batch_members(&text);
    if members.is_empty() {
        return Response::text(400, "error empty batch body\n");
    }
    let Some(class) = parse_class(query, QosClass::Bulk) else {
        return Response::text(400, "error class must be interactive or bulk\n");
    };
    match service.submit_batch(&members, class) {
        Ok((batch, jobs)) => {
            use std::fmt::Write as _;
            let mut body = format!("batch {batch}\nmembers {}\n", jobs.len());
            for (index, job) in jobs.iter().enumerate() {
                let _ = writeln!(body, "member {index} job {job}");
            }
            Response::text(202, body)
        }
        Err(e) => submit_error_response(service, &e),
    }
}

/// `GET /jobs/{id}/svg` and `GET /jobs/{id}/scr`.
fn export(service: &Service, id: JobId, kind: ExportKind) -> Response {
    match service.export(id, kind) {
        Ok(design) => Response::export(design, kind),
        Err(ExportError::NotFound) => Response::text(404, format!("error no job {id}\n")),
        Err(ExportError::NotReady(state)) => {
            Response::text(409, format!("error job {id} is {state}, no design\n"))
        }
    }
}

/// `GET /jobs/{id}/profile`.
fn profile(service: &Service, id: JobId) -> Response {
    match service.job_profile(id) {
        Ok(json) => Response::json(json),
        Err(ProfileError::NotFound) => Response::text(404, format!("error no job {id}\n")),
        Err(ProfileError::NotReady(state)) => Response::text(
            409,
            format!("error job {id} is {state}, profile not ready\n"),
        ),
        Err(ProfileError::Disabled) => {
            Response::text(409, format!("error job {id} has no profile\n"))
        }
    }
}

/// `GET /healthz`. Deliberately never blocks on readiness: this is the
/// one route a load balancer can poll while startup recovery is still
/// replaying the journal.
fn healthz(service: &Service) -> Response {
    let health = service.health();
    let mut response = Response::json(health.to_json());
    if !health.ready {
        response.status = 503;
        // a short fixed hint — recovery progress is not predictable
        // from queue depth, and the depth accessors themselves gate on
        // readiness
        response = response.with_retry_after(1);
    }
    response
}

fn parse_id(raw: &str) -> Option<JobId> {
    raw.parse().ok().map(JobId)
}

/// Serves one request on `conn`; the caller closes it.
fn handle_connection(service: &Service, mut conn: &mut dyn Conn, config: HttpConfig) {
    // Observe the whole request: an `http.request` span (recorded into
    // the service-level recorder behind `GET /profile`), the latency
    // histogram, and the per-(route, status) counter.
    let _recorder = service.attach_http_recorder();
    let clock = service.clock();
    let t0 = clock.now();
    let mut span = columba_obs::span("http.request");
    conn.set_read_timeout(Some(config.read_timeout));
    conn.set_write_timeout(Some(config.write_timeout));
    let deadline = clock.now().saturating_add(config.request_deadline);
    let (label, routed) = match read_request(&mut conn, config.max_body_bytes, &*clock, deadline) {
        Ok(req) => route(service, req),
        Err(e) => ("malformed", Routed::Plain(Response::from_error(&e))),
    };
    let status = match routed {
        Routed::Plain(response) => {
            // the client may already be gone; that is its problem, not ours
            let _ = response.write_to(&mut conn);
            response.status
        }
        Routed::JobEvents(id) => {
            stream_job_events(service, &mut conn, config, id);
            200
        }
        Routed::BatchEvents(id) => {
            stream_batch_events(service, &mut conn, config, id);
            200
        }
    };
    if span.is_recording() {
        span.attr("route", label);
        span.attr("status", u64::from(status));
    }
    drop(span);
    service.observe_http(label, status, clock.now().saturating_sub(t0));
}

/// Decrements the live-connection count when a served connection is
/// released (or dropped unserved).
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// How long an idle handler waits per iteration. A `SimClock` counts a
/// wait this long as forever: an idle handler is no advancement target,
/// and being blocked it never pins virtual time either.
const IDLE_WAIT: Duration = Duration::from_secs(3600);

/// The handoff from the accept loop to the handler threads: one queue
/// and one condvar.
#[derive(Default)]
struct Handlers {
    queue: Mutex<HandlerQueue>,
    cv: Condvar,
}

#[derive(Default)]
struct HandlerQueue {
    /// Accepted connections no handler has taken yet, oldest first.
    waiting: VecDeque<(Box<dyn Conn>, ConnGuard)>,
    /// Handlers holding no connection: idle, closing their last one, or
    /// just spawned.
    free: usize,
    /// Handler threads alive.
    threads: usize,
    /// Set by [`HttpServer::shutdown`]: handlers exit once the queue is
    /// empty.
    shutdown: bool,
}

impl Handlers {
    fn lock(&self) -> MutexGuard<'_, HandlerQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handler thread: serves queued connections one at a time until
/// shutdown, idling in a clock wait between them.
fn handler_loop(service: &Service, handlers: &Handlers, config: HttpConfig) {
    let clock = service.clock();
    let mut queue = handlers.lock();
    loop {
        if let Some((mut conn, guard)) = queue.waiting.pop_front() {
            queue.free -= 1;
            drop(queue);
            handle_connection(service, &mut *conn, config);
            // Free before the close: a client sends its next request
            // only after it reads the close, so that connection finds
            // this handler free and no thread is spawned for it.
            handlers.lock().free += 1;
            conn.close();
            drop(conn);
            drop(guard);
            queue = handlers.lock();
        } else if queue.shutdown {
            queue.free -= 1;
            queue.threads -= 1;
            return;
        } else {
            queue = clock_wait(&*clock, &handlers.cv, queue, IDLE_WAIT).0;
        }
    }
}

/// The front end: an accept loop handing each connection to a reused
/// handler thread. Production serves a [`TcpTransport`] via
/// [`HttpServer::bind`]; the simulation harness serves a
/// [`crate::SimNet`] via [`HttpServer::serve_on`]. Dropping the server
/// (or calling [`HttpServer::shutdown`]) stops accepting; the wrapped
/// [`Service`] is shut down separately by its owner.
pub struct HttpServer {
    addr: SocketAddr,
    transport: Arc<dyn Transport>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    active: Arc<AtomicUsize>,
    handlers: Arc<Handlers>,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("transport", &self.transport.label())
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(service: Arc<Service>, addr: &str, config: HttpConfig) -> io::Result<HttpServer> {
        let transport = TcpTransport::bind(addr)?;
        let local = transport.addr();
        HttpServer::start(service, Arc::new(transport), local, config)
    }

    /// Starts accepting over an arbitrary [`Transport`] — the entry
    /// point the deterministic simulation uses with a
    /// [`crate::SimNet`]. [`HttpServer::addr`] is meaningless for
    /// non-TCP transports (it reports an unbound placeholder).
    ///
    /// # Errors
    ///
    /// Propagates the accept-thread spawn failure.
    pub fn serve_on(
        service: Arc<Service>,
        transport: Arc<dyn Transport>,
        config: HttpConfig,
    ) -> io::Result<HttpServer> {
        let placeholder = SocketAddr::from(([127, 0, 0, 1], 0));
        HttpServer::start(service, transport, placeholder, config)
    }

    fn start(
        service: Arc<Service>,
        transport: Arc<dyn Transport>,
        addr: SocketAddr,
        config: HttpConfig,
    ) -> io::Result<HttpServer> {
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let handlers = Arc::new(Handlers::default());
        let clock = service.clock();
        // the accept thread is a sim party from before it exists
        clock.party_reserve();
        let accept = {
            let stop = Arc::clone(&stop);
            let transport = Arc::clone(&transport);
            let active = Arc::clone(&active);
            let handlers = Arc::clone(&handlers);
            let spawned = thread::Builder::new()
                .name("columba-http-accept".into())
                .spawn(move || {
                    accept_loop(&transport, &service, config, &stop, &active, &handlers);
                });
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    clock.party_unreserve();
                    return Err(e);
                }
            }
        };
        Ok(HttpServer {
            addr,
            transport,
            stop,
            accept: Some(accept),
            active,
            handlers,
            clock,
        })
    }

    /// The bound address (resolves the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served (the chaos harness asserts
    /// this drains to zero — no leaked connections).
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Handler threads alive. A handler is spawned only when fewer are
    /// free than connections wait, so a client that sends its requests
    /// one after another is served by a single thread.
    #[must_use]
    pub fn handler_threads(&self) -> usize {
        self.handlers.lock().threads
    }

    /// Stops accepting connections, joins the accept thread and lets
    /// idle handlers exit. Handlers are not joined: a busy one exits
    /// when its connection ends, and an event stream may outlive the
    /// server. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.transport.unblock();
        if let Some(h) = self.accept.take() {
            // Joining a sim thread from a sim party pins virtual time
            // (the join is invisible to the clock); suspend for its
            // duration so the accept loop can finish a pending sleep.
            let _suspend = ClockSuspend::new(&self.clock);
            let _ = h.join();
        }
        self.handlers.lock().shutdown = true;
        self.clock.mark_wake();
        self.handlers.cv.notify_all();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    transport: &Arc<dyn Transport>,
    service: &Arc<Service>,
    config: HttpConfig,
    stop: &AtomicBool,
    active: &Arc<AtomicUsize>,
    handlers: &Arc<Handlers>,
) {
    let clock = service.clock();
    let _party = ClockParty::adopt(&clock);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match transport.accept() {
            Ok(mut conn) => {
                if stop.load(Ordering::Acquire) {
                    conn.close();
                    return;
                }
                if active.fetch_add(1, Ordering::AcqRel) >= config.max_connections.max(1) {
                    // over the cap: answer on the accept thread (bounded —
                    // the response is a few dozen bytes against an empty
                    // socket buffer) instead of growing threads without
                    // bound
                    active.fetch_sub(1, Ordering::AcqRel);
                    conn.set_write_timeout(Some(Duration::from_secs(1)));
                    let retry = retry_after_secs(service.queue_depth(), service.worker_count());
                    let _ = Response::text(503, "error too many open connections\n")
                        .with_retry_after(retry)
                        .write_to(&mut conn);
                    conn.close();
                    continue;
                }
                let guard = ConnGuard(Arc::clone(active));
                let spawn = {
                    let mut queue = handlers.lock();
                    queue.waiting.push_back((conn, guard));
                    // every handler holds or waits for one of the
                    // capped connections, so there are never more
                    // handlers than `max_connections`
                    let spawn = queue.free < queue.waiting.len();
                    if spawn {
                        queue.free += 1;
                        queue.threads += 1;
                    }
                    spawn
                };
                // the handoff is a wake: an idle handler registered
                // before it pins virtual time until it has looked
                clock.mark_wake();
                handlers.cv.notify_one();
                if spawn {
                    spawn_handler(service, handlers, config);
                }
            }
            // unblock() fired: loop around and re-check the stop flag
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => clock.sleep(Duration::from_millis(10)),
        }
    }
}

/// Spawns a handler counted free and alive by the caller, reserving its
/// clock party first so virtual time cannot advance before it runs. The
/// thread is detached: it exits after [`HttpServer::shutdown`].
fn spawn_handler(service: &Arc<Service>, handlers: &Arc<Handlers>, config: HttpConfig) {
    let clock = service.clock();
    clock.party_reserve();
    let spawned = {
        let service = Arc::clone(service);
        let handlers = Arc::clone(handlers);
        let clock = Arc::clone(&clock);
        thread::Builder::new()
            .name("columba-http-handler".into())
            .spawn(move || {
                let _party = ClockParty::adopt(&clock);
                handler_loop(&service, &handlers, config);
            })
    };
    if spawned.is_err() {
        // thread exhaustion: give the reserved party slot back, and drop
        // the connection no handler is left to take rather than die
        clock.party_unreserve();
        let orphan = {
            let mut queue = handlers.lock();
            queue.free -= 1;
            queue.threads -= 1;
            if queue.waiting.len() > queue.free {
                queue.waiting.pop_back()
            } else {
                None
            }
        };
        drop(orphan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simenv::clock::RealClock;
    use std::io::Cursor;
    use std::net::TcpStream;

    const FAR: Duration = Duration::from_secs(30);

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let clock = RealClock::new();
        read_request(&mut Cursor::new(raw.to_vec()), 1 << 20, &clock, FAR)
    }

    #[test]
    fn parses_get_and_post() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("valid");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());

        let req =
            parse(b"POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\n\r\nchip").expect("valid");
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"chip");
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").expect("valid");
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn garbage_request_lines_are_400_or_405() {
        for raw in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x SMTP/1.0\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"PUT /x HTTP/1.1\r\n\r\n",
            b"\xff\xfe\x00 garbage\r\n\r\n",
        ] {
            let status = parse(raw).expect_err("must be rejected").status;
            assert!(
                status == 400 || status == 405,
                "{raw:?} gave {status}, wanted 4xx"
            );
        }
    }

    #[test]
    fn content_length_abuse() {
        // invalid
        let e = parse(b"POST /s HTTP/1.1\r\nContent-Length: banana\r\n\r\n").expect_err("reject");
        assert_eq!(e.status, 400);
        // negative
        let e = parse(b"POST /s HTTP/1.1\r\nContent-Length: -5\r\n\r\n").expect_err("reject");
        assert_eq!(e.status, 400);
        // conflicting duplicates
        let e = parse(b"POST /s HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx")
            .expect_err("reject");
        assert_eq!(e.status, 400);
        // oversized
        let e = read_request(
            &mut Cursor::new(b"POST /s HTTP/1.1\r\nContent-Length: 100\r\n\r\n".to_vec()),
            10,
            &RealClock::new(),
            FAR,
        )
        .expect_err("reject");
        assert_eq!(e.status, 413);
        // truncated body
        let e = parse(b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").expect_err("reject");
        assert_eq!(e.status, 400);
    }

    #[test]
    fn oversized_header_block_is_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        let e = parse(&raw).expect_err("reject");
        assert_eq!(e.status, 431);
    }

    /// A reader that drips one byte per `read()` call, sleeping in
    /// between — a cooperative model of a slow-drip client that never
    /// trips the per-read socket timeout.
    struct Drip {
        data: Vec<u8>,
        pos: usize,
        pause: Duration,
    }

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            RealClock::new().sleep(self.pause);
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn slow_drip_request_hits_the_deadline() {
        // each byte arrives "quickly" (well inside any per-read timeout),
        // but the request as a whole must still be cut off at the deadline
        let mut drip = Drip {
            data: b"POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\n\r\nchip".to_vec(),
            pos: 0,
            pause: Duration::from_millis(10),
        };
        let clock = RealClock::new();
        let e = read_request(&mut drip, 1 << 20, &clock, Duration::from_millis(50))
            .expect_err("deadline must fire");
        assert_eq!(e.status, 408);
    }

    #[test]
    fn slow_drip_body_hits_the_deadline() {
        // the header block arrives instantly, then the body drips — the
        // deadline must also cover the body loop
        let head = b"POST /synthesize HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        let mut data = head.to_vec();
        data.extend(std::iter::repeat_n(b'x', 1000));
        let mut drip = Drip {
            data,
            pos: 0,
            pause: Duration::ZERO,
        };
        // burn the header bytes with no pause, then slow down: simplest is
        // to give the whole read a deadline already spent by header time —
        // use a drip pause small enough that the header finishes, with a
        // deadline shorter than the full body takes
        drip.pause = Duration::from_micros(200);
        let clock = RealClock::new();
        let e = read_request(&mut drip, 1 << 20, &clock, Duration::from_millis(40))
            .expect_err("deadline must fire");
        assert_eq!(e.status, 408);
    }

    /// A reader that hands out at most `piece` bytes per `read()` and
    /// counts its calls.
    struct Pieces {
        data: Cursor<Vec<u8>>,
        piece: usize,
        reads: usize,
    }

    impl Pieces {
        fn new(data: &[u8], piece: usize) -> Pieces {
            Pieces {
                data: Cursor::new(data.to_vec()),
                piece,
                reads: 0,
            }
        }
    }

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.piece);
            self.data.read(&mut buf[..n])
        }
    }

    #[test]
    fn requests_parse_the_same_however_they_arrive() {
        let shapes: &[&[u8]] = &[
            // head and body in one read when all of it is there
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\n\r\nchip",
            // a body longer than one small piece: split across reads
            b"POST /batch?class=bulk HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nchip a\n%%\nb",
            // bytes past Content-Length are ignored
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\n\r\nchipEXTRA BYTES",
            b"GET /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /again HTTP/1.1\r\n\r\n",
            // bare-LF heads, with and without a body
            b"GET /healthz HTTP/1.1\nHost: x\n\n",
            b"POST /synthesize HTTP/1.1\nContent-Length: 3\n\nabcdef",
            // and the rejections keep their status
            b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"POST /s HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx",
            b"GET /x HTTP/1.1\r\nHost: x",
        ];
        let clock = RealClock::new();
        for raw in shapes {
            let whole = parse(raw);
            for piece in [1, 3, usize::MAX] {
                let got = read_request(&mut Pieces::new(raw, piece), 1 << 20, &clock, FAR);
                assert_eq!(got, whole, "{piece}-byte reads of {raw:?}");
            }
        }
        let req = parse(shapes[2]).expect("valid");
        assert_eq!(req.body, b"chip");
        // the head limit sits on the same byte for every piece size: a
        // head of 8 KiB + 1 passes, one byte more is a 431
        for (len, rejected) in [(MAX_HEAD_BYTES + 1, None), (MAX_HEAD_BYTES + 2, Some(431))] {
            let mut raw = b"GET /x HTTP/1.1\r\nX: ".to_vec();
            raw.resize(len - 4, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            for piece in [1, 3, usize::MAX] {
                let got = read_request(&mut Pieces::new(&raw, piece), 1 << 20, &clock, FAR);
                assert_eq!(got.err().map(|e| e.status), rejected, "{len}: {piece}");
            }
        }
    }

    #[test]
    fn a_small_get_takes_one_read() {
        // the shape of a status poll: 58 bytes
        let raw = b"GET /jobs/123 HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(raw.len(), 58);
        let mut reader = Pieces::new(raw, usize::MAX);
        let req = read_request(&mut reader, 1 << 20, &RealClock::new(), FAR).expect("valid");
        assert_eq!(req.path, "/jobs/123");
        assert_eq!(reader.reads, 1);
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::new(&mut out);
        w.chunk(b"hello").expect("write");
        w.chunk(b"")
            .expect("empty chunk is a no-op, not a terminator");
        w.chunk(&[b'x'; 16]).expect("write");
        w.finish().expect("finish");
        let text = String::from_utf8(out).expect("ascii");
        assert_eq!(
            text,
            format!("5\r\nhello\r\n10\r\n{}\r\n0\r\n\r\n", "x".repeat(16))
        );
    }

    #[test]
    fn sse_frames_split_multiline_data() {
        assert_eq!(
            sse_frame("solved", "full MILP"),
            "event: solved\ndata: full MILP\n\n"
        );
        assert_eq!(
            sse_frame("batch", "a\nb"),
            "event: batch\ndata: a\ndata: b\n\n",
            "raw newlines must not leak into one data line"
        );
        assert_eq!(sse_frame("end", ""), "event: end\ndata:\n\n");
    }

    #[test]
    fn batch_bodies_split_on_separator_lines() {
        let members = split_batch_members("chip a\n%%\nchip b\n%%\n");
        assert_eq!(
            members,
            vec!["chip a\n".to_string(), "chip b\n".to_string()]
        );
        // blank members (leading, doubled, or trailing separators) vanish
        let members = split_batch_members("%%\nchip a\n%%\n%%\n  \n%%\nchip b");
        assert_eq!(
            members,
            vec!["chip a\n".to_string(), "chip b\n".to_string()]
        );
        assert!(split_batch_members("").is_empty());
        assert!(split_batch_members("%%\n \n%%").is_empty());
    }

    #[test]
    fn class_query_parses_with_per_route_default() {
        assert_eq!(
            parse_class("", QosClass::Interactive),
            Some(QosClass::Interactive)
        );
        assert_eq!(parse_class("", QosClass::Bulk), Some(QosClass::Bulk));
        assert_eq!(
            parse_class("class=interactive", QosClass::Bulk),
            Some(QosClass::Interactive)
        );
        assert_eq!(
            parse_class("format=prometheus&class=bulk", QosClass::Interactive),
            Some(QosClass::Bulk)
        );
        assert_eq!(parse_class("class=express", QosClass::Bulk), None);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::text(202, "id 7\n")
            .write_to(&mut out)
            .expect("in-memory write");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Length: 5\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(!text.contains("Retry-After"), "{text}");
        assert!(text.ends_with("\r\n\r\nid 7\n"), "{text}");
    }

    /// A writer over a `Vec` that takes at most `max` bytes per call and
    /// counts its calls. With `vectored` it gathers across slices like a
    /// socket's `writev`; without, it keeps `Write`'s default
    /// `write_vectored`, which writes the first non-empty slice only.
    struct Limited {
        out: Vec<u8>,
        max: usize,
        vectored: bool,
        calls: usize,
    }

    impl Limited {
        fn new(max: usize, vectored: bool) -> Limited {
            Limited {
                out: Vec::new(),
                max,
                vectored,
                calls: 0,
            }
        }
    }

    impl Write for Limited {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.max);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b);
                return self.write(first);
            }
            self.calls += 1;
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.max - n);
                self.out.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn export_response() -> Response {
        let design = Arc::new(CompletedDesign {
            summary: crate::cache::DesignSummary {
                drc_clean: true,
                width_mm: 1.0,
                height_mm: 1.0,
                control_inlets: 0,
                solve_nodes: 0,
                solve_pruned: 0,
                solve_simplex_iterations: 0,
            },
            svg: format!("<svg>{}</svg>", "<rect/>".repeat(40)),
            scr: String::new(),
            rung: "full MILP".into(),
            solved_in: Duration::ZERO,
        });
        Response::export(design, ExportKind::Svg)
    }

    #[test]
    fn response_bytes_do_not_depend_on_how_the_writer_takes_them() {
        for response in [
            Response::text(202, "id 7\n"),
            Response::text(429, "error queue full\n").with_retry_after(7),
            Response::text(404, ""),
            export_response(),
        ] {
            let mut expected = Vec::new();
            response.write_to(&mut expected).expect("in-memory write");
            for (max, vectored) in [(7, true), (7, false), (usize::MAX, false)] {
                let mut writer = Limited::new(max, vectored);
                response.write_to(&mut writer).expect("in-memory write");
                assert_eq!(writer.out, expected, "max {max}, vectored {vectored}");
            }
            // a writer that takes everything gets the response in one call
            let mut socket = Limited::new(usize::MAX, true);
            response.write_to(&mut socket).expect("in-memory write");
            assert_eq!((socket.out, socket.calls), (expected, 1));
        }
    }

    #[test]
    fn an_sse_chunk_goes_out_in_one_write() {
        let frame = sse_frame("solved", "full MILP");
        let mut socket = Limited::new(usize::MAX, true);
        ChunkedWriter::new(&mut socket)
            .chunk(frame.as_bytes())
            .expect("in-memory write");
        assert_eq!(socket.calls, 1);
        assert_eq!(
            socket.out,
            format!("{:x}\r\n{frame}\r\n", frame.len()).as_bytes()
        );
    }

    #[test]
    fn retry_after_header_is_emitted_and_scaled() {
        let mut out = Vec::new();
        Response::text(429, "error queue full\n")
            .with_retry_after(7)
            .write_to(&mut out)
            .expect("in-memory write");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.contains("Retry-After: 7\r\n"), "{text}");
        // the header lands before the blank line that ends the head
        let head_end = text.find("\r\n\r\n").expect("head/body split");
        assert!(text.find("Retry-After").expect("header") < head_end);

        assert_eq!(retry_after_secs(0, 4), 1, "floor of one second");
        assert_eq!(retry_after_secs(1000, 2), 60, "ceiling of a minute");
    }

    #[test]
    fn retry_after_jitter_stays_within_bounds() {
        // the jittered value must stay inside ±25% of the coarse
        // backlog estimate, and the [1, 60] clamp must stay a hard
        // guarantee no matter what the RNG draws
        for _ in 0..256 {
            let r = retry_after_secs(8, 4); // base 4 seconds
            assert!((3..=5).contains(&r), "±25% of 4s, got {r}");
            let r = retry_after_secs(5, 0); // base 10 (no div-by-zero)
            assert!((7..=12).contains(&r), "±25% of 10s, got {r}");
            assert_eq!(retry_after_secs(0, 4), 1, "floor survives jitter");
            assert_eq!(retry_after_secs(1000, 2), 60, "ceiling survives jitter");
        }
    }

    #[test]
    fn healthz_serves_a_json_readiness_report() {
        let service = quick_service(1, 4);
        let req = Request {
            method: Method::Get,
            path: "/healthz".into(),
            body: Vec::new(),
        };
        let (_, Routed::Plain(resp)) = route(&service, req) else {
            panic!("GET /healthz never streams");
        };
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        let text = std::str::from_utf8(resp.body.as_bytes()).expect("json is utf-8");
        assert!(text.contains("\"ready\":true"), "{text}");
        assert!(text.contains("\"breaker\":\"closed\""), "{text}");
        service.shutdown();
    }

    fn quick_service(workers: usize, queue_capacity: usize) -> Service {
        use crate::service::ServiceConfig;
        let mut options = columba_s::SynthesisOptions::default();
        // bounded by work: four nodes, with a clock that never fires
        options.layout.node_limit = 4;
        options.layout.time_limit = Duration::from_secs(3600);
        options.layout.threads = 1;
        Service::start(ServiceConfig {
            workers,
            queue_capacity,
            options,
            ..ServiceConfig::default()
        })
    }

    const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                        connect a -> m1.left\nconnect m1.right -> b\n";

    fn post_assay(service: &Service, body: &str) -> Response {
        let req = Request {
            method: Method::Post,
            path: "/synthesize-assay".into(),
            body: body.as_bytes().to_vec(),
        };
        let (_, Routed::Plain(resp)) = route(service, req) else {
            panic!("POST /synthesize-assay never streams");
        };
        resp
    }

    #[test]
    fn assay_route_accepts_a_valid_assay() {
        let service = quick_service(1, 4);
        let resp = post_assay(
            &service,
            "assay t\nop a duration=5 device=mixer\nop b duration=5 device=mixer\ndep a -> b\n",
        );
        assert_eq!(
            resp.status,
            202,
            "{:?}",
            std::str::from_utf8(resp.body.as_bytes())
        );
        let text = std::str::from_utf8(resp.body.as_bytes()).expect("ascii");
        assert!(text.starts_with("id "), "{text}");
        service.shutdown();
    }

    #[test]
    fn assay_route_rejects_malformed_bodies_with_400() {
        let service = quick_service(1, 4);
        for (body, needle) in [
            ("", "empty assay body"),
            ("assay t\nop a duration=bogus device=mixer\n", "line 2"),
            ("chip t\nmixer m1\n", "line 1"),
            ("assay t\nop a duration=5 device=warp\n", "line 2"),
        ] {
            let resp = post_assay(&service, body);
            assert_eq!(resp.status, 400, "body {body:?}");
            let text = std::str::from_utf8(resp.body.as_bytes()).expect("ascii");
            assert!(text.contains(needle), "{body:?} -> {text}");
        }
        service.shutdown();
    }

    #[test]
    fn assay_route_reports_cycles_with_op_ids() {
        let service = quick_service(1, 4);
        let resp = post_assay(
            &service,
            "assay t\n\
             op a duration=5 device=mixer\n\
             op b duration=5 device=mixer\n\
             op c duration=5 device=mixer\n\
             dep a -> b\ndep b -> c\ndep c -> a\n",
        );
        assert_eq!(resp.status, 400);
        let text = std::str::from_utf8(resp.body.as_bytes()).expect("ascii");
        assert!(text.contains("cyclic"), "{text}");
        for op in ["a", "b", "c"] {
            assert!(text.contains(op), "cycle must name {op}: {text}");
        }
        service.shutdown();
    }

    /// Posts submissions until admission control refuses one; returns
    /// that `429`.
    fn post_until_rejected(service: &Service) -> Response {
        for _ in 0..64 {
            let req = Request {
                method: Method::Post,
                path: "/synthesize".into(),
                body: TINY.as_bytes().to_vec(),
            };
            let (_, Routed::Plain(resp)) = route(service, req) else {
                panic!("POST /synthesize never streams");
            };
            if resp.status == 429 {
                return resp;
            }
            assert_eq!(resp.status, 202, "only 202 or 429 expected here");
        }
        panic!("a saturated queue must answer 429");
    }

    #[test]
    fn queue_full_response_carries_retry_after() {
        let service = quick_service(1, 1);
        let resp = post_until_rejected(&service);
        let mut out = Vec::new();
        resp.write_to(&mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 429"), "{text}");
        assert!(
            text.contains("Retry-After: "),
            "429 must carry Retry-After: {text}"
        );
        service.shutdown();
    }

    #[test]
    fn get_trace_serves_a_queue_full_rejection_as_one_jsonl_line() {
        let service = quick_service(1, 1);
        post_until_rejected(&service);
        let req = Request {
            method: Method::Get,
            path: "/trace".into(),
            body: Vec::new(),
        };
        let (_, Routed::Plain(resp)) = route(&service, req) else {
            panic!("GET /trace never streams");
        };
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/x-ndjson");
        let text = std::str::from_utf8(resp.body.as_bytes()).expect("jsonl is utf-8");
        let rejected: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"rejected\""))
            .collect();
        assert_eq!(rejected.len(), 1, "{text}");
        assert!(
            rejected[0].contains("queue full (depth 1, capacity 1)"),
            "{text}"
        );
        service.shutdown();
    }

    #[test]
    fn connection_cap_503_carries_retry_after() {
        let service = Arc::new(quick_service(1, 4));
        let config = HttpConfig {
            max_connections: 1,
            read_timeout: Duration::from_millis(300),
            request_deadline: Duration::from_millis(500),
            ..HttpConfig::default()
        };
        let mut server =
            HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
        let addr = server.addr();
        // hold one connection open without sending anything — its thread
        // occupies the single slot until the read deadline fires
        let _held = TcpStream::connect(addr).expect("first connection");
        // over-the-cap arrivals are answered 503 on the accept thread;
        // retry a few times in case the first thread has not registered yet
        let mut rejected = None;
        for _ in 0..50 {
            let mut conn = TcpStream::connect(addr).expect("second connection");
            conn.set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            let mut text = String::new();
            if conn.read_to_string(&mut text).is_ok() && text.starts_with("HTTP/1.1 503") {
                rejected = Some(text);
                break;
            }
            RealClock::new().sleep(Duration::from_millis(20));
        }
        let text = rejected.expect("the connection cap must answer 503");
        assert!(
            text.contains("Retry-After: "),
            "connection-cap 503 must carry Retry-After: {text}"
        );
        server.shutdown();
        service.shutdown();
    }

    /// One `GET` on its own connection; returns the whole reply.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write!(conn, "GET {path} HTTP/1.1\r\n\r\n").expect("send");
        let mut text = String::new();
        conn.read_to_string(&mut text).expect("reply");
        text
    }

    #[test]
    fn handlers_are_reused_and_capped() {
        let service = Arc::new(quick_service(1, 4));
        let config = HttpConfig {
            max_connections: 2,
            ..HttpConfig::default()
        };
        let mut server =
            HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
        let addr = server.addr();
        // requests one after another: one handler serves them all
        for _ in 0..5 {
            assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK\r\n"));
        }
        assert_eq!(server.handler_threads(), 1);
        // two silent connections hold the reused handler and one more;
        // the third arrival is over the cap, answered on the accept
        // thread, and spawns nothing (connections are accepted in order)
        let connect = || TcpStream::connect(addr).expect("connect");
        let held = [connect(), connect()];
        let mut text = String::new();
        connect().read_to_string(&mut text).expect("reply");
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        assert_eq!(server.handler_threads(), 2);
        drop(held);
        server.shutdown();
        service.shutdown();
    }

    /// An in-memory connection: serves `input`, swallows the response.
    struct MemConn(Cursor<Vec<u8>>);

    impl Read for MemConn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for MemConn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Conn for MemConn {
        fn set_read_timeout(&mut self, _: Option<Duration>) {}
        fn set_write_timeout(&mut self, _: Option<Duration>) {}
        fn close(&mut self) {}
    }

    #[test]
    fn every_route_is_observed_under_its_own_label() {
        let service = quick_service(1, 4);
        // unknown ids keep every route plain (no stream, no solve)
        let table: &[(&str, &str, &str, u16)] = &[
            ("POST", "/synthesize", "POST /synthesize", 400),
            ("POST", "/synthesize-assay", "POST /synthesize-assay", 400),
            ("POST", "/batch", "POST /batch", 400),
            ("GET", "/jobs/999", "GET /jobs/{id}", 404),
            ("GET", "/jobs/x", "GET /jobs/{id}", 400),
            ("GET", "/jobs/999/svg", "GET /jobs/{id}/svg", 404),
            ("GET", "/jobs/999/scr", "GET /jobs/{id}/scr", 404),
            ("GET", "/jobs/999/trace", "GET /jobs/{id}/trace", 404),
            ("GET", "/jobs/999/events", "GET /jobs/{id}/events", 404),
            ("GET", "/jobs/999/profile", "GET /jobs/{id}/profile", 404),
            ("DELETE", "/jobs/999", "DELETE /jobs/{id}", 404),
            ("DELETE", "/jobs/x", "DELETE /jobs/{id}", 400),
            ("GET", "/batch/999", "GET /batch/{id}", 404),
            ("GET", "/batch/999/events", "GET /batch/{id}/events", 404),
            ("GET", "/batch/x/events", "GET /batch/{id}/events", 400),
            ("GET", "/metrics?format=prometheus", "GET /metrics", 200),
            ("GET", "/slo", "GET /slo", 200),
            ("GET", "/trace", "GET /trace", 200),
            ("GET", "/profile", "GET /profile", 200),
            ("GET", "/healthz", "GET /healthz", 200),
            ("GET", "/jobs/x/bogus", "other", 404),
            ("POST", "/jobs/1", "other", 404),
            ("DELETE", "/batch/1", "other", 404),
            ("GET", "/nope", "other", 404),
        ];
        // the (label, status) rows one request adds to or bumps in /metrics
        let serve = |raw: Vec<u8>| -> Vec<(String, u16)> {
            let before = service.metrics().http_by_route;
            handle_connection(
                &service,
                &mut MemConn(Cursor::new(raw)),
                HttpConfig::default(),
            );
            (service.metrics().http_by_route.into_iter())
                .filter(|row| !before.contains(row))
                .map(|(label, status, _)| (label, status))
                .collect()
        };
        for &(method, target, label, status) in table {
            let raw = format!("{method} {target} HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
            let grown = serve(raw.into_bytes());
            assert_eq!(grown, [(label.to_string(), status)], "{method} {target}");
        }
        let grown = serve(b"NONSENSE\r\n\r\n".to_vec());
        assert_eq!(grown.len(), 1, "{grown:?}");
        assert_eq!(grown[0].0, "malformed");
        service.shutdown();
    }
}
