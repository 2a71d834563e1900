//! A minimal HTTP/1.1 client over `std::net`, and the design-request
//! flow the benchmark times: submit, poll the job to a terminal state,
//! fetch the SVG.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// One response: status code and body (the server closes every
/// connection, so the body runs to end of stream).
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    Ok(stream)
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Connection or I/O failure, or a malformed status line.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut stream = connect(addr, method, path, body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// `key value` lines of a `GET /jobs/<id>` body.
pub fn fields(text: &str) -> HashMap<String, String> {
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// What a finished design request returned.
#[derive(Debug, Clone)]
pub struct DesignReply {
    /// The job's status fields at its terminal state.
    pub status: HashMap<String, String>,
    /// Byte length of the SVG body.
    pub svg_bytes: usize,
    /// Whether the SVG body is a non-empty `<svg …</svg>` document.
    pub svg_ok: bool,
    /// When the poll loop first saw the terminal state.
    pub terminal_at: Instant,
}

impl DesignReply {
    /// A status field (empty when absent).
    pub fn get(&self, key: &str) -> &str {
        self.status.get(key).map_or("", String::as_str)
    }
}

/// Parses `id <n>` from a `202` submit reply.
fn submitted_id(reply: &Reply, what: &str) -> Result<u64, String> {
    if reply.status != 202 {
        return Err(format!(
            "{what}: status {} {}",
            reply.status,
            reply.text().trim()
        ));
    }
    fields(&reply.text())
        .get("id")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{what}: no job id in reply"))
}

/// Submits `text` to `route`, returning the job id. Any refusal (`429`,
/// `5xx`) is an error.
///
/// # Errors
///
/// Transport failure or a non-`202` reply.
pub fn submit(addr: SocketAddr, route: &str, text: &str, t: &mut Tracer) -> Result<u64, String> {
    t.begin("http.submit");
    let reply = call(addr, "POST", route, text.as_bytes());
    t.end();
    submitted_id(&reply.map_err(|e| format!("submit: {e}"))?, "submit")
}

/// Submits a batch, returning the member job ids in member order.
///
/// # Errors
///
/// Transport failure or a non-`202` reply.
pub fn submit_batch(
    addr: SocketAddr,
    members: &[&str],
    t: &mut Tracer,
) -> Result<Vec<u64>, String> {
    let body = members.join("%%\n");
    t.begin("http.batch");
    let reply = call(addr, "POST", "/batch", body.as_bytes());
    t.end();
    let reply = reply.map_err(|e| format!("batch: {e}"))?;
    if reply.status != 202 {
        return Err(format!(
            "batch: status {} {}",
            reply.status,
            reply.text().trim()
        ));
    }
    let ids: Vec<u64> = reply
        .text()
        .lines()
        .filter_map(|l| l.strip_prefix("member "))
        .filter_map(|l| l.split_whitespace().nth(2)?.parse().ok())
        .collect();
    if ids.len() == members.len() {
        Ok(ids)
    } else {
        Err(format!(
            "batch: {} member ids for {} members",
            ids.len(),
            members.len()
        ))
    }
}

/// Polls `GET /jobs/<id>` until the job is terminal, then fetches its
/// SVG. The poll interval is a quarter of the job's age (between 100 µs
/// and 50 ms): completion is seen within a quarter of the latency, and a
/// request costs about twenty polls whatever its length. Every poll is a
/// connection and a server thread, so finer polling would load the
/// machine it measures.
///
/// # Errors
///
/// Transport failure or a non-`200` reply.
pub fn finish(
    addr: SocketAddr,
    id: u64,
    submitted: Instant,
    t: &mut Tracer,
) -> Result<DesignReply, String> {
    let path = format!("/jobs/{id}");
    let (status, terminal_at) = loop {
        t.begin("http.status");
        let reply = call(addr, "GET", &path, b"");
        t.end();
        let reply = reply.map_err(|e| format!("status: {e}"))?;
        if reply.status != 200 {
            return Err(format!("status: {} {}", reply.status, reply.text().trim()));
        }
        let status = fields(&reply.text());
        let state = status.get("state").map_or("", String::as_str);
        if matches!(state, "done" | "failed" | "cancelled") {
            break (status, Instant::now());
        }
        let wait =
            (submitted.elapsed() / 4).clamp(Duration::from_micros(100), Duration::from_millis(50));
        std::thread::sleep(wait);
    };
    if status.get("state").map(String::as_str) != Some("done") {
        return Ok(DesignReply {
            status,
            svg_bytes: 0,
            svg_ok: false,
            terminal_at,
        });
    }
    t.begin("http.export");
    let reply = call(addr, "GET", &format!("/jobs/{id}/svg"), b"");
    t.end();
    let reply = reply.map_err(|e| format!("export: {e}"))?;
    if reply.status != 200 {
        return Err(format!("export: {} {}", reply.status, reply.text().trim()));
    }
    let svg = String::from_utf8_lossy(&reply.body);
    let trimmed = svg.trim();
    Ok(DesignReply {
        svg_ok: trimmed.starts_with("<svg") && trimmed.ends_with("</svg>") && trimmed.len() > 11,
        svg_bytes: reply.body.len(),
        status,
        terminal_at,
    })
}

/// Follows `GET /jobs/<id>/events` to its `event: end` frame, returning
/// when that frame arrived.
///
/// # Errors
///
/// Transport failure, a non-`200` reply, or a stream that closed
/// without an end frame.
pub fn follow_events(addr: SocketAddr, id: u64) -> Result<Instant, String> {
    let stream =
        connect(addr, "GET", &format!("/jobs/{id}/events"), b"").map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(format!("events: {}", line.trim()));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("events: stream closed without an end frame".into());
        }
        if line.trim_end() == "event: end" {
            return Ok(Instant::now());
        }
    }
}

/// Polls `/healthz` until it answers `200`.
///
/// # Errors
///
/// No `200` within `limit`.
pub fn await_healthy(addr: SocketAddr, limit: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if let Ok(reply) = call(addr, "GET", "/healthz", b"") {
            if reply.status == 200 {
                return Ok(());
            }
        }
        if start.elapsed() > limit {
            return Err("service never reported healthy".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}
