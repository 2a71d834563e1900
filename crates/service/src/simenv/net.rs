//! The transport the HTTP front end serves over.
//!
//! [`Transport`] + [`Conn`] abstract exactly what `http.rs` needs from
//! `TcpListener`/`TcpStream`: accept, timed byte reads, writes, and
//! close. [`TcpTransport`] is the production passthrough. [`SimNet`] is
//! an in-memory network for deterministic simulation: every connection
//! is a pair of bounded duplex pipes whose delivery times are driven by
//! a [`Clock`], modeling per-connection latency, bounded send buffers,
//! torn/short writes, slow-loris drip, mid-response resets and
//! half-closes. Faults are scheduled by **global op index** exactly like
//! `SimFs` (an op is one `connect`/`write` call), so a failing schedule
//! is reproducible and shrinkable.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::simenv::clock::{clock_wait, Clock};

/// One served connection, from the front end's point of view. The
/// supertraits carry the byte traffic; the methods carry the socket
/// controls `http.rs` uses.
pub trait Conn: Read + Write + Send {
    /// Bounds each individual `read()`; `None` blocks indefinitely.
    fn set_read_timeout(&mut self, d: Option<Duration>);
    /// Bounds each individual `write()`; `None` blocks indefinitely.
    fn set_write_timeout(&mut self, d: Option<Duration>);
    /// Releases the connection (both directions).
    fn close(&mut self);
}

/// An acceptor of [`Conn`]s — the piece of the front end a simulation
/// swaps out.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Blocks until a connection arrives. `ErrorKind::Interrupted` means
    /// [`Transport::unblock`] fired (the accept loop re-checks its stop
    /// flag); any other error is transient.
    fn accept(&self) -> io::Result<Box<dyn Conn>>;
    /// Wakes a blocked [`Transport::accept`] (used by shutdown).
    fn unblock(&self);
    /// Human-readable bound address.
    fn label(&self) -> String;
}

/// Production transport: a bound [`TcpListener`].
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds `addr` (e.g. `127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound address (resolves the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

struct TcpConn(TcpStream);

impl Read for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for TcpConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.0.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Conn for TcpConn {
    fn set_read_timeout(&mut self, d: Option<Duration>) {
        let _ = self.0.set_read_timeout(d);
    }

    fn set_write_timeout(&mut self, d: Option<Duration>) {
        let _ = self.0.set_write_timeout(d);
    }

    fn close(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

impl Transport for TcpTransport {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.listener.accept()?;
        Ok(Box::new(TcpConn(stream)))
    }

    fn unblock(&self) {
        // a throwaway connection pops the blocked accept
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    fn label(&self) -> String {
        self.addr.to_string()
    }
}

/// A network fault, scheduled against the global op index (one op per
/// `connect`/`write` call on the [`SimNet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The connection is reset: the faulted op fails with
    /// `ConnectionReset`, nothing is delivered, and every later op on
    /// the connection fails the same way. Scheduled onto a response
    /// write, this is a mid-response reset.
    Reset,
    /// A torn write: half of the faulted write is delivered, then the
    /// connection resets.
    Torn,
    /// The written-to direction half-closes after delivering the faulted
    /// write: the peer drains what arrived, then reads EOF.
    HalfClose,
    /// From this op on, bytes written to the connection trickle to the
    /// peer one at a time, `gap` of virtual time apart — a slow-loris
    /// client (or a congested return path, when it lands on a response).
    Drip {
        /// Virtual inter-byte delivery gap.
        gap: Duration,
    },
    /// One-off extra delivery latency on the faulted write.
    Delay {
        /// Added to the connection latency for this op only.
        extra: Duration,
    },
}

/// Undelivered bytes a direction holds before its writes block.
const BUFFER_CAP: usize = 256 << 10;

/// How long a blocked sim accept waits per iteration. Far above the
/// simulation horizon, so it never becomes a quiescence advancement
/// target (see `clock::FOREVER`).
const ACCEPT_WAIT: Duration = Duration::from_secs(3600);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Client,
    Server,
}

#[derive(Debug)]
struct Chunk {
    ready_at: Duration,
    data: Vec<u8>,
    pos: usize,
}

#[derive(Debug, Default)]
struct Pipe {
    chunks: VecDeque<Chunk>,
    /// Undelivered bytes (for the bounded-buffer model).
    len: usize,
    /// Writer half-closed: readers drain, then see EOF.
    closed: bool,
    /// Reader end dropped: writes fail `BrokenPipe`.
    reader_gone: bool,
    /// Latest scheduled delivery instant, so deliveries stay ordered.
    last_ready: Duration,
}

#[derive(Debug)]
struct DuplexState {
    /// Client-to-server bytes.
    c2s: Pipe,
    /// Server-to-client bytes.
    s2c: Pipe,
    reset: bool,
    drip: Option<Duration>,
}

#[derive(Debug, Default)]
struct NetState {
    ops: u64,
    faults: HashMap<u64, NetFault>,
    latency: Duration,
    conns: HashMap<u64, DuplexState>,
    accept_queue: VecDeque<u64>,
    next_conn: u64,
    accept_unblocked: bool,
}

#[derive(Debug)]
struct SimNetInner {
    state: Mutex<NetState>,
    cv: Condvar,
    clock: Arc<dyn Clock>,
}

impl SimNetInner {
    fn lock(&self) -> MutexGuard<'_, NetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notify with the wake recorded on the clock first, so virtual time
    /// cannot advance before the woken waiter re-checks its predicate.
    fn notify(&self) {
        self.clock.mark_wake();
        self.cv.notify_all();
    }
}

/// The simulated network. Clone-cheap (shared interior); implements
/// [`Transport`] for the server side, hands out [`SimSocket`]s for the
/// client side.
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Arc<SimNetInner>,
}

impl SimNet {
    /// A fresh network driven by `clock`, with no latency, a 256 KiB
    /// per-direction buffer, and an empty fault schedule.
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>) -> SimNet {
        SimNet {
            inner: Arc::new(SimNetInner {
                state: Mutex::new(NetState::default()),
                cv: Condvar::new(),
                clock,
            }),
        }
    }

    /// Ops performed so far (the fault-schedule index space).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.inner.lock().ops
    }

    /// Schedules `fault` to fire on the `index`-th op (1-based, like
    /// `SimFs::schedule_fault`).
    pub fn schedule_fault(&self, index: u64, fault: NetFault) {
        self.inner.lock().faults.insert(index, fault);
    }

    /// Clears any not-yet-fired faults.
    pub fn clear_faults(&self) {
        self.inner.lock().faults.clear();
    }

    /// Sets the one-way delivery latency applied to every written byte.
    pub fn set_latency(&self, latency: Duration) {
        self.inner.lock().latency = latency;
    }

    /// Opens a connection and queues it for the server's accept loop.
    /// Counts as one op (faults scheduled on it make the connection
    /// arrive dead).
    #[must_use]
    pub fn connect(&self) -> SimSocket {
        let id = {
            let mut st = self.inner.lock();
            let id = st.next_conn;
            st.next_conn += 1;
            st.ops += 1;
            let op = st.ops;
            let fault = st.faults.remove(&op);
            st.conns.insert(
                id,
                DuplexState {
                    c2s: Pipe::default(),
                    s2c: Pipe::default(),
                    reset: matches!(fault, Some(NetFault::Reset | NetFault::Torn)),
                    drip: match fault {
                        Some(NetFault::Drip { gap }) => Some(gap),
                        _ => None,
                    },
                },
            );
            st.accept_queue.push_back(id);
            id
        };
        self.inner.notify();
        SimSocket {
            end: SimEnd {
                inner: Arc::clone(&self.inner),
                id,
                side: Side::Client,
                read_timeout: None,
                write_timeout: None,
                closed: false,
            },
        }
    }
}

impl Transport for SimNet {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let mut st = self.inner.lock();
        loop {
            if st.accept_unblocked {
                st.accept_unblocked = false;
                return Err(io::Error::new(ErrorKind::Interrupted, "accept unblocked"));
            }
            if let Some(id) = st.accept_queue.pop_front() {
                return Ok(Box::new(SimConn(SimEnd {
                    inner: Arc::clone(&self.inner),
                    id,
                    side: Side::Server,
                    read_timeout: None,
                    write_timeout: None,
                    closed: false,
                })));
            }
            let (guard, _) = clock_wait(&*self.inner.clock, &self.inner.cv, st, ACCEPT_WAIT);
            st = guard;
        }
    }

    fn unblock(&self) {
        self.inner.lock().accept_unblocked = true;
        self.inner.notify();
    }

    fn label(&self) -> String {
        "sim".to_string()
    }
}

/// One end of a simulated connection.
#[derive(Debug)]
struct SimEnd {
    inner: Arc<SimNetInner>,
    id: u64,
    side: Side,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    closed: bool,
}

impl SimEnd {
    /// The pipe this end writes into / reads from.
    fn pipes(conn: &mut DuplexState, side: Side) -> (&mut Pipe, &mut Pipe) {
        match side {
            Side::Client => (&mut conn.c2s, &mut conn.s2c),
            Side::Server => (&mut conn.s2c, &mut conn.c2s),
        }
    }

    fn read_impl(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let clock = Arc::clone(&self.inner.clock);
        let deadline = self.read_timeout.map(|t| clock.now().saturating_add(t));
        let mut st = self.inner.lock();
        loop {
            let now = clock.now();
            let Some(conn) = st.conns.get_mut(&self.id) else {
                return Ok(0);
            };
            let reset = conn.reset;
            let (_, rx) = SimEnd::pipes(conn, self.side);
            let mut n = 0;
            while n < buf.len() {
                let Some(front) = rx.chunks.front_mut() else {
                    break;
                };
                if front.ready_at > now {
                    break;
                }
                let take = (buf.len() - n).min(front.data.len() - front.pos);
                buf[n..n + take].copy_from_slice(&front.data[front.pos..front.pos + take]);
                front.pos += take;
                n += take;
                rx.len -= take;
                if front.pos == front.data.len() {
                    rx.chunks.pop_front();
                }
            }
            if n > 0 {
                drop(st);
                // buffer space freed: wake blocked writers
                self.inner.notify();
                return Ok(n);
            }
            if reset {
                // bytes that already arrived were readable above; the
                // rest died with the connection
                return Err(ErrorKind::ConnectionReset.into());
            }
            if rx.closed && rx.chunks.is_empty() {
                return Ok(0);
            }
            // Bound this wait by the next delivery instant so the sim
            // clock advances to it, not straight to the read timeout.
            let next_ready = rx.chunks.front().map(|c| c.ready_at);
            if let Some(d) = deadline {
                if now >= d {
                    return Err(ErrorKind::WouldBlock.into());
                }
            }
            let mut wait = deadline.map_or(ACCEPT_WAIT, |d| d.saturating_sub(now));
            if let Some(r) = next_ready {
                wait = wait.min(r.saturating_sub(now).max(Duration::from_nanos(1)));
            }
            let (guard, _) = clock_wait(&*clock, &self.inner.cv, st, wait);
            st = guard;
        }
    }

    fn write_impl(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let clock = Arc::clone(&self.inner.clock);
        let deadline = self.write_timeout.map(|t| clock.now().saturating_add(t));
        let mut st = self.inner.lock();
        // One op per write call; the fault decides this op's fate before
        // capacity is consulted.
        st.ops += 1;
        let op = st.ops;
        let fault = st.faults.remove(&op);
        let base_latency = st.latency;
        loop {
            let now = clock.now();
            let Some(conn) = st.conns.get_mut(&self.id) else {
                return Err(ErrorKind::BrokenPipe.into());
            };
            if conn.reset {
                return Err(ErrorKind::ConnectionReset.into());
            }
            match fault {
                Some(NetFault::Reset) => {
                    conn.reset = true;
                    drop(st);
                    self.inner.notify();
                    return Err(ErrorKind::ConnectionReset.into());
                }
                Some(NetFault::Drip { gap }) => conn.drip = Some(gap),
                _ => {}
            }
            let drip = conn.drip;
            let (tx, _) = SimEnd::pipes(conn, self.side);
            if tx.closed {
                return Err(ErrorKind::BrokenPipe.into());
            }
            if tx.reader_gone {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let space = BUFFER_CAP.saturating_sub(tx.len);
            if space == 0 {
                if let Some(d) = deadline {
                    if now >= d {
                        return Err(ErrorKind::WouldBlock.into());
                    }
                }
                let wait = deadline.map_or(ACCEPT_WAIT, |d| d.saturating_sub(now));
                let (guard, _) = clock_wait(&*clock, &self.inner.cv, st, wait);
                st = guard;
                continue;
            }
            let mut n = buf.len().min(space);
            let mut torn = false;
            if matches!(fault, Some(NetFault::Torn)) {
                n = (buf.len() / 2).min(space);
                torn = true;
            }
            let extra = match fault {
                Some(NetFault::Delay { extra }) => extra,
                _ => Duration::ZERO,
            };
            let arrive = now.saturating_add(base_latency).saturating_add(extra);
            if let Some(gap) = drip {
                // slow-loris shaping: one chunk per byte, `gap` apart
                for (i, b) in buf[..n].iter().enumerate() {
                    let at = tx
                        .last_ready
                        .max(arrive)
                        .saturating_add(gap.saturating_mul(u32::try_from(i + 1).unwrap_or(1)));
                    tx.chunks.push_back(Chunk {
                        ready_at: at,
                        data: vec![*b],
                        pos: 0,
                    });
                    tx.len += 1;
                }
                if n > 0 {
                    tx.last_ready = tx.chunks.back().map_or(tx.last_ready, |c| c.ready_at);
                }
            } else if n > 0 {
                let at = tx.last_ready.max(arrive);
                tx.last_ready = at;
                tx.chunks.push_back(Chunk {
                    ready_at: at,
                    data: buf[..n].to_vec(),
                    pos: 0,
                });
                tx.len += n;
            }
            if torn {
                conn.reset = true;
                drop(st);
                self.inner.notify();
                return Err(ErrorKind::ConnectionReset.into());
            }
            if matches!(fault, Some(NetFault::HalfClose)) {
                let (tx, _) = SimEnd::pipes(
                    st.conns.get_mut(&self.id).expect("conn checked above"),
                    self.side,
                );
                tx.closed = true;
            }
            drop(st);
            self.inner.notify();
            return Ok(n);
        }
    }

    /// Half-closes this end's outgoing direction.
    fn shutdown_write(&mut self) {
        let mut st = self.inner.lock();
        if let Some(conn) = st.conns.get_mut(&self.id) {
            let (tx, _) = SimEnd::pipes(conn, self.side);
            tx.closed = true;
        }
        drop(st);
        self.inner.notify();
    }

    /// Releases this end: outgoing direction closes (peer drains then
    /// EOF), incoming direction is marked reader-gone (peer writes fail
    /// `BrokenPipe`). When both ends are gone the connection is
    /// reclaimed.
    fn release(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut st = self.inner.lock();
        let mut reclaim = false;
        if let Some(conn) = st.conns.get_mut(&self.id) {
            let (tx, rx) = SimEnd::pipes(conn, self.side);
            tx.closed = true;
            rx.reader_gone = true;
            reclaim = conn.c2s.reader_gone && conn.s2c.reader_gone;
        }
        if reclaim {
            st.conns.remove(&self.id);
        }
        drop(st);
        self.inner.notify();
    }
}

impl Drop for SimEnd {
    fn drop(&mut self) {
        self.release();
    }
}

/// Server side of a simulated connection (what [`SimNet::accept`]
/// yields).
#[derive(Debug)]
struct SimConn(SimEnd);

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read_impl(buf)
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write_impl(buf)
    }

    /// One op, like one `writev` on a socket: the slices are gathered
    /// into a single write.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let gathered: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
        self.0.write_impl(&gathered)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for SimConn {
    fn set_read_timeout(&mut self, d: Option<Duration>) {
        self.0.read_timeout = d;
    }

    fn set_write_timeout(&mut self, d: Option<Duration>) {
        self.0.write_timeout = d;
    }

    fn close(&mut self) {
        self.0.release();
    }
}

/// Client side of a simulated connection — the test/chaos harness's
/// `TcpStream` stand-in.
#[derive(Debug)]
pub struct SimSocket {
    end: SimEnd,
}

impl SimSocket {
    /// Bounds each individual `read()`.
    pub fn set_read_timeout(&mut self, d: Option<Duration>) {
        self.end.read_timeout = d;
    }

    /// Bounds each individual `write()`.
    pub fn set_write_timeout(&mut self, d: Option<Duration>) {
        self.end.write_timeout = d;
    }

    /// Half-closes the write direction (the server reads EOF after
    /// draining), like `TcpStream::shutdown(Shutdown::Write)`.
    pub fn shutdown_write(&mut self) {
        self.end.shutdown_write();
    }

    /// Abandons the connection entirely (both directions).
    pub fn close(&mut self) {
        self.end.release();
    }
}

impl Read for SimSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.end.read_impl(buf)
    }
}

impl Write for SimSocket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.end.write_impl(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simenv::clock::SimClock;

    fn world() -> (Arc<SimClock>, SimNet) {
        let clock = SimClock::new();
        let shared: Arc<dyn Clock> = Arc::<SimClock>::clone(&clock);
        (clock, SimNet::new(shared))
    }

    #[test]
    fn round_trip_through_the_sim() {
        let (_clock, net) = world();
        let mut client = net.connect();
        let mut server = net.accept().expect("queued connection");
        client.write_all(b"hello").expect("client write");
        client.shutdown_write();
        let mut got = Vec::new();
        server.read_to_end(&mut got).expect("server read");
        assert_eq!(got, b"hello");
        server.write_all(b"world").expect("server write");
        drop(server);
        let mut back = Vec::new();
        client.read_to_end(&mut back).expect("client read");
        assert_eq!(back, b"world");
    }

    #[test]
    fn latency_delays_delivery_until_the_clock_advances() {
        let (clock, net) = world();
        net.set_latency(Duration::from_millis(250));
        let mut client = net.connect();
        let mut server = net.accept().expect("queued connection");
        client.write_all(b"x").expect("write");
        let mut buf = [0u8; 1];
        // nothing is ready at t=0
        server.set_read_timeout(Some(Duration::from_millis(1)));
        // the bounded read advances virtual time itself (no other
        // parties), so the byte may land exactly at its deadline; a
        // zero-latency net would return instantly instead
        let before = clock.now();
        let _ = server.read(&mut buf);
        assert!(clock.now() > before, "read should consume virtual time");
        server.set_read_timeout(Some(Duration::from_secs(1)));
        let n = server.read(&mut buf).expect("delivery after latency");
        assert_eq!((n, buf[0]), (1, b'x'));
        assert!(clock.now() >= Duration::from_millis(250));
    }

    #[test]
    fn reset_fault_by_op_index() {
        let (_clock, net) = world();
        let mut client = net.connect(); // op 1
        let mut server = net.accept().expect("conn");
        net.schedule_fault(3, NetFault::Reset); // ops: 2 = first write, 3 = second
        client.write_all(b"ok").expect("unfaulted write");
        let err = client.write_all(b"boom").expect_err("reset fires on op 3");
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
        // bytes delivered before the reset are still readable; after the
        // drain the peer sees the reset too
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).expect("pre-reset bytes drain");
        assert_eq!(&buf[..n], b"ok");
        let err = server.read(&mut buf).expect_err("then the reset surfaces");
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }

    #[test]
    fn torn_write_delivers_half_then_resets() {
        let (_clock, net) = world();
        let mut client = net.connect(); // op 1
        let _server = net.accept().expect("conn");
        net.schedule_fault(2, NetFault::Torn);
        let err = client.write_all(b"abcdefgh").expect_err("torn write");
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }

    #[test]
    fn half_close_fault_gives_peer_clean_eof() {
        let (_clock, net) = world();
        let mut client = net.connect(); // op 1
        let mut server = net.accept().expect("conn");
        net.schedule_fault(2, NetFault::HalfClose);
        client.write_all(b"body").expect("delivered before close");
        let mut got = Vec::new();
        server.read_to_end(&mut got).expect("drain then EOF");
        assert_eq!(got, b"body");
        // and the client can no longer write
        let err = client
            .write_all(b"more")
            .expect_err("write after half-close");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn drip_spreads_bytes_over_virtual_time() {
        let (clock, net) = world();
        let mut client = net.connect(); // op 1
        let mut server = net.accept().expect("conn");
        net.schedule_fault(
            2,
            NetFault::Drip {
                gap: Duration::from_secs(1),
            },
        );
        client.write_all(b"abc").expect("dripped write");
        server.set_read_timeout(Some(Duration::from_secs(30)));
        let mut got = Vec::new();
        let mut buf = [0u8; 8];
        while got.len() < 3 {
            let n = server.read(&mut buf).expect("dripped bytes arrive");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"abc");
        // three bytes, one virtual second apart
        assert!(
            clock.now() >= Duration::from_secs(3),
            "now={:?}",
            clock.now()
        );
    }

    #[test]
    fn bounded_buffer_blocks_then_times_out() {
        let (_clock, net) = world();
        let mut client = net.connect();
        let _server = net.accept().expect("conn");
        client.set_write_timeout(Some(Duration::from_millis(5)));
        let n = client
            .write(&vec![7; BUFFER_CAP + 5])
            .expect("partial fill");
        assert_eq!(n, BUFFER_CAP);
        let err = client.write(b"x").expect_err("buffer full");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn dead_peer_write_is_broken_pipe() {
        let (_clock, net) = world();
        let mut client = net.connect();
        let server = net.accept().expect("conn");
        drop(server);
        let err = client.write_all(b"hello?").expect_err("peer gone");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }
}
