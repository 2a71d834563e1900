//! Deterministic whole-service simulation environment.
//!
//! The triad completing the simulation story started by
//! [`crate::persist::SimFs`]:
//!
//! * [`clock`] — a [`Clock`] abstraction over every time source the
//!   service consumes (timestamps, sleeps, timed condvar waits), with a
//!   [`RealClock`] passthrough for production and a quiescence-stepped
//!   [`SimClock`] for tests: virtual time advances only when every
//!   registered sim thread is blocked in a clock wait, so timeout
//!   interleavings replay deterministically.
//! * [`net`] — a [`Transport`] abstraction over the HTTP front end's
//!   accept/read/write path, with a [`TcpTransport`] for production and
//!   a [`SimNet`] in-memory network modeling per-connection latency,
//!   bounded buffers, torn writes, slow-loris drip, mid-response resets
//!   and half-closes — faults scheduled by global op index exactly like
//!   `SimFs`.
//! * [`chaos`] — a seeded scenario runner composing SimFs + SimClock +
//!   SimNet fault schedules against a pinned workload and checking
//!   service-level invariants after every run, with a shrinking pass
//!   that minimizes a failing fault schedule. The `columba-chaos`
//!   binary drives it from CI.

pub mod chaos;
pub mod clock;
pub mod net;

pub use chaos::{run_plan, run_seed, shrink, ChaosOp, ChaosPlan, ChaosReport};
pub use clock::{clock_wait, Clock, ClockParty, ClockSuspend, RealClock, SimClock};
pub use net::{Conn, NetFault, SimNet, SimSocket, TcpTransport, Transport};
