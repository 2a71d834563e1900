//! Behavioural mLSI chip simulator.
//!
//! The paper demonstrates its designs on fabricated PDMS chips (Figs 7(c)
//! and 8); this crate demonstrates the same properties in software. A
//! [`Simulator`] wraps a synthesized [`Design`] and models:
//!
//! * **multiplexer addressing** — actuating a control line means setting the
//!   owning MUX's address to that line's channel and pushing/releasing
//!   pressure; the selection is evaluated from the synthesized valve matrix
//!   (via [`columba_mux::selection`]), so a mis-built MUX is caught here;
//! * **latching** — PDMS holds a valve's pressure for many minutes (§2.2),
//!   so previously actuated lines keep their state while the MUX moves on;
//!   only the *rate of change* is limited: one line per MUX at a time,
//!   hence one for 1-MUX designs and two for 2-MUX designs;
//! * **valve blocking and fluid reachability** — a pressurised line closes
//!   its valves; closed valves block their flow channels; reachability
//!   between fluid inlets is a BFS over touching flow-layer channels;
//! * **timing** — each actuation costs [`VALVE_ACTUATION_MS`] (10 ms,
//!   ref \[22\] of the paper), so protocols report execution time.
//!
//! # Examples
//!
//! See `examples/protocol.rs` in the repository root for a full scheduling
//! run on a synthesized chip.
//!
//! [`Design`]: columba_design::Design

mod flowgraph;
mod protocol;
mod simulator;

pub use protocol::{Protocol, ProtocolReport, Step};
pub use simulator::{ActuationEvent, SimError, Simulator, VALVE_ACTUATION_MS};
