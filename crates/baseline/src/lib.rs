//! Columba 2.0-style co-layout baseline.
//!
//! Table 1 of the paper compares Columba S against Columba 2.0, which is
//! closed source. This crate substitutes a synthesizer built from the
//! *published* Columba/2.0 model ingredients, preserving exactly the
//! behaviour the comparison depends on:
//!
//! * **free-direction placement MILP** — one rectangle per module (no
//!   parallel-unit merging, no channel merging), a rotation binary per
//!   module, all-pairs non-overlap disjunctions with *no* order pruning:
//!   the combinatorially larger search space that makes Columba 2.0's
//!   runtime explode with design size;
//! * **detour routing** — a grid maze router ([`route`]) realises every
//!   net after placement, routing around module footprints and previously
//!   routed channels, so flow-channel length carries the detours Columba S
//!   avoids (Table 1 trend 3);
//! * **pressure sharing** — control lines pair up on shared inlets when
//!   their actuation windows are compatible, modelled as at most two lines
//!   per inlet: `#c_in = ceil(lines / 2)`, which grows *linearly* with the
//!   design instead of logarithmically (Table 1 trend 2);
//! * **no multiplexer area overhead** — baseline chips are smaller on
//!   small designs (Table 1 trend 4).
//!
//! The solver budget is configurable; when it expires the incumbent found
//! so far is reported (the paper reports Columba 2.0 as unable to solve the
//! two large cases "within reasonable run time").

mod placer;
mod router;

pub use placer::{synthesize_baseline, BaselineError, BaselineOptions, BaselineResult};
pub use router::{route, Grid, RouteError};
