//! The Columba S module model library (paper §2.1, Fig 3).
//!
//! A *module* is a rectangular box that defines the physical layout inside
//! and around a microfluidic component, accessed via pins on its
//! boundaries. The Columba S library contains three module types:
//!
//! * **rotary mixers** — peristaltic pumping valves, isolation
//!   valves, optional sieve valves (washing, Fig 3(c)) and optional
//!   separation valves / cell traps (Fig 3(d)); control access through the
//!   top, the bottom, or both boundaries (Fig 3(b)–(d));
//! * **reaction chambers** — a wide chamber channel guarded by
//!   two isolation valves;
//! * **switches** — managed flow-channel crossings: a vertical
//!   flow-channel spine with `c` valve-guarded junctions, extensible in the
//!   y direction (Fig 3(e)); width `4d + 2d·c`.
//!
//! Per the Columba S discipline, flow pins sit on the left/right boundaries
//! (flow channels run horizontally) and control pins on the top/bottom
//! boundaries (control channels run vertically). Modules are never rotated.
//!
//! [`ModuleModel::for_component`] computes the footprint and pin plan of a
//! component; [`instantiate`] emits the inner geometry (internal channels
//! and valves) into a [`Design`] once the layout has fixed the module's
//! rectangle.
//!
//! # Examples
//!
//! ```
//! use columba_modules::ModuleModel;
//! use columba_netlist::{ComponentKind, SwitchSpec};
//!
//! let model = ModuleModel::for_component(&ComponentKind::Switch(SwitchSpec { junctions: 3 }));
//! // w = 4d + 2d*c with d = 100um
//! assert_eq!(model.width, columba_geom::Um(1_000));
//! assert!(model.length.is_none(), "switches extend in y");
//! ```
//!
//! [`Design`]: columba_design::Design

mod chamber;
mod mixer;
mod model;
mod switch;

pub use model::{
    instantiate, ControlPin, FlowPin, InstantiateError, ModuleInstance, ModuleModel, SwitchPlan,
};
pub use switch::switch_width;
