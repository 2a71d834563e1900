//! The chip simulator core.

use std::collections::{HashMap, HashSet};
use std::fmt;

use columba_design::{ChannelId, Design, InletId, ValveId};
use columba_geom::Side;
use columba_mux::selection;

use crate::flowgraph::FlowGraph;

/// Valve actuation latency (ref \[22\] of the paper): 10 ms.
pub const VALVE_ACTUATION_MS: u64 = 10;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The named control line does not exist.
    UnknownLine(String),
    /// Line index out of range.
    LineOutOfRange(usize),
    /// The line's control channel is not driven by any MUX.
    LineNotMuxed(usize),
    /// Two simultaneous actuations landed on the same MUX — Columba S can
    /// drive at most one line per MUX at a time (§2.2).
    SameMuxSimultaneous,
    /// The MUX valve matrix does not isolate the addressed channel (a
    /// synthesis bug caught at simulation time).
    SelectionBroken {
        /// Address applied.
        address: usize,
        /// Channels the matrix left open.
        open: Vec<usize>,
    },
    /// Unknown fluid inlet.
    UnknownInlet(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownLine(n) => write!(f, "unknown control line `{n}`"),
            SimError::LineOutOfRange(i) => write!(f, "control line #{i} out of range"),
            SimError::LineNotMuxed(i) => write!(f, "control line #{i} reaches no multiplexer"),
            SimError::SameMuxSimultaneous => {
                f.write_str("simultaneous actuations must use different multiplexers")
            }
            SimError::SelectionBroken { address, open } => {
                write!(f, "MUX address {address} leaves channels {open:?} open")
            }
            SimError::UnknownInlet(i) => write!(f, "unknown fluid inlet #{i}"),
        }
    }
}

impl std::error::Error for SimError {}

/// What one actuation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActuationEvent {
    /// Control line index.
    pub line: usize,
    /// `true` = pressurised (valves closed), `false` = vented.
    pub pressurized: bool,
    /// The MUX boundary used.
    pub mux_side: Side,
    /// The binary address applied to that MUX.
    pub address: usize,
    /// Simulation time after the actuation, in ms.
    pub time_ms: u64,
}

/// A behavioural simulation of one synthesized design.
///
/// The simulator indexes the design's control lines, multiplexers and flow
/// graph once at construction; actuations and queries are then cheap.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    design: &'a Design,
    graph: FlowGraph,
    /// latched pressure per control line
    pressurized: Vec<bool>,
    /// control line index per channel
    line_of_channel: HashMap<ChannelId, usize>,
    /// (mux index, address) per control line
    mux_of_line: HashMap<usize, (usize, usize)>,
    time_ms: u64,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator over `design`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LineNotMuxed`] when a control line's channel is
    /// not driven by any synthesized MUX.
    pub fn new(design: &'a Design) -> Result<Simulator<'a>, SimError> {
        let graph = FlowGraph::build(design);
        let mut line_of_channel = HashMap::new();
        for (li, line) in design.control_lines.iter().enumerate() {
            line_of_channel.insert(line.channel, li);
        }
        let mut mux_of_line = HashMap::new();
        for (mi, m) in design.muxes.iter().enumerate() {
            for (addr, &ch) in m.controlled.iter().enumerate() {
                if let Some(&li) = line_of_channel.get(&ch) {
                    mux_of_line.insert(li, (mi, addr));
                }
            }
        }
        for li in 0..design.control_lines.len() {
            if !mux_of_line.contains_key(&li) {
                return Err(SimError::LineNotMuxed(li));
            }
        }
        Ok(Simulator {
            design,
            graph,
            pressurized: vec![false; design.control_lines.len()],
            line_of_channel,
            mux_of_line,
            time_ms: 0,
        })
    }

    /// Number of independent control lines.
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.pressurized.len()
    }

    /// Finds a control line by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownLine`] when no line matches.
    pub fn line_by_name(&self, name: &str) -> Result<usize, SimError> {
        self.design
            .control_lines
            .iter()
            .position(|l| l.name == name)
            .ok_or_else(|| SimError::UnknownLine(name.to_string()))
    }

    /// Name of a control line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn line_name(&self, line: usize) -> &str {
        &self.design.control_lines[line].name
    }

    /// Actuates one control line: addresses its MUX, pushes or vents the
    /// pressure, verifies the MUX isolates exactly that channel, and
    /// advances time by [`VALVE_ACTUATION_MS`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for out-of-range lines and broken selections.
    pub fn actuate(&mut self, line: usize, pressurize: bool) -> Result<ActuationEvent, SimError> {
        if line >= self.pressurized.len() {
            return Err(SimError::LineOutOfRange(line));
        }
        let &(mi, addr) = self
            .mux_of_line
            .get(&line)
            .ok_or(SimError::LineNotMuxed(line))?;
        let mux = &self.design.muxes[mi];
        // evaluate the synthesized valve matrix: exactly this channel open
        let sel = selection(mux, addr);
        let open = sel.open_channels();
        if open != vec![addr] {
            return Err(SimError::SelectionBroken {
                address: addr,
                open,
            });
        }
        self.pressurized[line] = pressurize;
        self.time_ms += VALVE_ACTUATION_MS;
        Ok(ActuationEvent {
            line,
            pressurized: pressurize,
            mux_side: mux.side,
            address: addr,
            time_ms: self.time_ms,
        })
    }

    /// Actuates two lines simultaneously — only possible on a 2-MUX design
    /// with the lines on different multiplexers (§2.2). Costs one
    /// [`VALVE_ACTUATION_MS`], not two.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SameMuxSimultaneous`] when both lines share a
    /// MUX, plus the per-line errors of [`Simulator::actuate`].
    pub fn actuate_pair(
        &mut self,
        a: (usize, bool),
        b: (usize, bool),
    ) -> Result<(ActuationEvent, ActuationEvent), SimError> {
        let ma = self
            .mux_of_line
            .get(&a.0)
            .ok_or(SimError::LineOutOfRange(a.0))?
            .0;
        let mb = self
            .mux_of_line
            .get(&b.0)
            .ok_or(SimError::LineOutOfRange(b.0))?
            .0;
        if ma == mb {
            return Err(SimError::SameMuxSimultaneous);
        }
        let ea = self.actuate(a.0, a.1)?;
        let mut eb = self.actuate(b.0, b.1)?;
        // the pair shares one actuation slot
        self.time_ms -= VALVE_ACTUATION_MS;
        eb.time_ms = self.time_ms;
        Ok((ea, eb))
    }

    /// `true` when the line is currently pressurised (its valves closed).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn line_pressurized(&self, line: usize) -> bool {
        self.pressurized[line]
    }

    /// `true` when the valve is inflated (its control line is pressurised).
    /// MUX valves are not controlled by lines and always report `false`.
    #[must_use]
    pub fn valve_closed(&self, valve: ValveId) -> bool {
        self.design
            .control_lines
            .iter()
            .enumerate()
            .any(|(li, l)| self.pressurized[li] && l.valves.contains(&valve))
    }

    /// Channels a fluid entering at `inlet` can currently reach.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInlet`] for an invalid id.
    pub fn reachable_channels(&self, inlet: InletId) -> Result<HashSet<ChannelId>, SimError> {
        if inlet.0 >= self.design.inlets.len() {
            return Err(SimError::UnknownInlet(inlet.0));
        }
        let passable = self.passable();
        Ok(self.graph.reachable(inlet, &passable))
    }

    /// `true` when fluid can currently travel between the two inlets.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInlet`] for invalid ids.
    pub fn fluid_path_exists(&self, from: InletId, to: InletId) -> Result<bool, SimError> {
        let reach = self.reachable_channels(from)?;
        let taps = self
            .graph
            .inlet_taps
            .get(&to)
            .ok_or(SimError::UnknownInlet(to.0))?;
        Ok(taps.iter().any(|&t| reach.contains(&self.graph.nodes[t])))
    }

    /// Simulated time in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        self.time_ms
    }

    /// The control line driving `channel`, if any.
    #[must_use]
    pub fn line_of_channel(&self, channel: ChannelId) -> Option<usize> {
        self.line_of_channel.get(&channel).copied()
    }

    fn passable(&self) -> Vec<bool> {
        let mut blocked: HashSet<ChannelId> = HashSet::new();
        for (li, line) in self.design.control_lines.iter().enumerate() {
            if !self.pressurized[li] {
                continue;
            }
            for &v in &line.valves {
                if let Some(b) = self.design.valve(v).blocks {
                    blocked.insert(b);
                }
            }
        }
        self.graph
            .nodes
            .iter()
            .map(|id| !blocked.contains(id))
            .collect()
    }
}
