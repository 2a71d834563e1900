//! The in-memory netlist data model.

use std::collections::{HashMap, HashSet};
use std::fmt;

use columba_geom::Um;

use crate::error::NetlistError;

/// Handle to a component (functional unit or switch) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub usize);

/// Handle to a fluid port within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Number of multiplexers in the design (paper supports at most two,
/// attached to the bottom and top MUX boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MuxCount {
    /// One multiplexer on the bottom boundary.
    #[default]
    One,
    /// Two multiplexers, bottom and top.
    Two,
}

impl MuxCount {
    /// The count as an integer.
    #[must_use]
    pub fn count(self) -> usize {
        match self {
            MuxCount::One => 1,
            MuxCount::Two => 2,
        }
    }
}

/// Which module boundary the control channels of a mixer leave through
/// (paper Fig 3(b)–(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ControlAccess {
    /// All control channels leave through the top boundary.
    Top,
    /// All control channels leave through the bottom boundary.
    Bottom,
    /// Control channels leave through both boundaries.
    #[default]
    Both,
}

impl fmt::Display for ControlAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlAccess::Top => f.write_str("top"),
            ControlAccess::Bottom => f.write_str("bottom"),
            ControlAccess::Both => f.write_str("both"),
        }
    }
}

/// Rotary mixer parameters (paper Fig 3(a)–(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MixerSpec {
    /// Module width (x extent).
    pub width: Um,
    /// Module length (y extent).
    pub length: Um,
    /// Control channel access direction.
    pub access: ControlAccess,
    /// Four sieve valves for washing operations (Fig 3(c)).
    pub sieve_valves: bool,
    /// Four separation valves / cell traps for cell capture (Fig 3(d)).
    pub cell_traps: bool,
}

impl Default for MixerSpec {
    fn default() -> MixerSpec {
        MixerSpec {
            width: Um::from_mm(3.0),
            length: Um::from_mm(1.5),
            access: ControlAccess::Both,
            sieve_valves: false,
            cell_traps: false,
        }
    }
}

/// Reaction chamber parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChamberSpec {
    /// Module width (x extent).
    pub width: Um,
    /// Module length (y extent).
    pub length: Um,
}

impl Default for ChamberSpec {
    fn default() -> ChamberSpec {
        ChamberSpec {
            width: Um::from_mm(1.0),
            length: Um::from_mm(1.0),
        }
    }
}

/// Switch parameters (paper Fig 3(e)): a flow channel spine with `junctions`
/// flow channel junctions, extensible in y.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchSpec {
    /// Number of flow channel junctions `c` (the switch width is
    /// `4d + 2d·c`).
    pub junctions: usize,
}

/// The kind and parameters of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// A rotary mixer.
    Mixer(MixerSpec),
    /// A reaction chamber.
    Chamber(ChamberSpec),
    /// A managed flow-channel crossing. Switches are normally inserted by
    /// netlist planarization, not written by hand.
    Switch(SwitchSpec),
}

impl ComponentKind {
    /// `true` for mixers and chambers — the units counted by `#u` in the
    /// paper's Table 1. Switches guide fluids but perform no operation.
    #[must_use]
    pub fn is_functional_unit(&self) -> bool {
        !matches!(self, ComponentKind::Switch(_))
    }
}

/// A named component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Unique name.
    pub name: String,
    /// Kind and parameters.
    pub kind: ComponentKind,
}

/// Which side of a unit a connection attaches to. Flow pins sit on the left
/// and right module boundaries only (flow channels run horizontally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitSide {
    /// Left module boundary.
    Left,
    /// Right module boundary.
    Right,
}

impl fmt::Display for UnitSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitSide::Left => f.write_str("left"),
            UnitSide::Right => f.write_str("right"),
        }
    }
}

/// One terminal of a logic connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A component boundary pin.
    Unit {
        /// The component.
        component: ComponentId,
        /// Which flow boundary of the module.
        side: UnitSide,
    },
    /// An external fluid port on a flow boundary.
    Port(PortId),
}

/// A required fluid transportation path between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Connection {
    /// Source endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
}

/// A complete netlist description.
///
/// Build one programmatically with the `add_*` methods or parse the
/// plain-text format with [`Netlist::parse`]. Call [`Netlist::validate`]
/// before synthesis; the parser validates automatically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Netlist {
    /// Chip name.
    pub name: String,
    /// Number of multiplexers to synthesize.
    pub mux_count: MuxCount,
    components: Vec<Component>,
    ports: Vec<String>,
    connections: Vec<Connection>,
    parallel_groups: Vec<Vec<ComponentId>>,
    /// Every component and port name, kept by the adders: one namespace.
    names: HashMap<String, Named>,
}

/// What a name in a [`Netlist`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Named {
    Component(ComponentId),
    Port(PortId),
}

impl Netlist {
    /// Creates an empty netlist with the given chip name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// Adds a component.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        kind: ComponentKind,
    ) -> Result<ComponentId, NetlistError> {
        let name = name.into();
        let id = ComponentId(self.components.len());
        self.claim(&name, Named::Component(id))?;
        self.components.push(Component { name, kind });
        Ok(id)
    }

    /// Adds a mixer with the given spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_mixer(
        &mut self,
        name: impl Into<String>,
        spec: MixerSpec,
    ) -> Result<ComponentId, NetlistError> {
        self.add_component(name, ComponentKind::Mixer(spec))
    }

    /// Adds a reaction chamber with the given spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_chamber(
        &mut self,
        name: impl Into<String>,
        spec: ChamberSpec,
    ) -> Result<ComponentId, NetlistError> {
        self.add_component(name, ComponentKind::Chamber(spec))
    }

    /// Adds a switch (normally done by planarization).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_switch(
        &mut self,
        name: impl Into<String>,
        spec: SwitchSpec,
    ) -> Result<ComponentId, NetlistError> {
        self.add_component(name, ComponentKind::Switch(spec))
    }

    /// Adds an external fluid port.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_port(&mut self, name: impl Into<String>) -> Result<PortId, NetlistError> {
        let name = name.into();
        let id = PortId(self.ports.len());
        self.claim(&name, Named::Port(id))?;
        self.ports.push(name);
        Ok(id)
    }

    /// Adds a logic connection.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] for a self-connection or an
    /// endpoint whose id does not belong to this netlist.
    pub fn connect(&mut self, from: Endpoint, to: Endpoint) -> Result<(), NetlistError> {
        if from == to {
            return Err(NetlistError::Invalid(
                "connection endpoints are identical".into(),
            ));
        }
        self.check_endpoint(&from)?;
        self.check_endpoint(&to)?;
        self.connections.push(Connection { from, to });
        Ok(())
    }

    fn check_endpoint(&self, e: &Endpoint) -> Result<(), NetlistError> {
        match e {
            Endpoint::Unit { component, .. } if component.0 >= self.components.len() => {
                Err(NetlistError::Invalid(format!(
                    "endpoint references unknown component #{}",
                    component.0
                )))
            }
            Endpoint::Port(p) if p.0 >= self.ports.len() => Err(NetlistError::Invalid(format!(
                "endpoint references unknown port #{}",
                p.0
            ))),
            _ => Ok(()),
        }
    }

    /// Declares that `units` execute in parallel sharing control channels.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] for a group with fewer than two
    /// members or a member id that does not belong to this netlist.
    pub fn add_parallel_group(&mut self, units: Vec<ComponentId>) -> Result<(), NetlistError> {
        if units.len() < 2 {
            return Err(NetlistError::Invalid(
                "parallel group needs at least two units".into(),
            ));
        }
        for &u in &units {
            if u.0 >= self.components.len() {
                return Err(NetlistError::Invalid(format!(
                    "parallel group references unknown component #{}",
                    u.0
                )));
            }
        }
        self.parallel_groups.push(units);
        Ok(())
    }

    /// All components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The component behind `id`.
    #[must_use]
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.0]
    }

    /// All fluid port names.
    #[must_use]
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// The name of port `id`.
    #[must_use]
    pub fn port_name(&self, id: PortId) -> &str {
        &self.ports[id.0]
    }

    /// All logic connections.
    #[must_use]
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// All parallel-execution groups.
    #[must_use]
    pub fn parallel_groups(&self) -> &[Vec<ComponentId>] {
        &self.parallel_groups
    }

    /// Number of functional units (`#u` in the paper's Table 1): mixers and
    /// chambers, excluding switches.
    #[must_use]
    pub fn functional_unit_count(&self) -> usize {
        self.components
            .iter()
            .filter(|c| c.kind.is_functional_unit())
            .count()
    }

    /// Number of switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.components.len() - self.functional_unit_count()
    }

    /// Finds a component by name.
    #[must_use]
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        match self.names.get(name) {
            Some(&Named::Component(id)) => Some(id),
            _ => None,
        }
    }

    /// Finds a port by name.
    #[must_use]
    pub fn port_by_name(&self, name: &str) -> Option<PortId> {
        match self.names.get(name) {
            Some(&Named::Port(id)) => Some(id),
            _ => None,
        }
    }

    /// Records `name` for `what`, unless a component or port has it.
    fn claim(&mut self, name: &str, what: Named) -> Result<(), NetlistError> {
        if self.names.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_string()));
        }
        self.names.insert(name.to_string(), what);
        Ok(())
    }

    /// Checks structural invariants of a *raw* netlist.
    ///
    /// Multi-way nets (a port or unit side used by several connections) are
    /// allowed here — resolving them is exactly what netlist planarization
    /// does. Use [`Netlist::validate_planarized`] before physical synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] when:
    ///
    /// * the netlist has no functional units;
    /// * a connection references an out-of-range id;
    /// * a parallel group member is a switch or appears in two groups.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.functional_unit_count() == 0 {
            return Err(NetlistError::Invalid(
                "netlist has no functional units".into(),
            ));
        }
        let check_ep = |e: &Endpoint| -> Result<(), NetlistError> {
            match e {
                Endpoint::Unit { component, .. } if component.0 >= self.components.len() => {
                    Err(NetlistError::Invalid(format!(
                        "connection references component #{}",
                        component.0
                    )))
                }
                Endpoint::Port(p) if p.0 >= self.ports.len() => Err(NetlistError::Invalid(
                    format!("connection references port #{}", p.0),
                )),
                _ => Ok(()),
            }
        };
        for c in &self.connections {
            check_ep(&c.from)?;
            check_ep(&c.to)?;
        }
        let mut seen: HashSet<ComponentId> = HashSet::new();
        for g in &self.parallel_groups {
            for &u in g {
                if u.0 >= self.components.len() {
                    return Err(NetlistError::Invalid(format!(
                        "parallel group references component #{}",
                        u.0
                    )));
                }
                if !self.components[u.0].kind.is_functional_unit() {
                    return Err(NetlistError::Invalid(format!(
                        "switch `{}` cannot join a parallel group",
                        self.components[u.0].name
                    )));
                }
                if !seen.insert(u) {
                    return Err(NetlistError::Invalid(format!(
                        "`{}` appears in two parallel groups",
                        self.components[u.0].name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks that the netlist is ready for physical synthesis: everything
    /// [`Netlist::validate`] checks, plus every port and every non-switch
    /// flow side carries at most one connection (multi-way nets must have
    /// been routed through switches by planarization).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] naming the overloaded port or unit
    /// side.
    pub fn validate_planarized(&self) -> Result<(), NetlistError> {
        self.validate()?;
        let mut side_use: HashMap<(ComponentId, UnitSide), usize> = HashMap::new();
        let mut port_use: HashMap<PortId, usize> = HashMap::new();
        for c in &self.connections {
            for e in [&c.from, &c.to] {
                match e {
                    Endpoint::Unit { component, side } => {
                        let comp = &self.components[component.0];
                        if !matches!(comp.kind, ComponentKind::Switch(_)) {
                            *side_use.entry((*component, *side)).or_insert(0) += 1;
                        }
                    }
                    Endpoint::Port(p) => {
                        *port_use.entry(*p).or_insert(0) += 1;
                    }
                }
            }
        }
        for ((comp, side), n) in &side_use {
            if *n > 1 {
                return Err(NetlistError::Invalid(format!(
                    "flow side {side} of `{}` has {n} connections; route multi-way nets \
                     through a switch (run planarization)",
                    self.components[comp.0].name
                )));
            }
        }
        for (p, n) in &port_use {
            if *n > 1 {
                return Err(NetlistError::Invalid(format!(
                    "port `{}` has {n} connections; each port is one physical inlet",
                    self.ports[p.0]
                )));
            }
        }
        Ok(())
    }

    /// Renders the plain-text format (parseable by [`Netlist::parse`]).
    ///
    /// Alias of [`Netlist::canonical_text`]; both render the canonical
    /// form.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.canonical_text()
    }

    /// Renders the *canonical* plain-text form: a deterministic,
    /// exhaustive render where every component option is written out
    /// explicitly and statements appear in insertion order.
    ///
    /// Two in-memory netlists are equal **iff** their canonical texts are
    /// byte-equal, and `parse(canonical_text(n)) == n` for every valid
    /// netlist (dimension values render through the shortest-round-trip
    /// `f64` formatter, so the µm fixed-point values survive the trip).
    /// This is the byte form the `columba-service` design cache hashes —
    /// see `crates/service` — so its stability is load-bearing: any change
    /// here invalidates every cached design, but can never cause a false
    /// cache hit.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "chip {}", self.name);
        let _ = writeln!(s, "mux {}", self.mux_count.count());
        for c in &self.components {
            match &c.kind {
                ComponentKind::Mixer(m) => {
                    let _ = write!(
                        s,
                        "mixer {} width={} length={} access={}",
                        c.name,
                        m.width.to_mm(),
                        m.length.to_mm(),
                        m.access
                    );
                    if m.sieve_valves {
                        let _ = write!(s, " sieve");
                    }
                    if m.cell_traps {
                        let _ = write!(s, " celltrap");
                    }
                    let _ = writeln!(s);
                }
                ComponentKind::Chamber(ch) => {
                    let _ = writeln!(
                        s,
                        "chamber {} width={} length={}",
                        c.name,
                        ch.width.to_mm(),
                        ch.length.to_mm()
                    );
                }
                ComponentKind::Switch(sw) => {
                    let _ = writeln!(s, "switch {} junctions={}", c.name, sw.junctions);
                }
            }
        }
        for p in &self.ports {
            let _ = writeln!(s, "port {p}");
        }
        for c in &self.connections {
            let _ = writeln!(
                s,
                "connect {} -> {}",
                self.endpoint_text(&c.from),
                self.endpoint_text(&c.to)
            );
        }
        for g in &self.parallel_groups {
            let names: Vec<&str> = g
                .iter()
                .map(|u| self.components[u.0].name.as_str())
                .collect();
            let _ = writeln!(s, "parallel {}", names.join(" "));
        }
        s
    }

    fn endpoint_text(&self, e: &Endpoint) -> String {
        match e {
            Endpoint::Unit { component, side } => {
                format!("{}.{}", self.components[component.0].name, side)
            }
            Endpoint::Port(p) => self.ports[p.0].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_unit_netlist() -> Netlist {
        let mut n = Netlist::new("t");
        let m = n.add_mixer("m1", MixerSpec::default()).unwrap();
        let c = n.add_chamber("c1", ChamberSpec::default()).unwrap();
        let p = n.add_port("in1").unwrap();
        n.connect(
            Endpoint::Port(p),
            Endpoint::Unit {
                component: m,
                side: UnitSide::Left,
            },
        )
        .unwrap();
        n.connect(
            Endpoint::Unit {
                component: m,
                side: UnitSide::Right,
            },
            Endpoint::Unit {
                component: c,
                side: UnitSide::Left,
            },
        )
        .unwrap();
        n
    }

    #[test]
    fn counts_and_lookup() {
        let mut n = two_unit_netlist();
        n.add_switch("s1", SwitchSpec { junctions: 3 }).unwrap();
        assert_eq!(n.functional_unit_count(), 2);
        assert_eq!(n.switch_count(), 1);
        assert_eq!(n.component_by_name("m1"), Some(ComponentId(0)));
        assert_eq!(n.component_by_name("nope"), None);
        assert_eq!(n.port_by_name("in1"), Some(PortId(0)));
        assert!(n.validate().is_ok());
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut n = two_unit_netlist();
        assert!(matches!(
            n.add_chamber("m1", ChamberSpec::default()),
            Err(NetlistError::DuplicateName(_))
        ));
        assert!(matches!(
            n.add_port("m1"),
            Err(NetlistError::DuplicateName(_))
        ));
        assert!(matches!(
            n.add_port("in1"),
            Err(NetlistError::DuplicateName(_))
        ));
        assert_eq!(
            n.add_mixer("in1", MixerSpec::default()),
            Err(NetlistError::DuplicateName("in1".into()))
        );
        // a refused name changes nothing
        assert_eq!(n.component_by_name("m1"), Some(ComponentId(0)));
        assert_eq!(n.port_by_name("m1"), None);
        assert_eq!(n.component_by_name("in1"), None);
        assert_eq!((n.components().len(), n.ports().len()), (2, 1));
    }

    #[test]
    fn out_of_range_ids_rejected_at_insertion() {
        let mut n = two_unit_netlist();
        let ghost = Endpoint::Unit {
            component: ComponentId(99),
            side: UnitSide::Left,
        };
        let p = n.port_by_name("in1").unwrap();
        assert!(matches!(
            n.connect(ghost, Endpoint::Port(p)),
            Err(NetlistError::Invalid(_))
        ));
        assert!(matches!(
            n.connect(Endpoint::Port(PortId(7)), ghost),
            Err(NetlistError::Invalid(_))
        ));
        let m = n.component_by_name("m1").unwrap();
        assert!(matches!(
            n.add_parallel_group(vec![m, ComponentId(99)]),
            Err(NetlistError::Invalid(_))
        ));
    }

    #[test]
    fn self_connection_rejected() {
        let mut n = two_unit_netlist();
        let m = n.component_by_name("m1").unwrap();
        let e = Endpoint::Unit {
            component: m,
            side: UnitSide::Left,
        };
        assert!(n.connect(e, e).is_err());
    }

    #[test]
    fn overloaded_flow_side_passes_raw_but_fails_planarized() {
        let mut n = two_unit_netlist();
        let m = n.component_by_name("m1").unwrap();
        let c = n.component_by_name("c1").unwrap();
        n.connect(
            Endpoint::Unit {
                component: m,
                side: UnitSide::Right,
            },
            Endpoint::Unit {
                component: c,
                side: UnitSide::Right,
            },
        )
        .unwrap();
        assert!(n.validate().is_ok(), "raw netlists may hold multi-way nets");
        let err = n.validate_planarized().unwrap_err();
        assert!(err.to_string().contains("switch"), "{err}");
    }

    #[test]
    fn overloaded_port_passes_raw_but_fails_planarized() {
        let mut n = two_unit_netlist();
        let p = n.port_by_name("in1").unwrap();
        let c = n.component_by_name("c1").unwrap();
        n.connect(
            Endpoint::Port(p),
            Endpoint::Unit {
                component: c,
                side: UnitSide::Right,
            },
        )
        .unwrap();
        assert!(n.validate().is_ok());
        assert!(n.validate_planarized().is_err());
    }

    #[test]
    fn empty_netlist_invalid() {
        let n = Netlist::new("empty");
        assert!(n.validate().is_err());
    }

    #[test]
    fn parallel_group_rules() {
        let mut n = two_unit_netlist();
        let m = n.component_by_name("m1").unwrap();
        let c = n.component_by_name("c1").unwrap();
        assert!(n.add_parallel_group(vec![m]).is_err());
        n.add_parallel_group(vec![m, c]).unwrap();
        assert!(n.validate().is_ok());
        // duplicate membership across groups
        let mut n2 = two_unit_netlist();
        let m2 = n2.component_by_name("m1").unwrap();
        let c2 = n2.component_by_name("c1").unwrap();
        n2.add_parallel_group(vec![m2, c2]).unwrap();
        n2.add_parallel_group(vec![c2, m2]).unwrap();
        assert!(n2.validate().is_err());
        // switches cannot be parallel
        let mut n3 = two_unit_netlist();
        let s = n3.add_switch("s1", SwitchSpec { junctions: 2 }).unwrap();
        let m3 = n3.component_by_name("m1").unwrap();
        n3.add_parallel_group(vec![s, m3]).unwrap();
        assert!(n3.validate().is_err());
    }

    #[test]
    fn switch_sides_accept_multiple_connections() {
        let mut n = two_unit_netlist();
        let s = n.add_switch("s1", SwitchSpec { junctions: 4 }).unwrap();
        let m = n.component_by_name("m1").unwrap();
        // two connections into the switch's left side are fine
        n.connect(
            Endpoint::Unit {
                component: m,
                side: UnitSide::Left,
            },
            Endpoint::Unit {
                component: s,
                side: UnitSide::Left,
            },
        )
        .unwrap();
        let c = n.component_by_name("c1").unwrap();
        n.connect(
            Endpoint::Unit {
                component: c,
                side: UnitSide::Right,
            },
            Endpoint::Unit {
                component: s,
                side: UnitSide::Left,
            },
        )
        .unwrap();
        // the switch's left side legally carries two connections, but
        // m1.left now has two uses (port + switch), which planarized
        // validation must flag — naming m1, not the switch.
        let err = n.validate_planarized().unwrap_err();
        assert!(err.to_string().contains("m1"), "{err}");
    }

    #[test]
    fn mux_count() {
        assert_eq!(MuxCount::One.count(), 1);
        assert_eq!(MuxCount::Two.count(), 2);
        assert_eq!(MuxCount::default(), MuxCount::One);
    }

    #[test]
    fn defaults_match_paper_scale() {
        let m = MixerSpec::default();
        assert_eq!(m.width, Um::from_mm(3.0));
        assert_eq!(m.length, Um::from_mm(1.5));
        let c = ChamberSpec::default();
        assert_eq!(c.width, Um::from_mm(1.0));
    }
}
