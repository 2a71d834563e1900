//! Layout validation: rectangle plan → manufacturing-ready geometry
//! (paper §3.2.2).
//!
//! Restores the original module models inside the merged rectangles, routes
//! every straight channel, synthesizes fluid inlets along the flow
//! boundaries and the multiplexers along the MUX boundaries, and records
//! the control-line map (channel → valves) the simulator uses. Junctions of
//! a switch are re-placed along the spine at the exact heights of the
//! incoming channels, as §3.2.2 allows.

use std::collections::HashMap;
use std::time::Instant;

use columba_design::{
    drc, Channel, ChannelId, ChannelRole, ControlLine, Design, Inlet, InletKind, ModuleId,
    PlacedModule, ValveId,
};
use columba_geom::{Point, Rect, Segment, Side, Um, INLET_PITCH, MIN_CHANNEL_SPACING};
use columba_modules::{instantiate, ControlPin, ModuleInstance, SwitchPlan};
use columba_mux as mux;
use columba_netlist::{ComponentId, ComponentKind, Endpoint, Netlist, UnitSide};

use crate::entities::{access_override, BlockId, ControlDir, EndKind, FlowEntity, FlowKind, Plan};
use crate::error::LayoutError;
use crate::laygen::{GeneratedLayout, LaygenReport};

const D: Um = MIN_CHANNEL_SPACING;
const CHANNEL_W: Um = MIN_CHANNEL_SPACING;

/// The complete synthesis output.
#[derive(Debug, Clone)]
pub struct LayoutResult {
    /// The manufacturing-ready design.
    pub design: Design,
    /// Layout-generation diagnostics.
    pub laygen: LaygenReport,
    /// Design-rule check over the final geometry.
    pub drc: drc::DrcReport,
    /// Total wall-clock time of validation.
    pub elapsed: std::time::Duration,
}

pub(crate) fn validate(
    netlist: &Netlist,
    plan: &Plan,
    generated: &GeneratedLayout,
) -> Result<LayoutResult, LayoutError> {
    let _span = columba_obs::span("layval");
    let start = Instant::now();

    // ---- chip frame: functional region + boundary margins + MUX regions ----
    let n_down = plan.control_channels(ControlDir::Down);
    let n_up = plan.control_channels(ControlDir::Up);
    let bottom_h = if n_down > 0 {
        mux::required_height(n_down) + D * 2
    } else {
        D * 2
    };
    let top_h = if n_up > 0 {
        mux::required_height(n_up) + D * 2
    } else {
        D * 2
    };
    let margin_x = D * 4;
    let (fx, fy) = generated.extent;
    let chip = Rect::new(Um::ZERO, fx + margin_x * 2, Um::ZERO, fy + bottom_h + top_h);
    let fr = Rect::new(margin_x, margin_x + fx, bottom_h, bottom_h + fy);
    let (dx, dy) = (fr.x_l(), fr.y_b());

    let mut design = Design::new(netlist.name.clone(), chip);
    design.functional_region = fr;

    // ---- place modules ----
    let mut comp_module: HashMap<usize, ModuleId> = HashMap::new();
    for (bi, block) in plan.blocks.iter().enumerate() {
        let brect = generated.block_rects[bi].translated(dx, dy);
        for m in &block.members {
            let rect = if block.is_switch() {
                brect // the switch fills its (extensible) block rectangle
            } else {
                m.rel.translated(brect.x_l(), brect.y_b())
            };
            let id = ModuleId(design.modules.len());
            design.modules.push(PlacedModule {
                component: m.component,
                name: netlist.component(m.component).name.clone(),
                rect,
            });
            comp_module.insert(m.component.0, id);
        }
    }

    // ---- switch junction plans ----
    // per switch block: the junction list (side, y) plus which connection
    // each junction serves, in the same order
    let mut switch_plans: HashMap<usize, (SwitchPlan, Vec<usize>)> = HashMap::new();
    for (fi, f) in plan.flows.iter().enumerate() {
        for (this_end, junction_side) in [(f.left, Side::Right), (f.right, Side::Left)] {
            let EndKind::SwitchSide { block } = this_end else {
                continue;
            };
            let entry = switch_plans.entry(block.0).or_insert_with(|| {
                (
                    SwitchPlan {
                        junctions: Vec::new(),
                        control_side: Side::Bottom,
                    },
                    Vec::new(),
                )
            });
            for (k, &ci) in f.conns.iter().enumerate() {
                let y = junction_y(netlist, plan, generated, f, fi, k, ci)? + dy;
                // an entity whose *left* end is the switch extends rightward,
                // so its junction sits on the switch's right boundary
                entry.0.junctions.push((junction_side, y));
                entry.1.push(ci);
            }
        }
    }

    // ---- instantiate inner geometry ----
    let mut instances: HashMap<usize, ModuleInstance> = HashMap::new();
    let access = access_override(plan.mux_count);
    for (bi, block) in plan.blocks.iter().enumerate() {
        for m in &block.members {
            let module = comp_module[&m.component.0];
            let rect = design.modules[module.0].rect;
            let kind = netlist.component(m.component).kind;
            let inst = match kind {
                ComponentKind::Switch(_) => {
                    let (plan_sw, _) = switch_plans.get(&bi).ok_or_else(|| {
                        LayoutError::Restore(format!(
                            "switch `{}` has no junction plan",
                            netlist.component(m.component).name
                        ))
                    })?;
                    instantiate(&mut design, module, &kind, rect, Some(plan_sw), access)
                }
                _ => instantiate(&mut design, module, &kind, rect, None, access),
            }
            .map_err(|e| {
                LayoutError::Restore(format!(
                    "instantiating `{}`: {e}",
                    netlist.component(m.component).name
                ))
            })?;
            instances.insert(m.component.0, inst);
        }
    }

    // connection -> junction pin position on its switch
    let mut junction_pin: HashMap<(usize, usize), Point> = HashMap::new();
    for (bi, (_, conns)) in &switch_plans {
        let sw_comp = plan.blocks[*bi].members[0].component;
        let inst = &instances[&sw_comp.0];
        for (j, &ci) in conns.iter().enumerate() {
            junction_pin.insert((*bi, ci), inst.flow_pins[j].position);
        }
    }

    // ---- flow transport channels and fluid inlets ----
    route_flows(
        netlist,
        plan,
        generated,
        &mut design,
        &instances,
        &junction_pin,
        dy,
        &chip,
    )?;

    // ---- control channels, shared lines ----
    let (down_ids, up_ids) = route_controls(plan, &mut design, &instances, &fr)?;

    // ---- multiplexers ----
    if !down_ids.is_empty() {
        let region = Rect::new(chip.x_l(), chip.x_r(), chip.y_b(), fr.y_b());
        mux::synthesize(&mut design, down_ids, Side::Bottom, region)
            .map_err(|e| LayoutError::Restore(format!("bottom MUX: {e}")))?;
    }
    if !up_ids.is_empty() {
        let region = Rect::new(chip.x_l(), chip.x_r(), fr.y_t(), chip.y_t());
        mux::synthesize(&mut design, up_ids, Side::Top, region)
            .map_err(|e| LayoutError::Restore(format!("top MUX: {e}")))?;
    }

    let report = drc::check(&design);
    Ok(LayoutResult {
        design,
        laygen: generated.report.clone(),
        drc: report,
        elapsed: start.elapsed(),
    })
}

/// The junction height (functional coordinates, pre-offset) where
/// connection `ci` (the `k`-th of entity `fi`) meets its switch.
fn junction_y(
    netlist: &Netlist,
    plan: &Plan,
    generated: &GeneratedLayout,
    f: &FlowEntity,
    fi: usize,
    k: usize,
    ci: usize,
) -> Result<Um, LayoutError> {
    let rect = generated.flow_rects[fi];
    match f.kind {
        FlowKind::Thin => Ok(rect.y_b() + D),
        FlowKind::InletBundle(_) => Ok(rect.y_b() + INLET_PITCH / 2 + INLET_PITCH * k as i64),
        FlowKind::FullHeight(g) => {
            let member = conn_component_in_block(netlist, ci, plan, g).ok_or_else(|| {
                LayoutError::Restore(format!(
                    "connection #{ci} of a merged group entity touches no group member"
                ))
            })?;
            let off = plan.blocks[g.0].pin_y_offset(member).ok_or_else(|| {
                LayoutError::Restore(format!("component #{} not in block", member.0))
            })?;
            Ok(generated.block_rects[g.0].y_b() + off)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn route_flows(
    netlist: &Netlist,
    plan: &Plan,
    generated: &GeneratedLayout,
    design: &mut Design,
    instances: &HashMap<usize, ModuleInstance>,
    junction_pin: &HashMap<(usize, usize), Point>,
    dy: Um,
    chip: &Rect,
) -> Result<(), LayoutError> {
    #[derive(Clone, Copy)]
    struct EndPos {
        x: Um,
        y: Option<Um>,
        boundary: Option<Side>,
    }

    let resolve = |end: EndKind,
                   is_left_end: bool,
                   fi: usize,
                   k: usize,
                   ci: usize|
     -> Result<EndPos, LayoutError> {
        match end {
            EndKind::Boundary => {
                let (x, side) = if is_left_end {
                    (chip.x_l(), Side::Left)
                } else {
                    (chip.x_r(), Side::Right)
                };
                // bundles carry their own inlet heights; other boundary ends
                // inherit the opposite pin's height
                let y = match plan.flows[fi].kind {
                    FlowKind::InletBundle(_) => Some(
                        generated.flow_rects[fi].y_b()
                            + dy
                            + INLET_PITCH / 2
                            + INLET_PITCH * k as i64,
                    ),
                    _ => None,
                };
                Ok(EndPos {
                    x,
                    y,
                    boundary: Some(side),
                })
            }
            EndKind::SwitchSide { block } => {
                let p = junction_pin.get(&(block.0, ci)).ok_or_else(|| {
                    LayoutError::Restore(format!("connection #{ci} missing its switch junction"))
                })?;
                Ok(EndPos {
                    x: p.x,
                    y: Some(p.y),
                    boundary: None,
                })
            }
            EndKind::Pin { component, .. } => pin_pos(netlist, instances, ci, component),
            EndKind::FullSide { block } => {
                let member =
                    conn_component_in_block(netlist, ci, plan, block).ok_or_else(|| {
                        LayoutError::Restore(format!(
                            "connection #{ci} touches no member of its group block"
                        ))
                    })?;
                pin_pos(netlist, instances, ci, member)
            }
        }
    };

    fn pin_pos(
        netlist: &Netlist,
        instances: &HashMap<usize, ModuleInstance>,
        ci: usize,
        component: ComponentId,
    ) -> Result<EndPos, LayoutError> {
        let side = conn_side(netlist, ci, component).ok_or_else(|| {
            LayoutError::Restore(format!("connection #{ci}: endpoint side unknown"))
        })?;
        let inst = instances.get(&component.0).ok_or_else(|| {
            LayoutError::Restore(format!("component #{} was not instantiated", component.0))
        })?;
        let pin = inst.flow_pin_on(side).ok_or_else(|| {
            LayoutError::Restore(format!("connection #{ci}: module lacks a {side} flow pin"))
        })?;
        Ok(EndPos {
            x: pin.position.x,
            y: Some(pin.position.y),
            boundary: None,
        })
    }

    // route intra-block connections (between members of a merged group)
    for &ci in &plan.intra {
        let conn = netlist.connections()[ci];
        let (Endpoint::Unit { component: ca, .. }, Endpoint::Unit { component: cb, .. }) =
            (conn.from, conn.to)
        else {
            return Err(LayoutError::Restore(format!(
                "intra connection #{ci} touches a port"
            )));
        };
        let a = pin_pos(netlist, instances, ci, ca)?;
        let b = pin_pos(netlist, instances, ci, cb)?;
        let (ya, yb) = (a.y.expect("pin has y"), b.y.expect("pin has y"));
        if ya != yb {
            return Err(LayoutError::Restore(format!(
                "intra-lane pins of connection #{ci} misaligned ({ya} vs {yb})"
            )));
        }
        design.add_channel(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(ya, a.x.min(b.x), a.x.max(b.x), CHANNEL_W),
            None,
        ));
    }

    // route inter-block connections
    for (fi, f) in plan.flows.iter().enumerate() {
        for (k, &ci) in f.conns.iter().enumerate() {
            let l = resolve(f.left, true, fi, k, ci)?;
            let r = resolve(f.right, false, fi, k, ci)?;
            let y = l.y.or(r.y).ok_or_else(|| {
                LayoutError::Restore(format!("connection #{ci} has no resolvable height"))
            })?;
            if l.x > r.x {
                return Err(LayoutError::Restore(format!(
                    "connection #{ci} would run right-to-left ({} > {})",
                    l.x, r.x
                )));
            }
            design.add_channel(Channel::straight(
                ChannelRole::FlowTransport,
                Segment::horizontal(y, l.x, r.x, CHANNEL_W),
                None,
            ));
            for (boundary, x) in [(l.boundary, l.x), (r.boundary, r.x)] {
                let Some(side) = boundary else { continue };
                let name = conn_port_name(netlist, ci).unwrap_or_else(|| format!("io{ci}"));
                design.add_inlet(Inlet {
                    name,
                    position: Point::new(x, y),
                    kind: InletKind::Fluid,
                    side,
                });
            }
        }
    }
    Ok(())
}

/// The member component the connection touches inside `block`.
fn conn_component_in_block(
    netlist: &Netlist,
    ci: usize,
    plan: &Plan,
    block: BlockId,
) -> Option<ComponentId> {
    let conn = netlist.connections()[ci];
    for ep in [conn.from, conn.to] {
        if let Endpoint::Unit { component, .. } = ep {
            if plan.comp_block[component.0] == block {
                return Some(component);
            }
        }
    }
    None
}

/// The unit side the connection uses on `component`.
fn conn_side(netlist: &Netlist, ci: usize, component: ComponentId) -> Option<Side> {
    let conn = netlist.connections()[ci];
    for ep in [conn.from, conn.to] {
        if let Endpoint::Unit { component: c, side } = ep {
            if c == component {
                return Some(match side {
                    UnitSide::Left => Side::Left,
                    UnitSide::Right => Side::Right,
                });
            }
        }
    }
    None
}

/// The port name on the connection, if any.
fn conn_port_name(netlist: &Netlist, ci: usize) -> Option<String> {
    let conn = netlist.connections()[ci];
    for ep in [conn.from, conn.to] {
        if let Endpoint::Port(p) = ep {
            return Some(netlist.port_name(p).to_string());
        }
    }
    None
}

/// Routes every control line (shared across parallel lanes), records the
/// [`ControlLine`] map, and returns the channel ids reaching each MUX
/// boundary, sorted by x.
fn route_controls(
    plan: &Plan,
    design: &mut Design,
    instances: &HashMap<usize, ModuleInstance>,
    fr: &Rect,
) -> Result<(Vec<ChannelId>, Vec<ChannelId>), LayoutError> {
    let mut down: Vec<(Um, ChannelId)> = Vec::new();
    let mut up: Vec<(Um, ChannelId)> = Vec::new();

    for block in &plan.blocks {
        // lane slot structure: lane 0 defines the line shape, other lanes
        // share its vertical channels
        let mut lanes: HashMap<usize, Vec<&crate::entities::MemberPlace>> = HashMap::new();
        for m in &block.members {
            lanes.entry(m.lane).or_default().push(m);
        }
        for members in lanes.values_mut() {
            members.sort_by_key(|m| m.rel.x_l());
        }
        let lane0 = lanes.get(&0).ok_or_else(|| {
            LayoutError::Restore(format!("block `{}` has no lane 0", block.label))
        })?;

        for (slot, lead) in lane0.iter().enumerate() {
            let lead_inst = &instances[&lead.component.0];
            for (pi, lead_pin) in lead_inst.control_pins.iter().enumerate() {
                let mut pins: Vec<&ControlPin> = Vec::new();
                for (li, members) in &lanes {
                    let member = members.get(slot).ok_or_else(|| {
                        LayoutError::Restore(format!(
                            "parallel lanes of `{}` are not isomorphic (lane {li} lacks slot {slot})",
                            block.label
                        ))
                    })?;
                    let inst = &instances[&member.component.0];
                    let pin = inst.control_pins.get(pi).ok_or_else(|| {
                        LayoutError::Restore(format!(
                            "parallel lanes of `{}` are not isomorphic (pin {pi})",
                            block.label
                        ))
                    })?;
                    if pin.side != lead_pin.side || pin.position.x != lead_pin.position.x {
                        return Err(LayoutError::Restore(format!(
                            "parallel lanes of `{}` disagree on pin {pi} geometry",
                            block.label
                        )));
                    }
                    pins.push(pin);
                }
                let x = lead_pin.position.x;
                let valves: Vec<ValveId> =
                    pins.iter().flat_map(|p| p.valves.iter().copied()).collect();
                let (seg, bucket) = match lead_pin.side {
                    Side::Bottom => {
                        let top = pins.iter().map(|p| p.position.y).max().expect("non-empty");
                        (Segment::vertical(x, fr.y_b(), top, CHANNEL_W), &mut down)
                    }
                    Side::Top => {
                        let bot = pins.iter().map(|p| p.position.y).min().expect("non-empty");
                        (Segment::vertical(x, bot, fr.y_t(), CHANNEL_W), &mut up)
                    }
                    other => {
                        return Err(LayoutError::Restore(format!(
                            "control pin on the {other} boundary"
                        )))
                    }
                };
                let ch = design.add_channel(Channel::straight(ChannelRole::Control, seg, None));
                design.control_lines.push(ControlLine {
                    name: lead_pin.name.clone(),
                    channel: ch,
                    valves,
                });
                bucket.push((x, ch));
            }
        }
    }

    down.sort_by_key(|&(x, _)| x);
    up.sort_by_key(|&(x, _)| x);
    Ok((
        down.into_iter().map(|(_, c)| c).collect(),
        up.into_iter().map(|(_, c)| c).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, LayoutOptions};
    use columba_netlist::{generators, MuxCount};
    use columba_planar::planarize;

    fn synth(lanes: usize, mux: MuxCount) -> LayoutResult {
        let (n, _) = planarize(&generators::chip_ip(lanes, mux));
        synthesize(&n, &LayoutOptions::heuristic_only()).expect("synthesis succeeds")
    }

    #[test]
    fn chip4_design_is_complete_and_clean() {
        let r = synth(4, MuxCount::One);
        let d = &r.design;
        assert_eq!(d.modules.len(), 10, "9 units + 1 switch");
        assert_eq!(d.muxes.len(), 1);
        // all 42 lines reach the bottom MUX
        assert_eq!(d.muxes[0].controlled.len(), 42);
        let s = d.stats();
        assert_eq!(s.control_inlets, 13, "2*ceil(log2 42)+1 (paper row 2)");
        assert!(s.fluid_inlets >= 5, "lysate + 4 outs");
        assert!(r.drc.is_clean(), "{}", r.drc);
    }

    #[test]
    fn chip4_two_mux() {
        let r = synth(4, MuxCount::Two);
        let d = &r.design;
        assert_eq!(d.muxes.len(), 2);
        let down = d.muxes.iter().find(|m| m.side == Side::Bottom).unwrap();
        let top = d.muxes.iter().find(|m| m.side == Side::Top).unwrap();
        assert_eq!(down.controlled.len() + top.controlled.len(), 42);
        let s = d.stats();
        assert_eq!(s.control_inlets, down.inlet_count() + top.inlet_count());
        assert!(r.drc.is_clean(), "{}", r.drc);
    }

    #[test]
    fn chip16_groups_share_lines() {
        let r = synth(16, MuxCount::One);
        let d = &r.design;
        // 16 lanes in 8 groups of 2: lines = pre 9 + 8*7 + switch 17
        assert_eq!(d.muxes[0].controlled.len(), 9 + 56 + 17);
        // a shared line actuates valves in both lanes of its group
        let shared = d
            .control_lines
            .iter()
            .filter(|l| l.valves.len() >= 2 && l.name.contains("pump"))
            .count();
        assert!(shared > 0, "group pump lines actuate one valve per lane");
        assert!(r.drc.is_clean(), "{}", r.drc);
    }

    #[test]
    fn control_lines_cover_every_valve_outside_muxes() {
        let r = synth(4, MuxCount::One);
        let d = &r.design;
        let mut covered = vec![false; d.valves.len()];
        for line in &d.control_lines {
            for v in &line.valves {
                covered[v.0] = true;
            }
        }
        for (vi, v) in d.valves.iter().enumerate() {
            if v.kind == columba_design::ValveKind::Mux {
                continue;
            }
            assert!(
                covered[vi],
                "valve #{vi} ({:?}) has no control line",
                v.kind
            );
        }
    }

    #[test]
    fn stats_track_functional_flow_only() {
        let r = synth(4, MuxCount::One);
        let s = r.design.stats();
        assert!(s.flow_channel_length > Um::ZERO);
        // MUX flow lines exist but are excluded
        let mux_len: Um = r
            .design
            .channels_with_role(ChannelRole::MuxFlow)
            .map(|(_, c)| c.length())
            .sum();
        assert!(mux_len > Um::ZERO);
    }
}
