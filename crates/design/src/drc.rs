//! Design-rule checker.
//!
//! Verifies that a [`Design`] obeys the geometric rules the synthesis flow
//! promises: containment, same-layer clearance, the Columba S straight
//! channel routing discipline, fluid-inlet pitch `d'` and valve placement.
//!
//! The checker is deliberately independent of the synthesis code — it
//! recomputes everything from raw geometry so it can catch synthesis bugs.

use std::fmt;

use columba_geom::{Layer, Rect, Um, INLET_PITCH, MIN_CHANNEL_SPACING};

use crate::ir::{Channel, Design, InletKind, ValveKind};

/// Which rule a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Geometry outside the chip outline.
    ChipContainment,
    /// Two module footprints overlap.
    ModuleOverlap,
    /// Two same-layer channels overlap (excluding same-module internals).
    SameLayerClearance,
    /// A transport flow channel runs through a foreign module.
    ModuleChannelConflict,
    /// A `FlowTransport`/`Control` channel bends or runs the wrong way.
    StraightDiscipline,
    /// Fluid inlets closer than `d'` on the same boundary.
    InletPitch,
    /// A valve pad does not touch the channels it connects.
    ValvePlacement,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::ChipContainment => "chip-containment",
            Rule::ModuleOverlap => "module-overlap",
            Rule::SameLayerClearance => "same-layer-clearance",
            Rule::ModuleChannelConflict => "module-channel-conflict",
            Rule::StraightDiscipline => "straight-discipline",
            Rule::InletPitch => "inlet-pitch",
            Rule::ValvePlacement => "valve-placement",
        };
        f.write_str(s)
    }
}

/// One rule violation with a human-readable diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule broken.
    pub rule: Rule,
    /// Diagnostic text naming the offending objects.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// The outcome of a DRC run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DrcReport {
    /// All violations found, in rule order.
    pub violations: Vec<Violation>,
}

impl DrcReport {
    /// `true` when no rule is violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one specific rule.
    #[must_use]
    pub fn of_rule(&self, rule: Rule) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.rule == rule).collect()
    }
}

impl fmt::Display for DrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("DRC clean");
        }
        writeln!(f, "{} DRC violations:", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Runs all design-rule checks on `design`.
#[must_use]
pub fn check(design: &Design) -> DrcReport {
    run(design).0
}

/// The work counter of [`check`]: how many candidate rectangle pairs its
/// overlap sweeps compare. It depends on the geometry alone, so a test can
/// pin it where timing is too noisy to show a return to all-pairs work.
#[must_use]
pub fn candidate_pairs(design: &Design) -> usize {
    run(design).1
}

fn run(design: &Design) -> (DrcReport, usize) {
    let mut report = DrcReport::default();
    let mut examined = 0;
    check_containment(design, &mut report);
    check_module_overlap(design, &mut report, &mut examined);
    check_same_layer_clearance(design, &mut report, &mut examined);
    check_module_channel_conflicts(design, &mut report, &mut examined);
    check_straight_discipline(design, &mut report);
    check_inlet_pitch(design, &mut report);
    check_valve_placement(design, &mut report);
    (report, examined)
}

/// Every pair of boxes whose interiors overlap ([`Rect::overlaps`]),
/// found with a sweep line: boxes enter in order of their low edge along
/// the sweep axis, and each is compared only with the active boxes whose
/// high edge still lies beyond that edge. `across == None` joins `boxes`
/// with itself and yields each pair once as `(i, j)` with `i < j`;
/// `Some(other)` yields `(i, j)` for `boxes[i]` overlapping `other[j]`.
/// Pairs come out in no particular order. `examined` counts the
/// comparisons made.
fn overlapping_pairs(
    boxes: &[Rect],
    across: Option<&[Rect]>,
    examined: &mut usize,
) -> Vec<(usize, usize)> {
    let groups = [boxes, across.unwrap_or(&[])];
    // sweep along the axis on which the boxes are short relative to the
    // area they span: the active list then stays small
    let all = || groups.iter().flat_map(|g| g.iter());
    let Some(frame) = Rect::bounding(all()) else {
        return Vec::new();
    };
    let (sum_w, sum_h) = all().fold((0i128, 0i128), |(w, h), r| {
        (
            w + i128::from(r.width().raw()),
            h + i128::from(r.height().raw()),
        )
    });
    let sweep_x =
        sum_w * i128::from(frame.height().raw()) <= sum_h * i128::from(frame.width().raw());
    let span = |r: &Rect| {
        if sweep_x {
            (r.x_l(), r.x_r())
        } else {
            (r.y_b(), r.y_t())
        }
    };

    let mut order: Vec<(Um, usize, usize)> = Vec::with_capacity(boxes.len() + groups[1].len());
    for (g, rects) in groups.iter().enumerate() {
        order.extend(rects.iter().enumerate().map(|(k, r)| (span(r).0, g, k)));
    }
    order.sort_unstable();
    let mut active: [Vec<(Um, usize)>; 2] = [Vec::new(), Vec::new()];
    let mut pairs = Vec::new();
    for (low, g, k) in order {
        for list in &mut active {
            list.retain(|&(high, _)| high > low);
        }
        let r = &groups[g][k];
        let other = if across.is_some() { 1 - g } else { g };
        for &(_, o) in &active[other] {
            *examined += 1;
            if r.overlaps(&groups[other][o]) {
                pairs.push(match (across.is_some(), g) {
                    (false, _) => (o.min(k), o.max(k)),
                    (true, 0) => (k, o),
                    (true, _) => (o, k),
                });
            }
        }
        active[g].push((span(r).1, k));
    }
    pairs
}

/// The rectangles of the segments of every channel `keep` selects, each
/// tagged `(channel index, segment index)`.
fn segment_boxes(d: &Design, keep: impl Fn(&Channel) -> bool) -> (Vec<Rect>, Vec<(usize, usize)>) {
    let mut rects = Vec::new();
    let mut tags = Vec::new();
    for (i, c) in d.channels.iter().enumerate().filter(|(_, c)| keep(c)) {
        for (si, s) in c.path.iter().enumerate() {
            rects.push(s.to_rect());
            tags.push((i, si));
        }
    }
    (rects, tags)
}

fn check_containment(d: &Design, report: &mut DrcReport) {
    for m in &d.modules {
        if !d.chip.contains_rect(&m.rect) {
            report.violations.push(Violation {
                rule: Rule::ChipContainment,
                message: format!("module `{}` {} leaves the chip {}", m.name, m.rect, d.chip),
            });
        }
    }
    for (i, c) in d.channels.iter().enumerate() {
        if let Some(bb) = c.bounding_rect() {
            if !d.chip.contains_rect(&bb) {
                report.violations.push(Violation {
                    rule: Rule::ChipContainment,
                    message: format!(
                        "channel #{i} ({:?}) {bb} leaves the chip {}",
                        c.role, d.chip
                    ),
                });
            }
        }
    }
    for (i, v) in d.valves.iter().enumerate() {
        if !d.chip.contains_rect(&v.rect) {
            report.violations.push(Violation {
                rule: Rule::ChipContainment,
                message: format!("valve #{i} ({:?}) {} leaves the chip", v.kind, v.rect),
            });
        }
    }
}

fn check_module_overlap(d: &Design, report: &mut DrcReport, examined: &mut usize) {
    let rects: Vec<Rect> = d.modules.iter().map(|m| m.rect).collect();
    let mut hits = overlapping_pairs(&rects, None, examined);
    hits.sort_unstable();
    for (i, j) in hits {
        let (a, b) = (&d.modules[i], &d.modules[j]);
        report.violations.push(Violation {
            rule: Rule::ModuleOverlap,
            message: format!(
                "modules `{}` {} and `{}` {} overlap",
                a.name, a.rect, b.name, b.rect
            ),
        });
    }
}

fn check_same_layer_clearance(d: &Design, report: &mut DrcReport, examined: &mut usize) {
    let mut hits = Vec::new();
    for layer in [Layer::Flow, Layer::Control] {
        let (rects, tags) = segment_boxes(d, |c| c.layer() == layer);
        for (p, q) in overlapping_pairs(&rects, None, examined) {
            let ((i, si), (j, sj)) = (tags[p].min(tags[q]), tags[p].max(tags[q]));
            // a channel's own segments join each other
            if i == j {
                continue;
            }
            let (a, b) = (&d.channels[i], &d.channels[j]);
            // internal geometry of one module is that module's business
            if a.owner.is_some() && a.owner == b.owner {
                continue;
            }
            if !overlap_is_junction(&a.path[si], &b.path[sj]) {
                hits.push((i, j, si, sj));
            }
        }
    }
    hits.sort_unstable();
    for (i, j, si, sj) in hits {
        let (a, b) = (&d.channels[i], &d.channels[j]);
        report.violations.push(Violation {
            rule: Rule::SameLayerClearance,
            message: format!(
                "{} channels #{i}.{si} and #{j}.{sj} overlap: {} vs {}",
                a.layer(),
                a.path[si],
                b.path[sj]
            ),
        });
    }
}

/// Two same-layer segments may legitimately overlap where they join:
/// either they are collinear (one electrical line continuing through a
/// module, e.g. a shared control channel of a parallel group), or the
/// overlap sits within one spacing unit `d` of a segment endpoint (a T- or
/// L-junction between connected runs). Overlap in the *middle* of two
/// unrelated runs is a genuine short and is reported.
fn overlap_is_junction(sa: &columba_geom::Segment, sb: &columba_geom::Segment) -> bool {
    use columba_geom::Orientation;
    // collinear same-centreline runs are the same physical channel
    if sa.orientation() == sb.orientation() {
        return match sa.orientation() {
            Orientation::Vertical => sa.start().x == sb.start().x,
            Orientation::Horizontal => sa.start().y == sb.start().y,
        };
    }
    let Some(overlap) = sa.to_rect().intersection(&sb.to_rect()) else {
        return false;
    };
    let d = MIN_CHANNEL_SPACING;
    let near = |p: columba_geom::Point| -> bool {
        let grown = Rect::new(
            overlap.x_l() - d,
            overlap.x_r() + d,
            overlap.y_b() - d,
            overlap.y_t() + d,
        );
        grown.contains_point(p)
    };
    near(sa.start()) || near(sa.end()) || near(sb.start()) || near(sb.end())
}

fn check_module_channel_conflicts(d: &Design, report: &mut DrcReport, examined: &mut usize) {
    // only flow-layer transport/MUX channels conflict with module bodies;
    // control channels fly over on the other layer
    let (rects, tags) = segment_boxes(d, |c| c.layer() == Layer::Flow && c.owner.is_none());
    let modules: Vec<Rect> = d.modules.iter().map(|m| m.rect).collect();
    let mut hits: Vec<(usize, usize, usize)> = overlapping_pairs(&rects, Some(&modules), examined)
        .into_iter()
        .map(|(p, mi)| (tags[p].0, mi, tags[p].1))
        .collect();
    hits.sort_unstable();
    for (i, mi, si) in hits {
        report.violations.push(Violation {
            rule: Rule::ModuleChannelConflict,
            message: format!(
                "flow channel #{i} {} runs through module `{}` (#{mi})",
                d.channels[i].path[si], d.modules[mi].name
            ),
        });
    }
}

fn check_straight_discipline(d: &Design, report: &mut DrcReport) {
    for (i, c) in d.channels.iter().enumerate() {
        let Some(required) = c.role.required_orientation() else {
            continue;
        };
        if c.path.len() != 1 {
            report.violations.push(Violation {
                rule: Rule::StraightDiscipline,
                message: format!(
                    "{:?} channel #{i} has {} segments; the discipline demands one straight run",
                    c.role,
                    c.path.len()
                ),
            });
            continue;
        }
        let seg = &c.path[0];
        if seg.length() > columba_geom::Um(0) && seg.orientation() != required {
            report.violations.push(Violation {
                rule: Rule::StraightDiscipline,
                message: format!("{:?} channel #{i} {seg} must run {required}", c.role),
            });
        }
    }
}

fn check_inlet_pitch(d: &Design, report: &mut DrcReport) {
    let fluid: Vec<_> = d
        .inlets
        .iter()
        .filter(|i| i.kind == InletKind::Fluid)
        .collect();
    for (i, a) in fluid.iter().enumerate() {
        for b in &fluid[i + 1..] {
            if a.side != b.side {
                continue;
            }
            let dist = a.position.manhattan_distance(b.position);
            if dist < INLET_PITCH {
                report.violations.push(Violation {
                    rule: Rule::InletPitch,
                    message: format!(
                        "fluid inlets `{}` and `{}` on the {} boundary are {dist} apart (< d' = {})",
                        a.name, b.name, a.side, INLET_PITCH
                    ),
                });
            }
        }
    }
    let pressure: Vec<_> = d
        .inlets
        .iter()
        .filter(|i| i.kind == InletKind::Pressure)
        .collect();
    let min = MIN_CHANNEL_SPACING * 2;
    for (i, a) in pressure.iter().enumerate() {
        for b in &pressure[i + 1..] {
            if a.side != b.side {
                continue;
            }
            let dist = a.position.manhattan_distance(b.position);
            if dist < min {
                report.violations.push(Violation {
                    rule: Rule::InletPitch,
                    message: format!(
                        "pressure inlets `{}` and `{}` are {dist} apart (< 2d = {min})",
                        a.name, b.name
                    ),
                });
            }
        }
    }
}

fn check_valve_placement(d: &Design, report: &mut DrcReport) {
    let touch = |valve_rect: &Rect, ch: crate::ir::ChannelId| -> bool {
        d.channel(ch)
            .path
            .iter()
            .any(|s| s.to_rect().touches(valve_rect))
    };
    for (i, v) in d.valves.iter().enumerate() {
        if let Some(ctrl) = v.control {
            if !touch(&v.rect, ctrl) {
                report.violations.push(Violation {
                    rule: Rule::ValvePlacement,
                    message: format!(
                        "valve #{i} ({:?}) {} does not touch its control channel #{}",
                        v.kind, v.rect, ctrl.0
                    ),
                });
            }
        }
        if let Some(blocked) = v.blocks {
            if !touch(&v.rect, blocked) {
                report.violations.push(Violation {
                    rule: Rule::ValvePlacement,
                    message: format!(
                        "valve #{i} ({:?}) {} does not touch the channel it blocks (#{})",
                        v.kind, v.rect, blocked.0
                    ),
                });
            }
        }
        if v.kind == ValveKind::Mux && v.control.is_some() {
            report.violations.push(Violation {
                rule: Rule::ValvePlacement,
                message: format!(
                    "MUX valve #{i} must be actuated by a MUX-flow line, not a control channel"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Channel, ChannelRole, Design, Inlet, PlacedModule, Valve};
    use columba_geom::{Point, Segment, Side, Um};
    use columba_netlist::ComponentId;

    fn base() -> Design {
        Design::new("t", Rect::new(Um(0), Um(30_000), Um(0), Um(20_000)))
    }

    fn module(name: &str, rect: Rect) -> PlacedModule {
        PlacedModule {
            component: ComponentId(0),
            name: name.into(),
            rect,
        }
    }

    #[test]
    fn clean_design_is_clean() {
        let mut d = base();
        d.modules.push(module(
            "m1",
            Rect::new(Um(1_000), Um(4_000), Um(1_000), Um(2_500)),
        ));
        d.channels.push(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(1_750), Um(4_000), Um(8_000), Um(100)),
            None,
        ));
        d.channels.push(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(2_000), Um(0), Um(1_000), Um(100)),
            None,
        ));
        let r = check(&d);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn out_of_chip_flagged() {
        let mut d = base();
        d.modules.push(module(
            "m1",
            Rect::new(Um(29_000), Um(31_000), Um(0), Um(1_000)),
        ));
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::ChipContainment).len(), 1);
    }

    #[test]
    fn module_overlap_flagged() {
        let mut d = base();
        d.modules
            .push(module("a", Rect::new(Um(0), Um(2_000), Um(0), Um(2_000))));
        d.modules.push(module(
            "b",
            Rect::new(Um(1_000), Um(3_000), Um(0), Um(2_000)),
        ));
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::ModuleOverlap).len(), 1);
        // flush placement is fine
        let mut d2 = base();
        d2.modules
            .push(module("a", Rect::new(Um(0), Um(2_000), Um(0), Um(2_000))));
        d2.modules.push(module(
            "b",
            Rect::new(Um(2_000), Um(4_000), Um(0), Um(2_000)),
        ));
        assert!(check(&d2).is_clean());
    }

    #[test]
    fn same_layer_overlap_flagged_cross_layer_allowed() {
        let mut d = base();
        d.channels.push(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(1_000), Um(0), Um(5_000), Um(100)),
            None,
        ));
        // parallel run 50um higher: rectangles overlap, distinct centreline
        d.channels.push(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(1_050), Um(2_000), Um(7_000), Um(100)),
            None,
        ));
        // crossing control channel: different layer, no violation
        d.channels.push(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(3_000), Um(0), Um(4_000), Um(100)),
            None,
        ));
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::SameLayerClearance).len(), 1, "{r}");
    }

    #[test]
    fn collinear_continuation_is_one_line() {
        // a shared control channel passing straight through a module meets
        // the module's own collinear stub: same centreline, same line
        let mut d = base();
        d.channels.push(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(2_000), Um(0), Um(9_000), Um(100)),
            None,
        ));
        d.channels.push(Channel::straight(
            ChannelRole::InternalControl,
            Segment::vertical(Um(2_000), Um(4_000), Um(5_000), Um(100)),
            Some(crate::ir::ModuleId(0)),
        ));
        assert!(check(&d).is_clean());
    }

    #[test]
    fn mid_run_perpendicular_short_flagged_but_junction_allowed() {
        // internal control jog crossing a foreign control channel mid-run
        let mut d = base();
        d.channels.push(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(3_000), Um(0), Um(9_000), Um(100)),
            None,
        ));
        d.channels.push(Channel::straight(
            ChannelRole::InternalControl,
            Segment::horizontal(Um(5_000), Um(1_000), Um(6_000), Um(100)),
            Some(crate::ir::ModuleId(1)),
        ));
        assert_eq!(check(&d).of_rule(Rule::SameLayerClearance).len(), 1);

        // ...but a jog *ending on* the channel is a junction
        let mut d2 = base();
        d2.channels.push(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(3_000), Um(0), Um(9_000), Um(100)),
            None,
        ));
        d2.channels.push(Channel::straight(
            ChannelRole::InternalControl,
            Segment::horizontal(Um(5_000), Um(1_000), Um(3_000), Um(100)),
            Some(crate::ir::ModuleId(1)),
        ));
        assert!(check(&d2).is_clean());
    }

    #[test]
    fn same_module_internals_exempt() {
        let mut d = base();
        let owner = Some(crate::ir::ModuleId(0));
        d.channels.push(Channel::straight(
            ChannelRole::InternalFlow,
            Segment::horizontal(Um(1_000), Um(0), Um(2_000), Um(100)),
            owner,
        ));
        d.channels.push(Channel::straight(
            ChannelRole::InternalFlow,
            Segment::horizontal(Um(1_000), Um(500), Um(1_500), Um(100)),
            owner,
        ));
        assert!(check(&d).is_clean());
    }

    #[test]
    fn transport_through_foreign_module_flagged() {
        let mut d = base();
        d.modules.push(module(
            "m1",
            Rect::new(Um(2_000), Um(5_000), Um(500), Um(2_000)),
        ));
        d.channels.push(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(1_000), Um(0), Um(10_000), Um(100)),
            None,
        ));
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::ModuleChannelConflict).len(), 1);
    }

    #[test]
    fn bent_transport_channel_flagged() {
        let mut d = base();
        d.channels.push(Channel {
            role: ChannelRole::FlowTransport,
            path: vec![
                Segment::horizontal(Um(1_000), Um(0), Um(2_000), Um(100)),
                Segment::vertical(Um(2_000), Um(1_000), Um(3_000), Um(100)),
            ],
            owner: None,
        });
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::StraightDiscipline).len(), 1);
    }

    #[test]
    fn vertical_flow_channel_flagged() {
        let mut d = base();
        d.channels.push(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::vertical(Um(1_000), Um(0), Um(2_000), Um(100)),
            None,
        ));
        assert_eq!(check(&d).of_rule(Rule::StraightDiscipline).len(), 1);
    }

    #[test]
    fn inlet_pitch_enforced() {
        let mut d = base();
        for (i, x) in [0i64, 500].into_iter().enumerate() {
            d.inlets.push(Inlet {
                name: format!("f{i}"),
                position: Point::new(Um(x), Um(0)),
                kind: InletKind::Fluid,
                side: Side::Left,
            });
        }
        assert_eq!(check(&d).of_rule(Rule::InletPitch).len(), 1);
        // same distance on different boundaries is fine
        let mut d2 = base();
        d2.inlets.push(Inlet {
            name: "a".into(),
            position: Point::new(Um(0), Um(0)),
            kind: InletKind::Fluid,
            side: Side::Left,
        });
        d2.inlets.push(Inlet {
            name: "b".into(),
            position: Point::new(Um(0), Um(500)),
            kind: InletKind::Fluid,
            side: Side::Right,
        });
        assert!(check(&d2).is_clean());
    }

    #[test]
    fn valve_must_touch_its_channels() {
        let mut d = base();
        let ch = d.add_channel(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(5_000), Um(0), Um(3_000), Um(100)),
            None,
        ));
        d.valves.push(Valve {
            kind: ValveKind::Isolation,
            rect: Rect::new(Um(10_000), Um(10_200), Um(500), Um(700)),
            control: Some(ch),
            blocks: None,
            owner: None,
        });
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::ValvePlacement).len(), 1);
    }

    #[test]
    fn mux_valve_must_not_have_control_channel() {
        let mut d = base();
        let ch = d.add_channel(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(5_000), Um(0), Um(3_000), Um(100)),
            None,
        ));
        d.valves.push(Valve {
            kind: ValveKind::Mux,
            rect: Rect::new(Um(4_900), Um(5_100), Um(500), Um(700)),
            control: Some(ch),
            blocks: Some(ch),
            owner: None,
        });
        let r = check(&d);
        assert_eq!(r.of_rule(Rule::ValvePlacement).len(), 1);
    }

    #[test]
    fn sweep_finds_exactly_the_overlapping_pairs() {
        // small coordinates make ties, shared edges, zero-area boxes and
        // duplicates common; the elongated boxes flip the sweep axis
        let mut rng = columba_netlist::prng::Rng::seed_from_u64(11);
        let mut boxes = |n: usize| -> Vec<Rect> {
            (0..n)
                .map(|_| {
                    let (x, y) = (rng.gen_range(0i64..20), rng.gen_range(0i64..20));
                    let (long, short) = (rng.gen_range(0i64..12), rng.gen_range(0i64..3));
                    let (w, h) = if rng.gen_range(0..2usize) == 0 {
                        (long, short)
                    } else {
                        (short, long)
                    };
                    Rect::new(Um(x), Um(x + w), Um(y), Um(y + h))
                })
                .collect()
        };
        let brute = |a: &[Rect], b: &[Rect], within: bool| -> Vec<(usize, usize)> {
            let mut pairs = Vec::new();
            for (i, ra) in a.iter().enumerate() {
                for (j, rb) in b.iter().enumerate() {
                    if (!within || i < j) && ra.overlaps(rb) {
                        pairs.push((i, j));
                    }
                }
            }
            pairs
        };
        let mut examined = 0;
        for round in 0..200 {
            let a = boxes(round % 40);
            let b = boxes(round % 7 * 3);
            let mut within = overlapping_pairs(&a, None, &mut examined);
            within.sort_unstable();
            assert_eq!(within, brute(&a, &a, true), "round {round}");
            let mut across = overlapping_pairs(&a, Some(&b), &mut examined);
            across.sort_unstable();
            assert_eq!(across, brute(&a, &b, false), "round {round}");
        }
    }

    #[test]
    fn report_display() {
        let mut d = base();
        d.modules.push(module(
            "far",
            Rect::new(Um(40_000), Um(41_000), Um(0), Um(100)),
        ));
        let r = check(&d);
        assert!(!r.is_clean());
        assert!(r.to_string().contains("chip-containment"));
        assert_eq!(check(&base()).to_string(), "DRC clean");
    }
}
