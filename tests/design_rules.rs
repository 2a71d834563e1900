//! Invariant checks on synthesized designs: the Columba S architectural
//! framework and routing discipline (paper §2), verified from raw geometry.

use columba_s::design::ChannelRole;
use columba_s::geom::Orientation;
use columba_s::netlist::{generators, MuxCount};
use columba_s::{Columba, LayoutOptions, SynthesisOptions};

/// Branch & bound nodes per solve: the root alone, since these checks
/// hold for any solved layout. The search is bounded by work, with no
/// effective clock, so the outcome does not depend on machine load.
const NODE_LIMIT: usize = 1;

fn synth(netlist: &columba_s::Netlist) -> columba_s::SynthesisOutcome {
    Columba::with_options(SynthesisOptions {
        layout: LayoutOptions {
            time_limit: std::time::Duration::from_secs(3600),
            node_limit: NODE_LIMIT,
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    })
    .synthesize(netlist)
    .expect("synthesis succeeds")
}

#[test]
fn straight_routing_discipline_holds() {
    let out = synth(&generators::chip_ip(8, MuxCount::Two));
    for c in &out.design.channels {
        match c.role {
            ChannelRole::FlowTransport => {
                assert_eq!(c.path.len(), 1);
                assert_eq!(c.path[0].orientation(), Orientation::Horizontal);
            }
            ChannelRole::Control => {
                assert_eq!(c.path.len(), 1);
                if c.path[0].length().raw() > 0 {
                    assert_eq!(c.path[0].orientation(), Orientation::Vertical);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn functional_region_holds_all_modules() {
    let out = synth(&generators::columba2_case(MuxCount::One));
    let fr = out.design.functional_region;
    for m in &out.design.modules {
        assert!(
            fr.contains_rect(&m.rect),
            "module `{}` outside the functional region",
            m.name
        );
    }
}

#[test]
fn mux_regions_are_outside_the_functional_region() {
    let out = synth(&generators::chip_ip(4, MuxCount::Two));
    let fr = out.design.functional_region;
    for mux in &out.design.muxes {
        assert!(
            !mux.region.overlaps(&fr),
            "MUX region must flank the functional region"
        );
    }
    // every MUX valve sits in a MUX region
    for mux in &out.design.muxes {
        for mv in &mux.valves {
            let pad = &out.design.valve(mv.valve).rect;
            assert!(mux.region.contains_rect(pad), "MUX valve inside its region");
        }
    }
}

#[test]
fn flow_length_accounting_excludes_mux_and_internal() {
    let out = synth(&generators::kinase_activity(MuxCount::One));
    let s = out.stats();
    let by_hand: i64 = out
        .design
        .channels
        .iter()
        .filter(|c| c.role == ChannelRole::FlowTransport)
        .map(|c| c.length().raw())
        .sum();
    assert_eq!(s.flow_channel_length.raw(), by_hand);
    // MUX-flow and internal channels exist but are excluded
    assert!(out
        .design
        .channels
        .iter()
        .any(|c| c.role == ChannelRole::MuxFlow));
    assert!(out
        .design
        .channels
        .iter()
        .any(|c| c.role == ChannelRole::InternalFlow));
}

#[test]
fn one_mux_design_routes_everything_down() {
    let out = synth(&generators::chip_ip(4, MuxCount::One));
    let fr = out.design.functional_region;
    for (_, c) in out.design.channels_with_role(ChannelRole::Control) {
        let seg = c.path[0];
        let low = seg.start().y.min(seg.end().y);
        assert!(
            low < fr.y_b() + columba_s::geom::Um(1),
            "control channel reaches the bottom MUX"
        );
    }
}

#[test]
fn parallel_groups_share_columns_exactly() {
    let out = synth(&generators::chip_ip(16, MuxCount::One));
    // every shared line's valves belong to modules stacked at one x column
    for line in &out.design.control_lines {
        if line.valves.len() < 2 {
            continue;
        }
        let xs: Vec<i64> = line
            .valves
            .iter()
            .map(|&v| {
                let r = &out.design.valve(v).rect;
                (r.x_l().raw() + r.x_r().raw()) / 2
            })
            .collect();
        assert!(
            xs.windows(2).all(|w| w[0] == w[1]),
            "shared line `{}` valves align on one control column",
            line.name
        );
    }
}

#[test]
fn switch_covers_its_junction_channels() {
    let out = synth(&generators::chip_ip(4, MuxCount::One));
    let d = &out.design;
    let sw = d
        .modules
        .iter()
        .find(|m| m.name.starts_with("sw"))
        .expect("switch placed");
    // every transport channel touching the switch boundary ends at a
    // junction y strictly inside the switch's vertical extent
    for c in &d.channels {
        if c.role != ChannelRole::FlowTransport {
            continue;
        }
        let seg = c.path[0];
        let touches_switch = seg.start().x == sw.rect.x_r() || seg.end().x == sw.rect.x_l();
        if touches_switch {
            let y = seg.start().y;
            assert!(
                y > sw.rect.y_b() && y < sw.rect.y_t(),
                "junction at {y} outside switch {}",
                sw.rect
            );
        }
    }
}
