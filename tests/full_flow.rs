//! Cross-crate integration: the complete Columba S flow on the paper's
//! test cases, cross-checked between layout, DRC, multiplexer logic, the
//! simulator and the CAD writers.

use columba_s::design::{InletKind, ValveKind};
use columba_s::milp::SolveStatus;
use columba_s::mux::required_inlets;
use columba_s::netlist::{generators, MuxCount};
use columba_s::sim::Simulator;
use columba_s::{Columba, LayoutOptions, SynthesisOptions};

/// Branch & bound nodes per solve. The search is bounded by work, with
/// no effective clock, so the outcome does not depend on machine load.
const NODE_LIMIT: usize = 4;

fn quick_flow() -> Columba {
    Columba::with_options(SynthesisOptions {
        layout: LayoutOptions {
            time_limit: std::time::Duration::from_secs(3600),
            node_limit: NODE_LIMIT,
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    })
}

#[test]
fn all_table1_cases_synthesize_clean_one_mux() {
    let flow = quick_flow();
    for (label, netlist) in generators::table1_cases(MuxCount::One) {
        let out = flow
            .synthesize(&netlist)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(out.drc.is_clean(), "{label}: {}", out.drc);
        assert_eq!(out.design.muxes.len(), 1, "{label}");
        let s = out.stats();
        // the multiplexing formula of §2.2 ties inlets to line count
        let n = out.design.muxes[0].controlled.len();
        assert_eq!(s.control_inlets, required_inlets(n), "{label}");
        assert!(s.flow_channel_length.raw() > 0, "{label}");
        assert_eq!(
            out.design.modules.len(),
            netlist.functional_unit_count() + out.planarize.switches_added,
            "{label}: one placed module per unit and switch"
        );
    }
}

#[test]
fn two_mux_designs_split_lines_and_stay_clean() {
    let flow = quick_flow();
    for (label, netlist) in generators::table1_cases(MuxCount::Two) {
        // the two large cases are covered in the 1-MUX test; keep CI fast
        if netlist.functional_unit_count() > 130 {
            continue;
        }
        let out = flow
            .synthesize(&netlist)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(out.drc.is_clean(), "{label}: {}", out.drc);
        assert_eq!(out.design.muxes.len(), 2, "{label}: bottom and top MUX");
        let total: usize = out.design.muxes.iter().map(|m| m.controlled.len()).sum();
        assert_eq!(total, out.design.control_lines.len(), "{label}");
        let s = out.stats();
        let expected: usize = out.design.muxes.iter().map(|m| m.inlet_count()).sum();
        assert_eq!(s.control_inlets, expected, "{label}");
    }
}

#[test]
fn chip64_matches_paper_inlet_counts() {
    // the paper's Table 1 reports 17 control inlets for ChIP64 1-MUX and
    // 28 for 2-MUX; our reconstruction reproduces both exactly
    let flow = quick_flow();
    let one = flow
        .synthesize(&generators::chip_ip(64, MuxCount::One))
        .unwrap();
    assert_eq!(one.stats().control_inlets, 17);
    let two = flow
        .synthesize(&generators::chip_ip(64, MuxCount::Two))
        .unwrap();
    assert_eq!(two.stats().control_inlets, 28);
}

#[test]
fn every_control_line_is_addressable_and_blocks_fluid() {
    let flow = quick_flow();
    let out = flow
        .synthesize(&generators::chip_ip(4, MuxCount::One))
        .unwrap();
    let design = &out.design;
    let mut sim = Simulator::new(design).expect("all lines muxed");
    assert_eq!(sim.line_count(), design.control_lines.len());
    // actuate and vent every single line: the MUX must isolate each one
    for li in 0..sim.line_count() {
        let ev = sim
            .actuate(li, true)
            .unwrap_or_else(|e| panic!("line {li}: {e}"));
        assert_eq!(ev.line, li);
        sim.actuate(li, false).unwrap();
    }
    assert_eq!(sim.elapsed_ms(), 2 * 10 * sim.line_count() as u64);
}

#[test]
fn valve_accounting_is_consistent() {
    let flow = quick_flow();
    let out = flow
        .synthesize(&generators::kinase_activity(MuxCount::One))
        .unwrap();
    let d = &out.design;
    let mux_valves = d.valves.iter().filter(|v| v.kind == ValveKind::Mux).count();
    let line_valves: usize = d.control_lines.iter().map(|l| l.valves.len()).sum();
    assert_eq!(
        d.valves.len(),
        mux_valves + line_valves,
        "every valve is MUX or line-driven"
    );
    // MUX valve matrix size: n channels x address bits
    let m = &d.muxes[0];
    assert_eq!(m.valves.len(), m.controlled.len() * m.bits());
    assert_eq!(mux_valves, m.valves.len());
}

#[test]
fn fluid_inlets_match_port_connections() {
    let flow = quick_flow();
    let netlist = generators::chip_ip(4, MuxCount::One);
    let out = flow.synthesize(&netlist).unwrap();
    let fluid = out
        .design
        .inlets
        .iter()
        .filter(|i| i.kind == InletKind::Fluid)
        .count();
    assert_eq!(fluid, netlist.ports().len(), "one fluid inlet per port");
    // inlet names carry the port names through
    for p in netlist.ports() {
        assert!(
            out.design.inlets.iter().any(|i| &i.name == p),
            "port `{p}` has an inlet"
        );
    }
}

#[test]
fn cad_outputs_are_complete() {
    let flow = quick_flow();
    let out = flow
        .synthesize(&generators::kinase_activity(MuxCount::Two))
        .unwrap();
    let scr = out.to_autocad_script().unwrap();
    let svg = out.to_svg().unwrap();
    // every module appears in both outputs
    assert!(scr.matches("RECTANG").count() > out.design.modules.len());
    assert!(svg.matches("<rect").count() > out.design.modules.len());
    let mut dxf = Vec::new();
    columba_s::cad::write_dxf(&out.design, &mut dxf).unwrap();
    assert!(String::from_utf8(dxf).unwrap().ends_with("EOF\n"));
}

#[test]
fn search_mode_beats_or_matches_heuristic_objective() {
    let netlist = generators::chip_ip(4, MuxCount::One);
    let heuristic = Columba::with_options(SynthesisOptions {
        layout: LayoutOptions::heuristic_only(),
        ..SynthesisOptions::default()
    })
    .synthesize(&netlist)
    .unwrap();
    let searched = quick_flow().synthesize(&netlist).unwrap();
    let (h, s) = (
        heuristic.layout.objective.expect("has objective"),
        searched.layout.objective.expect("has objective"),
    );
    assert!(
        s <= h + 1e-6,
        "search {s} must not be worse than heuristic {h}"
    );
    assert!(matches!(
        searched.layout.status,
        SolveStatus::Optimal | SolveStatus::Feasible
    ));
}
