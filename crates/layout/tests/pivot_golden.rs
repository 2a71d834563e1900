//! Pins the simplex pivot path on the benchmark cases.
//!
//! Every solve below is bounded by work, not by the clock (one or four
//! branch & bound nodes on the small cases, the LP polish alone on the
//! large ones), so its simplex iteration count and node count are a pure
//! function of the kernel's pivot rule, its start bases and its
//! arithmetic, and are pinned exactly. Every solve starts with the hint LP
//! (every binary fixed at the constructive placement), whose rows are
//! difference rows: it starts from the crash basis of their least
//! solution, not from phase 1, and its optimal basis starts the root LP.
//! The four-node rows add phase 1 with artificials, `drive_out_artificials`
//! and the cold child LPs to the pinned path. An iteration is a pivot or a
//! bound flip: factoring a start basis (crash or handed) is not one. The
//! objective is pinned to 1e-9 relative of the value the dense-tableau
//! kernel reached, whose bits are kept here. A kernel optimisation that
//! claims "same pivots" must leave every count unchanged; a change to the
//! pivot rule, to the basis factorization or to how an LP starts must
//! update the counts on purpose.

use std::path::PathBuf;
use std::time::Duration;

use columba_layout::{generate_only, GeneratedLayout, LayoutOptions};
use columba_netlist::{generators, MuxCount, Netlist};
use columba_planar::planarize;

/// `(simplex_iterations, nodes_processed, objective bits)` of one solve.
type Pinned = (usize, usize, u64);

fn generate(netlist: &Netlist, options: &LayoutOptions) -> GeneratedLayout {
    let (planar, _) = planarize(netlist);
    let (_, generated) = generate_only(&planar, options).expect("case generates");
    generated
}

fn bundled(case: &str) -> Netlist {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../cases/{case}.netlist"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Netlist::parse(&text).expect("bundled case parses")
}

fn pinned(generated: &GeneratedLayout) -> Pinned {
    let report = &generated.report;
    let objective = report.objective.expect("solve returns a layout");
    (
        report.solve.simplex_iterations,
        report.solve.nodes_processed,
        objective.to_bits(),
    )
}

fn assert_pinned(case: &str, got: Pinned, want: Pinned) {
    let (objective, pinned) = (f64::from_bits(got.2), f64::from_bits(want.2));
    assert_eq!(
        (got.0, got.1),
        (want.0, want.1),
        "{case}: (iterations, nodes) moved"
    );
    assert!(
        (objective - pinned).abs() <= 1e-9 * pinned.abs(),
        "{case}: objective {objective}, pinned {pinned}"
    );
}

/// One branch & bound node on a single worker with no effective clock
/// limit: the crash-started hint LP, then the root LP warm-started from its
/// basis. Layout
/// turns the rounding heuristic off, and node 0 branches on the root
/// solution without solving again.
fn one_node() -> LayoutOptions {
    LayoutOptions {
        threads: 1,
        node_limit: 1,
        time_limit: Duration::from_secs(3600),
        ..LayoutOptions::default()
    }
}

fn assert_one_node(case: &str, want: Pinned) {
    assert_pinned(case, pinned(&generate(&bundled(case), &one_node())), want);
}

#[test]
fn chip4ip_one_node() {
    assert_one_node("chip4ip", (301, 1, 0x4051_82e1_47ae_147b));
}

#[test]
fn kinase_activity_one_node() {
    assert_one_node("kinase_activity", (300, 1, 0x404f_17ae_147a_e145));
}

#[test]
fn columba2_21u_one_node() {
    assert_one_node("columba2_21u", (124, 1, 0x4053_0028_f5c2_8f5f));
}

#[test]
fn mrna_isolation_one_node() {
    assert_one_node("mrna_isolation", (210, 1, 0x4049_9a8f_5c28_f5c1));
}

#[test]
fn nucleic_acid_processor_one_node() {
    assert_one_node("nucleic_acid_processor", (152, 1, 0x4046_62e1_47ae_1479));
}

#[test]
fn chip64_one_mux_heuristic_polish() {
    let generated = generate(
        &generators::chip_ip(64, MuxCount::One),
        &LayoutOptions::heuristic_only(),
    );
    assert_pinned(
        "chip_ip(64, One)",
        pinned(&generated),
        (11, 0, 0x4083_9f85_1eb8_51eb),
    );
}

#[test]
fn chip128_two_mux_heuristic_polish() {
    let generated = generate(
        &generators::chip_ip(128, MuxCount::Two),
        &LayoutOptions::heuristic_only(),
    );
    assert_pinned(
        "chip_ip(128, Two)",
        pinned(&generated),
        (12, 0, 0x4093_4002_8f5c_28f5),
    );
}

/// Four branch & bound nodes on a single worker with no effective clock
/// limit: the warm root, then child LPs, each solved cold from a
/// slack/artificial basis (phase 1, `drive_out_artificials`, phase 2).
fn four_nodes() -> LayoutOptions {
    LayoutOptions {
        node_limit: 4,
        ..one_node()
    }
}

fn assert_four_nodes(case: &str, want: Pinned) {
    assert_pinned(case, pinned(&generate(&bundled(case), &four_nodes())), want);
}

#[test]
fn chip4ip_four_nodes() {
    assert_four_nodes("chip4ip", (5255, 4, 0x4051_82e1_47ae_147b));
}

#[test]
fn columba2_21u_four_nodes() {
    assert_four_nodes("columba2_21u", (1756, 4, 0x4053_0028_f5c2_8f5f));
}
