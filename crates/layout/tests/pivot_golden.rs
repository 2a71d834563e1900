//! Pins the simplex pivot path on the benchmark cases.
//!
//! Every solve below is bounded by work, not by the clock (one or four
//! branch & bound nodes on the small cases, the LP polish alone on the
//! large ones), so its simplex iteration count and node count are a pure
//! function of the kernel's pivot rule, its start bases and its
//! arithmetic, and are pinned exactly. Every solve starts with the hint LP
//! (every binary fixed at the constructive placement), whose rows are
//! difference rows: it starts from the crash basis of their least
//! solution, not from phase 1. The root LP and every node LP start from
//! the crash too: their rows are difference rows plus the eqs 3–5 switch
//! groups, so the least point of the difference rows, extended over each
//! group's binaries, is their start. The one-node solves check that on the
//! `milp.root` span: a root the crash refused would run phase 1 and
//! report a `fallback`. An iteration is a pivot or a bound flip: factoring
//! a start basis is not one. The objective is pinned to 1e-9 relative of
//! the value the dense-tableau kernel reached, whose bits are kept here.
//! The best bound is pinned to its bits: at one node it is the root bound,
//! the value an earlier start from the hint LP's optimal basis reached,
//! bit for bit except 21u's (28.97 against 28.96999999999999, 2 ulps
//! apart). A kernel optimisation that
//! claims "same pivots" must leave every count unchanged; a change to the
//! pivot rule, to the basis factorization or to how an LP starts must
//! update the counts on purpose.

use std::path::PathBuf;
use std::time::Duration;

use columba_layout::{generate_only, GeneratedLayout, LayoutOptions};
use columba_netlist::{generators, MuxCount, Netlist};
use columba_obs::{AttrValue, SpanRecorder};
use columba_planar::planarize;

/// `(simplex_iterations, nodes_processed, objective bits, best-bound bits)`
/// of one solve.
type Pinned = (usize, usize, u64, u64);

/// The best bound of a polish that never solves the root relaxation: −∞.
const NO_BOUND: u64 = 0xfff0_0000_0000_0000;

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
        report.best_bound.to_bits(),
    )
}

fn assert_pinned(case: &str, got: Pinned, want: Pinned) {
    let (objective, pinned) = (f64::from_bits(got.2), f64::from_bits(want.2));
    assert_eq!(
        (got.0, got.1),
        (want.0, want.1),
        "{case}: (iterations, nodes) moved"
    );
    assert_eq!(
        got.3,
        want.3,
        "{case}: best bound {}, pinned {}",
        f64::from_bits(got.3),
        f64::from_bits(want.3)
    );
    assert!(
        (objective - pinned).abs() <= 1e-9 * pinned.abs(),
        "{case}: objective {objective}, pinned {pinned}"
    );
}

/// One branch & bound node on a single worker with no effective clock
/// limit: the crash-started hint LP, then the crash-started root LP.
/// Layout turns the rounding heuristic off, and node 0 branches on the
/// root solution without solving again.
fn one_node() -> LayoutOptions {
    LayoutOptions {
        threads: 1,
        node_limit: 1,
        time_limit: Duration::from_secs(3600),
        ..LayoutOptions::default()
    }
}

/// Pins the one-node solve of `case` and checks on its `milp.root` span
/// that the hint LP and the root LP both started from the crash. Span
/// recording is switched on and left on: switching it off again would race
/// the recorders of the tests running beside this one.
fn assert_one_node(case: &str, want: Pinned) {
    let rec = SpanRecorder::new(4096);
    columba_obs::set_enabled(true);
    let guard = rec.install();
    let generated = generate(&bundled(case), &one_node());
    drop(guard);
    assert_pinned(case, pinned(&generated), want);
    let root = (rec.finished().into_iter())
        .find(|e| e.name == "milp.root")
        .unwrap_or_else(|| panic!("{case}: no milp.root span"));
    let attr = |key: &str| {
        (root.attrs.iter())
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let crash = Some(AttrValue::from("crash"));
    assert_eq!(
        (attr("hint_start"), attr("root_start"), attr("fallback")),
        (crash.clone(), crash, None),
        "{case}: (hint_start, root_start, fallback)"
    );
}

#[test]
fn chip4ip_one_node() {
    assert_one_node(
        "chip4ip",
        (22, 1, 0x4051_82e1_47ae_147b, 0x403a_cccc_cccc_cccc),
    );
}

#[test]
fn kinase_activity_one_node() {
    assert_one_node(
        "kinase_activity",
        (20, 1, 0x404f_17ae_147a_e145, 0x4031_cccc_cccc_cccc),
    );
}

#[test]
fn columba2_21u_one_node() {
    assert_one_node(
        "columba2_21u",
        (14, 1, 0x4053_0028_f5c2_8f5f, 0x403c_f851_eb85_1eb8),
    );
}

#[test]
fn mrna_isolation_one_node() {
    assert_one_node(
        "mrna_isolation",
        (28, 1, 0x4049_9a8f_5c28_f5c1, 0x4039_bfff_ffff_fffe),
    );
}

#[test]
fn nucleic_acid_processor_one_node() {
    assert_one_node(
        "nucleic_acid_processor",
        (24, 1, 0x4046_62e1_47ae_1479, 0x4036_b333_3333_3332),
    );
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
        (11, 0, 0x4083_9f85_1eb8_51eb, NO_BOUND),
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
        (12, 0, 0x4093_4002_8f5c_28f5, NO_BOUND),
    );
}

/// Four branch & bound nodes on a single worker with no effective clock
/// limit: the root, then child LPs, each crash-started from the least point
/// of its own difference rows and switch groups. The tree differs from the
/// one a root started from the hint LP's basis grew (its root vertex does),
/// so 21u's bound at four nodes is 43.4625, not the root's 28.97.
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
    assert_four_nodes(
        "chip4ip",
        (55, 4, 0x4051_82e1_47ae_147b, 0x403a_cccc_cccc_cccc),
    );
}

#[test]
fn columba2_21u_four_nodes() {
    assert_four_nodes(
        "columba2_21u",
        (506, 4, 0x4053_0028_f5c2_8f5f, 0x4045_bb33_3333_3333),
    );
}
