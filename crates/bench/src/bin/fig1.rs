//! Regenerates the paper's Fig 1 comparison: the kinase-activity
//! application \[17\] synthesized by Columba 2.0 (baseline) and Columba S.
//! The paper reports run time 56 s vs 0.9 s, 22 vs 18 inlets, and
//! functional-region flow channel length 58.9 vs 39.85 mm.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin fig1
//! ```

use std::time::Duration;

use columba_bench::{harness_flow, secs};
use columba_s::baseline::{synthesize_baseline, BaselineOptions};
use columba_s::netlist::{generators, MuxCount};
use columba_s::planar::planarize;

fn main() {
    let netlist = generators::kinase_activity(MuxCount::One);
    println!(
        "Fig 1 — kinase activity application ({} units)\n",
        netlist.functional_unit_count()
    );

    let flow = harness_flow(Duration::from_secs(10));
    let s = flow
        .synthesize(&netlist)
        .expect("Columba S synthesis succeeds");
    let ss = s.stats();
    let s_inlets = ss.control_inlets + ss.fluid_inlets;

    let (planar, _) = planarize(&netlist);
    let b = synthesize_baseline(
        &planar,
        &BaselineOptions {
            time_limit: Duration::from_secs(45),
            node_limit: 500_000,
        },
    )
    .expect("baseline synthesis succeeds");
    let b_inlets = b.control_inlets + b.fluid_inlets;

    println!("{:<24}{:>16}{:>16}", "", "Columba 2.0", "Columba S");
    println!(
        "{:<24}{:>16}{:>16}",
        "run time",
        secs(b.elapsed),
        secs(s.elapsed)
    );
    println!("{:<24}{:>16}{:>16}", "run time (paper)", "56s", "0.9s");
    println!("{:<24}{:>16}{:>16}", "inlets", b_inlets, s_inlets);
    println!("{:<24}{:>16}{:>16}", "inlets (paper)", 22, 18);
    println!(
        "{:<24}{:>16.1}{:>16.1}",
        "L_f (mm)",
        b.flow_channel_length.to_mm(),
        ss.flow_channel_length.to_mm()
    );
    println!("{:<24}{:>16}{:>16}", "L_f (paper, mm)", 58.9, 39.85);

    // write the Columba S design for visual comparison with Fig 1(b)
    let svg_path = std::env::temp_dir().join("fig1_columba_s.svg");
    std::fs::write(&svg_path, s.to_svg().expect("svg renders")).expect("svg written");
    println!("\nColumba S design rendered to {}", svg_path.display());
}
