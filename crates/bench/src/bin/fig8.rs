//! Regenerates the paper's Fig 8: the multiplexing function on the
//! mRNA-isolation design \[7\]. The paper photographs the fabricated chip
//! with one bit configuration selecting a control channel whose valve then
//! blocks the fluid flow; here the same walk runs on the simulator.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin fig8
//! ```

use std::time::Duration;

use columba_bench::{harness_flow, secs};
use columba_s::design::InletId;
use columba_s::netlist::{generators, MuxCount};
use columba_s::sim::Simulator;

fn main() {
    let netlist = generators::mrna_isolation(MuxCount::One);
    let flow = harness_flow(Duration::from_secs(5));
    let out = flow.synthesize(&netlist).expect("mRNA design synthesizes");
    println!(
        "Fig 8(a) — overview: {} ({} synthesis)",
        out.stats(),
        secs(out.elapsed)
    );
    assert!(out.drc.is_clean(), "{}", out.drc);

    let design = &out.design;
    let mut sim = Simulator::new(design).expect("design simulates");

    // the fluid path we watch: cells0 inlet -> cdna0 outlet on lane 0
    let inlet = |name: &str| {
        InletId(
            design
                .inlets
                .iter()
                .position(|i| i.name == name)
                .expect("inlet exists"),
        )
    };
    let (from, to) = (inlet("cells0"), inlet("cdna0"));

    // Fig 8(b): walk the MUX over every line of the capture mixer and show
    // the bit configuration that selects each
    println!("\nFig 8(b) — bit configurations selecting the capture0 lines:");
    let mux = &design.muxes[0];
    for li in 0..sim.line_count() {
        let name = sim.line_name(li).to_string();
        if !name.starts_with("capture0.") {
            continue;
        }
        let ev = sim.actuate(li, true).expect("line actuates");
        println!(
            "  {:<22} address {:0width$b}",
            name,
            ev.address,
            width = mux.bits()
        );
        sim.actuate(li, false).expect("line vents");
    }

    // Fig 8(c)/(d): pressurising the selected valve blocks the fluid flow
    let line = sim.line_by_name("capture0.iso_in").expect("line exists");
    println!(
        "\nFig 8(c) — valve open:   cells0 -> cdna0 fluid path: {}",
        sim.fluid_path_exists(from, to)
            .expect("reachability computes")
    );
    let ev = sim.actuate(line, true).expect("actuates");
    println!(
        "Fig 8(d) — valve closed (address {:#b}): cells0 -> cdna0 fluid path: {}",
        ev.address,
        sim.fluid_path_exists(from, to)
            .expect("reachability computes")
    );
    assert!(
        !sim.fluid_path_exists(from, to).unwrap(),
        "closed valve blocks the flow"
    );
    println!("\ntotal simulated actuation time: {} ms", sim.elapsed_ms());
}
