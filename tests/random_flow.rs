//! Randomized test across the whole pipeline: random netlists synthesize to
//! DRC-clean designs whose simulator agrees with the multiplexer logic.
//! Seeded with the internal PRNG so every run covers the same cases.

use columba_prng::Rng;
use columba_s::netlist::generators::random_netlist;
use columba_s::sim::Simulator;
use columba_s::{Columba, LayoutOptions, SynthesisOptions};

/// Branch & bound nodes per solve. The search is bounded by work, with
/// no effective clock, so the outcome does not depend on machine load.
const NODE_LIMIT: usize = 4;

#[test]
fn random_netlists_full_flow() {
    let mut seed_rng = Rng::seed_from_u64(0xF10);
    for case in 0..12 {
        let seed = seed_rng.next_u64();
        let units = 1 + (case % 13);
        let mut rng = Rng::seed_from_u64(seed);
        let netlist = random_netlist(&mut rng, units);
        let flow = Columba::with_options(SynthesisOptions {
            layout: LayoutOptions {
                time_limit: std::time::Duration::from_secs(3600),
                node_limit: NODE_LIMIT,
                ..LayoutOptions::default()
            },
            ..SynthesisOptions::default()
        });
        let out = flow
            .synthesize(&netlist)
            .expect("random netlist synthesizes");
        assert!(out.drc.is_clean(), "seed {seed} units {units}: {}", out.drc);
        assert_eq!(
            out.design.modules.len(),
            netlist.functional_unit_count() + out.planarize.switches_added
        );
        // when any control lines exist, the simulator must accept the design
        if !out.design.control_lines.is_empty() {
            let mut sim = Simulator::new(&out.design).expect("lines muxed");
            // spot-check the first and last line
            sim.actuate(0, true).expect("first line actuates");
            let last = sim.line_count() - 1;
            sim.actuate(last, true).expect("last line actuates");
        }
    }
}
