//! Netlist generators for the paper's test cases and for property tests.
//!
//! Table 1 of the paper evaluates six applications. The four literature
//! cases are only described by reference and unit count, so we reconstruct
//! netlists with the published `#u` and plausible chain/shared-reagent
//! connectivity (see `DESIGN.md` for the substitution rationale):
//!
//! | case | paper ref | `#u` | generator |
//! |------|-----------|------|-----------|
//! | 1 | \[8\] nucleic acid processor | 6 | [`nucleic_acid_processor`] |
//! | 2 | \[3\] ChIP 4-IP | 9 | [`chip_ip`]`(4, ..)` |
//! | 3 | \[7\] mRNA isolation | 8 | [`mrna_isolation`] |
//! | 4 | \[12\] Columba 2.0 case | 21 | [`columba2_case`] |
//! | 5 | ChIP64 (synthetic) | 129 | [`chip_ip`]`(64, ..)` |
//! | 6 | ChIP128 (synthetic) | 257 | [`chip_ip`]`(128, ..)` |
//!
//! Plus [`kinase_activity`] for the Fig 1 comparison and
//! [`random_netlist`] for property testing.

use columba_prng::Rng;

use crate::model::{
    ChamberSpec, ComponentId, ControlAccess, Endpoint, MixerSpec, MuxCount, Netlist, UnitSide,
};

fn unit(component: ComponentId, side: UnitSide) -> Endpoint {
    Endpoint::Unit { component, side }
}

/// ChIP-style application scaled from \[3\]: one shared pre-processing mixer
/// feeding `lanes` immunoprecipitation lanes of mixer → chamber, giving
/// `#u = 2·lanes + 1` (9, 129, 257 for 4, 64, 128 lanes).
///
/// Lanes are partitioned into at most eight parallel-execution groups when
/// there are 16 lanes or more, mirroring the paper's Fig 7(d) partition of
/// ChIP64 into 8 groups.
///
/// # Panics
///
/// Panics if `lanes == 0`.
#[must_use]
pub fn chip_ip(lanes: usize, mux_count: MuxCount) -> Netlist {
    assert!(lanes > 0, "a ChIP application needs at least one lane");
    let mut n = Netlist::new(format!("chip{lanes}ip"));
    n.mux_count = mux_count;
    let pre = n
        .add_mixer(
            "pre",
            MixerSpec {
                sieve_valves: true,
                access: ControlAccess::Both,
                ..MixerSpec::default()
            },
        )
        .expect("fresh name");
    let lysate = n.add_port("lysate").expect("fresh name");
    n.connect(Endpoint::Port(lysate), unit(pre, UnitSide::Left))
        .expect("distinct endpoints");

    let mut lane_units = Vec::with_capacity(lanes);
    for i in 0..lanes {
        let m = n
            .add_mixer(
                format!("ip{i}"),
                MixerSpec {
                    access: ControlAccess::Both,
                    ..MixerSpec::default()
                },
            )
            .expect("fresh name");
        let c = n
            .add_chamber(format!("rc{i}"), ChamberSpec::default())
            .expect("fresh name");
        // multi-way net: pre.right fans out to every lane (planarization
        // will funnel this through a switch)
        n.connect(unit(pre, UnitSide::Right), unit(m, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(m, UnitSide::Right), unit(c, UnitSide::Left))
            .expect("distinct");
        let out = n.add_port(format!("out{i}")).expect("fresh name");
        n.connect(unit(c, UnitSide::Right), Endpoint::Port(out))
            .expect("distinct");
        lane_units.push((m, c));
    }

    if lanes >= 16 {
        let groups = 8;
        let per = lanes.div_ceil(groups);
        for chunk in lane_units.chunks(per) {
            if chunk.len() >= 2 {
                let members: Vec<ComponentId> = chunk.iter().flat_map(|&(m, c)| [m, c]).collect();
                n.add_parallel_group(members).expect("valid group");
            }
        }
    }
    debug_assert_eq!(n.functional_unit_count(), 2 * lanes + 1);
    n
}

/// Reconstruction of the nanoliter nucleic acid processor \[8\]: two
/// processing lanes of mixer → chamber → chamber sharing a wash-buffer
/// inlet. `#u = 6`.
#[must_use]
pub fn nucleic_acid_processor(mux_count: MuxCount) -> Netlist {
    let mut n = Netlist::new("nucleic_acid_processor");
    n.mux_count = mux_count;
    let wash = n.add_port("wash").expect("fresh name");
    for lane in 0..2 {
        let m = n
            .add_mixer(format!("mix{lane}"), MixerSpec::default())
            .expect("fresh name");
        let c1 = n
            .add_chamber(format!("lyse{lane}"), ChamberSpec::default())
            .expect("fresh name");
        let c2 = n
            .add_chamber(format!("elute{lane}"), ChamberSpec::default())
            .expect("fresh name");
        let sample = n.add_port(format!("sample{lane}")).expect("fresh name");
        let out = n.add_port(format!("product{lane}")).expect("fresh name");
        n.connect(Endpoint::Port(sample), unit(m, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(m, UnitSide::Right), unit(c1, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(c1, UnitSide::Right), unit(c2, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(c2, UnitSide::Right), Endpoint::Port(out))
            .expect("distinct");
        // shared wash buffer: multi-way net resolved by planarization
        n.connect(Endpoint::Port(wash), unit(m, UnitSide::Left))
            .expect("distinct");
    }
    debug_assert_eq!(n.functional_unit_count(), 6);
    n
}

/// Reconstruction of the single-cell mRNA isolation chip \[7\]: two capture
/// lanes of cell-trap mixer → three processing chambers, sharing a lysis
/// buffer. `#u = 8`.
#[must_use]
pub fn mrna_isolation(mux_count: MuxCount) -> Netlist {
    let mut n = Netlist::new("mrna_isolation");
    n.mux_count = mux_count;
    let lysis = n.add_port("lysis").expect("fresh name");
    for lane in 0..2 {
        let m = n
            .add_mixer(
                format!("capture{lane}"),
                MixerSpec {
                    cell_traps: true,
                    ..MixerSpec::default()
                },
            )
            .expect("fresh name");
        let mut prev = unit(m, UnitSide::Right);
        let cells = n.add_port(format!("cells{lane}")).expect("fresh name");
        n.connect(Endpoint::Port(cells), unit(m, UnitSide::Left))
            .expect("distinct");
        n.connect(Endpoint::Port(lysis), unit(m, UnitSide::Left))
            .expect("distinct");
        for stage in ["bind", "synth", "store"] {
            let c = n
                .add_chamber(format!("{stage}{lane}"), ChamberSpec::default())
                .expect("fresh name");
            n.connect(prev, unit(c, UnitSide::Left)).expect("distinct");
            prev = unit(c, UnitSide::Right);
        }
        let out = n.add_port(format!("cdna{lane}")).expect("fresh name");
        n.connect(prev, Endpoint::Port(out)).expect("distinct");
    }
    debug_assert_eq!(n.functional_unit_count(), 8);
    n
}

/// Reconstruction of the 21-unit Columba 2.0 test case \[12\]: seven assay
/// lanes of mixer → chamber → chamber with a shared substrate inlet, in two
/// parallel groups. `#u = 21`.
#[must_use]
pub fn columba2_case(mux_count: MuxCount) -> Netlist {
    let mut n = Netlist::new("columba2_21u");
    n.mux_count = mux_count;
    let substrate = n.add_port("substrate").expect("fresh name");
    let mut lanes = Vec::new();
    for lane in 0..7 {
        let m = n
            .add_mixer(format!("assay{lane}"), MixerSpec::default())
            .expect("fresh name");
        let c1 = n
            .add_chamber(format!("inc{lane}"), ChamberSpec::default())
            .expect("fresh name");
        let c2 = n
            .add_chamber(format!("read{lane}"), ChamberSpec::default())
            .expect("fresh name");
        n.connect(Endpoint::Port(substrate), unit(m, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(m, UnitSide::Right), unit(c1, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(c1, UnitSide::Right), unit(c2, UnitSide::Left))
            .expect("distinct");
        let out = n.add_port(format!("det{lane}")).expect("fresh name");
        n.connect(unit(c2, UnitSide::Right), Endpoint::Port(out))
            .expect("distinct");
        lanes.push((m, c1, c2));
    }
    // two parallel-execution groups of three lanes (the 7th runs alone)
    for chunk in lanes.chunks(3).take(2) {
        let members: Vec<ComponentId> = chunk.iter().flat_map(|&(m, c1, c2)| [m, c1, c2]).collect();
        n.add_parallel_group(members).expect("valid group");
    }
    debug_assert_eq!(n.functional_unit_count(), 21);
    n
}

/// Reconstruction of the kinase activity radioassay \[17\] used for the Fig 1
/// comparison: four assay lanes of sieve-valve mixer → chamber sharing a
/// kinase solution inlet. `#u = 8`.
#[must_use]
pub fn kinase_activity(mux_count: MuxCount) -> Netlist {
    let mut n = Netlist::new("kinase_activity");
    n.mux_count = mux_count;
    let kinase = n.add_port("kinase").expect("fresh name");
    for lane in 0..4 {
        let m = n
            .add_mixer(
                format!("kin{lane}"),
                MixerSpec {
                    sieve_valves: true,
                    ..MixerSpec::default()
                },
            )
            .expect("fresh name");
        let c = n
            .add_chamber(format!("assay{lane}"), ChamberSpec::default())
            .expect("fresh name");
        n.connect(Endpoint::Port(kinase), unit(m, UnitSide::Left))
            .expect("distinct");
        n.connect(unit(m, UnitSide::Right), unit(c, UnitSide::Left))
            .expect("distinct");
        let out = n.add_port(format!("read{lane}")).expect("fresh name");
        n.connect(unit(c, UnitSide::Right), Endpoint::Port(out))
            .expect("distinct");
    }
    debug_assert_eq!(n.functional_unit_count(), 8);
    n
}

/// All six Table 1 test cases in paper order, with their row labels.
#[must_use]
pub fn table1_cases(mux_count: MuxCount) -> Vec<(&'static str, Netlist)> {
    vec![
        ("[8] 6u", nucleic_acid_processor(mux_count)),
        ("[3] 9u", chip_ip(4, mux_count)),
        ("[7] 8u", mrna_isolation(mux_count)),
        ("[12] 21u", columba2_case(mux_count)),
        ("ChIP64 129u", chip_ip(64, mux_count)),
        ("ChIP128 257u", chip_ip(128, mux_count)),
    ]
}

/// A random raw netlist with `units` functional units for property tests:
/// random-length chains fed from fresh or shared ports.
///
/// # Panics
///
/// Panics if `units == 0`.
#[must_use]
pub fn random_netlist(rng: &mut Rng, units: usize) -> Netlist {
    assert!(units > 0);
    let mut n = Netlist::new("random");
    n.mux_count = if rng.gen_bool(0.5) {
        MuxCount::One
    } else {
        MuxCount::Two
    };
    let shared = n.add_port("shared").expect("fresh name");
    let mut built = 0usize;
    let mut chain = 0usize;
    while built < units {
        let len = rng.gen_range(1usize..=3).min(units - built);
        let mut prev: Endpoint = if rng.gen_bool(0.3) {
            Endpoint::Port(shared)
        } else {
            let p = n.add_port(format!("in{chain}")).expect("fresh name");
            Endpoint::Port(p)
        };
        for j in 0..len {
            let id = if rng.gen_bool(0.5) {
                n.add_mixer(
                    format!("u{chain}_{j}"),
                    MixerSpec {
                        sieve_valves: rng.gen_bool(0.3),
                        cell_traps: rng.gen_bool(0.2),
                        access: match rng.gen_range(0usize..3) {
                            0 => ControlAccess::Top,
                            1 => ControlAccess::Bottom,
                            _ => ControlAccess::Both,
                        },
                        ..MixerSpec::default()
                    },
                )
                .expect("fresh name")
            } else {
                n.add_chamber(format!("u{chain}_{j}"), ChamberSpec::default())
                    .expect("fresh name")
            };
            n.connect(prev, unit(id, UnitSide::Left)).expect("distinct");
            prev = unit(id, UnitSide::Right);
            built += 1;
        }
        if rng.gen_bool(0.8) {
            let out = n.add_port(format!("out{chain}")).expect("fresh name");
            n.connect(prev, Endpoint::Port(out)).expect("distinct");
        }
        chain += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counts_match_table1() {
        let cases = table1_cases(MuxCount::One);
        let counts: Vec<usize> = cases
            .iter()
            .map(|(_, n)| n.functional_unit_count())
            .collect();
        assert_eq!(counts, vec![6, 9, 8, 21, 129, 257]);
        for (_, n) in &cases {
            n.validate().expect("generated netlists are valid");
        }
    }

    #[test]
    fn chip_ip_parallel_partition() {
        assert!(chip_ip(4, MuxCount::One).parallel_groups().is_empty());
        let big = chip_ip(64, MuxCount::Two);
        assert_eq!(
            big.parallel_groups().len(),
            8,
            "ChIP64 partitions into 8 groups"
        );
        assert_eq!(
            big.parallel_groups()[0].len(),
            16,
            "8 lanes x (mixer+chamber)"
        );
        let bigger = chip_ip(128, MuxCount::One);
        assert_eq!(bigger.parallel_groups().len(), 8);
    }

    #[test]
    fn generated_netlists_round_trip() {
        for (_, n) in table1_cases(MuxCount::Two) {
            let again = Netlist::parse(&n.to_text()).expect("serialized netlist parses");
            assert_eq!(n, again);
        }
    }

    #[test]
    fn multiway_nets_present_pre_planarization() {
        // the shared pre.right fan-out means planarized validation must fail
        let n = chip_ip(4, MuxCount::One);
        assert!(n.validate().is_ok());
        assert!(n.validate_planarized().is_err());
    }

    #[test]
    fn kinase_case_shape() {
        let n = kinase_activity(MuxCount::One);
        assert_eq!(n.functional_unit_count(), 8);
        assert_eq!(n.ports().len(), 1 + 4);
    }

    #[test]
    fn random_netlists_are_valid_and_sized() {
        let mut rng = Rng::seed_from_u64(7);
        for units in [1, 2, 5, 17] {
            let n = random_netlist(&mut rng, units);
            assert_eq!(n.functional_unit_count(), units);
            n.validate().expect("random netlist is structurally valid");
        }
    }
}
