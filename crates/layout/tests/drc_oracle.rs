//! The sweep-line DRC against a brute-force reference.
//!
//! `drc::check` finds overlapping pairs (module/module, same-layer
//! channel/channel, flow channel/module) with a sweep line. The reference
//! below compares every pair, as the checker did before, and the two must
//! produce equal reports — same violations, same order, same messages — on
//! synthesized designs and on designs with injected faults.

use columba_design::drc::{self, DrcReport, Rule, Violation};
use columba_design::{Channel, Design, PlacedModule};
use columba_geom::{Orientation, Point, Rect, Segment, Um, MIN_CHANNEL_SPACING};
use columba_layout::{synthesize, LayoutOptions};
use columba_netlist::{generators, MuxCount, Netlist};
use columba_planar::planarize;
use columba_prng::Rng;

fn synth(netlist: &Netlist) -> Design {
    let (n, _) = planarize(netlist);
    synthesize(&n, &LayoutOptions::heuristic_only())
        .expect("synthesis succeeds")
        .design
}

/// `drc::check` with the three pair rules recomputed over all pairs.
fn brute_force(d: &Design) -> DrcReport {
    let fast = drc::check(d);
    let of = |rule: Rule| {
        fast.violations
            .iter()
            .filter(move |v| v.rule == rule)
            .cloned()
    };
    let mut violations: Vec<Violation> = of(Rule::ChipContainment).collect();
    for (i, a) in d.modules.iter().enumerate() {
        for b in &d.modules[i + 1..] {
            if a.rect.overlaps(&b.rect) {
                violations.push(Violation {
                    rule: Rule::ModuleOverlap,
                    message: format!(
                        "modules `{}` {} and `{}` {} overlap",
                        a.name, a.rect, b.name, b.rect
                    ),
                });
            }
        }
    }
    for (i, a) in d.channels.iter().enumerate() {
        for (jo, b) in d.channels[i + 1..].iter().enumerate() {
            let j = i + 1 + jo;
            if a.layer() != b.layer() || (a.owner.is_some() && a.owner == b.owner) {
                continue;
            }
            for (si, sa) in a.path.iter().enumerate() {
                for (sj, sb) in b.path.iter().enumerate() {
                    if sa.to_rect().overlaps(&sb.to_rect()) && !junction(sa, sb) {
                        violations.push(Violation {
                            rule: Rule::SameLayerClearance,
                            message: format!(
                                "{} channels #{i}.{si} and #{j}.{sj} overlap: {sa} vs {sb}",
                                a.layer()
                            ),
                        });
                    }
                }
            }
        }
    }
    for (i, c) in d.channels.iter().enumerate() {
        if c.layer() != columba_geom::Layer::Flow || c.owner.is_some() {
            continue;
        }
        for (mi, m) in d.modules.iter().enumerate() {
            for s in &c.path {
                if s.to_rect().overlaps(&m.rect) {
                    violations.push(Violation {
                        rule: Rule::ModuleChannelConflict,
                        message: format!(
                            "flow channel #{i} {s} runs through module `{}` (#{mi})",
                            m.name
                        ),
                    });
                }
            }
        }
    }
    for rule in [
        Rule::StraightDiscipline,
        Rule::InletPitch,
        Rule::ValvePlacement,
    ] {
        violations.extend(of(rule));
    }
    DrcReport { violations }
}

/// The checker's junction exemption, restated: collinear runs, or an
/// overlap within `d` of a segment end.
fn junction(sa: &Segment, sb: &Segment) -> bool {
    if sa.orientation() == sb.orientation() {
        return match sa.orientation() {
            Orientation::Vertical => sa.start().x == sb.start().x,
            Orientation::Horizontal => sa.start().y == sb.start().y,
        };
    }
    let Some(o) = sa.to_rect().intersection(&sb.to_rect()) else {
        return false;
    };
    let d = MIN_CHANNEL_SPACING;
    let grown = Rect::new(o.x_l() - d, o.x_r() + d, o.y_b() - d, o.y_t() + d);
    [sa.start(), sa.end(), sb.start(), sb.end()]
        .into_iter()
        .any(|p| grown.contains_point(p))
}

fn assert_matches_oracle(d: &Design, what: &str) -> DrcReport {
    let fast = drc::check(d);
    let slow = brute_force(d);
    assert_eq!(fast, slow, "{what}: sweep and all-pairs reports differ");
    fast
}

fn shifted(s: &Segment, dx: i64, dy: i64) -> Segment {
    let (a, b) = (s.start(), s.end());
    Segment::new(
        Point::new(a.x + Um(dx), a.y + Um(dy)),
        Point::new(b.x + Um(dx), b.y + Um(dy)),
        s.width(),
    )
    .expect("a translated segment stays axis-parallel")
}

fn middle(s: &Segment) -> Point {
    let (a, b) = (s.start(), s.end());
    Point::new(
        Um((a.x.raw() + b.x.raw()) / 2),
        Um((a.y.raw() + b.y.raw()) / 2),
    )
}

/// Adds every fault class the pair rules distinguish to a copy of `d`:
/// shifted copies (real shorts), same-owner duplicates (exempt), collinear
/// continuations (exempt), perpendicular stubs ending on a run (junction)
/// or crossing it (short), zero-length segments, flush neighbours that
/// touch without overlapping, bent multi-segment channels, and shifted
/// module copies.
fn with_faults(d: &Design, rng: &mut Rng) -> Design {
    let mut f = d.clone();
    let n = d.channels.len();
    let w = MIN_CHANNEL_SPACING.raw();
    for _ in 0..(n / 8).max(4) {
        let c = &d.channels[rng.gen_range(0..n)];
        let s = c.path[rng.gen_range(0..c.path.len())];
        let (across_x, across_y) = match s.orientation() {
            Orientation::Horizontal => (0, 1),
            Orientation::Vertical => (1, 0),
        };
        let m = middle(&s);
        let stub = |from: Point, len: i64| match s.orientation() {
            Orientation::Horizontal => {
                Segment::vertical(from.x, from.y, from.y + Um(len), s.width())
            }
            Orientation::Vertical => {
                Segment::horizontal(from.y, from.x, from.x + Um(len), s.width())
            }
        };
        let half = w / 2;
        let candidates = [
            // partly overlapping parallel copy: a short
            Channel {
                role: c.role,
                path: vec![shifted(&s, across_x * half, across_y * half)],
                owner: None,
            },
            // exact duplicate under the same owner
            Channel {
                role: c.role,
                path: vec![s],
                owner: c.owner,
            },
            // collinear continuation overlapping the run's far end
            Channel {
                role: c.role,
                path: vec![shifted(
                    &s,
                    across_y * s.length().raw() / 2,
                    across_x * s.length().raw() / 2,
                )],
                owner: None,
            },
            // perpendicular stub ending on the run's centreline
            Channel {
                role: c.role,
                path: vec![stub(m, 5 * w)],
                owner: None,
            },
            // perpendicular stub crossing the run mid-way
            Channel {
                role: c.role,
                path: vec![stub(
                    Point::new(m.x - Um(across_x * 5 * w), m.y - Um(across_y * 5 * w)),
                    10 * w,
                )],
                owner: None,
            },
            // zero-length segment on the run
            Channel {
                role: c.role,
                path: vec![Segment::horizontal(m.y, m.x, m.x, s.width())],
                owner: None,
            },
            // flush neighbour: shares an edge, no overlap
            Channel {
                role: c.role,
                path: vec![shifted(
                    &s,
                    across_x * s.width().raw(),
                    across_y * s.width().raw(),
                )],
                owner: None,
            },
            // bent channel: a shifted copy joined to a crossing stub
            Channel {
                role: c.role,
                path: vec![
                    shifted(&s, across_x * 3 * w, across_y * 3 * w),
                    stub(m, -4 * w),
                ],
                owner: None,
            },
        ];
        let pick = rng.gen_range(0..candidates.len());
        f.channels.push(candidates[pick].clone());
    }
    let modules = d.modules.len();
    for k in 0..(modules / 10).max(1).min(modules) {
        let m = &d.modules[rng.gen_range(0..modules)];
        let (dx, dy) = if k % 2 == 0 {
            (m.rect.width().raw() / 2, 0)
        } else {
            // flush above: touches, does not overlap
            (0, m.rect.height().raw())
        };
        f.modules.push(PlacedModule {
            component: m.component,
            name: format!("{}_copy{k}", m.name),
            rect: m.rect.translated(Um(dx), Um(dy)),
        });
    }
    f
}

#[test]
fn sweep_matches_all_pairs_on_synthesized_and_faulted_designs() {
    let mut rng = Rng::seed_from_u64(0xd2c);
    let mut designs = Vec::new();
    for lanes in [4, 16, 24, 64, 128] {
        for mux in [MuxCount::One, MuxCount::Two] {
            designs.push(synth(&generators::chip_ip(lanes, mux)));
        }
    }
    let cases = concat!(env!("CARGO_MANIFEST_DIR"), "/../../cases");
    let mut paths: Vec<_> = std::fs::read_dir(cases)
        .expect("cases/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "netlist"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "bundled netlists: {paths:?}");
    for p in &paths {
        let text = std::fs::read_to_string(p).expect("netlist is readable");
        designs.push(synth(
            &Netlist::parse(&text).expect("bundled netlist parses"),
        ));
    }
    let mut faulted_violations = 0;
    for d in &designs {
        let clean = assert_matches_oracle(d, &d.name);
        assert!(clean.is_clean(), "{}: {clean}", d.name);
        for round in 0..3 {
            let f = with_faults(d, &mut rng);
            let r = assert_matches_oracle(&f, &format!("{} faults #{round}", d.name));
            faulted_violations += r.violations.len();
        }
    }
    assert!(
        faulted_violations > 0,
        "the faults must trip the pair rules"
    );
}

#[test]
fn injected_faults_trip_every_pair_rule() {
    let mut rng = Rng::seed_from_u64(7);
    let d = synth(&generators::chip_ip(16, MuxCount::One));
    let mut seen = [false; 3];
    for _ in 0..5 {
        let r = assert_matches_oracle(&with_faults(&d, &mut rng), "chip16 faults");
        for (k, rule) in [
            Rule::ModuleOverlap,
            Rule::SameLayerClearance,
            Rule::ModuleChannelConflict,
        ]
        .into_iter()
        .enumerate()
        {
            seen[k] |= !r.of_rule(rule).is_empty();
        }
    }
    assert_eq!(seen, [true; 3]);
}

#[test]
fn sweep_work_stays_linear_on_chip128() {
    let d = synth(&generators::chip_ip(128, MuxCount::One));
    let segments: usize = d.channels.iter().map(|c| c.path.len()).sum();
    let pairs = drc::candidate_pairs(&d);
    // the all-pairs checker compared ~segments^2 / 2 pairs
    assert!(
        pairs <= 8 * segments,
        "{pairs} candidate pairs for {segments} segments"
    );
}
