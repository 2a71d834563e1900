//! Oracle tests for hinted against unhinted solves. A hint adds the hint
//! LP and its incumbent ahead of the root relaxation; the root itself
//! starts from the crash basis, or cold where the crash refuses its shape,
//! either way, so both solves must report the same root bound and prove
//! the same optimum. Driven by the internal PRNG over seeded random
//! mixed-integer models, each built around a feasible integral point that
//! serves as the hint, and over seeded layout-shaped models, whose roots
//! the crash starts.

use columba_milp::{Model, Sense, SolveParams, SolveStatus, VarId};
use columba_obs::{AttrValue, SpanRecorder};
use columba_prng::Rng;

const CASES: usize = 240;

/// A random bounded MILP with binary, general-integer and continuous
/// columns, and the integer part of a point that satisfies every row.
fn random_model(rng: &mut Rng) -> (Model, Vec<(VarId, f64)>) {
    let mut m = Model::new();
    let n_int = rng.gen_range(2usize..7);
    let n_cont = rng.gen_range(1usize..5);
    let mut vars = Vec::new();
    let mut point = Vec::new();
    let mut hint = Vec::new();
    for _ in 0..n_int {
        let (v, value) = if rng.gen_bool(0.6) {
            (m.bin_var(), rng.gen_range(0i64..=1) as f64)
        } else {
            (m.int_var(0.0, 3.0), rng.gen_range(0i64..=3) as f64)
        };
        vars.push(v);
        point.push(value);
        hint.push((v, value));
    }
    for _ in 0..n_cont {
        vars.push(m.num_var(0.0, 10.0));
        point.push(rng.gen_range(0i64..=20) as f64 * 0.5);
    }
    let n_rows = rng.gen_range(2usize..8);
    for _ in 0..n_rows {
        let mut e = Model::expr();
        let mut act = 0.0;
        for (&v, &p) in vars.iter().zip(&point) {
            if rng.gen_bool(0.7) {
                let c = rng.gen_range(-5i64..=5) as f64;
                e = e.term(c, v);
                act += c * p;
            }
        }
        let slack = rng.gen_range(0i64..=4) as f64;
        match rng.gen_range(0usize..10) {
            0 => m.constraint(e, Sense::Eq, act),
            1..=5 => m.constraint(e, Sense::Le, act + slack),
            _ => m.constraint(e, Sense::Ge, act - slack),
        }
    }
    let mut obj = Model::expr();
    for &v in &vars {
        obj = obj.term(rng.gen_range(-5i64..=5) as f64, v);
    }
    m.minimize(obj);
    (m, hint)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0)
}

/// The `milp.root` span attribute `key` of one recorded solve.
fn root_attr(rec: &SpanRecorder, key: &str) -> Option<AttrValue> {
    let root = (rec.finished().into_iter())
        .find(|e| e.name == "milp.root")
        .expect("milp.root span");
    root.attrs
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// At one node the best bound is the root relaxation's, so a hinted solve
/// and an unhinted one must report the same value. Zero gaps keep an
/// incumbent within tolerance of the root from closing the search at a
/// bound that differs from it.
#[test]
fn warm_and_cold_roots_report_the_same_bound() {
    let params = SolveParams {
        node_limit: 1,
        threads: 1,
        rel_gap: 0.0,
        abs_gap: 0.0,
        ..SolveParams::default()
    };
    let mut rng = Rng::seed_from_u64(0x3A17);
    for case in 0..CASES {
        let (m, hint) = random_model(&mut rng);
        let warm = m.solve_with_hint(&params, &hint).expect("hinted solve");
        let cold = m.solve(&params).expect("cold solve");
        assert!(
            warm.status().has_solution(),
            "case {case}: {:?}",
            warm.status()
        );
        assert!(
            close(warm.best_bound(), cold.best_bound()),
            "case {case}: warm root bound {} vs cold {}",
            warm.best_bound(),
            cold.best_bound()
        );
    }
}

/// Run to completion, the warm-started search and the cold one prove the
/// same optimum.
#[test]
fn warm_and_cold_searches_prove_the_same_optimum() {
    let params = SolveParams {
        threads: 1,
        ..SolveParams::default()
    };
    let mut rng = Rng::seed_from_u64(0x3A17);
    for case in 0..CASES {
        let (m, hint) = random_model(&mut rng);
        let warm = m.solve_with_hint(&params, &hint).expect("hinted solve");
        let cold = m.solve(&params).expect("cold solve");
        assert_eq!(warm.status(), SolveStatus::Optimal, "case {case}");
        assert_eq!(cold.status(), SolveStatus::Optimal, "case {case}");
        let (a, b) = (
            warm.solution().unwrap().objective(),
            cold.solution().unwrap().objective(),
        );
        assert!((a - b).abs() < 1e-6, "case {case}: warm {a} vs cold {b}");
    }
}

/// A layout-shaped MILP (paper eqs 3–5): `k` boxes of random size in a
/// chip of extents `X`, `Y`, each pair apart by one of four relations
/// (big-M rows, `q1 + q2 + q3 + q4 = 3`), minimizing `X + Y`; and a hint
/// that puts the boxes side by side, left to right.
fn layout_model(rng: &mut Rng) -> (Model, Vec<(VarId, f64)>) {
    const BOUND: f64 = 40.0;
    let mut m = Model::new();
    let x_max = m.num_var(0.0, BOUND);
    let y_max = m.num_var(0.0, BOUND);
    let boxes: Vec<[VarId; 4]> = (0..rng.gen_range(3usize..5))
        .map(|_| {
            let v: [VarId; 4] = std::array::from_fn(|_| m.num_var(0.0, BOUND));
            let (w, h) = (
                rng.gen_range(1i64..=5) as f64,
                rng.gen_range(1i64..=5) as f64,
            );
            let diff = |a: VarId, b: VarId| Model::expr().term(1.0, a).term(-1.0, b);
            m.constraint(diff(v[1], v[0]), Sense::Eq, w);
            m.constraint(diff(v[3], v[2]), Sense::Eq, h);
            m.constraint(diff(v[1], x_max), Sense::Le, 0.0);
            m.constraint(diff(v[3], y_max), Sense::Le, 0.0);
            v
        })
        .collect();
    let mut hint = Vec::new();
    for (i, a) in boxes.iter().enumerate() {
        for b in &boxes[i + 1..] {
            let q: [VarId; 4] = std::array::from_fn(|_| m.bin_var());
            // a left of b / b left of a / a below b / b below a
            for (k, (hi, lo)) in [(a[1], b[0]), (b[1], a[0]), (a[3], b[2]), (b[3], a[2])]
                .into_iter()
                .enumerate()
            {
                let row = Model::expr()
                    .term(1.0, hi)
                    .term(-1.0, lo)
                    .term(-BOUND, q[k]);
                m.constraint(row, Sense::Le, 0.0);
                hint.push((q[k], if k == 0 { 0.0 } else { 1.0 }));
            }
            let sum = q.iter().fold(Model::expr(), |e, &v| e.term(1.0, v));
            m.constraint(sum, Sense::Eq, 3.0);
        }
    }
    m.minimize(Model::expr().term(1.0, x_max).term(1.0, y_max));
    (m, hint)
}

/// The relaxation of a layout-shaped model is a difference system over
/// switch groups, so its root starts from the crash basis whether or not
/// a hint LP ran first, and both roots report the same bound. Run
/// to completion, the hinted and unhinted searches prove the same optimum.
#[test]
fn layout_shaped_roots_start_from_the_crash() {
    let one_node = SolveParams {
        node_limit: 1,
        threads: 1,
        rel_gap: 0.0,
        abs_gap: 0.0,
        ..SolveParams::default()
    };
    let to_end = SolveParams {
        threads: 1,
        ..SolveParams::default()
    };
    let mut rng = Rng::seed_from_u64(0x1A_7047);
    for case in 0..12 {
        let (m, hint) = layout_model(&mut rng);
        let rec = SpanRecorder::new(256);
        columba_obs::set_enabled(true);
        let guard = rec.install();
        let hinted = m.solve_with_hint(&one_node, &hint).expect("hinted solve");
        drop(guard);
        columba_obs::set_enabled(false);
        assert_eq!(
            root_attr(&rec, "hint_start"),
            Some(AttrValue::from("crash")),
            "case {case}"
        );
        assert_eq!(
            root_attr(&rec, "root_start"),
            Some(AttrValue::from("crash")),
            "case {case}"
        );
        assert_eq!(root_attr(&rec, "fallback"), None, "case {case}");
        let unhinted = m.solve(&one_node).expect("unhinted solve");
        assert!(
            close(hinted.best_bound(), unhinted.best_bound()),
            "case {case}: hinted root bound {} vs unhinted {}",
            hinted.best_bound(),
            unhinted.best_bound()
        );
        let (a, b) = (
            m.solve_with_hint(&to_end, &hint).expect("hinted search"),
            m.solve(&to_end).expect("unhinted search"),
        );
        assert_eq!(a.status(), SolveStatus::Optimal, "case {case}");
        assert_eq!(b.status(), SolveStatus::Optimal, "case {case}");
        let (a, b) = (
            a.solution().unwrap().objective(),
            b.solution().unwrap().objective(),
        );
        assert!(
            (a - b).abs() < 1e-6,
            "case {case}: hinted {a} vs unhinted {b}"
        );
    }
}
