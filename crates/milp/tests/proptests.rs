//! Randomized tests: the solver agrees with brute force on random small
//! models. Driven by the internal PRNG (reproducible seeds, no registry
//! dependencies).

use columba_milp::{MipResult, Model, Sense, SolveParams, SolveStatus};
use columba_prng::Rng;

/// Brute-force optimum of a pure-binary minimisation model by enumerating all
/// 2^n assignments.
fn brute_force_binary(n: usize, rows: &[(Vec<f64>, Sense, f64)], cost: &[f64]) -> Option<f64> {
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
        let feasible = rows.iter().all(|(coefs, sense, rhs)| {
            let act: f64 = coefs.iter().zip(&x).map(|(c, v)| c * v).sum();
            match sense {
                Sense::Le => act <= rhs + 1e-9,
                Sense::Ge => act >= rhs - 1e-9,
                Sense::Eq => (act - rhs).abs() <= 1e-9,
            }
        });
        if feasible {
            let obj: f64 = cost.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    best
}

fn solve_binary(
    n: usize,
    rows: &[(Vec<f64>, Sense, f64)],
    cost: &[f64],
    threads: usize,
) -> MipResult {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.bin_var()).collect();
    for (coefs, sense, rhs) in rows {
        let mut e = Model::expr();
        for (c, &v) in coefs.iter().zip(&vars) {
            e = e.term(*c, v);
        }
        m.constraint(e, *sense, *rhs);
    }
    let mut obj = Model::expr();
    for (c, &v) in cost.iter().zip(&vars) {
        obj = obj.term(*c, v);
    }
    m.minimize(obj);
    let params = SolveParams {
        threads,
        ..SolveParams::default()
    };
    m.solve(&params).expect("solver must not fail numerically")
}

/// Small integer coefficient in `[-5, 5]` (keeps the brute force exact).
fn coef(rng: &mut Rng) -> f64 {
    rng.gen_range(-5i64..=5) as f64
}

fn random_rows(rng: &mut Rng, n: usize) -> Vec<(Vec<f64>, Sense, f64)> {
    let n_rows = rng.gen_range(1usize..5);
    (0..n_rows)
        .map(|_| {
            let coefs: Vec<f64> = (0..n).map(|_| coef(rng)).collect();
            let sense = if rng.gen_bool(0.5) {
                Sense::Le
            } else {
                Sense::Ge
            };
            let rhs = rng.gen_range(-10i64..=15) as f64;
            (coefs, sense, rhs)
        })
        .collect()
}

/// Branch & bound matches exhaustive enumeration on random binary MILPs,
/// with one worker and with four.
#[test]
fn binary_milp_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0xB1B0);
    for case in 0..64 {
        let n = rng.gen_range(2usize..7);
        let rows = random_rows(&mut rng, n);
        let cost: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();
        let expected = brute_force_binary(n, &rows, &cost);
        for threads in [1, 4] {
            let result = solve_binary(n, &rows, &cost, threads);
            match expected {
                None => assert_eq!(
                    result.status(),
                    SolveStatus::Infeasible,
                    "case {case} threads {threads}"
                ),
                Some(opt) => {
                    assert_eq!(result.status(), SolveStatus::Optimal, "case {case}");
                    let got = result.solution().unwrap().objective();
                    assert!(
                        (got - opt).abs() < 1e-6,
                        "case {case} threads {threads}: solver {got} vs brute force {opt}"
                    );
                }
            }
        }
    }
}

/// On LPs with a bounded box, the simplex never reports worse than any
/// feasible corner we can sample, and its solution satisfies every row.
#[test]
fn lp_solution_is_feasible_and_not_dominated_by_corners() {
    let mut rng = Rng::seed_from_u64(0x1B);
    for case in 0..64 {
        let n = rng.gen_range(2usize..5);
        let rows: Vec<(Vec<f64>, f64)> = (0..rng.gen_range(1usize..5))
            .map(|_| {
                let coefs: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();
                let rhs = rng.gen_range(0i64..=20) as f64;
                (coefs, rhs)
            })
            .collect();
        let cost: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();

        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.num_var(0.0, 3.0)).collect();
        for (coefs, rhs) in &rows {
            let mut e = Model::expr();
            for (c, &v) in coefs.iter().zip(&vars) {
                e = e.term(*c, v);
            }
            m.constraint(e, Sense::Le, *rhs);
        }
        let mut obj = Model::expr();
        for (c, &v) in cost.iter().zip(&vars) {
            obj = obj.term(*c, v);
        }
        m.minimize(obj);
        let r = m
            .solve(&SolveParams::default())
            .expect("no numerical failure");
        // The box corner at the origin is feasible iff all rhs >= 0, which
        // holds by construction, so the LP must be feasible.
        assert_eq!(r.status(), SolveStatus::Optimal, "case {case}");
        let sol = r.solution().unwrap();
        // feasibility of the returned point
        for (coefs, rhs) in &rows {
            let act: f64 = coefs
                .iter()
                .zip(&vars)
                .map(|(c, &v)| c * sol.value(v))
                .sum();
            assert!(
                act <= rhs + 1e-6,
                "case {case}: row violated: {act} > {rhs}"
            );
        }
        for &v in &vars {
            assert!(sol.value(v) >= -1e-9 && sol.value(v) <= 3.0 + 1e-9);
        }
        // not dominated by any feasible {0,3}^n corner
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n)
                .map(|i| if (mask >> i) & 1 == 1 { 3.0 } else { 0.0 })
                .collect();
            let corner_feasible = rows.iter().all(|(coefs, rhs)| {
                coefs.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>() <= rhs + 1e-9
            });
            if corner_feasible {
                let corner_obj: f64 = cost.iter().zip(&x).map(|(c, v)| c * v).sum();
                assert!(
                    sol.objective() <= corner_obj + 1e-6,
                    "case {case}: corner {x:?} beats reported optimum: {corner_obj} < {}",
                    sol.objective()
                );
            }
        }
    }
}

/// Mixed models: integers restricted to a small range match brute force.
#[test]
fn small_integer_milp_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for case in 0..128 {
        let coefs = [coef(&mut rng), coef(&mut rng)];
        // min c1 x + c2 y s.t. a1 x + a2 y >= rhs - 6 (can be negative =>
        // feasible), 0 <= x,y <= 4 integer
        let shifted = rng.gen_range(0i64..=12) as f64 - 6.0;
        let cost = [
            rng.gen_range(-4i64..=4) as f64,
            rng.gen_range(-4i64..=4) as f64,
        ];
        let mut m = Model::new();
        let x = m.int_var(0.0, 4.0);
        let y = m.int_var(0.0, 4.0);
        m.constraint(
            Model::expr().term(coefs[0], x).term(coefs[1], y),
            Sense::Ge,
            shifted,
        );
        m.minimize(Model::expr().term(cost[0], x).term(cost[1], y));
        let r = m
            .solve(&SolveParams::default())
            .expect("no numerical failure");

        let mut best: Option<f64> = None;
        for xi in 0..=4 {
            for yi in 0..=4 {
                let act = coefs[0] * f64::from(xi) + coefs[1] * f64::from(yi);
                if act >= shifted - 1e-9 {
                    let o = cost[0] * f64::from(xi) + cost[1] * f64::from(yi);
                    best = Some(best.map_or(o, |b: f64| b.min(o)));
                }
            }
        }
        match best {
            None => assert_eq!(r.status(), SolveStatus::Infeasible, "case {case}"),
            Some(opt) => {
                assert_eq!(r.status(), SolveStatus::Optimal, "case {case}");
                assert!(
                    (r.solution().unwrap().objective() - opt).abs() < 1e-6,
                    "case {case}"
                );
            }
        }
    }
}
