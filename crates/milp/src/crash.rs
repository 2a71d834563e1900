//! Crash start for difference systems: the least solution by longest paths.
//!
//! Once every binary of a layout model is fixed, each row the presolve keeps
//! is a *difference row* `a·(x_p − x_q) ⋈ c` or a *single-variable row*
//! `a·x_p ⋈ c`. Every lower-type constraint of such a system reads
//! `x_p ≥ x_q + w` or `x_p ≥ v`, so its componentwise least feasible point
//! is a longest-path computation from the lower bounds, the classic
//! layout-compaction fact. The predecessor tree of those longest paths is a
//! triangular, primal-feasible basis (a *crash basis*, Bixby, "Implementing
//! the simplex method: the initial basis", ORSA J. Computing 4(3), 1992): a
//! variable reached through a row is basic in that row, a root stays
//! nonbasic at its lower bound, and every other row keeps its slack basic.
//! Handed to [`solve_lp`](crate::simplex::solve_lp), it replaces phase 1.
//!
//! The crash refuses, and the LP runs cold, on any other row shape, a
//! positive cycle, a least value above its upper bound, or a label-correcting
//! run that exceeds its cap. The simplex still factors the basis and refuses
//! a singular or infeasible one, so the crash only chooses where phase 2
//! starts, never the answer.

use std::collections::VecDeque;

use crate::model::Sense;
use crate::simplex::{Basis, ColStatus, Lp};

/// Arc scans allowed per arc before the label-correcting run gives up.
const SCANS_PER_ARC: usize = 64;
/// `pred` entry of a variable that rests at its lower bound.
const ROOT: usize = usize::MAX;

/// Whether a row `a·(…) sense c`, divided by `a`, bounds its leading
/// variable from below, from above, or both.
fn directions(sense: Sense, a: f64) -> (bool, bool) {
    match (sense, a > 0.0) {
        (Sense::Eq, _) => (true, true),
        (Sense::Ge, true) | (Sense::Le, false) => (true, false),
        (Sense::Le, true) | (Sense::Ge, false) => (false, true),
    }
}

/// `cand` raises a label at `cur` by more than rounding.
fn improves(cand: f64, cur: f64) -> bool {
    cand > cur + 1e-9 * (1.0 + cur.abs())
}

/// The predecessor tree of `lp`'s least feasible point as a start basis,
/// and the point, when every row is a difference or single-variable row.
/// Refuses with `"shape"`, `"cycle"`, `"upper"` or `"cap"`.
pub(crate) fn least_solution(lp: &Lp) -> Result<(Basis, Vec<f64>), &'static str> {
    let n = lp.lb.len();
    let mut x = lp.lb.clone();
    let mut ub = lp.ub.clone();
    let mut pred = vec![ROOT; n];
    // (from, to, weight, row): x_to ≥ x_from + weight
    let mut arcs: Vec<(usize, usize, f64, usize)> = Vec::new();
    for (i, row) in lp.rows.iter().enumerate() {
        match *row.terms.as_slice() {
            [(p, a)] if a != 0.0 => {
                let v = row.rhs / a;
                let (lower, upper) = directions(row.sense, a);
                if lower && improves(v, x[p]) {
                    x[p] = v;
                    pred[p] = i;
                }
                if upper {
                    ub[p] = ub[p].min(v);
                }
            }
            [(p, a), (q, b)] if p != q && a != 0.0 && b == -a => {
                let w = row.rhs / a;
                let (lower, upper) = directions(row.sense, a);
                if lower {
                    arcs.push((q, p, w, i));
                }
                if upper {
                    arcs.push((p, q, -w, i));
                }
            }
            _ => return Err("shape"),
        }
    }

    // arcs by tail, in CSR form: variable j's arcs are arcs[start[j]..start[j + 1]]
    arcs.sort_by_key(|&(from, ..)| from);
    let mut start = vec![0usize; n + 1];
    for &(from, ..) in &arcs {
        start[from + 1] += 1;
    }
    for j in 0..n {
        start[j + 1] += start[j];
    }

    // FIFO label correcting; a label set through a path of n arcs repeats
    // a variable, so the path holds a positive cycle
    let cap = SCANS_PER_ARC * arcs.len();
    let mut scans = 0usize;
    let mut arcs_to = vec![0usize; n];
    let mut queued = vec![true; n];
    let mut queue: VecDeque<usize> = (0..n).collect();
    while let Some(u) = queue.pop_front() {
        queued[u] = false;
        for &(_, v, w, i) in &arcs[start[u]..start[u + 1]] {
            scans += 1;
            if scans > cap {
                return Err("cap");
            }
            let cand = x[u] + w;
            if !improves(cand, x[v]) {
                continue;
            }
            x[v] = cand;
            pred[v] = i;
            arcs_to[v] = arcs_to[u] + 1;
            if arcs_to[v] >= n {
                return Err("cycle");
            }
            if !queued[v] {
                queued[v] = true;
                queue.push_back(v);
            }
        }
    }
    if (0..n).any(|j| x[j] > ub[j] + 1e-9 * (1.0 + ub[j].abs())) {
        return Err("upper");
    }

    let mut cols = vec![ColStatus::AtLower; n];
    let mut slack_basic = vec![true; lp.rows.len()];
    for (j, &i) in pred.iter().enumerate() {
        if i != ROOT {
            cols[j] = ColStatus::Basic;
            // two variables basic in one row close a cycle of the tree
            if !std::mem::replace(&mut slack_basic[i], false) {
                return Err("cycle");
            }
        }
    }
    Ok((Basis { cols, slack_basic }, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve_lp, LpOutcome, Row, Start};
    use columba_prng::Rng;

    fn row(terms: &[(usize, f64)], sense: Sense, rhs: f64) -> Row {
        Row {
            terms: terms.to_vec(),
            sense,
            rhs,
        }
    }

    /// A random difference system held by an integral point: scaled
    /// difference rows and single-variable rows of every sense, columns with
    /// finite and infinite upper bounds, and a cost that keeps the LP
    /// bounded (negative only on columns with a finite upper bound).
    fn random_system(rng: &mut Rng) -> Lp {
        let n = rng.gen_range(2usize..12);
        let point: Vec<f64> = (0..n).map(|_| rng.gen_range(-3i64..=6) as f64).collect();
        let lb: Vec<f64> = (point.iter())
            .map(|&p| p - rng.gen_range(0i64..=3) as f64)
            .collect();
        let ub: Vec<f64> = (point.iter())
            .map(|&p| match rng.gen_bool(0.5) {
                true => f64::INFINITY,
                false => p + rng.gen_range(0i64..=3) as f64,
            })
            .collect();
        let cost = (0..n)
            .map(|j| match ub[j].is_finite() {
                true => rng.gen_range(-3i64..=3) as f64,
                false => rng.gen_range(0i64..=3) as f64,
            })
            .collect();
        let rows = (0..rng.gen_range(1usize..3 * n))
            .map(|_| {
                let a = rng.gen_range(1i64..=3) as f64 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let p = rng.gen_range(0..n);
                let (terms, act) = match rng.gen_range(0usize..4) {
                    0 => (vec![(p, a)], a * point[p]),
                    _ => {
                        let q = (p + rng.gen_range(1..n)) % n;
                        (vec![(p, a), (q, -a)], a * (point[p] - point[q]))
                    }
                };
                let slack = rng.gen_range(0i64..=2) as f64 * a.abs();
                let (sense, rhs) = match rng.gen_range(0usize..5) {
                    0 => (Sense::Eq, act),
                    1 | 2 => (Sense::Le, act + slack),
                    _ => (Sense::Ge, act - slack),
                };
                Row { terms, sense, rhs }
            })
            .collect();
        Lp { lb, ub, cost, rows }
    }

    fn optimal(outcome: &LpOutcome) -> (&[f64], f64) {
        match outcome {
            LpOutcome::Optimal { x, obj } => (x, *obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn random_difference_systems_crash_start_warm_at_their_least_point() {
        let mut rng = Rng::seed_from_u64(0x00C4_A511);
        let mut scaled = 0;
        for case in 0..400 {
            let lp = random_system(&mut rng);
            scaled += lp.rows.iter().filter(|r| r.terms[0].1.abs() > 1.0).count();
            let (basis, least) = least_solution(&lp).unwrap_or_else(|e| panic!("case {case}: {e}"));
            let cold = solve_lp(&lp, None, None);
            let warm = solve_lp(&lp, None, Some(&basis));
            assert!(
                matches!(warm.start, Start::Warm { .. }),
                "case {case}: {:?}",
                warm.start
            );
            let ((xc, oc), (_, ow)) = (optimal(&cold.outcome), optimal(&warm.outcome));
            assert!(
                (oc - ow).abs() <= 1e-9 * oc.abs().max(1.0),
                "case {case}: cold {oc}, crash {ow}"
            );
            for (j, (&least, &opt)) in least.iter().zip(xc).enumerate() {
                assert!(
                    least <= opt + 1e-9 * (1.0 + opt.abs()),
                    "case {case}: x{j} least {least} above the cold optimum {opt}"
                );
            }
        }
        assert!(scaled > 400, "only {scaled} scaled rows");
    }

    #[test]
    fn crash_basis_is_the_longest_path_tree() {
        // x1 ≥ x0 + 2 (scaled by 2), x2 = x1 + 1, x3 ≥ 5, x0 ≤ 4
        let lp = Lp {
            lb: vec![0.0, 0.0, 0.0, 1.0],
            ub: vec![f64::INFINITY, 10.0, f64::INFINITY, 8.0],
            cost: vec![1.0, 1.0, 1.0, 1.0],
            rows: vec![
                row(&[(1, 2.0), (0, -2.0)], Sense::Ge, 4.0),
                row(&[(2, -1.0), (1, 1.0)], Sense::Eq, -1.0),
                row(&[(3, -3.0)], Sense::Le, -15.0),
                row(&[(0, 1.0)], Sense::Le, 4.0),
            ],
        };
        let (basis, least) = least_solution(&lp).expect("difference system");
        assert_eq!(least, vec![0.0, 2.0, 3.0, 5.0]);
        use ColStatus::{AtLower, Basic};
        assert_eq!(basis.cols, vec![AtLower, Basic, Basic, Basic]);
        assert_eq!(basis.slack_basic, vec![false, false, false, true]);
        let run = solve_lp(&lp, None, Some(&basis));
        assert_eq!(run.start, Start::Warm { factored: 3 });
        assert_eq!(run.iterations, 0, "the least point is optimal");
    }
}
