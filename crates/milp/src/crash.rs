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
//! The relaxation with free binaries extends the same point over *switch
//! groups*, the shape of the eqs 3–5 disjunctions. A *switch* is a `[0, 1]`
//! column of zero cost that sits in a row of no other shape. A *group row*
//! `Σq = s` has unit coefficients over switches only, and a *big-M row*
//! holds one switch whose sign bounds it from below
//! (`x_r^a − x_l^b − M·q ≤ 0`). The rows without a switch give the least
//! point; each switch then needs `r_q = max(0, (activity − rhs)/M)` to keep
//! its big-M row, and a group hands its deficit `|group| − s` down from 1
//! to its members in ascending `(r_q, column)` order, each taking at most
//! `1 − r_q`. A member lowered to `r_q > 0` is basic in its big-M row, the
//! one that takes the last of the deficit is basic in the group row, and
//! the others rest at a bound. A group with `s = 0` (a node fixed its other
//! members at 1) holds its members at 0, so their big-M rows join the
//! difference rows instead. Every switch must sit in exactly one group row
//! and at most one big-M row.
//!
//! The crash refuses, and the LP starts another way, on any other row shape
//! (`shape`), a positive cycle (`cycle`), a least value above its upper
//! bound or a deficit the group cannot place (`upper`), or a
//! label-correcting run that exceeds its cap (`cap`). The simplex still
//! factors the basis and refuses a singular or infeasible one, so the crash
//! only chooses where phase 2 starts, never the answer.

use std::collections::VecDeque;

use crate::model::Sense;
use crate::rows::Row;
use crate::simplex::{Basis, ColStatus, Lp};

/// Arc scans allowed per arc before the label-correcting run gives up.
const SCANS_PER_ARC: usize = 64;
/// `pred` entry of a variable that rests at its lower bound, and the
/// group / big-M row entry of a switch not (yet) in one.
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

/// A single-variable or difference row.
fn is_difference(row: &Row<'_>) -> bool {
    match (row.cols, row.coefs) {
        (&[_], &[a]) => a != 0.0,
        (&[p, q], &[a, b]) => p != q && a != 0.0 && b == -a,
        _ => false,
    }
}

/// The least value of switch `q` that keeps its big-M row `row` at the
/// point `x`: `max(0, (activity − rhs)/M)` over the row's other terms.
fn requirement(row: &Row<'_>, q: usize, x: &[f64]) -> f64 {
    let (mut act, mut m) = (0.0, 0.0);
    for (j, c) in row.terms() {
        if j == q {
            m = c.abs();
        } else {
            act += c * x[j];
        }
    }
    // a Ge row is the Le row of its negation
    let excess = match row.sense {
        Sense::Ge => row.rhs - act,
        _ => act - row.rhs,
    };
    (excess / m).max(0.0)
}

/// The predecessor tree of `lp`'s least feasible point, extended over its
/// switch groups, as a start basis, and the point. Refuses with `"shape"`,
/// `"cycle"`, `"upper"` or `"cap"`.
pub(crate) fn least_solution(lp: &Lp) -> Result<(Basis, Vec<f64>), &'static str> {
    let n = lp.lb.len();
    // switches: zero-cost [0, 1] columns of rows of no difference shape;
    // with no such row (every binary fixed) nothing is allocated for them
    let mut switch: Vec<bool> = Vec::new();
    for row in lp.rows.iter().filter(|r| !is_difference(r)) {
        switch.resize(n, false);
        for &j in row.cols {
            switch[j] |= lp.lb[j] == 0.0 && lp.ub[j] == 1.0 && lp.cost[j] == 0.0;
        }
    }
    let is_switch = |j: usize| switch.get(j) == Some(&true);
    let mut group_of = vec![ROOT; switch.len()];
    let mut big_m_of = vec![ROOT; switch.len()];

    let mut x = lp.lb.clone();
    let mut ub = lp.ub.clone();
    let mut pred = vec![ROOT; n];
    // (from, to, weight, row): x_to ≥ x_from + weight
    let mut arcs: Vec<(usize, usize, f64, usize)> = Vec::new();
    // row i's terms `cols`·`coefs` ⋈ rhs as a lower bound, an upper bound
    // or arcs, when they form a single-variable or difference row
    let mut difference = |i: usize, cols: &[usize], coefs: &[f64], sense: Sense, rhs: f64| {
        match (cols, coefs) {
            (&[p], &[a]) if a != 0.0 => {
                let v = rhs / a;
                let (lower, upper) = directions(sense, a);
                if lower && improves(v, x[p]) {
                    x[p] = v;
                    pred[p] = i;
                }
                if upper {
                    ub[p] = ub[p].min(v);
                }
            }
            (&[p, q], &[a, b]) if p != q && a != 0.0 && b == -a => {
                let w = rhs / a;
                let (lower, upper) = directions(sense, a);
                if lower {
                    arcs.push((q, p, w, i));
                }
                if upper {
                    arcs.push((p, q, -w, i));
                }
            }
            _ => return Err("shape"),
        }
        Ok(())
    };
    for (i, row) in lp.rows.iter().enumerate() {
        let mut switches = row.terms().filter(|&(j, _)| is_switch(j));
        let first = switches.next();
        let count = first.map_or(0, |_| 1 + switches.count());
        if count > 0
            && count == row.cols.len()
            && row.sense == Sense::Eq
            && row.coefs.iter().all(|&c| c == 1.0)
        {
            for &q in row.cols {
                if std::mem::replace(&mut group_of[q], i) != ROOT {
                    return Err("shape");
                }
            }
            continue;
        }
        if let Some((q, c)) = first {
            let lower = match row.sense {
                Sense::Le => c < 0.0,
                Sense::Ge => c > 0.0,
                Sense::Eq => false,
            };
            if count > 1 || !lower || std::mem::replace(&mut big_m_of[q], i) != ROOT {
                return Err("shape");
            }
            continue;
        }
        difference(i, row.cols, row.coefs, row.sense, row.rhs)?;
    }
    if (0..n).any(|q| is_switch(q) && group_of[q] == ROOT) {
        return Err("shape");
    }
    // a group with Σq = 0 holds its members at 0 (a node that fixed the
    // rest at 1), so their big-M rows are difference rows of the other terms
    for q in (0..n).filter(|&q| is_switch(q) && big_m_of[q] != ROOT) {
        if lp.rows.row(group_of[q]).rhs.abs() > 1e-9 {
            continue;
        }
        let row = lp.rows.row(big_m_of[q]);
        let (cols, coefs): (Vec<usize>, Vec<f64>) = row.terms().filter(|&(j, _)| j != q).unzip();
        difference(big_m_of[q], &cols, &coefs, row.sense, row.rhs)?;
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

    // each group lowers its members from 1 until the row holds; a group
    // row is the one its first member's `group_of` names
    let mut members: Vec<(f64, usize)> = Vec::new();
    for (i, row) in lp.rows.iter().enumerate() {
        if row
            .cols
            .first()
            .is_none_or(|&q| !is_switch(q) || group_of[q] != i)
        {
            continue;
        }
        // a pinned group's big-M rows hold at the least point already
        let pinned = row.rhs.abs() <= 1e-9;
        members.clear();
        members.extend(row.cols.iter().map(|&q| match big_m_of[q] {
            m if m == ROOT || pinned => (0.0, q),
            m => (requirement(&lp.rows.row(m), q, &x), q),
        }));
        if members.iter().any(|&(r, _)| r > 1.0 + 1e-9) {
            return Err("upper");
        }
        members.sort_by(|a, b| a.partial_cmp(b).expect("finite requirements"));
        let mut deficit = members.len() as f64 - row.rhs;
        for &(r, q) in &members {
            if deficit <= 1e-9 {
                x[q] = 1.0;
                cols[q] = ColStatus::AtUpper;
                continue;
            }
            let take = deficit.min(1.0 - r);
            deficit -= take;
            x[q] = 1.0 - take;
            let basic_in = if deficit <= 1e-9 {
                i
            } else if r > 0.0 {
                big_m_of[q]
            } else {
                continue;
            };
            cols[q] = ColStatus::Basic;
            slack_basic[basic_in] = false;
        }
        // left over, or negative (s > |group|) from the start
        if deficit.abs() > 1e-9 {
            return Err("upper");
        }
    }
    Ok((Basis { cols, slack_basic }, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve_lp, LpOutcome, Start};
    use columba_prng::Rng;

    /// One row's terms, sense and right-hand side.
    type TestRow = (Vec<(usize, f64)>, Sense, f64);

    fn row(terms: &[(usize, f64)], sense: Sense, rhs: f64) -> TestRow {
        (terms.to_vec(), sense, rhs)
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
                (terms, sense, rhs)
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
            scaled += lp.rows.iter().filter(|r| r.coefs[0].abs() > 1.0).count();
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

    /// A random layout-shaped relaxation: coordinates in `[0, B]` under
    /// difference rows held by an integral point, plus disjunction groups of
    /// four (`Σq = 3`) and two (`Σq = 1`) switches over big-M rows
    /// `x_u − x_v − M·q ≤ c` with `M ≥ B + 3`, in either sense. Some members
    /// are fixed and substituted out, as a node's presolve does: a member
    /// fixed at 0 leaves its row a difference row, one fixed at 1 drops it.
    /// A *pinned* group keeps one member, `q = 0`, whose relation holds at
    /// the integral point; every other group has a relation that holds at
    /// the least point of the difference rows and the pinned relations.
    fn random_groups(rng: &mut Rng) -> (Lp, usize) {
        const B: f64 = 12.0;
        let n = rng.gen_range(2usize..10);
        let point: Vec<f64> = (0..n).map(|_| rng.gen_range(0i64..=6) as f64).collect();
        let mut lb = vec![0.0; n];
        let mut ub = vec![B; n];
        let mut cost: Vec<f64> = (0..n).map(|_| rng.gen_range(-1i64..=3) as f64).collect();
        let mut rows = Vec::new();
        // (p, q, w): x_p ≥ x_q + w, for the least point
        let mut arcs = Vec::new();
        for _ in 0..rng.gen_range(0..n) {
            let p = rng.gen_range(0..n);
            let q = (p + rng.gen_range(1..n)) % n;
            let w = point[p] - point[q] - rng.gen_range(0i64..=2) as f64;
            rows.push(row(&[(p, 1.0), (q, -1.0)], Sense::Ge, w));
            arcs.push((p, q, w));
        }
        // a new switch, fixed at `fix` when given, and its big-M row
        let mut big_m_row = |rng: &mut Rng, (u, v): (usize, usize), c: f64, fix: Option<f64>| {
            let q = lb.len();
            lb.push(fix.unwrap_or(0.0));
            ub.push(fix.unwrap_or(1.0));
            cost.push(0.0);
            let mut terms = vec![(q, -(B + rng.gen_range(3i64..=8) as f64))];
            if u != v {
                terms.extend([(u, 1.0), (v, -1.0)]);
            }
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let terms: Vec<_> = terms.iter().map(|&(j, a)| (j, sign * a)).collect();
            let sense = if sign > 0.0 { Sense::Le } else { Sense::Ge };
            (q, row(&terms, sense, sign * c))
        };
        let pinned = rng.gen_range(0usize..3).min(n - 1);
        for _ in 0..pinned {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            let c = point[u] - point[v] + rng.gen_range(0i64..=2) as f64;
            let (q, big_m) = big_m_row(rng, (u, v), c, None);
            rows.extend([big_m, row(&[(q, 1.0)], Sense::Eq, 0.0)]);
            arcs.push((v, u, -c));
        }
        // the least point, by relaxing every arc n times
        let mut least = vec![0.0f64; n];
        for _ in 0..n {
            for &(p, q, w) in &arcs {
                least[p] = least[p].max(least[q] + w);
            }
        }
        for _ in 0..rng.gen_range(1usize..6) {
            let size: usize = if rng.gen_bool(0.6) { 4 } else { 2 };
            let holds = rng.gen_range(0..size);
            let mut group = Vec::new();
            let mut sum = (size - 1) as f64;
            for k in 0..size {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let diff = if u == v { 0.0 } else { least[u] - least[v] };
                let c = match k == holds {
                    true => diff + rng.gen_range(0i64..=2) as f64,
                    false => rng.gen_range(-3i64..=3) as f64,
                };
                // fixed by a branch at the relation's value, or free
                let fix = rng
                    .gen_bool(0.25)
                    .then_some(if k == holds { 0.0 } else { 1.0 });
                let (q, big_m) = big_m_row(rng, (u, v), c, fix);
                if let Some(value) = fix {
                    sum -= value;
                    if value == 0.0 && u != v {
                        rows.push(row(&[(u, 1.0), (v, -1.0)], Sense::Le, c));
                    }
                    continue;
                }
                group.push((q, 1.0));
                rows.push(big_m);
            }
            if !group.is_empty() {
                rows.push(row(&group, Sense::Eq, sum));
            }
        }
        let lp = Lp {
            lb,
            ub,
            cost,
            rows: rows.into_iter().collect(),
        };
        (lp, pinned)
    }

    #[test]
    fn random_switch_groups_crash_start_warm_at_a_feasible_point() {
        let mut rng = Rng::seed_from_u64(0x5_A17C);
        let (mut fixed, mut pinned, mut basic_switches, mut at_upper) = (0, 0, 0, 0);
        for case in 0..400 {
            let (lp, pins) = random_groups(&mut rng);
            pinned += pins;
            fixed += (0..lp.lb.len()).filter(|&j| lp.lb[j] == lp.ub[j]).count();
            let (basis, point) = least_solution(&lp).unwrap_or_else(|e| panic!("case {case}: {e}"));
            for (j, &v) in point.iter().enumerate() {
                assert!(
                    v >= lp.lb[j] - 1e-9 && v <= lp.ub[j] + 1e-9,
                    "case {case}: x{j} = {v} off its bounds"
                );
            }
            for (i, r) in lp.rows.iter().enumerate() {
                assert_eq!(
                    r.violation(&point),
                    None,
                    "case {case}: row {i} at the crash point"
                );
            }
            let switches = (0..lp.lb.len()).filter(|&j| lp.ub[j] == 1.0 && lp.cost[j] == 0.0);
            for j in switches.filter(|&j| lp.lb[j] == 0.0) {
                basic_switches += usize::from(basis.cols[j] == ColStatus::Basic);
                at_upper += usize::from(basis.cols[j] == ColStatus::AtUpper);
            }
            let cold = solve_lp(&lp, None, None);
            let warm = solve_lp(&lp, None, Some(&basis));
            assert!(
                matches!(warm.start, Start::Warm { .. }),
                "case {case}: {:?}",
                warm.start
            );
            let ((_, oc), (_, ow)) = (optimal(&cold.outcome), optimal(&warm.outcome));
            assert!(
                (oc - ow).abs() <= 1e-9 * oc.abs().max(1.0),
                "case {case}: cold {oc}, crash {ow}"
            );
        }
        assert!(fixed > 200, "only {fixed} fixed members");
        assert!(pinned > 200, "only {pinned} pinned groups");
        assert!(basic_switches > 400, "only {basic_switches} basic switches");
        assert!(
            at_upper > 400,
            "only {at_upper} switches at their upper bound"
        );
    }

    #[test]
    fn switch_groups_the_crash_cannot_start_are_refused() {
        // coordinates x0, x1 in [0, 10] with x0 ≥ 6; switches q2, q3, q4
        let refusal = |rows: &[TestRow]| {
            let lp = Lp {
                lb: vec![0.0; 5],
                ub: vec![10.0, 10.0, 1.0, 1.0, 1.0],
                cost: vec![1.0, 1.0, 0.0, 0.0, 0.0],
                rows: (rows.iter().cloned())
                    .chain([row(&[(0, 1.0)], Sense::Ge, 6.0)])
                    .collect(),
            };
            least_solution(&lp).err()
        };
        // x0 − x1 ≤ m·q needs q ≥ 6/m at the least point; x1 − x0 ≤ 10·q
        // needs nothing
        let right = |q: usize, m: f64| row(&[(0, 1.0), (1, -1.0), (q, -m)], Sense::Le, 0.0);
        let left = |q: usize| row(&[(1, 1.0), (0, -1.0), (q, -10.0)], Sense::Le, 0.0);
        let group = |qs: &[usize], s: f64| {
            let terms: Vec<_> = qs.iter().map(|&q| (q, 1.0)).collect();
            row(&terms, Sense::Eq, s)
        };
        let pair = |s: f64| [right(2, 10.0), left(3), group(&[2, 3], s)];
        assert_eq!(refusal(&pair(1.0)), None);
        // Σ = 0 holds both at 0: their rows join the difference rows
        assert_eq!(refusal(&pair(0.0)), None);
        // q2 ≥ 3
        assert_eq!(
            refusal(&[right(2, 2.0), left(3), group(&[2, 3], 1.0)]),
            Some("upper")
        );
        // q2 and q4 both need 0.6: a deficit of 1 with 0.8 to place
        let both = [right(2, 10.0), right(4, 10.0), group(&[2, 4], 1.0)];
        assert_eq!(refusal(&both), Some("upper"));
        // q4 keeps a big-M row but sits in no group
        let alone = [&pair(1.0)[..], &[right(4, 10.0)]].concat();
        assert_eq!(refusal(&alone), Some("shape"));
        // q2 in two big-M rows, or in two groups
        let twice = [&pair(1.0)[..], &[left(2)]].concat();
        assert_eq!(refusal(&twice), Some("shape"));
        let groups = [&pair(1.0)[..], &[group(&[2, 4], 1.0)]].concat();
        assert_eq!(refusal(&groups), Some("shape"));
        // a rotation-style row: x0 + 2·q4 − x1 − 10·q3 ≤ 0
        let rotation = row(&[(0, 1.0), (4, 2.0), (1, -1.0), (3, -10.0)], Sense::Le, 0.0);
        let rotated = [&pair(1.0)[..], &[rotation, group(&[4], 0.0)]].concat();
        assert_eq!(refusal(&rotated), Some("shape"));
        // q4 bounded from above by its row
        let above = row(&[(1, 1.0), (4, 10.0)], Sense::Le, 10.0);
        let capped = [&pair(1.0)[..], &[above, group(&[4], 1.0)]].concat();
        assert_eq!(refusal(&capped), Some("shape"));
    }

    #[test]
    fn a_group_lowers_its_least_required_members_first() {
        // x0 − x1 ≤ 10·q2, x1 − x0 ≤ 10·q3, 10·q4 ≥ x0 (a Ge row), x0 ≥ 4 and
        // q2 + q3 + q4 = 1: requirements 0.4, 0 and 0.4, a deficit of 2
        let lp = Lp {
            lb: vec![0.0; 5],
            ub: vec![10.0, 10.0, 1.0, 1.0, 1.0],
            cost: vec![1.0, 1.0, 0.0, 0.0, 0.0],
            rows: [
                row(&[(0, 1.0), (1, -1.0), (2, -10.0)], Sense::Le, 0.0),
                row(&[(1, 1.0), (0, -1.0), (3, -10.0)], Sense::Le, 0.0),
                row(&[(0, -1.0), (4, 10.0)], Sense::Ge, 0.0),
                row(&[(2, 1.0), (3, 1.0), (4, 1.0)], Sense::Eq, 1.0),
                row(&[(0, 1.0)], Sense::Ge, 4.0),
            ]
            .into_iter()
            .collect(),
        };
        let (basis, x) = least_solution(&lp).expect("switch groups");
        // q3 drops to 0, q2 (the lower column of the 0.4 tie) to its
        // requirement, and q4 takes the last 0.4 of the deficit
        for (got, want) in x.iter().zip([4.0, 0.0, 0.4, 0.0, 0.6]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
        use ColStatus::{AtLower, Basic};
        assert_eq!(basis.cols, vec![Basic, AtLower, Basic, AtLower, Basic]);
        assert_eq!(basis.slack_basic, vec![false, true, true, false, false]);
        let run = solve_lp(&lp, None, Some(&basis));
        assert_eq!(run.start, Start::Warm { factored: 3 });
    }

    #[test]
    fn crash_basis_is_the_longest_path_tree() {
        // x1 ≥ x0 + 2 (scaled by 2), x2 = x1 + 1, x3 ≥ 5, x0 ≤ 4
        let lp = Lp {
            lb: vec![0.0, 0.0, 0.0, 1.0],
            ub: vec![f64::INFINITY, 10.0, f64::INFINITY, 8.0],
            cost: vec![1.0, 1.0, 1.0, 1.0],
            rows: [
                row(&[(1, 2.0), (0, -2.0)], Sense::Ge, 4.0),
                row(&[(2, -1.0), (1, 1.0)], Sense::Eq, -1.0),
                row(&[(3, -3.0)], Sense::Le, -15.0),
                row(&[(0, 1.0)], Sense::Le, 4.0),
            ]
            .into_iter()
            .collect(),
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
