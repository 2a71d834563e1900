//! Free-direction placement MILP + detour routing (the Columba 2.0 model).

use std::fmt;
use std::time::{Duration, Instant};

use columba_geom::{Point, Rect, Um};
use columba_milp::{Model, Sense, SolveParams, SolveStatus, VarId};
use columba_modules::ModuleModel;
use columba_netlist::{Endpoint, Netlist, NetlistError, UnitSide};

use crate::router::{route, Grid};

/// Budgets for the baseline solve.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Branch & bound wall-clock budget. The paper reports Columba 2.0
    /// needing 300–750 s on the small cases and failing on the large ones;
    /// cap this to taste and the harness reports "≥ cap" on timeout.
    pub time_limit: Duration,
    /// Node budget.
    pub node_limit: usize,
}

impl Default for BaselineOptions {
    fn default() -> BaselineOptions {
        BaselineOptions {
            time_limit: Duration::from_secs(60),
            node_limit: 500_000,
        }
    }
}

/// Error raised by the baseline synthesizer.
#[derive(Debug)]
pub enum BaselineError {
    /// The netlist is not planarized/valid.
    Netlist(NetlistError),
    /// The MILP failed numerically.
    Milp(String),
    /// No feasible placement found within budget.
    NoPlacement,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Netlist(e) => write!(f, "netlist not ready: {e}"),
            BaselineError::Milp(m) => write!(f, "baseline MILP failed: {m}"),
            BaselineError::NoPlacement => f.write_str("no feasible placement within budget"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<NetlistError> for BaselineError {
    fn from(e: NetlistError) -> BaselineError {
        BaselineError::Netlist(e)
    }
}

/// Table 1 metrics of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Chip width.
    pub width: Um,
    /// Chip height.
    pub height: Um,
    /// Total routed flow-channel length (with detours).
    pub flow_channel_length: Um,
    /// Control inlets under pairwise pressure sharing.
    pub control_inlets: usize,
    /// Fluid inlets (one per port connection).
    pub fluid_inlets: usize,
    /// Placement solver status.
    pub status: SolveStatus,
    /// Wall-clock time (placement + routing).
    pub elapsed: Duration,
    /// Placed module rectangles by component name.
    pub placements: Vec<(String, Rect)>,
    /// Total bends introduced by detour routing.
    pub bends: usize,
    /// Nets that could not be routed and were estimated instead.
    pub unrouted_nets: usize,
}

/// Runs the Columba 2.0-style synthesis on a **planarized** netlist.
///
/// # Errors
///
/// Returns [`BaselineError`] when the netlist is invalid, the MILP breaks
/// numerically, or no placement exists within the budget.
pub fn synthesize_baseline(
    netlist: &Netlist,
    options: &BaselineOptions,
) -> Result<BaselineResult, BaselineError> {
    netlist.validate_planarized()?;
    let start = Instant::now();

    // ---- module list ----
    struct Unit {
        name: String,
        w: Um,
        h: Um,
        lines: usize,
    }
    let units: Vec<Unit> = netlist
        .components()
        .iter()
        .map(|c| {
            let m = ModuleModel::for_component(&c.kind);
            Unit {
                name: c.name.clone(),
                w: m.width,
                h: m.length.unwrap_or(m.min_length),
                lines: m.control_pin_count,
            }
        })
        .collect();
    let n = units.len();
    let total_lines: usize = units.iter().map(|u| u.lines).sum();

    // ---- MILP: free placement with rotation, all-pairs disjunctions ----
    let bound_mm: f64 = units.iter().map(|u| (u.w + u.h).to_mm()).sum::<f64>() + 20.0;
    let big_m = bound_mm;
    let mut model = Model::new();
    let w_max = model.num_var(0.0, bound_mm);
    let h_max = model.num_var(0.0, bound_mm);

    struct UnitVars {
        xl: VarId,
        yb: VarId,
        rot: VarId,
    }
    let mut uv: Vec<UnitVars> = Vec::with_capacity(n);
    for u in &units {
        let xl = model.num_var(0.0, bound_mm);
        let yb = model.num_var(0.0, bound_mm);
        let rot = model.bin_var();
        // confinement with rotation: xl + w + (h-w)rot <= W
        let (w, h) = (u.w.to_mm(), u.h.to_mm());
        model.constraint(
            Model::expr()
                .term(1.0, xl)
                .term(h - w, rot)
                .term(-1.0, w_max),
            Sense::Le,
            -w,
        );
        model.constraint(
            Model::expr()
                .term(1.0, yb)
                .term(w - h, rot)
                .term(-1.0, h_max),
            Sense::Le,
            -h,
        );
        uv.push(UnitVars { xl, yb, rot });
    }

    // all-pairs non-overlap (no order pruning: this is the point); the
    // relation binaries of each pair, in (i, j) order
    let mut pair_qs: Vec<[VarId; 4]> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let (wi, hi) = (units[i].w.to_mm(), units[i].h.to_mm());
            let (wj, hj) = (units[j].w.to_mm(), units[j].h.to_mm());
            let q: [VarId; 4] = std::array::from_fn(|_| model.bin_var());
            // i left of j: xi + wi_eff <= xj + qM
            model.constraint(
                Model::expr()
                    .term(1.0, uv[i].xl)
                    .term(hi - wi, uv[i].rot)
                    .term(-1.0, uv[j].xl)
                    .term(-big_m, q[0]),
                Sense::Le,
                -wi,
            );
            model.constraint(
                Model::expr()
                    .term(1.0, uv[j].xl)
                    .term(hj - wj, uv[j].rot)
                    .term(-1.0, uv[i].xl)
                    .term(-big_m, q[1]),
                Sense::Le,
                -wj,
            );
            model.constraint(
                Model::expr()
                    .term(1.0, uv[i].yb)
                    .term(wi - hi, uv[i].rot)
                    .term(-1.0, uv[j].yb)
                    .term(-big_m, q[2]),
                Sense::Le,
                -hi,
            );
            model.constraint(
                Model::expr()
                    .term(1.0, uv[j].yb)
                    .term(wj - hj, uv[j].rot)
                    .term(-1.0, uv[i].yb)
                    .term(-big_m, q[3]),
                Sense::Le,
                -hj,
            );
            let mut sum = Model::expr();
            for &qv in &q {
                sum = sum.term(1.0, qv);
            }
            model.constraint(sum, Sense::Eq, 3.0);
            pair_qs.push(q);
        }
    }

    // nets: half-perimeter wirelength between unit centres
    let mut wl_terms: Vec<VarId> = Vec::new();
    let center_x = |i: usize| -> (VarId, VarId, f64, f64) {
        // cx = xl + w/2 + rot*(h-w)/2
        let (w, h) = (units[i].w.to_mm(), units[i].h.to_mm());
        (uv[i].xl, uv[i].rot, w / 2.0, (h - w) / 2.0)
    };
    let center_y = |i: usize| -> (VarId, VarId, f64, f64) {
        let (w, h) = (units[i].w.to_mm(), units[i].h.to_mm());
        (uv[i].yb, uv[i].rot, h / 2.0, (w - h) / 2.0)
    };
    for conn in netlist.connections() {
        let (Endpoint::Unit { component: a, .. }, Endpoint::Unit { component: b, .. }) =
            (&conn.from, &conn.to)
        else {
            continue; // port nets priced at routing time
        };
        for (pa, pb) in [
            (center_x(a.0), center_x(b.0)),
            (center_y(a.0), center_y(b.0)),
        ] {
            let d = model.num_var(0.0, bound_mm);
            let (va, ra, ca, sa) = pa;
            let (vb, rb, cb, sb) = pb;
            // d >= (ca_expr) - (cb_expr) and the reverse
            model.constraint(
                Model::expr()
                    .term(1.0, va)
                    .term(sa, ra)
                    .term(-1.0, vb)
                    .term(-sb, rb)
                    .term(-1.0, d),
                Sense::Le,
                cb - ca,
            );
            model.constraint(
                Model::expr()
                    .term(1.0, vb)
                    .term(sb, rb)
                    .term(-1.0, va)
                    .term(-sa, ra)
                    .term(-1.0, d),
                Sense::Le,
                ca - cb,
            );
            wl_terms.push(d);
        }
    }

    let mut obj = Model::expr().term(1.0, w_max).term(1.0, h_max);
    for &d in &wl_terms {
        obj = obj.term(0.2, d);
    }
    model.minimize(obj);

    // greedy row-packing incumbent (rot = 0)
    let dims: Vec<(f64, f64)> = units.iter().map(|u| (u.w.to_mm(), u.h.to_mm())).collect();
    let rots: Vec<VarId> = uv.iter().map(|u| u.rot).collect();
    let hint = row_pack_hint(&dims, &rots, &pair_qs);

    let params = SolveParams {
        time_limit: options.time_limit,
        node_limit: options.node_limit,
        ..SolveParams::default()
    };
    let result = model
        .solve_with_hint(&params, &hint)
        .map_err(|e| BaselineError::Milp(e.to_string()))?;
    let Some(sol) = result.solution() else {
        return Err(BaselineError::NoPlacement);
    };

    // ---- extract placement ----
    let mut placements = Vec::with_capacity(n);
    for (i, u) in units.iter().enumerate() {
        let rot = sol.value(uv[i].rot) > 0.5;
        let (w, h) = if rot { (u.h, u.w) } else { (u.w, u.h) };
        let x = Um::from_mm(sol.value(uv[i].xl));
        let y = Um::from_mm(sol.value(uv[i].yb));
        placements.push((u.name.clone(), Rect::new(x, x + w, y, y + h)));
    }
    let width = Um::from_mm(sol.value(w_max)).max(Um(1_000));
    let height = Um::from_mm(sol.value(h_max)).max(Um(1_000));

    // ---- detour routing ----
    let area = Rect::new(Um::ZERO, width, Um::ZERO, height);
    let mut grid = Grid::new(area);
    for (_, r) in &placements {
        grid.block_rect(r);
    }
    let mut flow_len = Um::ZERO;
    let mut bends = 0usize;
    let mut unrouted = 0usize;
    let mut fluid_inlets = 0usize;
    let terminal = |i: usize, side: UnitSide| -> Point {
        let r = &placements[i].1;
        let y = (r.y_b() + r.y_t()) / 2;
        match side {
            UnitSide::Left => Point::new(r.x_l(), y),
            UnitSide::Right => Point::new(r.x_r(), y),
        }
    };
    for conn in netlist.connections() {
        let ends: Vec<Point> = [conn.from, conn.to]
            .iter()
            .map(|e| match e {
                Endpoint::Unit { component, side } => terminal(component.0, *side),
                Endpoint::Port(_) => {
                    fluid_inlets += 1;
                    Point::new(Um::ZERO, height / 2) // resolved below
                }
            })
            .collect();
        let (a, b) = match (&conn.from, &conn.to) {
            (Endpoint::Port(_), Endpoint::Port(_)) => continue,
            (Endpoint::Port(_), _) => {
                // port enters from the nearer vertical boundary at pin height
                let u = ends[1];
                let px = if u.x < width / 2 { Um::ZERO } else { width };
                (Point::new(px, u.y), u)
            }
            (_, Endpoint::Port(_)) => {
                let u = ends[0];
                let px = if u.x < width / 2 { Um::ZERO } else { width };
                (u, Point::new(px, u.y))
            }
            _ => (ends[0], ends[1]),
        };
        match route(&mut grid, a, b) {
            Ok((len, bd)) => {
                flow_len += len;
                bends += bd;
            }
            Err(_) => {
                unrouted += 1;
                flow_len += a.manhattan_distance(b) * 3 / 2;
            }
        }
    }

    Ok(BaselineResult {
        width,
        height,
        flow_channel_length: flow_len,
        control_inlets: total_lines.div_ceil(2),
        fluid_inlets,
        status: result.status(),
        elapsed: start.elapsed(),
        placements,
        bends,
        unrouted_nets: unrouted,
    })
}

/// Greedy shelf packing for the warm-start incumbent: rows of units, no
/// rotation, disjunction binaries fixed accordingly. `pair_qs` holds the
/// relation binaries of every unit pair `(i, j)`, `i < j`, in order.
fn row_pack_hint(dims: &[(f64, f64)], rots: &[VarId], pair_qs: &[[VarId; 4]]) -> Vec<(VarId, f64)> {
    let n = dims.len();
    let total_w: f64 = dims.iter().map(|&(w, _)| w).sum();
    let shelf_w =
        (total_w / (n as f64).sqrt()).max(dims.iter().map(|&(w, _)| w).fold(0.0, f64::max));
    let mut pos: Vec<(f64, f64)> = Vec::with_capacity(n);
    let (mut x, mut y, mut row_h) = (0.0f64, 0.0f64, 0.0f64);
    for &(w, h) in dims {
        if x + w > shelf_w + 1e-9 && x > 0.0 {
            y += row_h + 0.6;
            x = 0.0;
            row_h = 0.0;
        }
        pos.push((x, y));
        x += w + 0.6;
        row_h = row_h.max(h);
    }
    let rect = |i: usize| -> (f64, f64, f64, f64) {
        let (px, py) = pos[i];
        (px, px + dims[i].0, py, py + dims[i].1)
    };
    let mut hint: Vec<(VarId, f64)> = rots.iter().map(|&r| (r, 0.0)).collect();
    let mut pairs = pair_qs.iter();
    for i in 0..n {
        for j in (i + 1)..n {
            let a = rect(i);
            let b = rect(j);
            let zero = if a.1 <= b.0 {
                0
            } else if b.1 <= a.0 {
                1
            } else if a.3 <= b.2 {
                2
            } else {
                3
            };
            let q = pairs.next().expect("one q set per pair");
            for (k, &v) in q.iter().enumerate() {
                hint.push((v, if k == zero { 0.0 } else { 1.0 }));
            }
        }
    }
    hint
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_netlist::{generators, MuxCount};
    use columba_planar::planarize;

    /// A search pinned by its node count, with a clock that never fires.
    fn opts() -> BaselineOptions {
        BaselineOptions {
            time_limit: Duration::from_secs(3600),
            node_limit: 64,
        }
    }

    #[test]
    fn small_case_places_and_routes() {
        let (n, _) = planarize(&generators::nucleic_acid_processor(MuxCount::One));
        let r = synthesize_baseline(&n, &opts()).unwrap();
        assert!(r.status.has_solution());
        assert_eq!(r.placements.len(), n.components().len());
        assert!(r.width > Um::ZERO && r.height > Um::ZERO);
        assert!(r.flow_channel_length > Um::ZERO);
        // placements must not overlap
        for (i, (_, a)) in r.placements.iter().enumerate() {
            for (_, b) in &r.placements[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn pressure_sharing_counts_linear() {
        let (n, _) = planarize(&generators::chip_ip(4, MuxCount::One));
        let r = synthesize_baseline(&n, &opts()).unwrap();
        // 42 lines paired -> 21 inlets: linear in design size, far above the
        // 13 of the Columba S multiplexer
        assert_eq!(r.control_inlets, 21);
    }

    /// Each rotation binary shares rows with relation binaries, so the
    /// relaxation has no switch-group shape: the crash refuses it and the
    /// root LP runs cold. (The wirelength rows are no difference rows
    /// either, so the hint LP itself runs cold too.)
    #[test]
    fn root_lp_runs_cold() {
        let (n, _) = planarize(&generators::nucleic_acid_processor(MuxCount::One));
        let rec = columba_obs::SpanRecorder::new(256);
        columba_obs::set_enabled(true);
        let guard = rec.install();
        let one_node = BaselineOptions {
            node_limit: 1,
            ..opts()
        };
        synthesize_baseline(&n, &one_node).unwrap();
        drop(guard);
        columba_obs::set_enabled(false);
        let root = (rec.finished().into_iter())
            .find(|e| e.name == "milp.root")
            .expect("milp.root span");
        let attr = |key: &str| {
            (root.attrs.iter())
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let s = |v: &str| Some(columba_obs::AttrValue::from(v));
        assert_eq!(attr("hint_start"), s("shape"));
        assert_eq!(attr("root_start"), s("cold"));
        assert_eq!(attr("fallback"), s("shape"));
    }

    #[test]
    fn unplanarized_rejected() {
        let n = generators::chip_ip(4, MuxCount::One);
        assert!(matches!(
            synthesize_baseline(&n, &opts()),
            Err(BaselineError::Netlist(_))
        ));
    }
}
