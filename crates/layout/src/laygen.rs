//! Layout generation: the §3.2.1 MILP.
//!
//! Every entity of the [`Plan`] becomes a rectangle with four coordinate
//! variables. Constraints follow the paper: rectangle coupling (eq 1), chip
//! confinement (eq 2), four-way non-overlap disjunctions with `q1+q2+q3+q4
//! = 3` (eqs 3–5), boundary and module attachment (eqs 6–11 specialised to
//! the pin sides fixed by the netlist), switch coverage (eq 12) and the
//! weighted objective (eq 13).
//!
//! Two scalability devices keep the model solvable without Gurobi:
//! disjunctions are *pruned* for pairs whose left-to-right order is already
//! implied by the connection chains, and the constructive placement seeds
//! branch & bound with a feasible incumbent (with a zero node budget the
//! incumbent is simply polished by one LP).

use std::time::Duration;

use columba_geom::{Rect, Um, INLET_PITCH, MIN_CHANNEL_SPACING};
use columba_milp::{Model, ModelStats, Sense, SolveParams, SolveStats, SolveStatus, VarId};

use crate::constructive::{self, Placement};
use crate::entities::{ControlDir, EndKind, FlowKind, Plan};
use crate::error::LayoutError;
use crate::LayoutOptions;

const D_MM: f64 = 0.1; // d = 100um in mm
const D: Um = MIN_CHANNEL_SPACING;

/// Diagnostics from the layout-generation solve.
#[derive(Debug, Clone)]
pub struct LaygenReport {
    /// MILP size.
    pub model_stats: ModelStats,
    /// Final solver status.
    pub status: SolveStatus,
    /// Objective of the returned layout (eq 13 value), if solved.
    pub objective: Option<f64>,
    /// Wall-clock time in the solver.
    pub elapsed: Duration,
    /// Non-overlap disjunctions kept after pruning.
    pub disjunctions: usize,
    /// Same-layer pairs pruned by the chain-order analysis.
    pub pruned_pairs: usize,
    /// Whether the constructive incumbent seeded the search.
    pub hint_used: bool,
    /// Whether the returned rectangles come from the constructive
    /// placement because the MILP found no solution in budget.
    pub used_fallback: bool,
    /// Solver telemetry: node/prune/iteration counters, phase times,
    /// incumbent trajectory and worker utilization.
    pub solve: SolveStats,
}

/// The §3.2.1 output: a rectangle plan for validation.
#[derive(Debug, Clone)]
pub struct GeneratedLayout {
    /// One rectangle per plan block.
    pub block_rects: Vec<Rect>,
    /// One rectangle per flow entity.
    pub flow_rects: Vec<Rect>,
    /// One rectangle per control entity.
    pub control_rects: Vec<Rect>,
    /// Functional-region extents (`v_x_max`, `v_y_max`).
    pub extent: (Um, Um),
    /// Solve diagnostics.
    pub report: LaygenReport,
}

#[derive(Clone, Copy, PartialEq)]
enum EntLayer {
    Both,
    Flow,
    Control,
}

struct Ent {
    vars: [VarId; 4], // xl, xr, yb, yt
    layer: EntLayer,
    /// anchor blocks for order pruning: (leftmost, rightmost)
    start: Option<usize>,
    end: Option<usize>,
    /// attached blocks exempt from disjunctions
    attached: [Option<usize>; 2],
}

pub(crate) fn generate(
    plan: &Plan,
    options: &LayoutOptions,
) -> Result<GeneratedLayout, LayoutError> {
    let mut laygen_span = columba_obs::span("laygen");
    let mut build_span = columba_obs::span("laygen.model_build");
    let placement = constructive::place(plan)?;
    let bound_mm = (placement.extent.0.max(placement.extent.1).to_mm() * 1.3 + 20.0).max(50.0);
    let big_m = bound_mm;

    let nb = plan.blocks.len();
    let mut model = Model::new();
    // constraint groups named after the paper equations, so an infeasible
    // model can be diagnosed in the designer's vocabulary
    let g_coupling = model.add_group("rectangle coupling (eq 1)");
    let g_confine = model.add_group("chip confinement (eq 2)");
    let g_overlap = model.add_group("non-overlap (eqs 3-5)");
    let g_boundary = model.add_group("boundary attachment (eqs 6-11)");
    let g_switch = model.add_group("switch coverage (eq 12)");
    let g_pitch = model.add_group("inlet pitch (d')");
    let x_max = model.num_var("x_max", 0.0, bound_mm);
    let y_max = model.num_var("y_max", 0.0, bound_mm);
    let xy_max = model.num_var("xy_max", 0.0, bound_mm);
    model.constraint(
        Model::expr().term(1.0, xy_max).term(-1.0, x_max),
        Sense::Ge,
        0.0,
    );
    model.constraint(
        Model::expr().term(1.0, xy_max).term(-1.0, y_max),
        Sense::Ge,
        0.0,
    );
    // optional hard chip-size budget: caps the functional-region extents,
    // in the same group as the eq-2 rows they tighten
    if let Some(w) = options.max_width_mm {
        model.constraint_in(g_confine, Model::expr().term(1.0, x_max), Sense::Le, w);
    }
    if let Some(h) = options.max_height_mm {
        model.constraint_in(g_confine, Model::expr().term(1.0, y_max), Sense::Le, h);
    }

    let mut ents: Vec<Ent> = Vec::new();
    let new_rect_vars = |model: &mut Model, tag: &str, i: usize| -> [VarId; 4] {
        [
            model.num_var(format!("{tag}{i}_xl"), 0.0, bound_mm),
            model.num_var(format!("{tag}{i}_xr"), 0.0, bound_mm),
            model.num_var(format!("{tag}{i}_yb"), 0.0, bound_mm),
            model.num_var(format!("{tag}{i}_yt"), 0.0, bound_mm),
        ]
    };

    // ---- blocks ----
    for (i, b) in plan.blocks.iter().enumerate() {
        let v = new_rect_vars(&mut model, "b", i);
        // eq 1: coupling
        model.constraint_in(
            g_coupling,
            Model::expr().term(1.0, v[1]).term(-1.0, v[0]),
            Sense::Eq,
            b.width.to_mm(),
        );
        match b.height {
            Some(h) => model.constraint_in(
                g_coupling,
                Model::expr().term(1.0, v[3]).term(-1.0, v[2]),
                Sense::Eq,
                h.to_mm(),
            ),
            None => model.constraint_in(
                g_coupling,
                Model::expr().term(1.0, v[3]).term(-1.0, v[2]),
                Sense::Ge,
                b.min_height.to_mm(),
            ),
        }
        // eq 2: confinement to the chip
        model.constraint_in(
            g_confine,
            Model::expr().term(1.0, v[1]).term(-1.0, x_max),
            Sense::Le,
            0.0,
        );
        model.constraint_in(
            g_confine,
            Model::expr().term(1.0, v[3]).term(-1.0, y_max),
            Sense::Le,
            0.0,
        );
        ents.push(Ent {
            vars: v,
            layer: EntLayer::Both,
            start: Some(i),
            end: Some(i),
            attached: [None, None],
        });
    }

    // ---- flow entities ----
    let flow_base = ents.len();
    for (i, f) in plan.flows.iter().enumerate() {
        let v = new_rect_vars(&mut model, "f", i);
        model.constraint_in(
            g_coupling,
            Model::expr().term(1.0, v[1]).term(-1.0, v[0]),
            Sense::Ge,
            0.0,
        );
        model.constraint_in(
            g_confine,
            Model::expr().term(1.0, v[1]).term(-1.0, x_max),
            Sense::Le,
            0.0,
        );
        model.constraint_in(
            g_confine,
            Model::expr().term(1.0, v[3]).term(-1.0, y_max),
            Sense::Le,
            0.0,
        );

        // height class
        match f.kind {
            FlowKind::Thin => model.constraint_in(
                g_coupling,
                Model::expr().term(1.0, v[3]).term(-1.0, v[2]),
                Sense::Eq,
                2.0 * D_MM,
            ),
            FlowKind::InletBundle(n) => model.constraint_in(
                g_coupling,
                Model::expr().term(1.0, v[3]).term(-1.0, v[2]),
                Sense::Eq,
                (INLET_PITCH * n as i64).to_mm(),
            ),
            FlowKind::FullHeight(_) => { /* tied below */ }
        }

        // x attachment (eqs 6-11 with the boundary fixed by the pin side)
        for (end, is_left) in [(f.left, true), (f.right, false)] {
            let fx = if is_left { v[0] } else { v[1] };
            match end {
                EndKind::Boundary => {
                    if is_left {
                        model.constraint_in(
                            g_boundary,
                            Model::expr().term(1.0, fx),
                            Sense::Eq,
                            0.0,
                        );
                    } else {
                        model.constraint_in(
                            g_boundary,
                            Model::expr().term(1.0, fx).term(-1.0, x_max),
                            Sense::Eq,
                            0.0,
                        );
                    }
                }
                EndKind::Pin { block, .. }
                | EndKind::SwitchSide { block }
                | EndKind::FullSide { block } => {
                    let bv = ents[block.0].vars;
                    let bx = if is_left { bv[1] } else { bv[0] };
                    model.constraint_in(
                        g_boundary,
                        Model::expr().term(1.0, fx).term(-1.0, bx),
                        Sense::Eq,
                        0.0,
                    );
                }
            }
        }

        // y attachment
        for end in [f.left, f.right] {
            match end {
                EndKind::Pin { block, component } => {
                    let off = plan.blocks[block.0]
                        .pin_y_offset(component)
                        .expect("pin component is a member")
                        .to_mm();
                    let byb = ents[block.0].vars[2];
                    match f.kind {
                        FlowKind::Thin => {
                            // f.y_b = pin - d
                            model.constraint_in(
                                g_boundary,
                                Model::expr().term(1.0, v[2]).term(-1.0, byb),
                                Sense::Eq,
                                off - D_MM,
                            );
                        }
                        _ => {
                            // pin inside the merged rectangle
                            model.constraint_in(
                                g_boundary,
                                Model::expr().term(1.0, byb).term(-1.0, v[2]),
                                Sense::Ge,
                                D_MM - off,
                            );
                            model.constraint_in(
                                g_boundary,
                                Model::expr().term(1.0, byb).term(-1.0, v[3]),
                                Sense::Le,
                                -off - D_MM,
                            );
                        }
                    }
                }
                EndKind::FullSide { block } => {
                    let bv = ents[block.0].vars;
                    model.constraint_in(
                        g_boundary,
                        Model::expr().term(1.0, v[2]).term(-1.0, bv[2]),
                        Sense::Eq,
                        0.0,
                    );
                    model.constraint_in(
                        g_boundary,
                        Model::expr().term(1.0, v[3]).term(-1.0, bv[3]),
                        Sense::Eq,
                        0.0,
                    );
                }
                EndKind::SwitchSide { block } => {
                    // eq 12: the switch extends to cover the channel
                    let sv = ents[block.0].vars;
                    model.constraint_in(
                        g_switch,
                        Model::expr().term(1.0, v[2]).term(-1.0, sv[2]),
                        Sense::Ge,
                        2.0 * D_MM,
                    );
                    model.constraint_in(
                        g_switch,
                        Model::expr().term(1.0, v[3]).term(-1.0, sv[3]),
                        Sense::Le,
                        -2.0 * D_MM,
                    );
                }
                EndKind::Boundary => {}
            }
        }

        ents.push(Ent {
            vars: v,
            layer: EntLayer::Flow,
            start: f.left.block().map(|b| b.0),
            end: f.right.block().map(|b| b.0),
            attached: [f.left.block().map(|b| b.0), f.right.block().map(|b| b.0)],
        });
    }

    // ---- control entities (rule 1 rectangles) ----
    let control_base = ents.len();
    for (i, c) in plan.controls.iter().enumerate() {
        let v = new_rect_vars(&mut model, "c", i);
        let bv = ents[c.block.0].vars;
        model.constraint_in(
            g_boundary,
            Model::expr().term(1.0, v[0]).term(-1.0, bv[0]),
            Sense::Eq,
            0.0,
        );
        model.constraint_in(
            g_boundary,
            Model::expr().term(1.0, v[1]).term(-1.0, bv[1]),
            Sense::Eq,
            0.0,
        );
        match c.dir {
            ControlDir::Down => {
                model.constraint_in(g_boundary, Model::expr().term(1.0, v[2]), Sense::Eq, 0.0);
                model.constraint_in(
                    g_boundary,
                    Model::expr().term(1.0, v[3]).term(-1.0, bv[2]),
                    Sense::Eq,
                    0.0,
                );
            }
            ControlDir::Up => {
                model.constraint_in(
                    g_boundary,
                    Model::expr().term(1.0, v[2]).term(-1.0, bv[3]),
                    Sense::Eq,
                    0.0,
                );
                model.constraint_in(
                    g_boundary,
                    Model::expr().term(1.0, v[3]).term(-1.0, y_max),
                    Sense::Eq,
                    0.0,
                );
            }
        }
        ents.push(Ent {
            vars: v,
            layer: EntLayer::Control,
            start: Some(c.block.0),
            end: Some(c.block.0),
            attached: [Some(c.block.0), None],
        });
    }

    // ---- order analysis for disjunction pruning ----
    let reach = reachability(plan, nb);
    let ordered = |a: Option<usize>, b: Option<usize>| -> bool {
        match (a, b) {
            (Some(x), Some(y)) => x == y || reach[x * nb + y],
            _ => false,
        }
    };

    // ---- eqs 3-5: non-overlap disjunctions ----
    let mut disjunctions: Vec<(usize, usize, [VarId; 4])> = Vec::new();
    let mut pruned = 0usize;
    for i in 0..ents.len() {
        for j in (i + 1)..ents.len() {
            let (a, b) = (&ents[i], &ents[j]);
            let compatible = !matches!(
                (a.layer, b.layer),
                (EntLayer::Flow, EntLayer::Control) | (EntLayer::Control, EntLayer::Flow)
            );
            if !compatible {
                continue;
            }
            // attached pairs may touch by construction
            let attached = (i >= flow_base && i < control_base && a.attached.contains(&Some(j)))
                || (j >= flow_base && j < control_base && b.attached.contains(&Some(i)))
                || (i >= control_base && a.attached[0] == Some(j))
                || (j >= control_base && b.attached[0] == Some(i));
            if attached {
                continue;
            }
            if options.prune_ordered_pairs && (ordered(a.end, b.start) || ordered(b.end, a.start)) {
                pruned += 1;
                continue;
            }
            let q: [VarId; 4] = std::array::from_fn(|k| model.bin_var(format!("q{i}_{j}_{k}")));
            let (av, bv) = (a.vars, b.vars);
            // a left of b / b left of a / a below b / b below a
            model.constraint_in(
                g_overlap,
                Model::expr()
                    .term(1.0, av[1])
                    .term(-1.0, bv[0])
                    .term(-big_m, q[0]),
                Sense::Le,
                0.0,
            );
            model.constraint_in(
                g_overlap,
                Model::expr()
                    .term(1.0, bv[1])
                    .term(-1.0, av[0])
                    .term(-big_m, q[1]),
                Sense::Le,
                0.0,
            );
            model.constraint_in(
                g_overlap,
                Model::expr()
                    .term(1.0, av[3])
                    .term(-1.0, bv[2])
                    .term(-big_m, q[2]),
                Sense::Le,
                0.0,
            );
            model.constraint_in(
                g_overlap,
                Model::expr()
                    .term(1.0, bv[3])
                    .term(-1.0, av[2])
                    .term(-big_m, q[3]),
                Sense::Le,
                0.0,
            );
            let mut sum = Model::expr();
            for &qv in &q {
                sum = sum.term(1.0, qv);
            }
            model.constraint_in(g_overlap, sum, Sense::Eq, 3.0);
            disjunctions.push((i, j, q));
        }
    }

    // ---- fluid-inlet pitch: entities on the same flow boundary keep
    // their inlets d' apart (the rule behind merge rule 3's n*d' height) ----
    let mut pitch_disjunctions: Vec<(usize, usize, [VarId; 2])> = Vec::new();
    let d_prime = INLET_PITCH.to_mm();
    for left_side in [true, false] {
        let members: Vec<usize> = plan
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                if left_side {
                    f.left == EndKind::Boundary
                } else {
                    f.right == EndKind::Boundary
                }
            })
            .map(|(i, _)| i)
            .collect();
        for a in 0..members.len() {
            for b in (a + 1)..members.len() {
                let (i, j) = (members[a], members[b]);
                let vi = ents[flow_base + i].vars;
                let vj = ents[flow_base + j].vars;
                let q = [
                    model.bin_var(format!("p{i}_{j}_0")),
                    model.bin_var(format!("p{i}_{j}_1")),
                ];
                model.constraint_in(
                    g_pitch,
                    Model::expr()
                        .term(1.0, vi[3])
                        .term(-1.0, vj[2])
                        .term(-big_m, q[0]),
                    Sense::Le,
                    -d_prime,
                );
                model.constraint_in(
                    g_pitch,
                    Model::expr()
                        .term(1.0, vj[3])
                        .term(-1.0, vi[2])
                        .term(-big_m, q[1]),
                    Sense::Le,
                    -d_prime,
                );
                model.constraint_in(
                    g_pitch,
                    Model::expr().term(1.0, q[0]).term(1.0, q[1]),
                    Sense::Eq,
                    1.0,
                );
                pitch_disjunctions.push((i, j, q));
            }
        }
    }

    // ---- eq 13: objective ----
    let mut obj = Model::expr()
        .term(options.alpha, x_max)
        .term(options.beta, y_max)
        .term(options.gamma, xy_max);
    for (fi, f) in plan.flows.iter().enumerate() {
        let v = ents[flow_base + fi].vars;
        obj = obj.term(options.kappa * f.count as f64, v[1]);
        obj = obj.term(-options.kappa * f.count as f64, v[0]);
    }
    for (ci, c) in plan.controls.iter().enumerate() {
        let v = ents[control_base + ci].vars;
        obj = obj.term(options.kappa * c.count as f64, v[3]);
        obj = obj.term(-options.kappa * c.count as f64, v[2]);
    }
    model.minimize(obj);

    // ---- hint from the constructive placement ----
    let hint = (options.warm_start && placement.feasible)
        .then(|| build_hint(plan, &placement, &ents, &disjunctions, &pitch_disjunctions))
        .flatten();

    let params = SolveParams {
        time_limit: options.time_limit,
        node_limit: options.node_limit,
        rounding_heuristic: false,
        threads: options.threads,
        cancel: options.cancel.clone(),
        ..SolveParams::default()
    };
    if build_span.is_recording() {
        build_span.attr("blocks", nb);
        build_span.attr("disjunctions", disjunctions.len());
        build_span.attr("pruned_pairs", pruned);
        build_span.attr("hint", u64::from(hint.is_some()));
    }
    drop(build_span);
    let solve_span = columba_obs::span("laygen.solve");
    let result = match &hint {
        Some(h) => model.solve_with_hint(&params, h)?,
        None => model.solve(&params)?,
    };
    drop(solve_span);
    if laygen_span.is_recording() {
        laygen_span.attr("status", result.status().to_string());
    }

    let report_base = LaygenReport {
        model_stats: model.stats(),
        status: result.status(),
        objective: result.solution().map(columba_milp::Solution::objective),
        elapsed: result.elapsed(),
        disjunctions: disjunctions.len(),
        pruned_pairs: pruned,
        hint_used: hint.is_some(),
        used_fallback: false,
        solve: result.stats().clone(),
    };

    match result.solution() {
        Some(sol) => {
            let to_um = |v: VarId| Um::from_mm(sol.value(v));
            let mut block_rects: Vec<Rect> = (0..nb)
                .map(|i| {
                    let v = ents[i].vars;
                    Rect::new(to_um(v[0]), to_um(v[1]), to_um(v[2]), to_um(v[3]))
                })
                .collect();
            realign_pins(plan, &mut block_rects);
            let extent = (to_um(x_max).max(Um(1)), to_um(y_max).max(Um(1)));
            let flow_rects = derive_flow_rects(plan, &block_rects, extent, |fi| {
                let v = ents[flow_base + fi].vars;
                (to_um(v[2]), to_um(v[3]))
            });
            let control_rects = derive_control_rects(plan, &block_rects, extent);
            Ok(GeneratedLayout {
                block_rects,
                flow_rects,
                control_rects,
                extent,
                report: report_base,
            })
        }
        // a *proven* infeasible model must never fall back to the
        // constructive placement — the construction ignores the chip-size
        // budget the proof hinges on. Diagnose the conflict instead.
        None if result.status() == SolveStatus::Infeasible => {
            let mut conflict = Vec::new();
            let mut detail = String::from("the placement model admits no layout");
            if options.diagnose_infeasibility {
                let probe = SolveParams {
                    time_limit: options.time_limit.min(Duration::from_secs(5)),
                    node_limit: options.node_limit.clamp(1_000, 50_000),
                    rounding_heuristic: false,
                    threads: options.threads,
                    cancel: options.cancel.clone(),
                    ..SolveParams::default()
                };
                // a numerically failed probe keeps the generic message; the
                // proven infeasibility itself is the error being reported
                if let Ok(Some(d)) = model.diagnose_infeasibility(&probe) {
                    detail = d.to_string();
                    conflict = d.conflict;
                }
            }
            Err(LayoutError::Infeasible { conflict, detail })
        }
        None if options.warm_start && placement.feasible => {
            // fall back to the constructive layout outright
            Ok(constructive_layout(
                plan,
                &placement,
                LaygenReport {
                    used_fallback: true,
                    ..report_base
                },
            ))
        }
        None => Err(LayoutError::milp(format!(
            "no feasible layout found within budget ({}); {}",
            result.status(),
            if !options.warm_start {
                "warm starting is disabled (ablation mode), so no constructive fallback exists"
            } else {
                "the constructive placement failed its self-check"
            }
        ))),
    }
}

/// The last resilience rung: skip the MILP entirely and return the
/// constructive placement as the layout. Always cheap, never searches.
pub(crate) fn generate_constructive(plan: &Plan) -> Result<GeneratedLayout, LayoutError> {
    let _span = columba_obs::span("laygen.constructive");
    let placement = constructive::place(plan)?;
    if !placement.feasible {
        return Err(LayoutError::milp(
            "no layout found within budget at any rung: the constructive placement failed its self-check",
        ));
    }
    Ok(constructive_layout(
        plan,
        &placement,
        LaygenReport {
            model_stats: ModelStats::default(),
            status: SolveStatus::LimitReached,
            objective: None,
            elapsed: Duration::ZERO,
            disjunctions: 0,
            pruned_pairs: 0,
            hint_used: false,
            used_fallback: true,
            solve: SolveStats::default(),
        },
    ))
}

/// Assembles a [`GeneratedLayout`] straight from the constructive placement.
fn constructive_layout(
    plan: &Plan,
    placement: &Placement,
    report: LaygenReport,
) -> GeneratedLayout {
    let block_rects: Vec<Rect> = plan
        .blocks
        .iter()
        .zip(&placement.block_pos)
        .map(|(b, &(x, yb, yt))| Rect::new(x, x + b.width, yb, yt))
        .collect();
    let extent = placement.extent;
    let flow_rects = derive_flow_rects(plan, &block_rects, extent, |fi| {
        let (_, _, yb, yt) = placement.flow_rect[fi];
        (yb, yt)
    });
    let control_rects = derive_control_rects(plan, &block_rects, extent);
    GeneratedLayout {
        block_rects,
        flow_rects,
        control_rects,
        extent,
        report,
    }
}

/// Block reachability over the flow-connection DAG (row-major `nb x nb`).
fn reachability(plan: &Plan, nb: usize) -> Vec<bool> {
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for f in &plan.flows {
        if let (Some(a), Some(b)) = (f.left.block(), f.right.block()) {
            succs[a.0].push(b.0);
        }
    }
    let mut reach = vec![false; nb * nb];
    for s in 0..nb {
        let mut stack = succs[s].clone();
        while let Some(v) = stack.pop() {
            if reach[s * nb + v] {
                continue;
            }
            reach[s * nb + v] = true;
            stack.extend(succs[v].iter().copied());
        }
    }
    reach
}

/// Builds the q-variable hint from the constructive placement; `None` when
/// some pair overlaps (should not happen for a self-checked placement).
fn build_hint(
    plan: &Plan,
    placement: &Placement,
    ents: &[Ent],
    disjunctions: &[(usize, usize, [VarId; 4])],
    pitch_disjunctions: &[(usize, usize, [VarId; 2])],
) -> Option<Vec<(VarId, f64)>> {
    let nb = plan.blocks.len();
    let nf = plan.flows.len();
    let rect_of = |e: usize| -> (Um, Um, Um, Um) {
        if e < nb {
            let (x, yb, yt) = placement.block_pos[e];
            (x, x + plan.blocks[e].width, yb, yt)
        } else if e < nb + nf {
            placement.flow_rect[e - nb]
        } else {
            let c = &plan.controls[e - nb - nf];
            let (bx, byb, byt) = placement.block_pos[c.block.0];
            let w = plan.blocks[c.block.0].width;
            match c.dir {
                ControlDir::Down => (bx, bx + w, Um::ZERO, byb),
                ControlDir::Up => (bx, bx + w, byt, placement.extent.1),
            }
        }
    };
    let _ = ents;
    let mut hint = Vec::with_capacity(disjunctions.len() * 4);
    for &(i, j, q) in disjunctions {
        let a = rect_of(i);
        let b = rect_of(j);
        let zero = if a.1 <= b.0 {
            0
        } else if b.1 <= a.0 {
            1
        } else if a.3 <= b.2 {
            2
        } else if b.3 <= a.2 {
            3
        } else {
            return None; // overlapping pair: placement is not usable
        };
        for (k, &qv) in q.iter().enumerate() {
            hint.push((qv, if k == zero { 0.0 } else { 1.0 }));
        }
    }
    let d_prime = INLET_PITCH;
    for &(i, j, q) in pitch_disjunctions {
        let a = placement.flow_rect[i];
        let b = placement.flow_rect[j];
        let zero = if a.3 + d_prime <= b.2 {
            0
        } else if b.3 + d_prime <= a.2 {
            1
        } else {
            return None; // constructive inlets too close: unusable hint
        };
        for (k, &qv) in q.iter().enumerate() {
            hint.push((qv, if k == zero { 0.0 } else { 1.0 }));
        }
    }
    Some(hint)
}

/// Re-imposes exact pin-to-pin alignment after mm→um rounding.
fn realign_pins(plan: &Plan, block_rects: &mut [Rect]) {
    // BFS over pin-pin links, moving the later block to match the earlier
    let mut adj: Vec<(usize, usize, Um)> = Vec::new();
    for f in &plan.flows {
        if let (
            EndKind::Pin {
                block: ba,
                component: ca,
            },
            EndKind::Pin {
                block: bb,
                component: cb,
            },
        ) = (f.left, f.right)
        {
            let off_a = plan.blocks[ba.0].pin_y_offset(ca).expect("member");
            let off_b = plan.blocks[bb.0].pin_y_offset(cb).expect("member");
            adj.push((ba.0, bb.0, off_a - off_b));
        }
    }
    // a few sweeps settle chains; rounding errors are at most 1um so this
    // converges immediately in practice
    for _ in 0..4 {
        let mut changed = false;
        for &(a, b, delta) in &adj {
            let want = block_rects[a].y_b() + delta;
            if block_rects[b].y_b() != want {
                let h = block_rects[b].height();
                block_rects[b] =
                    Rect::new(block_rects[b].x_l(), block_rects[b].x_r(), want, want + h);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Recomputes flow-entity rectangles from the (aligned) block rectangles;
/// flexible y ranges come from `flex_y`.
fn derive_flow_rects(
    plan: &Plan,
    block_rects: &[Rect],
    extent: (Um, Um),
    flex_y: impl Fn(usize) -> (Um, Um),
) -> Vec<Rect> {
    plan.flows
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let x_l = match f.left {
                EndKind::Boundary => Um::ZERO,
                e => block_rects[e.block().expect("non-boundary end").0].x_r(),
            };
            let x_r = match f.right {
                EndKind::Boundary => extent.0,
                e => block_rects[e.block().expect("non-boundary end").0].x_l(),
            };
            let (y_b, y_t) = match f.kind {
                FlowKind::FullHeight(g) => (block_rects[g.0].y_b(), block_rects[g.0].y_t()),
                _ => {
                    // pin end wins; otherwise the LP/constructive value
                    let pin = [f.left, f.right].into_iter().find_map(|e| match e {
                        EndKind::Pin { block, component } => {
                            let off = plan.blocks[block.0].pin_y_offset(component)?;
                            Some(block_rects[block.0].y_b() + off)
                        }
                        _ => None,
                    });
                    match (pin, f.kind) {
                        (Some(p), _) => (p - D, p + D),
                        (None, FlowKind::InletBundle(n)) => {
                            let (yb, _) = flex_y(fi);
                            (yb, yb + INLET_PITCH * n as i64)
                        }
                        (None, _) => {
                            let (yb, _) = flex_y(fi);
                            (yb, yb + D * 2)
                        }
                    }
                }
            };
            Rect::new(x_l.min(x_r), x_r.max(x_l), y_b, y_t)
        })
        .collect()
}

fn derive_control_rects(plan: &Plan, block_rects: &[Rect], extent: (Um, Um)) -> Vec<Rect> {
    plan.controls
        .iter()
        .map(|c| {
            let b = block_rects[c.block.0];
            match c.dir {
                ControlDir::Down => Rect::new(b.x_l(), b.x_r(), Um::ZERO, b.y_b()),
                ControlDir::Up => Rect::new(b.x_l(), b.x_r(), b.y_t(), extent.1.max(b.y_t())),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{build_plan, BlockId};
    use columba_netlist::{generators, MuxCount};
    use columba_planar::planarize;

    fn gen(lanes: usize, options: &LayoutOptions) -> (Plan, GeneratedLayout) {
        let (n, _) = planarize(&generators::chip_ip(lanes, MuxCount::One));
        let plan = build_plan(&n).unwrap();
        let g = generate(&plan, options).unwrap();
        (plan, g)
    }

    fn assert_consistent(plan: &Plan, g: &GeneratedLayout) {
        // blocks inside the extent
        for r in &g.block_rects {
            assert!(r.x_r() <= g.extent.0 + Um(1), "{r} vs {:?}", g.extent);
            assert!(r.y_t() <= g.extent.1 + Um(1));
        }
        // no block pair overlaps
        for (i, a) in g.block_rects.iter().enumerate() {
            for b in &g.block_rects[i + 1..] {
                assert!(!a.overlaps(b), "blocks overlap: {a} vs {b}");
            }
        }
        // flow rects have non-negative width and avoid foreign blocks
        for (fi, f) in plan.flows.iter().enumerate() {
            let fr = g.flow_rects[fi];
            for (bi, br) in g.block_rects.iter().enumerate() {
                if f.left.block() == Some(BlockId(bi)) || f.right.block() == Some(BlockId(bi)) {
                    continue;
                }
                assert!(!fr.overlaps(br), "flow {fr} crosses block {br}");
            }
        }
        // control rects avoid foreign blocks and each other
        for (ci, c) in plan.controls.iter().enumerate() {
            let cr = g.control_rects[ci];
            for (bi, br) in g.block_rects.iter().enumerate() {
                if bi == c.block.0 {
                    continue;
                }
                assert!(!cr.overlaps(br), "control {cr} crosses block {br}");
            }
            for (cj, _) in plan.controls.iter().enumerate().skip(ci + 1) {
                assert!(
                    !cr.overlaps(&g.control_rects[cj]),
                    "control rects overlap: {cr} vs {}",
                    g.control_rects[cj]
                );
            }
        }
    }

    #[test]
    fn chip4_generates_with_search() {
        let options = LayoutOptions {
            time_limit: Duration::from_secs(10),
            ..LayoutOptions::default()
        };
        let (plan, g) = gen(4, &options);
        assert!(g.report.status.has_solution(), "{:?}", g.report.status);
        assert!(!g.report.used_fallback);
        assert!(g.report.hint_used);
        assert_consistent(&plan, &g);
    }

    #[test]
    fn chip4_heuristic_only_is_fast_and_feasible() {
        let (plan, g) = gen(4, &LayoutOptions::heuristic_only());
        assert!(g.report.status.has_solution());
        assert_consistent(&plan, &g);
    }

    #[test]
    fn chip64_heuristic_scales() {
        let (plan, g) = gen(64, &LayoutOptions::heuristic_only());
        assert!(g.report.status.has_solution());
        assert_consistent(&plan, &g);
        // pruning must have removed a meaningful share of the pairs
        assert!(g.report.pruned_pairs > 0);
    }

    #[test]
    fn pruning_flag_controls_disjunction_count() {
        let (_, pruned) = gen(4, &LayoutOptions::heuristic_only());
        let (_, full) = gen(
            4,
            &LayoutOptions {
                prune_ordered_pairs: false,
                node_limit: 0,
                ..LayoutOptions::default()
            },
        );
        assert!(full.report.disjunctions > pruned.report.disjunctions);
        assert_eq!(full.report.pruned_pairs, 0);
        assert!(
            full.report.status.has_solution(),
            "model stays solvable, just bigger"
        );
    }

    #[test]
    fn no_warm_start_has_no_fallback() {
        let (n, _) = planarize(&generators::chip_ip(4, MuxCount::One));
        let plan = build_plan(&n).unwrap();
        let options = LayoutOptions {
            warm_start: false,
            node_limit: 0, // no search either: nothing can produce a layout
            time_limit: Duration::from_secs(1),
            ..LayoutOptions::default()
        };
        let e = generate(&plan, &options).unwrap_err();
        assert!(e.to_string().contains("warm starting is disabled"), "{e}");
    }

    #[test]
    fn search_improves_on_fallback() {
        // with search, the objective must be no worse than the pure
        // constructive layout's extent-driven objective
        let (_, fast) = gen(4, &LayoutOptions::heuristic_only());
        let options = LayoutOptions {
            time_limit: Duration::from_secs(10),
            ..LayoutOptions::default()
        };
        let (_, slow) = gen(4, &options);
        let (a, b) = (
            fast.report.objective.unwrap(),
            slow.report.objective.unwrap(),
        );
        assert!(
            b <= a + 1e-6,
            "search objective {b} worse than heuristic {a}"
        );
    }
}
