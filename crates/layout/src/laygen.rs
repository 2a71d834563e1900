//! Layout generation: the §3.2.1 MILP.
//!
//! Every entity of the [`Plan`] becomes a rectangle with four coordinate
//! variables. Constraints follow the paper: rectangle coupling (eq 1), chip
//! confinement (eq 2), four-way non-overlap disjunctions with `q1+q2+q3+q4
//! = 3` (eqs 3–5), boundary and module attachment (eqs 6–11 specialised to
//! the pin sides fixed by the netlist), switch coverage (eq 12) and the
//! weighted objective (eq 13).
//!
//! The entities are the plan's entity list (blocks, then flows, then
//! controls), and the disjunctions cover exactly the pairs of the plan's
//! pair rule, the same pairs the constructive placement's self-check keeps
//! from overlapping. So a self-checked placement satisfies one of the four
//! relations of every disjunction and gives the branch & bound its hint;
//! the only way it can fail the model is by two boundary inlets closer
//! than the inlet pitch `d'`, which the self-check does not cover.
//!
//! Two scalability devices keep the model solvable without Gurobi:
//! disjunctions are *pruned* for pairs whose left-to-right order is already
//! implied by the connection chains, and the constructive placement seeds
//! branch & bound with a feasible incumbent (with a zero node budget the
//! incumbent is simply polished by one LP, and without one nothing is
//! solved). [`generate`] returns a MILP solution or an error: laying the
//! placement out as it stands is the ladder's [`constructive_layout`], a
//! copy of the placement's rectangles. Both paths derive the channel
//! rectangles from the block rectangles by the same geometry.

use std::time::Duration;

use columba_geom::{Rect, Um, INLET_PITCH};
use columba_milp::{Model, ModelStats, Sense, SolveParams, SolveStats, SolveStatus, VarId};

use crate::constructive::Placement;
use crate::entities::{
    derive_control_rects, derive_flow_rects, ControlDir, EndKind, Entity, FlowKind, Plan,
};
use crate::error::LayoutError;
use crate::LayoutOptions;

const D_MM: f64 = 0.1; // d = 100um in mm

/// Diagnostics from the layout-generation solve.
#[derive(Debug, Clone)]
pub struct LaygenReport {
    /// MILP size.
    pub model_stats: ModelStats,
    /// Final solver status.
    pub status: SolveStatus,
    /// Objective of the returned layout (eq 13 value), if solved.
    pub objective: Option<f64>,
    /// Best proven lower bound on the objective: the objective itself when
    /// proven optimal, `-inf` when no relaxation bounded the solve (a
    /// hint polish alone, or the constructive rung).
    pub best_bound: f64,
    /// Relative gap `|objective - bound| / max(1, |objective|)`, when a
    /// layout was solved.
    pub gap: Option<f64>,
    /// Wall-clock time in the solver.
    pub elapsed: Duration,
    /// Non-overlap disjunctions kept after pruning.
    pub disjunctions: usize,
    /// Same-layer pairs pruned by the chain-order analysis.
    pub pruned_pairs: usize,
    /// Whether the constructive incumbent seeded the search.
    pub hint_used: bool,
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

/// Solves the layout MILP of `plan`, seeded by `placement` (`None` when
/// the constructive placement failed its self-check).
pub(crate) fn generate(
    plan: &Plan,
    placement: Option<&Placement>,
    options: &LayoutOptions,
) -> Result<GeneratedLayout, LayoutError> {
    let mut laygen_span = columba_obs::span("laygen");
    let mut build_span = columba_obs::span("laygen.model_build");
    let extent_mm = match placement {
        Some(p) => p.extent.0.max(p.extent.1).to_mm(),
        // no placement sized the chip: every block and flow entity side
        // by side, a millimetre apart
        None => plan
            .blocks
            .iter()
            .map(|b| b.width + b.height.unwrap_or(b.min_height))
            .chain(plan.flows.iter().map(|f| INLET_PITCH * f.count as i64))
            .map(|len| len.to_mm() + 1.0)
            .sum(),
    };
    let bound_mm = (extent_mm * 1.3 + 20.0).max(50.0);
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
    let x_max = model.num_var(0.0, bound_mm);
    let y_max = model.num_var(0.0, bound_mm);
    let xy_max = model.num_var(0.0, bound_mm);
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

    // x_l, x_r, y_b, y_t of every entity, indexed like `entities`
    let entities = plan.entities();
    let mut vars: Vec<[VarId; 4]> = Vec::with_capacity(entities.len());
    let new_rect_vars =
        |model: &mut Model| -> [VarId; 4] { std::array::from_fn(|_| model.num_var(0.0, bound_mm)) };

    // ---- blocks ----
    for b in &plan.blocks {
        let v = new_rect_vars(&mut model);
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
        vars.push(v);
    }

    // ---- flow entities ----
    for f in &plan.flows {
        let v = new_rect_vars(&mut model);
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
                    let bv = vars[block.0];
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
                    let byb = vars[block.0][2];
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
                    let bv = vars[block.0];
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
                    let sv = vars[block.0];
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

        vars.push(v);
    }

    // ---- control entities (rule 1 rectangles) ----
    for c in &plan.controls {
        let v = new_rect_vars(&mut model);
        let bv = vars[c.block.0];
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
        vars.push(v);
    }
    let flow_vars = |fi: usize| vars[nb + fi];

    // ---- order analysis for disjunction pruning ----
    let reach = reachability(plan, nb);
    let ordered = |a: Option<usize>, b: Option<usize>| -> bool {
        match (a, b) {
            (Some(x), Some(y)) => x == y || reach[x * nb + y],
            _ => false,
        }
    };
    // the blocks an entity starts and ends at along the flow chains
    let chain_ends = |e: Entity| -> (Option<usize>, Option<usize>) {
        match e {
            Entity::Block(b) => (Some(b), Some(b)),
            Entity::Flow(f) => (
                plan.flows[f].left.block().map(|b| b.0),
                plan.flows[f].right.block().map(|b| b.0),
            ),
            Entity::Control(c) => (
                Some(plan.controls[c].block.0),
                Some(plan.controls[c].block.0),
            ),
        }
    };

    // ---- eqs 3-5: non-overlap disjunctions over the pair rule's pairs ----
    let mut disjunctions: Vec<(usize, usize, [VarId; 4])> = Vec::new();
    let mut pruned = 0usize;
    for (i, j) in plan.overlap_pairs(&entities) {
        let ((a_start, a_end), (b_start, b_end)) =
            (chain_ends(entities[i]), chain_ends(entities[j]));
        if options.prune_ordered_pairs && (ordered(a_end, b_start) || ordered(b_end, a_start)) {
            pruned += 1;
            continue;
        }
        let q: [VarId; 4] = std::array::from_fn(|_| model.bin_var());
        let (av, bv) = (vars[i], vars[j]);
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
                let (vi, vj) = (flow_vars(i), flow_vars(j));
                let q = [model.bin_var(), model.bin_var()];
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
    // channel length: a flow entity's x extent, a control entity's y
    // extent, weighted by its channel count
    for (e, v) in entities.iter().zip(&vars) {
        let (count, lo, hi) = match *e {
            Entity::Block(_) => continue,
            Entity::Flow(f) => (plan.flows[f].count, v[0], v[1]),
            Entity::Control(c) => (plan.controls[c].count, v[2], v[3]),
        };
        obj = obj.term(options.kappa * count as f64, hi);
        obj = obj.term(-options.kappa * count as f64, lo);
    }
    model.minimize(obj);

    // ---- hint from the constructive placement ----
    let hint = placement
        .filter(|_| options.warm_start)
        .and_then(|p| build_hint(p, &entities, &disjunctions, &pitch_disjunctions));

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
    // a zero node budget only polishes the hint: without one, the cold
    // root LP it would solve instead never yields a layout
    if hint.is_none() && options.node_limit == 0 {
        return Err(not_found("node limit 0", false, placement, options));
    }
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
        best_bound: result.best_bound(),
        gap: result.gap(),
        elapsed: result.elapsed(),
        disjunctions: disjunctions.len(),
        pruned_pairs: pruned,
        hint_used: hint.is_some(),
        solve: result.stats().clone(),
    };

    match result.solution() {
        Some(sol) => {
            let to_um = |v: VarId| Um::from_mm(sol.value(v));
            let mut block_rects: Vec<Rect> = vars[..nb]
                .iter()
                .map(|v| Rect::new(to_um(v[0]), to_um(v[1]), to_um(v[2]), to_um(v[3])))
                .collect();
            realign_pins(plan, &mut block_rects);
            let extent = (to_um(x_max).max(Um(1)), to_um(y_max).max(Um(1)));
            let flow_rects =
                derive_flow_rects(plan, &block_rects, extent.0, |fi| to_um(flow_vars(fi)[2]));
            let control_rects = derive_control_rects(plan, &block_rects, extent.1);
            Ok(GeneratedLayout {
                block_rects,
                flow_rects,
                control_rects,
                extent,
                report: report_base,
            })
        }
        // a *proven* infeasible model is diagnosed: no rung may degrade it
        // into the constructive placement, which ignores the chip-size
        // budget the proof hinges on
        None if result.status() == SolveStatus::Infeasible => {
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
            Err(match model.diagnose_infeasibility(&probe) {
                Ok(Some(d)) => LayoutError::Infeasible {
                    detail: d.to_string(),
                    conflict: d.conflict,
                },
                _ => LayoutError::Infeasible {
                    conflict: Vec::new(),
                    detail: "the placement model admits no layout".into(),
                },
            })
        }
        None => Err(not_found(
            result.status(),
            hint.is_some(),
            placement,
            options,
        )),
    }
}

/// The error of a solve that ended without a layout, naming why no
/// constructive incumbent seeded it when none did.
fn not_found(
    status: impl std::fmt::Display,
    hinted: bool,
    placement: Option<&Placement>,
    options: &LayoutOptions,
) -> LayoutError {
    let why = if hinted {
        ""
    } else if !options.warm_start {
        "; warm starting is disabled (ablation mode)"
    } else if placement.is_none() {
        "; the constructive placement failed its self-check"
    } else {
        "; two boundary inlets of the constructive placement sit closer than the inlet pitch d'"
    };
    LayoutError::milp(format!(
        "no feasible layout found within budget ({status}){why}"
    ))
}

/// The constructive rung's layout: the placement's rectangles outright, no
/// MILP.
pub(crate) fn constructive_layout(placement: &Placement) -> GeneratedLayout {
    GeneratedLayout {
        block_rects: placement.block_rects.clone(),
        flow_rects: placement.flow_rects.clone(),
        control_rects: placement.control_rects.clone(),
        extent: placement.extent,
        report: LaygenReport {
            model_stats: ModelStats::default(),
            status: SolveStatus::LimitReached,
            objective: None,
            best_bound: f64::NEG_INFINITY,
            gap: None,
            elapsed: Duration::ZERO,
            disjunctions: 0,
            pruned_pairs: 0,
            hint_used: false,
            solve: SolveStats::default(),
        },
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

/// Builds the q-variable hint from the self-checked constructive
/// placement; `None` when two boundary inlets sit closer than the inlet
/// pitch `d'`, the one model relation the self-check does not cover.
fn build_hint(
    placement: &Placement,
    entities: &[Entity],
    disjunctions: &[(usize, usize, [VarId; 4])],
    pitch_disjunctions: &[(usize, usize, [VarId; 2])],
) -> Option<Vec<(VarId, f64)>> {
    let mut hint = Vec::with_capacity(disjunctions.len() * 4 + pitch_disjunctions.len() * 2);
    for &(i, j, q) in disjunctions {
        let (a, b) = (placement.rect(entities[i]), placement.rect(entities[j]));
        // the self-check kept every disjunction pair from overlapping, so
        // one of the four relations holds
        let zero = if a.x_r() <= b.x_l() {
            0
        } else if b.x_r() <= a.x_l() {
            1
        } else if a.y_t() <= b.y_b() {
            2
        } else {
            3
        };
        for (k, &qv) in q.iter().enumerate() {
            hint.push((qv, if k == zero { 0.0 } else { 1.0 }));
        }
    }
    for &(i, j, q) in pitch_disjunctions {
        let (a, b) = (placement.flow_rects[i], placement.flow_rects[j]);
        let zero = if a.y_t() + INLET_PITCH <= b.y_b() {
            0
        } else if b.y_t() + INLET_PITCH <= a.y_b() {
            1
        } else {
            return None;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructive;
    use crate::entities::{build_plan, BlockId};
    use columba_netlist::{generators, MuxCount};
    use columba_planar::planarize;

    /// The plan of chip_ip(`lanes`) and its self-checked placement.
    fn placed(lanes: usize) -> (Plan, Placement) {
        let (n, _) = planarize(&generators::chip_ip(lanes, MuxCount::One));
        let plan = build_plan(&n).unwrap();
        let placement = constructive::place(&plan).unwrap().expect("self-checks");
        (plan, placement)
    }

    fn gen(lanes: usize, options: &LayoutOptions) -> (Plan, GeneratedLayout) {
        let (plan, placement) = placed(lanes);
        let g = generate(&plan, Some(&placement), options).unwrap();
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

    /// A branch & bound pinned by its node count on one worker, with a
    /// clock that never fires: the same work on every run and machine.
    fn pinned_search(nodes: usize) -> LayoutOptions {
        LayoutOptions {
            threads: 1,
            node_limit: nodes,
            time_limit: Duration::from_secs(3600),
            ..LayoutOptions::default()
        }
    }

    #[test]
    fn chip4_generates_with_search() {
        let options = pinned_search(4);
        let (plan, g) = gen(4, &options);
        assert!(g.report.status.has_solution(), "{:?}", g.report.status);
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
        let (plan, placement) = placed(4);
        let options = LayoutOptions {
            warm_start: false,
            // no search either: nothing can produce a layout, so nothing
            // is solved
            ..pinned_search(0)
        };
        let rec = columba_obs::SpanRecorder::new(256);
        columba_obs::set_enabled(true);
        let guard = rec.install();
        let e = generate(&plan, Some(&placement), &options).unwrap_err();
        drop(guard);
        columba_obs::set_enabled(false);
        assert!(e.to_string().contains("warm starting is disabled"), "{e}");
        assert!(e.to_string().contains("within budget"), "{e}");
        let names: Vec<&str> = rec.finished().iter().map(|s| s.name).collect();
        assert!(names.contains(&"laygen.model_build"), "{names:?}");
        assert!(!names.contains(&"milp.solve"), "{names:?}");
    }

    #[test]
    fn hint_refusal_names_the_inlet_pitch() {
        let (plan, mut placement) = placed(4);
        // two flow entities with inlets on the same chip boundary
        let on_boundary = |left: bool| -> Vec<usize> {
            (0..plan.flows.len())
                .filter(|&fi| {
                    let f = &plan.flows[fi];
                    (if left { f.left } else { f.right }) == EndKind::Boundary
                })
                .collect()
        };
        let (i, j) = [on_boundary(true), on_boundary(false)]
            .into_iter()
            .find_map(|side| (side.len() >= 2).then(|| (side[0], side[1])))
            .expect("chip4 has two inlets on one boundary");
        // move j to sit half an inlet pitch above i
        let (a, b) = (placement.flow_rects[i], placement.flow_rects[j]);
        let y_b = a.y_t() + INLET_PITCH / 2;
        placement.flow_rects[j] = Rect::new(b.x_l(), b.x_r(), y_b, y_b + b.height());
        let e = generate(&plan, Some(&placement), &pinned_search(0)).unwrap_err();
        assert!(
            e.to_string()
                .contains("two boundary inlets of the constructive placement sit closer than the inlet pitch d'"),
            "{e}"
        );
    }

    /// The plan and self-checked placement of each bundled case the pair
    /// rule and the constructive rung are pinned on.
    fn bundled_cases() -> Vec<(&'static str, Plan, Placement)> {
        [
            ("chip4ip", generators::chip_ip(4, MuxCount::One)),
            ("kinase", generators::kinase_activity(MuxCount::One)),
            ("mrna", generators::mrna_isolation(MuxCount::One)),
            ("nucleic", generators::nucleic_acid_processor(MuxCount::One)),
            ("chip64", generators::chip_ip(64, MuxCount::One)),
        ]
        .into_iter()
        .map(|(name, raw)| {
            let plan = build_plan(&planarize(&raw).0).unwrap();
            let placement = constructive::place(&plan).unwrap().expect("self-checks");
            (name, plan, placement)
        })
        .collect()
    }

    #[test]
    fn model_and_self_check_share_the_pair_rule() {
        for (name, plan, placement) in bundled_cases() {
            let g = generate(&plan, Some(&placement), &pinned_search(0)).unwrap();
            let checked = plan.overlap_pairs(&plan.entities()).count();
            assert_eq!(
                g.report.disjunctions + g.report.pruned_pairs,
                checked,
                "{name}: every pair the self-check examines is a disjunction or pruned"
            );
        }
    }

    #[test]
    fn constructive_rung_lays_out_the_placement_exactly() {
        for (name, _, placement) in bundled_cases() {
            let g = constructive_layout(&placement);
            assert_eq!(g.block_rects, placement.block_rects, "{name}");
            assert_eq!(g.flow_rects, placement.flow_rects, "{name}");
            assert_eq!(g.control_rects, placement.control_rects, "{name}");
            assert_eq!(g.extent, placement.extent, "{name}");
        }
    }

    #[test]
    fn search_improves_on_fallback() {
        // with search, the objective must be no worse than the pure
        // constructive layout's extent-driven objective
        let (_, fast) = gen(4, &LayoutOptions::heuristic_only());
        let (_, slow) = gen(4, &pinned_search(24));
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
