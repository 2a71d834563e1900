//! Constructive row placement.
//!
//! Produces a feasible (not optimal) placement of the plan's entities:
//! blocks receive pairwise-disjoint x intervals in topological order of the
//! flow connections (so every channel runs left-to-right), and pin-aligned
//! chains are grouped into *clusters* stacked in disjoint y bands. The flow
//! and control rectangles then follow from the block rectangles by the same
//! geometry the MILP's solution goes through. The placement seeds the
//! MILP's branch & bound with an incumbent — with the node budget at zero
//! it *is* the layout, polished by one LP, which is the scalable mode that
//! keeps 250-unit designs inside the paper's three-minute envelope.
//!
//! The self-check is the eqs 3–5 pair rule applied to the placement's
//! rectangles: no entity pair the model keeps apart may overlap. A
//! placement that fails it is never returned: it can neither seed the MILP
//! nor stand in for it.

use std::collections::HashMap;

use columba_geom::{Rect, Um, INLET_PITCH, MIN_CHANNEL_SPACING};

use crate::entities::{derive_control_rects, derive_flow_rects, flow_span, EndKind, Entity, Plan};
use crate::error::LayoutError;

const D: Um = MIN_CHANNEL_SPACING;
/// Horizontal clearance between consecutive block columns.
const COL_GAP: Um = Um(1_000);
/// Vertical clearance between cluster bands.
const BAND_GAP: Um = Um(800);

/// A constructive placement that passed its self-check: one rectangle per
/// entity, indexed like the plan's vectors.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    /// One rectangle per plan block.
    pub block_rects: Vec<Rect>,
    /// One rectangle per flow entity.
    pub flow_rects: Vec<Rect>,
    /// One rectangle per control entity.
    pub control_rects: Vec<Rect>,
    /// Chip extents `(x_max, y_max)`.
    pub extent: (Um, Um),
}

impl Placement {
    /// The rectangle of entity `e`.
    pub(crate) fn rect(&self, e: Entity) -> Rect {
        match e {
            Entity::Block(b) => self.block_rects[b],
            Entity::Flow(f) => self.flow_rects[f],
            Entity::Control(c) => self.control_rects[c],
        }
    }
}

/// Builds the constructive placement; `None` when no attempt passes the
/// overlap self-check.
///
/// # Errors
///
/// Returns [`LayoutError::Unroutable`] when the flow connections are cyclic
/// (impossible under left-to-right routing).
pub(crate) fn place(plan: &Plan) -> Result<Option<Placement>, LayoutError> {
    let _span = columba_obs::span("laygen.place");
    let n = plan.blocks.len();

    // ---- topological order over flow edges ----
    // Cluster-greedy Kahn: after emitting a block, its pin-linked successor
    // (which then has indegree 0, its only predecessor being the chain) is
    // emitted immediately. This keeps rigid pin-aligned chains in
    // consecutive columns so their channels never cross a foreign column.
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pin_next: Vec<Option<usize>> = vec![None; n];
    for f in &plan.flows {
        if let (Some(a), Some(b)) = (f.left.block(), f.right.block()) {
            succs[a.0].push(b.0);
            indegree[b.0] += 1;
            if matches!(
                (f.left, f.right),
                (EndKind::Pin { .. }, EndKind::Pin { .. })
                    | (EndKind::FullSide { .. }, EndKind::Pin { .. })
                    | (EndKind::Pin { .. }, EndKind::FullSide { .. })
            ) {
                pin_next[a.0] = Some(b.0);
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut emitted = vec![false; n];
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut chain_head: Option<usize> = None;
    while topo.len() < n {
        let v = match chain_head.take() {
            Some(v) if !emitted[v] && indegree[v] == 0 => v,
            _ => {
                if ready.is_empty() {
                    break; // cycle
                }
                // switches first: their columns must precede the lane
                // columns so boundary-exit channels never cross a switch
                let pick = ready
                    .iter()
                    .rposition(|&b| plan.blocks[b].is_switch())
                    .unwrap_or(ready.len() - 1);
                ready.remove(pick)
            }
        };
        if emitted[v] {
            continue;
        }
        emitted[v] = true;
        topo.push(v);
        for &w in &succs[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 && pin_next[v] != Some(w) {
                ready.push(w);
            }
        }
        if let Some(w) = pin_next[v] {
            if !emitted[w] && indegree[w] == 0 {
                chain_head = Some(w);
            }
            // if w is still blocked by another predecessor it re-enters via
            // `ready` when that predecessor is emitted
        }
    }
    if topo.len() != n {
        return Err(LayoutError::Unroutable(
            "flow connections form a cycle; straight left-to-right routing is impossible".into(),
        ));
    }

    // ---- x: pairwise-disjoint columns in topological order ----
    let mut x_l = vec![Um::ZERO; n];
    let mut cursor = COL_GAP;
    for &b in &topo {
        x_l[b] = cursor;
        cursor += plan.blocks[b].width + COL_GAP;
    }
    let x_max = cursor;

    // ---- clusters: blocks linked by pin-to-pin channels share a band ----
    // union-find with relative y offsets: rel[b] is b's y_b relative to its
    // cluster root
    let mut parent: Vec<usize> = (0..n).collect();
    let mut rel = vec![Um::ZERO; n];
    fn find(parent: &mut Vec<usize>, rel: &mut Vec<Um>, v: usize) -> (usize, Um) {
        if parent[v] == v {
            return (v, Um::ZERO);
        }
        let (root, off) = find(parent, rel, parent[v]);
        parent[v] = root;
        rel[v] += off;
        (root, rel[v])
    }
    let mut group_anchor_lane: HashMap<usize, usize> = HashMap::new();
    for f in &plan.flows {
        // y-rigid links: pin-to-pin equality, and pin-into-group-range
        // containment (anchored at one of the group's lane pins — rotating
        // through lanes keeps boundary inlets of several linked singles at
        // lane pitch, which respects the d' inlet rule)
        let link: Option<(usize, usize, Um)> = match (f.left, f.right) {
            (
                EndKind::Pin {
                    block: ba,
                    component: ca,
                },
                EndKind::Pin {
                    block: bb,
                    component: cb,
                },
            ) => {
                let off_a = plan.blocks[ba.0]
                    .pin_y_offset(ca)
                    .expect("member of its block");
                let off_b = plan.blocks[bb.0]
                    .pin_y_offset(cb)
                    .expect("member of its block");
                // y_b(bb) + off_b = y_b(ba) + off_a
                Some((ba.0, bb.0, off_a - off_b))
            }
            (
                EndKind::FullSide { block: g },
                EndKind::Pin {
                    block: bb,
                    component: cb,
                },
            )
            | (
                EndKind::Pin {
                    block: bb,
                    component: cb,
                },
                EndKind::FullSide { block: g },
            ) => {
                let lane = {
                    let slot = group_anchor_lane.entry(g.0).or_insert(0);
                    let lanes = plan.blocks[g.0]
                        .members
                        .iter()
                        .map(|m| m.lane)
                        .max()
                        .unwrap_or(0)
                        + 1;
                    let l = *slot % lanes;
                    *slot += 1;
                    l
                };
                let anchor = plan.blocks[g.0]
                    .members
                    .iter()
                    .find(|m| m.lane == lane)
                    .map(|m| (m.rel.y_b() + m.rel.y_t()) / 2)
                    .expect("group lane has a member");
                let off_b = plan.blocks[bb.0]
                    .pin_y_offset(cb)
                    .expect("member of its block");
                Some((g.0, bb.0, anchor - off_b))
            }
            _ => None,
        };
        let Some((a, b, delta)) = link else { continue };
        let (ra, oa) = find(&mut parent, &mut rel, a);
        let (rb, ob) = find(&mut parent, &mut rel, b);
        if ra != rb {
            // attach rb under ra so that the y relation holds
            parent[rb] = ra;
            rel[rb] = oa + delta - ob;
        }
    }

    // collect clusters (skip switches: they become y-flexible columns)
    let mut clusters: HashMap<usize, Vec<usize>> = HashMap::new();
    for b in 0..n {
        if plan.blocks[b].is_switch() {
            continue;
        }
        let (root, _) = find(&mut parent, &mut rel, b);
        clusters.entry(root).or_default().push(b);
    }

    // band order: group clusters that talk to the same switch together so
    // long channels do not cross a foreign switch's band span
    let mut cluster_switch: HashMap<usize, usize> = HashMap::new();
    for f in &plan.flows {
        let switch_end = [f.left, f.right]
            .into_iter()
            .find(|e| e.block().is_some_and(|b| plan.blocks[b.0].is_switch()));
        let other_end = [f.left, f.right]
            .into_iter()
            .find(|e| e.block().is_some_and(|b| !plan.blocks[b.0].is_switch()));
        if let (Some(se), Some(oe)) = (switch_end, other_end) {
            let sw = se.block().expect("checked").0;
            let ob = oe.block().expect("checked").0;
            let (root, _) = find(&mut parent, &mut rel, ob);
            cluster_switch.entry(root).or_insert(sw);
        }
    }
    let topo_pos: Vec<usize> = {
        let mut pos = vec![0usize; n];
        for (i, &b) in topo.iter().enumerate() {
            pos[b] = i;
        }
        pos
    };
    // Client bands are stacked in *descending* column order of their switch:
    // an entity from switch S to its clients then crosses later-column
    // switches only above their hulls. Unattached clusters go on top.
    let mut cluster_list: Vec<(usize, Vec<usize>)> = clusters.into_iter().collect();
    cluster_list.sort_by_key(|(root, members)| {
        let sw_key = match cluster_switch.get(root) {
            Some(&sw) => (0usize, usize::MAX - topo_pos[sw]),
            None => (1usize, 0),
        };
        let min_topo = members.iter().map(|&b| topo_pos[b]).min().unwrap_or(0);
        (sw_key, min_topo, *root)
    });

    // ---- flexible entities ----
    // Boundary↔switch bundles and switch↔switch junction channels have
    // freely choosable heights. They live either in a *bottom region* below
    // all cluster bands or a *top region* above them; the switches they
    // attach stretch to cover them (eq 12), so the assignment decides which
    // columns other entities may safely cross. A structured first attempt
    // covers the common single-switch and parallel-group topologies; for
    // cascaded multi-switch netlists the placer falls back to randomized
    // restarts over track orderings, validated by the overlap self-check.
    let is_switch_end = |e: EndKind| e.block().is_some_and(|b| plan.blocks[b.0].is_switch());
    let mut bundles: Vec<usize> = Vec::new(); // flow indices, Boundary↔Switch
    let mut swsw: Vec<usize> = Vec::new(); // flow indices, Switch↔Switch
    for (fi, f) in plan.flows.iter().enumerate() {
        match (f.left, f.right) {
            (EndKind::Boundary, e) | (e, EndKind::Boundary) if is_switch_end(e) => {
                bundles.push(fi);
            }
            (a, b) if is_switch_end(a) && is_switch_end(b) => swsw.push(fi),
            _ => {}
        }
    }
    let flex_target = |fi: usize| -> usize {
        let f = &plan.flows[fi];
        [f.left, f.right]
            .into_iter()
            .filter_map(|e| e.block())
            .max_by_key(|b| topo_pos[b.0])
            .expect("flexible entity touches a switch")
            .0
    };

    // fixed bottom-region budget: every flexible entity could live there
    let flex_total: Um = bundles
        .iter()
        .chain(swsw.iter())
        .map(|&fi| plan.flows[fi].kind.track_height() + INLET_PITCH)
        .sum();
    let bottom_region_top = D * 4 + flex_total;

    // ---- y: stack cluster bands above the bottom region (fixed across
    // flexible-track attempts); switches keep an empty span until their
    // flows are placed ----
    let mut block_rects: Vec<Rect> = (0..n)
        .map(|b| Rect::new(x_l[b], x_l[b] + plan.blocks[b].width, Um::ZERO, Um::ZERO))
        .collect();
    let mut band_cursor = bottom_region_top + BAND_GAP;
    for (_, members) in &cluster_list {
        let rels: Vec<Um> = members
            .iter()
            .map(|&b| {
                let (_, o) = find(&mut parent, &mut rel, b);
                o
            })
            .collect();
        let min_rel = rels.iter().copied().fold(rels[0], Um::min);
        let mut band_top = band_cursor;
        for (&b, &r) in members.iter().zip(&rels) {
            let h = plan.blocks[b].height.unwrap_or(plan.blocks[b].min_height);
            let y_b = band_cursor + (r - min_rel);
            block_rects[b] = Rect::new(x_l[b], x_l[b] + plan.blocks[b].width, y_b, y_b + h);
            band_top = band_top.max(y_b + h);
        }
        band_cursor = band_top + BAND_GAP;
    }
    let bands_top = band_cursor;

    // assembles a full placement for one flexible-track assignment:
    // `order` lists flexible flow indices; `in_top[i]` routes order[i] to
    // the top region instead of the bottom one
    let assemble = |order: &[usize], in_top: &[bool]| -> Placement {
        let mut flex_y_b = vec![Um::ZERO; plan.flows.len()];
        let mut bottom_cursor = D * 4;
        let mut top_cursor = bands_top + BAND_GAP;
        for (&fi, &top) in order.iter().zip(in_top) {
            let cursor = if top {
                &mut top_cursor
            } else {
                &mut bottom_cursor
            };
            flex_y_b[fi] = *cursor;
            *cursor += plan.flows[fi].kind.track_height() + INLET_PITCH;
        }
        let mut block_rects = block_rects.clone();
        let flow_rects = derive_flow_rects(plan, &block_rects, x_max, |fi| flex_y_b[fi]);
        // eq 12: every switch stretches over the flow entities it attaches
        let mut sw_span: Vec<Option<(Um, Um)>> = vec![None; n];
        for (f, r) in plan.flows.iter().zip(&flow_rects) {
            for b in [f.left, f.right].into_iter().filter_map(|e| e.block()) {
                if plan.blocks[b.0].is_switch() {
                    let span = sw_span[b.0].get_or_insert((r.y_b(), r.y_t()));
                    *span = (span.0.min(r.y_b()), span.1.max(r.y_t()));
                }
            }
        }
        for (sw, span) in sw_span.into_iter().enumerate() {
            let Some((lo, hi)) = span else { continue };
            let lo = (lo - D * 2).max(Um::ZERO);
            let hi = (hi + D * 2).max(lo + plan.blocks[sw].min_height);
            let r = block_rects[sw];
            block_rects[sw] = Rect::new(r.x_l(), r.x_r(), lo, hi);
        }
        let y_max = block_rects.iter().map(Rect::y_t).fold(top_cursor, Um::max) + BAND_GAP;
        let control_rects = derive_control_rects(plan, &block_rects, y_max);
        Placement {
            block_rects,
            flow_rects,
            control_rects,
            extent: (x_max, y_max),
        }
    };

    // attempt 0: structured — bundles in the bottom region (later-column
    // target lower), switch-switch tracks in the top region (later-column
    // target higher)
    let mut order0 = bundles.clone();
    order0.sort_by_key(|&fi| std::cmp::Reverse(topo_pos[flex_target(fi)]));
    let mut swsw0 = swsw.clone();
    swsw0.sort_by_key(|&fi| topo_pos[flex_target(fi)]);
    let mut in_top0 = vec![false; order0.len()];
    in_top0.extend(std::iter::repeat_n(true, swsw0.len()));
    order0.extend_from_slice(&swsw0);

    let entities = plan.entities();
    let placement = assemble(&order0, &in_top0);
    if self_check(plan, &entities, &placement) {
        return Ok(Some(placement));
    }

    // randomized restarts over track orderings for cascaded topologies
    if !order0.is_empty() {
        let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic xorshift seed
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let all: Vec<usize> = bundles.iter().chain(swsw.iter()).copied().collect();
        for _ in 0..400 {
            let mut order = all.clone();
            // Fisher-Yates
            for i in (1..order.len()).rev() {
                let j = (rng() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let in_top: Vec<bool> = order
                .iter()
                .map(|&fi| swsw.contains(&fi) && rng() % 2 == 0)
                .collect();
            let candidate = assemble(&order, &in_top);
            if self_check(plan, &entities, &candidate) {
                return Ok(Some(candidate));
            }
        }
    }
    Ok(None)
}

/// The self-check: eqs 3–5 on the placement's rectangles. No pair the
/// pair rule names may strictly overlap, and every flow entity must run
/// left to right (its rectangle orders its span, so this is checked on
/// the ends themselves).
fn self_check(plan: &Plan, entities: &[Entity], p: &Placement) -> bool {
    plan.flows.iter().all(|f| {
        let (x_l, x_r) = flow_span(f, &p.block_rects, p.extent.0);
        x_l <= x_r
    }) && plan
        .overlap_pairs(entities)
        .all(|(i, j)| !p.rect(entities[i]).overlaps(&p.rect(entities[j])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::build_plan;
    use columba_netlist::{generators, MuxCount};
    use columba_planar::planarize;

    fn placed(lanes: usize) -> (Plan, Placement) {
        let (n, _) = planarize(&generators::chip_ip(lanes, MuxCount::One));
        let plan = build_plan(&n).unwrap();
        let p = place(&plan)
            .unwrap()
            .expect("constructive placement must self-check clean");
        (plan, p)
    }

    #[test]
    fn chip4_placement_feasible() {
        let (plan, p) = placed(4);
        assert_eq!(p.block_rects.len(), plan.blocks.len());
        // diagonal x: all blocks pairwise disjoint in x
        let mut spans: Vec<(Um, Um)> = p.block_rects.iter().map(|r| (r.x_l(), r.x_r())).collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "columns overlap: {w:?}");
        }
    }

    #[test]
    fn chip64_placement_feasible() {
        let (_, p) = placed(64);
        let (x, y) = p.extent;
        assert!(x > Um::ZERO && y > Um::ZERO);
    }

    #[test]
    fn pin_alignment_holds() {
        let (plan, p) = placed(4);
        for f in &plan.flows {
            let (
                EndKind::Pin {
                    block: ba,
                    component: ca,
                },
                EndKind::Pin {
                    block: bb,
                    component: cb,
                },
            ) = (f.left, f.right)
            else {
                continue;
            };
            let ya = p.block_rects[ba.0].y_b() + plan.blocks[ba.0].pin_y_offset(ca).unwrap();
            let yb = p.block_rects[bb.0].y_b() + plan.blocks[bb.0].pin_y_offset(cb).unwrap();
            assert_eq!(ya, yb, "pin-aligned blocks share channel height");
        }
    }

    #[test]
    fn switch_covers_attachments() {
        let (plan, p) = placed(8);
        for (fi, f) in plan.flows.iter().enumerate() {
            for e in [f.left, f.right] {
                let Some(b) = e.block() else { continue };
                if !plan.blocks[b.0].is_switch() {
                    continue;
                }
                let (s, f) = (p.block_rects[b.0], p.flow_rects[fi]);
                assert!(
                    s.y_b() <= f.y_b() && f.y_t() <= s.y_t(),
                    "switch spans its junction channels"
                );
            }
        }
    }

    #[test]
    fn random_netlists_place_feasibly() {
        let mut rng = columba_prng::Rng::seed_from_u64(42);
        for units in [3usize, 8, 15, 30] {
            let raw = generators::random_netlist(&mut rng, units);
            let (n, _) = planarize(&raw);
            let plan = build_plan(&n).unwrap();
            assert!(
                place(&plan).unwrap().is_some(),
                "random netlist with {units} units fails its self-check"
            );
        }
    }
}

#[cfg(test)]
mod cascade_tests {
    use super::*;
    use crate::entities::build_plan;
    use columba_netlist::{generators, MuxCount};
    use columba_planar::planarize;

    /// Cascaded multi-way nets create switch-feeding-switch topologies;
    /// the randomized-restart placer must still find a feasible layout.
    #[test]
    fn mrna_cascade_places_feasibly() {
        let (n, _) = planarize(&generators::mrna_isolation(MuxCount::One));
        let plan = build_plan(&n).unwrap();
        assert!(place(&plan).unwrap().is_some(), "mrna fails its self-check");
    }

    #[test]
    fn nucleic_cascade_places_feasibly() {
        let (n, _) = planarize(&generators::nucleic_acid_processor(MuxCount::One));
        let plan = build_plan(&n).unwrap();
        assert!(
            place(&plan).unwrap().is_some(),
            "nucleic fails its self-check"
        );
    }
}
