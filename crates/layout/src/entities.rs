//! Model reduction: netlist → rectangle entities (paper §3.2.1).
//!
//! The layout-generation MILP does not see individual modules and channels;
//! it sees *entities*:
//!
//! * a [`Block`] per independent component, per parallel-execution group
//!   (the units of a group are pre-placed into stacked lanes and merged into
//!   one rectangle, Fig 6(a)), and per switch;
//! * a [`FlowEntity`] per inter-block flow connection, merged under the
//!   paper's rules 2 and 3 (same-boundary channels of a multi-unit
//!   rectangle; switch-to-boundary inlet bundles with `n·d'` pitch);
//! * a [`ControlEntity`] per block per MUX direction, merged under rule 1
//!   (width follows the block).
//!
//! The MILP, the constructive placement and its self-check share one index
//! space over these rectangles (`Plan::entities`: blocks, then flows, then
//! controls), one rectangle geometry (`derive_flow_rects` and
//! `derive_control_rects` place the channel rectangles from the block
//! rectangles) and one pair rule (`Plan::must_not_overlap`, the pairs eqs
//! 3–5 keep apart).

use std::collections::HashMap;

use columba_geom::{Rect, Um, INLET_PITCH, MIN_CHANNEL_SPACING};
use columba_modules::ModuleModel;
use columba_netlist::{
    ComponentId, ComponentKind, Connection, ControlAccess, Endpoint, MuxCount, Netlist, UnitSide,
};

use crate::error::LayoutError;

/// Horizontal gap left between sequential members of a lane (room for the
/// connecting channel).
pub(crate) const LANE_GAP_X: Um = Um(400);
/// Vertical gap between stacked lanes of a group.
pub(crate) const LANE_GAP_Y: Um = Um(200);

/// Index of a block within [`Plan::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// What a block stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// One mixer or chamber.
    Single(ComponentId),
    /// A merged parallel-execution group.
    Group,
    /// A switch (y-extensible).
    Switch(ComponentId),
}

/// A member module pre-placed inside a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberPlace {
    /// The netlist component.
    pub component: ComponentId,
    /// Lane index within the block (0 = bottom).
    pub lane: usize,
    /// Footprint relative to the block origin (bottom-left).
    pub rel: Rect,
}

/// A rectangle entity for the MILP: a component, group or switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Display label.
    pub label: String,
    /// What the block stands for.
    pub kind: BlockKind,
    /// Fixed width.
    pub width: Um,
    /// Fixed height, or `None` for y-extensible switches.
    pub height: Option<Um>,
    /// Minimum height (seeds extensible switches).
    pub min_height: Um,
    /// Pre-placed members (one entry for singles/switches).
    pub members: Vec<MemberPlace>,
}

impl Block {
    /// The flow-pin y offset (relative to the block bottom) of `component`:
    /// the vertical centre of its pre-placed footprint.
    #[must_use]
    pub fn pin_y_offset(&self, component: ComponentId) -> Option<Um> {
        self.members
            .iter()
            .find(|m| m.component == component)
            .map(|m| (m.rel.y_b() + m.rel.y_t()) / 2)
    }

    /// `true` when the block merges several functional units.
    #[must_use]
    pub fn is_group(&self) -> bool {
        matches!(self.kind, BlockKind::Group)
    }

    /// `true` for y-extensible switch blocks.
    #[must_use]
    pub fn is_switch(&self) -> bool {
        matches!(self.kind, BlockKind::Switch(_))
    }
}

/// One end of a flow entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndKind {
    /// A fixed pin of a specific member module.
    Pin {
        /// The block holding the member.
        block: BlockId,
        /// The member whose boundary pin this is.
        component: ComponentId,
    },
    /// A y-flexible junction on a switch.
    SwitchSide {
        /// The switch block.
        block: BlockId,
    },
    /// The full boundary of a merged multi-unit block (rule 2).
    FullSide {
        /// The group block.
        block: BlockId,
    },
    /// The chip flow boundary (fluid inlets live here).
    Boundary,
}

impl EndKind {
    /// The attached block, if any.
    #[must_use]
    pub fn block(&self) -> Option<BlockId> {
        match self {
            EndKind::Pin { block, .. }
            | EndKind::SwitchSide { block }
            | EndKind::FullSide { block } => Some(*block),
            EndKind::Boundary => None,
        }
    }
}

/// Height class of a flow entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// A single channel: fixed height `2d`.
    Thin,
    /// Rule 2: spans the full height of the named group block.
    FullHeight(BlockId),
    /// Rule 3: a bundle of `n` switch-to-boundary channels at pitch `d'`.
    InletBundle(usize),
}

impl FlowKind {
    /// The height of an entity no group block spans: `2d` for a single
    /// channel, `n·d'` for a bundle of `n` inlets.
    pub(crate) fn track_height(self) -> Um {
        match self {
            FlowKind::InletBundle(n) => INLET_PITCH * n as i64,
            _ => MIN_CHANNEL_SPACING * 2,
        }
    }
}

/// A merged horizontal flow-channel rectangle between two attachments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntity {
    /// The left attachment (the entity's `x_l` edge).
    pub left: EndKind,
    /// The right attachment (the entity's `x_r` edge).
    pub right: EndKind,
    /// Height class.
    pub kind: FlowKind,
    /// Number of physical channels merged into this rectangle (`n_rf`).
    pub count: usize,
    /// Indices into `netlist.connections()` of the merged connections.
    pub conns: Vec<usize>,
}

/// Which MUX boundary a control entity extends to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlDir {
    /// Towards the bottom MUX boundary.
    Down,
    /// Towards the top MUX boundary (2-MUX designs only).
    Up,
}

/// Rule 1: all control channels of one block leaving in one direction,
/// merged into a rectangle of the block's width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlEntity {
    /// The owning block.
    pub block: BlockId,
    /// Direction.
    pub dir: ControlDir,
    /// Number of control channels merged (`n_rc`).
    pub count: usize,
}

/// The reduced model handed to layout generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Rectangle entities.
    pub blocks: Vec<Block>,
    /// Merged flow-channel entities.
    pub flows: Vec<FlowEntity>,
    /// Merged control-channel entities.
    pub controls: Vec<ControlEntity>,
    /// Indices of intra-block connections (routed during validation).
    pub intra: Vec<usize>,
    /// Block assignment per component index.
    pub comp_block: Vec<BlockId>,
    /// MUX configuration copied from the netlist.
    pub mux_count: MuxCount,
}

impl Plan {
    /// Total number of control channels reaching `dir`.
    #[must_use]
    pub fn control_channels(&self, dir: ControlDir) -> usize {
        self.controls
            .iter()
            .filter(|c| c.dir == dir)
            .map(|c| c.count)
            .sum()
    }

    /// The entity list: every block, then every flow entity, then every
    /// control entity. Position `i` in it is entity `i` of the model.
    pub(crate) fn entities(&self) -> Vec<Entity> {
        (0..self.blocks.len())
            .map(Entity::Block)
            .chain((0..self.flows.len()).map(Entity::Flow))
            .chain((0..self.controls.len()).map(Entity::Control))
            .collect()
    }

    /// The eqs 3–5 pair rule: `true` when `a` and `b` must not overlap.
    /// Flow and control entities lie on different layers and never pair; a
    /// flow entity may touch its end blocks, a control entity its own block.
    pub(crate) fn must_not_overlap(&self, a: Entity, b: Entity) -> bool {
        match (a, b) {
            (Entity::Flow(_), Entity::Control(_)) | (Entity::Control(_), Entity::Flow(_)) => false,
            (Entity::Block(b), Entity::Flow(f)) | (Entity::Flow(f), Entity::Block(b)) => {
                let f = &self.flows[f];
                ![f.left, f.right]
                    .into_iter()
                    .any(|e| e.block() == Some(BlockId(b)))
            }
            (Entity::Block(b), Entity::Control(c)) | (Entity::Control(c), Entity::Block(b)) => {
                self.controls[c].block != BlockId(b)
            }
            _ => true,
        }
    }

    /// Every position pair `(i, j)`, `i < j`, of `entities` that the pair
    /// rule keeps apart, in row-major order.
    pub(crate) fn overlap_pairs<'a>(
        &'a self,
        entities: &'a [Entity],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        (0..entities.len())
            .flat_map(move |i| ((i + 1)..entities.len()).map(move |j| (i, j)))
            .filter(move |&(i, j)| self.must_not_overlap(entities[i], entities[j]))
    }
}

/// One rectangle of the layout model, by index into its [`Plan`] vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entity {
    /// A block of [`Plan::blocks`].
    Block(usize),
    /// A flow entity of [`Plan::flows`].
    Flow(usize),
    /// A control entity of [`Plan::controls`].
    Control(usize),
}

/// The x span of flow entity `f`, from its left end to its right end: the
/// right edge of its left block (or the left chip boundary, 0) to the left
/// edge of its right block (or the right boundary, `x_max`). Left-to-right
/// routing needs the first no larger than the second.
pub(crate) fn flow_span(f: &FlowEntity, block_rects: &[Rect], x_max: Um) -> (Um, Um) {
    let x_l = f.left.block().map_or(Um::ZERO, |b| block_rects[b.0].x_r());
    let x_r = f.right.block().map_or(x_max, |b| block_rects[b.0].x_l());
    (x_l, x_r)
}

/// The flow-entity rectangles over `block_rects`: x spans the entity's
/// ends ([`flow_span`], ordered), y follows its group block or its pin;
/// an entity with neither starts at `flex_y_b(index)`.
pub(crate) fn derive_flow_rects(
    plan: &Plan,
    block_rects: &[Rect],
    x_max: Um,
    flex_y_b: impl Fn(usize) -> Um,
) -> Vec<Rect> {
    plan.flows
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let (x_l, x_r) = flow_span(f, block_rects, x_max);
            let pin = [f.left, f.right].into_iter().find_map(|e| match e {
                EndKind::Pin { block, component } => {
                    let off = plan.blocks[block.0].pin_y_offset(component)?;
                    Some(block_rects[block.0].y_b() + off)
                }
                _ => None,
            });
            let (y_b, y_t) = match (f.kind, pin) {
                (FlowKind::FullHeight(g), _) => (block_rects[g.0].y_b(), block_rects[g.0].y_t()),
                (_, Some(p)) => (p - MIN_CHANNEL_SPACING, p + MIN_CHANNEL_SPACING),
                (kind, None) => {
                    let y_b = flex_y_b(fi);
                    (y_b, y_b + kind.track_height())
                }
            };
            Rect::new(x_l.min(x_r), x_r.max(x_l), y_b, y_t)
        })
        .collect()
}

/// The control-entity rectangles over `block_rects`: the block's columns,
/// down to the chip bottom or up to `y_max`.
pub(crate) fn derive_control_rects(plan: &Plan, block_rects: &[Rect], y_max: Um) -> Vec<Rect> {
    plan.controls
        .iter()
        .map(|c| {
            let b = block_rects[c.block.0];
            match c.dir {
                ControlDir::Down => Rect::new(b.x_l(), b.x_r(), Um::ZERO, b.y_b()),
                ControlDir::Up => Rect::new(b.x_l(), b.x_r(), b.y_t(), y_max.max(b.y_t())),
            }
        })
        .collect()
}

/// The control-pin split of a component under the design's MUX count:
/// `(down, up)` line counts. Must mirror how `columba_modules` places pins.
pub(crate) fn pins_down_up(kind: &ComponentKind, mux_count: MuxCount) -> (usize, usize) {
    let mut model = ModuleModel::for_component(kind);
    if mux_count == MuxCount::One {
        model.control_access = ControlAccess::Bottom;
    }
    let up = model.top_control_pins();
    (model.control_pin_count - up, up)
}

/// The control access override `layval` passes to `columba_modules`.
pub(crate) fn access_override(mux_count: MuxCount) -> Option<ControlAccess> {
    match mux_count {
        MuxCount::One => Some(ControlAccess::Bottom),
        MuxCount::Two => None,
    }
}

/// Builds the reduced entity plan from a planarized netlist.
///
/// # Errors
///
/// Returns [`LayoutError::Netlist`] when the netlist is not planarized, and
/// [`LayoutError::Unroutable`] for connections that cannot run left-to-right
/// (two same-facing pins, port-to-port nets, tangled parallel groups).
pub fn build_plan(netlist: &Netlist) -> Result<Plan, LayoutError> {
    netlist.validate_planarized()?;

    // --- blocks ---
    let mut comp_block: Vec<Option<BlockId>> = vec![None; netlist.components().len()];
    let mut blocks: Vec<Block> = Vec::new();

    for group in netlist.parallel_groups() {
        let id = BlockId(blocks.len());
        let block = build_group_block(netlist, group, id)?;
        for m in &block.members {
            comp_block[m.component.0] = Some(id);
        }
        blocks.push(block);
    }
    for (i, comp) in netlist.components().iter().enumerate() {
        if comp_block[i].is_some() {
            continue;
        }
        let id = BlockId(blocks.len());
        let model = ModuleModel::for_component(&comp.kind);
        let kind = match comp.kind {
            ComponentKind::Switch(_) => BlockKind::Switch(ComponentId(i)),
            _ => BlockKind::Single(ComponentId(i)),
        };
        let height = model.length;
        let rel_h = height.unwrap_or(model.min_length);
        blocks.push(Block {
            label: comp.name.clone(),
            kind,
            width: model.width,
            height,
            min_height: model.min_length,
            members: vec![MemberPlace {
                component: ComponentId(i),
                lane: 0,
                rel: Rect::new(Um(0), model.width, Um(0), rel_h),
            }],
        });
        comp_block[i] = Some(id);
    }
    let comp_block: Vec<BlockId> = comp_block
        .into_iter()
        .map(|b| b.expect("every component got a block"))
        .collect();

    // --- connections: intra vs inter ---
    let mut intra = Vec::new();
    let mut raw: Vec<(EndKind, EndKind, usize)> = Vec::new();
    for (ci, conn) in netlist.connections().iter().enumerate() {
        match classify(netlist, &comp_block, &blocks, conn, ci)? {
            Classified::Intra => intra.push(ci),
            Classified::Inter { left, right } => raw.push((left, right, ci)),
        }
    }

    // --- merging ---
    let mut flows: Vec<FlowEntity> = Vec::new();
    let mut merged: HashMap<(MergeKey, MergeKey), usize> = HashMap::new();
    for (left, right, ci) in raw {
        let lk = merge_key(&blocks, left);
        let rk = merge_key(&blocks, right);
        let mergeable = is_mergeable(&blocks, left, right);
        if mergeable {
            if let Some(&fi) = merged.get(&(lk, rk)) {
                flows[fi].count += 1;
                flows[fi].conns.push(ci);
                continue;
            }
        }
        let kind = entity_kind(&blocks, left, right, 1);
        let fi = flows.len();
        flows.push(FlowEntity {
            left,
            right,
            kind,
            count: 1,
            conns: vec![ci],
        });
        if mergeable {
            merged.insert((lk, rk), fi);
        }
    }
    // fix up merged kinds (bundle sizes depend on the final count)
    for f in &mut flows {
        f.kind = entity_kind(&blocks, f.left, f.right, f.count);
    }

    // --- control entities (rule 1) ---
    let mut controls = Vec::new();
    for (bi, block) in blocks.iter().enumerate() {
        let (mut down, mut up) = (0usize, 0usize);
        let lane0_only = block.is_group();
        for m in &block.members {
            if lane0_only && m.lane != 0 {
                continue; // parallel lanes share lane 0's lines
            }
            let kind = netlist.component(m.component).kind;
            let (d_pins, u_pins) = pins_down_up(&kind, netlist.mux_count);
            down += d_pins;
            up += u_pins;
        }
        if down > 0 {
            controls.push(ControlEntity {
                block: BlockId(bi),
                dir: ControlDir::Down,
                count: down,
            });
        }
        if up > 0 {
            controls.push(ControlEntity {
                block: BlockId(bi),
                dir: ControlDir::Up,
                count: up,
            });
        }
    }

    Ok(Plan {
        blocks,
        flows,
        controls,
        intra,
        comp_block,
        mux_count: netlist.mux_count,
    })
}

enum Classified {
    Intra,
    Inter { left: EndKind, right: EndKind },
}

/// Resolves a connection into left/right attachments under the
/// left-to-right flow discipline.
fn classify(
    netlist: &Netlist,
    comp_block: &[BlockId],
    blocks: &[Block],
    conn: &Connection,
    ci: usize,
) -> Result<Classified, LayoutError> {
    #[derive(Clone, Copy)]
    enum Res {
        Comp(ComponentId, UnitSide),
        Port,
    }
    let resolve = |e: &Endpoint| match e {
        Endpoint::Unit { component, side } => Res::Comp(*component, *side),
        Endpoint::Port(_) => Res::Port,
    };
    let a = resolve(&conn.from);
    let b = resolve(&conn.to);

    if let (Res::Comp(ca, _), Res::Comp(cb, _)) = (a, b) {
        if comp_block[ca.0] == comp_block[cb.0] {
            return Ok(Classified::Intra);
        }
    }

    let end_for = |c: ComponentId| -> EndKind {
        let block = comp_block[c.0];
        if blocks[block.0].is_switch() {
            EndKind::SwitchSide { block }
        } else if blocks[block.0].is_group() {
            EndKind::FullSide { block }
        } else {
            EndKind::Pin {
                block,
                component: c,
            }
        }
    };

    // a component pin facing Right is a *left* attachment and vice versa
    let mut left: Option<EndKind> = None;
    let mut right: Option<EndKind> = None;
    let mut port_pending: Option<()> = None;
    for r in [a, b] {
        match r {
            Res::Comp(c, UnitSide::Right) => {
                if left.replace(end_for(c)).is_some() {
                    return Err(two_right(netlist, ci));
                }
            }
            Res::Comp(c, UnitSide::Left) => {
                if right.replace(end_for(c)).is_some() {
                    return Err(LayoutError::Unroutable(format!(
                        "connection #{ci} joins two left-facing pins"
                    )));
                }
            }
            Res::Port => {
                if port_pending.replace(()).is_some() {
                    return Err(LayoutError::Unroutable(format!(
                        "connection #{ci} joins two ports; ports must attach to a unit or switch"
                    )));
                }
            }
        }
    }
    if port_pending.is_some() {
        // the port goes to the boundary the component faces
        if left.is_some() && right.is_none() {
            right = Some(EndKind::Boundary);
        } else if right.is_some() && left.is_none() {
            left = Some(EndKind::Boundary);
        }
    }
    match (left, right) {
        (Some(l), Some(r)) => Ok(Classified::Inter { left: l, right: r }),
        _ => Err(LayoutError::Unroutable(format!(
            "connection #{ci} has no consistent left-to-right orientation"
        ))),
    }
}

fn two_right(_netlist: &Netlist, ci: usize) -> LayoutError {
    LayoutError::Unroutable(format!("connection #{ci} joins two right-facing pins"))
}

/// Merge signature: connections merge when both ends share signatures and
/// at least one end is a group boundary or a switch-to-boundary bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MergeKey {
    BlockSide(BlockId),
    Boundary,
    Distinct(usize),
}

fn merge_key(_blocks: &[Block], e: EndKind) -> MergeKey {
    match e {
        EndKind::FullSide { block } => MergeKey::BlockSide(block),
        EndKind::SwitchSide { block } => MergeKey::BlockSide(block),
        EndKind::Boundary => MergeKey::Boundary,
        EndKind::Pin { block, component } => {
            let _ = block;
            MergeKey::Distinct(component.0)
        }
    }
}

/// Rule 2 merges channels on a group boundary; rule 3 merges
/// switch-to-boundary channels. Pin-to-pin and pin-to-switch channels stay
/// singular.
fn is_mergeable(blocks: &[Block], left: EndKind, right: EndKind) -> bool {
    let group_end = |e: EndKind| matches!(e, EndKind::FullSide { .. });
    let switch_to_boundary = match (left, right) {
        (EndKind::SwitchSide { block }, EndKind::Boundary)
        | (EndKind::Boundary, EndKind::SwitchSide { block }) => {
            let _ = block;
            true
        }
        _ => false,
    };
    let _ = blocks;
    group_end(left) || group_end(right) || switch_to_boundary
}

fn entity_kind(blocks: &[Block], left: EndKind, right: EndKind, count: usize) -> FlowKind {
    let _ = blocks;
    if let EndKind::FullSide { block } = left {
        return FlowKind::FullHeight(block);
    }
    if let EndKind::FullSide { block } = right {
        return FlowKind::FullHeight(block);
    }
    match (left, right) {
        (EndKind::SwitchSide { .. }, EndKind::Boundary)
        | (EndKind::Boundary, EndKind::SwitchSide { .. }) => FlowKind::InletBundle(count),
        _ => FlowKind::Thin,
    }
}

/// Pre-places the members of a parallel group into stacked lanes.
fn build_group_block(
    netlist: &Netlist,
    group: &[ComponentId],
    _id: BlockId,
) -> Result<Block, LayoutError> {
    use std::collections::HashSet;
    let members: HashSet<ComponentId> = group.iter().copied().collect();
    // sequential intra-group edges
    let mut next: HashMap<ComponentId, ComponentId> = HashMap::new();
    let mut has_prev: HashSet<ComponentId> = HashSet::new();
    for conn in netlist.connections() {
        let (
            Endpoint::Unit {
                component: a,
                side: sa,
            },
            Endpoint::Unit {
                component: b,
                side: sb,
            },
        ) = (&conn.from, &conn.to)
        else {
            continue;
        };
        if !(members.contains(a) && members.contains(b)) {
            continue;
        }
        let (from, to) = match (sa, sb) {
            (UnitSide::Right, UnitSide::Left) => (*a, *b),
            (UnitSide::Left, UnitSide::Right) => (*b, *a),
            _ => {
                return Err(LayoutError::Unroutable(format!(
                    "parallel group connection {} -> {} is not left-to-right",
                    netlist.component(*a).name,
                    netlist.component(*b).name
                )))
            }
        };
        if next.insert(from, to).is_some() || !has_prev.insert(to) {
            return Err(LayoutError::Unroutable(
                "parallel group members must form simple sequential lanes".into(),
            ));
        }
    }
    // lanes start at members without a predecessor, in group order
    let mut lanes: Vec<Vec<ComponentId>> = Vec::new();
    let mut seen: HashSet<ComponentId> = HashSet::new();
    for &m in group {
        if has_prev.contains(&m) || seen.contains(&m) {
            continue;
        }
        let mut lane = vec![m];
        seen.insert(m);
        let mut cur = m;
        while let Some(&n) = next.get(&cur) {
            if !seen.insert(n) {
                return Err(LayoutError::Unroutable(
                    "parallel group lanes share a member".into(),
                ));
            }
            lane.push(n);
            cur = n;
        }
        lanes.push(lane);
    }
    if seen.len() != members.len() {
        return Err(LayoutError::Unroutable(
            "parallel group contains a cycle; lanes must be sequential chains".into(),
        ));
    }

    // lane geometry
    let model_of = |c: ComponentId| ModuleModel::for_component(&netlist.component(c).kind);
    let lane_dims: Vec<(Um, Um)> = lanes
        .iter()
        .map(|lane| {
            let w: Um = lane
                .iter()
                .map(|&c| model_of(c).width)
                .fold(Um::ZERO, |acc, w| acc + w)
                + LANE_GAP_X * (lane.len() as i64 - 1);
            let h = lane
                .iter()
                .map(|&c| model_of(c).length.unwrap_or(model_of(c).min_length))
                .fold(Um::ZERO, Um::max);
            (w, h)
        })
        .collect();
    let block_w = lane_dims.iter().map(|&(w, _)| w).fold(Um::ZERO, Um::max);
    let block_h = lane_dims
        .iter()
        .map(|&(_, h)| h)
        .fold(Um::ZERO, |a, b| a + b)
        + LANE_GAP_Y * (lanes.len() as i64 - 1);

    let mut placed = Vec::new();
    let mut y = Um::ZERO;
    for (li, lane) in lanes.iter().enumerate() {
        let (_, lane_h) = lane_dims[li];
        let mut x = Um::ZERO;
        for &c in lane {
            let m = model_of(c);
            let h = m.length.unwrap_or(m.min_length);
            let rel_y = y + (lane_h - h) / 2;
            placed.push(MemberPlace {
                component: c,
                lane: li,
                rel: Rect::new(x, x + m.width, rel_y, rel_y + h),
            });
            x += m.width + LANE_GAP_X;
        }
        y += lane_h + LANE_GAP_Y;
    }

    let label = format!("group[{}..]", netlist.component(group[0]).name);
    Ok(Block {
        label,
        kind: BlockKind::Group,
        width: block_w,
        height: Some(block_h),
        min_height: block_h,
        members: placed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_netlist::generators;
    use columba_planar::planarize;

    fn plan_for(n: &Netlist) -> Plan {
        let (p, _) = planarize(n);
        build_plan(&p).expect("plan builds")
    }

    #[test]
    fn chip4_plan_shape() {
        let plan = plan_for(&generators::chip_ip(4, MuxCount::One));
        // no parallel groups: pre + sw + 4*(mixer+chamber) = 10 blocks
        assert_eq!(plan.blocks.len(), 10);
        assert!(plan.blocks.iter().any(Block::is_switch));
        assert!(plan.intra.is_empty());
        // 1-MUX: every control entity points down
        assert!(plan.controls.iter().all(|c| c.dir == ControlDir::Down));
        // lines: pre (sieve mixer) = 9, 4 mixers*5, 4 chambers*2, switch = 5
        assert_eq!(plan.control_channels(ControlDir::Down), 9 + 20 + 8 + 5);
        assert_eq!(plan.control_channels(ControlDir::Up), 0);
    }

    #[test]
    fn chip4_two_mux_splits_lines() {
        let mut n = generators::chip_ip(4, MuxCount::Two);
        n.mux_count = MuxCount::Two;
        let plan = plan_for(&n);
        let down = plan.control_channels(ControlDir::Down);
        let up = plan.control_channels(ControlDir::Up);
        assert_eq!(down + up, 42);
        assert!(up > 0 && down > 0);
        // chambers (2 lines each) go up; mixer `both` puts 3 of 5/6 up
        assert_eq!(
            up,
            3 + 4 * 3 + 4 * 2,
            "pre pumps + lane mixer pumps + chamber pairs"
        );
    }

    #[test]
    fn chip64_groups_merge() {
        let plan = plan_for(&generators::chip_ip(64, MuxCount::One));
        // 8 group blocks + pre + switch = 10 blocks
        assert_eq!(plan.blocks.len(), 10);
        let groups: Vec<&Block> = plan.blocks.iter().filter(|b| b.is_group()).collect();
        assert_eq!(groups.len(), 8);
        assert_eq!(groups[0].members.len(), 16, "8 lanes x (mixer + chamber)");
        // intra-lane connections are internal to the merged rectangle
        assert_eq!(plan.intra.len(), 64, "one mixer->chamber hop per lane");
        // shared control: a group contributes one lane's worth of lines
        let group_block = plan
            .controls
            .iter()
            .find(|c| plan.blocks[c.block.0].is_group())
            .expect("group control entity");
        assert_eq!(group_block.count, 5 + 2, "one mixer + one chamber lane");
        // totals: pre 9 + 8 groups * 7 + switch 65
        assert_eq!(plan.control_channels(ControlDir::Down), 9 + 56 + 65);
    }

    #[test]
    fn chip64_flow_merging() {
        let plan = plan_for(&generators::chip_ip(64, MuxCount::One));
        // switch -> each group merges to one FullHeight entity per group;
        // group -> boundary (outputs) merges per group
        let full: Vec<&FlowEntity> = plan
            .flows
            .iter()
            .filter(|f| matches!(f.kind, FlowKind::FullHeight(_)))
            .collect();
        assert_eq!(full.len(), 16, "8 switch->group + 8 group->boundary");
        assert!(full.iter().all(|f| f.count == 8));
        // lysate -> pre and pre -> switch stay thin
        assert!(plan.flows.iter().any(|f| f.kind == FlowKind::Thin));
    }

    #[test]
    fn group_lane_geometry() {
        let plan = plan_for(&generators::chip_ip(64, MuxCount::One));
        let g = plan.blocks.iter().find(|b| b.is_group()).unwrap();
        // every lane: mixer (3.0mm) + gap + chamber (1.0mm)
        assert_eq!(g.width, Um::from_mm(3.0) + LANE_GAP_X + Um::from_mm(1.0));
        // 8 lanes of mixer height (1.5mm) + 7 gaps
        assert_eq!(g.height, Some(Um::from_mm(1.5) * 8 + LANE_GAP_Y * 7));
        // pins of sequential members align at the lane centre
        let m0 = g.members.iter().find(|m| m.lane == 0).unwrap();
        let partner = g
            .members
            .iter()
            .find(|m| m.lane == 0 && m.component != m0.component)
            .unwrap();
        assert_eq!(
            g.pin_y_offset(m0.component),
            g.pin_y_offset(partner.component),
            "lane members centre-aligned"
        );
    }

    #[test]
    fn switch_to_boundary_becomes_bundle() {
        // netlist: a switch fanning into two ports (shared source port)
        let mut n = Netlist::new("t");
        let m = n
            .add_mixer("m", columba_netlist::MixerSpec::default())
            .unwrap();
        let p1 = n.add_port("w1").unwrap();
        let p2 = n.add_port("w2").unwrap();
        n.connect(
            Endpoint::Unit {
                component: m,
                side: UnitSide::Right,
            },
            Endpoint::Port(p1),
        )
        .unwrap();
        n.connect(
            Endpoint::Unit {
                component: m,
                side: UnitSide::Right,
            },
            Endpoint::Port(p2),
        )
        .unwrap();
        let (planar, _) = columba_planar::planarize(&n);
        let plan = build_plan(&planar).unwrap();
        let bundle = plan
            .flows
            .iter()
            .find(|f| matches!(f.kind, FlowKind::InletBundle(_)))
            .expect("switch->boundary bundle");
        assert_eq!(bundle.kind, FlowKind::InletBundle(2));
        assert_eq!(bundle.count, 2);
    }

    #[test]
    fn unplanarized_netlist_rejected() {
        let n = generators::chip_ip(4, MuxCount::One);
        assert!(matches!(build_plan(&n), Err(LayoutError::Netlist(_))));
    }

    #[test]
    fn port_to_port_rejected() {
        let mut n = Netlist::new("t");
        let _ = n
            .add_mixer("m", columba_netlist::MixerSpec::default())
            .unwrap();
        let p1 = n.add_port("a").unwrap();
        let p2 = n.add_port("b").unwrap();
        n.connect(Endpoint::Port(p1), Endpoint::Port(p2)).unwrap();
        let e = build_plan(&n).unwrap_err();
        assert!(matches!(e, LayoutError::Unroutable(_)), "{e}");
    }

    #[test]
    fn same_facing_pins_rejected() {
        let mut n = Netlist::new("t");
        let a = n
            .add_mixer("a", columba_netlist::MixerSpec::default())
            .unwrap();
        let b = n
            .add_mixer("b", columba_netlist::MixerSpec::default())
            .unwrap();
        n.connect(
            Endpoint::Unit {
                component: a,
                side: UnitSide::Right,
            },
            Endpoint::Unit {
                component: b,
                side: UnitSide::Right,
            },
        )
        .unwrap();
        let e = build_plan(&n).unwrap_err();
        assert!(e.to_string().contains("right-facing"), "{e}");
    }

    #[test]
    fn pin_split_matches_module_library() {
        use columba_netlist::{ChamberSpec, MixerSpec, SwitchSpec};
        let mixer = ComponentKind::Mixer(MixerSpec::default());
        assert_eq!(pins_down_up(&mixer, MuxCount::One), (5, 0));
        assert_eq!(pins_down_up(&mixer, MuxCount::Two), (2, 3));
        let chamber = ComponentKind::Chamber(ChamberSpec::default());
        assert_eq!(pins_down_up(&chamber, MuxCount::One), (2, 0));
        assert_eq!(pins_down_up(&chamber, MuxCount::Two), (0, 2));
        let sw = ComponentKind::Switch(SwitchSpec { junctions: 4 });
        assert_eq!(pins_down_up(&sw, MuxCount::One), (4, 0));
        assert_eq!(pins_down_up(&sw, MuxCount::Two), (4, 0));
    }
}
