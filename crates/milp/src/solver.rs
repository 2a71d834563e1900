//! Branch & bound over the simplex relaxation.
//!
//! The search runs on a shared pool of open nodes drained by
//! [`std::thread::scope`] workers (no external crates). The incumbent lives
//! behind a mutex, with the best objective mirrored into an [`AtomicU64`]
//! (as `f64` bits) so workers can prune against it without taking the lock.
//! Node identity breaks heap ties in a fixed order, so a single worker
//! reproduces the classic sequential best-bound search exactly, and any
//! worker count returns the same objective on a run to completion.

use std::collections::BinaryHeap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::model::{Model, VarId, VarKind};
use crate::simplex::{self, Basis, ColStatus, Lp, LpOutcome, Row, Start};
use crate::solution::{MipResult, Solution, SolveStatus};
use crate::stats::{IncumbentEvent, SolveStats};

/// Integer feasibility tolerance.
const INT_TOL: f64 = 1e-6;

/// Error raised by [`Model::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The simplex hit its cycling guard or produced out-of-tolerance
    /// residuals; the message carries the diagnostic.
    Numerical(String),
    /// The model has no constraints and no bounded objective direction.
    Malformed(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Numerical(m) => write!(f, "numerical failure in simplex: {m}"),
            SolveError::Malformed(m) => write!(f, "malformed model: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Search limits and options for branch & bound.
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Wall-clock budget. The best incumbent found so far is returned when
    /// the budget expires.
    pub time_limit: Duration,
    /// Maximum number of branch & bound nodes to process (`0` processes only
    /// the root relaxation and any hint).
    pub node_limit: usize,
    /// Stop when the relative optimality gap falls below this value.
    pub rel_gap: f64,
    /// Stop when the absolute optimality gap falls below this value.
    pub abs_gap: f64,
    /// Try rounding the root LP solution into an incumbent.
    pub rounding_heuristic: bool,
    /// Worker threads for the branch & bound search. `0` uses the machine's
    /// available parallelism; `1` runs the classic sequential search. Any
    /// count returns the same objective on a run to completion.
    pub threads: usize,
    /// External cancellation token. The solver caps the token's deadline at
    /// `time_limit`, so whichever fires first stops the solve; an explicit
    /// [`CancelToken::cancel`] from any clone stops it too. The best
    /// incumbent found so far is still returned.
    pub cancel: Option<CancelToken>,
}

impl Default for SolveParams {
    fn default() -> SolveParams {
        SolveParams {
            time_limit: Duration::from_secs(600),
            node_limit: 2_000_000,
            rel_gap: 1e-6,
            abs_gap: 1e-9,
            rounding_heuristic: true,
            threads: 0,
            cancel: None,
        }
    }
}

impl SolveParams {
    /// A parameter set with the given time budget and otherwise defaults.
    #[must_use]
    pub fn with_time_limit(limit: Duration) -> SolveParams {
        SolveParams {
            time_limit: limit,
            ..SolveParams::default()
        }
    }

    /// The worker count after resolving `0` to the machine's available
    /// parallelism. Always at least 1.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

/// A branch decision: tighten one variable's bound.
#[derive(Debug, Clone, Copy)]
struct BranchBound {
    var: usize,
    lb: f64,
    ub: f64,
}

/// One link in a node's chain of branch decisions back to the root.
///
/// Paths are persistent (shared via [`Arc`]) so sibling subtrees reuse their
/// common prefix and workers reconstruct bounds without a shared arena.
struct PathLink {
    bc: BranchBound,
    parent: Option<Arc<PathLink>>,
}

/// Heap entry ordered so the *lowest* LP bound pops first (best-bound
/// search), with deeper nodes preferred on ties (plunging) and the oldest
/// node id breaking exact ties — the fixed order that makes the search
/// deterministic for a given worker count.
struct OpenNode {
    id: u64,
    lp_bound: f64,
    depth: usize,
    path: Option<Arc<PathLink>>,
    /// The optimal point of this node's LP, when it was solved before the
    /// node was queued (the root); the search branches on it directly.
    solved: Option<Vec<f64>>,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert the bound comparison.
        other
            .lp_bound
            .partial_cmp(&self.lp_bound)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
            .then(other.id.cmp(&self.id))
    }
}

/// Immutable data shared by the root phase and every search worker.
struct SearchCtx<'a> {
    base_rows: Vec<Row>,
    base_lb: Vec<f64>,
    base_ub: Vec<f64>,
    cost: Vec<f64>,
    int_vars: Vec<usize>,
    obj_constant: f64,
    sign: f64,
    params: &'a SolveParams,
    start: Instant,
    /// The caller's token (or a fresh one) with its deadline capped at
    /// `start + time_limit`; polled by workers and the simplex inner loop.
    stop_token: CancelToken,
}

impl<'a> SearchCtx<'a> {
    /// The search data of `model`, with the stop token's deadline capped at
    /// `start + params.time_limit`.
    fn new(model: &Model, params: &'a SolveParams, start: Instant) -> SearchCtx<'a> {
        let solve_deadline = start + params.time_limit;
        SearchCtx {
            base_rows: model
                .constraints
                .iter()
                .map(|c| Row {
                    terms: c.terms.iter().map(|&(v, coef)| (v.index(), coef)).collect(),
                    sense: c.sense,
                    rhs: c.rhs,
                })
                .collect(),
            base_lb: model.vars.iter().map(|v| v.lb).collect(),
            base_ub: model.vars.iter().map(|v| v.ub).collect(),
            cost: model.objective.clone(),
            int_vars: model
                .vars
                .iter()
                .enumerate()
                .filter(|(_, v)| v.kind != VarKind::Continuous)
                .map(|(i, _)| i)
                .collect(),
            obj_constant: model.obj_constant,
            sign: if model.maximize { -1.0 } else { 1.0 },
            params,
            start,
            stop_token: params.cancel.as_ref().map_or_else(
                || CancelToken::with_deadline(solve_deadline),
                |t| t.capped(solve_deadline),
            ),
        }
    }

    /// The first way `x` fails as an incumbent of the *original* model: a
    /// row violated beyond the simplex residual tolerance, a variable out of
    /// its bounds, or an integer variable off integral. Checked against the
    /// model itself rather than the presolved LP that produced `x`.
    fn incumbent_violation(&self, x: &[f64]) -> Option<String> {
        if let Some((i, v)) = (self.base_rows.iter().enumerate())
            .find_map(|(i, row)| row.violation(x).map(|v| (i, v)))
        {
            return Some(format!("row {i} violated by {v:.3e}"));
        }
        for (j, &v) in x.iter().enumerate() {
            let (l, u) = (self.base_lb[j], self.base_ub[j]);
            if !(v >= l - 1e-5 * (1.0 + l.abs()) && v <= u + 1e-5 * (1.0 + u.abs())) {
                return Some(format!("variable {j} = {v} outside [{l}, {u}]"));
            }
        }
        (self.int_vars.iter())
            .find(|&&j| (x[j] - x[j].round()).abs() > INT_TOL)
            .map(|&j| format!("integer variable {j} = {} is fractional", x[j]))
    }

    /// Under `debug_assertions`, refuses an incumbent that fails
    /// [`incumbent_violation`](Self::incumbent_violation): a presolve or
    /// pivoting bug then surfaces as an error instead of a wrong layout.
    fn certify(&self, x: &[f64]) -> Result<(), SolveError> {
        if !cfg!(debug_assertions) {
            return Ok(());
        }
        self.incumbent_violation(x).map_or(Ok(()), |e| {
            Err(SolveError::Numerical(format!(
                "incumbent certificate failed: {e}"
            )))
        })
    }

    /// Solves the LP for the given bounds from `start` (cold without one),
    /// accumulating iterations into `iters` and mapping numerical failures
    /// to [`SolveError`].
    fn lp(
        &self,
        lb: &[f64],
        ub: &[f64],
        start: Option<&Handoff>,
        iters: &mut usize,
    ) -> Result<Relaxation, SolveError> {
        let relax = presolved_lp(
            &self.base_rows,
            &self.cost,
            lb,
            ub,
            Some(&self.stop_token),
            start,
        );
        *iters += relax.iterations;
        if let LpOutcome::Numerical(msg) = &relax.outcome {
            return Err(SolveError::Numerical(msg.clone()));
        }
        Ok(relax)
    }
}

/// Locks a mutex, recovering from poison: a panicking worker (contained by
/// `catch_unwind`) may have left the lock poisoned, but every critical
/// section here keeps the guarded data structurally valid, so the search
/// can keep using it.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The incumbent and its improvement history, guarded by one mutex.
struct IncState {
    /// `(values, min-sense objective)` of the best feasible point so far.
    best: Option<(Vec<f64>, f64)>,
    events: Vec<IncumbentEvent>,
}

/// Mutable search state shared across workers.
struct Search<'a> {
    ctx: &'a SearchCtx<'a>,
    heap: Mutex<BinaryHeap<OpenNode>>,
    /// Workers currently processing a node. The search is over only when the
    /// heap is empty *and* no worker might still push children.
    active: AtomicUsize,
    stop: AtomicBool,
    hit_limit: AtomicBool,
    error: Mutex<Option<SolveError>>,
    incumbent: Mutex<IncState>,
    /// `f64` bits of the incumbent objective (min sense), `INFINITY` when no
    /// incumbent exists; read lock-free on the pruning fast path.
    best_obj: AtomicU64,
    nodes_processed: AtomicUsize,
    nodes_pruned: AtomicUsize,
    simplex_iterations: AtomicUsize,
    /// Worker panics contained by `catch_unwind`; each one loses a subtree,
    /// so any panic downgrades an "optimal" claim to a limit-style status.
    worker_panics: AtomicUsize,
    next_id: AtomicU64,
}

impl Search<'_> {
    fn best_objective(&self) -> f64 {
        f64::from_bits(self.best_obj.load(Ordering::Relaxed))
    }

    /// The bound-vs-incumbent test that ends the search: within absolute or
    /// relative gap of `inc`.
    fn dominated(&self, bound: f64, inc: f64) -> bool {
        let p = self.ctx.params;
        inc.is_finite()
            && (bound >= inc - p.abs_gap || (inc - bound).abs() <= p.rel_gap * inc.abs().max(1.0))
    }

    fn offer_incumbent(&self, values: Vec<f64>, obj: f64) -> Result<(), SolveError> {
        self.ctx.certify(&values)?;
        let mut inc = lock_clean(&self.incumbent);
        if inc.best.as_ref().is_none_or(|(_, b)| obj < *b) {
            inc.best = Some((values, obj));
            self.best_obj.store(obj.to_bits(), Ordering::Relaxed);
            inc.events.push(IncumbentEvent {
                at: self.ctx.start.elapsed(),
                objective: self.ctx.sign * obj,
            });
            drop(inc);
            if columba_obs::enabled() {
                columba_obs::instant(
                    "bnb.incumbent",
                    vec![("objective", (self.ctx.sign * obj).into())],
                );
            }
        }
        Ok(())
    }

    /// Close (and record) one `bnb.batch` span, annotating it with the
    /// sampled incumbent / best-bound pair — the gap trajectory the trace
    /// viewer plots. Only touches the heap lock when actually recording.
    fn finish_batch(&self, batch: &mut Option<columba_obs::SpanGuard>, nodes: usize) {
        let Some(mut guard) = batch.take() else {
            return;
        };
        if guard.is_recording() {
            guard.attr("nodes", nodes);
            guard.attr("incumbent", self.ctx.sign * self.best_objective());
            if let Some(top) = lock_clean(&self.heap).peek() {
                guard.attr("bound", self.ctx.sign * top.lp_bound);
            }
        }
    }

    /// Requeue a node we popped but could not finish (a limit fired), so the
    /// final dual bound still accounts for it, then stop the search.
    fn stop_at_limit(&self, open: OpenNode) {
        self.hit_limit.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        lock_clean(&self.heap).push(open);
    }

    /// Worker loop: drain the pool until it is empty and no peer is active,
    /// a limit fires, or an error stops the search. Returns busy time.
    fn run_worker(&self) -> Duration {
        /// Nodes covered by one `bnb.batch` span: coarse enough that the
        /// trace stays small, fine enough to show where search time goes.
        const BATCH_NODES: usize = 32;
        let mut busy = Duration::ZERO;
        let mut batch: Option<columba_obs::SpanGuard> = None;
        let mut batch_nodes = 0usize;
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let popped = {
                let mut heap = lock_clean(&self.heap);
                // The heap is ordered by bound, so a dominated top proves
                // every remaining node dominated: optimality.
                let best = self.best_objective();
                if let Some(top) = heap.peek() {
                    if self.dominated(top.lp_bound, best) {
                        self.nodes_pruned.fetch_add(heap.len(), Ordering::Relaxed);
                        heap.clear();
                    }
                }
                if let Some(node) = heap.pop() {
                    self.active.fetch_add(1, Ordering::SeqCst);
                    Some(node)
                } else if self.active.load(Ordering::SeqCst) == 0 {
                    break;
                } else {
                    None
                }
            };
            let Some(node) = popped else {
                // peers are still expanding nodes that may yield children
                self.finish_batch(&mut batch, batch_nodes);
                batch_nodes = 0;
                std::thread::yield_now();
                continue;
            };
            if batch.is_none() && columba_obs::enabled() {
                batch = Some(columba_obs::span("bnb.batch"));
            }
            let t = Instant::now();
            // Contain panics at the node boundary: a crashed worker loses
            // that node's subtree (degrading the search to a limit-style
            // status) but never takes down the process or its peers.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.process(node)));
            busy += t.elapsed();
            self.active.fetch_sub(1, Ordering::SeqCst);
            batch_nodes += 1;
            if batch_nodes >= BATCH_NODES {
                self.finish_batch(&mut batch, batch_nodes);
                batch_nodes = 0;
            }
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    let mut slot = lock_clean(&self.error);
                    slot.get_or_insert(e);
                    drop(slot);
                    self.stop.store(true, Ordering::Relaxed);
                    break;
                }
                Err(_) => {
                    self.worker_panics.fetch_add(1, Ordering::Relaxed);
                    // the lost subtree means optimality can no longer be
                    // proven — report Feasible/LimitReached, not Optimal
                    self.hit_limit.store(true, Ordering::Relaxed);
                }
            }
        }
        self.finish_batch(&mut batch, batch_nodes);
        busy
    }

    /// Process one node: check limits, prune, solve its LP (unless it
    /// arrived solved, as the root does), then branch or record an
    /// incumbent.
    fn process(&self, mut open: OpenNode) -> Result<(), SolveError> {
        let ctx = self.ctx;
        let p = ctx.params;
        // the token covers both the solver's own time limit (capped
        // deadline) and any external cancellation
        if ctx.stop_token.is_cancelled()
            || self.nodes_processed.load(Ordering::Relaxed) >= p.node_limit
        {
            self.stop_at_limit(open);
            return Ok(());
        }
        if self.dominated(open.lp_bound, self.best_objective()) {
            self.nodes_pruned.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let node_index = self.nodes_processed.fetch_add(1, Ordering::Relaxed);
        #[cfg(not(feature = "fault-inject"))]
        let _ = node_index;
        #[cfg(feature = "fault-inject")]
        if let Some(fault) = crate::fault::armed_at(node_index) {
            match fault {
                crate::fault::Fault::SimplexNumerical => {
                    return Err(SolveError::Numerical(format!(
                        "injected fault at node {node_index}"
                    )));
                }
                crate::fault::Fault::WorkerPanic => {
                    std::panic::panic_any(crate::fault::InjectedPanic);
                }
                crate::fault::Fault::Timeout => {
                    self.stop_at_limit(open);
                    return Ok(());
                }
            }
        }

        let (x, obj) = match open.solved.take() {
            Some(x) => (x, open.lp_bound),
            None => {
                // reconstruct bounds along the branch path
                let mut lb = ctx.base_lb.clone();
                let mut ub = ctx.base_ub.clone();
                let mut link = open.path.as_deref();
                while let Some(l) = link {
                    lb[l.bc.var] = lb[l.bc.var].max(l.bc.lb);
                    ub[l.bc.var] = ub[l.bc.var].min(l.bc.ub);
                    link = l.parent.as_deref();
                }
                if lb.iter().zip(&ub).any(|(l, u)| l > u) {
                    // conflicting branches
                    self.nodes_pruned.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }

                let relax = presolved_lp(
                    &ctx.base_rows,
                    &ctx.cost,
                    &lb,
                    &ub,
                    Some(&ctx.stop_token),
                    None,
                );
                self.simplex_iterations
                    .fetch_add(relax.iterations, Ordering::Relaxed);
                match relax.outcome {
                    LpOutcome::Numerical(msg) => return Err(SolveError::Numerical(msg)),
                    LpOutcome::TimedOut => {
                        self.stop_at_limit(open);
                        return Ok(());
                    }
                    LpOutcome::Optimal { x, obj } => (x, obj + ctx.obj_constant),
                    // A child cannot be less bounded than the root in a sound
                    // model; treat Unbounded as numerically suspect and prune.
                    LpOutcome::Infeasible | LpOutcome::Unbounded => {
                        self.nodes_pruned.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
            }
        };
        let best = self.best_objective();
        if best.is_finite() && obj >= best - p.abs_gap {
            self.nodes_pruned.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        match most_fractional(&x, &ctx.int_vars) {
            None => {
                // integral: candidate incumbent
                self.offer_incumbent(round_ints(x, &ctx.int_vars), obj)?;
            }
            Some(branch_var) => {
                let v = x[branch_var];
                let depth = open.depth + 1;
                let down = Arc::new(PathLink {
                    bc: BranchBound {
                        var: branch_var,
                        lb: f64::NEG_INFINITY,
                        ub: v.floor(),
                    },
                    parent: open.path.clone(),
                });
                let up = Arc::new(PathLink {
                    bc: BranchBound {
                        var: branch_var,
                        lb: v.ceil(),
                        ub: f64::INFINITY,
                    },
                    parent: open.path,
                });
                let base = self.next_id.fetch_add(2, Ordering::Relaxed);
                let mut heap = lock_clean(&self.heap);
                heap.push(OpenNode {
                    id: base,
                    lp_bound: obj,
                    depth,
                    path: Some(down),
                    solved: None,
                });
                heap.push(OpenNode {
                    id: base + 1,
                    lp_bound: obj,
                    depth,
                    path: Some(up),
                    solved: None,
                });
            }
        }
        Ok(())
    }
}

pub(crate) fn solve(
    model: &Model,
    params: &SolveParams,
    hint: Option<&[(VarId, f64)]>,
) -> Result<MipResult, SolveError> {
    let mut solve_span = columba_obs::span("milp.solve");
    let start = Instant::now();
    let ctx = SearchCtx::new(model, params, start);
    let sign = ctx.sign;
    let threads = params.resolved_threads();
    if solve_span.is_recording() {
        solve_span.attr("vars", model.vars.len());
        solve_span.attr("constraints", model.constraints.len());
        solve_span.attr("threads", threads);
    }

    // Constant-only constraints that are unsatisfiable make the model
    // trivially infeasible; satisfied ones are dropped by the presolve.
    for r in &ctx.base_rows {
        if r.terms.is_empty() {
            let ok = match r.sense {
                crate::model::Sense::Le => 0.0 <= r.rhs + 1e-9,
                crate::model::Sense::Ge => 0.0 >= r.rhs - 1e-9,
                crate::model::Sense::Eq => r.rhs.abs() <= 1e-9,
            };
            if !ok {
                let stats = root_stats(threads, 0, Vec::new(), start);
                return Ok(finish(
                    SolveStatus::Infeasible,
                    None,
                    f64::NEG_INFINITY,
                    sign,
                    stats,
                ));
            }
        }
    }

    let mut root_span = columba_obs::span("milp.root");
    let mut root_iters = 0usize;
    let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, min-sense obj)
    let mut events: Vec<IncumbentEvent> = Vec::new();
    let offer_root = |incumbent: &mut Option<(Vec<f64>, f64)>,
                      events: &mut Vec<IncumbentEvent>,
                      x: Vec<f64>,
                      obj: f64| {
        ctx.certify(&x)?;
        if incumbent.as_ref().is_none_or(|(_, b)| obj < *b) {
            *incumbent = Some((x, obj));
            events.push(IncumbentEvent {
                at: start.elapsed(),
                objective: sign * obj,
            });
        }
        Ok::<(), SolveError>(())
    };

    // -- hint: fix integers, solve the remaining LP; its optimal basis is
    // the root relaxation's start --
    let mut hint_basis: Option<Handoff> = None;
    if let Some(hint) = hint {
        let mut lb = ctx.base_lb.clone();
        let mut ub = ctx.base_ub.clone();
        let mut valid = true;
        for &(v, val) in hint {
            let i = v.index();
            let r = val.round();
            if r < ctx.base_lb[i] - 1e-9 || r > ctx.base_ub[i] + 1e-9 {
                valid = false;
                break;
            }
            lb[i] = r;
            ub[i] = r;
        }
        if valid {
            let relax = ctx.lp(&lb, &ub, None, &mut root_iters)?;
            if let LpOutcome::Optimal { x, obj } = relax.outcome {
                offer_root(&mut incumbent, &mut events, x, obj + ctx.obj_constant)?;
                hint_basis = relax.handoff;
            }
        }
    }

    // zero node budget + a hint-based incumbent: skip the root relaxation
    // entirely (scalable heuristic mode — the LP polish *is* the answer)
    if params.node_limit == 0 && incumbent.is_some() {
        let stats = root_stats(threads, root_iters, events, start);
        return Ok(finish(
            SolveStatus::Feasible,
            incumbent,
            f64::NEG_INFINITY,
            sign,
            stats,
        ));
    }

    // -- root relaxation --
    let root = ctx.lp(
        &ctx.base_lb,
        &ctx.base_ub,
        hint_basis.as_ref(),
        &mut root_iters,
    )?;
    if root_span.is_recording() {
        let (warm, crash_pivots) = match root.start {
            Start::Warm { crash_pivots } => (1usize, crash_pivots),
            _ => (0, 0),
        };
        root_span.attr("warm_start", warm);
        root_span.attr("crash_pivots", crash_pivots);
        if let Start::Fallback(reason) = root.start {
            root_span.attr("fallback", reason);
        }
    }
    let (root_x, root_bound) = match root.outcome {
        LpOutcome::TimedOut => {
            let status = if incumbent.is_some() {
                SolveStatus::Feasible
            } else {
                SolveStatus::LimitReached
            };
            let stats = root_stats(threads, root_iters, events, start);
            return Ok(finish(status, incumbent, f64::NEG_INFINITY, sign, stats));
        }
        LpOutcome::Optimal { x, obj } => (x, obj + ctx.obj_constant),
        LpOutcome::Infeasible => {
            let status = if incumbent.is_some() {
                SolveStatus::Feasible
            } else {
                SolveStatus::Infeasible
            };
            let stats = root_stats(threads, root_iters, events, start);
            return Ok(finish(status, incumbent, f64::NEG_INFINITY, sign, stats));
        }
        LpOutcome::Unbounded => {
            // With an incumbent the model cannot be truly unbounded in the
            // integer sense we care about; report what we know.
            let status = if incumbent.is_some() {
                SolveStatus::Feasible
            } else {
                SolveStatus::Unbounded
            };
            let stats = root_stats(threads, root_iters, events, start);
            return Ok(finish(status, incumbent, f64::NEG_INFINITY, sign, stats));
        }
        LpOutcome::Numerical(_) => unreachable!("mapped to Err above"),
    };

    // integral root?
    if all_integral(&root_x, &ctx.int_vars) {
        offer_root(
            &mut incumbent,
            &mut events,
            round_ints(root_x, &ctx.int_vars),
            root_bound,
        )?;
        let stats = root_stats(threads, root_iters, events, start);
        return Ok(finish(
            SolveStatus::Optimal,
            incumbent,
            root_bound,
            sign,
            stats,
        ));
    }

    // -- rounding heuristic --
    if params.rounding_heuristic && incumbent.is_none() {
        let mut lb = ctx.base_lb.clone();
        let mut ub = ctx.base_ub.clone();
        for &i in &ctx.int_vars {
            let r = root_x[i].round().clamp(ctx.base_lb[i], ctx.base_ub[i]);
            lb[i] = r;
            ub[i] = r;
        }
        if let LpOutcome::Optimal { x, obj } = ctx.lp(&lb, &ub, None, &mut root_iters)?.outcome {
            offer_root(&mut incumbent, &mut events, x, obj + ctx.obj_constant)?;
        }
    }

    // -- branch & bound over the shared node pool --
    root_span.attr("iterations", root_iters);
    drop(root_span);
    let mut search_span = columba_obs::span("bnb.search");
    let root_time = start.elapsed();
    let mut heap = BinaryHeap::new();
    // node 0 branches on the root solution in hand rather than re-solving
    heap.push(OpenNode {
        id: 0,
        lp_bound: root_bound,
        depth: 0,
        path: None,
        solved: Some(root_x),
    });
    let best_bits = incumbent
        .as_ref()
        .map_or(f64::INFINITY, |(_, b)| *b)
        .to_bits();
    let search = Search {
        ctx: &ctx,
        heap: Mutex::new(heap),
        active: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        hit_limit: AtomicBool::new(false),
        error: Mutex::new(None),
        incumbent: Mutex::new(IncState {
            best: incumbent,
            events,
        }),
        best_obj: AtomicU64::new(best_bits),
        nodes_processed: AtomicUsize::new(0),
        nodes_pruned: AtomicUsize::new(0),
        simplex_iterations: AtomicUsize::new(0),
        worker_panics: AtomicUsize::new(0),
        next_id: AtomicU64::new(1),
    };

    let worker_busy: Vec<Duration> = if threads == 1 {
        vec![search.run_worker()]
    } else {
        // Hand the observability context across the scope boundary so each
        // worker's batch spans nest under this thread's `bnb.search` span.
        let obs_ctx = columba_obs::SpanContext::current();
        std::thread::scope(|s| {
            let search = &search;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let obs_ctx = obs_ctx.clone();
                    s.spawn(move || {
                        let _obs = obs_ctx.as_ref().map(columba_obs::SpanContext::attach);
                        search.run_worker()
                    })
                })
                .collect();
            // panics inside `process` are already contained; a join error
            // here would mean the loop glue itself panicked — degrade to a
            // zero busy-time reading rather than poisoning the caller
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Duration::ZERO))
                .collect()
        })
    };

    if let Some(e) = search
        .error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    let hit_limit = search.hit_limit.load(Ordering::Relaxed);
    let heap = search
        .heap
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let IncState {
        best: incumbent,
        events,
    } = search
        .incumbent
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    let status = match (&incumbent, hit_limit) {
        (Some(_), false) => SolveStatus::Optimal,
        (Some(_), true) => SolveStatus::Feasible,
        (None, true) => SolveStatus::LimitReached,
        (None, false) => SolveStatus::Infeasible,
    };
    let bound = if hit_limit {
        // the heap still holds every unfinished node (workers requeue on a
        // limit), so its top is the best proven dual bound. A worker may
        // requeue a node it popped just before a peer's improvement; a
        // bound above the incumbent proves nothing, so cap it there.
        let top = heap.peek().map_or(root_bound, |n| n.lp_bound);
        incumbent.as_ref().map_or(top, |(_, inc)| top.min(*inc))
    } else {
        incumbent.as_ref().map_or(root_bound, |(_, inc)| *inc)
    };

    let total_time = start.elapsed();
    if search_span.is_recording() {
        search_span.attr("nodes", search.nodes_processed.load(Ordering::Relaxed));
        search_span.attr("pruned", search.nodes_pruned.load(Ordering::Relaxed));
    }
    drop(search_span);
    if solve_span.is_recording() {
        solve_span.attr(
            "status",
            match status {
                SolveStatus::Optimal => "optimal",
                SolveStatus::Feasible => "feasible",
                SolveStatus::Infeasible => "infeasible",
                SolveStatus::Unbounded => "unbounded",
                SolveStatus::LimitReached => "limit",
            },
        );
    }
    let stats = SolveStats {
        threads,
        nodes_processed: search.nodes_processed.into_inner(),
        nodes_pruned: search.nodes_pruned.into_inner(),
        simplex_iterations: root_iters + search.simplex_iterations.into_inner(),
        worker_panics: search.worker_panics.into_inner(),
        root_time,
        search_time: total_time - root_time,
        total_time,
        incumbents: events,
        worker_busy,
    };
    Ok(finish(status, incumbent, bound, sign, stats))
}

/// Stats for a solve that ended during the root phase (no search workers).
fn root_stats(
    threads: usize,
    simplex_iterations: usize,
    incumbents: Vec<IncumbentEvent>,
    start: Instant,
) -> SolveStats {
    let elapsed = start.elapsed();
    SolveStats {
        threads,
        simplex_iterations,
        root_time: elapsed,
        total_time: elapsed,
        incumbents,
        ..SolveStats::default()
    }
}

fn finish(
    status: SolveStatus,
    incumbent: Option<(Vec<f64>, f64)>,
    bound: f64,
    sign: f64,
    stats: SolveStats,
) -> MipResult {
    if let Some((_, obj)) = &incumbent {
        debug_assert!(
            bound <= obj + 1e-6 * obj.abs().max(1.0),
            "dual bound {bound} exceeds the incumbent objective {obj}"
        );
    }
    MipResult {
        status,
        solution: incumbent.map(|(values, obj)| Solution {
            values,
            objective: sign * obj,
        }),
        best_bound: sign * bound,
        stats,
    }
}

/// An optimal basis in the base model's indices, with the point it sits
/// at: what one relaxation hands the next as its start.
#[derive(Debug)]
struct Handoff {
    /// Per model variable: basic in the final basis.
    basic: Vec<bool>,
    /// Per model row: its slack is basic. Every row the presolve dropped is.
    slack_basic: Vec<bool>,
    /// The optimal point in the model's variable space.
    x: Vec<f64>,
}

/// One relaxation solved through [`presolved_lp`].
#[derive(Debug)]
struct Relaxation {
    /// The outcome in the model's variable space.
    outcome: LpOutcome,
    iterations: usize,
    /// The final basis, when the outcome is optimal.
    handoff: Option<Handoff>,
    /// How the simplex began; [`Start::Fallback`]`("unmapped")` when a
    /// start was given but does not map onto this LP.
    start: Start,
}

/// Builds and solves the LP for one node's bounds, with a presolve that:
///
/// 1. substitutes fixed variables (`lb == ub`) into every row,
/// 2. drops rows made redundant by the variable bounds — in particular the
///    big-M disjunction rows whose indicator has been fixed to 1, which is
///    what makes warm-started and deep-node LPs small,
/// 3. detects bound-infeasible rows without calling the simplex,
/// 4. compresses away columns that no remaining row or objective term uses.
///
/// A `start` from an earlier relaxation is mapped through the same row and
/// column maps and passed to the simplex as its start basis. Returns the
/// outcome, and on an optimum the final basis, in the *full* variable
/// space.
fn presolved_lp(
    base_rows: &[Row],
    cost: &[f64],
    lb: &[f64],
    ub: &[f64],
    cancel: Option<&CancelToken>,
    start: Option<&Handoff>,
) -> Relaxation {
    let n = lb.len();
    let fixed = |j: usize| ub[j] - lb[j] <= 0.0;
    let mut kept_rows: Vec<Row> = Vec::with_capacity(base_rows.len());
    // base index of each kept row
    let mut kept_idx: Vec<usize> = Vec::with_capacity(base_rows.len());
    let mut used = vec![false; n];

    for (i, row) in base_rows.iter().enumerate() {
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(row.terms.len());
        let mut rhs = row.rhs;
        for &(j, c) in &row.terms {
            if fixed(j) {
                rhs -= c * lb[j];
            } else {
                terms.push((j, c));
            }
        }
        // activity bounds over the remaining terms
        let (mut min_act, mut max_act) = (0.0f64, 0.0f64);
        for &(j, c) in &terms {
            if c > 0.0 {
                min_act += c * lb[j];
                max_act += c * ub[j];
            } else {
                min_act += c * ub[j];
                max_act += c * lb[j];
            }
        }
        let tol = 1e-7 * (1.0 + rhs.abs());
        let (redundant, infeasible) = match row.sense {
            crate::model::Sense::Le => (max_act <= rhs + tol, min_act > rhs + tol),
            crate::model::Sense::Ge => (min_act >= rhs - tol, max_act < rhs - tol),
            crate::model::Sense::Eq => (
                (max_act - rhs).abs() <= tol && (min_act - rhs).abs() <= tol,
                min_act > rhs + tol || max_act < rhs - tol,
            ),
        };
        if infeasible {
            return Relaxation {
                outcome: LpOutcome::Infeasible,
                iterations: 0,
                handoff: None,
                start: Start::Cold,
            };
        }
        if redundant {
            continue;
        }
        for &(j, _) in &terms {
            used[j] = true;
        }
        kept_rows.push(Row {
            terms,
            sense: row.sense,
            rhs,
        });
        kept_idx.push(i);
    }
    // objective terms over unfixed variables must survive compression
    for (j, &c) in cost.iter().enumerate() {
        if c != 0.0 && !fixed(j) {
            used[j] = true;
        }
    }

    // column compression
    let keep: Vec<usize> = (0..n).filter(|&j| used[j]).collect();
    let mut pos = vec![usize::MAX; n];
    for (new, &old) in keep.iter().enumerate() {
        pos[old] = new;
    }
    let small = Lp {
        lb: keep.iter().map(|&j| lb[j]).collect(),
        ub: keep.iter().map(|&j| ub[j]).collect(),
        cost: keep.iter().map(|&j| cost[j]).collect(),
        rows: kept_rows
            .into_iter()
            .map(|r| Row {
                terms: r.terms.into_iter().map(|(j, c)| (pos[j], c)).collect(),
                sense: r.sense,
                rhs: r.rhs,
            })
            .collect(),
    };
    let fixed_cost: f64 = (0..n).filter(|&j| fixed(j)).map(|j| cost[j] * lb[j]).sum();

    let mapped = start.map(|h| map_start(h, &keep, &kept_idx, lb, ub));
    let run = simplex::solve_lp(&small, cancel, mapped.as_ref().and_then(Option::as_ref));
    let start = match mapped {
        Some(None) => Start::Fallback("unmapped"),
        _ => run.start,
    };
    let (outcome, handoff) = match (run.outcome, run.basis) {
        (LpOutcome::Optimal { x, obj }, Some(basis)) => {
            // expand to the full space: fixed -> value, unused -> lb
            let mut full = vec![0.0; n];
            for j in 0..n {
                full[j] = if fixed(j) {
                    lb[j]
                } else if pos[j] != usize::MAX {
                    x[pos[j]]
                } else {
                    lb[j]
                };
            }
            let mut basic = vec![false; n];
            for (status, &j) in basis.cols.iter().zip(&keep) {
                basic[j] = *status == ColStatus::Basic;
            }
            let mut slack_basic = vec![true; base_rows.len()];
            for (&b, &i) in basis.slack_basic.iter().zip(&kept_idx) {
                slack_basic[i] = b;
            }
            let handoff = Handoff {
                basic,
                slack_basic,
                x: full.clone(),
            };
            (
                LpOutcome::Optimal {
                    x: full,
                    obj: obj + fixed_cost,
                },
                Some(handoff),
            )
        }
        (other, _) => (other, None),
    };
    Relaxation {
        outcome,
        iterations: run.iterations,
        handoff,
        start,
    }
}

/// Maps a base-space basis onto a presolved LP with columns `keep` and
/// rows `kept_idx` under bounds `lb`/`ub`. A nonbasic column is at its
/// upper bound exactly when the handed-off point sits there. `None` when a
/// nonbasic column's point is off its bounds, or the basic count does not
/// match the kept rows.
fn map_start(
    h: &Handoff,
    keep: &[usize],
    kept_idx: &[usize],
    lb: &[f64],
    ub: &[f64],
) -> Option<Basis> {
    let at = |v: f64, bound: f64| (v - bound).abs() <= 1e-9 * (1.0 + bound.abs());
    let cols = keep
        .iter()
        .map(|&j| {
            if h.basic[j] {
                Some(ColStatus::Basic)
            } else if ub[j].is_finite() && at(h.x[j], ub[j]) {
                Some(ColStatus::AtUpper)
            } else if at(h.x[j], lb[j]) {
                Some(ColStatus::AtLower)
            } else {
                None
            }
        })
        .collect::<Option<Vec<_>>>()?;
    let slack_basic: Vec<bool> = kept_idx.iter().map(|&i| h.slack_basic[i]).collect();
    let basics = cols.iter().filter(|&&s| s == ColStatus::Basic).count()
        + slack_basic.iter().filter(|&&b| b).count();
    (basics == kept_idx.len()).then_some(Basis { cols, slack_basic })
}

fn all_integral(x: &[f64], int_vars: &[usize]) -> bool {
    int_vars
        .iter()
        .all(|&i| (x[i] - x[i].round()).abs() <= INT_TOL)
}

fn round_ints(mut x: Vec<f64>, int_vars: &[usize]) -> Vec<f64> {
    for &i in int_vars {
        x[i] = x[i].round();
    }
    x
}

/// The integer variable whose LP value is farthest from integral, if any.
fn most_fractional(x: &[f64], int_vars: &[usize]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &i in int_vars {
        let frac = (x[i] - x[i].round()).abs();
        if frac > INT_TOL {
            let score = 0.5 - (x[i] - x[i].floor() - 0.5).abs();
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
            }
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::Model;

    fn p() -> SolveParams {
        SolveParams::default()
    }

    #[test]
    fn pure_lp_optimal() {
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Le, 6.0);
        m.maximize(Model::expr().term(3.0, x).term(5.0, y));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.solution().unwrap().objective() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary
        let mut m = Model::new();
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        let c = m.bin_var("c");
        m.constraint(
            Model::expr().term(3.0, a).term(4.0, b).term(2.0, c),
            Sense::Le,
            6.0,
        );
        m.maximize(Model::expr().term(10.0, a).term(13.0, b).term(7.0, c));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        let sol = r.solution().unwrap();
        // best is b + c = 20
        assert!((sol.objective() - 20.0).abs() < 1e-6, "{}", sol.objective());
        assert!(sol.value(b) > 0.5 && sol.value(c) > 0.5 && sol.value(a) < 0.5);
    }

    #[test]
    fn integer_rounding_not_enough() {
        // LP optimum fractional; IP optimum differs from naive rounding
        // max x + y s.t. 2x + 2y <= 5, x,y int -> LP gives 2.5 total, IP 2
        let mut m = Model::new();
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.constraint(Model::expr().term(2.0, x).term(2.0, y), Sense::Le, 5.0);
        m.maximize(Model::expr().term(1.0, x).term(1.0, y));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.solution().unwrap().objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_binary_model() {
        let mut m = Model::new();
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        m.constraint(Model::expr().term(1.0, a).term(1.0, b), Sense::Ge, 3.0);
        m.minimize(Model::expr().term(1.0, a));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Infeasible);
        assert!(r.solution().is_none());
    }

    #[test]
    fn equality_with_integers() {
        // x + y = 7, x - y = 1 over integers
        let mut m = Model::new();
        let x = m.int_var("x", 0.0, 100.0);
        let y = m.int_var("y", 0.0, 100.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Eq, 7.0);
        m.constraint(Model::expr().term(1.0, x).term(-1.0, y), Sense::Eq, 1.0);
        m.minimize(Model::expr().term(1.0, x));
        let r = m.solve(&p()).unwrap();
        let sol = r.solution().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
        assert!((sol.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn hint_seeds_incumbent_under_zero_node_budget() {
        // fractional root LP (b=1, a=0.5) so the zero node budget matters
        let mut m = Model::new();
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        m.constraint(Model::expr().term(2.0, a).term(2.0, b), Sense::Le, 3.0);
        m.maximize(Model::expr().term(2.0, a).term(3.0, b));
        let params = SolveParams {
            node_limit: 0,
            rounding_heuristic: false,
            ..p()
        };
        let r = m.solve_with_hint(&params, &[(a, 1.0), (b, 0.0)]).unwrap();
        // hint gives objective 2 even though the optimum is 3
        assert!(r.status().has_solution());
        assert!((r.solution().unwrap().objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_hint_is_ignored() {
        let mut m = Model::new();
        let a = m.bin_var("a");
        m.constraint(Model::expr().term(1.0, a), Sense::Eq, 1.0);
        m.minimize(Model::expr().term(1.0, a));
        let r = m.solve_with_hint(&p(), &[(a, 0.0)]).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.solution().unwrap().value(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn big_m_disjunction() {
        // two unit squares must not overlap in 1D: |x1 - x2| >= 1
        // min x1 + x2 with x2 >= 0.2 forced ordering via binaries
        let mut m = Model::new();
        let x1 = m.num_var("x1", 0.0, 10.0);
        let x2 = m.num_var("x2", 0.0, 10.0);
        let q1 = m.bin_var("q1");
        let q2 = m.bin_var("q2");
        let big = 100.0;
        // x1 + 1 <= x2 + q1*M ; x2 + 1 <= x1 + q2*M ; q1 + q2 = 1
        m.constraint(
            Model::expr().term(1.0, x1).term(-1.0, x2).term(-big, q1),
            Sense::Le,
            -1.0,
        );
        m.constraint(
            Model::expr().term(1.0, x2).term(-1.0, x1).term(-big, q2),
            Sense::Le,
            -1.0,
        );
        m.constraint(Model::expr().term(1.0, q1).term(1.0, q2), Sense::Eq, 1.0);
        m.minimize(Model::expr().term(1.0, x1).term(2.0, x2));
        let r = m.solve(&p()).unwrap();
        let sol = r.solution().unwrap();
        let (v1, v2) = (sol.value(x1), sol.value(x2));
        assert!((v1 - v2).abs() >= 1.0 - 1e-6, "x1={v1} x2={v2}");
        // optimal keeps x2 at 0 and pushes x1 to 1: objective 1
        assert!((sol.objective() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reports_feasible_or_limit() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|i| m.bin_var(format!("b{i}"))).collect();
        let mut e = Model::expr();
        for (i, &v) in vars.iter().enumerate() {
            e = e.term(1.0 + (i as f64) * 0.37, v);
        }
        m.constraint(e.clone(), Sense::Le, 11.0);
        m.maximize(e);
        let params = SolveParams {
            node_limit: 1,
            ..p()
        };
        let r = m.solve(&params).unwrap();
        assert!(matches!(
            r.status(),
            SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::LimitReached
        ));
    }

    #[test]
    fn unsatisfiable_constant_constraint_is_infeasible() {
        let mut m = Model::new();
        let _x = m.num_var("x", 0.0, 1.0);
        m.constraint(Model::expr().plus(1.0), Sense::Le, 0.0);
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Infeasible);
    }

    #[test]
    fn maximize_unbounded() {
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, f64::INFINITY);
        m.maximize(Model::expr().term(1.0, x));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Unbounded);
    }

    // -- simplex edge cases through the solver stack --

    #[test]
    fn infeasible_lp_detected_by_simplex() {
        // bound propagation cannot see this conflict (activity bounds span
        // the rhs on both rows), so phase-1 simplex must prove it
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Le, 1.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Ge, 2.0);
        m.minimize(Model::expr().term(1.0, x));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Infeasible);
        assert!(r.solution().is_none());
    }

    #[test]
    fn unbounded_lp_with_constraints() {
        // feasible region is an unbounded strip around the diagonal
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, f64::INFINITY);
        let y = m.num_var("y", 0.0, f64::INFINITY);
        m.constraint(Model::expr().term(1.0, x).term(-1.0, y), Sense::Le, 1.0);
        m.constraint(Model::expr().term(-1.0, x).term(1.0, y), Sense::Le, 1.0);
        m.maximize(Model::expr().term(1.0, x).term(1.0, y));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Unbounded);
    }

    #[test]
    fn degenerate_lp_with_redundant_constraints() {
        // many bases are optimal (duplicated and implied rows); the simplex
        // must terminate despite degenerate pivots and report the optimum
        let mut m = Model::new();
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        for _ in 0..4 {
            m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Ge, 2.0);
        }
        m.constraint(Model::expr().term(2.0, x).term(2.0, y), Sense::Ge, 4.0);
        m.constraint(Model::expr().term(1.0, x), Sense::Ge, 0.0);
        m.minimize(Model::expr().term(1.0, x).term(1.0, y));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.solution().unwrap().objective() - 2.0).abs() < 1e-6);
    }

    // -- parallel search --

    /// A knapsack family with enough branching to exercise the pool.
    fn branching_model(n: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|i| m.bin_var(format!("b{i}"))).collect();
        let mut weight = Model::expr();
        let mut value = Model::expr();
        for (i, &v) in vars.iter().enumerate() {
            weight = weight.term(2.0 + ((i * 7) % 5) as f64, v);
            value = value.term(3.0 + ((i * 11) % 7) as f64, v);
        }
        // the 0.5 offset keeps the root LP fractional (weights are integral)
        m.constraint(weight, Sense::Le, (2 * n) as f64 * 0.6 + 0.5);
        m.maximize(value);
        m
    }

    #[test]
    fn parallel_matches_sequential_objective() {
        for n in [6, 9, 12] {
            let seq = branching_model(n)
                .solve(&SolveParams { threads: 1, ..p() })
                .unwrap();
            let par = branching_model(n)
                .solve(&SolveParams { threads: 4, ..p() })
                .unwrap();
            assert_eq!(seq.status(), SolveStatus::Optimal, "n={n}");
            assert_eq!(par.status(), SolveStatus::Optimal, "n={n}");
            let (a, b) = (
                seq.solution().unwrap().objective(),
                par.solution().unwrap().objective(),
            );
            assert!(
                (a - b).abs() < 1e-6,
                "n={n}: sequential {a} vs parallel {b}"
            );
        }
    }

    #[test]
    fn stats_track_search_work() {
        let r = branching_model(10)
            .solve(&SolveParams { threads: 2, ..p() })
            .unwrap();
        let s = r.stats();
        assert_eq!(s.threads, 2);
        assert_eq!(s.worker_busy.len(), 2);
        assert!(s.nodes_processed > 0, "{s:?}");
        assert_eq!(s.nodes_processed, r.nodes());
        assert!(s.simplex_iterations > 0, "{s:?}");
        assert!(s.total_time >= s.root_time, "{s:?}");
        assert!(
            !s.incumbents.is_empty(),
            "optimal solve must record an incumbent"
        );
        // the last trajectory point is the returned objective
        let last = s.incumbents.last().unwrap().objective;
        assert!((last - r.solution().unwrap().objective()).abs() < 1e-9);
        // improvements are monotone for a maximisation model
        for w in s.incumbents.windows(2) {
            assert!(w[1].objective >= w[0].objective, "{:?}", s.incumbents);
        }
    }

    #[test]
    fn corrupted_incumbent_fails_its_certificate() {
        // 3a + 4b + 2c <= 6 over binaries, plus a continuous x in [0, 2]
        let mut m = Model::new();
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        let c = m.bin_var("c");
        let x = m.num_var("x", 0.0, 2.0);
        m.constraint(
            Model::expr().term(3.0, a).term(4.0, b).term(2.0, c),
            Sense::Le,
            6.0,
        );
        m.maximize(Model::expr().term(10.0, a).term(13.0, b).term(1.0, x));
        let params = p();
        let ctx = SearchCtx::new(&m, &params, Instant::now());

        assert_eq!(ctx.incumbent_violation(&[0.0, 1.0, 1.0, 2.0]), None);
        let violation = |x: &[f64]| ctx.incumbent_violation(x).unwrap_or_default();
        assert!(violation(&[1.0, 1.0, 0.0, 0.0]).starts_with("row 0"));
        assert!(violation(&[0.0, 0.0, 1.0, 2.5]).starts_with("variable 3"));
        assert!(violation(&[0.0, 0.0, -1.0, 0.0]).starts_with("variable 2"));
        assert!(violation(&[0.0, 0.5, 0.0, 0.0]).starts_with("integer variable 1"));

        // debug builds refuse the corrupted point; release builds skip the
        // check
        let refused = ctx.certify(&[1.0, 1.0, 0.0, 0.0]);
        if cfg!(debug_assertions) {
            assert!(
                matches!(&refused, Err(SolveError::Numerical(msg)) if msg.contains("certificate")),
                "{refused:?}"
            );
        } else {
            assert!(refused.is_ok());
        }
        assert!(ctx.certify(&[0.0, 1.0, 1.0, 2.0]).is_ok());
    }

    #[test]
    fn resolved_threads_is_positive() {
        assert!(p().resolved_threads() >= 1);
        assert_eq!(SolveParams { threads: 3, ..p() }.resolved_threads(), 3);
    }

    // -- cooperative cancellation --

    #[test]
    fn pre_cancelled_token_aborts_without_search() {
        let token = CancelToken::new();
        token.cancel();
        let params = SolveParams {
            time_limit: Duration::from_secs(3600),
            cancel: Some(token),
            ..p()
        };
        let start = Instant::now();
        let r = branching_model(12).solve(&params).unwrap();
        assert_eq!(r.status(), SolveStatus::LimitReached);
        assert_eq!(r.nodes(), 0, "no node may be expanded after cancellation");
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "cancelled solve must return promptly, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn watcher_thread_cancellation_stops_a_long_solve() {
        let token = CancelToken::new();
        let watcher = token.clone();
        let params = SolveParams {
            time_limit: Duration::from_secs(3600),
            threads: 2,
            cancel: Some(token),
            ..p()
        };
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            watcher.cancel();
        });
        let start = Instant::now();
        let r = branching_model(20).solve(&params).unwrap();
        handle.join().expect("watcher thread");
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "cancellation must beat the 1h time limit, took {:?}",
            start.elapsed()
        );
        // whatever progress was made is reported faithfully
        assert!(matches!(
            r.status(),
            SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::LimitReached
        ));
    }

    #[test]
    fn spans_nest_across_search_workers() {
        let rec = columba_obs::SpanRecorder::new(8192);
        columba_obs::set_enabled(true);
        let guard = rec.install();
        let r = branching_model(12)
            .solve(&SolveParams { threads: 2, ..p() })
            .unwrap();
        drop(guard);
        columba_obs::set_enabled(false);
        assert_eq!(r.status(), SolveStatus::Optimal);

        let events = rec.finished();
        let find = |name: &str| events.iter().find(|e| e.name == name);
        let solve = find("milp.solve").expect("milp.solve span");
        let root = find("milp.root").expect("milp.root span");
        let search = find("bnb.search").expect("bnb.search span");
        assert_eq!(root.parent, Some(solve.id));
        assert_eq!(search.parent, Some(solve.id));
        assert!(find("simplex.phase1").is_some());
        assert!(find("simplex.phase2").is_some());
        // every batch span a worker recorded hangs off the search span,
        // even though the workers ran on scope threads
        let batches: Vec<_> = events.iter().filter(|e| e.name == "bnb.batch").collect();
        assert!(!batches.is_empty(), "search must record node batches");
        for b in &batches {
            assert_eq!(b.parent, Some(search.id));
        }
        // the root LP's phase spans nest under milp.root
        assert!(events
            .iter()
            .any(|e| e.name == "simplex.phase1" && e.parent == Some(root.id)));
    }

    #[test]
    fn token_deadline_is_capped_by_time_limit() {
        // the token's far deadline must not extend the solver's own budget:
        // with a zero time limit the capped deadline has already passed
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        let params = SolveParams {
            time_limit: Duration::ZERO,
            threads: 1,
            cancel: Some(token),
            ..p()
        };
        let r = branching_model(20).solve(&params).unwrap();
        assert_eq!(r.status(), SolveStatus::LimitReached);
        assert_eq!(r.nodes(), 0);
    }
}
