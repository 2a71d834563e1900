//! Branch & bound over the simplex relaxation.
//!
//! The search runs on a shared pool of open nodes drained by
//! [`std::thread::scope`] workers (no external crates). The incumbent lives
//! behind a mutex, with the best objective mirrored into an [`AtomicU64`]
//! (as `f64` bits) so workers can prune against it without taking the lock.
//! Node identity breaks heap ties in a fixed order, so a single worker
//! reproduces the classic sequential best-bound search exactly, and any
//! worker count returns the same objective on a run to completion. Under a
//! binding node or time budget, several workers expand a timing-dependent
//! set of nodes, so their pivots, bound and even incumbent can differ from
//! run to run.
//!
//! Every relaxation goes through [`presolved_lp`], which starts the simplex
//! one of two ways. *Crash*: from the least solution of a difference
//! system ([`crash`]), for any LP whose kept rows are difference,
//! single-variable or switch-group rows: the hint LP (the heuristic-mode
//! polish), the rounding-heuristic LP, the layout root relaxation and every
//! node LP whose free binaries all sit in eqs 3–5 groups. *Cold*: two
//! phases from the slack/artificial basis, for every LP the crash refuses
//! (the baseline placer's rotation rows, generic models) and for a crash
//! basis the simplex refuses.

use std::collections::BinaryHeap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::crash;
use crate::model::{Model, Sense, VarId, VarKind};
use crate::rows::Rows;
use crate::simplex::{self, Lp, LpOutcome, Start};
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
    /// available parallelism; `1` runs the classic sequential search, the
    /// only count whose work is reproducible. Any count returns the same
    /// objective on a search that runs to completion; when the node or time
    /// budget stops it, more than one worker can keep a different incumbent.
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

/// Immutable data shared by the root phase and every search worker. The
/// rows, bounds and costs are the model's own, borrowed.
struct SearchCtx<'a> {
    base_rows: &'a Rows,
    base_lb: &'a [f64],
    base_ub: &'a [f64],
    cost: &'a [f64],
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
    fn new(model: &'a Model, params: &'a SolveParams, start: Instant) -> SearchCtx<'a> {
        let solve_deadline = start + params.time_limit;
        SearchCtx {
            base_rows: &model.rows,
            base_lb: &model.lb,
            base_ub: &model.ub,
            cost: &model.objective,
            int_vars: (model.kind.iter().enumerate())
                .filter(|(_, &k)| k != VarKind::Continuous)
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

    /// Solves the LP for the given bounds from the crash, else cold, adding
    /// its iterations to `iters` and mapping numerical failures to
    /// [`SolveError`]. Every LP of a solve comes through here.
    fn lp(&self, lb: &[f64], ub: &[f64], iters: &AtomicUsize) -> Result<Relaxation, SolveError> {
        let relax = presolved_lp(self.base_rows, self.cost, lb, ub, Some(&self.stop_token));
        iters.fetch_add(relax.iterations, Ordering::Relaxed);
        if let LpOutcome::Numerical(msg) = &relax.outcome {
            return Err(SolveError::Numerical(msg.clone()));
        }
        Ok(relax)
    }

    /// The model's bounds with each `(variable, value)` fixed at the value
    /// rounded: the LP that polishes a hint or a rounded root. `None` when
    /// a rounded value lies outside its variable's bounds.
    fn fixed_bounds(
        &self,
        values: impl IntoIterator<Item = (usize, f64)>,
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        let mut lb = self.base_lb.to_vec();
        let mut ub = self.base_ub.to_vec();
        for (j, v) in values {
            let r = v.round();
            if r < self.base_lb[j] - 1e-9 || r > self.base_ub[j] + 1e-9 {
                return None;
            }
            lb[j] = r;
            ub[j] = r;
        }
        Some((lb, ub))
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

/// How a solve ended.
enum End {
    /// Every node was explored or pruned: the incumbent is optimal, and
    /// without one the model is infeasible.
    Exhausted,
    /// The solve stopped first: a limit fired, or the root relaxation has
    /// no optimum. Without an incumbent it reports this status.
    Stopped(SolveStatus),
}

/// The solve's mutable state, from the root phase through the search; the
/// workers share it.
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
    /// The root relaxation's bound (min sense), `NEG_INFINITY` until its LP
    /// is solved.
    root_bound: f64,
    nodes_processed: AtomicUsize,
    nodes_pruned: AtomicUsize,
    simplex_iterations: AtomicUsize,
    /// Worker panics contained by `catch_unwind`; each one loses a subtree,
    /// so any panic downgrades an "optimal" claim to a limit-style status.
    worker_panics: AtomicUsize,
    next_id: AtomicU64,
}

impl<'a> Search<'a> {
    /// An empty pool with no incumbent.
    fn new(ctx: &'a SearchCtx<'a>) -> Search<'a> {
        Search {
            ctx,
            heap: Mutex::new(BinaryHeap::new()),
            active: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            hit_limit: AtomicBool::new(false),
            error: Mutex::new(None),
            incumbent: Mutex::new(IncState {
                best: None,
                events: Vec::new(),
            }),
            best_obj: AtomicU64::new(f64::INFINITY.to_bits()),
            root_bound: f64::NEG_INFINITY,
            nodes_processed: AtomicUsize::new(0),
            nodes_pruned: AtomicUsize::new(0),
            simplex_iterations: AtomicUsize::new(0),
            worker_panics: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
        }
    }

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

    /// Keeps `values` as the incumbent when its objective `obj` (min sense)
    /// beats the current one. Every incumbent of a solve comes through here:
    /// the hint polish, an integral root, the rounding heuristic and nodes.
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
                let mut lb = ctx.base_lb.to_vec();
                let mut ub = ctx.base_ub.to_vec();
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

                match ctx.lp(&lb, &ub, &self.simplex_iterations)?.outcome {
                    LpOutcome::Numerical(_) => unreachable!("mapped to Err by SearchCtx::lp"),
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

    /// The root phase: the hint polish, the root relaxation, the integral
    /// root check and the rounding heuristic. Returns how the solve ended
    /// when it ends here; otherwise queues the root as node 0 for the
    /// search.
    fn root(&mut self, hint: Option<&[(VarId, f64)]>) -> Result<Option<End>, SolveError> {
        let ctx = self.ctx;
        // Constant-only constraints that are unsatisfiable make the model
        // trivially infeasible; satisfied ones are dropped by the presolve.
        let unsatisfiable = ctx.base_rows.iter().any(|r| {
            r.cols.is_empty()
                && !match r.sense {
                    Sense::Le => 0.0 <= r.rhs + 1e-9,
                    Sense::Ge => 0.0 >= r.rhs - 1e-9,
                    Sense::Eq => r.rhs.abs() <= 1e-9,
                }
        });
        if unsatisfiable {
            return Ok(Some(End::Stopped(SolveStatus::Infeasible)));
        }
        let mut span = columba_obs::span("milp.root");
        let iters = &self.simplex_iterations;

        // -- hint: fix its values, polish the rest by one LP --
        let hinted = hint.and_then(|h| ctx.fixed_bounds(h.iter().map(|&(v, x)| (v.index(), x))));
        if let Some((lb, ub)) = hinted {
            let relax = ctx.lp(&lb, &ub, iters)?;
            if span.is_recording() {
                span.attr("hint_start", relax.fallback.unwrap_or(relax.start));
                span.attr("hint_iterations", relax.iterations);
            }
            if let LpOutcome::Optimal { x, obj } = relax.outcome {
                self.offer_incumbent(x, obj + ctx.obj_constant)?;
            }
        }

        // zero node budget + a hint-based incumbent: skip the root relaxation
        // entirely (scalable heuristic mode — the LP polish *is* the answer)
        if ctx.params.node_limit == 0 && self.best_objective().is_finite() {
            return Ok(Some(End::Stopped(SolveStatus::LimitReached)));
        }

        // -- root relaxation --
        let root = ctx.lp(ctx.base_lb, ctx.base_ub, iters)?;
        if span.is_recording() {
            span.attr("root_start", root.start);
            span.attr("factored_columns", root.factored);
            if let Some(reason) = root.fallback {
                span.attr("fallback", reason);
            }
        }
        let (x, bound) = match root.outcome {
            LpOutcome::Optimal { x, obj } => (x, obj + ctx.obj_constant),
            LpOutcome::TimedOut => return Ok(Some(End::Stopped(SolveStatus::LimitReached))),
            LpOutcome::Infeasible => return Ok(Some(End::Stopped(SolveStatus::Infeasible))),
            // an incumbent is still reported (Feasible): the integer model
            // it solves is not unbounded in any sense we care about
            LpOutcome::Unbounded => return Ok(Some(End::Stopped(SolveStatus::Unbounded))),
            LpOutcome::Numerical(_) => unreachable!("mapped to Err by SearchCtx::lp"),
        };
        self.root_bound = bound;
        if all_integral(&x, &ctx.int_vars) {
            self.offer_incumbent(round_ints(x, &ctx.int_vars), bound)?;
            return Ok(Some(End::Exhausted));
        }

        // -- rounding heuristic --
        if ctx.params.rounding_heuristic && !self.best_objective().is_finite() {
            if let Some((lb, ub)) = ctx.fixed_bounds(ctx.int_vars.iter().map(|&j| (j, x[j]))) {
                if let LpOutcome::Optimal { x, obj } = ctx.lp(&lb, &ub, iters)?.outcome {
                    self.offer_incumbent(x, obj + ctx.obj_constant)?;
                }
            }
        }
        span.attr("iterations", iters.load(Ordering::Relaxed));
        // node 0 branches on the root solution in hand rather than re-solving
        lock_clean(&self.heap).push(OpenNode {
            id: 0,
            lp_bound: bound,
            depth: 0,
            path: None,
            solved: Some(x),
        });
        Ok(None)
    }

    /// Drains the pool on `threads` workers under the `bnb.search` span.
    /// Returns how the search ended and each worker's busy time.
    fn run(&self, threads: usize) -> (End, Vec<Duration>) {
        let mut span = columba_obs::span("bnb.search");
        let busy = if threads == 1 {
            vec![self.run_worker()]
        } else {
            // Hand the observability context across the scope boundary so
            // each worker's batch spans nest under this `bnb.search` span.
            let obs_ctx = columba_obs::SpanContext::current();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let obs_ctx = obs_ctx.clone();
                        s.spawn(move || {
                            let _obs = obs_ctx.as_ref().map(columba_obs::SpanContext::attach);
                            self.run_worker()
                        })
                    })
                    .collect();
                // panics inside `process` are already contained; a join
                // error here would mean the loop glue itself panicked —
                // degrade to a zero busy-time reading rather than poisoning
                // the caller
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or(Duration::ZERO))
                    .collect()
            })
        };
        if span.is_recording() {
            span.attr("nodes", self.nodes_processed.load(Ordering::Relaxed));
            span.attr("pruned", self.nodes_pruned.load(Ordering::Relaxed));
        }
        let end = if self.hit_limit.load(Ordering::Relaxed) {
            End::Stopped(SolveStatus::LimitReached)
        } else {
            End::Exhausted
        };
        (end, busy)
    }

    /// The solve's one exit: status, bound and stats derived from the search
    /// state and how the solve `end`ed. `searched` holds the search phase's
    /// start offset and per-worker busy time when it ran; a solve that ended
    /// in the root phase spent all its time there.
    fn finish(
        self,
        end: End,
        threads: usize,
        searched: Option<(Duration, Vec<Duration>)>,
    ) -> Result<MipResult, SolveError> {
        if let Some(e) = (self.error.into_inner()).unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        let total_time = self.ctx.start.elapsed();
        let (root_time, worker_busy) = searched.unwrap_or((total_time, Vec::new()));
        let IncState { best, events } =
            (self.incumbent.into_inner()).unwrap_or_else(PoisonError::into_inner);
        let inc = best.as_ref().map(|(_, obj)| *obj);
        let (status, bound) = match (end, inc) {
            (End::Exhausted, Some(inc)) => (SolveStatus::Optimal, inc),
            (End::Exhausted, None) => (SolveStatus::Infeasible, self.root_bound),
            (End::Stopped(status), _) => {
                // the heap still holds every unfinished node (workers
                // requeue on a limit), so its top is the best proven dual
                // bound; with none open it is the root's. A worker may
                // requeue a node it popped just before a peer's improvement;
                // a bound above the incumbent proves nothing, so cap it there.
                let heap = (self.heap.into_inner()).unwrap_or_else(PoisonError::into_inner);
                let top = heap.peek().map_or(self.root_bound, |n| n.lp_bound);
                match inc {
                    Some(inc) => (SolveStatus::Feasible, top.min(inc)),
                    None => (status, top),
                }
            }
        };
        if let Some(inc) = inc {
            debug_assert!(
                bound <= inc + 1e-6 * inc.abs().max(1.0),
                "dual bound {bound} exceeds the incumbent objective {inc}"
            );
        }
        let sign = self.ctx.sign;
        Ok(MipResult {
            status,
            solution: best.map(|(values, obj)| Solution {
                values,
                objective: sign * obj,
            }),
            best_bound: sign * bound,
            stats: SolveStats {
                threads,
                nodes_processed: self.nodes_processed.into_inner(),
                nodes_pruned: self.nodes_pruned.into_inner(),
                simplex_iterations: self.simplex_iterations.into_inner(),
                worker_panics: self.worker_panics.into_inner(),
                root_time,
                search_time: total_time - root_time,
                total_time,
                incumbents: events,
                worker_busy,
            },
        })
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
    let threads = params.resolved_threads();
    if solve_span.is_recording() {
        solve_span.attr("vars", model.num_vars());
        solve_span.attr("constraints", model.num_constraints());
        solve_span.attr("threads", threads);
    }
    let mut search = Search::new(&ctx);
    let (end, searched) = match search.root(hint)? {
        Some(end) => (end, None),
        None => {
            let root_time = start.elapsed();
            let (end, busy) = search.run(threads);
            (end, Some((root_time, busy)))
        }
    };
    let result = search.finish(end, threads, searched)?;
    if solve_span.is_recording() {
        solve_span.attr(
            "status",
            match result.status {
                SolveStatus::Optimal => "optimal",
                SolveStatus::Feasible => "feasible",
                SolveStatus::Infeasible => "infeasible",
                SolveStatus::Unbounded => "unbounded",
                SolveStatus::LimitReached => "limit",
            },
        );
    }
    Ok(result)
}

/// One relaxation solved through [`presolved_lp`].
#[derive(Debug)]
struct Relaxation {
    /// The outcome in the model's variable space.
    outcome: LpOutcome,
    iterations: usize,
    /// Where the simplex began: `"crash"` or `"cold"`.
    start: &'static str,
    /// Basic structural columns factored from the crash basis (0 when
    /// cold).
    factored: usize,
    /// On a cold run, why the crash was refused: the crash's reason, or the
    /// simplex's `"singular"` / `"infeasible"` for its basis.
    fallback: Option<&'static str>,
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
/// The simplex starts from the crash basis of the presolved LP's least
/// solution ([`crash`]) when its rows are difference, single-variable and
/// switch-group rows, and cold otherwise. Returns the outcome in the *full*
/// variable space.
fn presolved_lp(
    base_rows: &Rows,
    cost: &[f64],
    lb: &[f64],
    ub: &[f64],
    cancel: Option<&CancelToken>,
) -> Relaxation {
    let n = lb.len();
    let fixed = |j: usize| ub[j] - lb[j] <= 0.0;
    // the kept rows in base columns, written straight into one store
    let mut kept = Rows::with_capacity(base_rows.len(), base_rows.nonzeros());

    for row in base_rows.iter() {
        let mut rhs = row.rhs;
        // activity bounds over the terms that stay
        let (mut min_act, mut max_act) = (0.0f64, 0.0f64);
        for (j, c) in row.terms() {
            if fixed(j) {
                rhs -= c * lb[j];
                continue;
            }
            kept.push_term(j, c);
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
            Sense::Le => (max_act <= rhs + tol, min_act > rhs + tol),
            Sense::Ge => (min_act >= rhs - tol, max_act < rhs - tol),
            Sense::Eq => (
                (max_act - rhs).abs() <= tol && (min_act - rhs).abs() <= tol,
                min_act > rhs + tol || max_act < rhs - tol,
            ),
        };
        if infeasible {
            return Relaxation {
                outcome: LpOutcome::Infeasible,
                iterations: 0,
                start: "cold",
                factored: 0,
                fallback: None,
            };
        }
        if redundant {
            kept.discard_row();
            continue;
        }
        kept.finish_row(row.sense, rhs);
    }
    // columns of kept rows, and objective terms over unfixed variables,
    // must survive compression
    let mut used = vec![false; n];
    kept.columns().iter().for_each(|&j| used[j] = true);
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
    kept.renumber(&pos);
    let small = Lp {
        lb: keep.iter().map(|&j| lb[j]).collect(),
        ub: keep.iter().map(|&j| ub[j]).collect(),
        cost: keep.iter().map(|&j| cost[j]).collect(),
        rows: kept,
    };
    let fixed_cost: f64 = (0..n).filter(|&j| fixed(j)).map(|j| cost[j] * lb[j]).sum();

    let begin = crash::least_solution(&small);
    let run = simplex::solve_lp(&small, cancel, begin.as_ref().ok().map(|(b, _)| b));
    let (start, factored, fallback) = match (run.start, begin) {
        (Start::Warm { factored }, _) => ("crash", factored, None),
        (Start::Fallback(reason), _) | (_, Err(reason)) => ("cold", 0, Some(reason)),
        (Start::Cold, Ok(_)) => ("cold", 0, None),
    };
    let outcome = match run.outcome {
        LpOutcome::Optimal { x, obj } => {
            // expand to the full space: a fixed or unused column sits at
            // its lower bound
            let full = (0..n)
                .map(|j| {
                    if pos[j] != usize::MAX {
                        x[pos[j]]
                    } else {
                        lb[j]
                    }
                })
                .collect();
            LpOutcome::Optimal {
                x: full,
                obj: obj + fixed_cost,
            }
        }
        other => other,
    };
    Relaxation {
        outcome,
        iterations: run.iterations,
        start,
        factored,
        fallback,
    }
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
    use columba_obs::AttrValue;

    fn p() -> SolveParams {
        SolveParams::default()
    }

    #[test]
    fn pure_lp_optimal() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0);
        let y = m.num_var(0.0, 10.0);
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
        let a = m.bin_var();
        let b = m.bin_var();
        let c = m.bin_var();
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
        let x = m.int_var(0.0, 10.0);
        let y = m.int_var(0.0, 10.0);
        m.constraint(Model::expr().term(2.0, x).term(2.0, y), Sense::Le, 5.0);
        m.maximize(Model::expr().term(1.0, x).term(1.0, y));
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.solution().unwrap().objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_binary_model() {
        let mut m = Model::new();
        let a = m.bin_var();
        let b = m.bin_var();
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
        let x = m.int_var(0.0, 100.0);
        let y = m.int_var(0.0, 100.0);
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
        let a = m.bin_var();
        let b = m.bin_var();
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
        let a = m.bin_var();
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
        let x1 = m.num_var(0.0, 10.0);
        let x2 = m.num_var(0.0, 10.0);
        let q1 = m.bin_var();
        let q2 = m.bin_var();
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

    /// The `milp.root` span attribute of a one-node solve of `m`, with
    /// `hint` when one is given.
    fn root_attrs(m: &Model, hint: Option<&[(VarId, f64)]>) -> impl Fn(&str) -> Option<AttrValue> {
        let rec = columba_obs::SpanRecorder::new(64);
        columba_obs::set_enabled(true);
        let guard = rec.install();
        let params = SolveParams {
            node_limit: 1,
            ..p()
        };
        match hint {
            Some(h) => m.solve_with_hint(&params, h),
            None => m.solve(&params),
        }
        .unwrap();
        drop(guard);
        columba_obs::set_enabled(false);
        let root = (rec.finished().into_iter())
            .find(|e| e.name == "milp.root")
            .expect("milp.root span");
        move |key: &str| {
            (root.attrs.iter())
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        }
    }

    #[test]
    fn root_span_reports_how_the_hint_lp_started() {
        let s = |v: &str| Some(AttrValue::from(v));
        // with q fixed, each big-M row is a difference row or redundant;
        // with q free, the second row bounds q from above: no switch group
        let mut m = Model::new();
        let x1 = m.num_var(0.0, 10.0);
        let x2 = m.num_var(0.0, 10.0);
        let x3 = m.num_var(0.0, 10.0);
        let q = m.bin_var();
        let row = |a: f64, b: f64, c: f64| Model::expr().term(a, x1).term(b, x2).term(c, q);
        m.constraint(row(1.0, -1.0, -100.0), Sense::Le, -1.0);
        m.constraint(row(-1.0, 1.0, 100.0), Sense::Le, 99.0);
        m.minimize(Model::expr().term(1.0, x1).term(2.0, x2).term(1.0, x3));
        let attr = root_attrs(&m, Some(&[(q, 0.0)]));
        assert_eq!(attr("hint_start"), s("crash"));
        assert!(attr("hint_iterations").is_some());
        // the root runs cold whether or not a hint LP ran before it
        for attr in [attr, root_attrs(&m, None)] {
            assert_eq!(
                (attr("root_start"), attr("fallback")),
                (s("cold"), s("shape"))
            );
        }
        // a row over three free columns is not a difference row
        m.constraint(
            Model::expr().term(1.0, x1).term(1.0, x2).term(1.0, x3),
            Sense::Ge,
            2.0,
        );
        assert_eq!(root_attrs(&m, Some(&[(q, 1.0)]))("hint_start"), s("shape"));

        // a disjunction pair: x1 + 1 ≤ x2 or x2 + 1 ≤ x1, with q1 + q2 = 1
        let mut m = Model::new();
        let x1 = m.num_var(0.0, 10.0);
        let x2 = m.num_var(0.0, 10.0);
        let (q1, q2) = (m.bin_var(), m.bin_var());
        let gap =
            |a: VarId, b: VarId, q: VarId| Model::expr().term(1.0, a).term(-1.0, b).term(-20.0, q);
        m.constraint(gap(x1, x2, q1), Sense::Le, -1.0);
        m.constraint(gap(x2, x1, q2), Sense::Le, -1.0);
        m.constraint(Model::expr().term(1.0, q1).term(1.0, q2), Sense::Eq, 1.0);
        m.constraint(Model::expr().term(1.0, x1), Sense::Ge, 2.0);
        m.minimize(Model::expr().term(1.0, x1).term(1.0, x2));
        for hint in [Some(&[(q1, 0.0), (q2, 1.0)][..]), None] {
            let attr = root_attrs(&m, hint);
            assert_eq!((attr("root_start"), attr("fallback")), (s("crash"), None));
        }
    }

    #[test]
    fn lps_the_crash_refuses_run_the_cold_path() {
        let row = |terms: &[(usize, f64)], sense: Sense, rhs: f64| (terms.to_vec(), sense, rhs);
        let ge = |p: usize, q: usize, w: f64| row(&[(p, 1.0), (q, -1.0)], Sense::Ge, w);
        let cases = [
            // a three-term row
            (
                vec![row(&[(0, 1.0), (1, 1.0), (2, -1.0)], Sense::Le, 4.0)],
                [5.0; 3],
                "shape",
            ),
            // unequal coefficients are not a difference
            (
                vec![row(&[(0, 1.0), (1, -2.0)], Sense::Ge, 1.0)],
                [5.0; 3],
                "shape",
            ),
            // x1 ≥ x0 + 1, x2 ≥ x1 + 1, x0 ≥ x2 − 1: a positive cycle
            (
                vec![ge(1, 0, 1.0), ge(2, 1, 1.0), ge(0, 2, -1.0)],
                [f64::INFINITY; 3],
                "cycle",
            ),
            // x2 ≥ x1 + 3 ≥ x0 + 6, above x2's upper bound 5
            (vec![ge(1, 0, 3.0), ge(2, 1, 3.0)], [5.0; 3], "upper"),
            // x0 ≥ 2 and x0 ≤ 1 as single-variable rows
            (
                vec![
                    row(&[(0, 2.0)], Sense::Ge, 4.0),
                    row(&[(0, -1.0)], Sense::Ge, -1.0),
                ],
                [f64::INFINITY; 3],
                "upper",
            ),
        ];
        for (rows, ub, reason) in cases {
            let lp = Lp {
                lb: vec![0.0; 3],
                ub: ub.to_vec(),
                cost: vec![1.0, -1.0, 1.0],
                rows: rows.into_iter().collect(),
            };
            assert_eq!(crash::least_solution(&lp).err(), Some(reason));
            let relax = presolved_lp(&lp.rows, &lp.cost, &lp.lb, &lp.ub, None);
            assert_eq!((relax.start, relax.fallback), ("cold", Some(reason)));
            let cold = simplex::solve_lp(&lp, None, None);
            assert_eq!(cold.start, Start::Cold);
            assert_eq!(relax.iterations, cold.iterations, "{reason}");
            assert_eq!(
                format!("{:?}", relax.outcome),
                format!("{:?}", cold.outcome),
                "{reason}"
            );
        }
    }

    #[test]
    fn node_limit_reports_feasible_or_limit() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.bin_var()).collect();
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
        let _x = m.num_var(0.0, 1.0);
        m.constraint(Model::expr().plus(1.0), Sense::Le, 0.0);
        let r = m.solve(&p()).unwrap();
        assert_eq!(r.status(), SolveStatus::Infeasible);
    }

    #[test]
    fn maximize_unbounded() {
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY);
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
        let x = m.num_var(0.0, 10.0);
        let y = m.num_var(0.0, 10.0);
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
        let x = m.num_var(0.0, f64::INFINITY);
        let y = m.num_var(0.0, f64::INFINITY);
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
        let x = m.num_var(0.0, 10.0);
        let y = m.num_var(0.0, 10.0);
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
        let vars: Vec<_> = (0..n).map(|_| m.bin_var()).collect();
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
        let a = m.bin_var();
        let b = m.bin_var();
        let c = m.bin_var();
        let x = m.num_var(0.0, 2.0);
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

    /// One row of [`every_exit_reports_its_status_bound_and_work`]: what a
    /// solve ended with.
    #[derive(Debug, PartialEq)]
    struct Exit {
        status: SolveStatus,
        objective: Option<f64>,
        bound: f64,
        nodes: usize,
        iterations: usize,
        incumbents: usize,
        searched: bool,
    }

    fn exit(r: &MipResult) -> Exit {
        let s = r.stats();
        assert_eq!(s.total_time, s.root_time + s.search_time, "{s:?}");
        Exit {
            status: r.status(),
            objective: r.solution().map(Solution::objective),
            bound: r.best_bound(),
            nodes: r.nodes(),
            iterations: r.simplex_iterations(),
            incumbents: s.incumbents.len(),
            searched: !s.worker_busy.is_empty(),
        }
    }

    #[test]
    fn every_exit_reports_its_status_bound_and_work() {
        // min 2a + 3b + 4c + 5d over binaries with 3a + 4b + 5c + 6d ≥ 9.5:
        // the root LP is fractional, so the search branches
        let cover = || {
            let mut m = Model::new();
            let v: Vec<_> = (0..4).map(|_| m.bin_var()).collect();
            let mut weight = Model::expr();
            let mut cost = Model::expr();
            for (i, &x) in v.iter().enumerate() {
                weight = weight.term(3.0 + i as f64, x);
                cost = cost.term(2.0 + i as f64, x);
            }
            m.constraint(weight, Sense::Ge, 9.5);
            m.minimize(cost);
            (m, v)
        };
        let solve = |m: &Model, params: SolveParams, hint: Option<&[(VarId, f64)]>| {
            exit(
                &solve(
                    m,
                    &SolveParams {
                        threads: 1,
                        ..params
                    },
                    hint,
                )
                .unwrap(),
            )
        };
        let root_exit = |status, objective, bound, iterations, incumbents| Exit {
            status,
            objective,
            bound,
            nodes: 0,
            iterations,
            incumbents,
            searched: false,
        };
        let ninf = f64::NEG_INFINITY;

        // a constant row 1 ≤ 0
        let mut m = Model::new();
        let _ = m.num_var(0.0, 1.0);
        m.constraint(Model::expr().plus(1.0), Sense::Le, 0.0);
        assert_eq!(
            solve(&m, p(), None),
            root_exit(SolveStatus::Infeasible, None, ninf, 0, 0)
        );

        // a zero node budget with a hint: the hint LP's polish is the answer
        let (m, v) = cover();
        let hint = [(v[0], 0.0), (v[1], 0.0), (v[2], 1.0), (v[3], 1.0)];
        let zero = SolveParams {
            node_limit: 0,
            ..p()
        };
        assert_eq!(
            solve(&m, zero, Some(&hint)),
            root_exit(SolveStatus::Feasible, Some(9.0), ninf, 0, 1)
        );

        // a token cancelled before the solve: the root LP stops at once
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SolveParams {
            cancel: Some(token),
            ..p()
        };
        assert_eq!(
            solve(&m, cancelled, None),
            root_exit(SolveStatus::LimitReached, None, ninf, 0, 0)
        );

        // x + y ≤ 1 and x + y ≥ 2: phase 1 proves the root infeasible
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0);
        let y = m.num_var(0.0, 10.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Le, 1.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Ge, 2.0);
        m.minimize(Model::expr().term(1.0, x));
        assert_eq!(
            solve(&m, p(), None),
            root_exit(SolveStatus::Infeasible, None, ninf, 1, 0)
        );

        // min −x − y along an unbounded strip
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY);
        let y = m.num_var(0.0, f64::INFINITY);
        m.constraint(Model::expr().term(1.0, x).term(-1.0, y), Sense::Le, 1.0);
        m.constraint(Model::expr().term(-1.0, x).term(1.0, y), Sense::Le, 1.0);
        m.minimize(Model::expr().term(-1.0, x).term(-1.0, y));
        assert_eq!(
            solve(&m, p(), None),
            root_exit(SolveStatus::Unbounded, None, ninf, 1, 0)
        );

        // min x + 2y over integers with x + y ≥ 2: the root vertex is integral
        let mut m = Model::new();
        let x = m.int_var(0.0, 10.0);
        let y = m.int_var(0.0, 10.0);
        m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Ge, 2.0);
        m.minimize(Model::expr().term(1.0, x).term(2.0, y));
        assert_eq!(
            solve(&m, p(), None),
            root_exit(SolveStatus::Optimal, Some(2.0), 2.0, 1, 1)
        );

        // the search proves the cover's optimum 8 (b + d)
        let (m, _) = cover();
        let no_rounding = || SolveParams {
            rounding_heuristic: false,
            ..p()
        };
        assert_eq!(
            solve(&m, no_rounding(), None),
            Exit {
                status: SolveStatus::Optimal,
                objective: Some(8.0),
                bound: 8.0,
                nodes: 15,
                iterations: 19,
                incumbents: 2,
                searched: true,
            }
        );

        // one node branches on the root and stops: the bound is the open
        // children's, the root LP's 7
        let one = SolveParams {
            node_limit: 1,
            ..no_rounding()
        };
        assert_eq!(
            solve(&m, one, None),
            Exit {
                status: SolveStatus::LimitReached,
                objective: None,
                bound: 7.0,
                nodes: 1,
                iterations: 6,
                incumbents: 0,
                searched: true,
            }
        );
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
