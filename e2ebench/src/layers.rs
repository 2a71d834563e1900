//! The direct per-layer pass: every distinct input of a run goes through
//! each layer's public function, called from here, in the order the
//! service worker calls them. Its `columba_layout::synthesize` result is
//! the reference every HTTP reply is checked against; with `full` set it
//! also calls the layers the check does not need (generation alone, DRC,
//! CAD export, cache, persistence) so the traced run can time them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use columba_s::design::drc;
use columba_s::layout;
use columba_s::milp::SolveStatus;
use columba_s::{Netlist, SynthesisOptions};
use columba_schedule::{Assay, ScheduleOptions};
use columba_service::{
    entry_cost, CompletedDesign, ContentKey, DesignCache, DesignSummary, FsyncPolicy,
    JournalRecord, Persist, PersistConfig, QosClass,
};

use crate::inputs::Input;
use crate::trace::Tracer;

/// What the direct `columba_layout::synthesize` call produced, in the
/// status endpoint's formatting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// `width_mm`, three decimals.
    pub width_mm: String,
    /// `height_mm`, three decimals.
    pub height_mm: String,
    /// `control_inlets`.
    pub control_inlets: String,
}

/// Per-layer counters summed over the pass (`milp.simplex_iters`, ...).
pub type Counters = BTreeMap<&'static str, f64>;

/// What a pass returns: one reference per input (an `Err` names why the
/// direct call failed), the summed counters and every recorded span.
pub type PassOutput = (
    Vec<Result<Reference, String>>,
    Counters,
    Vec<crate::trace::Span>,
);

fn add(counters: &mut Counters, name: &'static str, value: f64) {
    *counters.entry(name).or_default() += value;
}

/// The layout options the service's worker uses for `netlist`: the
/// pinned options with the node budget dropped to zero above the
/// auto-scale threshold, exactly as `Columba::synthesize_resilient` does.
fn layout_options(options: &SynthesisOptions, planarized: &Netlist) -> layout::LayoutOptions {
    let mut lo = options.layout.clone();
    if options.auto_scale && planarized.functional_unit_count() > options.scale_threshold {
        lo.node_limit = 0;
    }
    lo
}

/// Everything the pass needs besides the inputs.
pub struct Pass<'a> {
    /// The service's synthesis options.
    pub options: &'a SynthesisOptions,
    /// The service's schedule options (assay inputs).
    pub schedule: &'a ScheduleOptions,
    /// Also call the layers the reference does not need.
    pub full: bool,
    /// The persist layer the full pass journals and stores into.
    pub persist: Option<&'a Persist>,
}

#[allow(clippy::cast_precision_loss)]
fn one(
    pass: &Pass<'_>,
    input: &Input,
    id: u64,
    cache: &mut DesignCache,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<Reference, String> {
    let (netlist, canonical) = if input.assay {
        let assay = t
            .time("schedule.parse", || Assay::parse(&input.text))
            .map_err(|e| e.to_string())?;
        let report = t
            .time("schedule.run", || {
                columba_schedule::schedule(&assay, pass.schedule)
            })
            .map_err(|e| e.to_string())?;
        add(c, "schedule.storage_ops", report.storage.ops.len() as f64);
        let canonical = format!(
            "{}\u{1f}{}",
            assay.canonical_text(),
            pass.schedule.canonical_text()
        );
        (report.netlist, canonical)
    } else {
        let netlist = t
            .time("netlist.parse", || Netlist::parse(&input.text))
            .map_err(|e| e.to_string())?;
        let canonical = t.time("netlist.canonical", || netlist.canonical_text());
        (netlist, canonical)
    };
    netlist.validate().map_err(|e| e.to_string())?;
    let (planarized, _) = t.time("planar.planarize", || {
        columba_s::planar::planarize(&netlist)
    });
    let lo = layout_options(pass.options, &planarized);
    let mut generate_solver = Duration::ZERO;
    if pass.full {
        let (_, generated) = t
            .time("layout.generate", || {
                layout::generate_only(&planarized, &lo)
            })
            .map_err(|e| e.to_string())?;
        let r = &generated.report;
        generate_solver = r.elapsed;
        add(c, "milp.root_lp_s", r.solve.root_time.as_secs_f64());
        add(c, "milp.search_s", r.solve.search_time.as_secs_f64());
        add(c, "milp.simplex_iters", r.solve.simplex_iterations as f64);
        add(c, "milp.bb_nodes", r.solve.nodes_processed as f64);
        add(c, "milp.model_rows", r.model_stats.constraints as f64);
        add(c, "milp.model_nonzeros", r.model_stats.nonzeros as f64);
        add(
            c,
            "milp.proven_optimal",
            f64::from(u8::from(r.status == SolveStatus::Optimal)),
        );
    }
    let result = t
        .time("layout.synthesize", || layout::synthesize(&planarized, &lo))
        .map_err(|e| e.to_string())?;
    let stats = result.design.stats();
    let reference = Reference {
        width_mm: format!("{:.3}", stats.width.to_mm()),
        height_mm: format!("{:.3}", stats.height.to_mm()),
        control_inlets: stats.control_inlets.to_string(),
    };
    if !pass.full {
        return Ok(reference);
    }
    // `layout.validate_s` is synthesize minus generate_only; the same
    // solve jitters by about 10% between calls, far more than
    // validation costs on small designs, so each call's own solver time
    // is taken out of the difference.
    add(
        c,
        "layout.solver_jitter_s",
        result.laygen.elapsed.as_secs_f64() - generate_solver.as_secs_f64(),
    );
    let report = t.time("drc.check", || drc::check(&result.design));
    add(c, "drc.violations", report.violations.len() as f64);
    let mut svg = Vec::new();
    t.time("cad.svg", || {
        columba_s::cad::write_svg(&result.design, &mut svg)
    })
    .map_err(|e| e.to_string())?;
    let mut scr = Vec::new();
    t.time("cad.scr", || {
        columba_s::cad::write_scr(&result.design, &mut scr)
    })
    .map_err(|e| e.to_string())?;
    add(c, "cad.bytes", (svg.len() + scr.len()) as f64);
    let options_canon = pass.options.canonical_text();
    let key = ContentKey::of_sections(&[&canonical, &options_canon]);
    let record = format!("{}\u{1f}{canonical}{options_canon}", canonical.len());
    let design = Arc::new(CompletedDesign {
        summary: DesignSummary {
            drc_clean: report.is_clean(),
            width_mm: stats.width.to_mm(),
            height_mm: stats.height.to_mm(),
            control_inlets: stats.control_inlets,
            solve_nodes: result.laygen.solve.nodes_processed,
            solve_pruned: result.laygen.solve.nodes_pruned,
            solve_simplex_iterations: result.laygen.solve.simplex_iterations,
        },
        svg: String::from_utf8(svg).map_err(|e| e.to_string())?,
        scr: String::from_utf8(scr).map_err(|e| e.to_string())?,
        rung: "full MILP".into(),
        solved_in: Duration::ZERO,
    });
    let cost = entry_cost(&design, &record);
    t.time("cache.insert", || {
        cache.insert(key, Arc::clone(&design), record.clone(), cost)
    });
    let hit = t.time("cache.get", || cache.get(key, &record));
    if hit.is_none() {
        return Err("cache.get missed a design just inserted".into());
    }
    if let Some(persist) = pass.persist {
        let submitted = JournalRecord::Submitted {
            id,
            class: QosClass::Interactive,
            text: Arc::new(input.text.clone()),
        };
        t.time("persist.journal_append", || persist.append(&submitted))
            .map_err(|e| e.to_string())?;
        t.time("persist.design_store", || {
            persist.store_design(key, &record, &design)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(reference)
}

/// Runs the pass over `inputs` on two threads.
pub fn run(pass: &Pass<'_>, inputs: &[Input], tracers: [Tracer; 2]) -> PassOutput {
    let mut refs: Vec<Option<Result<Reference, String>>> = vec![None; inputs.len()];
    let mut counters = Counters::new();
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(lane, mut t)| {
                scope.spawn(move || {
                    let mut cache = DesignCache::new(columba_service::CacheConfig::default());
                    let mut c = Counters::new();
                    let mut out = Vec::new();
                    for (i, input) in inputs.iter().enumerate().skip(lane).step_by(2) {
                        t.begin("design");
                        out.push((
                            i,
                            one(pass, input, i as u64 + 1, &mut cache, &mut t, &mut c),
                        ));
                        t.end();
                    }
                    (out, c, t.spans)
                })
            })
            .collect();
        for h in handles {
            let (out, c, s) = h.join().expect("layer pass thread panicked");
            for (i, r) in out {
                refs[i] = Some(r);
            }
            for (k, v) in c {
                add(&mut counters, k, v);
            }
            spans.extend(s);
        }
    });
    let refs = refs
        .into_iter()
        .map(|r| r.expect("every input visited"))
        .collect();
    (refs, counters, spans)
}

/// Opens a persist layer with the benchmark's policy (no fsync).
///
/// # Errors
///
/// The state directory could not be opened.
pub fn open_persist(dir: &Path) -> Result<Persist, String> {
    Persist::open(&persist_config(dir))
        .map(|(p, _)| p)
        .map_err(|e| format!("persist {}: {e}", dir.display()))
}

/// The persist configuration every durable service in the benchmark
/// uses: `FsyncPolicy::Never`, so the shared disk's flush latency does
/// not set the numbers.
pub fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig {
        state_dir: dir.to_path_buf(),
        fsync_policy: FsyncPolicy::Never,
    }
}
