//! End-to-end HTTP benchmark of the Columba S synthesis service.
//!
//! ```text
//! e2ebench --workload <solve_small|scale_large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts `Service` + `HttpServer` over TCP in process, drives one
//! workload from two client threads, checks every returned design
//! against a direct `columba_layout::synthesize` call on the same input,
//! prints every metric by name with its unit, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of the traced pass with `--trace 1`. `NOTES.md` explains the
//! workloads and what each metric should move.

mod client;
mod inputs;
mod layers;
mod phases;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columba_prng::Rng;
use columba_s::layout::LayoutOptions;
use columba_s::SynthesisOptions;
use columba_schedule::ScheduleOptions;
use columba_service::{metric_value, HttpConfig, Persist, ServiceConfig};

use crate::client::DesignReply;
use crate::inputs::{Arrival, Input, Op};
use crate::layers::{Counters, Pass, PassOutput, Reference};
use crate::phases::{Memory, MemoryProbe, PhaseResult, Rounds, Running, Sample};
use crate::trace::{Span, Tracer};

/// Branch & bound node budget every solve runs under. Solves stop on
/// nodes, never on the clock, so their work is the same on every run.
const NODE_LIMIT: usize = 1;

/// Far above any solve the workloads contain: the clock never binds.
const TIME_LIMIT: Duration = Duration::from_secs(3600);

/// `setup_s` is the median over `SETUP_BLOCKS` blocks of the fastest of
/// `SETUP_BLOCK` set-ups each (after one warm-up set-up, which pays for
/// the process's first thread spawns and page faults). A set-up is about
/// 0.3 ms of thread spawns and one loopback round trip, so a single
/// sample is mostly how soon the other tenants of the machine let an
/// idle vCPU wake; the fastest of a block is the set-up cost itself.
const SETUP_BLOCKS: usize = 15;
const SETUP_BLOCK: usize = 8;

/// Random netlists in a `solve_small` run. Fewer than the run's rounds,
/// so the median request stays inside one bundled case's cluster
/// whichever way the random ones sort.
const SOLVE_RANDOMS: usize = 3;

/// Untraced and traced segments a traced run alternates, so drift of
/// the machine over the run moves both sides of `trace.overhead_s`
/// alike.
const TRACE_SEGMENTS: usize = 3;

/// `chip_area_mm2` weighs each input by how often the first
/// `AREA_ROUNDS` rounds submit it: about a 30 s run's mix, and the same
/// whatever the speed of the service.
const AREA_ROUNDS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SolveSmall,
    ScaleLarge,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "solve_small" => Workload::SolveSmall,
                    "scale_large" => Workload::ScaleLarge,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The options every service (and the direct pass) runs under.
fn synthesis_options() -> SynthesisOptions {
    SynthesisOptions {
        layout: LayoutOptions {
            threads: 1,
            node_limit: NODE_LIMIT,
            time_limit: TIME_LIMIT,
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    }
}

/// The pinned service configuration: two workers, the pinned synthesis
/// options, no job deadline, and every other field at its default.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        options: synthesis_options(),
        job_deadline: None,
        ..ServiceConfig::default()
    }
}

/// Checks one design reply: `state done`, `drc_clean true`, an SVG body,
/// the cache provenance expected, and the reference's dimensions and
/// control-inlet count. Returns the chip area in mm².
fn check(
    reply: &Result<DesignReply, String>,
    reference: &Result<Reference, String>,
    cached: bool,
) -> Result<f64, String> {
    let r = reply.as_ref().map_err(Clone::clone)?;
    if r.get("state") != "done" {
        return Err(format!("state {} ({})", r.get("state"), r.get("error")));
    }
    if r.get("drc_clean") != "true" {
        return Err("drc_clean is not true".into());
    }
    if !r.svg_ok {
        return Err(format!("bad SVG body ({} bytes)", r.svg_bytes));
    }
    if r.get("from_cache") != cached.to_string() {
        return Err(format!(
            "from_cache {} (expected {cached})",
            r.get("from_cache")
        ));
    }
    let reference = reference
        .as_ref()
        .map_err(|e| format!("direct synthesize failed: {e}"))?;
    for (key, want) in [
        ("width_mm", &reference.width_mm),
        ("height_mm", &reference.height_mm),
        ("control_inlets", &reference.control_inlets),
    ] {
        if r.get(key) != want {
            return Err(format!(
                "{key} {} but direct synthesize gives {want}",
                r.get(key)
            ));
        }
    }
    let w: f64 = r.get("width_mm").parse().map_err(|_| "bad width_mm")?;
    let h: f64 = r.get("height_mm").parse().map_err(|_| "bad height_mm")?;
    Ok(w * h)
}

/// Checks a phase's design replies, counting attempts and failures.
/// Returns the latencies of the designs that passed, and the chip area
/// of each input among them, by reference index.
fn tally(
    report: &mut Report,
    phase: &PhaseResult,
    refs: &[Result<Reference, String>],
    cached: bool,
) -> (Vec<f64>, BTreeMap<usize, f64>) {
    let mut latencies = Vec::new();
    let mut areas = BTreeMap::new();
    for Sample {
        base,
        latency,
        reply,
    } in &phase.samples
    {
        report.attempted += 1;
        match check(reply, &refs[*base], cached) {
            Ok(area) => {
                latencies.extend(*latency);
                areas.insert(*base, area);
            }
            Err(e) => {
                report.failed += 1;
                if report.failures.len() < 10 {
                    report.failures.push(e);
                }
            }
        }
    }
    (latencies, areas)
}

/// Adds a latency distribution's median and, where enough samples lie
/// beyond it, its p90 to the notes.
fn describe(report: &mut Report, what: &str, latencies: &[f64]) {
    let p50 = stats::median(latencies).unwrap_or(f64::NAN);
    let p90 = stats::tail(latencies, 0.9)
        .map_or_else(|| "n/a (<100 samples)".to_string(), |v| format!("{v:.6} s"));
    report.note(format!(
        "{what}: {} requests, latency_p50_s {p50:.6} s, latency_p90_s {p90}",
        latencies.len()
    ));
}

/// Opens the pinned service `1 + SETUP_BLOCKS * SETUP_BLOCK` times,
/// keeping the last one running. Returns it and `setup_s`.
fn set_up(report: &mut Report) -> Result<(Running, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..=SETUP_BLOCKS * SETUP_BLOCK {
        let (running, seconds) = Running::open(service_config())?;
        times.push(seconds);
        if let Some(previous) = last.replace(running) {
            previous.stop();
        }
    }
    let running = last.expect("at least one set-up");
    report.note(format!("setup samples (s): {times:?}"));
    let fastest: Vec<f64> = times[1..]
        .chunks(SETUP_BLOCK)
        .map(|block| block.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    Ok((running, stats::median(&fastest).expect("set-up samples")))
}

/// The direct per-layer pass over `bases`; with `full`, also times the
/// persist layer (journal and design store into `scratch/direct`, then
/// recovery of what the pass wrote).
fn direct_pass(
    bases: &[Input],
    full: bool,
    scratch: &Path,
    epoch: Instant,
) -> Result<PassOutput, String> {
    let options = synthesis_options();
    let schedule = ScheduleOptions::default();
    let direct = scratch.join("direct");
    let persist = if full {
        Some(layers::open_persist(&direct)?)
    } else {
        None
    };
    let pass = Pass {
        options: &options,
        schedule: &schedule,
        full,
        persist: persist.as_ref(),
    };
    let tracers = [
        Tracer::new(full, epoch, 3_000_000),
        Tracer::new(full, epoch, 4_000_000),
    ];
    let (refs, counters, mut spans) = layers::run(&pass, bases, tracers);
    drop(persist);
    if full {
        let mut t = Tracer::new(true, epoch, 5_000_000);
        let opened = t.time("persist.recovery", || {
            Persist::open(&layers::persist_config(&direct))
        });
        opened.map_err(|e| format!("recovery: {e}"))?;
        spans.extend(t.spans);
    }
    Ok((refs, counters, spans))
}

/// The per-layer metrics of the direct pass: summed busy seconds per
/// layer, and the solver, DRC, export and schedule counts.
fn direct_layers(report: &mut Report, direct: &[Span], counters: &Counters) {
    let busy = trace::totals(direct);
    let sum = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let validate =
        sum("layout.synthesize") - sum("layout.generate") - count("layout.solver_jitter_s");
    let layer_times = [
        ("netlist.parse_s", sum("netlist.parse")),
        ("netlist.canonical_s", sum("netlist.canonical")),
        ("schedule.run_s", sum("schedule.run")),
        ("planar.planarize_s", sum("planar.planarize")),
        ("layout.generate_s", sum("layout.generate")),
        ("layout.validate_s", validate),
        ("drc.check_s", sum("drc.check")),
        ("cad.svg_s", sum("cad.svg")),
        ("cad.scr_s", sum("cad.scr")),
        ("cache.get_s", sum("cache.get")),
        ("cache.insert_s", sum("cache.insert")),
        ("persist.journal_append_s", sum("persist.journal_append")),
        ("persist.design_store_s", sum("persist.design_store")),
        ("persist.recovery_s", sum("persist.recovery")),
    ];
    let total: f64 = layer_times.iter().map(|(_, v)| v).sum();
    for (name, value) in layer_times {
        report.per_layer.push(metric(name, value, "s"));
    }
    let render =
        sum("drc.check") + sum("cad.svg") + sum("cad.scr") + validate + sum("planar.planarize");
    report.note(format!(
        "direct pass: layout.generate is {:.1}% of {total:.6} s summed layer time; \
         drc+cad+validate+planarize {render:.6} s vs layout.generate {:.6} s",
        100.0 * sum("layout.generate") / total.max(f64::MIN_POSITIVE),
        sum("layout.generate")
    ));
    for name in ["milp.root_lp_s", "milp.search_s"] {
        report.per_layer.push(metric(name, count(name), "s"));
    }
    for (name, unit) in [
        ("milp.simplex_iters", "count"),
        ("milp.bb_nodes", "count"),
        ("milp.model_rows", "count"),
        ("milp.model_nonzeros", "count"),
        ("milp.proven_optimal", "count"),
        ("drc.violations", "count"),
        ("cad.bytes", "B"),
        ("schedule.storage_ops", "count"),
    ] {
        report.per_layer.push(metric(name, count(name), unit));
    }
}

/// The per-request metrics of the traced HTTP phase: the median of each
/// client-side call, the service's share of a request, and the traced
/// median latency less the untraced one.
fn http_layers(report: &mut Report, traced: &PhaseResult, traced_p50: f64, untraced_p50: f64) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &traced.spans {
        by_name.entry(s.name).or_default().push(s.seconds());
    }
    for (name, span) in [
        ("http.submit_s", "http.submit"),
        ("http.status_s", "http.status"),
        ("http.export_s", "http.export"),
        ("http.batch_s", "http.batch"),
    ] {
        let value = by_name
            .get(span)
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0);
        report.per_layer.push(metric(name, value, "s"));
    }
    let mut jobs = Vec::new();
    let mut waits = Vec::new();
    for s in &traced.samples {
        if let (Ok(r), Some(latency)) = (&s.reply, s.latency) {
            if let Ok(us) = r.get("elapsed_us").parse::<f64>() {
                jobs.push(us / 1e6);
                waits.push(latency - us / 1e6);
            }
        }
    }
    report.per_layer.push(metric(
        "service.queue_wait_s",
        stats::median(&waits).unwrap_or(0.0),
        "s",
    ));
    report.per_layer.push(metric(
        "service.job_s",
        stats::median(&jobs).unwrap_or(0.0),
        "s",
    ));
    report
        .per_layer
        .push(metric("trace.overhead_s", traced_p50 - untraced_p50, "s"));
}

/// `http.sse_stalls`: followed event streams whose `end` frame came at
/// least one heartbeat after polling saw the job's terminal state.
fn sse_stalls(report: &mut Report, sse: &PhaseResult) {
    let heartbeat = HttpConfig::default().sse_heartbeat.as_secs_f64();
    let mut stalls = 0;
    for (terminal_at, end) in &sse.sse {
        match end {
            Ok(end_at)
                if end_at.saturating_duration_since(*terminal_at).as_secs_f64() >= heartbeat =>
            {
                stalls += 1;
            }
            Ok(_) => {}
            Err(e) => report.note(format!("sse probe failed: {e}")),
        }
    }
    report.note(format!(
        "sse: {stalls} of {} followed streams stalled a heartbeat",
        sse.sse.len()
    ));
    report
        .per_layer
        .push(metric("http.sse_stalls", f64::from(stalls), "count"));
}

/// The metrics the service itself counts: the cache hit ratio and the
/// allocator's per-subsystem bytes (per design reply, from `/metrics` at
/// the end of the run), and its peak live heap at the memory probe.
#[allow(clippy::cast_precision_loss)]
fn service_layers(report: &mut Report, metrics_text: &str, memory: Memory, designs: usize) {
    let scraped = |key: &str| metric_value(metrics_text, key).unwrap_or(0.0);
    let lookups = scraped("cache_hits") + scraped("cache_misses");
    report.per_layer.push(metric(
        "cache.hit_ratio",
        if lookups > 0.0 {
            scraped("cache_hits") / lookups
        } else {
            0.0
        },
        "ratio",
    ));
    for (name, key) in [
        ("alloc.milp_bytes", "alloc_subsystem_bytes_milp"),
        ("alloc.layout_bytes", "alloc_subsystem_bytes_layout"),
        ("alloc.schedule_bytes", "alloc_subsystem_bytes_schedule"),
        ("alloc.service_bytes", "alloc_subsystem_bytes_service"),
    ] {
        let per_design = scraped(key) / designs.max(1) as f64;
        report.per_layer.push(metric(name, per_design, "B/design"));
    }
    report.per_layer.push(metric(
        "alloc.peak_live_bytes",
        memory.peak_live_bytes as f64,
        "B",
    ));
}

fn scrape_metrics(running: &Running) -> String {
    client::call(running.addr, "GET", "/metrics", b"")
        .map(|r| r.text())
        .unwrap_or_default()
}

/// `solve_small` and `scale_large`: closed loops of cold designs over
/// `bases`. `round(k)` returns round `k`'s inputs, renamed so every
/// request of the run is cold, each with its reference index; `copies[i]`
/// is how often the first [`AREA_ROUNDS`] rounds submit input `i`.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn closed_workload<F>(
    args: &Args,
    scratch: &Path,
    bases: &[Input],
    copies: &[usize],
    round: F,
) -> Result<Report, String>
where
    F: FnMut(usize) -> Vec<(Input, usize)> + Send,
{
    let mut report = Report::default();
    let epoch = Instant::now();
    let (running, setup) = set_up(&mut report)?;
    let addr = running.addr;
    let memory = MemoryProbe::new(Arc::clone(&running.service));
    // rounds are numbered across every phase of the run
    let mut made = (0..).map(round);
    let mut measured = PhaseResult::default();
    let mut traced = PhaseResult::default();
    if args.trace {
        let share = args.seconds / (2 * TRACE_SEGMENTS) as f64;
        for _ in 0..TRACE_SEGMENTS {
            let rounds = Rounds::new(share, || made.next().unwrap_or_default());
            measured.absorb(phases::closed_loop(
                addr, rounds, false, false, epoch, &memory,
            ));
            let rounds = Rounds::new(share, || made.next().unwrap_or_default());
            traced.absorb(phases::closed_loop(
                addr, rounds, true, false, epoch, &memory,
            ));
        }
    } else {
        let rounds = Rounds::new(args.seconds, || made.next().unwrap_or_default());
        measured = phases::closed_loop(addr, rounds, false, false, epoch, &memory);
    }
    let mut sse = PhaseResult::default();
    let mut tail = Vec::new();
    if args.trace {
        // Event streams are followed in a round of their own: a follower
        // thread per job would load the machine the traced phase times.
        let rounds = Rounds::once(made.next().unwrap_or_default());
        sse = phases::closed_loop(addr, rounds, false, true, epoch, &memory);
        // The cached path, so every layer is traced on every workload: a
        // batch of the two smallest netlists with duplicate members (cold),
        // then both resubmitted (cache hits).
        let mut netlists: Vec<usize> = (0..bases.len()).filter(|&i| !bases[i].assay).collect();
        netlists.sort_by_key(|&i| bases[i].text.len());
        let (a, b) = (netlists[0], netlists[1]);
        for (ops, cached) in [
            (vec![Op::Batch([a, b, a, a])], false),
            (vec![Op::Resubmit(a), Op::Resubmit(b)], true),
        ] {
            let schedule: Vec<Arrival> = ops
                .into_iter()
                .map(|op| Arrival { due_s: 0.0, op })
                .collect();
            let mut phase = phases::open_loop(addr, bases, &schedule, true, epoch, &memory);
            traced.spans.append(&mut phase.spans);
            tail.push((phase, cached));
        }
    }
    let metrics_text = scrape_metrics(&running);
    let (mem, designs) = (memory.memory(), memory.designs());
    running.stop();
    let (refs, counters, direct) = direct_pass(bases, args.trace, scratch, epoch)?;
    let (latencies, areas) = tally(&mut report, &measured, &refs, false);
    describe(&mut report, "measured", &latencies);
    let p50 = stats::median(&latencies).unwrap_or(0.0);
    report.note(format!(
        "chip_area_mm2 over {} distinct inputs",
        areas.len()
    ));
    let areas: Vec<f64> = areas
        .into_iter()
        .flat_map(|(base, area)| std::iter::repeat_n(area, copies[base]))
        .collect();
    report.end_to_end = vec![
        metric("setup_s", setup, "s"),
        metric("latency_p50_s", p50, "s"),
        metric(
            "designs_per_s",
            latencies.len() as f64 / measured.wall,
            "1/s",
        ),
        metric(
            "chip_area_mm2",
            stats::geomean(&areas).unwrap_or(0.0),
            "mm2",
        ),
        metric("peak_rss_mb", mem.peak_rss_mb, "MiB"),
    ];
    if args.trace {
        let (traced_latencies, _) = tally(&mut report, &traced, &refs, false);
        tally(&mut report, &sse, &refs, false);
        for (phase, cached) in &tail {
            tally(&mut report, phase, &refs, *cached);
            let lag = phase.timings.iter().map(|t| t.lag()).fold(0.0, f64::max);
            report.note(format!(
                "cached tail (cached {cached}): generator lag max {lag:.6} s"
            ));
        }
        direct_layers(&mut report, &direct, &counters);
        let traced_p50 = stats::median(&traced_latencies).unwrap_or(0.0);
        http_layers(&mut report, &traced, traced_p50, p50);
        sse_stalls(&mut report, &sse);
        service_layers(&mut report, &metrics_text, mem, designs);
        trace::write_jsonl(
            &out_dir().join(format!("spans-{}.jsonl", args.seed)),
            &[direct, traced.spans].concat(),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}

fn solve_small(args: &Args, scratch: &Path) -> Result<Report, String> {
    let mut rng = Rng::seed_from_u64(args.seed);
    let mut bases = inputs::small_cases();
    let fixed = bases.len();
    bases.extend(inputs::random_netlists(&mut rng, SOLVE_RANDOMS));
    let round_of = |k: usize| {
        let suffix = format!("r{k}");
        let mut round: Vec<(Input, usize)> =
            (0..fixed).map(|i| (bases[i].renamed(&suffix), i)).collect();
        if k < SOLVE_RANDOMS {
            round.push((bases[fixed + k].renamed(&suffix), fixed + k));
        }
        round
    };
    let copies: Vec<usize> = (0..bases.len())
        .map(|i| if i < fixed { AREA_ROUNDS } else { 1 })
        .collect();
    closed_workload(args, scratch, &bases, &copies, round_of)
}

fn scale_large(args: &Args, scratch: &Path) -> Result<Report, String> {
    let mut rng = Rng::seed_from_u64(args.seed);
    let (bases, pool) = inputs::scale_pool(&mut rng);
    // a `chip_ip(64, _)` or `chip_ip(128, _)` draw can be the same design
    // as a bundled chip, so each position of a round gets its own name
    let round_of = |k: usize| {
        inputs::scale_round(&mut rng, &pool, k)
            .into_iter()
            .enumerate()
            .map(|(i, base)| (bases[base].renamed(&format!("r{k}_{i}")), base))
            .collect()
    };
    let mut copies = vec![0; bases.len()];
    for k in 0..AREA_ROUNDS {
        for &base in &pool[k % pool.len()] {
            copies[base] += 1;
        }
    }
    closed_workload(args, scratch, &bases, &copies, round_of)
}

/// Where runs leave spans and scratch state: `out/` beside this package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push('}');
    s
}

/// Runs one workload with `scratch` as its state directory.
fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    match args.workload {
        Workload::SolveSmall => solve_small(args, scratch),
        Workload::ScaleLarge => scale_large(args, scratch),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = out_dir().join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    for f in &report.failures {
        println!("# failure: {f}");
    }
    #[allow(clippy::cast_precision_loss)]
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_ratio {failed_ratio} ratio ({} of {})",
        report.failed, report.attempted
    );
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        json_metrics(shown)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_seed_runs_clean() {
        // a 1 s run is one round: 8 cold designs of solve_small (one of
        // them a seeded random netlist), 16 of scale_large
        for workload in [Workload::SolveSmall, Workload::ScaleLarge] {
            let args = Args {
                workload,
                seed: 2,
                seconds: 1.0,
                trace: false,
            };
            let scratch = out_dir().join(format!("test-{workload:?}"));
            let report = run(&args, &scratch).expect("the run completes");
            let _ = std::fs::remove_dir_all(&scratch);
            assert!(report.attempted > 0, "{workload:?} attempted nothing");
            assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.failures);
            assert_eq!(report.end_to_end.len(), 5);
            assert!(
                report.end_to_end.iter().all(|m| m.value > 0.0),
                "{:?}",
                report.end_to_end
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let args = parse("--workload scale_large --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (args.workload, args.seed, args.trace),
            (Workload::ScaleLarge, 9, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload cached_api").is_err());
        assert!(parse("--workload solve_small --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload solve_small --seconds 0").is_err());
    }

    #[test]
    fn the_json_line_carries_value_and_unit() {
        let line = json_metrics(&[
            metric("setup_s", 0.5, "s"),
            metric("designs_per_s", 2.0, "1/s"),
        ]);
        assert_eq!(
            line,
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"designs_per_s\": {\"value\": 2, \"unit\": \"1/s\"}}"
        );
    }
}
