//! Benchmark harness support: the paper's reference numbers and shared
//! helpers for the `table1` / `fig*` binaries.
//!
//! Every table and figure of the paper's evaluation section has a binary in
//! `src/bin/` that regenerates it:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 (all six cases, Columba 2.0 baseline vs S 1-/2-MUX) |
//! | `fig1` | Fig 1 comparison on the kinase-activity application |
//! | `fig3` | Fig 3 module model library geometries |
//! | `fig4` | Fig 4 fifteen-channel multiplexer, address 1001 |
//! | `fig6` | Fig 6(b) layout-generation rectangle plan |
//! | `fig7` | Fig 7 netlist → design flow and the ChIP64 partition |
//! | `fig8` | Fig 8 multiplexing function demonstration |
//!
//! Micro-benchmarks of the synthesis stages live in the `microbench`
//! binary — a plain [`std::time::Instant`] harness (no external
//! benchmarking crates), which also prints the solver telemetry
//! ([`columba_s::milp::SolveStats`]) of a bounded search.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use columba_s::netlist::{generators, MuxCount, Netlist};
use columba_s::{Columba, LayoutOptions, SynthesisOptions};

/// Paper reference values for one Table 1 row (`None` where the paper
/// prints `\` — Columba 2.0 could not solve the case).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Row label as printed in the paper.
    pub label: &'static str,
    /// Functional units `#u`.
    pub units: usize,
    /// Columba 2.0: (w mm, h mm, L_f mm, #c_in, runtime s).
    pub columba20: Option<(f64, f64, f64, usize, f64)>,
    /// Columba S 1-MUX: (w, h, L_f, #c_in, runtime).
    pub s1: (f64, f64, f64, usize, f64),
    /// Columba S 2-MUX: (w, h, L_f, #c_in, runtime).
    pub s2: (f64, f64, f64, usize, f64),
}

/// The six rows of the paper's Table 1.
pub const PAPER_TABLE1: [PaperRow; 6] = [
    PaperRow {
        label: "[8] 6u",
        units: 6,
        columba20: Some((19.40, 23.15, 135.1, 17, 309.1)),
        s1: (19.80, 27.45, 77.05, 13, 0.8),
        s2: (19.80, 34.20, 78.45, 20, 0.6),
    },
    PaperRow {
        label: "[3] 9u",
        units: 9,
        columba20: Some((14.20, 41.50, 152.2, 26, 299.2)),
        s1: (28.00, 30.75, 114.2, 13, 0.7),
        s2: (28.00, 39.00, 113.1, 22, 0.9),
    },
    PaperRow {
        label: "[7] 8u",
        units: 8,
        columba20: Some((28.55, 23.95, 219.5, 23, 705.1)),
        s1: (22.20, 29.65, 146.85, 13, 0.7),
        s2: (22.20, 37.90, 147.25, 22, 0.9),
    },
    PaperRow {
        label: "[12] 21u",
        units: 21,
        columba20: Some((27.10, 57.70, 315.1, 31, 749.8)),
        s1: (29.60, 57.25, 172.25, 13, 1.5),
        s2: (29.60, 64.00, 172.25, 20, 1.5),
    },
    PaperRow {
        label: "ChIP64 129u",
        units: 129,
        columba20: None,
        s1: (132.60, 174.95, 3916.6, 17, 71.9),
        s2: (79.80, 184.70, 2096.0, 28, 72.7),
    },
    PaperRow {
        label: "ChIP128 257u",
        units: 257,
        columba20: None,
        s1: (145.40, 322.15, 8338.65, 17, 156.2),
        s2: (92.60, 333.40, 4827.4, 30, 157.7),
    },
];

/// The netlists behind the Table 1 rows, in row order.
#[must_use]
pub fn table1_netlists(mux: MuxCount) -> Vec<Netlist> {
    generators::table1_cases(mux)
        .into_iter()
        .map(|(_, n)| n)
        .collect()
}

/// A Columba S flow tuned for harness runs: `search_budget` bounds the
/// branch & bound on small cases; large cases auto-scale to the heuristic.
#[must_use]
pub fn harness_flow(search_budget: Duration) -> Columba {
    Columba::with_options(SynthesisOptions {
        layout: LayoutOptions {
            time_limit: search_budget,
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    })
}

/// The value of the positive-integer flag `name` in `args`, or `default`
/// when the flag is absent. Exits with status 2 on a missing or invalid
/// value.
#[must_use]
pub fn positive_arg(args: &[String], name: &str, default: usize) -> usize {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(n)) if n > 0 => n,
            _ => {
                eprintln!("error: {name} requires a positive integer");
                std::process::exit(2);
            }
        },
    }
}

/// Times `f` over `iters` runs and returns the raw samples.
pub fn measure<T>(iters: usize, mut f: impl FnMut() -> T) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    samples
}

/// Prints the human-readable `min mean max` row of one case and returns
/// its machine-readable stats.
///
/// # Panics
///
/// On an empty sample set.
#[must_use]
pub fn report(case: &str, samples: &[Duration]) -> CaseStats {
    let stats = CaseStats::from_samples(case, samples);
    println!(
        "{case:<34}{:>10} {:>10} {:>10}   ({} iters)",
        secs_f64(stats.min_s),
        secs_f64(stats.mean_s),
        secs_f64(stats.max_s),
        stats.iters
    );
    stats
}

/// `"12.3x45.6"` dimension formatting.
#[must_use]
pub fn dim(w_mm: f64, h_mm: f64) -> String {
    format!("{w_mm:.1}x{h_mm:.1}")
}

/// Seconds with sub-second resolution.
#[must_use]
pub fn secs(d: Duration) -> String {
    if d.as_secs_f64() < 1.0 {
        format!("{:.0}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}s", d.as_secs_f64())
    }
}

/// [`secs`] of a duration given in seconds.
#[must_use]
pub fn secs_f64(s: f64) -> String {
    secs(Duration::from_secs_f64(s))
}

/// Machine-readable stats of one benchmark case: exact order statistics
/// from the raw samples plus the log-bucketed histogram percentiles the
/// service's `/metrics` would report for the same latencies (so bench
/// artifacts and live telemetry are directly comparable).
#[derive(Debug, Clone)]
pub struct CaseStats {
    /// Case label.
    pub name: String,
    /// Samples measured.
    pub iters: usize,
    /// Exact minimum, seconds.
    pub min_s: f64,
    /// Exact mean, seconds.
    pub mean_s: f64,
    /// Exact median, seconds.
    pub median_s: f64,
    /// Exact maximum, seconds.
    pub max_s: f64,
    /// Histogram p50 (bucket upper bound), seconds.
    pub hist_p50_s: f64,
    /// Histogram p90 (bucket upper bound), seconds.
    pub hist_p90_s: f64,
    /// Histogram p99 (bucket upper bound), seconds.
    pub hist_p99_s: f64,
}

impl CaseStats {
    /// Computes the stats of one case from its raw samples.
    ///
    /// # Panics
    ///
    /// On an empty sample set.
    #[must_use]
    pub fn from_samples(name: &str, samples: &[Duration]) -> CaseStats {
        assert!(!samples.is_empty(), "case {name} measured no samples");
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort_unstable();
        let hist = columba_obs::Histogram::new();
        for &d in samples {
            hist.record(d);
        }
        let snap = hist.snapshot();
        let (p50, p90, p99) = snap.percentiles_us();
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        CaseStats {
            name: name.to_string(),
            iters: sorted.len(),
            min_s: sorted[0].as_secs_f64(),
            mean_s: mean.as_secs_f64(),
            median_s: sorted[sorted.len() / 2].as_secs_f64(),
            max_s: sorted[sorted.len() - 1].as_secs_f64(),
            hist_p50_s: p50 / 1e6,
            hist_p90_s: p90 / 1e6,
            hist_p99_s: p99 / 1e6,
        }
    }

    fn json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"name\":");
        columba_obs::export::json_string_into(out, &self.name);
        let _ = write!(
            out,
            ",\"iters\":{},\"min_s\":{:.9},\"mean_s\":{:.9},\"median_s\":{:.9},\
             \"max_s\":{:.9},\"hist_p50_s\":{:.9},\"hist_p90_s\":{:.9},\"hist_p99_s\":{:.9}}}",
            self.iters,
            self.min_s,
            self.mean_s,
            self.median_s,
            self.max_s,
            self.hist_p50_s,
            self.hist_p90_s,
            self.hist_p99_s,
        );
    }
}

/// Renders a `BENCH_<name>.json` document: bench name, free-form config
/// pairs, and one stats object per case.
#[must_use]
pub fn bench_json(bench: &str, config: &[(&str, String)], cases: &[CaseStats]) -> String {
    let mut out = String::with_capacity(256 + cases.len() * 192);
    out.push_str("{\"bench\":");
    columba_obs::export::json_string_into(&mut out, bench);
    for (key, value) in config {
        out.push(',');
        columba_obs::export::json_string_into(&mut out, key);
        out.push(':');
        // numbers stay numbers, everything else is a string
        if value.parse::<f64>().is_ok() {
            out.push_str(value);
        } else {
            columba_obs::export::json_string_into(&mut out, value);
        }
    }
    out.push_str(",\"cases\":[");
    for (i, case) in cases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        case.json_into(&mut out);
    }
    out.push_str("]}");
    out
}

/// Resolves where a bench binary writes its `BENCH_<name>.json`
/// artifact: `<dir>/<file>` where `<dir>` comes from the `--out` flag
/// and defaults to `bench/` — a stable, committed location instead of
/// whatever the current working directory happens to be.
#[must_use]
pub fn out_path(args: &[String], file: &str) -> PathBuf {
    let dir = match args.iter().position(|a| a == "--out") {
        None => PathBuf::from("bench"),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => PathBuf::from(v),
            _ => {
                eprintln!("error: --out requires a directory path");
                std::process::exit(2);
            }
        },
    };
    dir.join(file)
}

/// Writes a bench artifact, creating the parent directory if needed and
/// reporting (never propagating) I/O failure — a read-only working
/// directory must not fail the bench itself.
pub fn write_bench_json(path: &Path, body: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("\nwarning: could not create {}: {e}", parent.display());
            return;
        }
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write {}: {e}", path.display()),
    }
}

/// One case of a perf-gate comparison: the committed baseline median
/// against the freshly measured one.
#[derive(Debug, Clone)]
pub struct GateCase {
    /// Case label (shared between the two artifacts).
    pub name: String,
    /// Committed baseline median, seconds.
    pub baseline_s: f64,
    /// Freshly measured median, seconds.
    pub current_s: f64,
    /// Whether this case participates in the pass/fail decision. Cases
    /// whose baseline median sits under the noise floor are reported but
    /// never gate — micro-timings jitter far beyond any tolerance.
    pub gated: bool,
}

impl GateCase {
    /// Relative change of the median: `+0.25` is a 25 % slowdown.
    #[must_use]
    pub fn delta(&self) -> f64 {
        (self.current_s - self.baseline_s) / self.baseline_s.max(1e-12)
    }
}

/// The outcome of comparing one fresh bench artifact against its
/// committed baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The bench name from the baseline artifact.
    pub bench: String,
    /// Per-case comparisons, in baseline order.
    pub cases: Vec<GateCase>,
    /// Baseline cases the current run did not measure — always a
    /// failure: a silently dropped case is how a gate rots.
    pub missing: Vec<String>,
    /// Maximum tolerated relative slowdown on gated cases.
    pub tolerance: f64,
}

impl GateReport {
    /// The gated cases whose median regressed beyond the tolerance.
    #[must_use]
    pub fn regressions(&self) -> Vec<&GateCase> {
        self.cases
            .iter()
            .filter(|c| c.gated && c.delta() > self.tolerance)
            .collect()
    }

    /// Whether the gate passes: no regression and no missing case.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }

    /// Renders the comparison as a GitHub-flavored markdown table (the
    /// shape dropped into `GITHUB_STEP_SUMMARY`).
    #[must_use]
    pub fn markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "### perf gate: `{}` ({})\n",
            self.bench,
            if self.passed() { "pass" } else { "FAIL" }
        );
        out.push_str("| case | baseline p50 | current p50 | delta | status |\n");
        out.push_str("|------|-------------:|------------:|------:|--------|\n");
        for case in &self.cases {
            let delta = case.delta();
            let status = if !case.gated {
                "info (below noise floor)"
            } else if delta > self.tolerance {
                "**regressed**"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:+.1}% | {} |",
                case.name,
                secs_f64(case.baseline_s),
                secs_f64(case.current_s),
                delta * 100.0,
                status
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "| {name} | — | missing | — | **missing** |");
        }
        out
    }
}

/// Extracts `(name, median_s)` per case from a `BENCH_*.json` document.
fn bench_medians(doc: &columba_obs::Json) -> Result<Vec<(String, f64)>, String> {
    use columba_obs::Json;
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or("artifact has no cases array")?;
    cases
        .iter()
        .map(|case| {
            let name = case
                .get("name")
                .and_then(Json::as_str)
                .ok_or("case without a name")?;
            let median = case
                .get("median_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("case {name} without a median_s"))?;
            Ok((name.to_string(), median))
        })
        .collect()
}

/// Compares a fresh bench artifact against its committed baseline.
/// Every baseline case is pinned: it must appear in the current run,
/// and (when its baseline median clears `min_baseline_s`) its median
/// must not regress by more than `tolerance`. Extra cases in the
/// current run are ignored — adding a case does not break the gate,
/// only refreshing the baseline admits it.
///
/// # Errors
///
/// On malformed JSON or an artifact missing the expected fields.
pub fn compare_bench(
    baseline: &str,
    current: &str,
    tolerance: f64,
    min_baseline_s: f64,
) -> Result<GateReport, String> {
    let base_doc = columba_obs::parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_doc = columba_obs::parse_json(current).map_err(|e| format!("current: {e}"))?;
    let bench = base_doc
        .get("bench")
        .and_then(columba_obs::Json::as_str)
        .unwrap_or("?")
        .to_string();
    let base_cases = bench_medians(&base_doc).map_err(|e| format!("baseline: {e}"))?;
    let cur_cases: std::collections::HashMap<String, f64> = bench_medians(&cur_doc)
        .map_err(|e| format!("current: {e}"))?
        .into_iter()
        .collect();
    let mut cases = Vec::new();
    let mut missing = Vec::new();
    for (name, baseline_s) in base_cases {
        match cur_cases.get(&name) {
            Some(&current_s) => cases.push(GateCase {
                gated: baseline_s >= min_baseline_s,
                name,
                baseline_s,
                current_s,
            }),
            None => missing.push(name),
        }
    }
    Ok(GateReport {
        bench,
        cases,
        missing,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_match_generated_unit_counts() {
        let netlists = table1_netlists(MuxCount::One);
        for (row, n) in PAPER_TABLE1.iter().zip(&netlists) {
            assert_eq!(row.units, n.functional_unit_count(), "{}", row.label);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(dim(19.8, 27.4), "19.8x27.4");
        assert_eq!(secs(Duration::from_millis(800)), "800ms");
        assert_eq!(secs(Duration::from_secs_f64(71.9)), "71.9s");
    }

    fn artifact(bench: &str, cases: &[(&str, f64)]) -> String {
        let stats: Vec<CaseStats> = cases
            .iter()
            .map(|&(name, median_s)| {
                CaseStats::from_samples(name, &[Duration::from_secs_f64(median_s); 3])
            })
            .collect();
        bench_json(bench, &[], &stats)
    }

    #[test]
    fn perf_gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = artifact("microbench", &[("layout", 0.100), ("planarize", 0.050)]);
        let ok = artifact("microbench", &[("layout", 0.105), ("planarize", 0.054)]);
        let report = compare_bench(&baseline, &ok, 0.10, 0.005).expect("parse");
        assert!(report.passed(), "{:?}", report.regressions());
        assert_eq!(report.bench, "microbench");

        let bad = artifact("microbench", &[("layout", 0.150), ("planarize", 0.050)]);
        let report = compare_bench(&baseline, &bad, 0.10, 0.005).expect("parse");
        assert!(!report.passed());
        let regressed: Vec<&str> = report
            .regressions()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(regressed, vec!["layout"]);
        assert!(report.markdown().contains("**regressed**"));
    }

    #[test]
    fn perf_gate_noise_floor_reports_but_never_gates() {
        // a 3x slowdown on a sub-floor case is informational only
        let baseline = artifact("microbench", &[("tiny", 0.0001)]);
        let slow = artifact("microbench", &[("tiny", 0.0003)]);
        let report = compare_bench(&baseline, &slow, 0.10, 0.005).expect("parse");
        assert!(report.passed());
        assert!(report.markdown().contains("below noise floor"));
    }

    #[test]
    fn perf_gate_missing_case_fails_and_extra_case_is_ignored() {
        let baseline = artifact("service_load", &[("cold solve", 0.5), ("cache hit", 0.01)]);
        let dropped = artifact("service_load", &[("cold solve", 0.5)]);
        let report = compare_bench(&baseline, &dropped, 0.10, 0.005).expect("parse");
        assert!(!report.passed(), "a dropped pinned case must fail the gate");
        assert_eq!(report.missing, vec!["cache hit".to_string()]);
        assert!(report.markdown().contains("**missing**"));

        let extra = artifact(
            "service_load",
            &[("cold solve", 0.5), ("cache hit", 0.01), ("new case", 9.0)],
        );
        let report = compare_bench(&baseline, &extra, 0.10, 0.005).expect("parse");
        assert!(report.passed(), "unpinned extra cases never gate");
        assert_eq!(report.cases.len(), 2);
    }

    #[test]
    fn perf_gate_rejects_malformed_artifacts() {
        assert!(compare_bench("not json", "{}", 0.1, 0.005).is_err());
        assert!(compare_bench("{}", "not json", 0.1, 0.005).is_err());
        assert!(compare_bench("{\"bench\":\"x\"}", "{\"bench\":\"x\"}", 0.1, 0.005).is_err());
    }

    #[test]
    fn out_path_defaults_to_bench_dir() {
        let none: Vec<String> = vec![];
        assert_eq!(
            out_path(&none, "BENCH_x.json"),
            PathBuf::from("bench/BENCH_x.json")
        );
        let some = vec!["--out".to_string(), "/tmp/artifacts".to_string()];
        assert_eq!(
            out_path(&some, "BENCH_x.json"),
            PathBuf::from("/tmp/artifacts/BENCH_x.json")
        );
    }

    #[test]
    fn bench_json_parses_and_keeps_exact_medians() {
        use columba_obs::{parse_json, Json};

        let samples: Vec<Duration> = [3u64, 1, 2, 5, 4]
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        let case = CaseStats::from_samples("layout \"quoted\"", &samples);
        assert_eq!(case.iters, 5);
        assert!((case.median_s - 0.003).abs() < 1e-9);
        assert!(case.min_s <= case.mean_s && case.mean_s <= case.max_s);
        // the histogram bucket bound brackets the exact percentile
        assert!(case.hist_p50_s >= case.median_s);
        assert!(case.hist_p50_s <= case.hist_p90_s);
        assert!(case.hist_p90_s <= case.hist_p99_s);

        let body = bench_json(
            "microbench",
            &[("iters", "5".to_string()), ("host", "ci".to_string())],
            &[case],
        );
        let doc = parse_json(&body).expect("bench artifact is valid JSON");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("microbench"));
        assert_eq!(doc.get("iters").and_then(Json::as_f64), Some(5.0));
        assert_eq!(doc.get("host").and_then(Json::as_str), Some("ci"));
        let cases = doc.get("cases").and_then(Json::as_arr).expect("cases");
        assert_eq!(cases.len(), 1);
        assert_eq!(
            cases[0].get("name").and_then(Json::as_str),
            Some("layout \"quoted\"")
        );
        assert!(cases[0]
            .get("median_s")
            .and_then(Json::as_f64)
            .is_some_and(|v| (v - 0.003).abs() < 1e-9));
    }
}
