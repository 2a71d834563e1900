//! `perf_gate` — compares fresh bench artifacts against the committed
//! baselines and fails on a p50 regression beyond tolerance.
//!
//! ```sh
//! perf_gate bench/BENCH_microbench.json /tmp/bench/BENCH_microbench.json
//! perf_gate base1.json cur1.json base2.json cur2.json --tolerance 0.10
//! perf_gate base.json cur.json --summary /tmp/gate.md
//! ```
//!
//! Positional arguments are `<baseline> <current>` pairs. Every baseline
//! case is *pinned*: it must be present in the current artifact, and its
//! median must not regress by more than the tolerance (default 10 %).
//! Cases whose baseline median sits under the noise floor (default 5 ms,
//! `--min-baseline-s`) are reported but never time-gate — micro-timings
//! jitter far beyond any tolerance on shared CI runners. A baseline case
//! that records exact work (`counters` such as `simplex_iterations` and
//! `nodes`, and a termination `status`) is gated on it at any duration: no
//! counter may rise above its baseline, and the status may not change.
//!
//! The comparison is printed as a markdown table on stdout and, with
//! `--summary PATH`, appended to that file (point it at
//! `$GITHUB_STEP_SUMMARY` to land the table in the CI run page).
//! Exit status: 0 when every gate passes, 1 on any regression, risen
//! counter, changed status or missing pinned case, 2 on usage or I/O
//! errors.

use std::io::Write as _;
use std::process::ExitCode;

use columba_bench::compare_bench;

fn f64_flag(args: &[String], name: &str, default: f64) -> f64 {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("error: {name} requires a number");
                std::process::exit(2);
            }
        },
    }
}

fn value_flag(args: &[String], name: &str) -> Option<String> {
    match args.iter().position(|a| a == name) {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            }
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tolerance = f64_flag(&args, "--tolerance", 0.10);
    let min_baseline_s = f64_flag(&args, "--min-baseline-s", 0.005);
    let summary = value_flag(&args, "--summary");

    // positional pairs, skipping flags and their values
    let mut files = Vec::new();
    let mut skip = false;
    for arg in &args {
        if skip {
            skip = false;
            continue;
        }
        if ["--tolerance", "--min-baseline-s", "--summary"].contains(&arg.as_str()) {
            skip = true;
            continue;
        }
        if arg.starts_with("--") {
            eprintln!("error: unknown flag {arg}");
            return ExitCode::from(2);
        }
        files.push(arg.clone());
    }
    if files.is_empty() || files.len() % 2 != 0 {
        eprintln!("usage: perf_gate <baseline.json> <current.json> [...more pairs]");
        eprintln!("       [--tolerance 0.10] [--min-baseline-s 0.005] [--summary PATH]");
        return ExitCode::from(2);
    }

    let mut tables = String::new();
    let mut all_passed = true;
    for pair in files.chunks(2) {
        let (base_path, cur_path) = (&pair[0], &pair[1]);
        let baseline = match std::fs::read_to_string(base_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read baseline {base_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let current = match std::fs::read_to_string(cur_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read current {cur_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match compare_bench(&baseline, &current, tolerance, min_baseline_s) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {base_path} vs {cur_path}: {e}");
                return ExitCode::from(2);
            }
        };
        all_passed &= report.passed();
        tables.push_str(&report.markdown());
        tables.push('\n');
    }

    print!("{tables}");
    if let Some(path) = summary {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(tables.as_bytes()));
        if let Err(e) = appended {
            eprintln!("warning: could not append summary to {path}: {e}");
        }
    }
    if all_passed {
        println!("perf gate: pass (tolerance {:.0}%)", tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        println!(
            "perf gate: FAIL — p50 regression beyond {:.0}%, counter above baseline, \
             changed status, or missing pinned case",
            tolerance * 100.0
        );
        println!("to refresh baselines after an intentional change: ci/perf_gate --refresh");
        ExitCode::FAILURE
    }
}
