//! Micro-benchmarks of the synthesis stages on a plain
//! [`std::time::Instant`] harness (no external benchmarking crates, so the
//! build stays offline). Each stage runs a fixed number of iterations and
//! reports min / mean / max wall time; the layout stage also prints the
//! solver telemetry ([`columba_s::milp::SolveStats`]) of its last run.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin microbench
//! cargo run -p columba-bench --release --bin microbench -- --iters 10
//! cargo run -p columba-bench --release --bin microbench -- --out /tmp/bench
//! ```
//!
//! The machine-readable artifact lands at `<out>/BENCH_microbench.json`
//! (default `bench/` — the committed perf-gate baseline location).

use std::time::Duration;

use columba_bench::{bench_json, measure, out_path, positive_arg, report, write_bench_json};
use columba_s::layout::{self, LayoutOptions};
use columba_s::netlist::{generators, MuxCount};
use columba_s::planar::planarize;
use columba_s::{Columba, SynthesisOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters = positive_arg(&args, "--iters", 5);

    println!("synthesis-stage micro-benchmarks ({iters} iterations per stage)\n");
    println!("{:<34}{:>10} {:>10} {:>10}", "stage", "min", "mean", "max");

    let chip4 = generators::chip_ip(4, MuxCount::One);
    let chip64 = generators::chip_ip(64, MuxCount::One);
    let mut cases = Vec::new();

    cases.push(report(
        "netlist generation (64 units)",
        &measure(iters, || generators::chip_ip(64, MuxCount::One)),
    ));
    cases.push(report(
        "planarize chip4",
        &measure(iters, || planarize(&chip4)),
    ));
    cases.push(report(
        "planarize chip64",
        &measure(iters, || planarize(&chip64)),
    ));

    let (planar4, _) = planarize(&chip4);
    let heuristic = LayoutOptions::heuristic_only();
    cases.push(report(
        "layout chip4 (heuristic)",
        &measure(iters, || {
            layout::synthesize(&planar4, &heuristic).expect("chip4 synthesizes")
        }),
    ));

    let budget = LayoutOptions {
        time_limit: Duration::from_secs(2),
        node_limit: 50,
        ..LayoutOptions::default()
    };
    cases.push(report(
        "layout chip4 (bounded search)",
        &measure(iters, || {
            layout::synthesize(&planar4, &budget).expect("chip4 synthesizes")
        }),
    ));

    // one branch & bound node on one worker with no effective clock
    // limit: root LP, rounding LP and one node LP, so the case times
    // simplex work rather than a budget
    let one_node = LayoutOptions {
        threads: 1,
        node_limit: 1,
        time_limit: Duration::from_secs(3600),
        ..LayoutOptions::default()
    };
    cases.push(report(
        "layout chip4 (one node)",
        &measure(iters, || {
            layout::synthesize(&planar4, &one_node).expect("chip4 synthesizes")
        }),
    ));

    let (planar64, _) = planarize(&chip64);
    cases.push(report(
        "layout chip64 (heuristic)",
        &measure(iters, || {
            layout::synthesize(&planar64, &heuristic).expect("chip64 synthesizes")
        }),
    ));

    let flow = Columba::with_options(SynthesisOptions {
        layout: LayoutOptions {
            time_limit: Duration::from_secs(2),
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    });
    cases.push(report(
        "full flow chip4",
        &measure(iters, || {
            flow.synthesize(&chip4).expect("chip4 synthesizes")
        }),
    ));

    write_bench_json(
        &out_path(&args, "BENCH_microbench.json"),
        &bench_json("microbench", &[("iters", iters.to_string())], &cases),
    );

    // solver telemetry of one representative bounded search
    let searched = layout::synthesize(&planar4, &budget).expect("chip4 synthesizes");
    println!("\nsolver telemetry (chip4, bounded search):");
    println!("  {}", searched.laygen.solve);
    if let Some(u) = searched.laygen.solve.utilization() {
        let workers = searched.laygen.solve.worker_busy.len();
        println!(
            "  {} worker{}, {:.0}% mean utilization",
            workers,
            if workers == 1 { "" } else { "s" },
            u * 100.0
        );
    }
    for (at, obj) in searched.laygen.solve.trajectory() {
        println!("  incumbent {obj:.4} at {at:.3}s");
    }
}
