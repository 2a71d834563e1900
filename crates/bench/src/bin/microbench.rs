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
//! (default `bench/` — the committed perf-gate baseline location). The
//! work-pinned solver cases also record their simplex iterations, node
//! count and termination status there, which `perf_gate` holds exactly.
//! `full flow chip4` still runs to its 2 s budget, so it records no work.

use std::time::Duration;

use columba_bench::{
    bench_json, measure, out_path, positive_arg, report, write_bench_json, CaseStats,
};
use columba_s::layout::{self, LayoutOptions};
use columba_s::netlist::{generators, MuxCount, Netlist};
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
    cases.push(pinned_layout(
        "layout chip4 (heuristic)",
        iters,
        &planar4,
        &heuristic,
    ));

    // a few branch & bound nodes on one worker with no effective clock
    // limit, so the case times search work rather than a budget
    let four_nodes = LayoutOptions {
        threads: 1,
        node_limit: 4,
        time_limit: Duration::from_secs(3600),
        ..LayoutOptions::default()
    };
    cases.push(pinned_layout(
        "layout chip4 (4 nodes)",
        iters,
        &planar4,
        &four_nodes,
    ));

    // one branch & bound node: the hint LP, then the root LP warm-started
    // from its basis (layout turns rounding off, and node 0 branches on
    // the root solution in hand)
    let one_node = LayoutOptions {
        node_limit: 1,
        ..four_nodes.clone()
    };
    cases.push(pinned_layout(
        "layout chip4 (one node)",
        iters,
        &planar4,
        &one_node,
    ));

    let (planar64, _) = planarize(&chip64);
    cases.push(pinned_layout(
        "layout chip64 (heuristic)",
        iters,
        &planar64,
        &heuristic,
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

    // solver telemetry of one representative node-pinned search
    let searched = layout::synthesize(&planar4, &four_nodes).expect("chip4 synthesizes");
    println!("\nsolver telemetry (chip4, 4 nodes):");
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

/// Times a work-pinned layout solve (a node limit, no effective clock) and
/// records its exact work: simplex iterations, branch & bound nodes and the
/// termination status. Pinned work is the same on every run.
fn pinned_layout(name: &str, iters: usize, planar: &Netlist, options: &LayoutOptions) -> CaseStats {
    let mut work = None;
    let samples = measure(iters, || {
        let out = layout::synthesize(planar, options).expect("case synthesizes");
        let solve = &out.laygen.solve;
        let this = (
            solve.simplex_iterations as u64,
            solve.nodes_processed as u64,
            out.laygen.status.to_string(),
        );
        assert!(
            work.as_ref().is_none_or(|w| *w == this),
            "{name}: work differs between runs"
        );
        work = Some(this);
        out
    });
    let (iterations, nodes, status) = work.expect("measured at least once");
    report(name, &samples).with_work(
        &[("simplex_iterations", iterations), ("nodes", nodes)],
        &status,
    )
}
