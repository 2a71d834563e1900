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
//! (default: a per-process directory under the system temporary directory, so a
//! plain run never overwrites the committed baselines in `bench/`). The
//! work-pinned solver cases also record their simplex iterations, node
//! count and termination status there, which `perf_gate` holds exactly.
//! `layout chip4 (4 nodes)`, `layout chip4 (one node)` and `layout chip64
//! (heuristic)` also record `allocations`: the heap allocations of one
//! layout generation ([`layout::generate_only`]: entity plan, MILP model,
//! solve) of the case on one thread, the same on every run; validation is
//! not counted.
//! `layout chip64 (heuristic)` adds `synthesize_allocations`, those of one
//! [`layout::synthesize`] (generation plus validation and DRC).

use std::time::Duration;

use columba_bench::{
    bench_json, measure, out_path, positive_arg, report, write_bench_json, CaseStats,
};
use columba_s::layout::{self, LaygenReport, LayoutOptions};
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
    cases.push(with_allocations(
        pinned_layout("layout chip4 (4 nodes)", iters, &planar4, &four_nodes),
        &planar4,
        &four_nodes,
    ));

    // one branch & bound node: the hint LP, then the root LP, both
    // crash-started (layout turns rounding off, and node 0 branches on the
    // root solution in hand)
    let one_node = LayoutOptions {
        node_limit: 1,
        ..four_nodes.clone()
    };
    cases.push(with_allocations(
        pinned_layout("layout chip4 (one node)", iters, &planar4, &one_node),
        &planar4,
        &one_node,
    ));

    let (planar64, _) = planarize(&chip64);
    let mut chip64_case = with_allocations(
        pinned_layout("layout chip64 (heuristic)", iters, &planar64, &heuristic),
        &planar64,
        &heuristic,
    );
    let one_thread = LayoutOptions {
        threads: 1,
        ..heuristic.clone()
    };
    let synthesized = allocations(&chip64_case.name, || {
        layout::synthesize(&planar64, &one_thread).expect("chip64 synthesizes")
    });
    chip64_case
        .counters
        .push(("synthesize_allocations".to_string(), synthesized));
    cases.push(chip64_case);

    // the whole flow (validation, planarize, layout, MUX synthesis, DRC)
    // around the same node-pinned search
    let flow = Columba::with_options(SynthesisOptions {
        layout: four_nodes.clone(),
        ..SynthesisOptions::default()
    });
    cases.push(pinned_work("full flow chip4 (4 nodes)", iters, || {
        flow.synthesize(&chip4).expect("chip4 synthesizes").layout
    }));

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

/// Times a work-pinned layout solve (a node limit, no effective clock).
fn pinned_layout(name: &str, iters: usize, planar: &Netlist, options: &LayoutOptions) -> CaseStats {
    pinned_work(name, iters, || {
        layout::synthesize(planar, options)
            .expect("case synthesizes")
            .laygen
    })
}

/// Adds the `allocations` counter to a layout case: the allocations of one
/// [`layout::generate_only`] of `planar` under `options` on one thread.
/// Two runs must agree.
fn with_allocations(mut case: CaseStats, planar: &Netlist, options: &LayoutOptions) -> CaseStats {
    let options = LayoutOptions {
        threads: 1,
        ..options.clone()
    };
    let generated = allocations(&case.name, || {
        layout::generate_only(planar, &options).expect("case generates")
    });
    case.counters.push(("allocations".to_string(), generated));
    case
}

/// The heap allocations of one `run` (its result dropped after the
/// count). Two runs must agree.
fn allocations<T>(name: &str, run: impl Fn() -> T) -> u64 {
    let count = || {
        let before = columba_obs::alloc::stats().total_allocs;
        let out = run();
        let after = columba_obs::alloc::stats().total_allocs;
        drop(out);
        after - before
    };
    let first = count();
    assert_eq!(first, count(), "{name}: allocations differ between runs");
    first
}

/// Times a work-pinned run and records its exact work from the layout
/// report it returns: simplex iterations, branch & bound nodes and the
/// termination status. Pinned work is the same on every run.
fn pinned_work(name: &str, iters: usize, mut run: impl FnMut() -> LaygenReport) -> CaseStats {
    let mut work = None;
    let samples = measure(iters, || {
        let laygen = run();
        let this = (
            laygen.solve.simplex_iterations as u64,
            laygen.solve.nodes_processed as u64,
            laygen.status.to_string(),
        );
        assert!(
            work.as_ref().is_none_or(|w| *w == this),
            "{name}: work differs between runs"
        );
        work = Some(this);
        laygen
    });
    let (iterations, nodes, status) = work.expect("measured at least once");
    report(name, &samples).with_work(
        &[("simplex_iterations", iterations), ("nodes", nodes)],
        &status,
    )
}
