//! Load benchmark for `columba-service`: measures end-to-end job latency
//! for cold solves versus content-addressed cache hits, under concurrent
//! client submission, on the plain `Instant` harness (no external
//! benchmarking crates, so the build stays offline).
//!
//! Each input has its own `cold solve` case, bounded by a node budget with
//! no effective clock, so it times a fixed amount of work; the case records
//! the solve's simplex iterations, nodes and the ladder rung that produced
//! the design, which `perf_gate` checks exactly.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin service_load
//! cargo run -p columba-bench --release --bin service_load -- --clients 16 --hits 64
//! ```
//!
//! The machine-readable artifact lands at `<out>/BENCH_service.json`
//! (default `bench/` — the committed perf-gate baseline location;
//! override with `--out DIR`).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use columba_bench::{bench_json, out_path, positive_arg, secs_f64, write_bench_json, CaseStats};
use columba_s::netlist::{generators, MuxCount, Netlist};
use columba_s::{LayoutOptions, SynthesisOptions};
use columba_service::{JobState, JobStatus, Service, ServiceConfig};

/// Branch & bound nodes per solve, with no effective clock: the hint LP
/// and the warm-started root.
const NODE_LIMIT: usize = 1;
/// Cold solves per input, each under a fresh chip name (a new cache key).
const COLD_SAMPLES: usize = 3;

fn run_job(service: &Service, text: &str) -> (Duration, JobStatus) {
    let t = Instant::now();
    let id = service.submit_text(text).expect("bench queue has room");
    let status = service
        .wait(id, Duration::from_secs(600))
        .expect("job known");
    assert_eq!(
        status.state,
        JobState::Done,
        "bench job failed: {:?}",
        status.error
    );
    (t.elapsed(), status)
}

/// The `cold solve <name>` case: `COLD_SAMPLES` cache misses of one
/// input, the last under its own name so the hot phase hits it.
fn cold_case(service: &Service, netlist: &Netlist) -> CaseStats {
    let name = format!("cold solve {}", netlist.name);
    let mut work = None;
    let mut samples = Vec::new();
    for k in (0..COLD_SAMPLES).rev() {
        let mut renamed = netlist.clone();
        if k > 0 {
            renamed.name = format!("{}_r{k}", netlist.name);
        }
        let (latency, status) = run_job(service, &renamed.to_text());
        assert!(!status.from_cache, "{name}: a cold submission must miss");
        let design = status.design.expect("a done job has its design");
        let this = (
            design.summary.solve_simplex_iterations as u64,
            design.summary.solve_nodes as u64,
            design.rung.clone(),
        );
        assert!(
            work.as_ref().is_none_or(|w| *w == this),
            "{name}: work differs between samples"
        );
        work = Some(this);
        samples.push(latency);
    }
    let (iterations, nodes, rung) = work.expect("measured at least once");
    let stats = CaseStats::from_samples(&name, &samples).with_work(
        &[("simplex_iterations", iterations), ("nodes", nodes)],
        &rung,
    );
    println!("{name:<22}{:>12}", secs_f64(stats.median_s));
    stats
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients = positive_arg(&args, "--clients", 8);
    let hits_per_client = positive_arg(&args, "--hits", 16);

    let netlists: Vec<Netlist> = [4usize, 8, 16]
        .iter()
        .map(|&n| {
            let mut netlist = generators::chip_ip(n, MuxCount::One);
            netlist.name = format!("chip{n}ip");
            netlist
        })
        .collect();
    let cases: Vec<(String, String)> = (netlists.iter())
        .map(|n| (n.name.clone(), n.to_text()))
        .collect();

    let service = Arc::new(Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: clients * cases.len() * hits_per_client + cases.len(),
        options: SynthesisOptions {
            layout: LayoutOptions {
                time_limit: Duration::from_secs(3600),
                node_limit: NODE_LIMIT,
                threads: 1,
                ..LayoutOptions::default()
            },
            ..SynthesisOptions::default()
        },
        job_deadline: None,
        ..ServiceConfig::default()
    }));

    println!("service load benchmark: {clients} clients, {hits_per_client} cache hits each\n");
    println!("{:<22}{:>12}", "case", "median");

    // cold solves, serially (each is a cache miss)
    let cold: Vec<CaseStats> = (netlists.iter()).map(|n| cold_case(&service, n)).collect();

    // hot: every client hammers every case; all hits
    let hot: Vec<Duration> = {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let service = Arc::clone(&service);
                let cases = cases.clone();
                thread::spawn(move || {
                    let mut latencies = Vec::new();
                    for _ in 0..hits_per_client {
                        for (name, text) in &cases {
                            let (latency, status) = run_job(&service, text);
                            assert!(status.from_cache, "{name}: resubmission must hit the cache");
                            latencies.push(latency);
                        }
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    };

    let hot_stats = CaseStats::from_samples("cache hit", &hot);
    println!(
        "\n{:<22}{:>10} {:>10} {:>10} {:>10}",
        "", "min", "mean", "p50", "max"
    );
    for stats in cold.iter().chain([&hot_stats]) {
        println!(
            "{:<22}{:>10} {:>10} {:>10} {:>10}",
            stats.name,
            secs_f64(stats.min_s),
            secs_f64(stats.mean_s),
            secs_f64(stats.median_s),
            secs_f64(stats.max_s)
        );
    }
    // the middle input's cold median over the hot median
    let mut cold_medians: Vec<f64> = cold.iter().map(|c| c.median_s).collect();
    cold_medians.sort_by(f64::total_cmp);
    let speedup = cold_medians[cold_medians.len() / 2] / hot_stats.median_s.max(1e-9);
    println!("\np50 speedup from the content-addressed cache: {speedup:.0}x");
    if speedup < 10.0 {
        eprintln!("warning: cache speedup below the 10x target");
    }

    write_bench_json(
        &out_path(&args, "BENCH_service.json"),
        &bench_json(
            "service_load",
            &[
                ("clients", clients.to_string()),
                ("hits_per_client", hits_per_client.to_string()),
                ("p50_speedup", format!("{speedup:.3}")),
            ],
            &cold.into_iter().chain([hot_stats]).collect::<Vec<_>>(),
        ),
    );

    println!("\nfinal service metrics:");
    for line in service.metrics().render().lines() {
        println!("  {line}");
    }
    service.shutdown();
}
