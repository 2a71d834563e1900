//! Load benchmark for `columba-service`: measures end-to-end job latency
//! for cold solves versus content-addressed cache hits, under concurrent
//! client submission, on the plain `Instant` harness (no external
//! benchmarking crates, so the build stays offline).
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

use columba_bench::{
    bench_json, out_path, positive_arg, secs, secs_f64, write_bench_json, CaseStats,
};
use columba_s::netlist::{generators, MuxCount};
use columba_s::{LayoutOptions, SynthesisOptions};
use columba_service::{JobState, Service, ServiceConfig};

fn run_to_done(service: &Service, text: &str) -> (Duration, bool) {
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
    (t.elapsed(), status.from_cache)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients = positive_arg(&args, "--clients", 8);
    let hits_per_client = positive_arg(&args, "--hits", 16);

    let cases: Vec<(String, String)> = [4usize, 8, 16]
        .iter()
        .map(|&n| {
            (
                format!("chip{n}ip"),
                generators::chip_ip(n, MuxCount::One).to_text(),
            )
        })
        .collect();

    let service = Arc::new(Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: clients * cases.len() * hits_per_client + cases.len(),
        options: SynthesisOptions {
            layout: LayoutOptions {
                time_limit: Duration::from_secs(15),
                node_limit: 200,
                threads: 1,
                ..LayoutOptions::default()
            },
            ..SynthesisOptions::default()
        },
        job_deadline: None,
        ..ServiceConfig::default()
    }));

    println!("service load benchmark: {clients} clients, {hits_per_client} cache hits each\n");
    println!("{:<12}{:>12} {:>12}", "case", "cold solve", "");

    // cold solves, serially (each is a cache miss)
    let mut cold = Vec::new();
    for (name, text) in &cases {
        let (latency, from_cache) = run_to_done(&service, text);
        assert!(!from_cache, "{name}: first submission must miss");
        println!("{name:<12}{:>12} {:>12}", secs(latency), "");
        cold.push(latency);
    }

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
                            let (latency, from_cache) = run_to_done(&service, text);
                            assert!(from_cache, "{name}: resubmission must hit the cache");
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

    let cold_stats = CaseStats::from_samples("cold solve", &cold);
    let hot_stats = CaseStats::from_samples("cache hit", &hot);
    println!(
        "\n{:<12}{:>10} {:>10} {:>10} {:>10}",
        "", "min", "mean", "p50", "max"
    );
    for stats in [&cold_stats, &hot_stats] {
        println!(
            "{:<12}{:>10} {:>10} {:>10} {:>10}",
            stats.name,
            secs_f64(stats.min_s),
            secs_f64(stats.mean_s),
            secs_f64(stats.median_s),
            secs_f64(stats.max_s)
        );
    }
    let speedup = cold_stats.median_s / hot_stats.median_s.max(1e-9);
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
            &[cold_stats, hot_stats],
        ),
    );

    println!("\nfinal service metrics:");
    for line in service.metrics().render().lines() {
        println!("  {line}");
    }
    service.shutdown();
}
