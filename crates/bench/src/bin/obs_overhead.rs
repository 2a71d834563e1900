//! Overhead guard for the observability layer: asserts the runtime-disabled
//! instrumentation costs the chip4ip solve path less than 2% of its wall
//! time, so the spans shipped into `columba-milp` / `columba-layout` are
//! free when nobody is looking.
//!
//! Method: (1) measure the per-call cost of a disabled `span()` in a tight
//! loop; (2) count the spans one instrumented chip4ip solve actually opens
//! (recording run); (3) measure the disabled-path solve wall time. The
//! guard then requires `span_count x per_call_cost <= 2% of the solve
//! median` — a deterministic bound that does not depend on run-to-run
//! solver jitter, unlike differencing two noisy medians. Enabled-path
//! medians are printed for information only.
//!
//! The same deterministic-budget method bounds the tracking allocator:
//! the per-pair cost of `alloc::bookkeeping_probe` (exactly the relaxed
//! atomics + thread-local Cells one alloc/dealloc pair runs) times the
//! allocation pairs one solve makes must stay within 3% of the solve
//! median. With the `alloc-track` feature compiled out both factors are
//! zero by construction.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin obs_overhead
//! cargo run -p columba-bench --release --bin obs_overhead -- --iters 9
//! ```

use std::time::{Duration, Instant};

use columba_bench::{measure, positive_arg, secs_f64, CaseStats};
use columba_obs::SpanRecorder;
use columba_s::layout::{self, LayoutOptions};
use columba_s::netlist::{generators, MuxCount, Netlist};
use columba_s::planar::planarize;

const OVERHEAD_BUDGET: f64 = 0.02;
const ALLOC_BUDGET: f64 = 0.03;

fn solve_samples(planar: &Netlist, opts: &LayoutOptions, iters: usize) -> Vec<Duration> {
    measure(iters, || {
        layout::synthesize(planar, opts).expect("chip4ip synthesizes")
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters = positive_arg(&args, "--iters", 5);

    let chip4 = generators::chip_ip(4, MuxCount::One);
    let (planar, _) = planarize(&chip4);
    let opts = LayoutOptions {
        time_limit: Duration::from_secs(2),
        node_limit: 50,
        threads: 1,
        ..LayoutOptions::default()
    };

    // 1) per-call cost of the disabled fast path (one relaxed atomic load)
    columba_obs::set_enabled(false);
    const CALLS: u32 = 4_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(columba_obs::span("overhead.probe"));
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / f64::from(CALLS);

    // 2) how many spans one instrumented solve opens (recording run)
    columba_obs::set_enabled(true);
    let recorder = SpanRecorder::new(1 << 20);
    {
        let _guard = recorder.install();
        std::hint::black_box(layout::synthesize(&planar, &opts).expect("chip4ip synthesizes"));
    }
    let span_count = recorder.len() as u64 + recorder.evicted();

    // enabled-path timing, informational only (recorder kept installed)
    let enabled = {
        let _guard = recorder.install();
        CaseStats::from_samples(
            "chip4ip solve (obs enabled)",
            &solve_samples(&planar, &opts, iters),
        )
    };

    // 3) disabled-path solve wall time
    columba_obs::set_enabled(false);
    let disabled = CaseStats::from_samples(
        "chip4ip solve (obs disabled)",
        &solve_samples(&planar, &opts, iters),
    );

    let estimated_overhead_s = per_call_ns * 1e-9 * span_count as f64;
    let fraction = estimated_overhead_s / disabled.median_s;

    // 4) allocator-tracking guard: per-pair bookkeeping cost x the
    // alloc/dealloc pairs one solve makes, against the same solve median.
    const PROBES: u32 = 4_000_000;
    let t = Instant::now();
    for i in 0..PROBES {
        columba_obs::alloc::bookkeeping_probe(u64::from(i & 0xFFF));
    }
    let per_pair_ns = t.elapsed().as_nanos() as f64 / f64::from(PROBES);
    let allocs_before = columba_obs::alloc::stats().total_allocs;
    std::hint::black_box(layout::synthesize(&planar, &opts).expect("chip4ip synthesizes"));
    let alloc_pairs = columba_obs::alloc::stats().total_allocs - allocs_before;
    let alloc_overhead_s = per_pair_ns * 1e-9 * alloc_pairs as f64;
    let alloc_fraction = alloc_overhead_s / disabled.median_s;

    println!("observability overhead guard (chip4ip, {iters} iters)\n");
    println!("disabled span() per call:     {per_call_ns:.1} ns");
    println!("spans per instrumented solve: {span_count}");
    println!(
        "disabled solve median:        {}",
        secs_f64(disabled.median_s)
    );
    println!(
        "enabled solve median:         {}  (informational)",
        secs_f64(enabled.median_s)
    );
    println!(
        "estimated disabled overhead:  {:.4}% of the solve median (budget {:.0}%)",
        fraction * 100.0,
        OVERHEAD_BUDGET * 100.0
    );

    println!(
        "alloc bookkeeping per pair:   {per_pair_ns:.1} ns  (tracking {})",
        if columba_obs::alloc::tracking_enabled() {
            "on"
        } else {
            "compiled out"
        }
    );
    println!("alloc pairs per solve:        {alloc_pairs}");
    println!(
        "estimated alloc overhead:     {:.4}% of the solve median (budget {:.0}%)",
        alloc_fraction * 100.0,
        ALLOC_BUDGET * 100.0
    );

    if fraction > OVERHEAD_BUDGET {
        eprintln!(
            "error: disabled-path observability overhead {:.3}% exceeds the {:.0}% budget",
            fraction * 100.0,
            OVERHEAD_BUDGET * 100.0
        );
        std::process::exit(1);
    }
    if alloc_fraction > ALLOC_BUDGET {
        eprintln!(
            "error: allocator-tracking overhead {:.3}% exceeds the {:.0}% budget",
            alloc_fraction * 100.0,
            ALLOC_BUDGET * 100.0
        );
        std::process::exit(1);
    }
    println!("\nOK: disabled-path and allocator overheads are within budget");
}
