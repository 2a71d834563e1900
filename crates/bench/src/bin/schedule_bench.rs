//! Benchmarks the assay front end: seeded random assays of growing
//! size through the full `columba_schedule::schedule` pipeline (list
//! scheduling, storage synthesis, netlist emission), one batched case
//! per size and one per storage policy at the middle size.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin schedule_bench
//! cargo run -p columba-bench --release --bin schedule_bench -- --iters 20
//! cargo run -p columba-bench --release --bin schedule_bench -- --out /tmp/bench
//! ```
//!
//! The machine-readable artifact lands at `<out>/BENCH_schedule.json`
//! (default: a per-process directory under the system temporary directory, so a
//! plain run never overwrites the committed baselines in `bench/`).

use columba_bench::{bench_json, measure, out_path, positive_arg, report, write_bench_json};
use columba_prng::Rng;
use columba_schedule::{generators, schedule, Assay, ScheduleOptions, StoragePolicy};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters = positive_arg(&args, "--iters", 10);

    println!("assay scheduling micro-benchmarks ({iters} iterations per case)\n");
    println!("{:<34}{:>10} {:>10} {:>10}", "case", "min", "mean", "max");

    // Each timed sample schedules REPS distinct seeded assays of the
    // size: a single schedule lands near the perf gate's 5 ms noise
    // floor, where a p50 would gate on runner jitter rather than real
    // regressions — batching amortizes it.
    const SIZES: [usize; 4] = [16, 64, 256, 512];
    const REPS: usize = 4;
    let batches: Vec<Vec<Assay>> = SIZES
        .iter()
        .map(|&ops| {
            (0..REPS)
                .map(|r| {
                    let seed = (ops * REPS + r) as u64;
                    generators::random_assay(&mut Rng::seed_from_u64(seed), ops)
                })
                .collect()
        })
        .collect();

    let mut cases = Vec::new();
    let mut config: Vec<(&str, String)> = vec![("iters", iters.to_string())];

    let opts = ScheduleOptions::default();
    let mut makespans = Vec::new();
    for (batch, &ops) in batches.iter().zip(SIZES.iter()) {
        cases.push(report(
            &format!("schedule {REPS}x{ops} ops"),
            &measure(iters, || {
                for assay in batch {
                    std::hint::black_box(schedule(assay, &opts).expect("schedules"));
                }
            }),
        ));
        makespans.push(format!(
            "{ops}:{:.1}",
            schedule(&batch[0], &opts).expect("schedules").makespan_s
        ));
    }

    // the three storage policies over the middle size — the policy
    // decision is where the storage pass does its real work
    for policy in [
        StoragePolicy::Dedicated,
        StoragePolicy::Distributed,
        StoragePolicy::Spill,
    ] {
        let opts = ScheduleOptions {
            policy,
            ..ScheduleOptions::default()
        };
        cases.push(report(
            &format!("schedule 64 ops ({policy})"),
            &measure(iters, || {
                schedule(&batches[1][0], &opts).expect("schedules")
            }),
        ));
    }

    config.push(("makespans_s", makespans.join(" ")));
    write_bench_json(
        &out_path(&args, "BENCH_schedule.json"),
        &bench_json("schedule", &config, &cases),
    );
}
