//! Exercises the resilient-synthesis escalation ladder on the chip4ip case
//! under progressively tighter wall-clock budgets, printing each run's
//! `AttemptLog` — the degradation story of paper §3.2 under pressure.
//!
//! ```sh
//! cargo run -p columba-bench --release --bin resilience
//! cargo run -p columba-bench --release --bin resilience -- --budget-ms 50
//! ```

use std::time::Duration;

use columba_s::netlist::{generators, MuxCount};
use columba_s::planar::planarize;
use columba_s::{synthesize_resilient, CancelToken, LayoutOptions};

fn run(label: &str, options: &LayoutOptions, netlist: &columba_s::Netlist) {
    println!("== {label} ==");
    match synthesize_resilient(netlist, options) {
        Ok(out) => {
            println!("{}", out.log);
            println!(
                "produced by: {} — extent {} x {}, DRC {}  [total {:.1?}]\n",
                out.rung,
                out.result.design.chip.width(),
                out.result.design.chip.height(),
                if out.result.drc.is_clean() {
                    "clean"
                } else {
                    "VIOLATIONS"
                },
                out.log.total,
            );
        }
        Err(e) => {
            println!("{}", e.log);
            println!("failed: {e}\n");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let custom_ms = args
        .iter()
        .position(|a| a == "--budget-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok());

    let (netlist, _) = planarize(&generators::chip_ip(4, MuxCount::One));

    let budgets: Vec<(String, Option<Duration>)> = match custom_ms {
        Some(ms) => vec![(format!("{ms} ms budget"), Some(Duration::from_millis(ms)))],
        None => vec![
            ("unconstrained (10 s solver limit)".into(), None),
            ("2 s ladder budget".into(), Some(Duration::from_secs(2))),
            (
                "50 ms ladder budget".into(),
                Some(Duration::from_millis(50)),
            ),
        ],
    };

    for (label, budget) in budgets {
        // the deadline token spans every rung of the ladder
        let options = LayoutOptions {
            time_limit: Duration::from_secs(10),
            cancel: budget.map(CancelToken::with_timeout),
            ..LayoutOptions::default()
        };
        run(&label, &options, &netlist);
    }
}
