//! `columba-serve` — run the synthesis service as an HTTP server.
//!
//! ```sh
//! columba-serve                      # 127.0.0.1:8642, defaults
//! columba-serve 127.0.0.1:0         # ephemeral port (printed on stdout)
//! columba-serve --workers 8 --quick # quick solver budgets (CI smoke)
//! columba-serve --bulk-queue 512    # bulk (batch) admission budget
//! columba-serve --hold              # ignore stdin; run until killed
//! columba-serve --state-dir DIR     # durable journal + disk cache
//! columba-serve --breaker-threshold 5   # failed writes before degraded mode
//! columba-serve --breaker-probe-ms 2000 # half-open probe interval
//! columba-serve --persist-retries 2     # retries per persist write
//! columba-serve --watchdog-grace-secs 30 # grace past deadline before cancel
//! columba-serve --storage-policy spill   # assay storage policy (dedicated|distributed|spill)
//! columba-serve --trace-keep-slow-secs 30 # tail sampling: keep traces of solves this slow
//! columba-serve --trace-head-sample 10    # keep 1 in N fast clean job traces (default 1: all)
//! ```
//!
//! Prints exactly one `listening on <addr>` line on stdout once bound,
//! then serves until stdin reaches EOF (or a `quit` line) — or forever
//! under `--hold`, for scripted runs that background the process and
//! kill it.
//!
//! With `--state-dir DIR` the service journals every job and persists
//! every cached design under `DIR`, replaying both on the next start.
//! Add `--no-fsync` to skip fsync (survives SIGKILL, not power loss).
//!
//! Lifecycle events are read over HTTP: `GET /trace` serves the service
//! log (rejections, batches, recovery, breaker and SLO notes, shutdown)
//! and `GET /jobs/<id>/trace` one job's log, both as JSON Lines.
//!
//! An unknown flag, a second address, or a flag value that is not an
//! integer of the flag's range exits with status 2 and names the flag.

use std::io::BufRead as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use columba_s::{LayoutOptions, SynthesisOptions};
use columba_service::{
    BreakerConfig, FsyncPolicy, HttpConfig, HttpServer, PersistConfig, Service, ServiceConfig,
};

/// Flags that consume the next argument as a value.
const VALUE_FLAGS: &[&str] = &[
    "--workers",
    "--queue",
    "--bulk-queue",
    "--state-dir",
    "--breaker-threshold",
    "--breaker-probe-ms",
    "--persist-retries",
    "--watchdog-grace-secs",
    "--storage-policy",
    "--trace-keep-slow-secs",
    "--trace-head-sample",
];

/// Flags that take no value.
const SWITCHES: &[&str] = &["--quick", "--hold", "--no-fsync"];

/// Prints `msg` as a usage error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The argument after flag `name` (empty when it is last), if given.
fn value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    Some(args.get(i + 1).map_or("", String::as_str))
}

/// The value of flag `name` parsed as a `T`, or `default` when the flag
/// is absent. A missing value, or one that does not parse as a `T` (out
/// of its range, say), is an error naming the flag.
fn number_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    value(args, name).map_or(Ok(default), |v| {
        let ty = std::any::type_name::<T>();
        v.parse()
            .map_err(|_| format!("{name} requires an integer that fits in {ty}"))
    })
}

fn flag<T: FromStr>(args: &[String], name: &str, default: T) -> T {
    number_flag(args, name, default).unwrap_or_else(|e| usage_error(&e))
}

/// The one positional argument, the listen address, if given. Values of
/// [`VALUE_FLAGS`] are skipped; an unknown `--` flag or a second
/// positional argument is an error naming it.
fn positional_addr(args: &[String]) -> Result<Option<String>, String> {
    let mut addr = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
        } else if arg.starts_with("--") {
            if !SWITCHES.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg}"));
            }
        } else if addr.is_some() {
            return Err(format!("unexpected argument {arg}"));
        } else {
            addr = Some(arg.clone());
        }
    }
    Ok(addr)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = positional_addr(&args)
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or_else(|| "127.0.0.1:8642".to_string());
    let mut options = SynthesisOptions::default();
    if args.iter().any(|a| a == "--quick") {
        options.layout = LayoutOptions {
            time_limit: Duration::from_secs(10),
            node_limit: 200,
            threads: 1,
            ..LayoutOptions::default()
        };
    }
    let persist = value(&args, "--state-dir").map(|dir| PersistConfig {
        state_dir: match dir {
            dir if dir.is_empty() || dir.starts_with("--") => {
                usage_error("--state-dir requires a path")
            }
            dir => PathBuf::from(dir),
        },
        fsync_policy: if args.iter().any(|a| a == "--no-fsync") {
            FsyncPolicy::Never
        } else {
            FsyncPolicy::Always
        },
    });
    let breaker_defaults = BreakerConfig::default();
    let probe_ms = u64::try_from(breaker_defaults.probe_interval.as_millis()).unwrap_or(u64::MAX);
    let breaker = BreakerConfig {
        failure_threshold: flag(
            &args,
            "--breaker-threshold",
            breaker_defaults.failure_threshold,
        ),
        probe_interval: Duration::from_millis(flag(&args, "--breaker-probe-ms", probe_ms)),
        max_retries: flag(&args, "--persist-retries", breaker_defaults.max_retries),
        ..breaker_defaults
    };
    let watchdog_grace = Duration::from_secs(flag(&args, "--watchdog-grace-secs", 30));
    let mut schedule = columba_service::ScheduleOptions::default();
    if let Some(name) = value(&args, "--storage-policy") {
        schedule.policy = columba_service::StoragePolicy::parse(name).unwrap_or_else(|| {
            usage_error(&format!(
                "--storage-policy must be dedicated, distributed or spill, got `{name}`"
            ))
        });
    }
    let service = match Service::open(ServiceConfig {
        workers: flag(&args, "--workers", 0),
        queue_capacity: flag(&args, "--queue", 64),
        bulk_queue_capacity: flag(&args, "--bulk-queue", 256),
        options,
        persist,
        breaker,
        watchdog_grace,
        schedule,
        trace_keep_slow: Duration::from_secs(flag(&args, "--trace-keep-slow-secs", 30)),
        trace_head_sample: flag(&args, "--trace-head-sample", 1),
        ..ServiceConfig::default()
    }) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("error: cannot open state directory: {e}");
            std::process::exit(1);
        }
    };
    let server = match HttpServer::bind(Arc::clone(&service), &addr, HttpConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());

    if args.iter().any(|a| a == "--hold") {
        let clock = service.clock();
        loop {
            clock.sleep(Duration::from_secs(3600));
        }
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    eprintln!("shutting down");
    drop(server);
    service.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn positional_addr_skips_flag_values_and_names_bad_flags() {
        let ok = |line| positional_addr(&args(line));
        assert_eq!(
            ok("--workers 8 127.0.0.1:0 --quick"),
            Ok(Some("127.0.0.1:0".into()))
        );
        assert_eq!(ok("--state-dir /tmp/x --no-fsync --hold"), Ok(None));
        assert_eq!(ok("--trace"), Err("unknown flag --trace".into()));
        assert_eq!(ok("--worker 8"), Err("unknown flag --worker".into()));
        assert_eq!(ok("a:1 b:2"), Err("unexpected argument b:2".into()));
    }

    #[test]
    fn number_flags_reject_values_their_type_cannot_hold() {
        let threshold = |line| number_flag::<u32>(&args(line), "--breaker-threshold", 5);
        assert_eq!(threshold(""), Ok(5));
        assert_eq!(threshold("--breaker-threshold 4294967295"), Ok(u32::MAX));
        let err = Err("--breaker-threshold requires an integer that fits in u32".into());
        assert_eq!(threshold("--breaker-threshold 4294967296"), err);
        assert_eq!(threshold("--breaker-threshold -1"), err);
        assert_eq!(threshold("--breaker-threshold"), err);
    }
}
