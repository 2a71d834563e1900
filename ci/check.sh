#!/usr/bin/env bash
# The one gate every change must pass, locally and in CI.
#
# Sections (each also a named CI job):
#
#   lint   cargo fmt + clippy with warnings as errors
#   test   release build, workspace tests, fault-inject configurations
#   chaos  crash-point enumeration + SimFs-injected degrade/heal cycle
#   smoke  HTTP round-trip, batch + SSE, assay front end, observability,
#          restart-recovery
#   perf   bench artifacts vs the committed baselines (ci/perf_gate)
#
#   ci/check.sh                  # everything
#   ci/check.sh --skip-perf      # everything except the perf gate
#   ci/check.sh --only lint      # one section (test/smoke imply the build)
#
# The build is hermetic: the workspace has no registry dependencies (the
# internal `columba-prng` crate replaces `rand`, deterministic loops replace
# `proptest`, and the `microbench` binary replaces `criterion`), so every
# cargo invocation runs with `--offline`. If this script fails on a network
# error, a registry dependency has crept back in — remove it.

set -euo pipefail
cd "$(dirname "$0")/.."

ONLY=""
SKIP_PERF=0
while [ $# -gt 0 ]; do
  case "$1" in
    --only)
      ONLY="${2:?--only requires a section: lint|test|chaos|smoke|perf}"
      shift 2
      ;;
    --skip-perf)
      SKIP_PERF=1
      shift
      ;;
    *)
      echo "usage: ci/check.sh [--only lint|test|chaos|smoke|perf] [--skip-perf]" >&2
      exit 2
      ;;
  esac
done
case "$ONLY" in ""|lint|test|chaos|smoke|perf) ;; *)
  echo "error: unknown section '$ONLY' (want lint|test|chaos|smoke|perf)" >&2
  exit 2
esac

section_lint() {
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check

  echo "==> cargo clippy (warnings are errors)"
  cargo clippy --workspace --all-targets --offline -- -D warnings

  echo "==> raw-time gate (service code must go through the Clock trait)"
  # Every time source in crates/service must be injected via
  # simenv::clock::Clock so the deterministic simulation controls it;
  # a raw Instant::now / SystemTime::now / thread::sleep is a blind
  # spot the chaos runner cannot replay. Only clock.rs (the trait's
  # real implementation) may touch them.
  if grep -rn 'Instant::now\|SystemTime::now\|thread::sleep' \
      crates/service/src --include='*.rs' | grep -v 'simenv/clock\.rs'; then
    echo "error: raw time call in crates/service outside simenv/clock.rs" >&2
    echo "       (inject the Clock trait instead)" >&2
    exit 1
  fi
}

section_build() {
  echo "==> cargo build --release --offline"
  cargo build --workspace --release --offline
}

section_test() {
  echo "==> cargo test --offline"
  cargo test --workspace -q --offline

  echo "==> cargo test --features fault-inject (resilience ladder under forced failures)"
  cargo test -q --offline -p columba-milp --features fault-inject
  cargo test -q --offline -p columba-layout --features fault-inject

  echo "==> cargo build -p columba-obs --no-default-features (allocator tracking compiles out)"
  cargo build -q --offline -p columba-obs --no-default-features
}

section_chaos() {
  echo "==> chaos: crash-point enumeration (SimFs power loss after every storage op)"
  cargo test -q --offline -p columba-service --test crash_points

  echo "==> chaos: degrade/heal cycle + injected persist faults (SimFs)"
  cargo test -q --offline -p columba-service --test self_heal --test persist_fault

  echo "==> chaos: readiness gate under a large journal replay"
  cargo test -q --offline -p columba-service --test health

  echo "==> chaos: deterministic whole-service simulation (pinned smoke seeds)"
  # Seeded scenarios over SimFs + SimClock + SimNet; a failing seed
  # prints a single-command reproducer plus a shrunk minimal plan.
  # The nightly CI job sweeps a wide seed range on top of this set.
  cargo run --release --offline -p columba-service --bin columba-chaos -- --smoke
}

# Starts target/release/columba-serve with the given extra flags,
# populates ADDR and SERVE_PID, and installs a kill trap.
serve_start() {
  SERVE_LOG=$(mktemp)
  ./target/release/columba-serve 127.0.0.1:0 --quick --hold "$@" >"$SERVE_LOG" &
  SERVE_PID=$!
  trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$SERVE_LOG")
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "server never bound"; exit 1; }
}

smoke_post() {
  curl -sfS -X POST --data-binary @cases/chip4ip.netlist "http://$ADDR/synthesize" \
    | awk '$1=="id"{print $2}'
}

smoke_poll_done() {
  for _ in $(seq 1 240); do
    STATUS=$(curl -sfS "http://$ADDR/jobs/$1")
    case $(printf '%s\n' "$STATUS" | awk '$1=="state"{print $2}') in
      done) printf '%s\n' "$STATUS"; return 0 ;;
      failed|cancelled) echo "job $1 did not finish: $STATUS" >&2; return 1 ;;
    esac
    sleep 0.5
  done
  echo "job $1 never finished" >&2
  return 1
}

section_smoke() {
  if ! command -v curl >/dev/null 2>&1; then
    echo "curl not found; skipping the HTTP smoke"
    return 0
  fi

  echo "==> service smoke (HTTP round-trip against the release server)"
  serve_start
  JOB1=$(smoke_post)
  STATUS1=$(smoke_poll_done "$JOB1")
  printf '%s\n' "$STATUS1" | grep -q '^from_cache false$'
  SVG=$(curl -sfS "http://$ADDR/jobs/$JOB1/svg")
  printf '%s\n' "$SVG" | grep -q '<svg'
  JOB2=$(smoke_post)
  STATUS2=$(smoke_poll_done "$JOB2")
  printf '%s\n' "$STATUS2" | grep -q '^from_cache true$'
  METRICS=$(curl -sfS "http://$ADDR/metrics")
  printf '%s\n' "$METRICS" | grep -q '^cache_hits 1$'
  printf '%s\n' "$METRICS" | grep -q '^worker_panics 0$'

  echo "==> batch smoke (POST /batch dedups members; group status converges)"
  BATCH_BODY=$(mktemp)
  cat cases/chip4ip.netlist >"$BATCH_BODY"
  printf '%%%%\n' >>"$BATCH_BODY"
  cat cases/chip4ip.netlist >>"$BATCH_BODY"
  BATCH_RESP=$(curl -sfS -X POST --data-binary @"$BATCH_BODY" "http://$ADDR/batch")
  BATCH_ID=$(printf '%s\n' "$BATCH_RESP" | awk '$1=="batch"{print $2}')
  [ -n "$BATCH_ID" ] || { echo "batch submit failed: $BATCH_RESP"; exit 1; }
  printf '%s\n' "$BATCH_RESP" | grep -q '^members 2$'
  for _ in $(seq 1 240); do
    BATCH_STATUS=$(curl -sfS "http://$ADDR/batch/$BATCH_ID")
    printf '%s\n' "$BATCH_STATUS" | grep -q '^state done$' && break
    sleep 0.5
  done
  printf '%s\n' "$BATCH_STATUS" | grep -q '^state done$' \
    || { echo "batch never converged: $BATCH_STATUS"; exit 1; }
  printf '%s\n' "$BATCH_STATUS" | grep -q '^unique 1$' \
    || { echo "duplicate members did not dedup: $BATCH_STATUS"; exit 1; }
  printf '%s\n' "$BATCH_STATUS" | grep -q '^done 2$'
  METRICS=$(curl -sfS "http://$ADDR/metrics")
  printf '%s\n' "$METRICS" | grep -q '^batch_dedup_hits 1$'

  echo "==> SSE smoke (GET /jobs/<id>/events streams to an end frame)"
  EVENTS=$(curl -sfS --no-buffer --max-time 30 "http://$ADDR/jobs/$JOB1/events")
  printf '%s\n' "$EVENTS" | grep -q '^event: solved$' \
    || { echo "event stream is missing the solved frame: $EVENTS"; exit 1; }
  printf '%s\n' "$EVENTS" | grep -q '^event: end$' \
    || { echo "event stream never ended: $EVENTS"; exit 1; }

  echo "==> observability smoke (Prometheus scrape + Chrome-trace profile)"
  PROM=$(curl -sfS "http://$ADDR/metrics?format=prometheus")
  printf '%s\n' "$PROM" | ./target/release/obs-validate prometheus
  # NOT grep -q: -q exits on first match and the closed pipe can SIGPIPE
  # printf mid-flush on a multi-buffer scrape, which pipefail turns into
  # a spurious failure. Plain grep reads to EOF.
  printf '%s\n' "$PROM" | grep 'columba_solve_seconds_bucket' >/dev/null \
    || { echo "Prometheus scrape is missing solve-latency buckets"; exit 1; }
  printf '%s\n' "$PROM" | grep 'columba_solve_seconds_p99' >/dev/null \
    || { echo "Prometheus scrape is missing the p99 summary line"; exit 1; }
  printf '%s\n' "$PROM" | grep 'columba_queue_class_depth' >/dev/null \
    || { echo "Prometheus scrape is missing the per-class queue gauges"; exit 1; }
  curl -sfS "http://$ADDR/jobs/$JOB1/profile" | ./target/release/obs-validate chrome
  TRACE=$(curl -sfS "http://$ADDR/jobs/$JOB1/trace")
  printf '%s\n' "$TRACE" | grep '"event":"solved"' >/dev/null \
    || { echo "lifecycle trace is missing the solved event: $TRACE"; exit 1; }
  printf '%s\n' "$PROM" | grep 'columba_alloc_live_bytes' >/dev/null \
    || { echo "Prometheus scrape is missing the allocator gauges"; exit 1; }
  curl -sfS "http://$ADDR/slo" | ./target/release/obs-validate slo
  # a solve-latency exemplar must name a job whose trace is still served
  EX_JOB=$(printf '%s\n' "$PROM" \
    | sed -n 's/.*columba_solve_seconds_bucket.* # {job="\([0-9]*\)"}.*/\1/p' | head -1)
  [ -n "$EX_JOB" ] || { echo "solve histogram carries no exemplar"; exit 1; }
  EX_TRACE=$(curl -sfS "http://$ADDR/jobs/$EX_JOB/trace")
  printf '%s\n' "$EX_TRACE" | grep '"event"' >/dev/null \
    || { echo "exemplar job $EX_JOB does not resolve to a trace"; exit 1; }
  echo "observability smoke OK"

  kill -9 "$SERVE_PID"
  trap - EXIT
  echo "service smoke OK"

  echo "==> assay smoke (POST /synthesize-assay: assay in, SVG out, cache hit on resubmit)"
  serve_start
  AJOB1=$(curl -sfS -X POST --data-binary @cases/pooled_capture.assay \
    "http://$ADDR/synthesize-assay" | awk '$1=="id"{print $2}')
  ASTATUS1=$(smoke_poll_done "$AJOB1")
  printf '%s\n' "$ASTATUS1" | grep -q '^from_cache false$'
  printf '%s\n' "$ASTATUS1" | grep -q '^drc_clean true$'
  printf '%s\n' "$ASTATUS1" | grep -q '^schedule_policy distributed$'
  ASVG=$(curl -sfS "http://$ADDR/jobs/$AJOB1/svg")
  printf '%s\n' "$ASVG" | grep -q '<svg'
  AJOB2=$(curl -sfS -X POST --data-binary @cases/pooled_capture.assay \
    "http://$ADDR/synthesize-assay" | awk '$1=="id"{print $2}')
  ASTATUS2=$(smoke_poll_done "$AJOB2")
  printf '%s\n' "$ASTATUS2" | grep -q '^from_cache true$' \
    || { echo "identical assay was re-solved: $ASTATUS2"; exit 1; }
  METRICS=$(curl -sfS "http://$ADDR/metrics")
  printf '%s\n' "$METRICS" | grep -q '^assay_jobs 2$'
  printf '%s\n' "$METRICS" | grep -q '^cache_hits 1$'
  # malformed bodies are rejected up front with a structured 400
  ACYCLIC=$(mktemp)
  printf 'assay cyc\nop a duration=1 device=mixer\nop b duration=1 device=mixer\ndep a -> b\ndep b -> a\n' >"$ACYCLIC"
  ACODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$ACYCLIC" \
    "http://$ADDR/synthesize-assay")
  [ "$ACODE" = 400 ] || { echo "cyclic assay returned $ACODE, want 400"; exit 1; }
  kill -9 "$SERVE_PID"
  trap - EXIT
  echo "assay smoke OK"

  echo "==> restart-recovery smoke (solve, SIGKILL, restart on the same state dir)"
  STATE_DIR=$(mktemp -d)
  serve_start --state-dir "$STATE_DIR"
  JOB1=$(smoke_post)
  smoke_poll_done "$JOB1" >/dev/null

  # crash hard: no graceful shutdown, no flush beyond the fsync discipline
  kill -9 "$SERVE_PID"
  wait "$SERVE_PID" 2>/dev/null || true

  serve_start --state-dir "$STATE_DIR"
  METRICS=$(curl -sfS "http://$ADDR/metrics")
  printf '%s\n' "$METRICS" | grep -q '^cache_files_loaded 1$' \
    || { echo "restart did not reload the disk cache: $METRICS"; exit 1; }
  REPLAYED=$(printf '%s\n' "$METRICS" | awk '$1=="journal_records_replayed"{print $2}')
  [ "$REPLAYED" -ge 1 ] || { echo "restart replayed no journal records"; exit 1; }

  # the same case must now be a pure cache hit: zero solver work
  JOB2=$(smoke_post)
  STATUS2=$(smoke_poll_done "$JOB2")
  printf '%s\n' "$STATUS2" | grep -q '^from_cache true$' \
    || { echo "recovered design was re-solved: $STATUS2"; exit 1; }
  METRICS=$(curl -sfS "http://$ADDR/metrics")
  printf '%s\n' "$METRICS" | grep -q '^cache_hits 1$'
  printf '%s\n' "$METRICS" | grep -q '^solve_simplex_iterations 0$'
  kill -9 "$SERVE_PID"
  trap - EXIT
  echo "restart-recovery smoke OK"

  echo "==> observability overhead guard (disabled spans within 2%, allocator within 3%)"
  ./target/release/obs_overhead --iters 3
}

section_perf() {
  echo "==> perf gate (bench medians vs committed baselines, see ci/perf_gate)"
  ci/perf_gate
}

case "$ONLY" in
  lint)
    section_lint
    ;;
  test)
    section_build
    section_test
    ;;
  chaos)
    section_chaos
    ;;
  smoke)
    section_build
    section_smoke
    ;;
  perf)
    section_build
    section_perf
    ;;
  "")
    section_lint
    section_build
    section_test
    section_smoke
    if [ "$SKIP_PERF" = 1 ]; then
      echo "==> perf gate skipped (--skip-perf)"
    else
      section_perf
    fi
    ;;
esac

echo "All checks passed."
