//! # columba-obs
//!
//! Std-only, zero-dependency observability substrate for the Columba S
//! stack: hierarchical spans, log-bucketed latency histograms, allocator
//! accounting, an SLO burn-rate engine, and two exporters (Prometheus
//! text exposition and Chrome trace-event JSON).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Recording is gated on one process-global
//!    atomic; a [`span`] call with recording off is a single relaxed load.
//!    `columba-milp` calls into this from its innermost loops, so the
//!    default state must not perturb solver benchmarks (the CI overhead
//!    guard holds this to <2% of a chip4ip solve).
//! 2. **Bounded memory.** Every recorder is a fixed-capacity ring with an
//!    eviction counter; a runaway solve can never OOM the service through
//!    its own telemetry.
//! 3. **No dependencies.** `columba-milp` depends on nothing else and this
//!    crate must not change that; everything here is `std`.
//!
//! See `DESIGN.md` ("Observability") for the bucketing scheme and the
//! span-recorder architecture.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod alloc;
pub mod export;
pub mod hist;
pub mod parse;
pub mod slo;
pub mod span;

pub use alloc::{AllocStats, SubsystemAlloc};
pub use export::chrome_trace;
pub use hist::{bucket_bounds_us, bucket_index, HistSnapshot, Histogram};
pub use parse::{
    parse_json, parse_prometheus, validate_chrome_trace, Json, PromExemplar, PromSample,
};
pub use slo::{SloDef, SloEngine, SloKind, SloReport, SloSnapshot, SloTransition};
pub use span::{
    enabled, instant, set_enabled, span, AttrValue, EventKind, RecorderGuard, SpanContext,
    SpanEvent, SpanGuard, SpanRecorder,
};
