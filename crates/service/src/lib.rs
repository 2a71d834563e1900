//! columba-service: a concurrent synthesis service around the Columba S
//! flow.
//!
//! Four layers, bottom up:
//!
//! * [`cache`] — a content-addressed design cache: canonical netlist
//!   bytes + design-relevant options are hashed ([`hash::ContentKey`])
//!   and completed designs are stored under that key with LRU eviction
//!   and byte-size accounting. Resubmitting a known design is a hash
//!   lookup instead of an MILP solve.
//! * [`service`] — a job scheduler: bounded queue with admission
//!   control (submissions beyond capacity are rejected with a reason,
//!   never blocked), a fixed worker pool running the resilient
//!   synthesis ladder, per-job deadlines and cooperative cancellation
//!   through `CancelToken`, and queryable job states.
//! * [`batch`] — batch job groups: many netlists in one request,
//!   deduplicated through the cache's canonical-text path so identical
//!   members collapse to one solve, admitted under the bulk QoS class.
//! * [`http`] — a minimal hand-rolled HTTP/1.1 front end over
//!   `std::net` exposing submit / batch / status / export / cancel /
//!   metrics, plus server-sent-event progress streaming
//!   (`GET /jobs/<id>/events`).
//! * [`trace`] — structured JSONL lifecycle tracing through a pluggable
//!   [`TraceSink`].
//! * [`persist`] — opt-in durability: a write-ahead job journal with an
//!   fsync-before-ack discipline, a checksummed disk-backed design
//!   cache, and a startup recovery path that tolerates torn writes and
//!   bit flips (configure with [`PersistConfig`]).
//! * [`simenv`] — the deterministic simulation environment: a virtual
//!   [`Clock`], an in-memory [`Transport`]/[`SimNet`] network, and the
//!   seeded chaos scenario runner behind the `columba-chaos` binary.
//!
//! ```no_run
//! use std::sync::Arc;
//! use columba_service::{HttpConfig, HttpServer, Service, ServiceConfig};
//!
//! let service = Arc::new(Service::start(ServiceConfig::default()));
//! let server = HttpServer::bind(
//!     Arc::clone(&service),
//!     "127.0.0.1:0",
//!     HttpConfig::default(),
//! ).expect("bind");
//! println!("listening on {}", server.addr());
//! # drop(server);
//! # service.shutdown();
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod cache;
pub mod hash;
pub mod http;
pub mod job;
mod lifecycle;
pub mod metrics;
pub mod persist;
pub mod service;
pub mod simenv;
pub mod trace;

pub use batch::{BatchId, BatchStatus, BatchSummary, MemberStatus};
pub use cache::{entry_cost, CacheConfig, CacheStats, CompletedDesign, DesignCache, DesignSummary};
pub use columba_schedule::{ScheduleOptions, ScheduleStats, StoragePolicy};
pub use hash::{fnv1a64, ContentKey};
pub use http::{HttpConfig, HttpServer};
pub use job::{JobId, JobState, JobStatus, QosClass};
pub use metrics::{metric_value, MetricsSnapshot};
pub use persist::{
    BreakerConfig, BreakerState, CrashMode, FsyncPolicy, Journal, JournalRecord, Persist,
    PersistConfig, PersistSupervisor, RealFs, Recovery, SimFault, SimFs, Storage, StorageFile,
    WriteOutcome,
};
pub use service::{
    ExportError, ExportKind, HealthReport, ProfileError, Service, ServiceConfig, SubmitError,
};
pub use simenv::{
    clock_wait, run_plan, run_seed, shrink, ChaosOp, ChaosPlan, ChaosReport, Clock, ClockParty,
    ClockSuspend, Conn, NetFault, RealClock, SimClock, SimNet, SimSocket, TcpTransport, Transport,
};
pub use trace::{
    JsonlSink, MemorySink, NullSink, RingConfig, RingSink, TraceEvent, TraceKind, TraceSink,
};
