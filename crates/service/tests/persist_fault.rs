//! Injected persist-layer faults on a [`SimFs`]: an I/O error on the
//! journal append must reject the submission — never ack a job that was
//! not made durable — and a short write must leave a torn record that
//! the next startup skips without panicking.

mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use columba_service::{
    FsyncPolicy, JobState, PersistConfig, Service, ServiceConfig, SimFault, SimFs, SubmitError,
};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";

fn open(sim: &SimFs) -> Service {
    let mut options = common::deterministic_options();
    options.layout.time_limit = Duration::from_secs(60);
    Service::open(ServiceConfig {
        workers: 1,
        options,
        persist: Some(PersistConfig {
            state_dir: PathBuf::from("state"),
            fsync_policy: FsyncPolicy::Never,
        }),
        storage: Some(Arc::new(sim.clone())),
        ..ServiceConfig::default()
    })
    .expect("state dir opens")
}

#[test]
fn journal_io_error_rejects_the_submission() {
    let sim = SimFs::new();
    let service = open(&sim);
    common::fail_storage_from_now(&sim, SimFault::IoError);
    match service.submit_text(TINY) {
        Err(SubmitError::Persist { detail }) => {
            assert!(!detail.is_empty(), "rejection names the cause");
        }
        other => panic!("unjournaled submission must be rejected, got {other:?}"),
    }
    assert!(service.metrics().persist_errors >= 1);
    // with the fault cleared, the same submission goes through and completes
    sim.clear_faults();
    let id = service
        .submit_text(TINY)
        .expect("admitted after the fault clears");
    let status = service
        .wait(id, Duration::from_secs(120))
        .expect("job known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}

#[test]
fn short_write_tears_the_record_and_recovery_skips_it() {
    let sim = SimFs::new();
    {
        let service = open(&sim);
        common::fail_storage_from_now(&sim, SimFault::ShortWrite);
        assert!(
            matches!(service.submit_text(TINY), Err(SubmitError::Persist { .. })),
            "a torn journal append must reject the submission"
        );
        sim.clear_faults();
        service.shutdown();
    }
    // the torn frame is in the journal; reopening skips it, counts it,
    // and the service still works
    let service = open(&sim);
    let m = service.metrics();
    assert!(
        m.journal_corrupt_skipped >= 1,
        "the torn record is skipped, not replayed: {m:?}"
    );
    let id = service.submit_text(TINY).expect("admitted");
    let status = service
        .wait(id, Duration::from_secs(120))
        .expect("job known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}
