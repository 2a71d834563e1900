//! The full degrade/heal cycle on a [`SimFs`]: a
//! persistently failing journal trips the circuit breaker into volatile
//! degraded mode — submissions are *accepted* but marked non-durable —
//! and once the fault clears, the half-open probe re-closes the
//! breaker, writes a `resync` marker, re-journals the still-live
//! volatile jobs, and durable service resumes.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columba_service::{
    BreakerConfig, BreakerState, FsyncPolicy, Journal, JournalRecord, PersistConfig, Service,
    ServiceConfig, SimFault, SimFs,
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
        breaker: BreakerConfig {
            failure_threshold: 2,
            probe_interval: Duration::from_millis(100),
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        },
        ..ServiceConfig::default()
    })
    .expect("state dir opens")
}

#[test]
fn breaker_trips_serves_volatile_and_heals_with_a_resync_record() {
    let sim = SimFs::new();
    let service = open(&sim);

    // healthy baseline: ready (replay runs on a background thread, so
    // poll), closed breaker, durable admission
    let ready_by = Instant::now() + Duration::from_secs(30);
    while !service.health().ready {
        assert!(Instant::now() < ready_by, "{:?}", service.health());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.health().breaker, BreakerState::Closed);
    let baseline = service.submit_text(TINY).expect("admitted");
    assert!(
        service.status(baseline).expect("known").durable,
        "with a journal and a closed breaker, admission is durable"
    );
    // let the baseline finish so the worker's own journal appends can't
    // race the fault window below
    service
        .wait(baseline, Duration::from_secs(120))
        .expect("baseline terminal");

    // a persistently failing journal: the first writes are refused
    // (acked-means-durable still holds), then the breaker trips and the
    // service degrades to volatile accepts instead of refusing service
    let mut volatile = Vec::new();
    {
        common::fail_storage_from_now(&sim, SimFault::IoError);
        let mut refused = 0u32;
        for i in 0..32 {
            match service.submit_text(format!("{TINY}// v{i}\n")) {
                Ok(id) => {
                    volatile.push(id);
                    if volatile.len() >= 6 {
                        break;
                    }
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(e, columba_service::SubmitError::Persist { .. }),
                        "pre-trip refusals are persist errors, got {e}"
                    );
                }
            }
        }
        assert!(
            !volatile.is_empty(),
            "the breaker must trip into volatile accepts ({refused} refusals)"
        );
        assert!(refused >= 1, "writes before the trip are refused, not lost");

        let health = service.health();
        assert!(health.degraded, "{health:?}");
        assert_ne!(health.breaker, BreakerState::Closed);
        for id in &volatile {
            assert!(
                !service.status(*id).expect("known").durable,
                "degraded accepts are marked non-durable"
            );
        }
        let m = service.metrics();
        assert!(m.breaker_trips >= 1, "trip counted: {m:?}");
        assert!(m.persist_retries >= 1, "refused writes were retried first");
        // the disk is healthy again
        sim.clear_faults();
    }

    // the half-open probe re-closes the breaker; live volatile jobs get
    // re-journaled (durable), finished ones legitimately stay volatile
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let healed = service.health().breaker == BreakerState::Closed
            && volatile.iter().all(|id| {
                let st = service.status(*id).expect("known");
                st.state.is_terminal() || st.durable
            });
        if healed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never healed: {:?}",
            service.health()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!service.health().degraded);

    // durable service resumed for new work
    let after = service
        .submit_text(format!("{TINY}// after\n"))
        .expect("admitted");
    assert!(
        service.status(after).expect("known").durable,
        "post-heal admission is durable again"
    );

    let m = service.metrics();
    assert!(m.breaker_trips >= 1);
    assert!(
        m.degraded_seconds > 0.0,
        "time spent degraded is banked: {m:?}"
    );

    // drain and stop so the journal is quiescent
    for id in volatile.iter().chain([&baseline, &after]) {
        let st = service
            .wait(*id, Duration::from_secs(120))
            .expect("job known");
        assert!(st.state.is_terminal(), "{st:?}");
    }
    service.shutdown();

    // the journal carries the scar tissue: a resync marker from the heal
    // and the post-heal submission after it
    let (_journal, replay) = Journal::open_on(
        Arc::new(sim.clone()),
        Path::new("state/journal.log"),
        FsyncPolicy::Never,
    )
    .expect("journal reopens");
    let resync_at = replay
        .records
        .iter()
        .position(|r| matches!(r, JournalRecord::Resync { .. }))
        .expect("heal wrote a resync marker");
    let after_submitted = replay
        .records
        .iter()
        .position(|r| matches!(r, JournalRecord::Submitted { id, .. } if *id == after.0))
        .expect("post-heal submission journaled");
    assert!(
        resync_at < after_submitted,
        "resync marker precedes resumed journaling"
    );
}
