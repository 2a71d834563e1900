//! Crash-point-exhaustive storage simulation: a pinned persist workload
//! runs once per possible power-cut point (every mutating storage
//! operation index), in both crash modes (unsynced bytes dropped, or
//! torn in half). After every crash, recovery must:
//!
//! 1. keep every fsync-acked submission of a job still live, across the
//!    journal compaction the workload runs, and every acked design store
//!    (`FsyncPolicy::Always` means acked-is-durable — at *every* crash
//!    index, not just the lucky ones),
//! 2. never serve a corrupt design (whatever the cache loads must be
//!    byte-exact; torn files are dropped, not served),
//! 3. leave a journal that accepts new appends and replays them cleanly
//!    past whatever corruption the crash left behind.
//!
//! A sample of crash points is additionally materialized to a real
//! directory and recovered through a full `Service::open`, proving the
//! simulated tree round-trips into the production path.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use columba_service::{
    fnv1a64, CompletedDesign, ContentKey, CrashMode, DesignSummary, FsyncPolicy, JobId,
    JournalRecord, Persist, PersistConfig, QosClass, Service, ServiceConfig, SimFs, Storage,
};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";

fn sample_design() -> CompletedDesign {
    CompletedDesign {
        summary: DesignSummary {
            drc_clean: true,
            width_mm: 1.0,
            height_mm: 2.0,
            control_inlets: 1,
            solve_nodes: 1,
            solve_pruned: 0,
            solve_simplex_iterations: 10,
        },
        svg: "<svg/>".into(),
        scr: "_PLINE\n".into(),
        rung: "full MILP".into(),
        solved_in: Duration::from_millis(5),
    }
}

fn sim_config() -> PersistConfig {
    PersistConfig {
        state_dir: PathBuf::from("state"),
        // the whole point: fsync-acked must survive power loss
        fsync_policy: FsyncPolicy::Always,
    }
}

/// Which workload steps were *acknowledged* (returned `Ok`) before the
/// power went out. Only acked steps carry a durability promise.
#[derive(Default)]
struct Acks {
    /// Acked submissions of jobs 1–4 and of a churn job whose completion
    /// did not ack: live jobs, which every replay must keep.
    submitted: Vec<u64>,
    completed: bool,
    stored: bool,
    /// Journal compactions the workload ran before the power went out.
    compactions: u64,
}

/// The pinned workload: open, journal three submissions, churn 32
/// short-lived jobs (submitted, then completed) until the journal
/// compacts, store one design, journal its completion, journal one more
/// submission. Every step tolerates failure (the power may already be
/// out); what it records is which steps acked. The power goes out at op
/// `cut` (`u64::MAX`: never): a step that ran an op at or past it acked
/// nothing, even where a best-effort directory fsync swallowed the cut.
fn run_workload(sim: &SimFs, cut: u64) -> Acks {
    let mut acks = Acks::default();
    let Ok((persist, _recovery)) = Persist::open_on(Arc::new(sim.clone()), &sim_config()) else {
        return acks;
    };
    for id in 1..=3u64 {
        let record = JournalRecord::Submitted {
            id,
            class: QosClass::Interactive,
            text: Arc::new(TINY.to_string()),
        };
        if persist.append(&record).is_ok() {
            acks.submitted.push(id);
        }
    }
    // the 64th record compacts the journal down to the live jobs
    for id in 10..42u64 {
        let submitted = JournalRecord::Submitted {
            id,
            class: QosClass::Interactive,
            text: Arc::new(TINY.to_string()),
        };
        if persist.append(&submitted).is_err() {
            continue;
        }
        let completed = JournalRecord::Completed {
            id,
            key: None,
            rung: "full MILP".into(),
        };
        if persist.append(&completed).is_err() {
            acks.submitted.push(id);
        }
    }
    let key = ContentKey(0xab, 0xcd);
    acks.stored =
        persist.store_design(key, "canon", &sample_design()).is_ok() && sim.op_count() <= cut;
    let completed = JournalRecord::Completed {
        id: 1,
        key: Some(key),
        rung: "full MILP".into(),
    };
    if persist.append(&completed).is_ok() {
        acks.completed = true;
    }
    let last = JournalRecord::Submitted {
        id: 4,
        class: QosClass::Bulk,
        text: Arc::new(TINY.to_string()),
    };
    if persist.append(&last).is_ok() {
        acks.submitted.push(4);
    }
    acks.compactions = persist.compactions();
    acks
}

fn has_submitted(records: &[JournalRecord], want: u64) -> bool {
    records
        .iter()
        .any(|r| matches!(r, JournalRecord::Submitted { id, .. } if *id == want))
}

#[test]
fn every_crash_point_preserves_acked_jobs_and_design_integrity() {
    // measure the workload's op budget on an uninterrupted run
    let probe = SimFs::new();
    let acks = run_workload(&probe, u64::MAX);
    assert_eq!(
        acks.compactions, 1,
        "the workload compacts the journal once"
    );
    assert!(acks.stored, "the uninterrupted workload stores its design");
    let total = probe.op_count();
    assert!(
        total >= 15,
        "the pinned workload must exercise a real op sequence, got {total}"
    );

    let original = sample_design();
    for mode in [CrashMode::DropUnsynced, CrashMode::TornUnsynced] {
        for at in 0..=total {
            let sim = SimFs::new();
            sim.crash_after(at);
            let acks = run_workload(&sim, at);
            sim.crash(mode);

            // recovery must open on whatever the crash left — never panic,
            // never refuse the state directory
            let (persist, recovery) = Persist::open_on(Arc::new(sim.clone()), &sim_config())
                .unwrap_or_else(|e| panic!("{mode:?} crash at op {at}: recovery failed: {e}"));

            // 1. acked means durable
            for id in &acks.submitted {
                assert!(
                    has_submitted(&recovery.replay.records, *id),
                    "{mode:?} crash at op {at}: fsync-acked job {id} lost \
                     (replayed {} records, {} corrupt)",
                    recovery.replay.records.len(),
                    recovery.replay.corrupt
                );
            }
            if acks.completed {
                assert!(
                    recovery
                        .replay
                        .records
                        .iter()
                        .any(|r| matches!(r, JournalRecord::Completed { id: 1, .. })),
                    "{mode:?} crash at op {at}: fsync-acked completion lost"
                );
            }

            if acks.stored {
                assert!(
                    recovery
                        .cache
                        .designs
                        .iter()
                        .any(|d| d.key == ContentKey(0xab, 0xcd)),
                    "{mode:?} crash at op {at}: fsync-acked design store lost"
                );
            }

            // 2. no corrupt design is ever served: whatever loaded is exact
            for loaded in &recovery.cache.designs {
                assert_eq!(
                    loaded.design.svg, original.svg,
                    "{mode:?} crash at op {at}: corrupt SVG served"
                );
                assert_eq!(
                    loaded.design.scr, original.scr,
                    "{mode:?} crash at op {at}: corrupt SCR served"
                );
                assert_eq!(loaded.key, ContentKey(0xab, 0xcd));
            }

            // 3. the journal still works: a post-recovery append lands past
            // whatever torn tail the crash left, and the next replay sees
            // both the old acked records and the new one
            let fresh = JournalRecord::Submitted {
                id: 99,
                class: QosClass::Interactive,
                text: Arc::new(TINY.to_string()),
            };
            persist
                .append(&fresh)
                .unwrap_or_else(|e| panic!("{mode:?} at {at}: journal dead after recovery: {e}"));
            let (_p2, again) = Persist::open_on(Arc::new(sim.clone()), &sim_config())
                .unwrap_or_else(|e| panic!("{mode:?} at {at}: second recovery failed: {e}"));
            assert!(
                has_submitted(&again.replay.records, 99),
                "{mode:?} crash at op {at}: append after recovery does not replay"
            );
            for id in &acks.submitted {
                assert!(
                    has_submitted(&again.replay.records, *id),
                    "{mode:?} crash at op {at}: job {id} lost on the second replay"
                );
            }
        }
    }
}

/// A sample of crash points round-trips through `SimFs::materialize`
/// into a real directory and a full `Service::open`: the service must
/// recover, keep every acked submission visible, and still solve.
#[test]
fn sampled_crash_points_recover_through_a_full_service_open() {
    let probe = SimFs::new();
    run_workload(&probe, u64::MAX);
    let total = probe.op_count();

    // early, middle, and late cuts in both modes
    let picks = [1, total / 2, total.saturating_sub(2)];
    for mode in [CrashMode::DropUnsynced, CrashMode::TornUnsynced] {
        for (round, &at) in picks.iter().enumerate() {
            let sim = SimFs::new();
            sim.crash_after(at);
            let acks = run_workload(&sim, at);
            sim.crash(mode);

            let dest = std::env::temp_dir().join(format!(
                "columba-crashpoint-{}-{round}-{at}-{mode:?}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dest);
            sim.materialize(&dest)
                .expect("materialize the crashed tree");

            let mut options = common::deterministic_options();
            options.layout.time_limit = Duration::from_secs(60);
            let service = Service::open(ServiceConfig {
                workers: 2,
                options,
                persist: Some(PersistConfig {
                    state_dir: dest.join("state"),
                    fsync_policy: FsyncPolicy::Never,
                }),
                ..ServiceConfig::default()
            })
            .expect("the service recovers from a materialized crash state");

            // every acked submission is a known job after recovery — live
            // ones re-run to termination, completed ones stay visible
            for id in &acks.submitted {
                let status = service
                    .wait(JobId(*id), Duration::from_secs(120))
                    .unwrap_or_else(|| {
                        panic!("{mode:?} crash at op {at}: acked job {id} unknown after recovery")
                    });
                assert!(
                    status.state.is_terminal(),
                    "{mode:?} at {at}: job {id} stuck: {status:?}"
                );
            }
            // and the recovered service still takes new work
            let id = service.submit_text(TINY).expect("admitted");
            let status = service
                .wait(id, Duration::from_secs(120))
                .expect("job known");
            assert!(status.state.is_terminal(), "{status:?}");
            service.shutdown();
            let _ = std::fs::remove_dir_all(&dest);
        }
    }
}

/// A fixed persist scenario: open, 67 journal appends (one compaction
/// runs), three design stores, reopen. The storage op count and a digest
/// of every file it leaves are pinned, so a change to the write path that
/// reorders, adds or drops a storage operation, or changes a byte on
/// disk, fails here before it shifts the op-indexed fault schedules above.
#[test]
fn fixed_scenario_pins_the_op_count_and_every_byte_on_disk() {
    let sim = SimFs::new();
    {
        let (persist, _) = Persist::open_on(Arc::new(sim.clone()), &sim_config()).expect("open");
        // three jobs stay live across the compaction, one batch groups them
        for id in 1..=3u64 {
            let text = Arc::new(format!("chip live{id}\n"));
            let record = JournalRecord::Submitted {
                id,
                class: QosClass::Bulk,
                text,
            };
            persist.append(&record).expect("append");
        }
        let batch = JournalRecord::Batch {
            id: 1,
            members: vec![1, 2, 3],
        };
        persist.append(&batch).expect("append");
        for id in 10..42u64 {
            let submitted = JournalRecord::Submitted {
                id,
                class: QosClass::Interactive,
                text: Arc::new(TINY.to_string()),
            };
            persist.append(&submitted).expect("append");
            let completed = JournalRecord::Completed {
                id,
                key: Some(ContentKey(id, id)),
                rung: "full MILP".into(),
            };
            persist.append(&completed).expect("append");
        }
        assert_eq!(persist.compactions(), 1);
        for k in 1..=3u64 {
            let mut design = sample_design();
            design.svg = format!("<svg id=\"{k}\"/>");
            persist
                .store_design(ContentKey(k, k), &format!("canon {k}"), &design)
                .expect("store");
        }
    }
    let (_persist, recovery) =
        Persist::open_on(Arc::new(sim.clone()), &sim_config()).expect("reopen");
    assert_eq!(recovery.replay.corrupt, 0);
    assert_eq!(recovery.cache.designs.len(), 3);

    let mut files = sim.read_dir(Path::new("state")).expect("state dir");
    files.extend(sim.read_dir(Path::new("state/cache")).expect("cache dir"));
    files.sort();
    let digests: Vec<(String, usize, u64)> = files
        .iter()
        .map(|path| {
            let bytes = sim.contents(path).expect("listed file exists");
            (path.display().to_string(), bytes.len(), fnv1a64(&bytes))
        })
        .collect();
    let design = |k: u64, digest: u64| {
        let name = format!("state/cache/{k:016x}{k:016x}.design");
        (name, 296, digest)
    };
    assert_eq!(
        digests,
        vec![
            design(1, 0x494e_ddbc_a9b1_27ca),
            design(2, 0xe998_efc2_af7a_a896),
            design(3, 0x2ecc_d40c_0c58_aa53),
            ("state/journal.log".to_string(), 501, 0x92e6_06c0_2f80_3fcb),
        ]
    );
    assert_eq!(sim.op_count(), 162);
}
