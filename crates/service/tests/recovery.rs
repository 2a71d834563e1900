//! Crash recovery: a service reopened on the same state directory must
//! serve previously solved designs from the disk cache byte-identically,
//! re-enqueue journaled-but-unfinished jobs, keep terminal job states
//! visible, and shrug off arbitrary corruption of the state directory
//! without panicking.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use columba_prng::Rng;
use columba_service::{
    BatchId, FsyncPolicy, JobId, JobState, Journal, JournalRecord, PersistConfig, QosClass, RealFs,
    Service, ServiceConfig,
};

const TINY: &str = "chip t\nmixer m1\nport a\nport b\n\
                    connect a -> m1.left\nconnect m1.right -> b\n";
const TINY2: &str = "chip t2\nchamber c1\nport a\nport b\n\
                     connect a -> c1.left\nconnect c1.right -> b\n";

/// A unique, empty state directory per call, shared-nothing across
/// parallel tests and repeated runs.
fn fresh_state_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("columba-recovery-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_config(state_dir: &Path) -> ServiceConfig {
    let mut options = common::deterministic_options();
    options.layout.time_limit = Duration::from_secs(60);
    ServiceConfig {
        workers: 2,
        options,
        persist: Some(PersistConfig {
            state_dir: state_dir.to_path_buf(),
            // page-cache writes are plenty for a test that only drops the
            // process handle, and keep the fuzz loop fast
            fsync_policy: FsyncPolicy::Never,
        }),
        ..ServiceConfig::default()
    }
}

fn open(state_dir: &Path) -> Service {
    Service::open(durable_config(state_dir)).expect("state dir opens")
}

fn solve(service: &Service, text: &str) -> columba_service::JobStatus {
    let id = service.submit_text(text).expect("admitted");
    let status = service
        .wait(id, Duration::from_secs(120))
        .expect("job known");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    status
}

#[test]
fn restart_serves_recovered_designs_byte_identically() {
    let dir = fresh_state_dir("restart");
    let (svg1, scr1, svg2, scr2) = {
        let service = open(&dir);
        let a = solve(&service, TINY);
        let b = solve(&service, TINY2);
        assert!(!a.from_cache && !b.from_cache, "wave 1 must actually solve");
        let da = a.design.expect("design");
        let db = b.design.expect("design");
        let out = (
            da.svg.clone(),
            da.scr.clone(),
            db.svg.clone(),
            db.scr.clone(),
        );
        service.shutdown();
        out
    };

    let service = open(&dir);
    let m = service.metrics();
    assert!(
        m.journal_records_replayed >= 4,
        "submitted+started+completed per job, got {}",
        m.journal_records_replayed
    );
    assert_eq!(m.cache_files_loaded, 2);
    assert_eq!(m.cache_corrupt_dropped, 0);

    // wave 2: both cases come straight from the recovered disk cache,
    // byte-for-byte what the first process rendered
    let a = solve(&service, TINY);
    let b = solve(&service, TINY2);
    assert!(a.from_cache, "recovered design must be a cache hit");
    assert!(b.from_cache, "recovered design must be a cache hit");
    let da = a.design.expect("design");
    let db = b.design.expect("design");
    assert_eq!(da.svg, svg1);
    assert_eq!(da.scr, scr1);
    assert_eq!(db.svg, svg2);
    assert_eq!(db.scr, scr2);
    let m = service.metrics();
    assert_eq!(m.cache.hits, 2);
    assert_eq!(
        m.solve.simplex_iterations, 0,
        "a recovered cache must eliminate re-solves entirely"
    );
    service.shutdown();
}

#[test]
fn submitted_but_unfinished_jobs_are_requeued_and_run() {
    let dir = fresh_state_dir("requeue");
    // simulate a crash after ack: the journal holds a submitted record
    // (and a started one — the worker had picked it up) with no terminal
    fs::create_dir_all(&dir).expect("mkdir");
    {
        let (mut journal, _) = Journal::open(
            Arc::new(RealFs),
            &dir.join("journal.log"),
            FsyncPolicy::Never,
        )
        .expect("journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 7,
                class: QosClass::Interactive,
                text: Arc::new(TINY.to_string()),
            })
            .expect("append");
        journal
            .append(&JournalRecord::Started { id: 7 })
            .expect("append");
    }

    let service = open(&dir);
    let status = service
        .wait(JobId(7), Duration::from_secs(120))
        .expect("recovered job exists under its original id");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert!(status.design.is_some());
    // new submissions allocate past the recovered id space
    let next = service.submit_text(TINY2).expect("admitted");
    assert_eq!(next, JobId(8));
    service.shutdown();
}

#[test]
fn batch_groups_recover_and_requeue_only_unfinished_members() {
    let dir = fresh_state_dir("batchgroup");
    // simulate a crash mid-batch: two unique members journaled under
    // one group (member 2 listed twice — a deduped duplicate), the
    // first member already completed (degraded: no cached design), the
    // second never started
    fs::create_dir_all(&dir).expect("mkdir");
    {
        let (mut journal, _) = Journal::open(
            Arc::new(RealFs),
            &dir.join("journal.log"),
            FsyncPolicy::Never,
        )
        .expect("journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 1,
                class: QosClass::Bulk,
                text: Arc::new(TINY.to_string()),
            })
            .expect("append");
        journal
            .append(&JournalRecord::Submitted {
                id: 2,
                class: QosClass::Bulk,
                text: Arc::new(TINY2.to_string()),
            })
            .expect("append");
        journal
            .append(&JournalRecord::Batch {
                id: 5,
                members: vec![1, 2, 2],
            })
            .expect("append");
        journal
            .append(&JournalRecord::Completed {
                id: 1,
                key: None,
                rung: "full MILP".into(),
            })
            .expect("append");
    }

    let service = open(&dir);
    // only the unfinished member re-runs; the completed one stays done
    let one = service.status(JobId(1)).expect("recovered terminal member");
    assert_eq!(one.state, JobState::Done, "completed member must not rerun");
    let group = service
        .wait_batch(BatchId(5), Duration::from_secs(120))
        .expect("batch group recovered under its original id");
    assert!(group.is_terminal(), "group converges after restart");
    let s = group.summary();
    assert_eq!(s.members, 3, "duplicate-expanded member list survives");
    assert_eq!(s.unique, 2);
    assert_eq!(s.done, 3, "all members done: {group:?}");
    let two = service.status(JobId(2)).expect("requeued member exists");
    assert_eq!(two.state, JobState::Done, "{:?}", two.error);
    assert!(
        !two.from_cache,
        "the unfinished member had no cached design — it must re-solve"
    );

    // id spaces advance past the recovered batch and jobs
    let (next_batch, jobs) = service
        .submit_batch(&[TINY.to_string()], columba_service::QosClass::Bulk)
        .expect("admitted");
    assert!(next_batch.0 > 5, "batch ids resume past recovery");
    assert!(jobs[0].0 > 2, "job ids resume past recovery");
    service.shutdown();
}

#[test]
fn terminal_states_survive_restart() {
    let dir = fresh_state_dir("terminal");
    let (done_id, failed_id) = {
        let service = open(&dir);
        let done = solve(&service, TINY).id;
        let failed = service
            .submit_text("chip broken\nport only\n")
            .expect("admitted");
        let status = service
            .wait(failed, Duration::from_secs(60))
            .expect("job known");
        assert_eq!(status.state, JobState::Failed);
        service.shutdown();
        (done, failed)
    };

    let service = open(&dir);
    let done = service.status(done_id).expect("done job recovered");
    assert_eq!(done.state, JobState::Done);
    assert!(
        done.design.is_some(),
        "recovered done job resolves its design from the disk cache"
    );
    let failed = service.status(failed_id).expect("failed job recovered");
    assert_eq!(failed.state, JobState::Failed);
    assert!(
        failed.error.is_some(),
        "recovered failure keeps its reason: {failed:?}"
    );
    service.shutdown();
}

#[test]
fn recovery_tolerates_arbitrary_state_corruption() {
    // seed one pristine state dir with real journal + cache content
    let pristine = fresh_state_dir("fuzz-pristine");
    {
        let service = open(&pristine);
        solve(&service, TINY);
        solve(&service, TINY2);
        // a batch group too, so the fuzz also mangles `batch` records
        // (member lists) and the compacted shapes they leave behind
        let (batch, _jobs) = service
            .submit_batch(&[TINY.to_string(), TINY2.to_string()], QosClass::Bulk)
            .expect("batch admitted");
        let group = service
            .wait_batch(batch, Duration::from_secs(120))
            .expect("batch known");
        assert!(group.is_terminal(), "batch converges before the fuzz");
        if let Ok(id) = service.submit_text("chip broken\nport only\n") {
            let _ = service.wait(id, Duration::from_secs(60));
        }
        service.shutdown();
    }

    let mut rng = Rng::seed_from_u64(0xC0_1B_A5);
    for round in 0..12 {
        let dir = fresh_state_dir("fuzz");
        copy_dir(&pristine, &dir);

        // corrupt one or two files per round: the journal, a cache file,
        // or both, each via truncation, a bit flip, or a garbage trailer
        let mut victims = vec![dir.join("journal.log")];
        let cache_files: Vec<PathBuf> = fs::read_dir(dir.join("cache"))
            .expect("cache dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        assert!(!cache_files.is_empty(), "seed run populated the cache");
        let pick = rng.gen_range(0..cache_files.len());
        victims.push(cache_files[pick].clone());
        if rng.gen_bool(0.5) {
            victims.pop();
        }
        for victim in &victims {
            let mut bytes = fs::read(victim).expect("victim readable");
            match rng.gen_range(0..3usize) {
                0 => {
                    // torn write: drop a random-length tail
                    let keep = rng.gen_range(0..bytes.len());
                    bytes.truncate(keep);
                }
                1 => {
                    // bit flip somewhere in the body
                    if !bytes.is_empty() {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] ^= 1u8 << rng.gen_range(0..8usize);
                    }
                }
                _ => {
                    // garbage trailer
                    let extra = rng.gen_range(1..64usize);
                    bytes.extend((0..extra).map(|_| (rng.next_u64() & 0xff) as u8));
                }
            }
            fs::write(victim, &bytes).expect("rewrite victim");
        }

        // opening must not panic, and the service must still function
        let service = open(&dir);
        let m = service.metrics();
        assert_eq!(
            m.persist_errors, 0,
            "round {round}: corruption is recovery's problem, not an I/O error"
        );
        let status = solve(&service, TINY);
        assert!(
            status.design.is_some(),
            "round {round}: service still solves"
        );
        service.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn churn_triggers_journal_compaction() {
    let dir = fresh_state_dir("compact");
    let service = open(&dir);
    // plenty of fast-failing jobs: each is submitted+started+failed, all
    // dead weight the compactor can drop
    let ids: Vec<JobId> = (0..80)
        .map(|i| {
            let text = format!("chip broken{i}\nport only\n");
            loop {
                match service.submit_text(&text) {
                    Ok(id) => break id,
                    Err(columba_service::SubmitError::QueueFull { .. }) => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
        })
        .collect();
    for id in ids {
        let status = service
            .wait(id, Duration::from_secs(60))
            .expect("job known");
        assert_eq!(status.state, JobState::Failed);
    }
    let m = service.metrics();
    assert!(
        m.compactions >= 1,
        "240 dead records must have crossed the compaction threshold"
    );
    service.shutdown();

    // the compacted journal replays clean
    let service = open(&dir);
    assert_eq!(service.metrics().journal_corrupt_skipped, 0);
    service.shutdown();
}

#[test]
fn compaction_runs_clean_over_a_corrupted_tail() {
    let dir = fresh_state_dir("compact-tail");
    fs::create_dir_all(&dir).expect("mkdir");
    {
        let (mut journal, _) = Journal::open(
            Arc::new(RealFs),
            &dir.join("journal.log"),
            FsyncPolicy::Never,
        )
        .expect("journal");
        // 30 dead submit+cancel pairs: compactable weight the rewrite
        // must carry over a torn frame without tripping on it
        for id in 0..30 {
            journal
                .append(&JournalRecord::Submitted {
                    id,
                    class: QosClass::Bulk,
                    text: Arc::new(format!("chip broken{id}\nport only\n")),
                })
                .expect("append");
            journal
                .append(&JournalRecord::Cancelled { id })
                .expect("append");
        }
    }
    // tear the last frame mid-payload — a torn write at the tail
    let path = dir.join("journal.log");
    let mut bytes = fs::read(&path).expect("journal readable");
    let torn = bytes.len() - 9;
    bytes.truncate(torn);
    fs::write(&path, &bytes).expect("rewrite");

    let service = open(&dir);
    let m = service.metrics();
    assert_eq!(
        m.journal_records_replayed, 59,
        "every frame before the tear replays"
    );
    assert!(
        m.journal_corrupt_skipped >= 1,
        "the torn tail is skipped, not fatal: {}",
        m.journal_corrupt_skipped
    );

    // churn enough dead records past the threshold to force a
    // compaction *on top of* the corrupted journal
    for i in 0..30 {
        let id = service
            .submit_text(format!("chip alsobroken{i}\nport only\n"))
            .expect("admitted");
        let status = service.wait(id, Duration::from_secs(60)).expect("known");
        assert_eq!(status.state, JobState::Failed);
    }
    let m = service.metrics();
    assert!(
        m.compactions >= 1,
        "dead records over a corrupted tail must still compact"
    );
    service.shutdown();

    // the rewrite dropped the torn frame: the journal now replays clean
    let service = open(&dir);
    assert_eq!(
        service.metrics().journal_corrupt_skipped,
        0,
        "compaction rewrote the corruption away"
    );
    service.shutdown();
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("mkdir");
    for entry in fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("entry");
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).expect("copy");
        }
    }
}
