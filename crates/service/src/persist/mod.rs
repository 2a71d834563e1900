//! Durability for the synthesis service: a write-ahead job journal, a
//! checksummed disk-backed design cache, and the crash-recovery path that
//! replays both on startup.
//!
//! Everything lives under one *state directory*:
//!
//! ```text
//! <state_dir>/
//!   journal.log           write-ahead job journal (framed, CRC32)
//!   cache/
//!     <key-hex>.design    one checksummed file per cached design
//! ```
//!
//! The contract, in order of importance:
//!
//! 1. **Acked means durable.** A submission is journaled (and, under
//!    [`FsyncPolicy::Always`], fsynced) *before* the service acknowledges
//!    it, so a crash at any later point re-enqueues the job on restart.
//! 2. **Recovery never panics.** Torn writes, truncation, bit flips, and
//!    garbage trailers are counted, traced, and skipped — both in the
//!    journal (which resynchronises on a magic marker) and in the cache
//!    (where a corrupt file is dropped and deleted).
//! 3. **Artifacts are exact.** A recovered cache entry serves the same
//!    bytes the original solve rendered; checksums and a stored canonical
//!    record guarantee it.
//!
//! Persistence is opt-in: a service built without a [`PersistConfig`]
//! behaves exactly as before, entirely in memory.

pub mod crc;
pub mod diskcache;
pub mod heal;
pub mod journal;
pub mod vfs;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::CompletedDesign;
use crate::hash::ContentKey;

pub use diskcache::{load_all, store, CacheLoad, StoredDesign, CACHE_DIR};
pub use heal::{BreakerConfig, BreakerState, PersistSupervisor, WriteOutcome};
pub use journal::{Journal, JournalRecord, Replay, JOURNAL_FILE};
pub use vfs::{CrashMode, RealFs, SimFault, SimFs, Storage, StorageFile};

/// When the persist layer calls fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync every journal append before acking and every design file
    /// before renaming it into place. The durable default.
    #[default]
    Always,
    /// Never fsync; writes still go through the page cache in order.
    /// Survives process crashes (SIGKILL) but not power loss. Useful for
    /// tests and throwaway deployments.
    Never,
}

/// Where and how the service persists its state.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the journal and the design cache. Created
    /// (recursively) if absent.
    pub state_dir: PathBuf,
    /// Fsync discipline for journal appends and cache-file writes.
    pub fsync_policy: FsyncPolicy,
}

impl PersistConfig {
    /// A durable configuration rooted at `state_dir` with the default
    /// (always-fsync) policy.
    #[must_use]
    pub fn at(state_dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            state_dir: state_dir.into(),
            fsync_policy: FsyncPolicy::default(),
        }
    }
}

/// Everything startup recovery found, handed to the service to apply
/// (re-enqueue live jobs, reconstruct terminal records, warm the cache)
/// and to trace.
#[derive(Debug)]
pub struct Recovery {
    /// The journal replay: good records in order, plus corruption counts.
    pub replay: Replay,
    /// The cache load: verified designs, plus corruption counts.
    pub cache: CacheLoad,
}

/// The open persist layer: journal handle, cache directory, and the
/// fixed post-recovery counters `/metrics` reports.
#[derive(Debug)]
pub struct Persist {
    storage: Arc<dyn Storage>,
    journal: Mutex<Journal>,
    cache_dir: PathBuf,
    fsync: FsyncPolicy,
    /// Journal records replayed at startup.
    pub journal_records_replayed: u64,
    /// Corrupt journal records skipped at startup.
    pub journal_corrupt_skipped: u64,
    /// Cache files that verified clean at startup.
    pub cache_files_loaded: u64,
    /// Corrupt cache files dropped at startup.
    pub cache_corrupt_dropped: u64,
    /// Persist-layer write failures since startup (journal appends or
    /// design stores that returned an error).
    pub errors: AtomicU64,
}

impl Persist {
    /// Opens the state directory (creating it and its cache subdirectory
    /// if absent), replays the journal, and loads the disk cache.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating directories or opening the journal
    /// file. Corrupt *contents* are never an error — they are counted in
    /// the returned [`Recovery`].
    pub fn open(config: &PersistConfig) -> io::Result<(Persist, Recovery)> {
        Persist::open_on(Arc::new(RealFs), config)
    }

    /// [`Persist::open`] over any [`Storage`] backend — the entry point
    /// the crash-point simulation uses with a [`SimFs`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating directories or opening the journal.
    pub fn open_on(
        storage: Arc<dyn Storage>,
        config: &PersistConfig,
    ) -> io::Result<(Persist, Recovery)> {
        storage.create_dir_all(&config.state_dir)?;
        let cache_dir = config.state_dir.join(CACHE_DIR);
        storage.create_dir_all(&cache_dir)?;
        let journal_path = config.state_dir.join(JOURNAL_FILE);
        let (journal, replay) =
            Journal::open_on(Arc::clone(&storage), &journal_path, config.fsync_policy)?;
        let cache = diskcache::load_all_on(storage.as_ref(), &cache_dir)?;
        let persist = Persist {
            storage,
            journal: Mutex::new(journal),
            cache_dir,
            fsync: config.fsync_policy,
            journal_records_replayed: replay.records.len() as u64,
            journal_corrupt_skipped: replay.corrupt,
            cache_files_loaded: cache.designs.len() as u64,
            cache_corrupt_dropped: cache.dropped,
            errors: AtomicU64::new(0),
        };
        Ok((persist, Recovery { replay, cache }))
    }

    /// Appends one journal record durably (per the fsync policy),
    /// returning whether the append triggered a compaction. On failure
    /// the error counter is bumped and the caller decides whether the
    /// operation is fatal (submissions: yes; progress records: no).
    ///
    /// # Errors
    ///
    /// The record could not be made durable.
    pub fn append(&self, record: &JournalRecord) -> io::Result<bool> {
        let result = lock(&self.journal).append(record);
        if result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Writes the design file for `key` atomically.
    ///
    /// # Errors
    ///
    /// The file could not be written; the cache directory is unchanged.
    pub fn store_design(
        &self,
        key: ContentKey,
        canon: &str,
        design: &CompletedDesign,
    ) -> io::Result<()> {
        let result = diskcache::store_on(
            self.storage.as_ref(),
            &self.cache_dir,
            key,
            canon,
            design,
            self.fsync,
        );
        if result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Journal compactions run since open.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        lock(&self.journal).compactions()
    }

    /// Persist-layer write failures since open.
    #[must_use]
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// Locks a mutex, recovering from poison: persist state is a journal
/// handle and counters, all valid at every instruction boundary.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DesignSummary;
    use std::fs;
    use std::time::Duration;

    fn tmp_state(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("columba-persist-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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

    #[test]
    fn open_creates_layout_and_round_trips_state() {
        let state = tmp_state("layout");
        let config = PersistConfig::at(&state);
        {
            let (persist, recovery) = Persist::open(&config).expect("open");
            assert_eq!(recovery.replay.records.len(), 0);
            assert_eq!(recovery.cache.designs.len(), 0);
            persist
                .append(&JournalRecord::Submitted {
                    id: 1,
                    class: crate::job::QosClass::Interactive,
                    text: Arc::new("chip t\n".into()),
                })
                .expect("append");
            persist
                .store_design(ContentKey(7, 7), "canon", &sample_design())
                .expect("store");
        }
        assert!(state.join(JOURNAL_FILE).is_file());
        assert!(state.join(CACHE_DIR).is_dir());
        let (persist, recovery) = Persist::open(&config).expect("reopen");
        assert_eq!(persist.journal_records_replayed, 1);
        assert_eq!(persist.journal_corrupt_skipped, 0);
        assert_eq!(persist.cache_files_loaded, 1);
        assert_eq!(persist.cache_corrupt_dropped, 0);
        assert_eq!(recovery.replay.records.len(), 1);
        assert_eq!(recovery.cache.designs[0].key, ContentKey(7, 7));
    }

    #[test]
    fn state_dir_that_is_a_file_is_an_error_not_a_panic() {
        let state = tmp_state("clash");
        fs::create_dir_all(state.parent().expect("parent")).expect("mkdir");
        fs::write(&state, b"in the way").expect("write");
        assert!(Persist::open(&PersistConfig::at(&state)).is_err());
        let _ = fs::remove_file(&state);
    }
}
