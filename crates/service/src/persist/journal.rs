//! The write-ahead job journal.
//!
//! Every job lifecycle transition the service must not lose is appended
//! as one framed record:
//!
//! ```text
//! [magic "CJR1"] [len: u32 LE] [crc32(payload): u32 LE] [payload]
//! ```
//!
//! A `submitted` record (which carries the full netlist text) is written
//! and — under [`FsyncPolicy::Always`] — fsynced *before* the submission
//! is acknowledged, so an acked job survives any crash. `started`,
//! `completed`, `failed` and `cancelled` records follow as the job moves.
//!
//! Replay tolerates every corruption a crash or bad disk can leave:
//! a torn record at the tail, a truncated file, bit flips anywhere, and
//! garbage trailers. A record whose frame, checksum or payload does not
//! parse is counted and skipped, and scanning resynchronises on the next
//! magic marker — recovery never panics and never discards the good
//! records after a bad one. When replay finds corruption the journal is
//! rewritten with only the good records so new appends land on a clean
//! tail.
//!
//! Compaction: terminal records accumulate forever, so once the live
//! (submitted-but-not-terminal) set is a small fraction of the file the
//! journal is rewritten to just the live `submitted` records (atomically:
//! temp file + rename). Terminal job *history* is traded away — after a
//! compaction, a restart no longer reconstructs long-finished job
//! records — but the designs themselves live in the disk cache, which is
//! not touched.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::vfs::{Storage, StorageFile};
use super::{frame, read_frame, replace, FsyncPolicy};
use crate::hash::ContentKey;
use crate::job::QosClass;

/// File name of the journal inside the state directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Per-record frame marker; replay resynchronises on it after corruption.
const MAGIC: [u8; 4] = *b"CJR1";

/// Records older than this many appends trigger a compaction check.
const COMPACT_MIN_RECORDS: u64 = 64;
/// Compact when `live * FACTOR <= records` — the live set is a small
/// fraction of the file.
const COMPACT_LIVE_FACTOR: u64 = 4;

/// One durable job lifecycle transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// The job was admitted; carries the full netlist text so a crash
    /// before completion can re-enqueue it.
    Submitted {
        /// The job id.
        id: u64,
        /// The QoS class it was admitted under — recovery re-enqueues
        /// into the same queue. (Journals from before QoS classes decode
        /// as `Interactive`.)
        class: QosClass,
        /// The submitted netlist text, verbatim.
        text: Arc<String>,
    },
    /// A worker picked the job up (advisory; a started-but-not-completed
    /// job is still re-enqueued on recovery).
    Started {
        /// The job id.
        id: u64,
    },
    /// The job finished with a design. `key` is the content key its
    /// design was cached under, `None` when the result was degraded and
    /// therefore never cached.
    Completed {
        /// The job id.
        id: u64,
        /// Cache key of the design, when it was cached.
        key: Option<ContentKey>,
        /// The ladder rung that produced the design.
        rung: String,
    },
    /// The job failed; carries the error text.
    Failed {
        /// The job id.
        id: u64,
        /// The failure reason.
        error: String,
    },
    /// The job was cancelled.
    Cancelled {
        /// The job id.
        id: u64,
    },
    /// A batch group was admitted: the member jobs (each with its own
    /// `Submitted` record, appended *before* this one) belong to group
    /// `id`. Compaction rewrites the member list down to still-live
    /// members and drops the record once every member is terminal — like
    /// job history, finished group composition is traded away.
    Batch {
        /// The batch group id.
        id: u64,
        /// Member job ids, in submission order (duplicates collapsed to
        /// the job that represents them).
        members: Vec<u64>,
    },
    /// The persist circuit breaker re-closed after a degraded (volatile)
    /// period: journaling resumes here. `dropped` counts the journal
    /// writes skipped while the breaker was open. Live jobs admitted
    /// during the outage are re-journaled as fresh `Submitted` records
    /// immediately after this marker.
    Resync {
        /// Journal writes skipped while the breaker was open.
        dropped: u64,
    },
}

impl JournalRecord {
    /// The job (or batch group) the record belongs to.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            JournalRecord::Submitted { id, .. }
            | JournalRecord::Started { id }
            | JournalRecord::Completed { id, .. }
            | JournalRecord::Failed { id, .. }
            | JournalRecord::Cancelled { id }
            | JournalRecord::Batch { id, .. } => *id,
            JournalRecord::Resync { .. } => 0,
        }
    }

    /// Encodes the payload (the bytes the CRC covers).
    fn encode(&self) -> Vec<u8> {
        match self {
            JournalRecord::Submitted { id, class, text } => {
                let mut b = format!("submitted {id} {class}\n").into_bytes();
                b.extend_from_slice(text.as_bytes());
                b
            }
            JournalRecord::Started { id } => format!("started {id}").into_bytes(),
            JournalRecord::Completed { id, key, rung } => {
                let k =
                    key.map_or_else(|| "-".to_string(), |k| format!("{:016x} {:016x}", k.0, k.1));
                let mut b = format!("completed {id} {k}\n").into_bytes();
                b.extend_from_slice(rung.as_bytes());
                b
            }
            JournalRecord::Failed { id, error } => {
                let mut b = format!("failed {id}\n").into_bytes();
                b.extend_from_slice(error.as_bytes());
                b
            }
            JournalRecord::Cancelled { id } => format!("cancelled {id}").into_bytes(),
            JournalRecord::Batch { id, members } => {
                let mut b = format!("batch {id}\n").into_bytes();
                let mut first = true;
                for m in members {
                    if !first {
                        b.push(b' ');
                    }
                    first = false;
                    b.extend_from_slice(m.to_string().as_bytes());
                }
                b
            }
            JournalRecord::Resync { dropped } => format!("resync 0 {dropped}").into_bytes(),
        }
    }

    /// Decodes one payload; `None` for anything that does not parse
    /// (counted as corrupt by the caller, never a panic).
    fn decode(payload: &[u8]) -> Option<JournalRecord> {
        let text = std::str::from_utf8(payload).ok()?;
        let (head, rest) = match text.split_once('\n') {
            Some((h, r)) => (h, r),
            None => (text, ""),
        };
        let mut words = head.split(' ');
        let kind = words.next()?;
        let id: u64 = words.next()?.parse().ok()?;
        match kind {
            "submitted" => {
                // Journals written before QoS classes have no class word.
                let class = match words.next() {
                    None => QosClass::Interactive,
                    Some(w) => QosClass::parse(w)?,
                };
                Some(JournalRecord::Submitted {
                    id,
                    class,
                    text: Arc::new(rest.to_string()),
                })
            }
            "started" => Some(JournalRecord::Started { id }),
            "completed" => {
                let k0 = words.next()?;
                let key = if k0 == "-" {
                    None
                } else {
                    let k1 = words.next()?;
                    Some(ContentKey(
                        u64::from_str_radix(k0, 16).ok()?,
                        u64::from_str_radix(k1, 16).ok()?,
                    ))
                };
                Some(JournalRecord::Completed {
                    id,
                    key,
                    rung: rest.to_string(),
                })
            }
            "failed" => Some(JournalRecord::Failed {
                id,
                error: rest.to_string(),
            }),
            "cancelled" => Some(JournalRecord::Cancelled { id }),
            "batch" => {
                let mut members = Vec::new();
                for w in rest.split_whitespace() {
                    members.push(w.parse().ok()?);
                }
                Some(JournalRecord::Batch { id, members })
            }
            "resync" => Some(JournalRecord::Resync {
                dropped: words.next()?.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// The next occurrence of the magic marker at or after `from`.
fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().saturating_sub(3)).find(|&i| bytes[i..i + 4] == MAGIC)
}

/// What replaying a journal file recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every good record, in file order.
    pub records: Vec<JournalRecord>,
    /// Corrupt records counted and skipped (torn writes, bit flips,
    /// garbage trailers).
    pub corrupt: u64,
    /// One human-readable note per corruption, for tracing.
    pub notes: Vec<String>,
}

/// Scans raw journal bytes, skipping (and counting) corrupt records and
/// resynchronising on the magic marker.
fn scan(bytes: &[u8]) -> Replay {
    let mut replay = Replay::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match read_frame(bytes, pos, MAGIC) {
            Ok((payload, next)) => {
                match JournalRecord::decode(payload) {
                    Some(r) => replay.records.push(r),
                    None => {
                        replay.corrupt += 1;
                        replay
                            .notes
                            .push(format!("journal byte {pos}: undecodable record payload"));
                    }
                }
                pos = next;
            }
            Err(why) => {
                replay.corrupt += 1;
                replay.notes.push(format!("journal byte {pos}: {why}"));
                match find_magic(bytes, pos + 1) {
                    Some(p) => pos = p,
                    None => break,
                }
            }
        }
    }
    replay
}

/// An open, append-only journal. Not internally synchronized — the
/// service wraps it in a `Mutex`.
#[derive(Debug)]
pub struct Journal {
    storage: Arc<dyn Storage>,
    file: Box<dyn StorageFile>,
    path: PathBuf,
    fsync: FsyncPolicy,
    /// Records currently in the file (good records after open).
    records: u64,
    /// Submitted-but-not-terminal jobs, with the class and text a
    /// compaction needs to rewrite their `submitted` records.
    live: BTreeMap<u64, (QosClass, Arc<String>)>,
    /// Batch groups and their member lists; compaction drops a group once
    /// no member is live.
    batches: BTreeMap<u64, Vec<u64>>,
    compactions: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` on `storage` and
    /// replays it.
    ///
    /// A journal with corruption is rewritten in place to just its good
    /// records, so subsequent appends land on a clean tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening, reading or repairing the file —
    /// corrupt *contents* are never an error, only counted in the
    /// returned [`Replay`].
    pub fn open(
        storage: Arc<dyn Storage>,
        path: &Path,
        fsync: FsyncPolicy,
    ) -> io::Result<(Journal, Replay)> {
        let bytes = match storage.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let replay = scan(&bytes);
        let mut live = BTreeMap::new();
        let mut batches = BTreeMap::new();
        for r in &replay.records {
            track(&mut live, &mut batches, r);
        }
        let mut journal = Journal {
            file: storage.open_append(path)?,
            storage,
            path: path.to_path_buf(),
            fsync,
            records: replay.records.len() as u64,
            live,
            batches,
            compactions: 0,
        };
        if replay.corrupt > 0 {
            journal.rewrite(&replay.records)?;
        }
        Ok((journal, replay))
    }

    /// Appends one record and — under [`FsyncPolicy::Always`] — fsyncs it
    /// before returning, so a returned `Ok` means the record is durable.
    /// Returns whether the append triggered a compaction.
    ///
    /// # Errors
    ///
    /// The write or fsync failed; the record must be treated as not
    /// durable (a torn prefix may or may not be in the file — replay
    /// skips it either way).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<bool> {
        let framed = frame(MAGIC, &record.encode());
        self.write_all_synced(&framed)?;
        track(&mut self.live, &mut self.batches, record);
        self.records += 1;
        self.maybe_compact()
    }

    fn write_all_synced(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync()?;
        }
        Ok(())
    }

    /// Compacts once the live set is a small fraction of the file.
    /// Returns whether a compaction ran.
    fn maybe_compact(&mut self) -> io::Result<bool> {
        if self.records < COMPACT_MIN_RECORDS
            || self.live.len() as u64 * COMPACT_LIVE_FACTOR > self.records
        {
            return Ok(false);
        }
        let mut survivors: Vec<JournalRecord> = self
            .live
            .iter()
            .map(|(&id, (class, text))| JournalRecord::Submitted {
                id,
                class: *class,
                text: Arc::clone(text),
            })
            .collect();
        // Keep batch groups that still have a live member, trimmed to
        // those members so every surviving member id resolves to a
        // surviving `submitted` record on replay.
        self.batches.retain(|_, members| {
            members.retain(|m| self.live.contains_key(m));
            !members.is_empty()
        });
        survivors.extend(
            self.batches
                .iter()
                .map(|(&id, members)| JournalRecord::Batch {
                    id,
                    members: members.clone(),
                }),
        );
        self.rewrite(&survivors)?;
        self.compactions += 1;
        Ok(true)
    }

    /// Atomically replaces the journal with exactly `records` (see
    /// [`replace`]); the new file's handle becomes the append handle.
    fn rewrite(&mut self, records: &[JournalRecord]) -> io::Result<()> {
        let bytes: Vec<u8> = records
            .iter()
            .flat_map(|r| frame(MAGIC, &r.encode()))
            .collect();
        let tmp = self.path.with_extension("log.tmp");
        self.file = replace(self.storage.as_ref(), &tmp, &self.path, &bytes, self.fsync)?;
        self.records = records.len() as u64;
        Ok(())
    }

    /// How many compactions this journal has run since open.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Records currently in the file.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Submitted-but-not-terminal jobs currently tracked.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }
}

/// Folds one record into the live (submitted-but-not-terminal) set and
/// the batch-membership map.
fn track(
    live: &mut BTreeMap<u64, (QosClass, Arc<String>)>,
    batches: &mut BTreeMap<u64, Vec<u64>>,
    record: &JournalRecord,
) {
    match record {
        JournalRecord::Submitted { id, class, text } => {
            live.insert(*id, (*class, Arc::clone(text)));
        }
        JournalRecord::Started { .. } => {}
        JournalRecord::Completed { id, .. }
        | JournalRecord::Failed { id, .. }
        | JournalRecord::Cancelled { id } => {
            live.remove(id);
        }
        JournalRecord::Batch { id, members } => {
            batches.insert(*id, members.clone());
        }
        // a resync marker carries no job state; it only documents the
        // degraded window in the file
        JournalRecord::Resync { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::RealFs;
    use std::fs;

    fn open(path: &Path, fsync: FsyncPolicy) -> (Journal, Replay) {
        Journal::open(Arc::new(RealFs), path, fsync).expect("open journal")
    }

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("columba-journal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(JOURNAL_FILE)
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                id: 1,
                class: QosClass::Interactive,
                text: Arc::new("chip a\nmixer m1\n".into()),
            },
            JournalRecord::Started { id: 1 },
            JournalRecord::Completed {
                id: 1,
                key: Some(ContentKey(0xdead_beef, 0x0123_4567_89ab_cdef)),
                rung: "full MILP".into(),
            },
            JournalRecord::Submitted {
                id: 2,
                class: QosClass::Bulk,
                text: Arc::new("chip b\n".into()),
            },
            JournalRecord::Failed {
                id: 2,
                error: "netlist error: line 1\nbad".into(),
            },
            JournalRecord::Submitted {
                id: 3,
                class: QosClass::Interactive,
                text: Arc::new("chip c\n".into()),
            },
            JournalRecord::Cancelled { id: 3 },
            JournalRecord::Completed {
                id: 4,
                key: None,
                rung: "constructive only".into(),
            },
            JournalRecord::Batch {
                id: 1,
                members: vec![1, 2, 3],
            },
            JournalRecord::Resync { dropped: 17 },
        ]
    }

    #[test]
    fn round_trip_all_record_kinds() {
        let path = tmp_journal("roundtrip");
        {
            let (mut j, replay) = open(&path, FsyncPolicy::Always);
            assert!(replay.records.is_empty());
            for r in sample_records() {
                j.append(&r).expect("append");
            }
        }
        let (j, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.corrupt, 0);
        assert_eq!(j.live_count(), 0, "all sample jobs reached terminal state");
    }

    #[test]
    fn torn_tail_is_skipped_earlier_records_survive() {
        let path = tmp_journal("torn");
        {
            let (mut j, _) = open(&path, FsyncPolicy::Never);
            for r in sample_records() {
                j.append(&r).expect("append");
            }
        }
        // tear the last record mid-payload
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 1, "{:?}", replay.notes);
        assert_eq!(replay.records.len(), sample_records().len() - 1);
    }

    #[test]
    fn bit_flip_mid_file_resyncs_on_the_next_record() {
        let path = tmp_journal("flip");
        {
            let (mut j, _) = open(&path, FsyncPolicy::Never);
            for r in sample_records() {
                j.append(&r).expect("append");
            }
        }
        let mut bytes = fs::read(&path).expect("read");
        // flip one byte inside the *first* record's payload (offset 14 is
        // past the 12-byte frame header)
        bytes[14] ^= 0x40;
        fs::write(&path, &bytes).expect("write");
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 1, "{:?}", replay.notes);
        assert_eq!(
            replay.records,
            sample_records()[1..].to_vec(),
            "every record after the flipped one must survive"
        );
    }

    #[test]
    fn garbage_trailer_is_counted_not_fatal() {
        let path = tmp_journal("garbage");
        {
            let (mut j, _) = open(&path, FsyncPolicy::Never);
            for r in sample_records() {
                j.append(&r).expect("append");
            }
        }
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(b"\x00\xff this is not a journal record \xfe");
        fs::write(&path, &bytes).expect("write");
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert!(replay.corrupt >= 1);
        assert_eq!(replay.records, sample_records());
    }

    #[test]
    fn corrupt_open_repairs_the_file() {
        let path = tmp_journal("repair");
        {
            let (mut j, _) = open(&path, FsyncPolicy::Never);
            for r in sample_records() {
                j.append(&r).expect("append");
            }
        }
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        {
            let (_, replay) = open(&path, FsyncPolicy::Always);
            assert_eq!(replay.corrupt, 1);
        }
        // the repaired file replays clean
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.records.len(), sample_records().len() - 1);
    }

    #[test]
    fn compaction_keeps_live_jobs_and_shrinks_the_file() {
        let path = tmp_journal("compact");
        let (mut j, _) = open(&path, FsyncPolicy::Never);
        // one job that stays live the whole time
        j.append(&JournalRecord::Submitted {
            id: 1,
            class: QosClass::Bulk,
            text: Arc::new("chip live\n".into()),
        })
        .expect("append");
        // plenty of short-lived jobs: submitted + failed
        for id in 2..200u64 {
            j.append(&JournalRecord::Submitted {
                id,
                class: QosClass::Interactive,
                text: Arc::new(format!("chip dead{id}\n")),
            })
            .expect("append");
            j.append(&JournalRecord::Failed {
                id,
                error: "nope".into(),
            })
            .expect("append");
        }
        assert!(j.compactions() >= 1, "compaction must have triggered");
        // 397 records were appended; compaction keeps the on-disk count
        // bounded by the trigger threshold, not the append history
        assert!(
            j.record_count() < COMPACT_MIN_RECORDS + 8,
            "journal record count stays bounded, has {}",
            j.record_count()
        );
        assert_eq!(j.live_count(), 1, "only job 1 is still live");
        drop(j);
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 0);
        let lives: Vec<u64> = replay
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Submitted { .. }))
            .map(JournalRecord::id)
            .collect();
        assert!(lives.contains(&1), "live job survives compaction");
    }

    #[test]
    fn appends_after_compaction_land_on_the_new_file() {
        let path = tmp_journal("append-after-compact");
        let (mut j, _) = open(&path, FsyncPolicy::Never);
        for id in 1..100u64 {
            j.append(&JournalRecord::Submitted {
                id,
                class: QosClass::Interactive,
                text: Arc::new("chip x\n".into()),
            })
            .expect("append");
            j.append(&JournalRecord::Cancelled { id }).expect("append");
        }
        assert!(j.compactions() >= 1);
        j.append(&JournalRecord::Submitted {
            id: 500,
            class: QosClass::Interactive,
            text: Arc::new("chip after\n".into()),
        })
        .expect("append after compaction");
        drop(j);
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 0);
        assert!(replay.records.iter().any(|r| r.id() == 500));
    }

    #[test]
    fn pre_qos_submitted_record_decodes_as_interactive() {
        // a journal written before QoS classes: head has no class word
        let path = tmp_journal("legacy");
        let payload = b"submitted 7\nchip legacy\nmixer m1\n";
        fs::write(&path, frame(MAGIC, payload)).expect("write legacy journal");
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 0, "{:?}", replay.notes);
        assert_eq!(
            replay.records,
            vec![JournalRecord::Submitted {
                id: 7,
                class: QosClass::Interactive,
                text: Arc::new("chip legacy\nmixer m1\n".into()),
            }]
        );
    }

    #[test]
    fn compaction_trims_batches_to_live_members() {
        let path = tmp_journal("batch-compact");
        let (mut j, _) = open(&path, FsyncPolicy::Never);
        // batch 1: members 1 (stays live) and 2 (finishes)
        for id in [1u64, 2] {
            j.append(&JournalRecord::Submitted {
                id,
                class: QosClass::Bulk,
                text: Arc::new(format!("chip b{id}\n")),
            })
            .expect("append");
        }
        j.append(&JournalRecord::Batch {
            id: 1,
            members: vec![1, 2],
        })
        .expect("append");
        j.append(&JournalRecord::Completed {
            id: 2,
            key: None,
            rung: "full MILP".into(),
        })
        .expect("append");
        // batch 2: every member finishes — the whole group is dropped
        for id in [3u64, 4] {
            j.append(&JournalRecord::Submitted {
                id,
                class: QosClass::Bulk,
                text: Arc::new(format!("chip c{id}\n")),
            })
            .expect("append");
        }
        j.append(&JournalRecord::Batch {
            id: 2,
            members: vec![3, 4],
        })
        .expect("append");
        // finish batch 2's members so the group has no live member left
        j.append(&JournalRecord::Cancelled { id: 3 })
            .expect("append");
        j.append(&JournalRecord::Cancelled { id: 4 })
            .expect("append");
        // churn short-lived jobs until a compaction fires
        let mut id = 100u64;
        while j.compactions() == 0 {
            j.append(&JournalRecord::Submitted {
                id,
                class: QosClass::Interactive,
                text: Arc::new("chip churn\n".into()),
            })
            .expect("append");
            j.append(&JournalRecord::Cancelled { id }).expect("append");
            id += 1;
            assert!(id < 10_000, "compaction never triggered");
        }
        drop(j);
        let (_, replay) = open(&path, FsyncPolicy::Never);
        assert_eq!(replay.corrupt, 0);
        let batches: Vec<&JournalRecord> = replay
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Batch { .. }))
            .collect();
        assert_eq!(
            batches,
            vec![&JournalRecord::Batch {
                id: 1,
                members: vec![1],
            }],
            "batch 1 survives trimmed to its live member; batch 2 is gone"
        );
        // and every surviving batch member has a submitted record
        assert!(replay
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Submitted { id: 1, .. })));
    }
}
