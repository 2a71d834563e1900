//! The storage abstraction the persist layer runs on.
//!
//! Everything the journal and the disk cache do to stable storage goes
//! through the [`Storage`] trait: create/append/read/rename/remove a
//! file, list a directory, fsync a file or a directory. Two
//! implementations:
//!
//! * [`RealFs`] — thin wrappers over `std::fs`; what production runs on.
//! * [`SimFs`] — a deterministic in-memory filesystem for tests. It
//!   models the page cache (written-but-unsynced bytes live in a
//!   *pending* buffer per file; only fsync moves them to the durable
//!   image), injects scheduled faults (EIO / ENOSPC / short write at an
//!   arbitrary operation index), and can **crash**: power loss drops (or
//!   tears) every unsynced byte and every unsynced directory entry, and
//!   recovery then runs on exactly what a real disk would have kept.
//!
//! The crash model is ext4-like `data=ordered`: fsyncing a file also
//! makes its directory entries findable (so the common
//! create-write-fsync sequence is durable without a separate directory
//! fsync), while renames and removals of *other* entries stay volatile
//! until their parent directory is synced. Directory creation is treated
//! as immediately durable — recovery recreates missing directories
//! anyway, so modeling that window would only test `create_dir_all`.
//!
//! Crash-point *enumeration* builds on the operation counter: every
//! mutating storage operation gets a global index, [`SimFs::crash_after`]
//! makes every operation at or past an index fail like the power went
//! out, and [`SimFs::crash`] then collapses the tree to its durable
//! image. Running a pinned workload once per index visits every possible
//! power-cut point.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An open handle to one storage file.
pub trait StorageFile: Send + fmt::Debug {
    /// Writes all of `buf` at the current position (append semantics for
    /// handles opened with [`Storage::open_append`]).
    ///
    /// # Errors
    ///
    /// The write failed; a prefix may or may not have landed.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes the file's written bytes to durable storage.
    ///
    /// # Errors
    ///
    /// The fsync failed; written bytes must be treated as volatile.
    fn sync(&mut self) -> io::Result<()>;
}

/// What the persist layer needs from a filesystem.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Creates (or truncates) the file at `path` for writing.
    ///
    /// # Errors
    ///
    /// The file could not be created.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Opens (creating if absent) the file at `path` for appending.
    ///
    /// # Errors
    ///
    /// The file could not be opened.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Reads the full contents of the file at `path`.
    ///
    /// # Errors
    ///
    /// The file is missing or unreadable.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Lists the *files* directly under `path`, in unspecified order.
    ///
    /// # Errors
    ///
    /// The directory is unreadable; a missing directory is
    /// `ErrorKind::NotFound`.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Atomically renames `from` to `to` (same directory in practice).
    ///
    /// # Errors
    ///
    /// The rename failed; `from` and `to` are unchanged.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// The file is missing or undeletable.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates `path` and every missing ancestor as directories.
    ///
    /// # Errors
    ///
    /// A component exists and is not a directory, or creation failed.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Best-effort fsync of the directory at `path`, making renames and
    /// removals inside it durable. Failures are swallowed: some
    /// filesystems refuse directory fsync.
    fn sync_dir(&self, path: &Path);
}

// ---------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------

/// Production storage: `std::fs` passthrough.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

#[derive(Debug)]
struct RealFile(fs::File);

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Storage for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(fs::read_dir(path)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) {
        if let Ok(dir) = fs::File::open(path) {
            let _ = dir.sync_all();
        }
    }
}

// ---------------------------------------------------------------------
// SimFs
// ---------------------------------------------------------------------

/// A scheduled fault for one simulated storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFault {
    /// The operation fails with a generic I/O error; nothing changes.
    IoError,
    /// The operation fails with `ENOSPC`; nothing changes.
    Enospc,
    /// A write lands only half its bytes before failing (other
    /// operations degrade to a plain I/O error).
    ShortWrite,
}

/// What happens to unsynced bytes when the power goes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Every unsynced byte vanishes — the page cache never reached disk.
    DropUnsynced,
    /// Half of each file's unsynced bytes land — a torn tail, the write
    /// was in flight when the power cut.
    TornUnsynced,
}

#[derive(Debug, Default)]
struct SimNode {
    /// Bytes that survived an fsync (or were present at the last crash).
    durable: Vec<u8>,
    /// Written-but-unsynced bytes: the page cache.
    pending: Vec<u8>,
}

#[derive(Debug, Default)]
struct SimState {
    nodes: HashMap<u64, SimNode>,
    next_node: u64,
    /// What the OS shows right now: path → node.
    tree: BTreeMap<PathBuf, u64>,
    /// What survives a crash: path → node.
    durable_tree: BTreeMap<PathBuf, u64>,
    dirs: BTreeSet<PathBuf>,
    /// Mutating operations performed so far (the crash/fault index).
    ops: u64,
    /// Every mutating operation with index `>= crash_after` fails as if
    /// the power went out.
    crash_after: Option<u64>,
    faults: HashMap<u64, SimFault>,
    /// Bumped at every crash; stale handles fail their operations.
    generation: u64,
}

impl SimState {
    /// Counts one mutating operation and returns the fault scheduled for
    /// it, if any. Operations at or past the crash point fail outright.
    fn step(&mut self) -> io::Result<Option<SimFault>> {
        let index = self.ops;
        self.ops += 1;
        if self.crash_after.is_some_and(|at| index >= at) {
            return Err(io::Error::other("simulated power loss"));
        }
        Ok(self.faults.get(&index).copied())
    }

    fn fail(fault: SimFault) -> io::Error {
        match fault {
            SimFault::Enospc => io::Error::new(io::ErrorKind::StorageFull, "simulated ENOSPC"),
            _ => io::Error::other("simulated I/O error"),
        }
    }

    fn dir_exists(&self, path: &Path) -> bool {
        self.dirs.contains(path)
    }

    fn parent_dir_ok(&self, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(parent) if parent.as_os_str().is_empty() || self.dir_exists(parent) => Ok(()),
            Some(_) => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated parent directory missing",
            )),
            None => Ok(()),
        }
    }
}

/// The deterministic in-memory filesystem. Cloning shares the tree, so a
/// test can keep a handle while the persist layer owns another.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
}

#[derive(Debug)]
struct SimFile {
    state: Arc<Mutex<SimState>>,
    node: u64,
    generation: u64,
}

fn lock(state: &Arc<Mutex<SimState>>) -> MutexGuard<'_, SimState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SimFs {
    /// An empty filesystem.
    #[must_use]
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// Mutating operations performed so far — the exclusive upper bound
    /// for crash-point enumeration.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        lock(&self.state).ops
    }

    /// Makes every mutating operation with index `>= at` fail as if the
    /// power went out. Pair with [`SimFs::crash`] to collapse the tree.
    pub fn crash_after(&self, at: u64) {
        lock(&self.state).crash_after = Some(at);
    }

    /// Schedules `fault` for the single mutating operation at `index`.
    pub fn schedule_fault(&self, index: u64, fault: SimFault) {
        lock(&self.state).faults.insert(index, fault);
    }

    /// Drops every scheduled fault that has not fired yet: the disk is
    /// healthy again.
    pub fn clear_faults(&self) {
        lock(&self.state).faults.clear();
    }

    /// Simulates power loss: unsynced bytes are dropped (or torn per
    /// `mode`), unsynced directory entries revert, open handles go
    /// stale, and the op counter, crash point, and fault schedule reset
    /// — the filesystem is ready for recovery to run on it.
    pub fn crash(&self, mode: CrashMode) {
        let mut st = lock(&self.state);
        for node in st.nodes.values_mut() {
            match mode {
                CrashMode::DropUnsynced => node.pending.clear(),
                CrashMode::TornUnsynced => {
                    let keep = node.pending.len() / 2;
                    node.pending.truncate(keep);
                    let torn = std::mem::take(&mut node.pending);
                    node.durable.extend_from_slice(&torn);
                }
            }
        }
        st.tree = st.durable_tree.clone();
        st.ops = 0;
        st.crash_after = None;
        st.faults.clear();
        st.generation += 1;
    }

    /// Copies the current (visible) tree into a real directory, so a
    /// full `Service::open` can recover from a simulated crash state.
    ///
    /// # Errors
    ///
    /// Real-filesystem I/O failed.
    pub fn materialize(&self, dest: &Path) -> io::Result<()> {
        let st = lock(&self.state);
        fs::create_dir_all(dest)?;
        for dir in &st.dirs {
            fs::create_dir_all(dest.join(dir))?;
        }
        for (path, node) in &st.tree {
            let n = &st.nodes[node];
            let mut bytes = n.durable.clone();
            bytes.extend_from_slice(&n.pending);
            if let Some(parent) = dest.join(path).parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(dest.join(path), bytes)?;
        }
        Ok(())
    }

    /// The visible contents of `path` (durable + unsynced), for
    /// assertions; `None` when the file does not exist.
    #[must_use]
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        let st = lock(&self.state);
        let node = *st.tree.get(path)?;
        let n = &st.nodes[&node];
        let mut bytes = n.durable.clone();
        bytes.extend_from_slice(&n.pending);
        Some(bytes)
    }

    fn new_node(st: &mut SimState) -> u64 {
        let id = st.next_node;
        st.next_node += 1;
        st.nodes.insert(id, SimNode::default());
        id
    }
}

impl StorageFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = lock(&self.state);
        if st.generation != self.generation {
            return Err(io::Error::other("stale handle after simulated crash"));
        }
        let fault = st.step()?;
        match fault {
            Some(SimFault::ShortWrite) => {
                let half = &buf[..buf.len() / 2];
                let node = self.node;
                if let Some(n) = st.nodes.get_mut(&node) {
                    n.pending.extend_from_slice(half);
                }
                Err(io::Error::other("simulated short write"))
            }
            Some(f) => Err(SimState::fail(f)),
            None => {
                let node = self.node;
                if let Some(n) = st.nodes.get_mut(&node) {
                    n.pending.extend_from_slice(buf);
                }
                Ok(())
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = lock(&self.state);
        if st.generation != self.generation {
            return Err(io::Error::other("stale handle after simulated crash"));
        }
        if let Some(f) = st.step()? {
            return Err(SimState::fail(f));
        }
        let node = self.node;
        if let Some(n) = st.nodes.get_mut(&node) {
            let pending = std::mem::take(&mut n.pending);
            n.durable.extend_from_slice(&pending);
        }
        // fsyncing a file also makes its directory entries findable
        // (ext4-ordered-like); see the module docs.
        let durable: Vec<PathBuf> = st
            .tree
            .iter()
            .filter(|&(_, &n)| n == node)
            .map(|(p, _)| p.clone())
            .collect();
        for path in durable {
            st.durable_tree.insert(path, node);
        }
        Ok(())
    }
}

impl Storage for SimFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut st = lock(&self.state);
        st.step()?.map_or(Ok(()), |f| Err(SimState::fail(f)))?;
        st.parent_dir_ok(path)?;
        let node = SimFs::new_node(&mut st);
        st.tree.insert(path.to_path_buf(), node);
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            node,
            generation: st.generation,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut st = lock(&self.state);
        st.step()?.map_or(Ok(()), |f| Err(SimState::fail(f)))?;
        st.parent_dir_ok(path)?;
        let node = match st.tree.get(path) {
            Some(&n) => n,
            None => {
                let n = SimFs::new_node(&mut st);
                st.tree.insert(path.to_path_buf(), n);
                n
            }
        };
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            node,
            generation: st.generation,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = lock(&self.state);
        let Some(node) = st.tree.get(path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated file not found",
            ));
        };
        let n = &st.nodes[node];
        let mut bytes = n.durable.clone();
        bytes.extend_from_slice(&n.pending);
        Ok(bytes)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let st = lock(&self.state);
        if !st.dir_exists(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated directory not found",
            ));
        }
        Ok(st
            .tree
            .keys()
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?.map_or(Ok(()), |f| Err(SimState::fail(f)))?;
        let Some(node) = st.tree.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated rename source missing",
            ));
        };
        st.tree.insert(to.to_path_buf(), node);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?.map_or(Ok(()), |f| Err(SimState::fail(f)))?;
        if st.tree.remove(path).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "simulated file not found",
            ));
        }
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?.map_or(Ok(()), |f| Err(SimState::fail(f)))?;
        if st.tree.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "simulated path exists and is a file",
            ));
        }
        let mut ancestors: Vec<PathBuf> = Vec::new();
        let mut cur = Some(path);
        while let Some(p) = cur {
            if !p.as_os_str().is_empty() {
                if st.tree.contains_key(p) {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "simulated ancestor is a file",
                    ));
                }
                ancestors.push(p.to_path_buf());
            }
            cur = p.parent();
        }
        for dir in ancestors {
            st.dirs.insert(dir);
        }
        Ok(())
    }

    fn sync_dir(&self, path: &Path) {
        let mut st = lock(&self.state);
        if st.step().is_err() {
            return; // best-effort, matching RealFs
        }
        let in_dir = |p: &Path| p.parent() == Some(path);
        let current: Vec<(PathBuf, u64)> = st
            .tree
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, &n)| (p.clone(), n))
            .collect();
        st.durable_tree.retain(|p, _| !in_dir(p));
        for (p, n) in current {
            st.durable_tree.insert(p, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_sync_crash_keeps_synced_bytes_only() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("state")).expect("mkdir");
        let mut f = sim.open_append(&p("state/j")).expect("open");
        f.write_all(b"durable").expect("write");
        f.sync().expect("sync");
        f.write_all(b"volatile").expect("write");
        sim.crash(CrashMode::DropUnsynced);
        assert_eq!(sim.read(&p("state/j")).expect("read"), b"durable");
        assert!(
            f.write_all(b"x").is_err(),
            "handles from before the crash are stale"
        );
    }

    #[test]
    fn torn_crash_keeps_half_the_unsynced_tail() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir");
        let mut f = sim.open_append(&p("s/j")).expect("open");
        f.write_all(b"ok").expect("write");
        f.sync().expect("sync");
        f.write_all(b"12345678").expect("write");
        sim.crash(CrashMode::TornUnsynced);
        assert_eq!(sim.read(&p("s/j")).expect("read"), b"ok1234");
    }

    #[test]
    fn unsynced_create_vanishes_at_crash() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir");
        let mut f = sim.create(&p("s/tmp")).expect("create");
        f.write_all(b"data").expect("write");
        sim.crash(CrashMode::DropUnsynced);
        assert!(
            sim.read(&p("s/tmp")).is_err(),
            "never synced, never durable"
        );
    }

    #[test]
    fn rename_is_volatile_until_dir_sync() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir");
        let mut old = sim.open_append(&p("s/j")).expect("open");
        old.write_all(b"old").expect("write");
        old.sync().expect("sync");
        let mut tmp = sim.create(&p("s/j.tmp")).expect("create");
        tmp.write_all(b"new").expect("write");
        tmp.sync().expect("sync");
        sim.rename(&p("s/j.tmp"), &p("s/j")).expect("rename");
        // crash before the directory sync: the old entry is back
        sim.crash(CrashMode::DropUnsynced);
        assert_eq!(sim.read(&p("s/j")).expect("read"), b"old");
    }

    #[test]
    fn rename_survives_after_dir_sync() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir");
        let mut old = sim.open_append(&p("s/j")).expect("open");
        old.write_all(b"old").expect("write");
        old.sync().expect("sync");
        let mut tmp = sim.create(&p("s/j.tmp")).expect("create");
        tmp.write_all(b"new").expect("write");
        tmp.sync().expect("sync");
        sim.rename(&p("s/j.tmp"), &p("s/j")).expect("rename");
        sim.sync_dir(&p("s"));
        sim.crash(CrashMode::DropUnsynced);
        assert_eq!(sim.read(&p("s/j")).expect("read"), b"new");
        assert!(sim.read(&p("s/j.tmp")).is_err(), "tmp entry durably gone");
    }

    #[test]
    fn scheduled_faults_fire_at_their_index() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir (op 0)");
        sim.schedule_fault(2, SimFault::Enospc);
        let mut f = sim.open_append(&p("s/j")).expect("open (op 1)");
        let err = f.write_all(b"x").expect_err("op 2 trips ENOSPC");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.write_all(b"y").expect("op 3 passes");
    }

    #[test]
    fn short_write_fault_lands_half_the_bytes() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir");
        let mut f = sim.open_append(&p("s/j")).expect("open");
        sim.schedule_fault(2, SimFault::ShortWrite);
        assert!(f.write_all(b"abcdef").is_err());
        assert_eq!(sim.read(&p("s/j")).expect("read"), b"abc");
    }

    #[test]
    fn crash_after_fails_every_later_op() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s")).expect("mkdir");
        let mut f = sim.open_append(&p("s/j")).expect("open");
        f.write_all(b"a").expect("write");
        sim.crash_after(sim.op_count());
        assert!(f.write_all(b"b").is_err(), "power is out");
        assert!(f.sync().is_err());
        sim.crash(CrashMode::DropUnsynced);
        let mut g = sim.open_append(&p("s/j")).expect("reopen after crash");
        g.write_all(b"c").expect("power is back");
    }

    #[test]
    fn materialize_round_trips_to_a_real_directory() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("state/cache")).expect("mkdir");
        let mut f = sim.open_append(&p("state/journal.log")).expect("open");
        f.write_all(b"bytes").expect("write");
        let mut c = sim.create(&p("state/cache/a.design")).expect("create");
        c.write_all(b"design").expect("write");
        let dest =
            std::env::temp_dir().join(format!("columba-vfs-materialize-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dest);
        sim.materialize(&dest).expect("materialize");
        assert_eq!(
            fs::read(dest.join("state/journal.log")).expect("read"),
            b"bytes"
        );
        assert_eq!(
            fs::read(dest.join("state/cache/a.design")).expect("read"),
            b"design"
        );
        let _ = fs::remove_dir_all(&dest);
    }

    #[test]
    fn read_dir_lists_files_not_dirs() {
        let sim = SimFs::new();
        sim.create_dir_all(&p("s/cache")).expect("mkdir");
        drop(sim.create(&p("s/a")).expect("create"));
        drop(sim.create(&p("s/cache/b")).expect("create"));
        let mut files = sim.read_dir(&p("s")).expect("read_dir");
        files.sort();
        assert_eq!(files, vec![p("s/a")]);
        assert!(sim.read_dir(&p("nope")).is_err());
    }
}
