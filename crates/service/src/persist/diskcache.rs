//! The disk-backed design cache: one checksummed file per [`ContentKey`]
//! under `<state_dir>/cache/`, holding everything a cache hit serves —
//! the canonical record (for collision verification), the pre-rendered
//! SVG and SCR artifacts, and the summary the status endpoint reports.
//!
//! File format: the same magic + length + CRC32 frame the journal uses
//! (magic `CDC1`), wrapping a payload of length-prefixed named sections:
//!
//! ```text
//! [name_len: u32 LE] [name] [data_len: u32 LE] [data]   (repeated)
//! ```
//!
//! Files are written atomically — temp file in the same directory, fsync,
//! rename — so a crash mid-store leaves either the old file or no file,
//! never a half-written one. Loading is paranoid the same way the journal
//! is: a file whose frame, checksum, sections, or embedded key do not
//! check out is counted, noted, deleted, and skipped — never a panic.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use super::vfs::Storage;
use super::{frame, read_frame, replace, FsyncPolicy};
use crate::cache::{CompletedDesign, DesignSummary};
use crate::hash::ContentKey;

/// Subdirectory of the state dir holding one file per cached design.
pub const CACHE_DIR: &str = "cache";

/// Frame marker for design files (distinct from the journal's).
const MAGIC: [u8; 4] = *b"CDC1";

/// One design recovered from disk.
#[derive(Debug)]
pub struct StoredDesign {
    /// The content key the design was stored under.
    pub key: ContentKey,
    /// The canonical record the key was hashed from.
    pub canon: String,
    /// The design, ready to serve.
    pub design: Arc<CompletedDesign>,
}

/// What loading a cache directory recovered.
#[derive(Debug, Default)]
pub struct CacheLoad {
    /// Every design that verified clean.
    pub designs: Vec<StoredDesign>,
    /// Corrupt files counted, noted, and deleted.
    pub dropped: u64,
    /// One human-readable note per dropped file, for tracing.
    pub notes: Vec<String>,
}

/// The file name a key's design is stored under.
#[must_use]
pub fn design_file_name(key: ContentKey) -> String {
    format!("{:016x}{:016x}.design", key.0, key.1)
}

fn push_section(out: &mut Vec<u8>, name: &str, data: &[u8]) {
    out.extend_from_slice(&u32::try_from(name.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&u32::try_from(data.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(data);
}

fn encode_meta(design: &CompletedDesign) -> String {
    let s = &design.summary;
    format!(
        "solved_in_us {}\ndrc_clean {}\nwidth_mm_bits {}\nheight_mm_bits {}\n\
         control_inlets {}\nsolve_nodes {}\nsolve_pruned {}\nsolve_simplex {}\n",
        design.solved_in.as_micros(),
        u8::from(s.drc_clean),
        s.width_mm.to_bits(),
        s.height_mm.to_bits(),
        s.control_inlets,
        s.solve_nodes,
        s.solve_pruned,
        s.solve_simplex_iterations,
    )
}

fn encode(key: ContentKey, canon: &str, design: &CompletedDesign) -> Vec<u8> {
    let mut payload = Vec::with_capacity(canon.len() + design.svg.len() + design.scr.len() + 256);
    let mut key_bytes = [0u8; 16];
    key_bytes[..8].copy_from_slice(&key.0.to_le_bytes());
    key_bytes[8..].copy_from_slice(&key.1.to_le_bytes());
    push_section(&mut payload, "key", &key_bytes);
    push_section(&mut payload, "canon", canon.as_bytes());
    push_section(&mut payload, "svg", design.svg.as_bytes());
    push_section(&mut payload, "scr", design.scr.as_bytes());
    push_section(&mut payload, "rung", design.rung.as_bytes());
    push_section(&mut payload, "meta", encode_meta(design).as_bytes());
    frame(MAGIC, &payload)
}

fn read_section<'a>(payload: &'a [u8], pos: &mut usize) -> Option<(&'a str, &'a [u8])> {
    let name_len = u32::from_le_bytes(payload.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
    *pos += 4;
    let name = std::str::from_utf8(payload.get(*pos..*pos + name_len)?).ok()?;
    *pos += name_len;
    let data_len = u32::from_le_bytes(payload.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
    *pos += 4;
    let data = payload.get(*pos..*pos + data_len)?;
    *pos += data_len;
    Some((name, data))
}

fn parse_meta(text: &str) -> Option<(Duration, DesignSummary)> {
    let mut solved_in_us: Option<u128> = None;
    let mut summary = DesignSummary {
        drc_clean: false,
        width_mm: 0.0,
        height_mm: 0.0,
        control_inlets: 0,
        solve_nodes: 0,
        solve_pruned: 0,
        solve_simplex_iterations: 0,
    };
    for line in text.lines() {
        let (name, value) = line.split_once(' ')?;
        match name {
            "solved_in_us" => solved_in_us = Some(value.parse().ok()?),
            "drc_clean" => summary.drc_clean = value.parse::<u8>().ok()? != 0,
            "width_mm_bits" => summary.width_mm = f64::from_bits(value.parse().ok()?),
            "height_mm_bits" => summary.height_mm = f64::from_bits(value.parse().ok()?),
            "control_inlets" => summary.control_inlets = value.parse().ok()?,
            "solve_nodes" => summary.solve_nodes = value.parse().ok()?,
            "solve_pruned" => summary.solve_pruned = value.parse().ok()?,
            "solve_simplex" => summary.solve_simplex_iterations = value.parse().ok()?,
            _ => return None,
        }
    }
    let us = solved_in_us?;
    Some((Duration::from_micros(u64::try_from(us).ok()?), summary))
}

/// Decodes one design file; `None` for anything that does not verify
/// (bad frame, bad checksum, trailing garbage, missing section, key
/// mismatch with the file name).
fn decode(bytes: &[u8], expect_key: ContentKey) -> Option<StoredDesign> {
    let (payload, end) = read_frame(bytes, 0, MAGIC).ok()?;
    // strict framing: a trailer after the payload means the file was
    // tampered with or cross-written — drop it
    if end != bytes.len() {
        return None;
    }
    let mut pos = 0usize;
    let mut key_bytes: Option<[u8; 16]> = None;
    let mut canon: Option<String> = None;
    let mut svg: Option<String> = None;
    let mut scr: Option<String> = None;
    let mut rung: Option<String> = None;
    let mut meta: Option<(Duration, DesignSummary)> = None;
    while pos < payload.len() {
        let (name, data) = read_section(payload, &mut pos)?;
        match name {
            "key" => key_bytes = data.try_into().ok(),
            "canon" => canon = String::from_utf8(data.to_vec()).ok(),
            "svg" => svg = String::from_utf8(data.to_vec()).ok(),
            "scr" => scr = String::from_utf8(data.to_vec()).ok(),
            "rung" => rung = String::from_utf8(data.to_vec()).ok(),
            "meta" => meta = parse_meta(std::str::from_utf8(data).ok()?),
            _ => return None,
        }
    }
    let kb = key_bytes?;
    let key = ContentKey(
        u64::from_le_bytes(kb[..8].try_into().ok()?),
        u64::from_le_bytes(kb[8..].try_into().ok()?),
    );
    if key != expect_key {
        return None;
    }
    let (solved_in, summary) = meta?;
    Some(StoredDesign {
        key,
        canon: canon?,
        design: Arc::new(CompletedDesign {
            summary,
            svg: svg?,
            scr: scr?,
            rung: rung?,
            solved_in,
        }),
    })
}

/// Atomically writes the design file for `key` on `storage`: a temp file
/// in the cache directory atomically replaces the final one.
///
/// # Errors
///
/// The write, fsync, or rename failed; the previous state of the file (if
/// any) is untouched and the temp file is removed best-effort.
pub fn store(
    storage: &dyn Storage,
    dir: &Path,
    key: ContentKey,
    canon: &str,
    design: &CompletedDesign,
    fsync: FsyncPolicy,
) -> io::Result<()> {
    let name = design_file_name(key);
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!(".tmp-{name}"));
    let bytes = encode(key, canon, design);
    let result = replace(storage, &tmp_path, &final_path, &bytes, fsync).map(drop);
    if result.is_err() {
        let _ = storage.remove_file(&tmp_path);
    }
    result
}

/// Loads every design file under `dir` on `storage`, deleting (and
/// counting) anything that does not verify — corrupt frames, flipped
/// bits, truncated files, garbage trailers, leftover temp files from
/// interrupted stores.
///
/// # Errors
///
/// Propagates only directory-listing I/O errors; per-file read failures
/// and corrupt contents are counted in the returned [`CacheLoad`].
pub fn load_all(storage: &dyn Storage, dir: &Path) -> io::Result<CacheLoad> {
    let mut load = CacheLoad::default();
    let mut paths = match storage.read_dir(dir) {
        Ok(p) => p,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(load),
        Err(e) => return Err(e),
    };
    paths.sort();
    for path in paths {
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        match verify(storage, &path, &file_name) {
            Ok(stored) => load.designs.push(stored),
            Err(why) => {
                load.dropped += 1;
                load.notes.push(format!("cache file {file_name}: {why}"));
                let _ = storage.remove_file(&path);
            }
        }
    }
    Ok(load)
}

/// Reads and verifies one cache file, or says why it must be dropped.
fn verify(
    storage: &dyn Storage,
    path: &Path,
    file_name: &str,
) -> Result<StoredDesign, &'static str> {
    if file_name.starts_with(".tmp-") {
        // a store was interrupted before its rename; the final file (if
        // any) is intact, so the temp is pure debris
        return Err("interrupted store (temp debris)");
    }
    let key = key_from_file_name(file_name).ok_or("unrecognized name")?;
    storage
        .read(path)
        .ok()
        .and_then(|bytes| decode(&bytes, key))
        .ok_or("failed checksum or structure verification")
}

fn key_from_file_name(name: &str) -> Option<ContentKey> {
    let hex = name.strip_suffix(".design")?;
    if hex.len() != 32 {
        return None;
    }
    Some(ContentKey(
        u64::from_str_radix(&hex[..16], 16).ok()?,
        u64::from_str_radix(&hex[16..], 16).ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::RealFs;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("columba-diskcache-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn sample_design() -> CompletedDesign {
        CompletedDesign {
            summary: DesignSummary {
                drc_clean: true,
                width_mm: 12.345,
                height_mm: 6.5,
                control_inlets: 3,
                solve_nodes: 42,
                solve_pruned: 17,
                solve_simplex_iterations: 900,
            },
            svg: "<svg>not a real chip</svg>".into(),
            scr: "_PLINE 0,0 1,1\n".into(),
            rung: "full MILP".into(),
            solved_in: Duration::from_micros(123_456),
        }
    }

    #[test]
    fn store_load_round_trip_is_byte_identical() {
        let dir = tmp_dir("roundtrip");
        let key = ContentKey(0xaaaa_bbbb, 0xcccc_dddd);
        let design = sample_design();
        store(
            &RealFs,
            &dir,
            key,
            "canon text",
            &design,
            FsyncPolicy::Always,
        )
        .expect("store");
        let load = load_all(&RealFs, &dir).expect("load");
        assert_eq!(load.dropped, 0, "{:?}", load.notes);
        assert_eq!(load.designs.len(), 1);
        let got = &load.designs[0];
        assert_eq!(got.key, key);
        assert_eq!(got.canon, "canon text");
        assert_eq!(got.design.svg, design.svg);
        assert_eq!(got.design.scr, design.scr);
        assert_eq!(got.design.rung, design.rung);
        assert_eq!(got.design.solved_in, design.solved_in);
        assert_eq!(got.design.summary, design.summary);
    }

    #[test]
    fn bit_flip_drops_exactly_that_file() {
        let dir = tmp_dir("flip");
        let k1 = ContentKey(1, 1);
        let k2 = ContentKey(2, 2);
        let design = sample_design();
        store(&RealFs, &dir, k1, "one", &design, FsyncPolicy::Never).expect("store");
        store(&RealFs, &dir, k2, "two", &design, FsyncPolicy::Never).expect("store");
        let victim = dir.join(design_file_name(k1));
        let mut bytes = fs::read(&victim).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&victim, &bytes).expect("write");
        let load = load_all(&RealFs, &dir).expect("load");
        assert_eq!(load.dropped, 1, "{:?}", load.notes);
        assert_eq!(load.designs.len(), 1);
        assert_eq!(load.designs[0].key, k2);
        assert!(!victim.exists(), "corrupt file is deleted");
    }

    #[test]
    fn truncation_and_garbage_trailer_are_dropped() {
        let dir = tmp_dir("trunc");
        let k1 = ContentKey(1, 1);
        let k2 = ContentKey(2, 2);
        let design = sample_design();
        store(&RealFs, &dir, k1, "one", &design, FsyncPolicy::Never).expect("store");
        store(&RealFs, &dir, k2, "two", &design, FsyncPolicy::Never).expect("store");
        let p1 = dir.join(design_file_name(k1));
        let bytes = fs::read(&p1).expect("read");
        fs::write(&p1, &bytes[..bytes.len() - 7]).expect("truncate");
        let p2 = dir.join(design_file_name(k2));
        let mut bytes = fs::read(&p2).expect("read");
        bytes.extend_from_slice(b"trailing garbage");
        fs::write(&p2, &bytes).expect("garbage");
        let load = load_all(&RealFs, &dir).expect("load");
        assert_eq!(load.dropped, 2, "{:?}", load.notes);
        assert!(load.designs.is_empty());
    }

    #[test]
    fn renamed_file_fails_key_verification() {
        // a file moved under another key's name must not poison that key
        let dir = tmp_dir("rename");
        let design = sample_design();
        store(
            &RealFs,
            &dir,
            ContentKey(1, 1),
            "one",
            &design,
            FsyncPolicy::Never,
        )
        .expect("store");
        fs::rename(
            dir.join(design_file_name(ContentKey(1, 1))),
            dir.join(design_file_name(ContentKey(9, 9))),
        )
        .expect("rename");
        let load = load_all(&RealFs, &dir).expect("load");
        assert_eq!(load.dropped, 1);
        assert!(load.designs.is_empty());
    }

    #[test]
    fn temp_debris_and_strange_names_are_cleaned_up() {
        let dir = tmp_dir("debris");
        let design = sample_design();
        store(
            &RealFs,
            &dir,
            ContentKey(1, 1),
            "one",
            &design,
            FsyncPolicy::Never,
        )
        .expect("store");
        fs::write(dir.join(".tmp-0000.design"), b"half a file").expect("write");
        fs::write(dir.join("README.txt"), b"not a design").expect("write");
        let load = load_all(&RealFs, &dir).expect("load");
        assert_eq!(load.designs.len(), 1);
        assert_eq!(load.dropped, 2, "{:?}", load.notes);
        assert!(!dir.join(".tmp-0000.design").exists());
    }

    #[test]
    fn missing_directory_is_an_empty_load() {
        let dir = tmp_dir("missing").join("nope");
        let load = load_all(&RealFs, &dir).expect("load");
        assert!(load.designs.is_empty());
        assert_eq!(load.dropped, 0);
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = tmp_dir("overwrite");
        let key = ContentKey(5, 5);
        let mut design = sample_design();
        store(&RealFs, &dir, key, "canon", &design, FsyncPolicy::Never).expect("store");
        design.rung = "replacement".into();
        store(&RealFs, &dir, key, "canon", &design, FsyncPolicy::Never).expect("store again");
        let load = load_all(&RealFs, &dir).expect("load");
        assert_eq!(load.designs.len(), 1);
        assert_eq!(load.designs[0].design.rung, "replacement");
    }
}
