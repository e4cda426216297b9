//! The local JSONL directory backend — the historical [`EvalStore`] on-disk
//! format, extracted behind [`StoreBackend`] bit for bit.
//!
//! One append-only `*.jsonl` file per `(dataset name, baseline fingerprint)`
//! pair, each led by a sealed-envelope header line; appends are single
//! flushed whole-line writes; replay is corruption-tolerant and compacts
//! salvaged records back to disk atomically. Documents (cached baselines,
//! completion markers) are sibling files committed with
//! [`write_atomic`](crate::store::write_atomic). See the
//! [store module documentation](crate::store) for the crash-safety story.

use super::backend::{
    check_doc_name, merge_duplicate_keys, sanitize_name, ScanOutcome, StoreBackend,
};
use super::{header_line, header_matches, hex, parse_record_line, record_line, write_atomic};
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn store_err(context: String) -> CoreError {
    CoreError::Store { context }
}

/// How hard the local tier pushes appends toward the platters.
///
/// The JSONL format is crash-*consistent* under every policy (whole-line
/// appends; a torn write can only truncate the tail, which replay
/// tolerates); the policy decides how much a **power loss** can cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum DurabilityPolicy {
    /// Flush each append to the OS (the historical behavior): a process
    /// crash loses nothing; an OS crash or power loss may lose recent
    /// appends still in the page cache.
    #[default]
    Buffered,
    /// `fsync` after every append (and batch): a power loss can lose at most
    /// the append in flight. The slowest policy — one disk barrier per
    /// engine batch.
    SyncEachAppend,
    /// `fsync` only when a log header is sealed or a log is rewritten
    /// (compaction, salvage): bounds the damage of a power loss to the
    /// appends since the last seal, at near-[`Buffered`] speed.
    ///
    /// [`Buffered`]: DurabilityPolicy::Buffered
    SyncOnSeal,
}

impl std::fmt::Display for DurabilityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DurabilityPolicy::Buffered => "buffered",
            DurabilityPolicy::SyncEachAppend => "sync-each-append",
            DurabilityPolicy::SyncOnSeal => "sync-on-seal",
        })
    }
}

impl std::str::FromStr for DurabilityPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "buffered" => Ok(DurabilityPolicy::Buffered),
            "sync-each-append" => Ok(DurabilityPolicy::SyncEachAppend),
            "sync-on-seal" => Ok(DurabilityPolicy::SyncOnSeal),
            other => Err(format!(
                "unknown durability policy '{other}' (expected buffered, sync-each-append or \
                 sync-on-seal)"
            )),
        }
    }
}

/// Best-effort fsync of an already-committed file (used after atomic
/// rewrites, where the content is already consistent on disk).
fn sync_path(path: &Path) {
    if let Ok(file) = fs::File::open(path) {
        file.sync_all().ok();
    }
}

/// The append-only JSONL directory tier.
///
/// Cheap to construct (one `create_dir_all`); append handles are opened
/// lazily and cached per record log, so repeated appends cost one `write` +
/// `flush` each, exactly like the pre-refactor store.
pub struct LocalJsonlBackend {
    dir: PathBuf,
    durability: DurabilityPolicy,
    writers: Mutex<HashMap<PathBuf, fs::File>>,
}

impl std::fmt::Debug for LocalJsonlBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalJsonlBackend")
            .field("dir", &self.dir)
            .finish()
    }
}

impl LocalJsonlBackend {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, CoreError> {
        Self::open_with(dir, DurabilityPolicy::default())
    }

    /// [`open`](Self::open) with an explicit [`DurabilityPolicy`]
    /// (`--durability` on the binaries).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the directory cannot be created.
    pub fn open_with(dir: &Path, durability: DurabilityPolicy) -> Result<Self, CoreError> {
        fs::create_dir_all(dir).map_err(|e| store_err(format!("create {}: {e}", dir.display())))?;
        Ok(LocalJsonlBackend {
            dir: dir.to_path_buf(),
            durability,
            writers: Mutex::new(HashMap::new()),
        })
    }

    /// The directory this backend stores into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability policy appends run under.
    pub fn durability(&self) -> DurabilityPolicy {
        self.durability
    }

    fn file_path(&self, name: &str, fingerprint: u64) -> PathBuf {
        self.dir.join(format!(
            "{}_{}.jsonl",
            sanitize_name(name),
            hex(fingerprint)
        ))
    }

    /// Replays `path`, returning the surviving records and whether the file
    /// needs a compacting rewrite (corrupt tail, garbled line, foreign
    /// header). A missing file replays empty *without* scheduling a rewrite —
    /// reads must never create files (a disk-backed server would otherwise
    /// grow one empty log per probed fingerprint).
    ///
    /// Corrupt lines are never silently destroyed: before the compacting
    /// rewrite discards them, they are copied to a `*.quarantine` sidecar
    /// next to the log (and counted, and warned about once per replay) so a
    /// record damaged by something worse than a crash-truncated tail can
    /// still be inspected by hand. The sidecar's name ends in `.quarantine`,
    /// invisible to the GC pass.
    fn replay(path: &Path, fingerprint: u64) -> Result<(Vec<EvalRecord>, usize, bool), CoreError> {
        let mut loaded: Vec<EvalRecord> = Vec::new();
        let mut quarantined: Vec<String> = Vec::new();
        let mut needs_rewrite = false;
        if path.exists() {
            let text = fs::read_to_string(path)
                .map_err(|e| store_err(format!("read {}: {e}", path.display())))?;
            let mut lines = text.lines();
            match lines.next() {
                Some(header) if header_matches(header, fingerprint) => {
                    for line in lines {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match parse_record_line(line) {
                            Ok(record) => loaded.push(record),
                            Err(_) => {
                                // Truncated tail (crash mid-append) or garbled
                                // line: skip it and schedule a compaction.
                                quarantined.push(line.to_string());
                                needs_rewrite = true;
                            }
                        }
                    }
                }
                // Foreign or incompatible-version header: the file is
                // unusable as-is; start fresh (atomically).
                _ => {
                    quarantined.extend(text.lines().map(str::to_string));
                    needs_rewrite = true;
                }
            }
        }
        let dropped = quarantined.len();
        if dropped > 0 {
            Self::quarantine(path, &quarantined);
        }
        Ok((loaded, dropped, needs_rewrite))
    }

    /// Appends unsalvageable lines to the log's `*.quarantine` sidecar,
    /// best-effort (quarantine failure must never fail a replay), and warns
    /// once per replay.
    fn quarantine(path: &Path, lines: &[String]) {
        let sidecar = PathBuf::from(format!("{}.quarantine", path.display()));
        let mut body = String::new();
        for line in lines {
            body.push_str(line);
            body.push('\n');
        }
        let written = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&sidecar)
            .and_then(|mut f| f.write_all(body.as_bytes()))
            .is_ok();
        eprintln!(
            "warning: {} corrupt record(s) in {}{}",
            lines.len(),
            path.display(),
            if written {
                format!(" quarantined to {}", sidecar.display())
            } else {
                " (quarantine sidecar could not be written)".to_string()
            }
        );
    }

    /// Returns the cached append handle for `path`, opening (and sealing /
    /// salvaging the header of) the log on first touch by this backend
    /// instance. Must be called with the writers lock held — the map passed
    /// in *is* the locked map.
    fn writer_for<'w>(
        &self,
        writers: &'w mut HashMap<PathBuf, fs::File>,
        path: &Path,
        fingerprint: u64,
    ) -> Result<&'w mut fs::File, CoreError> {
        if !writers.contains_key(path) {
            // First touch of this log by this backend instance: make sure a
            // valid header leads the file before appending after it. An
            // existing file with a foreign/stale header must be salvaged
            // *now* — appending after a bad header would let the next scan
            // discard the fresh records along with it. A brand-new log gets
            // its header sealed so a replay can bind the file to its
            // fingerprint.
            let (records, _, needs_rewrite) = Self::replay(path, fingerprint)?;
            if needs_rewrite || !path.exists() {
                self.rewrite(path, fingerprint, &records)?;
            }
            let file = fs::OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| store_err(format!("open {} for append: {e}", path.display())))?;
            writers.insert(path.to_path_buf(), file);
        }
        Ok(writers.get_mut(path).expect("cached writer"))
    }

    /// Writes `records` (plus the header) to `path` atomically, then syncs
    /// it unless the policy is [`DurabilityPolicy::Buffered`]. The new file
    /// replaces the inode a cached append handle points at, so a caller
    /// rewriting a log that may have one drops it (under the writers lock).
    fn rewrite(
        &self,
        path: &Path,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        let mut contents = header_line(fingerprint);
        contents.push('\n');
        for record in records {
            contents.push_str(&record_line(record));
            contents.push('\n');
        }
        write_atomic(path, &contents)
            .map_err(|e| store_err(format!("rewrite {}: {e}", path.display())))?;
        if self.durability != DurabilityPolicy::Buffered {
            sync_path(path);
        }
        Ok(())
    }

    /// Garbage-collects this backend's directory under the writers lock:
    ///
    /// * record logs whose baseline fingerprint is not in `live` are deleted
    ///   (their baseline no longer exists, so no engine can ever warm-start
    ///   from them again); `None` keeps every fingerprint, making the pass a
    ///   pure compaction,
    /// * surviving logs have duplicate keys merged and damaged lines
    ///   dropped, and logs at or above [`GcPolicy::compact_threshold_bytes`]
    ///   are compacted unconditionally,
    /// * `done_*.json` completion markers bound to a dead baseline
    ///   fingerprint are deleted too,
    /// * `*_nsga2.json` GA checkpoints that earlier versions wrote (envelope
    ///   magic `pmlp-nsga2-checkpoint`) are deleted whatever `live` says:
    ///   searches now resume from the records alone, so nothing reads them.
    ///
    /// Every log the pass rewrites or deletes loses its cached append
    /// handle, so a later append reopens the rewritten file, or seals a
    /// fresh one, instead of writing into an orphaned inode. Other
    /// documents and unrelated files are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the directory cannot be read or a
    /// rewrite fails; per-file deletions that race with other processes are
    /// ignored.
    pub fn gc(&self, live: Option<&[u64]>, policy: &GcPolicy) -> Result<GcReport, CoreError> {
        let is_live = |fp: u64| live.is_none_or(|live| live.contains(&fp));
        let dir = &self.dir;
        let mut writers = self.writers.lock().expect("writer map lock");
        let mut report = GcReport::default();
        let entries =
            fs::read_dir(dir).map_err(|e| store_err(format!("read {}: {e}", dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| store_err(format!("read {}: {e}", dir.display())))?;
            let path = entry.path();
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()).map(String::from)
            else {
                continue;
            };
            let size = entry.metadata().map(|m| m.len()).unwrap_or(0);

            if let Some(fp) = record_log_fingerprint(&file_name) {
                if !is_live(fp) {
                    fs::remove_file(&path).ok();
                    writers.remove(&path);
                    report.files_dropped += 1;
                    report.bytes_reclaimed += size;
                    continue;
                }
                report.files_kept += 1;
                let (records, corrupt, damaged) = Self::replay(&path, fp)?;
                let (merged, removed) = merge_duplicate_keys(records);
                if removed > 0 || damaged || size >= policy.compact_threshold_bytes {
                    self.rewrite(&path, fp, &merged)?;
                    writers.remove(&path);
                    let new_size = fs::metadata(&path).map(|m| m.len()).unwrap_or(size);
                    report.bytes_reclaimed += size.saturating_sub(new_size);
                    report.duplicates_merged += removed;
                    report.corrupt_dropped += corrupt;
                }
            } else if file_name.starts_with("done_") && file_name.ends_with(".json") {
                // Completion markers carry the baseline fingerprint they were
                // measured against in their envelope; a dead baseline means
                // the marker can never be resumed again.
                match marker_fingerprint(&path) {
                    Some(fp) if !is_live(fp) => {
                        fs::remove_file(&path).ok();
                        report.files_dropped += 1;
                        report.bytes_reclaimed += size;
                    }
                    _ => {}
                }
            } else if file_name.ends_with("_nsga2.json") && is_retired_checkpoint(&path) {
                fs::remove_file(&path).ok();
                report.files_dropped += 1;
                report.bytes_reclaimed += size;
            }
        }
        Ok(report)
    }
}

impl StoreBackend for LocalJsonlBackend {
    fn describe(&self) -> String {
        format!("local jsonl dir {}", self.dir.display())
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        let path = self.file_path(name, fingerprint);
        // The writers lock is held across replay + rewrite so a compacting
        // rewrite can never clobber a concurrent append (the server shares
        // one backend across handler threads).
        let mut writers = self.writers.lock().expect("writer map lock");
        let (records, dropped, needs_rewrite) = Self::replay(&path, fingerprint)?;
        if needs_rewrite {
            // A rewrite replaces the inode any cached append handle points
            // at; drop the stale handle so later appends reopen the new file.
            self.rewrite(&path, fingerprint, &records)?;
            writers.remove(&path);
        }
        Ok(ScanOutcome { records, dropped })
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        let path = self.file_path(name, fingerprint);
        let mut line = record_line(record);
        line.push('\n');
        let mut writers = self.writers.lock().expect("writer map lock");
        let writer = self.writer_for(&mut writers, &path, fingerprint)?;
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .and_then(|()| match self.durability {
                DurabilityPolicy::SyncEachAppend => writer.sync_data(),
                _ => Ok(()),
            })
            .map_err(|e| store_err(format!("append to {}: {e}", path.display())))
    }

    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        if records.is_empty() {
            return Ok(());
        }
        let path = self.file_path(name, fingerprint);
        let mut lines = String::new();
        for record in records {
            lines.push_str(&record_line(record));
            lines.push('\n');
        }
        // One write + one flush for the whole batch: a crash can still only
        // truncate the tail, which replay tolerates.
        let mut writers = self.writers.lock().expect("writer map lock");
        let writer = self.writer_for(&mut writers, &path, fingerprint)?;
        writer
            .write_all(lines.as_bytes())
            .and_then(|()| writer.flush())
            .and_then(|()| match self.durability {
                DurabilityPolicy::SyncEachAppend => writer.sync_data(),
                _ => Ok(()),
            })
            .map_err(|e| store_err(format!("append batch to {}: {e}", path.display())))
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        let path = self.file_path(name, fingerprint);
        let mut writers = self.writers.lock().expect("writer map lock");
        let (records, _, _) = Self::replay(&path, fingerprint)?;
        let (merged, removed) = merge_duplicate_keys(records);
        if removed > 0 {
            self.rewrite(&path, fingerprint, &merged)?;
            writers.remove(&path);
        }
        Ok(removed)
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        check_doc_name(name)?;
        match fs::read_to_string(self.dir.join(name)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(store_err(format!("read doc {name}: {e}"))),
        }
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        check_doc_name(name)?;
        write_atomic(&self.dir.join(name), contents)
            .map_err(|e| store_err(format!("write doc {name}: {e}")))
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        check_doc_name(name)?;
        match fs::remove_file(self.dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(store_err(format!("remove doc {name}: {e}"))),
        }
    }

    fn record_path(&self, name: &str, fingerprint: u64) -> Option<PathBuf> {
        Some(self.file_path(name, fingerprint))
    }

    fn flush(&self) -> Result<(), CoreError> {
        // fsync every cached append handle regardless of the durability
        // policy — this is the graceful-shutdown path, where the process is
        // about to exit and the page cache is all that holds recent appends.
        let writers = self.writers.lock().expect("writer map lock");
        for (path, file) in writers.iter() {
            file.sync_data()
                .map_err(|e| store_err(format!("sync {}: {e}", path.display())))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

/// Tuning knobs of [`LocalJsonlBackend::gc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPolicy {
    /// Record logs at or above this size are compacted (duplicate keys
    /// merged, corrupt lines dropped) even if nothing else is wrong with
    /// them. Logs below it are only rewritten when duplicates exist.
    pub compact_threshold_bytes: u64,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            // Quick-campaign record logs are a few KiB; a megabyte means a
            // long-lived store that has earned a compaction pass.
            compact_threshold_bytes: 1 << 20,
        }
    }
}

/// What one garbage-collection pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Record logs whose fingerprint matched a live baseline and were kept.
    pub files_kept: usize,
    /// Record logs (and stale completion markers) deleted.
    pub files_dropped: usize,
    /// Bytes freed by deletions and compactions.
    pub bytes_reclaimed: u64,
    /// Duplicate-key records merged away during compaction.
    pub duplicates_merged: usize,
    /// Corrupt records dropped during compaction.
    pub corrupt_dropped: usize,
}

/// Extracts the trailing `_{16-hex}.jsonl` fingerprint of a record-log file
/// name.
fn record_log_fingerprint(file_name: &str) -> Option<u64> {
    let stem = file_name.strip_suffix(".jsonl")?;
    let (_, fp) = stem.rsplit_once('_')?;
    (fp.len() == 16).then(|| u64::from_str_radix(fp, 16).ok())?
}

/// Extracts the envelope fingerprint of a `done_*.json` completion marker.
fn marker_fingerprint(path: &Path) -> Option<u64> {
    let parsed = serde::json::parse(&fs::read_to_string(path).ok()?).ok()?;
    super::parse_hex(parsed.get("fingerprint")?).ok()
}

/// `true` when the document at `path` is a GA checkpoint in the envelope
/// earlier versions sealed (magic `pmlp-nsga2-checkpoint`).
fn is_retired_checkpoint(path: &Path) -> bool {
    fs::read_to_string(path)
        .ok()
        .and_then(|text| serde::json::parse(&text).ok())
        .is_some_and(|doc| {
            doc.get("magic").and_then(|m| m.as_str()) == Some("pmlp-nsga2-checkpoint")
        })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{record, temp_dir};
    use super::*;

    #[test]
    fn scan_of_a_missing_log_is_empty_and_creates_nothing() {
        // Reads must never write: a disk-backed server would otherwise grow
        // one empty log per probed fingerprint.
        let dir = temp_dir("jsonl-create");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let outcome = backend.scan("Seeds", 7).unwrap();
        assert!(outcome.records.is_empty());
        let path = backend.record_path("Seeds", 7).unwrap();
        assert!(!path.exists(), "a read-only scan must not create files");
        // The header still gets sealed by the first append.
        backend.append("Seeds", 7, &record(4, 0.8, 40.0)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(header_matches(text.lines().next().unwrap(), 7));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_without_prior_scan_seals_a_header_first() {
        let dir = temp_dir("jsonl-append-first");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        backend.append("Seeds", 9, &record(4, 0.8, 40.0)).unwrap();
        let outcome = backend.scan("Seeds", 9).unwrap();
        assert_eq!(outcome.records, vec![record(4, 0.8, 40.0)]);
        assert_eq!(outcome.dropped, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_salvages_a_foreign_header_before_writing() {
        // Appending after a stale/foreign header would let the next scan
        // discard the fresh record together with the bad file.
        let dir = temp_dir("jsonl-foreign-append");
        std::fs::create_dir_all(&dir).unwrap();
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let path = backend.record_path("Seeds", 3).unwrap();
        fs::write(&path, "{\"magic\":\"something-else\"}\nold garbage\n").unwrap();

        let fresh = record(4, 0.8, 40.0);
        backend.append("Seeds", 3, &fresh).unwrap();
        let outcome = backend.scan("Seeds", 3).unwrap();
        assert_eq!(outcome.records, vec![fresh], "fresh record must survive");
        assert_eq!(outcome.dropped, 0, "the bad file was salvaged on append");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_answers_by_key_with_last_write_winning() {
        let dir = temp_dir("jsonl-get");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let first = record(4, 0.8, 40.0);
        let mut second = record(4, 0.8, 40.0);
        second.point.accuracy = 0.81;
        backend.append("Seeds", 1, &first).unwrap();
        backend.append("Seeds", 1, &second).unwrap();
        let got = backend.get("Seeds", 1, &first.key).unwrap();
        assert_eq!(got, Some(second));
        assert_eq!(
            backend.get("Seeds", 1, &record(7, 0.9, 9.0).key).unwrap(),
            None
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_merges_duplicate_keys_keeping_the_last() {
        let dir = temp_dir("jsonl-compact");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let a = record(3, 0.7, 30.0);
        let mut a2 = a.clone();
        a2.point.accuracy = 0.72;
        let b = record(4, 0.8, 40.0);
        for r in [&a, &b, &a2] {
            backend.append("Seeds", 5, r).unwrap();
        }
        assert_eq!(backend.compact("Seeds", 5).unwrap(), 1);
        let outcome = backend.scan("Seeds", 5).unwrap();
        assert_eq!(outcome.records, vec![a2, b]);
        // Idempotent.
        assert_eq!(backend.compact("Seeds", 5).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_remain_valid_after_a_compacting_rewrite() {
        // A rewrite swaps the file's inode; cached append handles must not
        // keep writing to the orphaned one.
        let dir = temp_dir("jsonl-inode");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let a = record(3, 0.7, 30.0);
        backend.append("Seeds", 5, &a).unwrap();
        backend.append("Seeds", 5, &a).unwrap(); // duplicate
        assert_eq!(backend.compact("Seeds", 5).unwrap(), 1);
        let b = record(4, 0.8, 40.0);
        backend.append("Seeds", 5, &b).unwrap();
        let outcome = backend.scan("Seeds", 5).unwrap();
        assert_eq!(outcome.records, vec![a, b]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn docs_round_trip_and_reject_unsafe_names() {
        let dir = temp_dir("jsonl-docs");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        assert_eq!(backend.get_doc("marker.json").unwrap(), None);
        backend.put_doc("marker.json", "{\"x\":1}").unwrap();
        assert_eq!(
            backend.get_doc("marker.json").unwrap().as_deref(),
            Some("{\"x\":1}")
        );
        backend.remove_doc("marker.json").unwrap();
        assert_eq!(backend.get_doc("marker.json").unwrap(), None);
        backend.remove_doc("marker.json").unwrap(); // idempotent
        assert!(backend.put_doc("../escape", "x").is_err());
        assert!(backend.get_doc("a/b").is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_policies_parse_and_round_trip() {
        for policy in [
            DurabilityPolicy::Buffered,
            DurabilityPolicy::SyncEachAppend,
            DurabilityPolicy::SyncOnSeal,
        ] {
            assert_eq!(policy.to_string().parse::<DurabilityPolicy>(), Ok(policy));
        }
        assert!("fast-and-loose".parse::<DurabilityPolicy>().is_err());
        assert_eq!(DurabilityPolicy::default(), DurabilityPolicy::Buffered);
    }

    #[test]
    fn synced_appends_behave_identically_to_buffered_ones() {
        for policy in [
            DurabilityPolicy::SyncEachAppend,
            DurabilityPolicy::SyncOnSeal,
        ] {
            let dir = temp_dir(&format!("jsonl-durability-{policy}"));
            let backend = LocalJsonlBackend::open_with(&dir, policy).unwrap();
            assert_eq!(backend.durability(), policy);
            let a = record(3, 0.8, 40.0);
            let b = record(4, 0.9, 50.0);
            backend.append("Seeds", 1, &a).unwrap();
            backend
                .append_batch("Seeds", 1, std::slice::from_ref(&b))
                .unwrap();
            backend.flush().unwrap();
            let outcome = backend.scan("Seeds", 1).unwrap();
            assert_eq!(outcome.records, vec![a, b]);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_lines_are_quarantined_to_a_sidecar_not_destroyed() {
        let dir = temp_dir("jsonl-quarantine");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let a = record(3, 0.8, 40.0);
        let b = record(4, 0.9, 50.0);
        backend.append("Seeds", 7, &a).unwrap();
        backend.append("Seeds", 7, &b).unwrap();

        // Garble the middle record (worse than a truncated tail).
        let path = backend.record_path("Seeds", 7).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let garbled = text.replacen(&record_line(&a), "!!not json!!", 1);
        fs::write(&path, garbled).unwrap();

        let fresh = LocalJsonlBackend::open(&dir).unwrap();
        let outcome = fresh.scan("Seeds", 7).unwrap();
        assert_eq!(outcome.records, vec![b], "the tail survives");
        assert_eq!(outcome.dropped, 1);

        let sidecar = PathBuf::from(format!("{}.quarantine", path.display()));
        let quarantined = fs::read_to_string(&sidecar).unwrap();
        assert!(quarantined.contains("!!not json!!"));
        // The sidecar is invisible to GC: one log kept, nothing dropped.
        let report = fresh.gc(None, &GcPolicy::default()).unwrap();
        assert_eq!((report.files_kept, report.files_dropped), (1, 0));
        assert!(sidecar.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_drops_dead_fingerprints_and_compacts_live_ones() {
        let dir = temp_dir("jsonl-gc");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let live = record(3, 0.7, 30.0);
        backend.append("Seeds", 0xA11CE, &live).unwrap();
        backend.append("Seeds", 0xA11CE, &live).unwrap(); // duplicate
        backend
            .append("Seeds", 0xDEAD, &record(4, 0.8, 40.0))
            .unwrap();
        backend
            .append("Balance", 0xDEAD, &record(5, 0.9, 50.0))
            .unwrap();

        let report = backend.gc(Some(&[0xA11CE]), &GcPolicy::default()).unwrap();
        assert_eq!(report.files_kept, 1);
        assert_eq!(report.files_dropped, 2);
        assert_eq!(report.duplicates_merged, 1);
        assert!(report.bytes_reclaimed > 0);

        // The dead logs are gone; the live one survived with merged keys.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1);
        assert!(names[0].starts_with("seeds_"));
        let outcome = backend.scan("Seeds", 0xA11CE).unwrap();
        assert_eq!(outcome.records, vec![live.clone()]);

        // The pass dropped the append handles of the logs it rewrote and
        // deleted: later appends land in files a fresh instance replays, and
        // the dead log comes back as a freshly sealed file.
        let (late, reborn) = (record(6, 0.6, 60.0), record(7, 0.5, 70.0));
        backend.append("Seeds", 0xA11CE, &late).unwrap();
        backend.append("Balance", 0xDEAD, &reborn).unwrap();
        let reopened = LocalJsonlBackend::open(&dir).unwrap();
        let seeds = reopened.scan("Seeds", 0xA11CE).unwrap().records;
        assert_eq!(seeds, vec![live, late]);
        let balance = reopened.scan("Balance", 0xDEAD).unwrap();
        assert_eq!((balance.records, balance.dropped), (vec![reborn], 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_drops_markers_of_dead_baselines_only() {
        let dir = temp_dir("jsonl-gc-markers");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let marker = |fp: u64| {
            super::super::seal_envelope("pmlp-campaign-marker", 1, fp, Vec::new()).render_pretty()
        };
        backend
            .put_doc("done_seeds_0001.json", &marker(0xA))
            .unwrap();
        backend
            .put_doc("done_balance_0002.json", &marker(0xB))
            .unwrap();
        backend
            .put_doc("notes.json", "{\"unrelated\":true}")
            .unwrap();

        let report = backend.gc(Some(&[0xA]), &GcPolicy::default()).unwrap();
        assert_eq!(report.files_dropped, 1);
        assert!(backend.get_doc("done_seeds_0001.json").unwrap().is_some());
        assert!(backend.get_doc("done_balance_0002.json").unwrap().is_none());
        // A document that is not a marker is never GC'd.
        assert!(backend.get_doc("notes.json").unwrap().is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_drops_retired_ga_checkpoints() {
        let dir = temp_dir("jsonl-gc-checkpoints");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        // The checkpoint is bound to a live fingerprint: it goes anyway,
        // since nothing reads checkpoints any more.
        let checkpoint = super::super::seal_envelope("pmlp-nsga2-checkpoint", 2, 0xA, Vec::new())
            .render_pretty();
        let marker =
            super::super::seal_envelope("pmlp-campaign-marker", 1, 0xA, Vec::new()).render_pretty();
        for name in ["fig2_seeds_nsga2.json", "table_headline_nsga2.json"] {
            backend.put_doc(name, &checkpoint).unwrap();
        }
        backend.put_doc("done_seeds_0001.json", &marker).unwrap();
        backend
            .put_doc("notes.json", "{\"unrelated\":true}")
            .unwrap();
        backend
            .put_doc("mine_nsga2.json", "{\"magic\":\"something-else\"}")
            .unwrap();

        let report = backend.gc(Some(&[0xA]), &GcPolicy::default()).unwrap();
        assert_eq!(report.files_dropped, 2);
        assert_eq!(report.bytes_reclaimed, 2 * checkpoint.len() as u64);
        assert!(backend.get_doc("fig2_seeds_nsga2.json").unwrap().is_none());
        assert!(backend
            .get_doc("table_headline_nsga2.json")
            .unwrap()
            .is_none());
        assert!(backend.get_doc("done_seeds_0001.json").unwrap().is_some());
        assert!(backend.get_doc("notes.json").unwrap().is_some());
        // A document that only shares the name pattern stays.
        assert!(backend.get_doc("mine_nsga2.json").unwrap().is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_size_trigger_compacts_large_logs() {
        let dir = temp_dir("jsonl-gc-size");
        let backend = LocalJsonlBackend::open(&dir).unwrap();
        let r = record(3, 0.7, 30.0);
        for _ in 0..20 {
            backend.append("Seeds", 0xF00, &r).unwrap();
        }
        let path = backend.record_path("Seeds", 0xF00).unwrap();
        let before = fs::metadata(&path).unwrap().len();
        // Threshold below the current size forces the compaction.
        let policy = GcPolicy {
            compact_threshold_bytes: 1,
        };
        let report = backend.gc(Some(&[0xF00]), &policy).unwrap();
        assert_eq!(report.duplicates_merged, 19);
        assert!(fs::metadata(&path).unwrap().len() < before);
        fs::remove_dir_all(&dir).ok();
    }
}
