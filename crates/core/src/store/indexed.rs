//! An in-memory record index over any [`StoreBackend`]: scans and point-gets
//! answer from RAM, appends write through to the inner tier and update the
//! index in place.
//!
//! This is the serve tier's read path: `pmlp-serve` fronts its durable
//! [`LocalJsonlBackend`](crate::store::LocalJsonlBackend) with one of these so
//! a record-log scan stops re-reading (and re-parsing) the whole JSONL file
//! on every request — the log is replayed **once** (at startup preload or on
//! first touch) and kept current by the appends that flow through it. The
//! index holds exactly what a scan would return, so responses are
//! bit-identical to the uncached path.
//!
//! Consistency: the map lock is held across the inner-tier call of every
//! record operation, so a cached log can never diverge from its file — an
//! append updates disk and index under one critical section (the inner
//! backend serializes appends per log anyway). External rewrites of the
//! directory (an offline `gc`) are the one thing the index cannot see; the
//! owner invalidates it explicitly ([`IndexedBackend::invalidate`]) after
//! such surgery.

use super::backend::{sanitize_name, ScanOutcome, StoreBackend};
use crate::engine::EvalKey;
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// One cached record log: the records in append order plus a key index
/// pointing at the last (= winning) record per key.
#[derive(Debug, Default)]
struct LogCache {
    records: Vec<EvalRecord>,
    index: HashMap<EvalKey, usize>,
    dropped: usize,
}

impl LogCache {
    fn from_outcome(outcome: ScanOutcome) -> Self {
        let mut cache = LogCache {
            index: HashMap::with_capacity(outcome.records.len()),
            records: outcome.records,
            dropped: outcome.dropped,
        };
        for (i, record) in cache.records.iter().enumerate() {
            cache.index.insert(record.key, i);
        }
        cache
    }

    fn push(&mut self, record: &EvalRecord) {
        self.index.insert(record.key, self.records.len());
        self.records.push(record.clone());
    }
}

/// The in-memory index tier: wraps any backend, keeps every touched record
/// log resident, and serves scans/gets without re-reading the inner tier.
pub struct IndexedBackend {
    inner: Box<dyn StoreBackend>,
    logs: Mutex<HashMap<(String, u64), LogCache>>,
}

impl std::fmt::Debug for IndexedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedBackend")
            .field("inner", &self.inner.describe())
            .finish()
    }
}

impl IndexedBackend {
    /// Wraps `inner` with an (initially empty) index; logs load lazily on
    /// first touch, or eagerly via [`IndexedBackend::warm`].
    pub fn new(inner: Box<dyn StoreBackend>) -> Self {
        IndexedBackend {
            inner,
            logs: Mutex::new(HashMap::new()),
        }
    }

    /// Loads the given `(shard label, fingerprint)` logs into the index now
    /// (a server does this once at startup, from
    /// [`list_record_logs`](super::list_record_logs)), returning how many
    /// records are resident afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when an inner scan fails.
    pub fn warm(&self, logs: &[(String, u64)]) -> Result<usize, CoreError> {
        let mut map = self.logs.lock().expect("index map lock");
        for (name, fingerprint) in logs {
            Self::load(&mut map, self.inner.as_ref(), name, *fingerprint)?;
        }
        Ok(map.values().map(|c| c.records.len()).sum())
    }

    /// Drops every cached log, forcing reloads from the inner tier — called
    /// after out-of-band surgery on the inner storage (an online GC pass
    /// rewrites log files underneath the index).
    pub fn invalidate(&self) {
        self.logs.lock().expect("index map lock").clear();
    }

    /// `(resident logs, resident records)` — observability for `/v1/stats`.
    pub fn resident(&self) -> (usize, usize) {
        let map = self.logs.lock().expect("index map lock");
        (map.len(), map.values().map(|c| c.records.len()).sum())
    }

    /// Ensures `(name, fingerprint)` is cached, loading it from the inner
    /// tier if needed. Call with the map lock held (the map *is* the lock's
    /// contents).
    fn load<'m>(
        map: &'m mut HashMap<(String, u64), LogCache>,
        inner: &dyn StoreBackend,
        name: &str,
        fingerprint: u64,
    ) -> Result<&'m mut LogCache, CoreError> {
        let key = (sanitize_name(name), fingerprint);
        if !map.contains_key(&key) {
            let outcome = inner.scan(name, fingerprint)?;
            map.insert(key.clone(), LogCache::from_outcome(outcome));
        }
        Ok(map.get_mut(&key).expect("cached log"))
    }
}

impl StoreBackend for IndexedBackend {
    fn describe(&self) -> String {
        format!("indexed {}", self.inner.describe())
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        let mut map = self.logs.lock().expect("index map lock");
        let cache = Self::load(&mut map, self.inner.as_ref(), name, fingerprint)?;
        Ok(ScanOutcome {
            records: cache.records.clone(),
            dropped: cache.dropped,
        })
    }

    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        let mut map = self.logs.lock().expect("index map lock");
        let cache = Self::load(&mut map, self.inner.as_ref(), name, fingerprint)?;
        Ok(cache.index.get(key).map(|&i| cache.records[i].clone()))
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        let mut map = self.logs.lock().expect("index map lock");
        let cache = Self::load(&mut map, self.inner.as_ref(), name, fingerprint)?;
        self.inner.append(name, fingerprint, record)?;
        cache.push(record);
        Ok(())
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
        let mut map = self.logs.lock().expect("index map lock");
        let cache = Self::load(&mut map, self.inner.as_ref(), name, fingerprint)?;
        self.inner.append_batch(name, fingerprint, records)?;
        for record in records {
            cache.push(record);
        }
        Ok(())
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        // The inner tier rewrites its log; drop the cached copy and reload
        // lazily so the index reflects the merged file.
        let mut map = self.logs.lock().expect("index map lock");
        let removed = self.inner.compact(name, fingerprint)?;
        map.remove(&(sanitize_name(name), fingerprint));
        Ok(removed)
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        self.inner.get_doc(name)
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        self.inner.put_doc(name, contents)
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        self.inner.remove_doc(name)
    }

    fn record_path(&self, name: &str, fingerprint: u64) -> Option<PathBuf> {
        self.inner.record_path(name, fingerprint)
    }

    fn resilience(&self) -> Option<super::backend::ResilienceStats> {
        self.inner.resilience()
    }

    fn flush(&self) -> Result<(), CoreError> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::super::jsonl::LocalJsonlBackend;
    use super::super::memory::MemoryBackend;
    use super::super::tests::{record, temp_dir};
    use super::*;

    #[test]
    fn scans_and_gets_answer_from_the_index_after_one_inner_read() {
        let dir = temp_dir("indexed-read");
        let inner = LocalJsonlBackend::open(&dir).unwrap();
        let a = record(3, 0.8, 40.0);
        let b = record(4, 0.9, 50.0);
        inner.append("Seeds", 7, &a).unwrap();
        inner.append("Seeds", 7, &b).unwrap();

        let indexed = IndexedBackend::new(Box::new(inner));
        assert_eq!(
            indexed.scan("Seeds", 7).unwrap().records,
            vec![a.clone(), b.clone()]
        );
        // Mangle the file behind the index's back: cached reads must not
        // notice (they no longer touch the file), proving they come from RAM.
        let path = indexed.record_path("Seeds", 7).unwrap();
        std::fs::write(&path, "gone").unwrap();
        assert_eq!(indexed.scan("Seeds", 7).unwrap().records.len(), 2);
        assert_eq!(indexed.get("Seeds", 7, &a.key).unwrap(), Some(a));
        // ...until invalidated.
        indexed.invalidate();
        assert_eq!(indexed.scan("Seeds", 7).unwrap().records.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_write_through_and_update_the_index() {
        let dir = temp_dir("indexed-append");
        let indexed = IndexedBackend::new(Box::new(LocalJsonlBackend::open(&dir).unwrap()));
        let a = record(3, 0.8, 40.0);
        let mut a2 = a.clone();
        a2.point.accuracy = 0.81;
        indexed.append("Seeds", 1, &a).unwrap();
        indexed
            .append_batch("Seeds", 1, &[a2.clone(), record(4, 0.9, 50.0)])
            .unwrap();
        // Last write wins in the index.
        assert_eq!(indexed.get("Seeds", 1, &a.key).unwrap(), Some(a2));
        assert_eq!(indexed.resident(), (1, 3));
        // The write-through is durable: a plain backend over the same
        // directory sees all three records.
        let plain = LocalJsonlBackend::open(&dir).unwrap();
        assert_eq!(plain.scan("Seeds", 1).unwrap().records.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_preloads_and_compact_reloads() {
        let inner = MemoryBackend::new();
        let a = record(3, 0.8, 40.0);
        inner.append("Seeds", 2, &a).unwrap();
        inner.append("Seeds", 2, &a).unwrap(); // duplicate
        inner.append("Wine", 3, &record(4, 0.9, 50.0)).unwrap();

        let indexed = IndexedBackend::new(Box::new(inner));
        let resident = indexed
            .warm(&[("seeds".into(), 2), ("wine".into(), 3)])
            .unwrap();
        assert_eq!(resident, 3);
        assert_eq!(indexed.compact("Seeds", 2).unwrap(), 1);
        assert_eq!(indexed.scan("Seeds", 2).unwrap().records, vec![a]);
        assert_eq!(indexed.resident(), (2, 2));
    }
}
