//! In-process [`StoreBackend`]: a synchronized map, no I/O.
//!
//! Used by tests that need store semantics without touching disk, and by the
//! `pmlp-serve` server as its default (non-persistent) state.

use super::backend::{check_doc_name, sanitize_name, ScanOutcome, StoreBackend};
use crate::engine::EvalKey;
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::collections::HashMap;
use std::sync::Mutex;

/// The in-memory tier: record logs and documents in two synchronized maps.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    records: Mutex<HashMap<(String, u64), Vec<EvalRecord>>>,
    docs: Mutex<HashMap<String, String>>,
}

impl MemoryBackend {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total records across every `(name, fingerprint)` log.
    pub fn record_count(&self) -> usize {
        self.records
            .lock()
            .expect("memory records lock")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Number of distinct `(name, fingerprint)` record logs.
    pub fn log_count(&self) -> usize {
        self.records.lock().expect("memory records lock").len()
    }

    /// Number of stored documents.
    pub fn doc_count(&self) -> usize {
        self.docs.lock().expect("memory docs lock").len()
    }

    /// Every `(shard label, fingerprint)` log currently held, sorted.
    pub fn logs(&self) -> Vec<(String, u64)> {
        let mut logs: Vec<(String, u64)> = self
            .records
            .lock()
            .expect("memory records lock")
            .keys()
            .cloned()
            .collect();
        logs.sort();
        logs
    }
}

impl StoreBackend for MemoryBackend {
    fn describe(&self) -> String {
        "in-memory store".into()
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        let records = self
            .records
            .lock()
            .expect("memory records lock")
            .get(&(sanitize_name(name), fingerprint))
            .cloned()
            .unwrap_or_default();
        Ok(ScanOutcome {
            records,
            dropped: 0,
        })
    }

    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        Ok(self
            .records
            .lock()
            .expect("memory records lock")
            .get(&(sanitize_name(name), fingerprint))
            .and_then(|log| log.iter().rev().find(|r| r.key == *key).cloned()))
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        self.records
            .lock()
            .expect("memory records lock")
            .entry((sanitize_name(name), fingerprint))
            .or_default()
            .push(record.clone());
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
        self.records
            .lock()
            .expect("memory records lock")
            .entry((sanitize_name(name), fingerprint))
            .or_default()
            .extend_from_slice(records);
        Ok(())
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        let mut map = self.records.lock().expect("memory records lock");
        let Some(log) = map.get_mut(&(sanitize_name(name), fingerprint)) else {
            return Ok(0);
        };
        let (merged, removed) = super::backend::merge_duplicate_keys(std::mem::take(log));
        *log = merged;
        Ok(removed)
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        check_doc_name(name)?;
        Ok(self
            .docs
            .lock()
            .expect("memory docs lock")
            .get(name)
            .cloned())
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        check_doc_name(name)?;
        self.docs
            .lock()
            .expect("memory docs lock")
            .insert(name.to_string(), contents.to_string());
        Ok(())
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        check_doc_name(name)?;
        self.docs.lock().expect("memory docs lock").remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::record;
    use super::*;

    #[test]
    fn records_round_trip_per_name_and_fingerprint() {
        let backend = MemoryBackend::new();
        let a = record(3, 0.8, 40.0);
        backend.append("Seeds", 1, &a).unwrap();
        backend.append("Seeds", 2, &record(4, 0.9, 50.0)).unwrap();
        assert_eq!(backend.scan("Seeds", 1).unwrap().records, vec![a.clone()]);
        assert_eq!(backend.scan("seeds", 1).unwrap().records, vec![a.clone()]);
        assert_eq!(backend.scan("Seeds", 3).unwrap().records, Vec::new());
        assert_eq!(backend.get("Seeds", 1, &a.key).unwrap(), Some(a));
        assert_eq!(backend.record_count(), 2);
        assert_eq!(backend.log_count(), 2);
    }

    #[test]
    fn compaction_keeps_the_last_write_per_key() {
        let backend = MemoryBackend::new();
        let a = record(3, 0.8, 40.0);
        let mut a2 = a.clone();
        a2.point.accuracy = 0.85;
        backend.append("Seeds", 1, &a).unwrap();
        backend.append("Seeds", 1, &a2).unwrap();
        assert_eq!(backend.compact("Seeds", 1).unwrap(), 1);
        assert_eq!(backend.scan("Seeds", 1).unwrap().records, vec![a2]);
        assert_eq!(backend.compact("Seeds", 1).unwrap(), 0);
        assert_eq!(backend.compact("Other", 9).unwrap(), 0);
    }

    #[test]
    fn docs_round_trip() {
        let backend = MemoryBackend::new();
        assert_eq!(backend.get_doc("m.json").unwrap(), None);
        backend.put_doc("m.json", "body").unwrap();
        assert_eq!(backend.get_doc("m.json").unwrap().as_deref(), Some("body"));
        assert_eq!(backend.doc_count(), 1);
        backend.remove_doc("m.json").unwrap();
        assert_eq!(backend.get_doc("m.json").unwrap(), None);
        assert!(backend.put_doc("../x", "body").is_err());
    }
}
