//! A [`StoreBackend`] wrapper that times and counts every call the engines
//! make into the store layer, recording a span around each.

use crate::trace;
use pmlp_core::store::{ResilienceStats, ScanOutcome, StoreBackend};
use pmlp_core::{CoreError, EvalKey, EvalRecord};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters of the store layer, as seen from its callers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreCounts {
    pub scans: u64,
    pub scan_s: f64,
    pub records_read: u64,
    pub appends: u64,
    pub append_s: f64,
    pub records_written: u64,
    pub docs_read: u64,
    pub docs_written: u64,
    pub doc_s: f64,
}

/// Nanosecond and event counters behind [`StoreCounts`].
#[derive(Default)]
struct Counters {
    scans: AtomicU64,
    scan_ns: AtomicU64,
    records_read: AtomicU64,
    appends: AtomicU64,
    append_ns: AtomicU64,
    records_written: AtomicU64,
    docs_read: AtomicU64,
    docs_written: AtomicU64,
    doc_ns: AtomicU64,
}

thread_local! {
    static BASELINE_DOCS_WRITTEN: Cell<u64> = const { Cell::new(0) };
}

/// Baseline characterization documents this thread has written through a
/// [`CountingStore`]. `train_cached` writes one only after it had to train,
/// so a change across the call tells a trained baseline from a loaded one.
pub fn baseline_docs_written_here() -> u64 {
    BASELINE_DOCS_WRITTEN.with(Cell::get)
}

/// Wraps the backend engines are handed, so every scan, append and document
/// operation is counted and timed.
pub struct CountingStore {
    inner: Box<dyn StoreBackend>,
    counters: Counters,
}

impl CountingStore {
    pub fn new(inner: Box<dyn StoreBackend>) -> Self {
        CountingStore {
            inner,
            counters: Counters::default(),
        }
    }

    pub fn counts(&self) -> StoreCounts {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
        StoreCounts {
            scans: load(&c.scans),
            scan_s: secs(&c.scan_ns),
            records_read: load(&c.records_read),
            appends: load(&c.appends),
            append_s: secs(&c.append_ns),
            records_written: load(&c.records_written),
            docs_read: load(&c.docs_read),
            docs_written: load(&c.docs_written),
            doc_s: secs(&c.doc_ns),
        }
    }

    /// Runs `f` inside a span, adding its duration to `clock` and one to
    /// `count`.
    fn timed<T>(
        &self,
        name: &'static str,
        count: &AtomicU64,
        clock: &AtomicU64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = trace::span(name, f);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        clock.fetch_add(nanos, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
        value
    }
}

impl StoreBackend for CountingStore {
    fn describe(&self) -> String {
        format!("counting({})", self.inner.describe())
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        let c = &self.counters;
        let outcome = self.timed("store.scan", &c.scans, &c.scan_ns, || {
            self.inner.scan(name, fingerprint)
        })?;
        c.records_read
            .fetch_add(outcome.records.len() as u64, Ordering::Relaxed);
        Ok(outcome)
    }

    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        let c = &self.counters;
        let record = self.timed("store.scan", &c.scans, &c.scan_ns, || {
            self.inner.get(name, fingerprint, key)
        })?;
        c.records_read
            .fetch_add(u64::from(record.is_some()), Ordering::Relaxed);
        Ok(record)
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        let c = &self.counters;
        self.timed("store.append", &c.appends, &c.append_ns, || {
            self.inner.append(name, fingerprint, record)
        })?;
        c.records_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        let c = &self.counters;
        self.timed("store.append", &c.appends, &c.append_ns, || {
            self.inner.append_batch(name, fingerprint, records)
        })?;
        c.records_written
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        self.inner.compact(name, fingerprint)
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        let c = &self.counters;
        self.timed("store.doc", &c.docs_read, &c.doc_ns, || {
            self.inner.get_doc(name)
        })
    }

    fn get_doc_fresh(&self, name: &str) -> Result<Option<String>, CoreError> {
        let c = &self.counters;
        self.timed("store.doc", &c.docs_read, &c.doc_ns, || {
            self.inner.get_doc_fresh(name)
        })
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        let c = &self.counters;
        if name.starts_with("baseline_") {
            BASELINE_DOCS_WRITTEN.with(|n| n.set(n.get() + 1));
        }
        self.timed("store.doc", &c.docs_written, &c.doc_ns, || {
            self.inner.put_doc(name, contents)
        })
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        let c = &self.counters;
        self.timed("store.doc", &c.docs_written, &c.doc_ns, || {
            self.inner.remove_doc(name)
        })
    }

    fn list_docs(&self, prefix: &str) -> Result<Vec<String>, CoreError> {
        let c = &self.counters;
        self.timed("store.doc", &c.docs_read, &c.doc_ns, || {
            self.inner.list_docs(prefix)
        })
    }

    fn record_path(&self, name: &str, fingerprint: u64) -> Option<PathBuf> {
        self.inner.record_path(name, fingerprint)
    }

    fn resilience(&self) -> Option<ResilienceStats> {
        self.inner.resilience()
    }

    fn flush(&self) -> Result<(), CoreError> {
        self.inner.flush()
    }
}
