//! The [`StoreBackend`] trait: one interface every persistence tier of the
//! evaluation store implements.
//!
//! Records are content-addressed: the pair `(baseline fingerprint,
//! [`EvalKey`])` fully identifies an evaluation, and the dataset name is a
//! human-readable shard label (it selects the record log a fingerprint's
//! records live in, but carries no scientific meaning — the fingerprint does).
//! Backends also store small named *documents* (cached baselines, campaign
//! completion markers), so every artifact a resumable run produces travels
//! through the same abstraction — and therefore works identically against a
//! local directory, an in-memory test store, a remote `pmlp-serve` instance
//! or a tiered composition of the three.

use crate::engine::EvalKey;
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::path::PathBuf;

/// What a backend replayed for one `(name, fingerprint)` record log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanOutcome {
    /// Every surviving record, in append order.
    pub records: Vec<EvalRecord>,
    /// Records that had to be dropped (truncated tail, garbled line).
    pub dropped: usize,
}

/// Fault-tolerance counters a backend accumulated over its lifetime:
/// retries against a remote tier, circuit-breaker transitions, and the
/// replay journal that guarantees no append is silently lost while a remote
/// is down. All zeros for purely local backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Remote request attempts beyond the first (bounded-backoff retries).
    pub remote_retries: usize,
    /// Operations that ultimately failed with a *transient* error
    /// (connect/timeout/reset/5xx) after exhausting their retry budget.
    pub transient_errors: usize,
    /// Operations rejected with a *permanent* error (4xx, protocol garbage)
    /// — never retried, dropped on the spot.
    pub permanent_errors: usize,
    /// Circuit-breaker transitions into the open (remote shunned) state.
    pub breaker_opens: usize,
    /// Circuit-breaker recoveries (half-open probe succeeded, remote
    /// rejoined).
    pub breaker_recoveries: usize,
    /// Records and documents captured by the replay journal while the remote
    /// was unreachable.
    pub journaled_records: usize,
    /// Journal entries successfully replayed to a rejoined remote.
    pub replayed_records: usize,
    /// Journal entries evicted because the journal hit its capacity bound
    /// during an extended outage (the local tier still holds them).
    pub journal_dropped: usize,
}

impl ResilienceStats {
    /// Field-wise sum of two counter sets (e.g. a tiered store's own breaker
    /// counters merged with its remote client's retry counters).
    #[must_use]
    pub fn merge(self, other: ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            remote_retries: self.remote_retries + other.remote_retries,
            transient_errors: self.transient_errors + other.transient_errors,
            permanent_errors: self.permanent_errors + other.permanent_errors,
            breaker_opens: self.breaker_opens + other.breaker_opens,
            breaker_recoveries: self.breaker_recoveries + other.breaker_recoveries,
            journaled_records: self.journaled_records + other.journaled_records,
            replayed_records: self.replayed_records + other.replayed_records,
            journal_dropped: self.journal_dropped + other.journal_dropped,
        }
    }
}

/// A persistence tier of the evaluation store.
///
/// Implementations in this workspace:
///
/// * [`LocalJsonlBackend`](crate::store::LocalJsonlBackend) — the append-only
///   JSONL directory (the historical [`EvalStore`](crate::store::EvalStore)
///   format, bit-for-bit),
/// * [`MemoryBackend`](crate::store::MemoryBackend) — an in-process map, for
///   tests and for the `pmlp-serve` server's default state,
/// * [`RemoteBackend`](crate::store::RemoteBackend) — an HTTP/1.1 client for
///   a `pmlp-serve` instance,
/// * [`TieredStore`](crate::store::TieredStore) — local-as-write-through
///   cache composed over a remote tier.
///
/// All methods are `&self`: backends are internally synchronized and shared
/// by every worker thread of an engine.
pub trait StoreBackend: Send + Sync {
    /// Human-readable location of this backend, for logs and stats.
    fn describe(&self) -> String;

    /// Replays every record stored under `(name, fingerprint)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage cannot be read.
    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError>;

    /// Fetches the record for one key, `None` when it was never stored.
    ///
    /// The default implementation scans; backends that can look one key up
    /// directly override it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage cannot be read.
    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        Ok(self
            .scan(name, fingerprint)?
            .records
            .into_iter()
            .rev()
            .find(|record| record.key == *key))
    }

    /// Appends one record under `(name, fingerprint)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the record cannot be persisted.
    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError>;

    /// Appends many records under `(name, fingerprint)` as one logical batch.
    ///
    /// Backends whose append carries fixed per-call overhead override this to
    /// pay that overhead once per batch: the local tier turns a batch into a
    /// single flushed write, the remote tier into a single HTTP `POST`. The
    /// default loops [`StoreBackend::append`], so correctness never depends
    /// on the override — only throughput does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the records cannot be persisted; a
    /// failed batch may have been partially applied (replay compaction and
    /// last-write-wins merging make partial batches harmless).
    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        for record in records {
            self.append(name, fingerprint, record)?;
        }
        Ok(())
    }

    /// Merges duplicate keys in the `(name, fingerprint)` record log (last
    /// write wins), returning how many records were removed. A no-op for
    /// backends without duplicate storage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the log cannot be rewritten.
    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        let _ = (name, fingerprint);
        Ok(0)
    }

    /// Reads a named document (cached baseline, completion marker); `None`
    /// when it does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage fails (a missing
    /// document is `Ok(None)`, not an error).
    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError>;

    /// Same as [`StoreBackend::get_doc`]. No backend in the workspace
    /// overrides it and nothing calls it; it stays declared only because
    /// the out-of-workspace `perfbench` package overrides it, and goes with
    /// the next change allowed to touch `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage fails (a
    /// missing document is `Ok(None)`, not an error).
    fn get_doc_fresh(&self, name: &str) -> Result<Option<String>, CoreError> {
        self.get_doc(name)
    }

    /// Writes (atomically replacing) a named document.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the document cannot be committed.
    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError>;

    /// Deletes a named document; deleting a missing document is not an error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage fails.
    fn remove_doc(&self, name: &str) -> Result<(), CoreError>;

    /// Returns an empty list. No backend in the workspace overrides it and
    /// nothing calls it; it stays declared only because the out-of-workspace
    /// `perfbench` package overrides it, and goes with the next change
    /// allowed to touch `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage cannot be read.
    fn list_docs(&self, prefix: &str) -> Result<Vec<String>, CoreError> {
        let _ = prefix;
        Ok(Vec::new())
    }

    /// Filesystem path of the `(name, fingerprint)` record log, for backends
    /// that have one (`None` for memory and remote tiers).
    fn record_path(&self, name: &str, fingerprint: u64) -> Option<PathBuf> {
        let _ = (name, fingerprint);
        None
    }

    /// Fault-tolerance counters of this backend, `None` for tiers that have
    /// no remote leg (and therefore nothing to retry or journal).
    fn resilience(&self) -> Option<ResilienceStats> {
        None
    }

    /// Forces buffered state down to durable storage (fsync of cached append
    /// handles). A no-op for tiers without buffered file handles; called on
    /// graceful server shutdown and by explicit durability policies.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backing storage fails to sync.
    fn flush(&self) -> Result<(), CoreError> {
        Ok(())
    }
}

/// Shared tiers: one backend instance (and its internal state — degraded
/// remotes, cached append handles, counters) can serve many owners through
/// an `Arc`.
impl<T: StoreBackend + ?Sized> StoreBackend for std::sync::Arc<T> {
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        (**self).scan(name, fingerprint)
    }
    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        (**self).get(name, fingerprint, key)
    }
    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        (**self).append(name, fingerprint, record)
    }
    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        (**self).append_batch(name, fingerprint, records)
    }
    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        (**self).compact(name, fingerprint)
    }
    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        (**self).get_doc(name)
    }
    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        (**self).put_doc(name, contents)
    }
    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        (**self).remove_doc(name)
    }
    fn record_path(&self, name: &str, fingerprint: u64) -> Option<PathBuf> {
        (**self).record_path(name, fingerprint)
    }
    fn resilience(&self) -> Option<ResilienceStats> {
        (**self).resilience()
    }
    fn flush(&self) -> Result<(), CoreError> {
        (**self).flush()
    }
}

/// Keeps the **last** record per key (later appends supersede earlier ones),
/// preserving first-appearance order; returns the merged records and how
/// many duplicates were removed. The single merge policy every backend's
/// `compact` shares.
pub(crate) fn merge_duplicate_keys(records: Vec<EvalRecord>) -> (Vec<EvalRecord>, usize) {
    let mut order: Vec<EvalKey> = Vec::new();
    let mut latest: std::collections::HashMap<EvalKey, EvalRecord> =
        std::collections::HashMap::new();
    let total = records.len();
    for record in records {
        if !latest.contains_key(&record.key) {
            order.push(record.key);
        }
        latest.insert(record.key, record);
    }
    let merged: Vec<EvalRecord> = order
        .into_iter()
        .map(|key| latest.remove(&key).expect("ordered key"))
        .collect();
    let removed = total - merged.len();
    (merged, removed)
}

/// `true` when `name` is safe to use as a document / shard label on every
/// backend: non-empty, no path separators, no parent-directory escapes, only
/// characters that survive both a filesystem and a URL path segment.
pub fn safe_component(name: &str) -> bool {
    !name.is_empty()
        && name != "."
        && name != ".."
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Canonical shard label of a dataset name: lowercase, spaces and slashes
/// replaced, so `"Red Wine"` and `"red-wine"` address the same record log on
/// every backend.
pub fn sanitize_name(name: &str) -> String {
    name.to_lowercase().replace([' ', '/'], "-")
}

/// Validates a document name, returning a [`CoreError::Store`] for anything
/// that could escape the store's namespace.
///
/// # Errors
///
/// Returns [`CoreError::Store`] when the name is empty or contains path
/// separators / parent references / non-portable characters.
pub fn check_doc_name(name: &str) -> Result<(), CoreError> {
    if safe_component(name) {
        Ok(())
    } else {
        Err(CoreError::Store {
            context: format!("unsafe document name `{name}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_components_reject_path_escapes() {
        assert!(safe_component("done_seeds_0123abcd.json"));
        assert!(safe_component("fig2_whitewine_nsga2.json"));
        assert!(!safe_component(""));
        assert!(!safe_component(".."));
        assert!(!safe_component("a/b"));
        assert!(!safe_component("a\\b"));
        assert!(!safe_component("a b"));
    }

    #[test]
    fn sanitized_names_are_safe() {
        assert_eq!(sanitize_name("Red Wine"), "red-wine");
        assert_eq!(sanitize_name("GasId"), "gasid");
        assert!(safe_component(&sanitize_name("Red Wine")));
        assert!(check_doc_name("done_x.json").is_ok());
        assert!(check_doc_name("../evil").is_err());
    }
}
