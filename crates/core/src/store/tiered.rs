//! Local-over-remote composition: the local tier is a write-through cache of
//! a shared remote evaluation-cache server.
//!
//! * **scan** replays the local tier, then merges in every remote record the
//!   local tier is missing — and writes those through to the local tier, so
//!   the cache fills itself on first contact;
//! * **append** always lands locally first (the durable tier a crashed
//!   campaign resumes from), then on the remote tier so other workers
//!   inherit it;
//! * **documents** (cached baselines, completion markers) read local-first
//!   with a remote fallback (cached locally on hit) and write through to
//!   both.
//!
//! # Circuit breaker and replay journal
//!
//! The remote tier is optional at runtime, guarded by a circuit breaker:
//!
//! ```text
//!                     remote failure
//!   CLOSED ──────────────────────────────────▶ OPEN
//!     ▲                                          │ cooldown elapses
//!     │ probe succeeds                           ▼
//!     └────────────────────────────────────── HALF-OPEN
//!                 probe fails ──▶ back to OPEN
//! ```
//!
//! While the breaker is **open** no remote traffic happens at all — a killed
//! server degrades a running campaign to exactly the behavior of a local
//! store, it never fails it. Once the cooldown elapses the next operation is
//! allowed through as a **half-open probe**: success closes the breaker
//! (the server rejoined, e.g. after a restart), failure re-opens it for
//! another cooldown.
//!
//! Writes attempted while the remote is unreachable are **journaled**
//! (appends, document puts and removes, in order) and replayed the moment a
//! probe succeeds, so a server that was down for a stretch of the campaign
//! still ends up with every record — nothing is silently lost. The journal
//! is bounded; in an extended outage the oldest entries are evicted (and
//! counted) — the local tier remains the durable copy of everything.

use super::backend::{ResilienceStats, ScanOutcome, StoreBackend};
use crate::engine::EvalKey;
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counters of one tiered store's remote traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TieredStats {
    /// Records fetched from the remote tier that the local tier was missing
    /// (each was written through to the local cache).
    pub remote_fills: usize,
    /// Records appended to the remote tier (including journal replays).
    pub remote_appends: usize,
    /// Remote operations that failed. While the breaker is open no traffic
    /// is attempted, so a dead server costs one failure per probe cycle, not
    /// one per operation.
    pub remote_failures: usize,
}

/// How long the breaker stays open before the next operation is allowed
/// through as a half-open probe, unless [`TieredStore::with_cooldown`] says
/// otherwise.
const DEFAULT_COOLDOWN: Duration = Duration::from_secs(1);

/// Most journal entries retained during an outage (an entry is one append
/// batch or one document write). Beyond this the oldest entries are evicted
/// and counted — the local tier still holds every record durably.
const JOURNAL_CAP: usize = 4096;

/// Circuit-breaker state (see the module docs for the transition diagram).
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    /// Remote traffic flows.
    Closed,
    /// Remote traffic shunned until the cooldown deadline.
    Open { until: Instant },
    /// One probe operation is in flight; `since` lets a replacement probe
    /// through if the first one never reports back.
    HalfOpen { since: Instant },
}

/// One write the remote tier missed, replayed in order on reconnect.
#[derive(Debug, Clone)]
enum JournalEntry {
    Append {
        name: String,
        fingerprint: u64,
        records: Vec<EvalRecord>,
    },
    PutDoc {
        name: String,
        contents: String,
    },
    RemoveDoc {
        name: String,
    },
}

impl JournalEntry {
    /// How many records (or documents) this entry carries, for the counters.
    fn record_count(&self) -> usize {
        match self {
            JournalEntry::Append { records, .. } => records.len(),
            JournalEntry::PutDoc { .. } | JournalEntry::RemoveDoc { .. } => 1,
        }
    }
}

/// The two-tier composition: a local write-through cache over a shared
/// remote tier, with a circuit breaker (open / half-open / closed) and a
/// replay journal covering remote outages.
pub struct TieredStore {
    local: Box<dyn StoreBackend>,
    remote: Box<dyn StoreBackend>,
    breaker: Mutex<BreakerState>,
    cooldown: Duration,
    journal: Mutex<VecDeque<JournalEntry>>,
    warned: AtomicBool,
    remote_fills: AtomicUsize,
    remote_appends: AtomicUsize,
    remote_failures: AtomicUsize,
    breaker_opens: AtomicUsize,
    breaker_recoveries: AtomicUsize,
    journaled_records: AtomicUsize,
    replayed_records: AtomicUsize,
    journal_dropped: AtomicUsize,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("local", &self.local.describe())
            .field("remote", &self.remote.describe())
            .field("breaker", &*self.breaker.lock().expect("breaker lock"))
            .finish()
    }
}

impl TieredStore {
    /// Composes `local` (write-through cache) over `remote` (shared tier)
    /// with the default 1 s breaker cooldown.
    pub fn new(local: Box<dyn StoreBackend>, remote: Box<dyn StoreBackend>) -> Self {
        Self::with_cooldown(local, remote, DEFAULT_COOLDOWN)
    }

    /// [`TieredStore::new`] with an explicit breaker cooldown: how long the
    /// breaker stays open before the next operation is allowed through as a
    /// half-open probe.
    pub fn with_cooldown(
        local: Box<dyn StoreBackend>,
        remote: Box<dyn StoreBackend>,
        cooldown: Duration,
    ) -> Self {
        TieredStore {
            local,
            remote,
            breaker: Mutex::new(BreakerState::Closed),
            cooldown,
            journal: Mutex::new(VecDeque::new()),
            warned: AtomicBool::new(false),
            remote_fills: AtomicUsize::new(0),
            remote_appends: AtomicUsize::new(0),
            remote_failures: AtomicUsize::new(0),
            breaker_opens: AtomicUsize::new(0),
            breaker_recoveries: AtomicUsize::new(0),
            journaled_records: AtomicUsize::new(0),
            replayed_records: AtomicUsize::new(0),
            journal_dropped: AtomicUsize::new(0),
        }
    }

    /// `true` while the circuit breaker is closed (remote traffic flows).
    /// `false` once the store degraded to local-only — it flips back to
    /// `true` when a half-open probe finds the server again.
    pub fn remote_healthy(&self) -> bool {
        matches!(
            *self.breaker.lock().expect("breaker lock"),
            BreakerState::Closed
        )
    }

    /// Remote-traffic counters.
    pub fn stats(&self) -> TieredStats {
        TieredStats {
            remote_fills: self.remote_fills.load(Ordering::Relaxed),
            remote_appends: self.remote_appends.load(Ordering::Relaxed),
            remote_failures: self.remote_failures.load(Ordering::Relaxed),
        }
    }

    /// Journal entries currently waiting for the remote to rejoin.
    pub fn journal_len(&self) -> usize {
        self.journal.lock().expect("journal lock").len()
    }

    /// Decides whether this operation may touch the remote tier. Closed:
    /// yes. Open: no, unless the cooldown elapsed — then this operation
    /// becomes the half-open probe. Half-open: no (a probe is in flight),
    /// unless the probe itself went silent for a whole cooldown.
    fn acquire_remote(&self) -> bool {
        let mut state = self.breaker.lock().expect("breaker lock");
        let now = Instant::now();
        match *state {
            BreakerState::Closed => true,
            BreakerState::Open { until } if now >= until => {
                *state = BreakerState::HalfOpen { since: now };
                true
            }
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen { since } if now.duration_since(since) >= self.cooldown => {
                *state = BreakerState::HalfOpen { since: now };
                true
            }
            BreakerState::HalfOpen { .. } => false,
        }
    }

    /// Records a successful remote operation: closes the breaker (a
    /// half-open probe found the server) and replays the journal.
    fn report_remote_success(&self) {
        {
            let mut state = self.breaker.lock().expect("breaker lock");
            if !matches!(*state, BreakerState::Closed) {
                *state = BreakerState::Closed;
                self.breaker_recoveries.fetch_add(1, Ordering::Relaxed);
                let pending = self.journal_len();
                eprintln!(
                    "remote store {} rejoined; replaying {pending} journaled write(s)",
                    self.remote.describe()
                );
            }
        }
        self.drain_journal();
    }

    /// Records a failed remote operation: counts it and opens the breaker.
    /// The remote client already retries transient errors internally, so
    /// one surfaced failure means a whole retry budget was exhausted (and a
    /// failed half-open probe re-opens just the same). Warns once per store
    /// instance.
    fn report_remote_failure(&self, what: &str, err: &CoreError) {
        self.remote_failures.fetch_add(1, Ordering::Relaxed);
        *self.breaker.lock().expect("breaker lock") = BreakerState::Open {
            until: Instant::now() + self.cooldown,
        };
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: remote store {} failed during {what} ({err}); circuit breaker open — \
                 continuing on the local write-through cache, journaling writes, probing again \
                 after {:?}",
                self.remote.describe(),
                self.cooldown
            );
        }
    }

    /// Queues a write the remote tier missed, evicting (and counting) the
    /// oldest entry when the journal is full.
    fn journal_push(&self, entry: JournalEntry) {
        self.journaled_records
            .fetch_add(entry.record_count(), Ordering::Relaxed);
        let mut journal = self.journal.lock().expect("journal lock");
        if journal.len() >= JOURNAL_CAP {
            if let Some(evicted) = journal.pop_front() {
                self.journal_dropped
                    .fetch_add(evicted.record_count(), Ordering::Relaxed);
            }
        }
        journal.push_back(entry);
    }

    /// Replays journaled writes against the (just rejoined) remote tier in
    /// order. A replay failure puts the entry back at the front and re-opens
    /// the breaker; the rest of the journal waits for the next probe.
    fn drain_journal(&self) {
        loop {
            let entry = {
                let mut journal = self.journal.lock().expect("journal lock");
                match journal.pop_front() {
                    Some(entry) => entry,
                    None => return,
                }
            };
            let result = match &entry {
                JournalEntry::Append {
                    name,
                    fingerprint,
                    records,
                } => self.remote.append_batch(name, *fingerprint, records),
                JournalEntry::PutDoc { name, contents } => self.remote.put_doc(name, contents),
                JournalEntry::RemoveDoc { name } => self.remote.remove_doc(name),
            };
            match result {
                Ok(()) => {
                    let count = entry.record_count();
                    self.replayed_records.fetch_add(count, Ordering::Relaxed);
                    if let JournalEntry::Append { .. } = entry {
                        self.remote_appends.fetch_add(count, Ordering::Relaxed);
                    }
                }
                Err(err) => {
                    self.journal.lock().expect("journal lock").push_front(entry);
                    self.report_remote_failure("journal replay", &err);
                    return;
                }
            }
        }
    }

    /// Runs a remote write under the breaker: skipped-or-failed writes are
    /// journaled for replay (never lost), successes close the breaker and
    /// drain the journal. `entry` is built lazily — the success path never
    /// clones the records.
    fn remote_write(
        &self,
        what: &str,
        op: impl FnOnce() -> Result<(), CoreError>,
        entry: impl FnOnce() -> JournalEntry,
    ) {
        if !self.acquire_remote() {
            self.journal_push(entry());
            return;
        }
        match op() {
            Ok(()) => self.report_remote_success(),
            Err(err) => {
                self.journal_push(entry());
                self.report_remote_failure(what, &err);
            }
        }
    }
}

impl StoreBackend for TieredStore {
    fn describe(&self) -> String {
        format!(
            "tiered ({} over {})",
            self.local.describe(),
            self.remote.describe()
        )
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        // The local tier is authoritative for this process: its failure is a
        // real error. The remote tier adds the records the local tier is
        // missing, including any whose local copy was damaged and dropped.
        let mut outcome = self.local.scan(name, fingerprint)?;
        if self.acquire_remote() {
            match self.remote.scan(name, fingerprint) {
                Ok(remote) => {
                    let have: HashSet<EvalKey> = outcome.records.iter().map(|r| r.key).collect();
                    for record in remote.records {
                        if !have.contains(&record.key) {
                            // Write-through cache fill: a record seen remotely
                            // is replayed locally on the next (offline) run too.
                            self.local.append(name, fingerprint, &record)?;
                            self.remote_fills.fetch_add(1, Ordering::Relaxed);
                            outcome.records.push(record);
                        }
                    }
                    self.report_remote_success();
                }
                Err(err) => self.report_remote_failure("scan", &err),
            }
        }
        Ok(outcome)
    }

    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        if let Some(record) = self.local.get(name, fingerprint, key)? {
            return Ok(Some(record));
        }
        if self.acquire_remote() {
            match self.remote.get(name, fingerprint, key) {
                Ok(Some(record)) => {
                    self.local.append(name, fingerprint, &record)?;
                    self.remote_fills.fetch_add(1, Ordering::Relaxed);
                    self.report_remote_success();
                    return Ok(Some(record));
                }
                Ok(None) => self.report_remote_success(),
                Err(err) => self.report_remote_failure("get", &err),
            }
        }
        Ok(None)
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        self.local.append(name, fingerprint, record)?;
        self.remote_write(
            "append",
            || {
                self.remote.append(name, fingerprint, record)?;
                self.remote_appends.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            || JournalEntry::Append {
                name: name.to_string(),
                fingerprint,
                records: vec![record.clone()],
            },
        );
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
        self.local.append_batch(name, fingerprint, records)?;
        self.remote_write(
            "append_batch",
            || {
                self.remote.append_batch(name, fingerprint, records)?;
                self.remote_appends
                    .fetch_add(records.len(), Ordering::Relaxed);
                Ok(())
            },
            || JournalEntry::Append {
                name: name.to_string(),
                fingerprint,
                records: records.to_vec(),
            },
        );
        Ok(())
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        // Compaction is a local storage concern; the server compacts its own
        // tier on its own schedule.
        self.local.compact(name, fingerprint)
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        if let Some(doc) = self.local.get_doc(name)? {
            return Ok(Some(doc));
        }
        if self.acquire_remote() {
            match self.remote.get_doc(name) {
                Ok(Some(doc)) => {
                    self.local.put_doc(name, &doc)?;
                    self.report_remote_success();
                    return Ok(Some(doc));
                }
                Ok(None) => self.report_remote_success(),
                Err(err) => self.report_remote_failure("get_doc", &err),
            }
        }
        Ok(None)
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        self.local.put_doc(name, contents)?;
        self.remote_write(
            "put_doc",
            || self.remote.put_doc(name, contents),
            || JournalEntry::PutDoc {
                name: name.to_string(),
                contents: contents.to_string(),
            },
        );
        Ok(())
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        self.local.remove_doc(name)?;
        self.remote_write(
            "remove_doc",
            || self.remote.remove_doc(name),
            || JournalEntry::RemoveDoc {
                name: name.to_string(),
            },
        );
        Ok(())
    }

    fn record_path(&self, name: &str, fingerprint: u64) -> Option<std::path::PathBuf> {
        self.local.record_path(name, fingerprint)
    }

    fn resilience(&self) -> Option<ResilienceStats> {
        let own = ResilienceStats {
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_recoveries: self.breaker_recoveries.load(Ordering::Relaxed),
            journaled_records: self.journaled_records.load(Ordering::Relaxed),
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            journal_dropped: self.journal_dropped.load(Ordering::Relaxed),
            ..ResilienceStats::default()
        };
        let remote = self.remote.resilience().unwrap_or_default();
        let local = self.local.resilience().unwrap_or_default();
        Some(own.merge(remote).merge(local))
    }

    fn flush(&self) -> Result<(), CoreError> {
        self.local.flush()?;
        // An explicit flush is a deliberate synchronization point (end of a
        // campaign, server shutdown): give journaled writes one last chance
        // to reach the remote tier even if the breaker's cooldown has not
        // elapsed, by forcing the next replay attempt into a half-open
        // probe. Remote failure stays non-fatal — the records are already
        // durable in the local tier, and the journal keeps them for any
        // later probe.
        if self.journal_len() > 0 {
            {
                let mut state = self.breaker.lock().expect("breaker lock");
                if !matches!(*state, BreakerState::Closed) {
                    *state = BreakerState::HalfOpen {
                        since: Instant::now(),
                    };
                }
            }
            self.drain_journal();
            if self.journal_len() == 0 {
                self.report_remote_success();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::memory::MemoryBackend;
    use super::super::tests::record;
    use super::*;
    use std::sync::Arc;

    /// A remote stand-in with an outage switch that starts down: while down,
    /// every record and document operation fails like an unreachable server.
    struct FaultBackend {
        inner: Box<dyn StoreBackend>,
        down: AtomicBool,
    }

    impl FaultBackend {
        fn down(inner: impl StoreBackend + 'static) -> Self {
            FaultBackend {
                inner: Box::new(inner),
                down: AtomicBool::new(true),
            }
        }

        fn set_down(&self, down: bool) {
            self.down.store(down, Ordering::SeqCst);
        }

        fn gate(&self) -> Result<(), CoreError> {
            if self.down.load(Ordering::SeqCst) {
                return Err(CoreError::Store {
                    context: "injected outage".into(),
                });
            }
            Ok(())
        }
    }

    impl StoreBackend for FaultBackend {
        fn describe(&self) -> String {
            format!("fault-injecting ({})", self.inner.describe())
        }
        fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
            self.gate()?;
            self.inner.scan(name, fingerprint)
        }
        fn append(
            &self,
            name: &str,
            fingerprint: u64,
            record: &EvalRecord,
        ) -> Result<(), CoreError> {
            self.gate()?;
            self.inner.append(name, fingerprint, record)
        }
        fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
            self.gate()?;
            self.inner.get_doc(name)
        }
        fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
            self.gate()?;
            self.inner.put_doc(name, contents)
        }
        fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
            self.gate()?;
            self.inner.remove_doc(name)
        }
    }

    #[test]
    fn scan_merges_remote_records_and_fills_the_local_cache() {
        let local = MemoryBackend::new();
        let remote = MemoryBackend::new();
        let shared = record(3, 0.8, 40.0);
        let remote_only = record(4, 0.9, 50.0);
        local.append("Seeds", 1, &shared).unwrap();
        remote.append("Seeds", 1, &shared).unwrap();
        remote.append("Seeds", 1, &remote_only).unwrap();

        let tiered = TieredStore::new(Box::new(local), Box::new(remote));
        let outcome = tiered.scan("Seeds", 1).unwrap();
        assert_eq!(outcome.records, vec![shared.clone(), remote_only.clone()]);
        assert_eq!(tiered.stats().remote_fills, 1);

        // The fill is durable: a second scan finds it locally.
        let outcome = tiered.scan("Seeds", 1).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(tiered.stats().remote_fills, 1, "no re-fill");
    }

    #[test]
    fn scan_refills_a_damaged_local_record_from_the_remote() {
        use crate::store::tests::{line_with_blob, temp_dir};
        use crate::store::{record_line, LocalJsonlBackend};
        let dir = temp_dir("tiered-refill");
        let (kept, damaged) = (record(3, 0.8, 40.0), record(4, 0.9, 50.0));
        let local = LocalJsonlBackend::open(&dir).unwrap();
        local.append("Seeds", 1, &kept).unwrap();
        local.append("Seeds", 1, &damaged).unwrap();
        let path = local.record_path("Seeds", 1).unwrap();
        drop(local);
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text.replace(
            &record_line(&damaged),
            &line_with_blob(&damaged, Some("!corrupt!")),
        );
        std::fs::write(&path, text).unwrap();
        let remote = MemoryBackend::new();
        remote.append("Seeds", 1, &kept).unwrap();
        remote.append("Seeds", 1, &damaged).unwrap();

        let tiered = TieredStore::new(
            Box::new(LocalJsonlBackend::open(&dir).unwrap()),
            Box::new(remote),
        );
        let outcome = tiered.scan("Seeds", 1).unwrap();
        assert_eq!(outcome.dropped, 1, "the damaged local line is counted");
        assert_eq!(outcome.records, vec![kept.clone(), damaged.clone()]);
        assert_eq!(tiered.stats().remote_fills, 1, "only the damaged record");

        // The fill is durable: a fresh local tier replays the intact copy.
        let outcome = LocalJsonlBackend::open(&dir)
            .unwrap()
            .scan("Seeds", 1)
            .unwrap();
        assert_eq!((outcome.records, outcome.dropped), (vec![kept, damaged], 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_write_through_to_both_tiers() {
        let tiered = TieredStore::new(
            Box::new(MemoryBackend::new()),
            Box::new(MemoryBackend::new()),
        );
        let r = record(3, 0.8, 40.0);
        tiered.append("Seeds", 1, &r).unwrap();
        assert_eq!(tiered.stats().remote_appends, 1);
        assert_eq!(
            tiered.local.scan("Seeds", 1).unwrap().records,
            vec![r.clone()]
        );
        assert_eq!(tiered.remote.scan("Seeds", 1).unwrap().records, vec![r]);
    }

    #[test]
    fn a_dead_remote_degrades_to_local_only_without_failing() {
        let local = MemoryBackend::new();
        let r = record(3, 0.8, 40.0);
        local.append("Seeds", 1, &r).unwrap();
        let dead = FaultBackend::down(MemoryBackend::new());
        let tiered = TieredStore::new(Box::new(local), Box::new(dead));

        // Scan survives, opens the breaker, serves local records.
        let outcome = tiered.scan("Seeds", 1).unwrap();
        assert_eq!(outcome.records, vec![r.clone()]);
        assert!(!tiered.remote_healthy());

        // Later operations never touch the dead tier while the breaker's
        // cooldown (default 1s, far beyond this test) is pending — but their
        // writes are journaled for replay instead of being lost.
        tiered.append("Seeds", 1, &record(4, 0.9, 50.0)).unwrap();
        tiered.put_doc("m.json", "body").unwrap();
        assert_eq!(tiered.get_doc("m.json").unwrap().as_deref(), Some("body"));
        tiered.remove_doc("m.json").unwrap();
        assert_eq!(
            tiered.stats().remote_failures,
            1,
            "exactly one probe failed"
        );
        assert_eq!(tiered.journal_len(), 3, "append + put_doc + remove_doc");
        let resilience = tiered.resilience().unwrap();
        assert_eq!(resilience.breaker_opens, 1);
        assert_eq!(resilience.journaled_records, 3);
        assert_eq!(resilience.replayed_records, 0);
    }

    #[test]
    fn a_recovered_remote_is_rejoined_and_the_journal_replays_in_order() {
        let remote_inner = Arc::new(MemoryBackend::new());
        let remote = Arc::new(FaultBackend::down(Arc::clone(&remote_inner)));
        let tiered = TieredStore::with_cooldown(
            Box::new(MemoryBackend::new()),
            Box::new(Arc::clone(&remote)),
            Duration::ZERO,
        );

        // Writes during the outage land locally and journal for the remote.
        let a = record(3, 0.8, 40.0);
        let b = record(4, 0.9, 50.0);
        tiered.append("Seeds", 1, &a).unwrap();
        tiered
            .append_batch("Seeds", 1, std::slice::from_ref(&b))
            .unwrap();
        tiered.put_doc("marker.json", "done").unwrap();
        assert!(!tiered.remote_healthy());
        assert_eq!(tiered.journal_len(), 3);
        assert_eq!(remote_inner.record_count(), 0, "server saw nothing yet");

        // Server comes back; the next operation is the half-open probe.
        // Cooldown is zero, so it goes through immediately, succeeds, closes
        // the breaker and replays the journal in order.
        remote.set_down(false);
        let c = record(5, 0.7, 30.0);
        tiered.append("Seeds", 1, &c).unwrap();
        assert!(tiered.remote_healthy(), "breaker must close on success");
        assert_eq!(tiered.journal_len(), 0, "journal fully replayed");
        let server_records = remote_inner.scan("Seeds", 1).unwrap().records;
        let keys: Vec<_> = server_records.iter().map(|r| r.key).collect();
        assert!(keys.contains(&a.key) && keys.contains(&b.key) && keys.contains(&c.key));
        assert_eq!(
            remote_inner.get_doc("marker.json").unwrap().as_deref(),
            Some("done")
        );
        let resilience = tiered.resilience().unwrap();
        assert!(resilience.breaker_opens >= 1);
        assert_eq!(resilience.breaker_recoveries, 1);
        assert_eq!(resilience.journaled_records, 3);
        assert_eq!(resilience.replayed_records, 3);
    }

    #[test]
    fn a_failed_probe_reopens_the_breaker_and_keeps_the_journal() {
        let tiered = TieredStore::with_cooldown(
            Box::new(MemoryBackend::new()),
            Box::new(FaultBackend::down(MemoryBackend::new())),
            Duration::ZERO,
        );
        tiered.append("Seeds", 1, &record(3, 0.8, 40.0)).unwrap();
        assert!(!tiered.remote_healthy());
        // Still down: every probe fails, the journal never shrinks (the
        // failed probe's own append joins it instead).
        tiered.append("Seeds", 1, &record(4, 0.9, 50.0)).unwrap();
        assert!(!tiered.remote_healthy());
        assert_eq!(tiered.journal_len(), 2);
        assert!(tiered.resilience().unwrap().breaker_opens >= 2);
    }

    #[test]
    fn docs_fall_back_to_the_remote_tier_and_cache_locally() {
        let local = MemoryBackend::new();
        let remote = MemoryBackend::new();
        remote.put_doc("marker.json", "remote-body").unwrap();
        let tiered = TieredStore::new(Box::new(local), Box::new(remote));

        assert_eq!(
            tiered.get_doc("marker.json").unwrap().as_deref(),
            Some("remote-body")
        );
        // Cached locally now.
        assert_eq!(
            tiered.local.get_doc("marker.json").unwrap().as_deref(),
            Some("remote-body")
        );
        assert_eq!(tiered.get_doc("absent.json").unwrap(), None);
    }

    #[test]
    fn put_doc_reaches_both_tiers() {
        let tiered = TieredStore::new(
            Box::new(MemoryBackend::new()),
            Box::new(MemoryBackend::new()),
        );
        tiered.put_doc("m.json", "x").unwrap();
        assert_eq!(
            tiered.local.get_doc("m.json").unwrap().as_deref(),
            Some("x")
        );
        assert_eq!(
            tiered.remote.get_doc("m.json").unwrap().as_deref(),
            Some("x")
        );
        tiered.remove_doc("m.json").unwrap();
        assert_eq!(tiered.remote.get_doc("m.json").unwrap(), None);
    }
}
