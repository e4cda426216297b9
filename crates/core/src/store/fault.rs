//! Deterministic fault injection for store backends — the test harness side
//! of the fault-tolerance layer.
//!
//! [`FaultBackend`] wraps any [`StoreBackend`] and makes operations fail on a
//! **seeded, reproducible schedule**: a hard outage switch ([`set_down`]) for
//! scripted kill/restart scenarios, and a per-mille failure rate drawn from a
//! xorshift generator for flaky-network chaos runs. Injected failures are
//! indistinguishable from real ones to the code under test
//! ([`CoreError::Store`]), and are counted so a test can assert that chaos
//! actually happened.
//!
//! This lives in the library (not `#[cfg(test)]`) because the chaos suite in
//! the umbrella crate and the serve integration tests both drive it.
//!
//! [`set_down`]: FaultBackend::set_down

use super::backend::{ResilienceStats, ScanOutcome, StoreBackend};
use crate::engine::EvalKey;
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A [`StoreBackend`] wrapper that injects failures deterministically.
pub struct FaultBackend {
    inner: Box<dyn StoreBackend>,
    down: AtomicBool,
    /// Per-1000 probability that an operation fails; 0 disables the
    /// randomized schedule (the `down` switch still applies).
    failure_per_mille: u16,
    rng: Mutex<u64>,
    injected: AtomicUsize,
}

impl std::fmt::Debug for FaultBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultBackend")
            .field("inner", &self.inner.describe())
            .field("down", &self.down)
            .field("failure_per_mille", &self.failure_per_mille)
            .finish()
    }
}

impl FaultBackend {
    /// Wraps `inner` with no faults scheduled: behaves identically to the
    /// wrapped backend until [`set_down`](Self::set_down) or a failure rate
    /// flips it.
    pub fn new(inner: Box<dyn StoreBackend>) -> Self {
        FaultBackend {
            inner,
            down: AtomicBool::new(false),
            failure_per_mille: 0,
            rng: Mutex::new(0x9E37_79B9_7F4A_7C15),
            injected: AtomicUsize::new(0),
        }
    }

    /// Schedules each operation to fail with probability
    /// `failure_per_mille / 1000`, drawn from a xorshift generator seeded
    /// with `seed` — the same seed yields the same fault schedule.
    pub fn with_failure_rate(mut self, failure_per_mille: u16, seed: u64) -> Self {
        self.failure_per_mille = failure_per_mille.min(1000);
        self.rng = Mutex::new(seed | 1);
        self
    }

    /// Hard outage switch: while `true`, every operation fails.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// How many failures this wrapper has injected so far.
    pub fn injected_faults(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consults the schedule; `Err` carries a recognizable context.
    fn gate(&self, what: &str) -> Result<(), CoreError> {
        let fail = self.down.load(Ordering::SeqCst) || self.roll();
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::Store {
                context: format!("injected fault during {what}"),
            });
        }
        Ok(())
    }

    /// One xorshift64 draw against the failure rate.
    fn roll(&self) -> bool {
        if self.failure_per_mille == 0 {
            return false;
        }
        let mut state = self.rng.lock().expect("fault rng lock");
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        (x % 1000) < u64::from(self.failure_per_mille)
    }
}

impl StoreBackend for FaultBackend {
    fn describe(&self) -> String {
        format!("fault-injecting ({})", self.inner.describe())
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        self.gate("scan")?;
        self.inner.scan(name, fingerprint)
    }

    fn get(
        &self,
        name: &str,
        fingerprint: u64,
        key: &EvalKey,
    ) -> Result<Option<EvalRecord>, CoreError> {
        self.gate("get")?;
        self.inner.get(name, fingerprint, key)
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        self.gate("append")?;
        self.inner.append(name, fingerprint, record)
    }

    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        self.gate("append_batch")?;
        self.inner.append_batch(name, fingerprint, records)
    }

    fn compact(&self, name: &str, fingerprint: u64) -> Result<usize, CoreError> {
        self.gate("compact")?;
        self.inner.compact(name, fingerprint)
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        self.gate("get_doc")?;
        self.inner.get_doc(name)
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        self.gate("put_doc")?;
        self.inner.put_doc(name, contents)
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        self.gate("remove_doc")?;
        self.inner.remove_doc(name)
    }

    fn record_path(&self, name: &str, fingerprint: u64) -> Option<std::path::PathBuf> {
        self.inner.record_path(name, fingerprint)
    }

    fn resilience(&self) -> Option<ResilienceStats> {
        self.inner.resilience()
    }

    fn flush(&self) -> Result<(), CoreError> {
        // Flush is not gated: tests that fault every append still expect the
        // durable tier underneath to flush what did land.
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::super::memory::MemoryBackend;
    use super::super::tests::record;
    use super::*;

    #[test]
    fn the_down_switch_fails_everything_and_counts() {
        let fault = FaultBackend::new(Box::new(MemoryBackend::new()));
        let r = record(3, 0.8, 40.0);
        fault.append("Seeds", 1, &r).unwrap();
        fault.set_down(true);
        assert!(fault.append("Seeds", 1, &r).is_err());
        assert!(fault.scan("Seeds", 1).is_err());
        assert_eq!(fault.injected_faults(), 2);
        fault.set_down(false);
        assert_eq!(fault.scan("Seeds", 1).unwrap().records, vec![r]);
    }

    #[test]
    fn the_seeded_schedule_is_reproducible() {
        let run = |seed| {
            let fault =
                FaultBackend::new(Box::new(MemoryBackend::new())).with_failure_rate(300, seed);
            let r = record(3, 0.8, 40.0);
            (0..64)
                .map(|_| fault.append("Seeds", 1, &r).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        assert_ne!(a, run(8), "different seed, different schedule");
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !ok));
    }

    #[test]
    fn a_zero_rate_injects_nothing() {
        let fault = FaultBackend::new(Box::new(MemoryBackend::new())).with_failure_rate(0, 3);
        let r = record(3, 0.8, 40.0);
        for _ in 0..32 {
            fault.append("Seeds", 1, &r).unwrap();
        }
        assert_eq!(fault.injected_faults(), 0);
    }
}
