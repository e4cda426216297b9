//! The shared evaluation engine: one memoizing, parallel path through which
//! every search, sweep and experiment scores candidate configurations.
//!
//! The inner loop of the paper — fine-tune a minimized candidate, synthesize
//! its bespoke circuit, report the (accuracy, area) pair — dominates total
//! runtime. [`EvalEngine`] makes that loop fast and shared:
//!
//! * it **owns** the trained [`BaselineDesign`] (dataset splits, float model,
//!   baseline circuit) so drivers no longer juggle borrowed contexts,
//! * a **sharded memo cache** keyed by the canonicalized
//!   [`MinimizationConfig`] makes every configuration pay its evaluation cost
//!   exactly once per engine, across sweeps, GA generations and experiments,
//! * **in-flight deduplication** guarantees that concurrent workers asking
//!   for the same configuration never evaluate it twice — later arrivals
//!   block on the first evaluation and reuse its result,
//! * a **stage memo** shares the prune and cluster fine-tuning stages among
//!   configurations that start with the same stages (every GA candidate with
//!   sparsity 0.4 reuses one pruned model); the same in-flight machinery
//!   coalesces concurrent requests for a stage,
//! * [`EvalEngine::evaluate_batch`] fans a whole population out over the
//!   worker threads,
//! * a **progress hook** ([`EvalEngine::with_progress`]) reports every
//!   completed evaluation, so long experiment runs can surface liveness.
//!
//! Anything that scores configurations should accept `&impl` [`Evaluator`]
//! rather than a concrete engine, which keeps searches testable against
//! closed-form mock evaluators.
//!
//! # Example
//!
//! ```no_run
//! use pmlp_core::engine::{EvalEngine, Evaluator};
//! use pmlp_data::UciDataset;
//! use pmlp_minimize::MinimizationConfig;
//!
//! # fn main() -> Result<(), pmlp_core::CoreError> {
//! let engine = EvalEngine::train(UciDataset::Seeds, 42)?.with_fine_tune_epochs(4);
//! let point = engine.evaluate(&MinimizationConfig::default().with_weight_bits(4))?;
//! println!("area gain {:.2}x", point.area_gain());
//! // A second request for the same configuration is a cache hit.
//! let again = engine.evaluate(&MinimizationConfig::default().with_weight_bits(4))?;
//! assert_eq!(point, again);
//! assert_eq!(engine.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::baseline::{BaselineConfig, BaselineDesign};
use crate::bridge::{synthesize_area, SynthesisSummary};
use crate::error::CoreError;
use crate::objective::{evaluate_staged, DesignPoint, EvaluatedDesign, EvaluationContext};
use crate::store::{EvalArtifacts, EvalRecord, EvalStore, StoreBackend};
use pmlp_data::UciDataset;
use pmlp_minimize::{sparsity_millis, MinimizationConfig, MinimizeError, StageMemo, StageOutput};
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Anything that can score a [`MinimizationConfig`] against a baseline.
///
/// [`EvalEngine`] is the production implementation; tests can substitute
/// closed-form mocks to exercise search logic without training networks.
pub trait Evaluator: Sync {
    /// Evaluates a single configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when minimization or synthesis fails.
    fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError>;

    /// Evaluates a batch of configurations, by default sequentially; the
    /// engine overrides this with a parallel implementation.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError`] encountered.
    fn evaluate_batch(
        &self,
        configs: &[MinimizationConfig],
    ) -> Result<Vec<DesignPoint>, CoreError> {
        configs.iter().map(|c| self.evaluate(c)).collect()
    }
}

/// Canonical cache identity of a configuration under a fixed engine setup.
///
/// Sparsity is snapped to a 1e-3 grid (matching the genome encoding) so that
/// float noise cannot split logically identical configurations into distinct
/// cache entries. This is also the persistent identity of an evaluation in
/// the on-disk [`EvalStore`]. The accuracy tier is not part of it: it belongs
/// to the baseline, whose fingerprint already separates the record logs of
/// different tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// Quantization bit-width (0 = quantization disabled).
    pub weight_bits: u8,
    /// Sparsity snapped to the 1e-3 grid (`u32::MAX` = pruning disabled).
    pub sparsity_millis: u32,
    /// Clusters per input (0 = clustering disabled).
    pub clusters: usize,
    /// Input bit-width of the bespoke circuit.
    pub input_bits: u8,
    /// Fine-tuning budget the candidate was evaluated under.
    pub fine_tune_epochs: usize,
    /// RNG salt of the evaluation (see [`EvalEngine::with_salt`]).
    pub salt: u64,
}

impl EvalKey {
    fn new(
        config: &MinimizationConfig,
        input_bits: u8,
        fine_tune_epochs: usize,
        salt: u64,
    ) -> Self {
        EvalKey {
            weight_bits: config.weight_bits.unwrap_or(0),
            sparsity_millis: config.sparsity.map(sparsity_millis).unwrap_or(u32::MAX),
            clusters: config.clusters_per_input.unwrap_or(0),
            input_bits,
            fine_tune_epochs,
            salt,
        }
    }

    /// FNV-1a over the key fields; used only for shard selection.
    fn shard_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(u64::from(self.weight_bits));
        mix(u64::from(self.sparsity_millis));
        mix(self.clusters as u64);
        mix(u64::from(self.input_bits));
        mix(self.fine_tune_epochs as u64);
        mix(self.salt);
        h
    }
}

/// Identity of one memoized prune or cluster stage output: the canonical
/// prefix configuration (which carries the fine-tuning budget and input
/// precision) and the pipeline seed. The seed is the baseline seed xor the
/// engine's salt, so stages computed before a [`EvalEngine::with_salt`] or
/// [`EvalEngine::with_fine_tune_epochs`] never match a request made after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StageKey {
    weight_bits: u8,
    sparsity_millis: u32,
    clusters: usize,
    input_bits: u8,
    fine_tune_epochs: usize,
    seed: u64,
}

impl StageKey {
    fn new(prefix: &MinimizationConfig, seed: u64) -> Self {
        StageKey {
            weight_bits: prefix.weight_bits.unwrap_or(0),
            sparsity_millis: prefix.sparsity.map(sparsity_millis).unwrap_or(u32::MAX),
            clusters: prefix.clusters_per_input.unwrap_or(0),
            input_bits: prefix.input_bits,
            fine_tune_epochs: prefix.fine_tune_epochs,
            seed,
        }
    }
}

/// A pending computation that concurrent requesters can wait on.
struct InFlight<T> {
    result: Mutex<Option<T>>,
    done: Condvar,
}

impl<T> InFlight<T> {
    fn new() -> Arc<Self> {
        Arc::new(InFlight {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, value: T) {
        *self.result.lock().expect("in-flight lock") = Some(value);
        self.done.notify_all();
    }
}

impl<T: Clone> InFlight<T> {
    fn wait(&self) -> T {
        let mut guard = self.result.lock().expect("in-flight lock");
        while guard.is_none() {
            guard = self.done.wait(guard).expect("in-flight wait");
        }
        guard.as_ref().expect("filled").clone()
    }
}

/// One memo entry: a finished value, or the computation producing it.
enum Slot<T, E> {
    Done(T),
    Pending(Arc<InFlight<Result<T, E>>>),
}

/// A memo map that [`resolve`] fills at most once per key.
type Memo<K, T, E> = Mutex<HashMap<K, Slot<T, E>>>;

/// How [`resolve`] answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// From a finished entry.
    Hit,
    /// By waiting on a concurrent computation of the same key.
    Coalesced,
    /// By computing it here, successfully or not.
    Computed,
}

/// Looks `key` up in `memo`, computing it at most once across threads: a
/// finished entry is returned, a concurrent computation of the same key is
/// waited on, and otherwise `compute` runs and its result is handed to every
/// waiter. Errors are not cached, so a later request recomputes. If
/// `compute` panics, its pending entry is removed and its waiters receive
/// `panicked()` instead of blocking forever; the panic then continues.
fn resolve<K, T, E>(
    memo: &Memo<K, T, E>,
    key: K,
    compute: impl FnOnce() -> Result<T, E>,
    panicked: fn() -> E,
) -> (Result<T, E>, Answer)
where
    K: Copy + Eq + Hash,
    T: Clone,
    E: Clone,
{
    /// Unwind guard: if `compute` panics, the pending slot must not stay in
    /// the memo (it would wedge every later request for this key) and the
    /// waiters must be released rather than block on a condvar that will
    /// never be signalled.
    struct ReleaseOnUnwind<'a, K: Eq + Hash, T, E> {
        memo: &'a Memo<K, T, E>,
        key: K,
        pending: &'a InFlight<Result<T, E>>,
        panicked: fn() -> E,
        armed: bool,
    }
    impl<K: Eq + Hash, T, E> Drop for ReleaseOnUnwind<'_, K, T, E> {
        fn drop(&mut self) {
            if self.armed {
                if let Ok(mut guard) = self.memo.lock() {
                    guard.remove(&self.key);
                }
                self.pending.fill(Err((self.panicked)()));
            }
        }
    }

    let pending = {
        let mut guard = memo.lock().expect("memo lock");
        match guard.get(&key) {
            Some(Slot::Done(value)) => return (Ok(value.clone()), Answer::Hit),
            Some(Slot::Pending(pending)) => {
                let pending = Arc::clone(pending);
                drop(guard);
                return (pending.wait(), Answer::Coalesced);
            }
            None => {
                let pending = InFlight::new();
                guard.insert(key, Slot::Pending(Arc::clone(&pending)));
                pending
            }
        }
    };
    let mut unwind_guard = ReleaseOnUnwind {
        memo,
        key,
        pending: &pending,
        panicked,
        armed: true,
    };
    let outcome = compute();
    unwind_guard.armed = false;
    {
        let mut guard = memo.lock().expect("memo lock");
        match &outcome {
            Ok(value) => {
                guard.insert(key, Slot::Done(value.clone()));
            }
            Err(_) => {
                guard.remove(&key);
            }
        }
    }
    pending.fill(outcome.clone());
    (outcome, Answer::Computed)
}

/// The engine's prune and cluster stage outputs, shared by every
/// configuration evaluated through it.
#[derive(Default)]
struct StageCache {
    memo: Memo<StageKey, Arc<StageOutput>, MinimizeError>,
    runs: AtomicUsize,
    reused: AtomicUsize,
}

impl StageMemo for StageCache {
    fn stage(
        &self,
        prefix: &MinimizationConfig,
        seed: u64,
        compute: &mut dyn FnMut() -> Result<StageOutput, MinimizeError>,
    ) -> Result<Arc<StageOutput>, MinimizeError> {
        let (outcome, answer) = resolve(
            &self.memo,
            StageKey::new(prefix, seed),
            || compute().map(Arc::new),
            || MinimizeError::InvalidConfig {
                context: "minimization stage panicked; see stderr for the panic message".into(),
            },
        );
        let counter = match answer {
            Answer::Computed => &self.runs,
            Answer::Hit | Answer::Coalesced => &self.reused,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome
    }
}

/// A resolved cache entry: the scored point plus the artifacts finalization
/// needs (integer layers + sharing strategy), computed in this process or
/// loaded from the store with the point.
#[derive(Debug, Clone)]
struct CachedEval {
    point: DesignPoint,
    artifacts: Arc<EvalArtifacts>,
}

/// Snapshot of the engine's cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Evaluations answered from the memo cache.
    pub hits: usize,
    /// Evaluations that ran the full minimize-and-synthesize pipeline.
    pub misses: usize,
    /// Evaluations that blocked on a concurrent in-flight computation of the
    /// same configuration instead of recomputing it.
    pub coalesced: usize,
    /// Number of distinct configurations currently cached.
    pub entries: usize,
    /// Finalist verifications ([`EvalEngine::finalize`]) that ran full
    /// gate-level synthesis. Computed evaluations (`misses`) are all costed
    /// by the analytic fast path.
    pub full_synthesis: usize,
    /// Entries preloaded from the persistent evaluation store when the engine
    /// was constructed with [`EvalEngine::with_store`] /
    /// [`EvalEngine::with_backend`].
    pub warmed: usize,
    /// Prune and cluster fine-tuning stages this engine ran. Each distinct
    /// stage runs once; configurations that start with it reuse its output.
    pub stage_runs: usize,
    /// Stage requests answered from the stage memo or by waiting on a
    /// concurrent run of the same stage.
    pub stage_reuses: usize,
    /// Store appends (single or batched) that failed outright — the engine
    /// warns and continues, degrading persistence to this process's
    /// lifetime.
    pub store_append_failures: usize,
    /// Fault-tolerance counters aggregated from the backing store's tiers
    /// (retries, circuit-breaker transitions, journal replays); all zeros
    /// when no store is attached or the backend does not track them.
    pub store_resilience: crate::store::ResilienceStats,
}

impl EngineStats {
    /// Fraction of requests served without running the pipeline, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }
}

/// Progress report handed to the [`EvalEngine::with_progress`] callback after
/// every completed evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalProgress {
    /// The configuration that just resolved.
    pub config: MinimizationConfig,
    /// Whether it was answered from the cache (or coalesced onto an in-flight
    /// evaluation) rather than computed.
    pub cached: bool,
    /// Total requests resolved by this engine so far.
    pub resolved: usize,
}

type ProgressFn = dyn Fn(EvalProgress) + Send + Sync;

/// The shared, memoizing, parallel evaluation engine.
///
/// See the [module documentation](self) for the full picture.
pub struct EvalEngine {
    baseline: BaselineDesign,
    fine_tune_epochs: usize,
    salt: u64,
    shards: Box<[Memo<EvalKey, CachedEval, CoreError>]>,
    stages: StageCache,
    hits: AtomicUsize,
    misses: AtomicUsize,
    coalesced: AtomicUsize,
    full_synthesis: AtomicUsize,
    warmed: usize,
    store_append_failures: AtomicUsize,
    store: Option<EvalStore>,
    /// Records computed inside an [`EvalEngine::evaluate_batch`] call, held
    /// back so the whole batch lands in the store as **one** append — over a
    /// remote tier that is one request instead of hundreds.
    batch_buffer: Mutex<Vec<EvalRecord>>,
    /// How many `evaluate_batch` calls are currently on the stack (across
    /// threads); the last one out flushes the buffer.
    batch_depth: AtomicUsize,
    progress: Option<Box<ProgressFn>>,
}

impl std::fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("dataset", &self.baseline.dataset)
            .field("fine_tune_epochs", &self.fine_tune_epochs)
            .field("salt", &self.salt)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default fine-tuning budget per candidate, matching the historical
/// `EvaluationContext::new` default.
const DEFAULT_FINE_TUNE_EPOCHS: usize = 8;

/// Default shard count: enough to keep lock contention negligible at the
/// worker counts this workload sees.
const DEFAULT_SHARDS: usize = 16;

impl EvalEngine {
    /// Wraps an already-trained baseline.
    pub fn new(baseline: BaselineDesign) -> Self {
        let shards = (0..DEFAULT_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        EvalEngine {
            baseline,
            fine_tune_epochs: DEFAULT_FINE_TUNE_EPOCHS,
            salt: 0,
            shards,
            stages: StageCache::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            coalesced: AtomicUsize::new(0),
            full_synthesis: AtomicUsize::new(0),
            warmed: 0,
            store_append_failures: AtomicUsize::new(0),
            store: None,
            batch_buffer: Mutex::new(Vec::new()),
            batch_depth: AtomicUsize::new(0),
            progress: None,
        }
    }

    /// Trains the baseline for `dataset` with the default budget and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training and synthesis errors.
    pub fn train(dataset: UciDataset, seed: u64) -> Result<Self, CoreError> {
        Ok(Self::new(BaselineDesign::train(dataset, seed)?))
    }

    /// Trains the baseline with an explicit budget and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training and synthesis errors.
    pub fn train_with(
        dataset: UciDataset,
        seed: u64,
        config: &BaselineConfig,
    ) -> Result<Self, CoreError> {
        Ok(Self::new(BaselineDesign::train_with(
            dataset, seed, config,
        )?))
    }

    /// Same as [`EvalEngine::train_with`] with a baseline characterization
    /// cache in `backend` (see [`BaselineDesign::train_cached`]): a cache hit
    /// skips full-precision training and reference synthesis. The backend
    /// only serves the baseline cache here — attach it for evaluations too
    /// with [`EvalEngine::with_backend`].
    ///
    /// # Errors
    ///
    /// Propagates dataset, training, synthesis and store-write errors.
    pub fn train_cached(
        dataset: UciDataset,
        seed: u64,
        config: &BaselineConfig,
        backend: Option<&dyn StoreBackend>,
    ) -> Result<Self, CoreError> {
        Ok(Self::new(BaselineDesign::train_cached(
            dataset, seed, config, backend,
        )?))
    }

    /// Overrides the per-candidate fine-tuning budget.
    ///
    /// The budget is part of the cache key, so results obtained under a
    /// different budget are never mixed up.
    #[must_use]
    pub fn with_fine_tune_epochs(mut self, epochs: usize) -> Self {
        self.fine_tune_epochs = epochs;
        self
    }

    /// Perturbs the fine-tuning RNG of every evaluation (part of the cache
    /// key). Distinct salts give statistically independent re-measurements of
    /// the same configurations.
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Attaches the persistent evaluation store under `dir` (the local JSONL
    /// backend): the engine warm-starts its in-memory cache from the store's
    /// record log for this baseline (see [`EvalEngine::fingerprint`]) and
    /// appends every cache miss it computes from now on, so later processes
    /// inherit the results.
    ///
    /// All of [`EvalKey`]'s fields travel with each record, so entries
    /// written under other fine-tuning budgets or salts coexist in the same
    /// file and simply never match; changing the *baseline* (dataset, seed,
    /// training budget, accuracy tier) changes the fingerprint and selects a
    /// different file entirely.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the store directory or record log
    /// cannot be opened.
    #[must_use = "with_store returns the engine"]
    pub fn with_store(self, dir: &Path) -> Result<Self, CoreError> {
        let backend = crate::store::LocalJsonlBackend::open(dir)?;
        self.with_backend(Box::new(backend))
    }

    /// Attaches any persistence tier — local directory, in-memory store,
    /// remote `pmlp-serve` client or a [tiered](crate::store::TieredStore)
    /// composition (see [`crate::store::open_backend`]). Warm-starts the
    /// in-memory cache from the backend's records for this baseline and
    /// appends every computed miss.
    ///
    /// Every record carries its [finalization artifacts](EvalArtifacts), so
    /// [`EvalEngine::finalize`] of a warmed entry runs gate-level synthesis
    /// directly instead of re-running minimization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backend cannot be scanned.
    #[must_use = "with_backend returns the engine"]
    pub fn with_backend(mut self, backend: Box<dyn StoreBackend>) -> Result<Self, CoreError> {
        let mut store = EvalStore::with_backend(
            backend,
            &self.baseline.dataset.to_string(),
            self.fingerprint(),
        )?;
        let records = store.warm_start();
        self.warmed = records.len();
        for record in records {
            let shard = self.shard_for(&record.key);
            shard.lock().expect("shard lock").insert(
                record.key,
                Slot::Done(CachedEval {
                    point: record.point,
                    artifacts: Arc::new(record.artifacts),
                }),
            );
        }
        self.store = Some(store);
        Ok(self)
    }

    /// Stable identity of this engine's baseline, used to bind persistent
    /// store files to the exact reference design (see
    /// [`BaselineDesign::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.baseline.fingerprint()
    }

    /// The persistent store this engine appends to, when one is attached.
    pub fn store(&self) -> Option<&EvalStore> {
        self.store.as_ref()
    }

    /// Installs a progress callback invoked after every resolved evaluation.
    #[must_use]
    pub fn with_progress(
        mut self,
        callback: impl Fn(EvalProgress) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// The baseline every evaluation is normalized against.
    pub fn baseline(&self) -> &BaselineDesign {
        &self.baseline
    }

    /// The per-candidate fine-tuning budget.
    pub fn fine_tune_epochs(&self) -> usize {
        self.fine_tune_epochs
    }

    /// Current cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock").len())
                .sum(),
            full_synthesis: self.full_synthesis.load(Ordering::Relaxed),
            warmed: self.warmed,
            stage_runs: self.stages.runs.load(Ordering::Relaxed),
            stage_reuses: self.stages.reused.load(Ordering::Relaxed),
            store_append_failures: self.store_append_failures.load(Ordering::Relaxed),
            store_resilience: self
                .store
                .as_ref()
                .and_then(|s| s.backend().resilience())
                .unwrap_or_default(),
        }
    }

    /// Drops every cached result and memoized stage (counters are kept), so
    /// the next evaluations run cold.
    pub fn clear_cache(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("shard lock").clear();
        }
        self.stages.memo.lock().expect("stage memo lock").clear();
    }

    fn shard_for(&self, key: &EvalKey) -> &Memo<EvalKey, CachedEval, CoreError> {
        &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize]
    }

    fn report_progress(&self, config: &MinimizationConfig, cached: bool) {
        if let Some(callback) = &self.progress {
            let resolved = self.hits.load(Ordering::Relaxed)
                + self.misses.load(Ordering::Relaxed)
                + self.coalesced.load(Ordering::Relaxed);
            callback(EvalProgress {
                config: *config,
                cached,
                resolved,
            });
        }
    }

    /// Evaluates `config`, reporting whether the result came from the cache.
    ///
    /// This is the primitive behind [`Evaluator::evaluate`]; searches that
    /// track their own evaluation counts (e.g. NSGA-II generation statistics)
    /// use the `cached` flag.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when minimization or synthesis fails. Errors are
    /// not cached; a later retry re-runs the pipeline.
    pub fn evaluate_with_status(
        &self,
        config: &MinimizationConfig,
    ) -> Result<(DesignPoint, bool), CoreError> {
        self.resolve_entry(config)
            .map(|(entry, cached)| (entry.point, cached))
    }

    /// [`EvalEngine::evaluate_with_status`] returning the whole cache entry.
    fn resolve_entry(&self, config: &MinimizationConfig) -> Result<(CachedEval, bool), CoreError> {
        let key = self.key(config);
        let (outcome, answer) = resolve(
            self.shard_for(&key),
            key,
            || {
                self.compute(config).map(|detailed| CachedEval {
                    point: detailed.point,
                    artifacts: Arc::new(EvalArtifacts {
                        layers: detailed.layers,
                        sharing: detailed.sharing,
                    }),
                })
            },
            || CoreError::InvalidConfig {
                context: "evaluation panicked; see stderr for the panic message".into(),
            },
        );
        match answer {
            Answer::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            Answer::Coalesced => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            Answer::Computed => {
                if let (Some(store), Ok(entry)) = (&self.store, &outcome) {
                    self.persist(store, key, entry);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cached = answer != Answer::Computed;
        self.report_progress(config, cached);
        outcome.map(|entry| (entry, cached))
    }

    /// The cache key of `config` under this engine's setup.
    fn key(&self, config: &MinimizationConfig) -> EvalKey {
        EvalKey::new(
            config,
            self.baseline.input_bits,
            self.fine_tune_epochs,
            self.salt,
        )
    }

    /// Runs the pipeline for `config`, sharing stages through the memo.
    fn compute(&self, config: &MinimizationConfig) -> Result<EvaluatedDesign, CoreError> {
        let ctx =
            EvaluationContext::new(&self.baseline).with_fine_tune_epochs(self.fine_tune_epochs);
        evaluate_staged(&ctx, config, self.salt, &self.stages)
    }

    /// Persists a fresh result — layers included, so a later process can
    /// finalize it without re-minimizing. A failing append degrades the
    /// store to this process's lifetime but never fails a search.
    fn persist(&self, store: &EvalStore, key: EvalKey, entry: &CachedEval) {
        let record = EvalRecord {
            key,
            point: entry.point.clone(),
            artifacts: entry.artifacts.as_ref().clone(),
        };
        if self.batch_depth.load(Ordering::Acquire) > 0 {
            // Inside evaluate_batch: hold the record back so the whole batch
            // flushes as one append at the boundary.
            self.batch_buffer
                .lock()
                .expect("batch buffer lock")
                .push(record);
        } else if let Err(err) = store.append(&record) {
            self.store_append_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: {err}");
        }
    }
}

/// A Pareto-front finalist re-verified through full gate-level synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalizedDesign {
    /// The design point the search produced (fast-path numbers).
    pub point: DesignPoint,
    /// The full-synthesis summary of the same minimized layers.
    pub full: SynthesisSummary,
    /// `true` when full synthesis reproduced the search-time area, power,
    /// critical-path delay and gate count exactly — which it must, since the
    /// fast path tallies the gates of the same circuit builder. A `false`
    /// here indicates a stored point that no longer matches its artifacts (or
    /// a cost-model bug).
    pub matches_fast_path: bool,
}

impl EvalEngine {
    /// Finalizes one configuration: evaluates it (served from the cache when
    /// the search already scored it), then runs **full gate-level synthesis**
    /// on the cached minimized layers and cross-checks the fast-path numbers.
    ///
    /// Thousands of search candidates go through the analytic fast path;
    /// only Pareto-front finalists (and the baseline) pay for a netlist —
    /// which also makes them simulatable and exportable to Verilog.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and synthesis errors.
    pub fn finalize(&self, config: &MinimizationConfig) -> Result<FinalizedDesign, CoreError> {
        let (CachedEval { point, artifacts }, _) = self.resolve_entry(config)?;
        let full = synthesize_area(
            &artifacts.layers,
            self.baseline.input_bits,
            &self.baseline.library,
            artifacts.sharing,
        )?;
        self.full_synthesis.fetch_add(1, Ordering::Relaxed);
        let matches_fast_path = full.area_mm2 == point.area_mm2
            && full.power_uw == point.power_uw
            && full.critical_path_us == point.delay_us
            && full.gate_count == point.gate_count;
        Ok(FinalizedDesign {
            point,
            full,
            matches_fast_path,
        })
    }
}

impl EvalEngine {
    /// Drains the batch buffer into the store as one append. A failing flush
    /// degrades the store to this process's lifetime but never fails a
    /// search, mirroring the single-append contract.
    fn flush_batched_records(&self) {
        let records = std::mem::take(&mut *self.batch_buffer.lock().expect("batch buffer lock"));
        if records.is_empty() {
            return;
        }
        if let Some(store) = &self.store {
            if let Err(err) = store.append_batch(&records) {
                self.store_append_failures
                    .fetch_add(records.len(), Ordering::Relaxed);
                eprintln!("warning: {err}");
            }
        }
    }
}

impl Drop for EvalEngine {
    /// Safety net: records buffered by an `evaluate_batch` call that never
    /// unwound cleanly still reach the store before the engine goes away.
    fn drop(&mut self) {
        self.flush_batched_records();
    }
}

impl Evaluator for EvalEngine {
    fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
        self.evaluate_with_status(config).map(|(point, _)| point)
    }

    /// Evaluates the whole batch on the rayon worker pool. Duplicate
    /// configurations within the batch (common in GA populations) are
    /// deduplicated by the in-flight machinery, not recomputed.
    ///
    /// Store appends for the batch's cache misses are buffered and flushed as
    /// **one** [`EvalStore::append_batch`] when the last concurrent batch
    /// finishes (panic-safe) — over a remote store this turns a
    /// request-per-miss into a request-per-generation.
    fn evaluate_batch(
        &self,
        configs: &[MinimizationConfig],
    ) -> Result<Vec<DesignPoint>, CoreError> {
        struct BatchGuard<'a>(&'a EvalEngine);
        impl Drop for BatchGuard<'_> {
            fn drop(&mut self) {
                // Last batch out (depth 1 -> 0) flushes everyone's records.
                if self.0.batch_depth.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.0.flush_batched_records();
                }
            }
        }
        self.batch_depth.fetch_add(1, Ordering::AcqRel);
        let _guard = BatchGuard(self);
        configs
            .par_iter()
            .map(|config| self.evaluate(config))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pareto::pareto_front;

    /// Closed-form fake evaluator: accuracy/area follow simple monotone laws
    /// of the configuration, so search logic can be exercised instantly.
    pub(crate) struct MockEvaluator;

    impl Evaluator for MockEvaluator {
        fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
            let bits = f64::from(config.effective_weight_bits());
            let sparsity = config.sparsity.unwrap_or(0.0);
            let clusters = config.clusters_per_input.map(|c| c as f64).unwrap_or(8.0);
            let area = (bits / 8.0) * (1.0 - sparsity) * (clusters / 8.0).min(1.0);
            let accuracy = 0.9 - 0.02 * (8.0 - bits) - 0.05 * sparsity;
            Ok(DesignPoint {
                config: *config,
                accuracy,
                area_mm2: area * 100.0,
                power_uw: area * 10.0,
                delay_us: 1.0 + (8.0 - bits) * 0.125,
                normalized_accuracy: accuracy / 0.9,
                normalized_area: area,
                sparsity,
                gate_count: (area * 1000.0) as usize,
            })
        }
    }

    #[test]
    fn mock_evaluator_supports_batches_and_fronts() {
        let configs = vec![
            MinimizationConfig::baseline(),
            MinimizationConfig::default().with_weight_bits(4),
            MinimizationConfig::default()
                .with_weight_bits(4)
                .with_sparsity(0.5),
        ];
        let points = MockEvaluator.evaluate_batch(&configs).unwrap();
        assert_eq!(points.len(), 3);
        let front = pareto_front(&points);
        assert!(!front.is_empty());
    }

    #[test]
    fn cache_key_canonicalizes_float_noise() {
        let key = |sparsity| {
            EvalKey::new(
                &MinimizationConfig::default().with_sparsity(sparsity),
                4,
                8,
                0,
            )
        };
        assert_eq!(key(0.3), key(0.30000000001));
        assert_ne!(key(0.3), key(0.301));
    }

    #[test]
    fn cache_key_separates_budgets_and_salts() {
        let config = MinimizationConfig::default().with_weight_bits(4);
        let base = EvalKey::new(&config, 4, 8, 0);
        assert_ne!(base, EvalKey::new(&config, 4, 2, 0));
        assert_ne!(base, EvalKey::new(&config, 6, 8, 0));
        assert_ne!(base, EvalKey::new(&config, 4, 8, 7));
        assert_eq!(base, EvalKey::new(&config, 4, 8, 0));
    }

    fn failed() -> String {
        "panicked".into()
    }

    #[test]
    fn resolve_caches_successes_but_not_errors() {
        let memo: Memo<u8, u32, String> = Mutex::default();
        assert_eq!(
            resolve(&memo, 1, || Ok(7), failed),
            (Ok(7), Answer::Computed)
        );
        let unreachable = || -> Result<u32, String> { panic!("a hit must not recompute") };
        assert_eq!(resolve(&memo, 1, unreachable, failed), (Ok(7), Answer::Hit));

        let err = resolve(&memo, 2, || Err("boom".to_string()), failed);
        assert_eq!(err, (Err("boom".into()), Answer::Computed));
        assert_eq!(
            resolve(&memo, 2, || Ok(9), failed),
            (Ok(9), Answer::Computed)
        );
    }

    #[test]
    fn panicking_computation_releases_its_waiters() {
        let memo: Memo<u8, u32, String> = Mutex::default();
        let waiter = std::cell::RefCell::new(None);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resolve(
                &memo,
                1,
                || {
                    // Stand in for a concurrent requester: take the pending
                    // slot a second thread would block on.
                    if let Some(Slot::Pending(pending)) = memo.lock().unwrap().get(&1) {
                        *waiter.borrow_mut() = Some(Arc::clone(pending));
                    }
                    panic!("stage panicked")
                },
                failed,
            )
        }));
        assert!(outcome.is_err());
        let pending = waiter.into_inner().expect("pending slot was visible");
        assert_eq!(pending.wait(), Err("panicked".to_string()));
        assert!(memo.lock().unwrap().is_empty(), "no wedged slot remains");
        assert_eq!(
            resolve(&memo, 1, || Ok(3), failed),
            (Ok(3), Answer::Computed)
        );
    }

    #[test]
    fn stats_hit_rate_is_fraction_of_cached_answers() {
        let stats = EngineStats {
            hits: 3,
            misses: 1,
            coalesced: 1,
            entries: 1,
            ..EngineStats::default()
        };
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
    }
}
