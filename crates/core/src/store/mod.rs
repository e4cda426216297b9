//! Layered, crash-safe persistence for candidate evaluations: campaigns, CI
//! runs and figure regenerations never pay for the same evaluation twice —
//! not on this machine, and (with a remote tier) not on any machine.
//!
//! Every candidate evaluation in this workspace is deterministic and keyed by
//! a canonical [`EvalKey`] (quantization bits, sparsity grid cell, cluster
//! count, input precision, fine-tuning budget, RNG salt) under a
//! [`BaselineDesign::fingerprint`](crate::baseline::BaselineDesign::fingerprint).
//! That `(fingerprint, key)` pair is a **content address**: the persistence
//! subsystem stores scored design points with their compressed finalization
//! artifacts under it, behind the [`StoreBackend`] trait:
//!
//! * [`LocalJsonlBackend`] — the historical on-disk format: one append-only
//!   JSONL log per `(dataset, fingerprint)` pair, a sealed-envelope header
//!   line, single flushed whole-line appends (a crash can only truncate the
//!   final record), corruption-tolerant replay that compacts salvaged
//!   records back with an atomic tmp+rename commit;
//! * [`MemoryBackend`] — an in-process map for tests and for the
//!   `pmlp-serve` server's default state;
//! * [`RemoteBackend`] — an HTTP/1.1 client for a `pmlp-serve`
//!   evaluation-cache server, speaking the same sealed-envelope JSONL wire
//!   format;
//! * [`TieredStore`] — local-as-write-through-cache over remote: scans fill
//!   the local cache from the server, appends land locally and replicate to
//!   the server, and a killed server degrades the composition to local-only
//!   instead of failing the run.
//!
//! [`EvalStore`] binds a backend to one `(dataset name, fingerprint)` pair —
//! the view an [`EvalEngine`](crate::engine::EvalEngine) warm-starts from and
//! appends to. Backends also carry named *documents* (cached baselines,
//! campaign completion markers), so resumable runs work identically against
//! every tier. [`LocalJsonlBackend::gc`] garbage-collects a store
//! directory: logs of dead baselines are dropped, duplicate keys merged, and
//! oversized logs compacted.
//!
//! Versioning: a [`STORE_VERSION`] bump makes old files unreadable by design —
//! they are ignored and rewritten rather than misparsed. The same atomic
//! commit primitive ([`write_atomic`]) backs every local document: cached
//! baselines and campaign completion markers.
//!
//! # Example
//!
//! ```no_run
//! use pmlp_core::engine::{EvalEngine, Evaluator};
//! use pmlp_data::UciDataset;
//! use pmlp_minimize::MinimizationConfig;
//! use std::path::Path;
//!
//! # fn main() -> Result<(), pmlp_core::CoreError> {
//! // First run: misses are computed and appended to the store.
//! let engine = EvalEngine::train(UciDataset::Seeds, 42)?
//!     .with_store(Path::new("target/eval-store"))?;
//! engine.evaluate(&MinimizationConfig::default().with_weight_bits(4))?;
//!
//! // A later process warm-starts from disk: the same request is a hit.
//! let engine = EvalEngine::train(UciDataset::Seeds, 42)?
//!     .with_store(Path::new("target/eval-store"))?;
//! engine.evaluate(&MinimizationConfig::default().with_weight_bits(4))?;
//! assert_eq!(engine.stats().misses, 0);
//!
//! // Sharing across machines: compose the local cache over a pmlp-serve
//! // instance. Records stream in from the server on warm start and every
//! // local miss replicates back to it.
//! use pmlp_core::store::open_backend;
//! let backend = open_backend(
//!     Some(Path::new("target/eval-store")),
//!     Some("http://127.0.0.1:7878"),
//! )?
//! .expect("a tier was configured");
//! let engine = EvalEngine::train(UciDataset::Seeds, 42)?.with_backend(backend)?;
//! # Ok(())
//! # }
//! ```

mod backend;
mod codec;
mod jsonl;
mod memory;
mod remote;
mod tiered;

pub use backend::{safe_component, sanitize_name, ResilienceStats, ScanOutcome, StoreBackend};
pub use codec::{decode_artifacts, encode_artifacts};
pub use jsonl::{DurabilityPolicy, GcPolicy, GcReport, LocalJsonlBackend};
pub use memory::MemoryBackend;
pub use remote::{RemoteBackend, RetryPolicy};
pub use tiered::{TieredStats, TieredStore};

use crate::engine::EvalKey;
use crate::error::CoreError;
use crate::objective::DesignPoint;
use pmlp_hw::SharingStrategy;
use pmlp_minimize::IntegerLayer;
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Format version of the store's JSONL record log. Files written under a
/// different version are ignored (and rewritten) on open, never misparsed.
/// Version 2 records are `{key, point, artifacts}` with a mandatory
/// artifact blob.
pub const STORE_VERSION: u32 = 2;

/// Magic string of the store header line.
const STORE_MAGIC: &str = "pmlp-eval-store";

/// The artifacts finalization needs, persisted next to a hot design point so
/// that [`EvalEngine::finalize`](crate::engine::EvalEngine::finalize) of a
/// store-warmed Pareto finalist runs full synthesis directly instead of
/// re-running the whole minimization pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalArtifacts {
    /// The minimized integer layers of the candidate.
    pub layers: Vec<IntegerLayer>,
    /// The multiplier-sharing strategy its hardware cost was measured under.
    pub sharing: SharingStrategy,
}

/// One persisted evaluation: the canonical cache key, the scored design point
/// and the finalization artifacts of the circuit it scored.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Canonical identity of the evaluated configuration under its engine.
    pub key: EvalKey,
    /// The scored design point.
    pub point: DesignPoint,
    /// Minimized layers + sharing strategy.
    pub artifacts: EvalArtifacts,
}

/// Incremental FNV-1a hasher behind baseline and marker fingerprints and
/// the remote tier's retry jitter.
pub(crate) struct FingerprintHasher(u64);

impl FingerprintHasher {
    /// Starts a fresh FNV-1a state.
    pub fn new() -> Self {
        FingerprintHasher(0xcbf29ce484222325)
    }

    /// Mixes one 64-bit word.
    pub fn mix_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    /// Mixes a byte string.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix_u64(u64::from(b));
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// `*.tmp` file first and are renamed over the target, so readers (and
/// crash-interrupted writers) only ever observe the old or the new complete
/// file, never a torn one.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Renders a `u64` as the fixed-width hex string used in store headers and
/// record salts (JSON numbers are `f64` in this workspace's serializer, which
/// cannot represent every `u64` exactly).
pub(crate) fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a [`hex`]-formatted field.
pub(crate) fn parse_hex(value: &Value) -> Result<u64, json::Error> {
    let text = value
        .as_str()
        .ok_or_else(|| json::Error::custom("expected hex string"))?;
    u64::from_str_radix(text, 16).map_err(|_| json::Error::custom(format!("bad hex `{text}`")))
}

/// Wraps a payload in the standard persistence envelope shared by store
/// headers, cached baselines and campaign markers: a magic string, a
/// format version and a hex identity fingerprint ahead of the payload fields.
pub(crate) fn seal_envelope(
    magic: &str,
    version: u32,
    fingerprint: u64,
    fields: Vec<(String, Value)>,
) -> Value {
    let mut entries = vec![
        ("magic".to_string(), Value::String(magic.into())),
        ("version".to_string(), Value::Number(f64::from(version))),
        ("fingerprint".to_string(), Value::String(hex(fingerprint))),
    ];
    entries.extend(fields);
    Value::Object(entries)
}

/// Validates an envelope written by [`seal_envelope`]: returns the value for
/// payload access only when magic, version and fingerprint all match, so
/// foreign, stale or incompatible files are ignored instead of misread.
pub(crate) fn check_envelope<'v>(
    value: &'v Value,
    magic: &str,
    version: u32,
    fingerprint: u64,
) -> Option<&'v Value> {
    (value.get("magic")?.as_str()? == magic).then_some(())?;
    (u32::deserialize_value(value.get("version")?).ok()? == version).then_some(())?;
    (parse_hex(value.get("fingerprint")?).ok()? == fingerprint).then_some(())?;
    Some(value)
}

/// Renders the sealed-envelope header line binding a record log (on disk or
/// on the wire) to `fingerprint` at the current [`STORE_VERSION`].
pub fn header_line(fingerprint: u64) -> String {
    seal_envelope(STORE_MAGIC, STORE_VERSION, fingerprint, Vec::new()).render_compact()
}

/// `true` when `line` is a valid header for `fingerprint` at the current
/// store version.
pub fn header_matches(line: &str, fingerprint: u64) -> bool {
    json::parse(line)
        .ok()
        .and_then(|value| {
            check_envelope(&value, STORE_MAGIC, STORE_VERSION, fingerprint).map(|_| ())
        })
        .is_some()
}

/// Renders one record as its canonical single-line JSON wire form — the
/// format of local record logs and of `pmlp-serve` scan/append bodies alike.
pub fn record_line(record: &EvalRecord) -> String {
    let key = Value::Object(vec![
        (
            "weight_bits".into(),
            Value::Number(f64::from(record.key.weight_bits)),
        ),
        (
            "sparsity_millis".into(),
            Value::Number(f64::from(record.key.sparsity_millis)),
        ),
        ("clusters".into(), Value::Number(record.key.clusters as f64)),
        (
            "input_bits".into(),
            Value::Number(f64::from(record.key.input_bits)),
        ),
        (
            "fine_tune_epochs".into(),
            Value::Number(record.key.fine_tune_epochs as f64),
        ),
        ("salt".into(), Value::String(hex(record.key.salt))),
    ]);
    let artifacts = encode_artifacts(&record.artifacts.layers, record.artifacts.sharing);
    Value::Object(vec![
        ("key".into(), key),
        ("point".into(), record.point.serialize_value()),
        ("artifacts".into(), Value::String(artifacts)),
    ])
    .render_compact()
}

/// Parses a line written by [`record_line`]. Every field is required: a
/// line with a damaged key or point, or a missing or undecodable `artifacts`
/// blob, is an error the caller counts as a dropped record (and the engine
/// recomputes it as an ordinary miss).
///
/// # Errors
///
/// Returns [`CoreError::Store`] for malformed JSON or a damaged field.
pub fn parse_record_line(line: &str) -> Result<EvalRecord, CoreError> {
    record_from_line_inner(line).map_err(|e| CoreError::Store {
        context: format!("bad record line: {e}"),
    })
}

fn record_from_line_inner(line: &str) -> Result<EvalRecord, json::Error> {
    let value = json::parse(line)?;
    let key_value = value.field("key")?;
    let key = EvalKey {
        weight_bits: u8::deserialize_value(key_value.field("weight_bits")?)?,
        sparsity_millis: u32::deserialize_value(key_value.field("sparsity_millis")?)?,
        clusters: usize::deserialize_value(key_value.field("clusters")?)?,
        input_bits: u8::deserialize_value(key_value.field("input_bits")?)?,
        fine_tune_epochs: usize::deserialize_value(key_value.field("fine_tune_epochs")?)?,
        salt: parse_hex(key_value.field("salt")?)?,
    };
    let (layers, sharing) = value
        .field("artifacts")?
        .as_str()
        .and_then(decode_artifacts)
        .ok_or_else(|| json::Error::custom("undecodable artifacts blob"))?;
    Ok(EvalRecord {
        key,
        point: DesignPoint::deserialize_value(value.field("point")?)?,
        artifacts: EvalArtifacts { layers, sharing },
    })
}

/// Composes a [`StoreBackend`] from the two optional tiers every driver and
/// binary exposes: a local directory (`--store DIR`) and/or a remote
/// `pmlp-serve` URL (`--remote-store URL`).
///
/// | local | remote | result |
/// |-------|--------|--------|
/// | — | — | `None` (in-memory caching only) |
/// | dir | — | [`LocalJsonlBackend`] |
/// | — | url | [`TieredStore`] ([`MemoryBackend`] cache over the server) |
/// | dir | url | [`TieredStore`] (local cache over the server) |
///
/// Remote-only compositions sit behind the same [`TieredStore`] as the
/// dir+url case (with an in-process memory tier as the cache), so the
/// circuit breaker and the replay journal protect every remote
/// configuration uniformly. Every tier runs with its default tuning; see
/// [`open_backend_opts`] for the knobs.
///
/// # Errors
///
/// Returns [`CoreError::Store`] when the directory cannot be created or the
/// URL is malformed.
pub fn open_backend(
    local_dir: Option<&Path>,
    remote_url: Option<&str>,
) -> Result<Option<Box<dyn StoreBackend>>, CoreError> {
    open_backend_opts(local_dir, remote_url, &BackendOptions::default())
}

/// Tuning knobs of [`open_backend_opts`] beyond the tier selection itself.
#[derive(Debug, Clone, Default)]
pub struct BackendOptions {
    /// Per-request deadline of the remote tier (`--remote-timeout-ms`),
    /// covering connect, read and write — the knob that decides how fast a
    /// dead server degrades a tiered composition. `None` keeps the
    /// [`RemoteBackend`] default.
    pub remote_timeout: Option<std::time::Duration>,
    /// Durability policy of the local JSONL tier (`--durability`); remote
    /// and in-memory tiers ignore it.
    pub durability: DurabilityPolicy,
    /// Circuit-breaker cooldown of a tiered composition; `None` keeps the
    /// [`TieredStore`] default of 1 s.
    pub remote_cooldown: Option<std::time::Duration>,
}

/// [`open_backend`] with explicit [`BackendOptions`].
///
/// # Errors
///
/// Returns [`CoreError::Store`] when the directory cannot be created or the
/// URL is malformed.
pub fn open_backend_opts(
    local_dir: Option<&Path>,
    remote_url: Option<&str>,
    options: &BackendOptions,
) -> Result<Option<Box<dyn StoreBackend>>, CoreError> {
    let remote = |url: &str| -> Result<RemoteBackend, CoreError> {
        let client = RemoteBackend::new(url)?;
        Ok(match options.remote_timeout {
            Some(timeout) => client.with_timeout(timeout),
            None => client,
        })
    };
    let tiered = |local: Box<dyn StoreBackend>, url: &str| -> Result<TieredStore, CoreError> {
        let remote = Box::new(remote(url)?);
        Ok(match options.remote_cooldown {
            Some(cooldown) => TieredStore::with_cooldown(local, remote, cooldown),
            None => TieredStore::new(local, remote),
        })
    };
    match (local_dir, remote_url) {
        (None, None) => Ok(None),
        (Some(dir), None) => Ok(Some(Box::new(LocalJsonlBackend::open_with(
            dir,
            options.durability,
        )?))),
        (None, Some(url)) => Ok(Some(Box::new(tiered(Box::new(MemoryBackend::new()), url)?))),
        (Some(dir), Some(url)) => Ok(Some(Box::new(tiered(
            Box::new(LocalJsonlBackend::open_with(dir, options.durability)?),
            url,
        )?))),
    }
}

/// A backend bound to one `(dataset name, baseline fingerprint)` pair: the
/// view an engine warm-starts from and appends to.
///
/// See the [module documentation](self) for the format and crash-safety
/// guarantees. Appends are internally synchronized; one store is shared by
/// all worker threads of its engine.
pub struct EvalStore {
    name: String,
    fingerprint: u64,
    backend: Box<dyn StoreBackend>,
    loaded: Vec<EvalRecord>,
    dropped: usize,
}

impl std::fmt::Debug for EvalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalStore")
            .field("backend", &self.backend.describe())
            .field("name", &self.name)
            .field("fingerprint", &hex(self.fingerprint))
            .field("loaded", &self.loaded.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl EvalStore {
    /// Opens (or creates) the local record log for `(name, fingerprint)`
    /// inside `dir` and replays its surviving records — the historical
    /// single-machine store.
    ///
    /// Replay is corruption-tolerant: a truncated final record — the only
    /// damage a crashed append can cause — is skipped, as is any garbled
    /// line; whenever anything had to be skipped (or the header belongs to a
    /// different version), the salvaged records are committed back via an
    /// atomic tmp+rename rewrite so the next open sees a clean file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the directory or file cannot be
    /// created, read or rewritten.
    pub fn open(dir: &Path, name: &str, fingerprint: u64) -> Result<Self, CoreError> {
        Self::with_backend(Box::new(LocalJsonlBackend::open(dir)?), name, fingerprint)
    }

    /// Binds any [`StoreBackend`] to `(name, fingerprint)` and replays its
    /// records (for a [`TieredStore`] this is also the moment the local cache
    /// fills from the server).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backend's scan fails.
    pub fn with_backend(
        backend: Box<dyn StoreBackend>,
        name: &str,
        fingerprint: u64,
    ) -> Result<Self, CoreError> {
        let outcome = backend.scan(name, fingerprint)?;
        Ok(EvalStore {
            name: name.to_string(),
            fingerprint,
            backend,
            loaded: outcome.records,
            dropped: outcome.dropped,
        })
    }

    /// Takes the records replayed at construction, leaving the store ready
    /// for appends. The engine feeds these into its in-memory cache.
    pub fn warm_start(&mut self) -> Vec<EvalRecord> {
        std::mem::take(&mut self.loaded)
    }

    /// Appends one record to the log as a single flushed line, so a crash
    /// can lose at most this record (and only by truncation, which the next
    /// replay tolerates).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the write fails.
    pub fn append(&self, record: &EvalRecord) -> Result<(), CoreError> {
        self.backend.append(&self.name, self.fingerprint, record)
    }

    /// Appends many records as one batch — one flushed write locally, one
    /// HTTP `POST` remotely (see [`StoreBackend::append_batch`]). The engine
    /// buffers per-candidate appends across
    /// [`evaluate_batch`](crate::engine::Evaluator::evaluate_batch) and
    /// lands them here at the batch boundary.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the write fails.
    pub fn append_batch(&self, records: &[EvalRecord]) -> Result<(), CoreError> {
        self.backend
            .append_batch(&self.name, self.fingerprint, records)
    }

    /// Path of the record log on disk, for backends that have one (`None`
    /// for memory and remote tiers).
    pub fn path(&self) -> Option<PathBuf> {
        self.backend.record_path(&self.name, self.fingerprint)
    }

    /// The baseline fingerprint this store is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The dataset label this store is bound to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of corrupt records skipped during the construction replay.
    pub fn dropped_records(&self) -> usize {
        self.dropped
    }

    /// The backend this store writes through.
    pub fn backend(&self) -> &dyn StoreBackend {
        self.backend.as_ref()
    }

    /// Deletes a named document; a missing document is not an error.
    /// Nothing in the workspace calls it outside tests; it stays only
    /// because the out-of-workspace `perfbench` package calls it, and goes
    /// with the next change allowed to touch `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the backend fails.
    pub fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        self.backend.remove_doc(name)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmlp_minimize::MinimizationConfig;

    /// Shared test fixture: a record with a distinctive key, point and
    /// artifacts.
    pub(crate) fn record(bits: u8, accuracy: f64, area: f64) -> EvalRecord {
        let config = MinimizationConfig::default().with_weight_bits(bits);
        EvalRecord {
            key: EvalKey {
                weight_bits: bits,
                sparsity_millis: u32::MAX,
                clusters: 0,
                input_bits: 4,
                fine_tune_epochs: 2,
                salt: 0xDEAD_BEEF_DEAD_BEEF,
            },
            point: DesignPoint {
                config,
                accuracy,
                area_mm2: area,
                power_uw: area * 10.0,
                delay_us: 2.0,
                normalized_accuracy: accuracy / 0.9,
                normalized_area: area / 100.0,
                sparsity: 0.0,
                gate_count: (area * 7.0) as usize,
            },
            artifacts: EvalArtifacts {
                layers: vec![IntegerLayer {
                    codes: vec![vec![1, -2, 3], vec![0, 0, i64::from(bits)]],
                    bias_codes: vec![-1, 2],
                    scale: 0.125,
                    weight_bits: bits,
                }],
                sharing: SharingStrategy::SharedPerInput,
            },
        }
    }

    /// Shared test fixture: a unique temp directory per test.
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn records_round_trip_through_open_append_warm_start() {
        let dir = temp_dir("roundtrip");
        let records = vec![
            record(3, 0.8, 40.0),
            record(4, 0.85, 55.5),
            record(5, 0.9, 72.25),
        ];
        {
            let store = EvalStore::open(&dir, "Seeds", 0xABCD).unwrap();
            for r in &records {
                store.append(r).unwrap();
            }
        }
        let mut store = EvalStore::open(&dir, "Seeds", 0xABCD).unwrap();
        assert_eq!(store.dropped_records(), 0);
        assert_eq!(store.warm_start(), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_travel_with_their_records() {
        let dir = temp_dir("artifacts");
        let mut unshared = record(5, 0.9, 70.0);
        unshared.artifacts = EvalArtifacts {
            layers: Vec::new(),
            sharing: SharingStrategy::None,
        };
        let records = vec![record(4, 0.85, 50.0), unshared];
        {
            let store = EvalStore::open(&dir, "Seeds", 0xF00D).unwrap();
            for r in &records {
                store.append(r).unwrap();
            }
        }
        let mut store = EvalStore::open(&dir, "Seeds", 0xF00D).unwrap();
        assert_eq!(store.warm_start(), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The line of `record` with its artifact blob replaced by `blob`, or
    /// removed when `blob` is `None`.
    pub(crate) fn line_with_blob(record: &EvalRecord, blob: Option<&str>) -> String {
        let line = record_line(record);
        let cut = line
            .find(",\"artifacts\":")
            .expect("a record line has a blob");
        match blob {
            Some(blob) => format!("{},\"artifacts\":\"{blob}\"}}", &line[..cut]),
            None => format!("{}}}", &line[..cut]),
        }
    }

    #[test]
    fn a_record_without_intact_artifacts_is_dropped() {
        let good = record(3, 0.8, 40.0);
        let corrupt = line_with_blob(&record(4, 0.85, 55.0), Some("!corrupt!"));
        let absent = line_with_blob(&record(5, 0.9, 70.0), None);
        assert!(parse_record_line(&record_line(&good)).is_ok());
        assert!(parse_record_line(&corrupt).is_err());
        assert!(parse_record_line(&absent).is_err());

        let dir = temp_dir("blobless");
        let path = {
            let store = EvalStore::open(&dir, "Seeds", 3).unwrap();
            store.append(&good).unwrap();
            store.path().expect("local store has a path")
        };
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{text}{corrupt}\n{absent}\n")).unwrap();
        let mut store = EvalStore::open(&dir, "Seeds", 3).unwrap();
        assert_eq!(store.dropped_records(), 2, "both damaged lines are counted");
        assert_eq!(store.warm_start(), vec![good]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salts_and_fingerprints_survive_as_full_u64s() {
        // u64 values above 2^53 cannot live in a JSON f64; the hex encoding
        // must carry them losslessly.
        let dir = temp_dir("hex");
        let fingerprint = u64::MAX - 12345;
        {
            let store = EvalStore::open(&dir, "Seeds", fingerprint).unwrap();
            store.append(&record(4, 0.8, 40.0)).unwrap();
        }
        let mut store = EvalStore::open(&dir, "Seeds", fingerprint).unwrap();
        let replayed = store.warm_start();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key.salt, 0xDEAD_BEEF_DEAD_BEEF);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_record_is_skipped_and_compacted_away() {
        let dir = temp_dir("truncated");
        {
            let store = EvalStore::open(&dir, "Seeds", 7).unwrap();
            store.append(&record(3, 0.8, 40.0)).unwrap();
            store.append(&record(4, 0.85, 55.0)).unwrap();
        }
        // Simulate a crash mid-append: chop the last record in half.
        let path = {
            let store = EvalStore::open(&dir, "Seeds", 7).unwrap();
            store.path().expect("local store has a path")
        };
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        // A record without its artifact blob is damaged like any other line.
        let blobless = line_with_blob(&record(6, 0.7, 30.0), None);
        let damaged = format!("{header}\n{blobless}\n{}", &body[..body.len() - 25]);
        std::fs::write(&path, damaged).unwrap();

        let mut store = EvalStore::open(&dir, "Seeds", 7).unwrap();
        assert_eq!(store.dropped_records(), 2);
        let survivors = store.warm_start();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0], record(3, 0.8, 40.0));
        // The store stays usable after recovery ...
        store.append(&record(5, 0.9, 70.0)).unwrap();
        drop(store);
        // ... and the compaction removed the corrupt bytes for good.
        let mut reopened = EvalStore::open(&dir, "Seeds", 7).unwrap();
        assert_eq!(reopened.dropped_records(), 0);
        assert_eq!(reopened.warm_start().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incompatible_header_discards_the_file_instead_of_misparsing_it() {
        let dir = temp_dir("header");
        std::fs::create_dir_all(&dir).unwrap();
        let store = EvalStore::open(&dir, "Seeds", 9).unwrap();
        let path = store.path().expect("local store has a path");
        drop(store);
        std::fs::write(&path, "{\"magic\":\"something-else\"}\ngarbage\n").unwrap();
        let mut reopened = EvalStore::open(&dir, "Seeds", 9).unwrap();
        assert_eq!(reopened.warm_start(), Vec::new());
        assert_eq!(reopened.dropped_records(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_fingerprints_use_disjoint_files() {
        let dir = temp_dir("fingerprints");
        {
            let store = EvalStore::open(&dir, "Seeds", 1).unwrap();
            store.append(&record(3, 0.8, 40.0)).unwrap();
        }
        let mut other = EvalStore::open(&dir, "Seeds", 2).unwrap();
        assert!(other.warm_start().is_empty(), "fingerprints must isolate");
        let mut original = EvalStore::open(&dir, "Seeds", 1).unwrap();
        assert_eq!(original.warm_start().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_the_target_in_one_step() {
        let dir = temp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("marker.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_store_works_over_any_backend() {
        let backend = MemoryBackend::new();
        backend.append("Seeds", 5, &record(3, 0.8, 40.0)).unwrap();
        let mut store = EvalStore::with_backend(Box::new(backend), "Seeds", 5).unwrap();
        assert_eq!(store.path(), None, "memory tier has no path");
        assert_eq!(store.warm_start().len(), 1);
        store.append(&record(4, 0.9, 50.0)).unwrap();
        store.backend().put_doc("m.json", "x").unwrap();
        store.remove_doc("m.json").unwrap();
        assert_eq!(store.backend().get_doc("m.json").unwrap(), None);
    }

    #[test]
    fn open_backend_composes_the_configured_tiers() {
        let dir = temp_dir("compose");
        assert!(open_backend(None, None).unwrap().is_none());
        let local = open_backend(Some(&dir), None).unwrap().unwrap();
        assert!(local.describe().starts_with("local jsonl"));
        let remote = open_backend(None, Some("http://127.0.0.1:7878"))
            .unwrap()
            .unwrap();
        assert!(remote.describe().contains("pmlp-serve"));
        let tiered = open_backend(Some(&dir), Some("http://127.0.0.1:7878"))
            .unwrap()
            .unwrap();
        assert!(tiered.describe().starts_with("tiered"));
        assert!(open_backend(None, Some("ftp://nope")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pmlp_minimize::MinimizationConfig;
    use proptest::prelude::*;

    /// Strategy-built records spanning the whole configuration space,
    /// including disabled techniques and extreme float values.
    fn build_record(
        bits: u8,
        sparsity: f64,
        clusters: usize,
        accuracy: f64,
        area: f64,
        salt: u64,
    ) -> EvalRecord {
        let mut config = MinimizationConfig::default();
        let sparsity_millis = if sparsity < 0.05 {
            u32::MAX
        } else {
            config = config.with_sparsity(sparsity);
            pmlp_minimize::sparsity_millis(sparsity)
        };
        let weight_bits = if bits >= 2 {
            config = config.with_weight_bits(bits);
            bits
        } else {
            0
        };
        let cluster_key = if clusters >= 2 {
            config = config.with_clusters(clusters);
            clusters
        } else {
            0
        };
        let artifacts = EvalArtifacts {
            layers: vec![IntegerLayer {
                codes: vec![vec![bits as i64, -(clusters as i64)]],
                bias_codes: vec![salt as i64 >> 32],
                scale: (sparsity as f32).max(0.01),
                weight_bits: bits.max(2),
            }],
            sharing: if clusters >= 2 {
                pmlp_hw::SharingStrategy::SharedPerInput
            } else {
                pmlp_hw::SharingStrategy::None
            },
        };
        EvalRecord {
            key: EvalKey {
                weight_bits,
                sparsity_millis,
                clusters: cluster_key,
                input_bits: 4,
                fine_tune_epochs: 2,
                salt,
            },
            point: DesignPoint {
                config,
                accuracy,
                area_mm2: area,
                power_uw: area * 9.5,
                delay_us: 0.5 + area / 256.0,
                normalized_accuracy: accuracy,
                normalized_area: area / 128.0,
                sparsity: if sparsity < 0.05 { 0.0 } else { sparsity },
                gate_count: (area * 3.0) as usize,
            },
            artifacts,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn replay_round_trips_arbitrary_points_even_with_a_truncated_tail(
            raw in proptest::collection::vec(
                (0u8..9, 0.0f64..0.9, 0usize..9, 0.0f64..1.0, 0.001f64..500.0, 0u64..=u64::MAX),
                1..12,
            ),
            chop in 1usize..40,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "pmlp-store-proptest-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let records: Vec<EvalRecord> = raw
                .iter()
                .map(|&(b, s, c, acc, area, salt)| build_record(b, s, c, acc, area, salt))
                .collect();
            let path = {
                let store = EvalStore::open(&dir, "proptest", 0x5EED).unwrap();
                for r in &records {
                    store.append(r).unwrap();
                }
                store.path().expect("local store has a path")
            };

            // Full replay reproduces every record bit-for-bit.
            let mut store = EvalStore::open(&dir, "proptest", 0x5EED).unwrap();
            prop_assert_eq!(store.warm_start(), records.clone());

            // Truncating the final record (by up to `chop` bytes — always
            // fewer than one whole record line) loses exactly that record.
            let text = std::fs::read_to_string(&path).unwrap();
            let cut = text.trim_end().len() - chop;
            std::fs::write(&path, &text[..cut]).unwrap();
            let mut store = EvalStore::open(&dir, "proptest", 0x5EED).unwrap();
            let survivors = store.warm_start();
            prop_assert_eq!(&records[..records.len() - 1], &survivors[..]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn indexed_replay_quarantines_mid_file_garbage_without_losing_the_tail(
            raw in proptest::collection::vec(
                (0u8..9, 0.0f64..0.9, 0usize..9, 0.0f64..1.0, 0.001f64..500.0, 0u64..=u64::MAX),
                2..10,
            ),
            position_seed in 0usize..64,
            garbage_seed in 0u64..=u64::MAX,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "pmlp-store-quarantine-proptest-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let records: Vec<EvalRecord> = raw
                .iter()
                .map(|&(b, s, c, acc, area, salt)| build_record(b, s, c, acc, area, salt))
                .collect();
            let jsonl = LocalJsonlBackend::open(&dir).unwrap();
            for r in &records {
                jsonl.append("proptest", 0x5EED, r).unwrap();
            }
            let path = jsonl.record_path("proptest", 0x5EED).unwrap();

            // Inject a garbage line anywhere after the header — damage a
            // crashed append can never cause, only bit rot or a bug can.
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            let garbage = format!("!!garbage-{garbage_seed:016x}!!");
            let at = 1 + position_seed % records.len();
            lines.insert(at, &garbage);
            std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

            // A fresh replay (the server's read path) must keep every real
            // record — including all of them *after* the garbage — counting
            // and quarantining the bad line instead of panicking or
            // truncating the tail.
            let outcome = LocalJsonlBackend::open(&dir).unwrap().scan("proptest", 0x5EED).unwrap();
            prop_assert_eq!(&outcome.records[..], &records[..]);
            prop_assert_eq!(outcome.dropped, 1, "exactly the injected line");
            let sidecar = format!("{}.quarantine", path.display());
            let quarantined = std::fs::read_to_string(&sidecar).unwrap();
            prop_assert!(quarantined.contains(&garbage));

            // The salvage rewrite is durable: the next replay is clean.
            let outcome = LocalJsonlBackend::open(&dir).unwrap().scan("proptest", 0x5EED).unwrap();
            prop_assert_eq!(&outcome.records[..], &records[..]);
            prop_assert_eq!(outcome.dropped, 0, "salvage rewrite committed");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
