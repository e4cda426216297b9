//! Cross-dataset reproduction campaigns.
//!
//! The paper reports its minimization results across a whole battery of
//! small UCI classification tasks, not just the four Fig. 1 subplots. A
//! [`Campaign`] reproduces that battery in one run: for every dataset in its
//! [`CampaignConfig`] it trains the bespoke baseline, builds a dedicated
//! [`EvalEngine`], runs the three standalone technique sweeps, and collects
//! the normalized Pareto fronts plus the headline area-gain rows into one
//! [`CampaignResult`]. Every reported accuracy — baselines and candidates
//! alike — is scored under the default
//! [accuracy tier](crate::objective::AccuracyTier): pure-integer inference,
//! bit-identical to gate-level simulation of the bespoke circuit.
//!
//! Datasets fan out across rayon workers — engines already parallelize
//! *within* a dataset, over candidates — and each dataset's report records
//! its own engine statistics and wall-clock time. Results render as a paper-style aggregate table
//! ([`crate::report::render_campaign_table`]) and persist as machine-readable
//! JSON artifacts ([`CampaignResult::write_artifacts`]).
//!
//! Campaigns are interruptible: with [`CampaignConfig::store_dir`] set, every
//! engine reads and writes the persistent
//! [evaluation store](crate::store::EvalStore) and each finished dataset
//! commits an atomic completion marker; re-running with
//! [`CampaignConfig::resume`] restarts only the unfinished datasets and
//! reproduces the interrupted run's artifacts byte for byte.
//!
//! # Example
//!
//! ```no_run
//! use pmlp_core::campaign::{Campaign, CampaignConfig};
//! use pmlp_core::experiment::Effort;
//! use pmlp_core::report::render_campaign_table;
//! use pmlp_data::UciDataset;
//!
//! # fn main() -> Result<(), pmlp_core::CoreError> {
//! let config = CampaignConfig {
//!     datasets: vec![UciDataset::Seeds, UciDataset::Balance],
//!     effort: Effort::Quick,
//!     ..CampaignConfig::default()
//! };
//! let result = Campaign::new(config).run()?;
//! println!("{}", render_campaign_table(&result));
//! # Ok(())
//! # }
//! ```

use crate::engine::EvalEngine;
use crate::error::CoreError;
use crate::experiment::{headline_summary, Effort, Figure1Experiment};
use crate::objective::{DesignMetrics, ObjectiveSpace};
use crate::pareto::hypervolume;
use crate::report::{FigureSeries, HeadlineRow, TechniqueSummary};
use crate::store::StoreBackend;
use crate::sweep::Technique;
use pmlp_data::UciDataset;
use rayon::prelude::*;
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What a [`Campaign`] runs: which datasets, at which effort, under which
/// seed and accuracy-loss threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Datasets to evaluate, in report order (defaults to the full registry).
    pub datasets: Vec<UciDataset>,
    /// Effort level applied to every dataset (baseline budget, sweep ranges,
    /// fine-tuning epochs).
    pub effort: Effort,
    /// Base RNG seed (data generation + training), shared by all datasets.
    pub seed: u64,
    /// Accuracy-loss threshold of the headline rows (the paper uses 0.05).
    pub max_accuracy_loss: f64,
    /// Objective space the Pareto fronts (and the per-dataset hypervolume)
    /// are computed in. Defaults to the classic `(accuracy, area)` space —
    /// byte-identical artifacts to the fixed two-objective pipeline.
    /// Evaluation, stores and completion markers are objective-agnostic for
    /// the *measurements*; markers additionally bind to the space so a
    /// 3-objective run never replays a 2-objective report (the evaluation
    /// store itself is shared freely — full metrics are always persisted).
    pub objectives: ObjectiveSpace,
    /// Directory of the persistent evaluation store. When set, every
    /// dataset's engine warm-starts from (and appends to) the store's record
    /// logs, and a completion marker is committed per finished dataset so an
    /// interrupted campaign can restart with only the unfinished datasets
    /// (`None` = in-memory caching only, the historical behavior).
    pub store_dir: Option<PathBuf>,
    /// URL of a remote `pmlp-serve` evaluation-cache server
    /// (`http://host:port`). Set together with
    /// [`CampaignConfig::store_dir`], the local directory becomes a
    /// write-through cache of the server ([`crate::store::TieredStore`]):
    /// evaluations and completion markers stream in from (and replicate to)
    /// the server, so a fleet of workers shares one cache. Alone, the server
    /// is the only tier. A killed server never fails the run: the tier's
    /// circuit breaker opens, writes journal locally, and a restarted
    /// server is rejoined (and the journal replayed) by a recovery probe.
    pub remote_store: Option<String>,
    /// Per-request deadline for the remote store tier, in milliseconds
    /// (connect + read + write timeouts of every request; `None` keeps the
    /// client's 10s default). Lower it when a flaky server should degrade
    /// the run to local-only quickly instead of stalling each request.
    pub remote_timeout_ms: Option<u64>,
    /// Durability policy of the local JSONL tier (`--durability`); ignored
    /// unless [`CampaignConfig::store_dir`] is set.
    pub durability: crate::store::DurabilityPolicy,
    /// Circuit-breaker cooldown override for the remote tier, in
    /// milliseconds: how long an opened breaker waits before its next
    /// half-open recovery probe. `None` keeps the production default (1 s);
    /// chaos tests lower it so a quick campaign's breaker can rejoin a
    /// restarted server within the run.
    pub remote_cooldown_ms: Option<u64>,
    /// When `true` (and a store tier is configured), datasets whose
    /// completion marker matches this configuration **and** the freshly
    /// trained baseline's fingerprint are loaded from the marker verbatim
    /// instead of being re-swept (baselines always train — their fingerprint
    /// is what proves a marker is still valid).
    pub resume: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            datasets: UciDataset::all().to_vec(),
            effort: Effort::Full,
            seed: 42,
            max_accuracy_loss: 0.05,
            objectives: ObjectiveSpace::classic(),
            store_dir: None,
            remote_store: None,
            remote_timeout_ms: None,
            durability: crate::store::DurabilityPolicy::default(),
            remote_cooldown_ms: None,
            resume: false,
        }
    }
}

/// Everything the campaign measured for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetReport {
    /// Which dataset this report covers.
    pub dataset: UciDataset,
    /// Display name (as used in the paper's figures).
    pub name: String,
    /// Number of input features of the classifier.
    pub feature_count: usize,
    /// Number of target classes.
    pub class_count: usize,
    /// Hidden-layer width of the bespoke baseline MLP.
    pub hidden_neurons: usize,
    /// Absolute test accuracy of the un-minimized bespoke baseline.
    pub baseline_accuracy: f64,
    /// Circuit area of the bespoke baseline in mm².
    pub baseline_area_mm2: f64,
    /// Static power of the bespoke baseline in µW.
    pub baseline_power_uw: f64,
    /// Pareto-filtered (normalized accuracy, normalized area) series, one per
    /// standalone technique.
    pub series: Vec<FigureSeries>,
    /// Headline rows: best area gain within the accuracy-loss threshold, one
    /// per technique.
    pub headline: Vec<HeadlineRow>,
    /// Baseline-referenced hypervolume indicator of everything this dataset
    /// evaluated, computed in the campaign's objective space
    /// ([`crate::pareto::hypervolume`]): `0` = nothing beats the baseline,
    /// larger = a better front, always finite and in `[0, 1]`.
    pub hypervolume: f64,
    /// Full pipeline evaluations the engine ran for this dataset (cache
    /// misses).
    pub evaluations: usize,
    /// Fraction of evaluation requests answered from the engine's cache.
    pub cache_hit_rate: f64,
    /// Evaluations whose hardware cost came from the analytic fast path (no
    /// netlist was built): every computed evaluation.
    pub fast_path_evals: usize,
    /// Finalist verifications that ran full gate-level synthesis.
    pub full_synthesis_evals: usize,
    /// Hit rate of the process-wide constant-multiplier cost cache when this
    /// dataset finished, in `[0, 1]` (shared across concurrent datasets).
    pub multiplier_cache_hit_rate: f64,
    /// Wall-clock seconds spent on this dataset (training + sweeps).
    pub elapsed_secs: f64,
}

impl DatasetReport {
    /// The headline area gain of `technique`, `None` when no design met the
    /// accuracy-loss threshold (or the technique was not swept).
    pub fn gain_for(&self, technique: Technique) -> Option<f64> {
        self.headline
            .iter()
            .find(|row| row.technique == technique.name())
            .and_then(|row| row.area_gain)
    }
}

/// The aggregate outcome of a campaign run: one [`DatasetReport`] per dataset
/// plus the configuration that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Effort level the campaign ran at.
    pub effort: Effort,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Accuracy-loss threshold of the headline rows.
    pub max_accuracy_loss: f64,
    /// Comma-separated objective axes the run's fronts and hypervolumes were
    /// computed in (e.g. `accuracy,area` or `accuracy,area,energy`).
    pub objectives: String,
    /// Per-dataset reports, in configuration order.
    pub reports: Vec<DatasetReport>,
}

impl CampaignResult {
    /// Aggregates the headline rows per technique across all datasets, the
    /// way the paper quotes cross-dataset averages (counting only datasets
    /// where the technique met the threshold).
    pub fn technique_summaries(&self) -> Vec<TechniqueSummary> {
        [
            Technique::Quantization,
            Technique::Pruning,
            Technique::Clustering,
        ]
        .into_iter()
        .map(|technique| {
            let gains: Vec<f64> = self
                .reports
                .iter()
                .filter_map(|report| report.gain_for(technique))
                .collect();
            TechniqueSummary {
                technique: technique.name().to_string(),
                mean_gain: (!gains.is_empty())
                    .then(|| gains.iter().sum::<f64>() / gains.len() as f64),
                max_gain: gains.iter().copied().reduce(f64::max),
                datasets_met: gains.len(),
                datasets_total: self.reports.len(),
            }
        })
        .collect()
    }

    /// Writes the machine-readable artifacts of this run into `dir`: one
    /// `campaign.json` with the full result plus one `campaign_<dataset>.json`
    /// per dataset. Returns the written paths, aggregate first.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`std::io::Error`] when the directory cannot be
    /// created or a file cannot be written.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let to_io_error =
            |err: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, err);

        let mut paths = Vec::with_capacity(self.reports.len() + 1);
        let aggregate = dir.join("campaign.json");
        std::fs::write(
            &aggregate,
            serde_json::to_string_pretty(self).map_err(to_io_error)?,
        )?;
        paths.push(aggregate);

        for report in &self.reports {
            let path = dir.join(format!("campaign_{}.json", report.name.to_lowercase()));
            std::fs::write(
                &path,
                serde_json::to_string_pretty(report).map_err(to_io_error)?,
            )?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// How each dataset of a campaign run was resolved, reported by
/// [`Campaign::run_with_stats`]. Kept out of [`CampaignResult`] on purpose:
/// artifacts must be byte-identical between an uninterrupted run and a
/// resumed one, so run-local provenance lives here instead.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignRunStats {
    /// Datasets loaded verbatim from completion markers (no engine built).
    pub resumed: Vec<UciDataset>,
    /// Datasets computed in this process (their engines may still have been
    /// answered entirely from a warm evaluation store).
    pub computed: Vec<UciDataset>,
    /// Full pipeline evaluations (cache misses) across all computed datasets
    /// — `0` means the run was answered entirely from markers and/or the
    /// persistent store.
    pub fresh_evaluations: usize,
}

/// Magic string of campaign completion markers.
const MARKER_MAGIC: &str = "pmlp-campaign-marker";

/// Format version of campaign completion markers.
const MARKER_VERSION: u32 = 1;

type CampaignProgressFn = dyn Fn(&DatasetReport) + Send + Sync;

/// The cross-dataset campaign driver.
///
/// See the [module documentation](self) for the full picture.
pub struct Campaign {
    config: CampaignConfig,
    progress: Option<Box<CampaignProgressFn>>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Campaign {
    /// Creates a campaign for `config`.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign {
            config,
            progress: None,
        }
    }

    /// Installs a callback invoked as each dataset completes (from worker
    /// threads, in completion order).
    #[must_use]
    pub fn with_progress(
        mut self,
        callback: impl Fn(&DatasetReport) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// The configuration this campaign runs.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Opens the persistence backend this campaign's configuration selects:
    /// local directory, remote server, their tiered composition, or `None`
    /// when neither is configured (see [`crate::store::open_backend`]).
    ///
    /// [`Campaign::run_with_stats`] opens this **once** and shares the
    /// instance across every dataset (engines, markers): tier state — a
    /// degraded remote, cached append handles — is campaign-wide, so a dead
    /// server is probed (and warned about) once, not once per operation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the directory cannot be created or
    /// the URL is malformed.
    pub fn open_backend(&self) -> Result<Option<Arc<dyn StoreBackend>>, CoreError> {
        Ok(crate::store::open_backend_opts(
            self.config.store_dir.as_deref(),
            self.config.remote_store.as_deref(),
            &crate::store::BackendOptions {
                remote_timeout: self
                    .config
                    .remote_timeout_ms
                    .map(std::time::Duration::from_millis),
                durability: self.config.durability,
                remote_cooldown: self
                    .config
                    .remote_cooldown_ms
                    .map(std::time::Duration::from_millis),
            },
        )?
        .map(Arc::from))
    }

    /// Builds the evaluation engine the campaign uses for `dataset`: baseline
    /// trained at the configured effort's budget, fine-tuning budget set
    /// accordingly, warm-started from the configured persistence tiers when
    /// any are set.
    ///
    /// # Errors
    ///
    /// Propagates baseline training, synthesis and store errors.
    pub fn build_engine(&self, dataset: UciDataset) -> Result<EvalEngine, CoreError> {
        self.build_engine_with(dataset, self.open_backend()?.as_ref())
    }

    /// [`Campaign::build_engine`] against an already-opened (shared) backend.
    fn build_engine_with(
        &self,
        dataset: UciDataset,
        backend: Option<&Arc<dyn StoreBackend>>,
    ) -> Result<EvalEngine, CoreError> {
        // The baseline characterization itself is cached in the store (keyed
        // by the exact budget): resumed runs and second workers on a shared
        // store skip the training + reference-synthesis cost entirely.
        let engine = EvalEngine::train_cached(
            dataset,
            self.config.seed,
            &self.config.effort.baseline_config(),
            backend.map(|b| &**b as &dyn StoreBackend),
        )?
        .with_fine_tune_epochs(self.config.effort.fine_tune_epochs());
        match backend {
            Some(backend) => engine.with_backend(Box::new(Arc::clone(backend))),
            None => Ok(engine),
        }
    }

    /// Runs the campaign: every dataset is trained, swept and summarized on
    /// the rayon worker pool; reports come back in configuration order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty dataset list and
    /// propagates the first per-dataset error otherwise.
    pub fn run(&self) -> Result<CampaignResult, CoreError> {
        self.run_with_stats().map(|(result, _)| result)
    }

    /// Same as [`Campaign::run`], additionally reporting how each dataset was
    /// resolved (resumed from a marker vs computed) and how many fresh
    /// evaluations the run cost — the signal CI uses to assert that a
    /// warm-store re-run recomputes nothing.
    ///
    /// # Errors
    ///
    /// See [`Campaign::run`].
    pub fn run_with_stats(&self) -> Result<(CampaignResult, CampaignRunStats), CoreError> {
        if self.config.datasets.is_empty() {
            return Err(CoreError::InvalidConfig {
                context: "campaign needs at least one dataset".into(),
            });
        }
        // One backend instance for the whole run: tier state (a degraded
        // remote, cached append handles) is shared by every dataset.
        let backend = self.open_backend()?;
        let outcomes: Result<Vec<(DatasetReport, bool)>, CoreError> = self
            .config
            .datasets
            .par_iter()
            .map(|&dataset| {
                let start = Instant::now();
                // The baseline always trains (or loads from its budget-keyed
                // cache document): its fingerprint is what binds a completion
                // marker (and the evaluation store) to the exact reference
                // design, so stale markers self-invalidate after any code or
                // budget change. Resuming skips the sweeps — the part that
                // scales with the search, not the baseline.
                let engine = self.build_engine_with(dataset, backend.as_ref())?;
                let (report, was_resumed) =
                    match self.load_marker(backend.as_deref(), dataset, engine.fingerprint()) {
                        Some(report) => (report, true),
                        None => {
                            let report = self.run_dataset_with(dataset, &engine, start)?;
                            self.write_marker(backend.as_deref(), &report, engine.fingerprint())?;
                            (report, false)
                        }
                    };
                if let Some(callback) = &self.progress {
                    callback(&report);
                }
                Ok((report, was_resumed))
            })
            .collect();
        let outcomes = outcomes?;
        // End-of-run synchronization point: push whatever the remote tier
        // missed during an outage window (the tiered composition's replay
        // journal) before the backend instance — and its journal — drops.
        if let Some(backend) = backend.as_deref() {
            backend.flush()?;
        }
        // Derive provenance from the (configuration-ordered) outcomes so the
        // stats are deterministic regardless of worker scheduling.
        let stats = CampaignRunStats {
            resumed: outcomes
                .iter()
                .filter(|(_, was_resumed)| *was_resumed)
                .map(|(report, _)| report.dataset)
                .collect(),
            computed: outcomes
                .iter()
                .filter(|(_, was_resumed)| !*was_resumed)
                .map(|(report, _)| report.dataset)
                .collect(),
            fresh_evaluations: outcomes
                .iter()
                .filter(|(_, was_resumed)| !*was_resumed)
                .map(|(report, _)| report.evaluations)
                .sum(),
        };
        let reports: Vec<DatasetReport> = outcomes.into_iter().map(|(report, _)| report).collect();
        Ok((
            CampaignResult {
                effort: self.config.effort,
                seed: self.config.seed,
                max_accuracy_loss: self.config.max_accuracy_loss,
                objectives: self.config.objectives.to_string(),
                reports,
            },
            stats,
        ))
    }

    /// Identity of the campaign settings a completion marker must match to be
    /// resumable: effort, seed, accuracy-loss threshold and objective space
    /// (the dataset list is deliberately excluded so subset campaigns share
    /// markers). Every objective space gets its own marker namespace.
    fn marker_fingerprint(&self) -> u64 {
        let rendered = Value::Object(vec![
            ("effort".into(), self.config.effort.serialize_value()),
            (
                "seed".into(),
                Value::String(format!("{:016x}", self.config.seed)),
            ),
            (
                "max_accuracy_loss".into(),
                self.config.max_accuracy_loss.serialize_value(),
            ),
            (
                "objectives".into(),
                Value::String(self.config.objectives.to_string()),
            ),
        ])
        .render_compact();
        let mut fp = crate::store::FingerprintHasher::new();
        fp.mix_bytes(rendered.as_bytes());
        fp.finish()
    }

    /// Document name of `dataset`'s completion marker (also its file name
    /// under a local store directory).
    fn marker_doc_name(&self, dataset: UciDataset) -> String {
        format!(
            "done_{}_{:016x}.json",
            dataset.to_string().to_lowercase(),
            self.marker_fingerprint()
        )
    }

    /// Loads `dataset`'s completion marker when resuming; `None` when resume
    /// is off, there is no marker (on any configured tier), or the marker
    /// belongs to other settings or another baseline (`engine_fingerprint`
    /// mismatch — e.g. after a code or budget change that altered the trained
    /// reference design).
    fn load_marker(
        &self,
        backend: Option<&dyn StoreBackend>,
        dataset: UciDataset,
        engine_fingerprint: u64,
    ) -> Option<DatasetReport> {
        if !self.config.resume {
            return None;
        }
        let text = backend?.get_doc(&self.marker_doc_name(dataset)).ok()??;
        let parsed = json::parse(&text).ok()?;
        let value = crate::store::check_envelope(
            &parsed,
            MARKER_MAGIC,
            MARKER_VERSION,
            engine_fingerprint,
        )?;
        let report = DatasetReport::deserialize_value(value.get("report")?).ok()?;
        (report.dataset == dataset).then_some(report)
    }

    /// Commits the completion marker of a finished dataset through the
    /// configured backend (atomically on the local tier, replicated to the
    /// remote tier), bound to the baseline fingerprint it was measured
    /// against; a no-op without a store.
    fn write_marker(
        &self,
        backend: Option<&dyn StoreBackend>,
        report: &DatasetReport,
        engine_fingerprint: u64,
    ) -> Result<(), CoreError> {
        let Some(backend) = backend else {
            return Ok(());
        };
        let value = crate::store::seal_envelope(
            MARKER_MAGIC,
            MARKER_VERSION,
            engine_fingerprint,
            vec![("report".into(), report.serialize_value())],
        );
        backend.put_doc(
            &self.marker_doc_name(report.dataset),
            &value.render_pretty(),
        )
    }

    /// Runs one dataset of the campaign: trains its baseline, sweeps the
    /// three standalone techniques through a fresh engine and packages the
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates baseline, evaluation and synthesis errors.
    pub fn run_dataset(&self, dataset: UciDataset) -> Result<DatasetReport, CoreError> {
        let start = Instant::now();
        let engine = self.build_engine(dataset)?;
        self.run_dataset_with(dataset, &engine, start)
    }

    /// [`Campaign::run_dataset`] against an already-built engine, charging
    /// wall-clock time from `start` (which should predate baseline training).
    fn run_dataset_with(
        &self,
        dataset: UciDataset,
        engine: &EvalEngine,
        start: Instant,
    ) -> Result<DatasetReport, CoreError> {
        let result = Figure1Experiment::new(dataset, self.config.effort, self.config.seed)
            .with_objectives(self.config.objectives.clone())
            .run_with(engine)?;
        let headline = headline_summary(&result, self.config.max_accuracy_loss);
        let stats = engine.stats();
        let descriptor = dataset.descriptor();
        // The hypervolume is referenced to the freshly trained baseline's full
        // metrics and computed over every point the sweeps evaluated (the
        // dominated ones contribute nothing, so this equals the front's).
        let baseline_metrics =
            DesignMetrics::from_synthesis(result.baseline_accuracy, &engine.baseline().synthesis);
        let evaluated: Vec<crate::objective::DesignPoint> = result
            .raw_points
            .iter()
            .flat_map(|(_, points)| points.iter().cloned())
            .collect();
        let volume = hypervolume(&self.config.objectives, &evaluated, &baseline_metrics);
        Ok(DatasetReport {
            dataset,
            name: result.dataset,
            feature_count: descriptor.feature_count,
            class_count: descriptor.class_count,
            hidden_neurons: descriptor.hidden_neurons,
            baseline_accuracy: result.baseline_accuracy,
            baseline_area_mm2: result.baseline_area_mm2,
            baseline_power_uw: engine.baseline().synthesis.power_uw,
            series: result.series,
            headline,
            hypervolume: volume,
            evaluations: stats.misses,
            cache_hit_rate: stats.hit_rate(),
            fast_path_evals: stats.misses,
            full_synthesis_evals: stats.full_synthesis,
            multiplier_cache_hit_rate: stats.multiplier_cache_hit_rate(),
            elapsed_secs: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(name: &str, gains: [Option<f64>; 3]) -> DatasetReport {
        let techniques = [
            Technique::Quantization,
            Technique::Pruning,
            Technique::Clustering,
        ];
        DatasetReport {
            dataset: UciDataset::Seeds,
            name: name.to_string(),
            feature_count: 7,
            class_count: 3,
            hidden_neurons: 10,
            baseline_accuracy: 0.9,
            baseline_area_mm2: 10.0,
            baseline_power_uw: 100.0,
            series: Vec::new(),
            hypervolume: 0.0,
            headline: techniques
                .iter()
                .zip(gains)
                .map(|(technique, area_gain)| HeadlineRow {
                    dataset: name.to_string(),
                    technique: technique.name().to_string(),
                    baseline_accuracy: 0.9,
                    area_gain,
                    max_accuracy_loss: 0.05,
                })
                .collect(),
            evaluations: 5,
            cache_hit_rate: 0.0,
            fast_path_evals: 5,
            full_synthesis_evals: 0,
            multiplier_cache_hit_rate: 0.0,
            elapsed_secs: 1.0,
        }
    }

    fn store_config(datasets: Vec<UciDataset>, dir: &Path, resume: bool) -> CampaignConfig {
        CampaignConfig {
            datasets,
            effort: Effort::Quick,
            seed: 5,
            max_accuracy_loss: 0.05,
            objectives: ObjectiveSpace::classic(),
            store_dir: Some(dir.to_path_buf()),
            remote_store: None,
            remote_timeout_ms: None,
            durability: crate::store::DurabilityPolicy::default(),
            remote_cooldown_ms: None,
            resume,
        }
    }

    #[test]
    fn resumed_campaign_loads_markers_verbatim_and_reports_them() {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-campaign-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let datasets = vec![UciDataset::Seeds];
        let (first, first_stats) = Campaign::new(store_config(datasets.clone(), &dir, false))
            .run_with_stats()
            .unwrap();
        assert_eq!(first_stats.resumed, Vec::new());
        assert_eq!(first_stats.computed, datasets);
        assert!(first_stats.fresh_evaluations > 0);

        let (second, second_stats) = Campaign::new(store_config(datasets.clone(), &dir, true))
            .run_with_stats()
            .unwrap();
        assert_eq!(second_stats.resumed, datasets);
        assert_eq!(second_stats.computed, Vec::new());
        assert_eq!(second_stats.fresh_evaluations, 0);
        assert_eq!(second, first, "resumed reports must be verbatim");

        // Without resume the dataset is recomputed, but the warm store
        // answers every evaluation: zero misses.
        let (third, third_stats) = Campaign::new(store_config(datasets.clone(), &dir, false))
            .run_with_stats()
            .unwrap();
        assert_eq!(third_stats.computed, datasets);
        assert_eq!(third_stats.fresh_evaluations, 0);
        assert_eq!(third.reports[0].evaluations, 0);
        assert!(third.reports[0].cache_hit_rate > 0.99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn markers_of_another_baseline_fingerprint_are_not_resumed() {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-campaign-stale-marker-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let datasets = vec![UciDataset::Seeds];
        let campaign = Campaign::new(store_config(datasets.clone(), &dir, false));
        campaign.run().unwrap();

        // Tamper with the marker's fingerprint, simulating a marker written
        // by a different (e.g. pre-code-change) baseline: resume must ignore
        // it and recompute instead of replaying stale science.
        let marker = dir.join(campaign.marker_doc_name(UciDataset::Seeds));
        let tampered = std::fs::read_to_string(&marker).unwrap().replacen(
            "\"fingerprint\": \"",
            "\"fingerprint\": \"f",
            1,
        );
        std::fs::write(&marker, tampered).unwrap();

        let (_, stats) = Campaign::new(store_config(datasets.clone(), &dir, true))
            .run_with_stats()
            .unwrap();
        assert_eq!(stats.resumed, Vec::new(), "stale marker must not resume");
        assert_eq!(stats.computed, datasets);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn markers_of_other_settings_are_not_resumed() {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-campaign-marker-mismatch-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let datasets = vec![UciDataset::Seeds];
        Campaign::new(store_config(datasets.clone(), &dir, false))
            .run()
            .unwrap();
        // A different seed must ignore the existing marker (different
        // fingerprint in the file name) and recompute.
        let mut other = store_config(datasets.clone(), &dir, true);
        other.seed = 6;
        let (_, stats) = Campaign::new(other).run_with_stats().unwrap();
        assert_eq!(stats.resumed, Vec::new());
        assert_eq!(stats.computed, datasets);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_reports_a_finite_hypervolume_in_every_objective_space() {
        let classic = Campaign::new(CampaignConfig {
            datasets: vec![UciDataset::Seeds],
            effort: Effort::Quick,
            seed: 5,
            ..CampaignConfig::default()
        })
        .run()
        .unwrap();
        assert_eq!(classic.objectives, "accuracy,area");
        let volume = classic.reports[0].hypervolume;
        assert!(volume.is_finite() && volume > 0.0 && volume <= 1.0);

        let energy = Campaign::new(CampaignConfig {
            datasets: vec![UciDataset::Seeds],
            effort: Effort::Quick,
            seed: 5,
            objectives: ObjectiveSpace::parse("accuracy,area,energy").unwrap(),
            ..CampaignConfig::default()
        })
        .run()
        .unwrap();
        assert_eq!(energy.objectives, "accuracy,area,energy");
        let volume3 = energy.reports[0].hypervolume;
        assert!(volume3.is_finite() && volume3 > 0.0 && volume3 <= 1.0);
        // Both spaces see the same sweeps; only the measured objective values
        // differ, so the headline science is identical.
        assert_eq!(energy.reports[0].headline, classic.reports[0].headline);
    }

    #[test]
    fn markers_of_another_objective_space_are_not_resumed() {
        let dir = std::env::temp_dir().join(format!(
            "pmlp-campaign-objective-marker-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let datasets = vec![UciDataset::Seeds];
        Campaign::new(store_config(datasets.clone(), &dir, false))
            .run()
            .unwrap();

        // A 3-objective resume must not replay the classic marker — but the
        // evaluation store is objective-agnostic, so recomputing the dataset
        // under the new space costs zero fresh evaluations.
        let mut energy = store_config(datasets.clone(), &dir, true);
        energy.objectives = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        let (result, stats) = Campaign::new(energy.clone()).run_with_stats().unwrap();
        assert_eq!(stats.resumed, Vec::new(), "marker is bound to the space");
        assert_eq!(stats.computed, datasets);
        assert_eq!(stats.fresh_evaluations, 0, "store warm-starts any space");
        assert!(result.reports[0].hypervolume.is_finite());

        // The 3-objective run committed its own marker; re-running it resumes,
        // and the classic marker is still intact for classic resumes.
        let (_, warm) = Campaign::new(energy).run_with_stats().unwrap();
        assert_eq!(warm.resumed, datasets);
        let (_, classic) = Campaign::new(store_config(datasets.clone(), &dir, true))
            .run_with_stats()
            .unwrap();
        assert_eq!(classic.resumed, datasets);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_campaign_is_rejected() {
        let campaign = Campaign::new(CampaignConfig {
            datasets: Vec::new(),
            ..CampaignConfig::default()
        });
        assert!(matches!(
            campaign.run(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn default_config_covers_the_full_registry() {
        let config = CampaignConfig::default();
        assert_eq!(config.datasets.len(), UciDataset::all().len());
        assert!(config.datasets.len() >= 10);
        assert!((config.max_accuracy_loss - 0.05).abs() < 1e-12);
    }

    #[test]
    fn technique_summaries_average_only_datasets_that_met_the_threshold() {
        let result = CampaignResult {
            effort: Effort::Quick,
            seed: 1,
            max_accuracy_loss: 0.05,
            objectives: "accuracy,area".into(),
            reports: vec![
                tiny_report("A", [Some(4.0), Some(2.0), None]),
                tiny_report("B", [Some(6.0), None, None]),
            ],
        };
        let summaries = result.technique_summaries();
        assert_eq!(summaries.len(), 3);
        let quant = &summaries[0];
        assert_eq!(quant.datasets_met, 2);
        assert_eq!(quant.datasets_total, 2);
        assert!((quant.mean_gain.unwrap() - 5.0).abs() < 1e-12);
        assert!((quant.max_gain.unwrap() - 6.0).abs() < 1e-12);
        let cluster = &summaries[2];
        assert_eq!(cluster.datasets_met, 0);
        assert!(cluster.mean_gain.is_none());
        assert!(cluster.max_gain.is_none());
    }

    #[test]
    fn gain_for_reads_the_headline_rows() {
        let report = tiny_report("A", [Some(4.0), None, Some(1.5)]);
        assert_eq!(report.gain_for(Technique::Quantization), Some(4.0));
        assert_eq!(report.gain_for(Technique::Pruning), None);
        assert_eq!(report.gain_for(Technique::Clustering), Some(1.5));
        assert_eq!(report.gain_for(Technique::Combined), None);
    }

    #[test]
    fn campaign_result_round_trips_through_json() {
        let result = CampaignResult {
            effort: Effort::Quick,
            seed: 7,
            max_accuracy_loss: 0.05,
            objectives: "accuracy,area".into(),
            reports: vec![tiny_report("Seeds", [Some(3.0), Some(2.0), None])],
        };
        let json = serde_json::to_string_pretty(&result).unwrap();
        let back: CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn write_artifacts_emits_aggregate_and_per_dataset_files() {
        let result = CampaignResult {
            effort: Effort::Quick,
            seed: 7,
            max_accuracy_loss: 0.05,
            objectives: "accuracy,area".into(),
            reports: vec![
                tiny_report("Seeds", [Some(3.0), None, None]),
                tiny_report("Balance", [Some(2.0), None, None]),
            ],
        };
        let dir = std::env::temp_dir().join(format!(
            "pmlp-campaign-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let paths = result.write_artifacts(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths[0].ends_with("campaign.json"));
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        let back: CampaignResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, result);
        let per_dataset = std::fs::read_to_string(&paths[2]).unwrap();
        let report: DatasetReport = serde_json::from_str(&per_dataset).unwrap();
        assert_eq!(report, result.reports[1]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
