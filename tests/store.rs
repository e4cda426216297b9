//! Integration tests of the persistence layer: the kill/resume contract of
//! campaigns (zero fresh evaluations and byte-identical artifacts on a warm
//! store) and exact NSGA-II resumption through a real engine.

use printed_mlp::core::campaign::{Campaign, CampaignConfig};
use printed_mlp::core::experiment::{Effort, Figure2Experiment};
use printed_mlp::core::Evaluator;
use printed_mlp::data::UciDataset;
use printed_mlp::minimize::MinimizationConfig;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pmlp-store-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store_campaign(datasets: Vec<UciDataset>, store: &Path, resume: bool) -> Campaign {
    Campaign::new(CampaignConfig {
        datasets,
        effort: Effort::Quick,
        seed: 11,
        max_accuracy_loss: 0.05,
        objectives: Default::default(),
        store_dir: Some(store.to_path_buf()),
        remote_store: None,
        remote_timeout_ms: None,
        durability: Default::default(),
        remote_cooldown_ms: None,
        resume,
    })
}

/// The headline acceptance contract: run a quick campaign to completion with
/// a store, then re-run on the warm store and observe (a) zero fresh
/// evaluations and (b) byte-identical artifact JSON.
#[test]
fn warm_store_campaign_rerun_is_free_and_byte_identical() {
    let store = temp_dir("campaign-store");
    let artifacts_first = temp_dir("campaign-artifacts-1");
    let artifacts_second = temp_dir("campaign-artifacts-2");
    let datasets = vec![UciDataset::Seeds, UciDataset::Vertebral];

    // Cold run: everything is computed and persisted.
    let (first, first_stats) = store_campaign(datasets.clone(), &store, false)
        .run_with_stats()
        .unwrap();
    assert!(first_stats.fresh_evaluations > 0, "cold run must compute");
    let first_paths = first.write_artifacts(&artifacts_first).unwrap();

    // Warm re-run with --resume: every dataset restarts from its completion
    // marker; zero evaluations, byte-identical artifacts.
    let (second, second_stats) = store_campaign(datasets.clone(), &store, true)
        .run_with_stats()
        .unwrap();
    assert_eq!(second_stats.fresh_evaluations, 0);
    assert_eq!(second_stats.resumed, datasets);
    assert_eq!(second_stats.computed, Vec::new());
    let second_paths = second.write_artifacts(&artifacts_second).unwrap();
    assert_eq!(first_paths.len(), second_paths.len());
    for (a, b) in first_paths.iter().zip(&second_paths) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "artifact {} differs between the uninterrupted and resumed run",
            a.file_name().unwrap().to_string_lossy()
        );
    }

    // Even with the markers out of the picture (resume off), the warm store
    // answers every single evaluation: EngineStats.misses == 0 everywhere.
    let (third, third_stats) = store_campaign(datasets.clone(), &store, false)
        .run_with_stats()
        .unwrap();
    assert_eq!(third_stats.fresh_evaluations, 0);
    for report in &third.reports {
        assert_eq!(
            report.evaluations, 0,
            "{}: warm-store rerun must have zero cache misses",
            report.name
        );
    }
    // The recomputed science agrees with the cold run (only run-local cache
    // statistics and timing may differ).
    for (cold, warm) in first.reports.iter().zip(&third.reports) {
        assert_eq!(cold.series, warm.series);
        assert_eq!(cold.headline, warm.headline);
        assert_eq!(cold.baseline_accuracy, warm.baseline_accuracy);
        assert_eq!(cold.baseline_area_mm2, warm.baseline_area_mm2);
    }

    for dir in [&store, &artifacts_first, &artifacts_second] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// An interrupted campaign (one dataset finished, then the process "dies")
/// resumes with only the unfinished dataset and still produces the same
/// result as an uninterrupted run.
#[test]
fn interrupted_campaign_restarts_only_the_unfinished_datasets() {
    let store = temp_dir("campaign-interrupt");
    let datasets = vec![UciDataset::Seeds, UciDataset::Mammographic];

    // Uninterrupted reference (no store: independent computation).
    let reference = Campaign::new(CampaignConfig {
        datasets: datasets.clone(),
        effort: Effort::Quick,
        seed: 11,
        max_accuracy_loss: 0.05,
        ..CampaignConfig::default()
    })
    .run()
    .unwrap();

    // "Crash" after the first dataset: run a one-dataset campaign, as if the
    // process died before reaching the second.
    store_campaign(vec![datasets[0]], &store, false)
        .run()
        .unwrap();

    // The restarted full campaign resumes the finished dataset from its
    // marker and computes only the second one.
    let (resumed, stats) = store_campaign(datasets.clone(), &store, true)
        .run_with_stats()
        .unwrap();
    assert_eq!(stats.resumed, vec![datasets[0]]);
    assert_eq!(stats.computed, vec![datasets[1]]);

    // Identical science, dataset by dataset (run-local stats/timing aside).
    for (a, b) in reference.reports.iter().zip(&resumed.reports) {
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.series, b.series);
        assert_eq!(a.headline, b.headline);
    }
    std::fs::remove_dir_all(&store).ok();
}

/// Persisted finalization artifacts: a store-warmed Pareto finalist runs
/// full gate-level synthesis directly from the persisted integer layers,
/// without re-running the minimization pipeline. A record whose delay no
/// longer matches its artifacts fails the finalist cross-check, and a record
/// whose artifact blob is damaged is dropped and recomputed as one ordinary
/// miss.
#[test]
fn store_warmed_finalists_finalize_without_re_minimization() {
    use printed_mlp::core::baseline::BaselineConfig;
    use printed_mlp::core::engine::EvalEngine;

    let dir = temp_dir("finalize-warm");
    let config = MinimizationConfig::default().with_weight_bits(4);
    let budget = BaselineConfig {
        epochs: 10,
        ..BaselineConfig::default()
    };
    let build = || {
        EvalEngine::train_with(UciDataset::Seeds, 11, &budget)
            .unwrap()
            .with_fine_tune_epochs(2)
            .with_store(&dir)
            .unwrap()
    };

    // Cold engine: evaluate + finalize; artifacts are computed in-process.
    let engine = build();
    let reference = engine.finalize(&config).unwrap();
    assert!(reference.matches_fast_path);
    assert_eq!(engine.stats().misses, 1);
    let store_path = engine.store().unwrap().path().expect("local store");
    drop(engine);

    // Fresh engine: the record (artifacts included) warm-starts the cache;
    // finalization synthesizes the persisted layers without a miss.
    let engine = build();
    assert_eq!(engine.stats().warmed, 1);
    let finalized = engine.finalize(&config).unwrap();
    assert_eq!(engine.stats().misses, 0, "evaluation must be warm");
    assert!(finalized.matches_fast_path);
    assert_eq!(finalized.point, reference.point);
    assert_eq!(finalized.full, reference.full);
    drop(engine);

    // Double the record's delay and leave every other field as it was: the
    // record still warms the engine, but full synthesis of its artifacts
    // exposes the mismatch (the delay and energy objectives read that value).
    let text = std::fs::read_to_string(&store_path).unwrap();
    let key = "\"delay_us\":";
    let start = text.find(key).expect("record carries a delay") + key.len();
    let end = start
        + text[start..]
            .find([',', '}'])
            .expect("delay value is terminated");
    let delay: f64 = text[start..end].parse().unwrap();
    assert_eq!(delay, reference.full.critical_path_us);
    let damaged = format!("{}{}{}", &text[..start], 2.0 * delay, &text[end..]);
    std::fs::write(&store_path, damaged).unwrap();

    let engine = build();
    assert_eq!(engine.stats().warmed, 1);
    let finalized = engine.finalize(&config).unwrap();
    assert_eq!(engine.stats().misses, 0, "evaluation must be warm");
    assert_eq!(finalized.point.delay_us, 2.0 * delay);
    assert_eq!(finalized.full, reference.full);
    assert!(
        !finalized.matches_fast_path,
        "a delay mismatch must fail the cross-check"
    );
    drop(engine);

    // Damage the artifact blob: the line is dropped and counted, and the
    // configuration is recomputed through the ordinary miss path to the
    // bit-identical point.
    let text = std::fs::read_to_string(&store_path).unwrap();
    let damaged = text.replacen(",\"artifacts\":\"", ",\"artifacts\":\"!", 1);
    assert_ne!(damaged, text);
    std::fs::write(&store_path, damaged).unwrap();

    let engine = build();
    assert_eq!(engine.stats().warmed, 0);
    assert_eq!(engine.store().unwrap().dropped_records(), 1);
    let finalized = engine.finalize(&config).unwrap();
    assert_eq!(engine.stats().misses, 1, "exactly one recomputation");
    assert!(finalized.matches_fast_path);
    assert_eq!(finalized.point, reference.point);
    assert_eq!(finalized.full, reference.full);
    std::fs::remove_dir_all(&dir).ok();
}

/// The accuracy tier belongs to the baseline: a Float-tier and an
/// Integer-tier baseline of one dataset and seed have different fingerprints,
/// so their records land in disjoint logs of one store directory and neither
/// warm-starts the other.
#[test]
fn float_and_integer_tier_baselines_write_disjoint_record_logs() {
    use printed_mlp::core::baseline::BaselineConfig;
    use printed_mlp::core::engine::EvalEngine;
    use printed_mlp::core::AccuracyTier;

    let dir = temp_dir("tier-logs");
    let config = MinimizationConfig::default().with_weight_bits(4);
    let build = |tier| {
        let budget = BaselineConfig {
            accuracy_tier: tier,
            ..Effort::Quick.baseline_config()
        };
        EvalEngine::train_with(UciDataset::Seeds, 11, &budget)
            .unwrap()
            .with_fine_tune_epochs(2)
            .with_store(&dir)
            .unwrap()
    };

    let float = build(AccuracyTier::Float);
    let integer = build(AccuracyTier::Integer);
    assert_ne!(float.fingerprint(), integer.fingerprint());
    float.evaluate(&config).unwrap();
    integer.evaluate(&config).unwrap();
    let float_log = float.store().unwrap().path().unwrap();
    let integer_log = integer.store().unwrap().path().unwrap();
    assert_ne!(float_log, integer_log);
    drop((float, integer));
    for log in [&float_log, &integer_log] {
        let lines = std::fs::read_to_string(log).unwrap().lines().count();
        assert_eq!(lines, 2, "{}: header + one record", log.display());
    }

    // Each tier warm-starts from its own log only.
    for tier in [AccuracyTier::Float, AccuracyTier::Integer] {
        let engine = build(tier);
        assert_eq!(engine.stats().warmed, 1, "{tier:?}");
        engine.evaluate(&config).unwrap();
        assert_eq!(engine.stats().misses, 0, "{tier:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A store filled by the previous pipeline version holds multi-stage results
/// the current pipeline no longer produces under the same cache keys, so the
/// pipeline version is part of the baseline fingerprint and such records
/// must not warm-start an engine.
#[test]
fn records_of_the_previous_pipeline_version_do_not_warm_start() {
    use printed_mlp::core::engine::EvalEngine;
    use printed_mlp::core::store::EvalStore;

    /// `fingerprint()` of the quick Seeds baseline at seed 11 under the
    /// pipeline that ran every stage from one RNG stream.
    const PREVIOUS_PIPELINE_FP: u64 = 0x4750_51f3_277a_3aaa;

    let dir = temp_dir("stale-pipeline");
    let build = || {
        EvalEngine::train_with(UciDataset::Seeds, 11, &Effort::Quick.baseline_config())
            .unwrap()
            .with_fine_tune_epochs(2)
    };
    let engine = build();
    assert_ne!(engine.fingerprint(), PREVIOUS_PIPELINE_FP);
    let config = MinimizationConfig::default()
        .with_weight_bits(4)
        .with_sparsity(0.3);
    let recorder = build()
        .with_backend(Box::new(printed_mlp::core::store::MemoryBackend::new()))
        .unwrap();
    recorder.evaluate(&config).unwrap();
    let store = recorder.store().unwrap();
    let record = store
        .backend()
        .scan(store.name(), store.fingerprint())
        .unwrap()
        .records
        .remove(0);

    let name = UciDataset::Seeds.to_string();
    EvalStore::open(&dir, &name, PREVIOUS_PIPELINE_FP)
        .unwrap()
        .append(&record)
        .unwrap();
    let stale = build().with_store(&dir).unwrap();
    assert_eq!(stale.stats().warmed, 0, "a stale record warm-started");

    // The same record bound to the current fingerprint does warm-start.
    EvalStore::open(&dir, &name, engine.fingerprint())
        .unwrap()
        .append(&record)
        .unwrap();
    assert_eq!(build().with_store(&dir).unwrap().stats().warmed, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `LocalJsonlBackend::gc` against a real campaign store: live fingerprints
/// survive, a dead baseline's logs and markers disappear.
#[test]
fn gc_prunes_a_real_campaign_store() {
    use printed_mlp::core::store::{GcPolicy, LocalJsonlBackend};

    let store = temp_dir("gc-campaign");
    let datasets = vec![UciDataset::Seeds];

    // Two campaigns with different seeds: two baselines' worth of files.
    store_campaign(datasets.clone(), &store, false)
        .run()
        .unwrap();
    let mut other = CampaignConfig {
        datasets: datasets.clone(),
        effort: Effort::Quick,
        seed: 12,
        max_accuracy_loss: 0.05,
        objectives: Default::default(),
        store_dir: Some(store.to_path_buf()),
        remote_store: None,
        remote_timeout_ms: None,
        durability: Default::default(),
        remote_cooldown_ms: None,
        resume: false,
    };
    let other_campaign = Campaign::new(other.clone());
    other_campaign.run().unwrap();
    let live_fp = other_campaign
        .build_engine(UciDataset::Seeds)
        .unwrap()
        .fingerprint();

    let files_before = std::fs::read_dir(&store).unwrap().count();
    let report = LocalJsonlBackend::open(&store)
        .unwrap()
        .gc(Some(&[live_fp]), &GcPolicy::default())
        .unwrap();
    assert_eq!(report.files_kept, 1, "one live record log");
    assert!(report.files_dropped >= 2, "dead log + dead marker");
    assert!(std::fs::read_dir(&store).unwrap().count() < files_before);

    // The surviving store still resumes the live campaign with zero work.
    other.resume = true;
    let (_, stats) = Campaign::new(other).run_with_stats().unwrap();
    assert_eq!(stats.fresh_evaluations, 0);
    assert_eq!(stats.resumed, datasets);
    std::fs::remove_dir_all(&store).ok();
}

/// NSGA-II through a real engine: a search interrupted mid-run (simulated by
/// an evaluator whose budget runs out) resumes by running again from its
/// seed over the same store. The fresh engine answers every evaluation the
/// crashed run persisted, computes only the one it lost, and the result
/// equals the uninterrupted `SearchResult` exactly.
#[test]
fn interrupted_fig2_search_resumes_to_the_identical_result() {
    use printed_mlp::core::engine::EvalEngine;
    use printed_mlp::core::{CoreError, DesignPoint};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let store = temp_dir("fig2-resume");
    let experiment = Figure2Experiment::new(UciDataset::Seeds, Effort::Quick, 21);

    // Uninterrupted reference run on a plain engine.
    let reference = experiment
        .run_with(&experiment.build_engine().unwrap())
        .unwrap();
    assert!(
        !reference.combined.points.is_empty(),
        "the reference run must reach a combined front"
    );

    /// Fails every evaluation once the budget is spent.
    struct DyingEngine {
        inner: EvalEngine,
        remaining: AtomicUsize,
    }
    impl Evaluator for DyingEngine {
        fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
            let left = self.remaining.fetch_sub(1, Ordering::SeqCst);
            if left == 0 || left > usize::MAX / 2 {
                self.remaining.store(0, Ordering::SeqCst);
                return Err(CoreError::Nn {
                    context: "simulated crash".into(),
                });
            }
            self.inner.evaluate(config)
        }
    }

    // Kill the engine one evaluation short of what the search needs: the
    // crash is guaranteed, and it lands as deep into the run as possible.
    let budget = reference.search.all_points.len() - 1;
    let dying = DyingEngine {
        inner: experiment
            .build_engine()
            .unwrap()
            .with_store(&store)
            .unwrap(),
        remaining: AtomicUsize::new(budget),
    };
    let mut ga_config = Effort::Quick.nsga2_config();
    ga_config.seed ^= 21;
    let searcher = printed_mlp::core::Nsga2::new(ga_config);
    assert!(
        searcher.run(&dying).is_err(),
        "the simulated crash must surface"
    );
    drop(dying);

    // Fresh process: same store, warm with every evaluation but the lost one.
    let engine = experiment
        .build_engine()
        .unwrap()
        .with_store(&store)
        .unwrap();
    let resumed = searcher.run(&engine).unwrap();
    assert_eq!(
        resumed, reference.search,
        "resumed search must equal the uninterrupted one"
    );
    assert_eq!(
        engine.stats().misses,
        1,
        "only the evaluation the crash lost is computed again"
    );
    std::fs::remove_dir_all(&store).ok();
}
