//! Integration tests for the shared evaluation engine: determinism of
//! engine-backed searches, memoization across runs, in-flight deduplication,
//! the stage memo, and the quick-effort Figure 1 smoke path used by CI.

use printed_mlp::core::baseline::BaselineConfig;
use printed_mlp::core::engine::{EvalEngine, Evaluator};
use printed_mlp::core::experiment::{Effort, Figure1Experiment};
use printed_mlp::core::genome::GenomeSpace;
use printed_mlp::core::objective::{evaluate_config_detailed, DesignPoint, EvaluationContext};
use printed_mlp::core::store::MemoryBackend;
use printed_mlp::core::sweep::{sweep_all, SweepRanges};
use printed_mlp::core::{Nsga2, Nsga2Config};
use printed_mlp::data::UciDataset;
use printed_mlp::minimize::{IntegerLayer, MinimizationConfig};

fn quick_engine(seed: u64) -> EvalEngine {
    EvalEngine::train_with(
        UciDataset::Seeds,
        seed,
        &BaselineConfig {
            epochs: 10,
            ..BaselineConfig::default()
        },
    )
    .expect("baseline training")
    .with_fine_tune_epochs(2)
}

fn tiny_ga(seed: u64) -> Nsga2 {
    Nsga2::new(Nsga2Config {
        population: 6,
        generations: 2,
        seed,
        space: GenomeSpace {
            weight_bits: vec![3, 4],
            sparsities: vec![0.3, 0.5],
            cluster_counts: vec![3],
            enable_probability: 0.8,
        },
        ..Nsga2Config::default()
    })
}

#[test]
fn same_seed_produces_identical_pareto_front() {
    // Two independent engines (cold caches) and identical search seeds must
    // agree exactly — the engine introduces no nondeterminism.
    let first = tiny_ga(5).run(&quick_engine(3)).unwrap();
    let second = tiny_ga(5).run(&quick_engine(3)).unwrap();
    assert_eq!(first.pareto_front, second.pareto_front);
    assert_eq!(first.all_points, second.all_points);
    assert_eq!(first.history, second.history);
}

#[test]
fn warm_cache_rerun_hits_instead_of_recomputing() {
    let engine = quick_engine(4);
    let cold_start = std::time::Instant::now();
    let cold = tiny_ga(9).run(&engine).unwrap();
    let cold_time = cold_start.elapsed();
    let stats_after_cold = engine.stats();
    assert!(
        stats_after_cold.misses > 0,
        "cold run must compute evaluations"
    );

    let warm_start = std::time::Instant::now();
    let warm = tiny_ga(9).run(&engine).unwrap();
    let warm_time = warm_start.elapsed();
    let stats_after_warm = engine.stats();

    assert_eq!(warm.pareto_front, cold.pareto_front);
    assert_eq!(
        stats_after_warm.misses, stats_after_cold.misses,
        "warm re-run must be answered entirely from the cache"
    );
    assert!(
        stats_after_warm.hits > stats_after_cold.hits,
        "warm re-run must record hits"
    );
    assert!(stats_after_warm.hit_rate() > 0.0);
    // The cache turns seconds of retraining into microseconds of lookups.
    assert!(
        warm_time < cold_time / 2,
        "warm run ({warm_time:?}) not measurably faster than cold ({cold_time:?})"
    );
}

#[test]
fn identical_concurrent_requests_are_deduplicated() {
    let engine = quick_engine(6);
    // A batch of identical configurations: the in-flight machinery must run
    // the pipeline exactly once and coalesce (or cache-hit) everyone else.
    let config = MinimizationConfig::default().with_weight_bits(4);
    let batch = vec![config; 8];
    let points = engine.evaluate_batch(&batch).unwrap();
    assert_eq!(points.len(), 8);
    assert!(points.windows(2).all(|w| w[0] == w[1]));
    let stats = engine.stats();
    assert_eq!(
        stats.misses, 1,
        "one computation for eight identical requests"
    );
    assert_eq!(stats.hits + stats.coalesced, 7);
    assert_eq!(stats.entries, 1);
}

#[test]
fn progress_callback_observes_every_resolution() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let observed = Arc::new(AtomicUsize::new(0));
    let cached_seen = Arc::new(AtomicUsize::new(0));
    let engine = {
        let observed = Arc::clone(&observed);
        let cached_seen = Arc::clone(&cached_seen);
        quick_engine(7).with_progress(move |progress| {
            observed.fetch_add(1, Ordering::Relaxed);
            if progress.cached {
                cached_seen.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let config = MinimizationConfig::default().with_sparsity(0.3);
    engine.evaluate(&config).unwrap();
    engine.evaluate(&config).unwrap();
    assert_eq!(observed.load(Ordering::Relaxed), 2);
    assert_eq!(cached_seen.load(Ordering::Relaxed), 1);
}

#[test]
fn figure1_quick_smoke_on_seeds() {
    // The CI smoke path: quick-effort Figure 1 on the smallest dataset through
    // a shared engine, verifying both the figure structure and that every
    // sweep configuration landed in the memo cache.
    let experiment = Figure1Experiment::new(UciDataset::Seeds, Effort::Quick, 17);
    let engine = experiment.build_engine().unwrap();
    let result = experiment.run_with(&engine).unwrap();

    assert_eq!(result.series.len(), 3);
    assert!(result.baseline_accuracy > 0.5);
    assert!(result.baseline_area_mm2 > 0.0);
    for series in &result.series {
        assert!(!series.points.is_empty());
    }
    let ranges = Effort::Quick.sweep_ranges();
    // One evaluation per swept configuration, plus the shared baseline
    // reference point every sweep series now leads with.
    let expected_configs =
        1 + ranges.weight_bits.len() + ranges.sparsities.len() + ranges.cluster_counts.len();
    assert_eq!(engine.stats().entries, expected_configs);
    // Every series carries the baseline as its reference point.
    for (technique, points) in &result.raw_points {
        assert!(
            points.first().is_some_and(|p| p.config.is_baseline()),
            "{technique:?} series lacks the baseline reference point"
        );
    }

    // Re-running the same experiment on the warm engine recomputes nothing.
    let misses = engine.stats().misses;
    let again = experiment.run_with(&engine).unwrap();
    assert_eq!(again, result);
    assert_eq!(engine.stats().misses, misses);
}

/// A quick engine that records every computed result in an in-memory store,
/// which is where its integer layers can be read back.
fn recording_engine(seed: u64) -> EvalEngine {
    quick_engine(seed)
        .with_backend(Box::new(MemoryBackend::new()))
        .expect("in-memory store")
}

/// Evaluates `config` and returns the point with the integer layers the
/// engine computed for it.
fn point_and_layers(
    engine: &EvalEngine,
    config: &MinimizationConfig,
) -> (DesignPoint, Vec<IntegerLayer>) {
    let point = engine.evaluate(config).unwrap();
    let store = engine.store().expect("recording engine");
    let record = store
        .backend()
        .scan(store.name(), store.fingerprint())
        .unwrap()
        .records
        .into_iter()
        .find(|r| r.point == point)
        .expect("computed point was recorded");
    (point, record.artifacts.layers)
}

fn combined() -> MinimizationConfig {
    MinimizationConfig::default()
        .with_weight_bits(4)
        .with_sparsity(0.3)
        .with_clusters(3)
}

#[test]
fn memoized_stages_reproduce_a_cold_evaluation_bit_for_bit() {
    // Sweeps fill the prune stage for sparsity 0.3; a cluster-only prefix
    // evaluation fills the cluster stage for 0.3 + 3 clusters.
    let warm = recording_engine(3);
    sweep_all(&warm, &SweepRanges::quick()).unwrap();
    warm.evaluate(
        &MinimizationConfig::default()
            .with_sparsity(0.3)
            .with_clusters(3),
    )
    .unwrap();
    let runs = warm.stats().stage_runs;
    let (warm_point, warm_layers) = point_and_layers(&warm, &combined());
    assert_eq!(
        warm.stats().stage_runs,
        runs,
        "the combined config must reuse both memoized stages"
    );
    assert!(warm.stats().stage_reuses > 0);

    let cold = recording_engine(3);
    let (cold_point, cold_layers) = point_and_layers(&cold, &combined());
    assert_eq!(cold.stats().stage_runs, 2, "prune, then cluster");
    assert_eq!(warm_point, cold_point);
    assert_eq!(warm_layers, cold_layers);

    // Without an engine, the same stages run uncached.
    let ctx = EvaluationContext::new(cold.baseline()).with_fine_tune_epochs(2);
    let alone = evaluate_config_detailed(&ctx, &combined(), 0).unwrap();
    assert_eq!(alone.point, cold_point);
    assert_eq!(alone.layers, cold_layers);
}

#[test]
fn memoized_results_do_not_depend_on_evaluation_order() {
    let configs = [
        combined(),
        combined().with_weight_bits(3),
        MinimizationConfig::default()
            .with_weight_bits(4)
            .with_sparsity(0.3),
        MinimizationConfig::default()
            .with_sparsity(0.3)
            .with_clusters(2),
        MinimizationConfig::default().with_sparsity(0.3),
    ];
    let forward = quick_engine(5);
    let forward_points: Vec<DesignPoint> = configs
        .iter()
        .map(|c| forward.evaluate(c).unwrap())
        .collect();
    // The reverse pass runs as one parallel batch, so concurrent candidates
    // also coalesce onto each other's stages.
    let reverse: Vec<MinimizationConfig> = configs.iter().rev().copied().collect();
    let mut reverse_points = quick_engine(5).evaluate_batch(&reverse).unwrap();
    reverse_points.reverse();
    assert_eq!(forward_points, reverse_points);
}

#[test]
fn cleared_engine_recomputes_the_identical_point() {
    let engine = quick_engine(6);
    let first = engine.evaluate(&combined()).unwrap();
    let runs = engine.stats().stage_runs;
    engine.clear_cache();
    let again = engine.evaluate(&combined()).unwrap();
    assert_eq!(first, again);
    assert_eq!(
        engine.stats().stage_runs,
        2 * runs,
        "clear_cache drops the stage memo too"
    );
}

#[test]
fn sparsity_float_noise_changes_neither_seed_nor_result() {
    // Both spellings share one cache key, so they must also share the
    // pipeline's seeds and pruning amount: otherwise a cached result would
    // depend on which spelling arrived first.
    for config in [
        MinimizationConfig::default(),
        MinimizationConfig::default().with_weight_bits(4),
    ] {
        let noisy = quick_engine(8)
            .evaluate(&config.with_sparsity(0.29999999999))
            .unwrap();
        let clean = quick_engine(8)
            .evaluate(&config.with_sparsity(0.3))
            .unwrap();
        assert_eq!(noisy, clean, "{config}");
    }
}
