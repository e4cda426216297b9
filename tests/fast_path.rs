//! Integration tests of the analytic fast-path cost model: the engine costs
//! every candidate through it, so it must be indistinguishable from full
//! gate-level synthesis of the same layers everywhere the search can observe
//! it, and full synthesis must run only when a finalist is verified.

use printed_mlp::core::baseline::{BaselineConfig, BaselineDesign};
use printed_mlp::core::bridge::{estimate_area, synthesize_area};
use printed_mlp::core::engine::{EvalEngine, Evaluator};
use printed_mlp::core::experiment::Effort;
use printed_mlp::core::objective::{evaluate_config_detailed, EvaluationContext};
use printed_mlp::data::UciDataset;
use printed_mlp::hw::SharingStrategy;
use printed_mlp::minimize::{minimize, MinimizationConfig};

fn quick_engine() -> EvalEngine {
    EvalEngine::train_with(
        UciDataset::Seeds,
        13,
        &BaselineConfig {
            epochs: 10,
            ..BaselineConfig::default()
        },
    )
    .unwrap()
    .with_fine_tune_epochs(2)
}

fn candidate_configs() -> Vec<MinimizationConfig> {
    vec![
        MinimizationConfig::baseline(),
        MinimizationConfig::default().with_weight_bits(3),
        MinimizationConfig::default().with_weight_bits(6),
        MinimizationConfig::default().with_sparsity(0.5),
        MinimizationConfig::default().with_clusters(3),
        MinimizationConfig::default()
            .with_weight_bits(4)
            .with_sparsity(0.4)
            .with_clusters(4),
    ]
}

#[test]
fn fast_path_points_equal_full_synthesis_of_their_layers() {
    let engine = quick_engine();
    let baseline = engine.baseline();
    let ctx = EvaluationContext::new(baseline).with_fine_tune_epochs(2);
    for config in candidate_configs() {
        let point = engine.evaluate(&config).unwrap();
        let design = evaluate_config_detailed(&ctx, &config, 0).unwrap();
        assert_eq!(design.point, point, "engine and engine-less paths differ");
        let (layers, bits, library) = (&design.layers, baseline.input_bits, &baseline.library);
        let full = synthesize_area(layers, bits, library, design.sharing).unwrap();
        let fast = estimate_area(layers, bits, library, design.sharing).unwrap();
        assert_eq!(fast, full, "cost models diverge for {}", config.describe());
        assert_eq!(
            (point.area_mm2, point.power_uw, point.delay_us),
            (full.area_mm2, full.power_uw, full.critical_path_us)
        );
        assert_eq!(point.gate_count, full.gate_count);
    }
    let stats = engine.stats();
    assert_eq!(stats.misses, candidate_configs().len());
    assert_eq!(stats.full_synthesis, 0, "scoring never builds a netlist");
}

#[test]
fn finalize_verifies_the_fast_path_against_a_real_netlist() {
    let engine = quick_engine();
    for config in candidate_configs() {
        let finalized = engine.finalize(&config).unwrap();
        assert!(
            finalized.matches_fast_path,
            "full synthesis diverged from the fast path for {}",
            config.describe()
        );
        assert_eq!(finalized.full.area_mm2, finalized.point.area_mm2);
        assert_eq!(finalized.full.power_uw, finalized.point.power_uw);
        assert_eq!(finalized.full.gate_count, finalized.point.gate_count);
    }
    let stats = engine.stats();
    // Every candidate was scored once and fully synthesized once (the
    // finalist verification), from the cached minimized layers.
    assert_eq!(stats.misses, candidate_configs().len());
    assert_eq!(stats.full_synthesis, candidate_configs().len());
}

#[test]
fn quick_baseline_fast_path_matches_full_synthesis_baseline() {
    // Every baseline, Quick effort included, is characterized by full
    // synthesis; the fast path over the same 8-bit layers must agree.
    let config = Effort::Quick.baseline_config();
    let baseline = BaselineDesign::train_with(UciDataset::Vertebral, 3, &config).unwrap();
    let minimized = minimize(
        &baseline.model,
        &baseline.train,
        Some(&baseline.test),
        &MinimizationConfig::baseline().with_input_bits(config.input_bits),
        baseline.seed,
    )
    .unwrap();
    let (layers, bits, library) = (
        &minimized.integer_layers,
        config.input_bits,
        &baseline.library,
    );
    let full = synthesize_area(layers, bits, library, SharingStrategy::None).unwrap();
    assert_eq!(full, baseline.synthesis);
    let fast = estimate_area(layers, bits, library, SharingStrategy::None).unwrap();
    assert_eq!(fast, full);
}
