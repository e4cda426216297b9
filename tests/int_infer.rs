//! System-level differential tests of the pure-integer inference engine:
//! tier agreement and netlist equivalence across the full dataset registry,
//! netlist equivalence on real minimized candidates, store round-trips, and a
//! golden-vector corpus.
//!
//! The corpus under `tests/golden/int_infer/` is self-contained: each
//! `.jsonl` file opens with a header line embedding the full circuit spec
//! (weights, biases, bit-widths, activations, sharing) followed by one line
//! per input row carrying the argmax that gate-level netlist simulation
//! produced when the corpus was generated. Replay therefore needs no
//! training and no synthesis — it pins the integer kernels alone.
//! Regenerate after an intentional format or pipeline change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test int_infer golden
//! ```

use printed_mlp::core::baseline::{BaselineConfig, BaselineDesign};
use printed_mlp::core::bridge::circuit_spec_from_layers;
use printed_mlp::core::experiment::Effort;
use printed_mlp::core::objective::{
    evaluate_config, evaluate_config_detailed, integer_accuracy, AccuracyTier, EvaluationContext,
};
use printed_mlp::core::store::{decode_artifacts, encode_artifacts};
use printed_mlp::data::UciDataset;
use printed_mlp::hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, HwActivation, IntInferEngine, LayerSpec,
    SharingStrategy,
};
use printed_mlp::minimize::MinimizationConfig;
use serde_json::Value;
use std::path::PathBuf;

/// Quick-effort baseline: same budget the `--quick` CI paths use.
fn quick_baseline(dataset: UciDataset, seed: u64) -> BaselineDesign {
    tiered_baseline(dataset, seed, AccuracyTier::Integer)
}

/// Quick-effort baseline whose accuracy, and its candidates', is scored in
/// `tier`.
fn tiered_baseline(dataset: UciDataset, seed: u64, tier: AccuracyTier) -> BaselineDesign {
    let config = BaselineConfig {
        accuracy_tier: tier,
        ..Effort::Quick.baseline_config()
    };
    BaselineDesign::train_with(dataset, seed, &config).expect("baseline training succeeds")
}

/// Evaluation context mirroring `--quick` campaign settings.
fn quick_ctx(baseline: &BaselineDesign) -> EvaluationContext<'_> {
    EvaluationContext::new(baseline).with_fine_tune_epochs(Effort::Quick.fine_tune_epochs())
}

/// Asserts that the integer engine and gate-level simulation of the circuit
/// synthesized from `spec` agree on raw output sums and argmax for every
/// row of `rows`; `what` names the case in failure messages.
fn assert_engine_matches_netlist<'r>(
    spec: &CircuitSpec,
    sharing: SharingStrategy,
    rows: impl Iterator<Item = &'r [u16]>,
    what: &str,
) {
    let engine = IntInferEngine::from_spec_with(spec, sharing).expect("engine builds");
    let circuit = BespokeMlpCircuit::synthesize_with(spec, &CellLibrary::egt(), sharing)
        .expect("synthesis succeeds");
    for row in rows {
        let wide: Vec<u64> = row.iter().map(|&v| u64::from(v)).collect();
        assert_eq!(
            engine.outputs(row),
            circuit.evaluate(&wide),
            "sums diverge ({what})"
        );
        assert_eq!(
            engine.classify_row(row),
            circuit.classify(&wide),
            "argmax diverges ({what})"
        );
    }
}

// ---------------------------------------------------------------------------
// Tier differential: Integer == Float, and engine == netlist, on every
// registry dataset.
// ---------------------------------------------------------------------------

/// Both accuracy tiers score the same minimized model on the same quantized
/// test split — the float tier in `f32`, the integer tier with the exact
/// arithmetic of the circuit. The tier belongs to the baseline, so the two
/// baselines here differ only in it. The argmax decisions (and hence the
/// reported accuracies) must be identical on every dataset in the registry.
///
/// Each dataset's baseline design (`MinimizationConfig::baseline()`) is also
/// synthesized and simulated gate by gate on its first test rows, so the
/// engine is held to the netlist on every reference circuit's real shape,
/// not only on the small random specs of the property suite.
#[test]
fn tiers_agree_and_engine_matches_netlist_across_the_registry() {
    let config = MinimizationConfig::default().with_weight_bits(4);
    for &dataset in &UciDataset::all() {
        let float_baseline = tiered_baseline(dataset, 41, AccuracyTier::Float);
        let int_baseline = tiered_baseline(dataset, 41, AccuracyTier::Integer);
        assert_eq!(
            float_baseline.accuracy, int_baseline.accuracy,
            "{dataset:?}: baseline accuracy differs between tiers"
        );
        let float_point = evaluate_config(&quick_ctx(&float_baseline), &config, 0)
            .expect("float-tier evaluation succeeds");
        let int_point = evaluate_config(&quick_ctx(&int_baseline), &config, 0)
            .expect("integer-tier evaluation succeeds");
        assert_eq!(
            float_point.accuracy, int_point.accuracy,
            "{dataset:?}: float tier {} != integer tier {}",
            float_point.accuracy, int_point.accuracy
        );
        // The tiers only differ in accuracy arithmetic; the hardware metrics
        // of the identically-minimized model must agree exactly.
        assert_eq!(float_point.area_mm2, int_point.area_mm2, "{dataset:?}");
        assert_eq!(float_point.gate_count, int_point.gate_count, "{dataset:?}");

        let design = evaluate_config_detailed(
            &quick_ctx(&int_baseline),
            &MinimizationConfig::baseline(),
            0,
        )
        .expect("baseline evaluation succeeds");
        let spec = circuit_spec_from_layers(&design.layers, int_baseline.input_bits)
            .expect("layers form a valid spec");
        assert_engine_matches_netlist(
            &spec,
            design.sharing,
            int_baseline.test_rows.chunks(spec.input_count()).take(8),
            &format!("{dataset:?} baseline"),
        );
    }
}

// ---------------------------------------------------------------------------
// Engine vs gate-level netlist on real minimized candidates.
// ---------------------------------------------------------------------------

/// The integer engine and full netlist simulation must agree on raw output
/// sums and argmax for models coming out of the real minimization pipeline
/// (not just the synthetic topologies the property tests build).
#[test]
fn engine_matches_netlist_on_real_minimized_candidates() {
    let baseline = quick_baseline(UciDataset::Seeds, 3);
    let configs = [
        MinimizationConfig::default().with_weight_bits(4),
        MinimizationConfig::default()
            .with_weight_bits(3)
            .with_clusters(3),
    ];
    for config in &configs {
        let design = evaluate_config_detailed(&quick_ctx(&baseline), config, 0)
            .expect("evaluation succeeds");
        let spec = circuit_spec_from_layers(&design.layers, baseline.input_bits)
            .expect("layers form a valid spec");
        assert_engine_matches_netlist(
            &spec,
            design.sharing,
            baseline.test_rows.chunks(spec.input_count()).take(16),
            &format!("{config:?}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Store round-trip: varint-decoded artifacts score identically.
// ---------------------------------------------------------------------------

/// Encoding the minimized layers into the store's varint artifact blob and
/// decoding them back must reproduce the layers exactly — and the decoded
/// copy must score the exact accuracy of the fresh one under the integer
/// engine.
#[test]
fn decoded_store_artifacts_score_identically_to_fresh_ones() {
    let baseline = quick_baseline(UciDataset::Vertebral, 5);
    let config = MinimizationConfig::default()
        .with_weight_bits(4)
        .with_clusters(4);
    let design =
        evaluate_config_detailed(&quick_ctx(&baseline), &config, 7).expect("evaluation succeeds");

    let blob = encode_artifacts(&design.layers, design.sharing);
    let (layers, sharing) = decode_artifacts(&blob).expect("artifact blob decodes");
    assert_eq!(
        layers, design.layers,
        "layers survive the varint round-trip"
    );
    assert_eq!(sharing, design.sharing);

    let labels = baseline.test.labels();
    let fresh = integer_accuracy(
        &design.layers,
        baseline.input_bits,
        design.sharing,
        &baseline.test_rows,
        labels,
    )
    .expect("fresh layers score");
    let decoded = integer_accuracy(
        &layers,
        baseline.input_bits,
        sharing,
        &baseline.test_rows,
        labels,
    )
    .expect("decoded layers score");
    assert_eq!(fresh, decoded, "decoded artifact scores differently");
    assert_eq!(
        fresh, design.point.accuracy,
        "integer_accuracy disagrees with the evaluated design point"
    );
}

// ---------------------------------------------------------------------------
// Golden-vector corpus.
// ---------------------------------------------------------------------------

/// One committed golden file: which dataset/config produced it (only used
/// when regenerating) and the file name it lives under.
struct GoldenCase {
    dataset: UciDataset,
    seed: u64,
    config: MinimizationConfig,
    file: &'static str,
}

fn golden_cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            dataset: UciDataset::Seeds,
            seed: 11,
            config: MinimizationConfig::default().with_weight_bits(4),
            file: "seeds_w4.jsonl",
        },
        GoldenCase {
            dataset: UciDataset::Balance,
            seed: 12,
            config: MinimizationConfig::default()
                .with_weight_bits(3)
                .with_clusters(3),
            file: "balance_w3_c3.jsonl",
        },
        GoldenCase {
            dataset: UciDataset::Vertebral,
            seed: 13,
            config: MinimizationConfig::default()
                .with_weight_bits(5)
                .with_sparsity(0.4),
            file: "vertebral_w5_s40.jsonl",
        },
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("int_infer")
}

fn num(n: i64) -> Value {
    #[allow(clippy::cast_precision_loss)] // weights/biases/rows are far below 2^53
    Value::Number(n as f64)
}

fn as_i64(v: &Value) -> i64 {
    match v {
        #[allow(clippy::cast_possible_truncation)]
        Value::Number(n) => *n as i64,
        other => panic!("expected number, got {}", other.kind()),
    }
}

fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected array, got {}", other.kind()),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn activation_name(activation: HwActivation) -> &'static str {
    match activation {
        HwActivation::ReLU => "relu",
        HwActivation::Identity => "identity",
        HwActivation::Argmax => "argmax",
    }
}

fn parse_activation(name: &str) -> HwActivation {
    match name {
        "relu" => HwActivation::ReLU,
        "identity" => HwActivation::Identity,
        "argmax" => HwActivation::Argmax,
        other => panic!("unknown activation {other:?} in golden header"),
    }
}

fn sharing_name(sharing: SharingStrategy) -> &'static str {
    match sharing {
        SharingStrategy::None => "none",
        SharingStrategy::SharedPerInput => "shared_per_input",
    }
}

fn parse_sharing(name: &str) -> SharingStrategy {
    match name {
        "none" => SharingStrategy::None,
        "shared_per_input" => SharingStrategy::SharedPerInput,
        other => panic!("unknown sharing strategy {other:?} in golden header"),
    }
}

/// Serializes the full spec into the header line so replay is self-contained.
fn header_line(name: &str, spec: &CircuitSpec, sharing: SharingStrategy) -> String {
    let layers: Vec<Value> = spec
        .layers
        .iter()
        .map(|layer| {
            obj(vec![
                ("weight_bits", num(i64::from(layer.weight_bits))),
                (
                    "activation",
                    Value::String(activation_name(layer.activation).into()),
                ),
                (
                    "weights",
                    Value::Array(
                        layer
                            .weights
                            .iter()
                            .map(|row| Value::Array(row.iter().map(|&w| num(w)).collect()))
                            .collect(),
                    ),
                ),
                (
                    "biases",
                    Value::Array(layer.biases.iter().map(|&b| num(b)).collect()),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("name", Value::String(name.into())),
        ("input_bits", num(i64::from(spec.input_bits))),
        ("sharing", Value::String(sharing_name(sharing).into())),
        ("layers", Value::Array(layers)),
    ])
    .render_compact()
}

/// Rebuilds the circuit spec and sharing strategy from a golden header line.
fn parse_header(line: &str) -> (CircuitSpec, SharingStrategy) {
    let header = serde_json::parse(line).expect("golden header parses as JSON");
    let input_bits = u8::try_from(as_i64(header.field("input_bits").unwrap())).unwrap();
    let sharing = parse_sharing(header.field("sharing").unwrap().as_str().unwrap());
    let layers: Vec<LayerSpec> = as_array(header.field("layers").unwrap())
        .iter()
        .map(|layer| {
            let weights: Vec<Vec<i64>> = as_array(layer.field("weights").unwrap())
                .iter()
                .map(|row| as_array(row).iter().map(as_i64).collect())
                .collect();
            let biases: Vec<i64> = as_array(layer.field("biases").unwrap())
                .iter()
                .map(as_i64)
                .collect();
            let weight_bits = u8::try_from(as_i64(layer.field("weight_bits").unwrap())).unwrap();
            let activation = parse_activation(layer.field("activation").unwrap().as_str().unwrap());
            LayerSpec::with_biases(weights, biases, weight_bits, activation)
                .expect("golden layer is a valid spec")
        })
        .collect();
    let spec = CircuitSpec::new(input_bits, layers).expect("golden spec validates");
    (spec, sharing)
}

/// Regenerates the whole corpus from the minimization pipeline, using
/// gate-level netlist simulation as the ground truth for every argmax.
fn regenerate_golden_corpus() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir creates");
    for case in golden_cases() {
        let baseline = quick_baseline(case.dataset, case.seed);
        let design = evaluate_config_detailed(&quick_ctx(&baseline), &case.config, 0)
            .expect("evaluation succeeds");
        let spec = circuit_spec_from_layers(&design.layers, baseline.input_bits)
            .expect("layers form a valid spec");
        let circuit =
            BespokeMlpCircuit::synthesize_with(&spec, &CellLibrary::egt(), design.sharing)
                .expect("synthesis succeeds");

        let features = spec.input_count();
        let mut lines = vec![header_line(case.file, &spec, design.sharing)];
        for row in baseline.test_rows.chunks(features).take(32) {
            let wide: Vec<u64> = row.iter().map(|&v| u64::from(v)).collect();
            let expected = circuit.classify(&wide);
            lines.push(
                obj(vec![
                    (
                        "row",
                        Value::Array(row.iter().map(|&v| num(i64::from(v))).collect()),
                    ),
                    ("argmax", num(i64::try_from(expected).unwrap())),
                ])
                .render_compact(),
            );
        }
        let path = dir.join(case.file);
        std::fs::write(&path, lines.join("\n") + "\n").expect("golden file writes");
        println!("regenerated {}", path.display());
    }
}

/// Replays every committed golden file through the integer engine: per-row
/// classification and the batched kernel must both reproduce the argmax the
/// netlist simulation recorded.
#[test]
fn golden_vectors_replay_bit_exact() {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        regenerate_golden_corpus();
    }
    let dir = golden_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("golden corpus missing at {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry reads").path();
            (path.extension().is_some_and(|ext| ext == "jsonl")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no golden files under {}; run REGEN_GOLDEN=1 cargo test --test int_infer golden",
        dir.display()
    );

    for path in files {
        let text = std::fs::read_to_string(&path).expect("golden file reads");
        let mut lines = text.lines();
        let (spec, sharing) = parse_header(lines.next().expect("header line present"));
        let engine = IntInferEngine::from_spec_with(&spec, sharing).expect("engine builds");

        let mut rows: Vec<u16> = Vec::new();
        let mut expected: Vec<usize> = Vec::new();
        for (i, line) in lines.enumerate() {
            let record = serde_json::parse(line).expect("golden record parses");
            let row: Vec<u16> = as_array(record.field("row").unwrap())
                .iter()
                .map(|v| u16::try_from(as_i64(v)).unwrap())
                .collect();
            let argmax = usize::try_from(as_i64(record.field("argmax").unwrap())).unwrap();
            assert_eq!(
                engine.classify_row(&row),
                argmax,
                "{}: row {i} diverges from the recorded netlist argmax",
                path.display()
            );
            rows.extend_from_slice(&row);
            expected.push(argmax);
        }
        assert_eq!(
            engine.classify_batch(&rows),
            expected,
            "{}: batched kernel diverges from per-row classification",
            path.display()
        );
    }
}
