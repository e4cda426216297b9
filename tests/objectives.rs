//! Objective-space regression and integration suite.
//!
//! The committed golden artifacts under `tests/golden/objectives/` were
//! generated by the fixed two-objective (accuracy, area) pipeline *before*
//! objectives became configurable. The regression tests here prove that the
//! default objective space reproduces them: every field the old pipeline
//! wrote must reappear byte-identically (new fields — e.g. the per-dataset
//! hypervolume — are allowed to be added, never changed or removed), and the
//! scientific payload (Pareto-front series and headline rows) must match
//! exactly in both directions.
//!
//! Regenerate the goldens with `REGEN_GOLDEN=1 cargo test --test objectives`.

use printed_mlp::core::campaign::{Campaign, CampaignConfig, CampaignResult};
use printed_mlp::core::experiment::Effort;
use printed_mlp::core::ObjectiveSpace;
use printed_mlp::data::UciDataset;
use serde_json::Value;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("objectives")
}

/// Runs the reference quick campaign (Seeds + Balance, seed 11) and zeroes
/// the one field that is allowed to differ between runs: wall-clock timing.
fn reference_campaign() -> CampaignResult {
    let mut result = Campaign::new(CampaignConfig {
        datasets: vec![UciDataset::Seeds, UciDataset::Balance],
        effort: Effort::Quick,
        seed: 11,
        max_accuracy_loss: 0.05,
        ..CampaignConfig::default()
    })
    .run()
    .expect("quick campaign");
    for report in &mut result.reports {
        report.elapsed_secs = 0.0;
    }
    result
}

/// Asserts that every field present in `golden` appears in `actual` with an
/// identical value. Objects may gain new fields in `actual`; arrays must
/// match element for element. This is the compatibility contract of the
/// objective-space refactor: additive only.
fn assert_golden_subset(golden: &Value, actual: &Value, path: &str) {
    match (golden, actual) {
        (Value::Object(entries), _) => {
            for (key, value) in entries {
                let field = actual
                    .get(key)
                    .unwrap_or_else(|| panic!("{path}.{key}: field disappeared"));
                assert_golden_subset(value, field, &format!("{path}.{key}"));
            }
        }
        (Value::Array(items), Value::Array(actual_items)) => {
            assert_eq!(
                items.len(),
                actual_items.len(),
                "{path}: array length changed"
            );
            for (i, (a, b)) in items.iter().zip(actual_items).enumerate() {
                assert_golden_subset(a, b, &format!("{path}[{i}]"));
            }
        }
        _ => assert_eq!(golden, actual, "{path}: value changed"),
    }
}

#[test]
fn default_campaign_reproduces_the_pre_refactor_goldens() {
    let result = reference_campaign();
    let rendered = serde_json::to_string_pretty(&result).unwrap();
    let golden_path = golden_dir().join("campaign_quick_seeds_balance_seed11.json");

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&golden_path, rendered).unwrap();
        return;
    }

    let golden_text = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
    let golden: Value = serde_json::parse(&golden_text).unwrap();
    let actual: Value = serde_json::parse(&rendered).unwrap();

    // Every pre-refactor field must survive byte-identically.
    assert_golden_subset(&golden, &actual, "$");

    // The scientific payload — Pareto-front series and headline rows — must
    // match *exactly*, in both directions: no additions allowed inside.
    let reports = golden.field("reports").unwrap();
    let actual_reports = actual.field("reports").unwrap();
    if let (Value::Array(golden_reports), Value::Array(new_reports)) = (reports, actual_reports) {
        assert_eq!(golden_reports.len(), new_reports.len());
        for (i, (g, n)) in golden_reports.iter().zip(new_reports).enumerate() {
            for section in ["series", "headline"] {
                assert_eq!(
                    g.field(section).unwrap(),
                    n.field(section).unwrap(),
                    "reports[{i}].{section} diverged from the pre-refactor front"
                );
            }
        }
    } else {
        panic!("reports must be arrays");
    }
}

/// The store-compatibility acceptance contract of the refactor: objective
/// choice is not part of the evaluation key, so a store written by the
/// classic 2-objective pipeline warm-starts a 3-objective campaign with zero
/// fresh evaluations — and the 3-objective run reports a finite per-dataset
/// hypervolume in its `campaign.json` artifact.
#[test]
fn classic_store_warm_starts_a_three_objective_campaign_with_zero_fresh_evals() {
    let dir = std::env::temp_dir().join(format!(
        "pmlp-objectives-warmstart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let datasets = vec![UciDataset::Seeds, UciDataset::Balance];
    let config = CampaignConfig {
        datasets: datasets.clone(),
        effort: Effort::Quick,
        seed: 11,
        max_accuracy_loss: 0.05,
        store_dir: Some(dir.clone()),
        ..CampaignConfig::default()
    };

    // Seed the store with the classic 2-objective pipeline.
    let (_, cold) = Campaign::new(config.clone()).run_with_stats().unwrap();
    assert!(cold.fresh_evaluations > 0, "cold run must evaluate");

    // The 3-objective campaign recomputes its reports (its markers are bound
    // to the space) but answers every evaluation from the shared store.
    let mut energy = config;
    energy.objectives = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
    energy.resume = true;
    let (result, warm) = Campaign::new(energy).run_with_stats().unwrap();
    assert_eq!(warm.fresh_evaluations, 0, "store must warm-start any space");
    assert_eq!(warm.computed, datasets);
    assert_eq!(result.objectives, "accuracy,area,energy");
    for report in &result.reports {
        assert!(
            report.hypervolume.is_finite() && report.hypervolume > 0.0,
            "{}: hypervolume must be positive and finite",
            report.name
        );
    }

    // The aggregate artifact carries the space and the hypervolumes.
    let artifact_dir = dir.join("artifacts");
    let paths = result.write_artifacts(&artifact_dir).unwrap();
    let text = std::fs::read_to_string(&paths[0]).unwrap();
    let value: Value = serde_json::parse(&text).unwrap();
    assert_eq!(
        value.field("objectives").unwrap(),
        &Value::String("accuracy,area,energy".into())
    );
    if let Ok(Value::Array(reports)) = value.field("reports") {
        assert_eq!(reports.len(), datasets.len());
        for report in reports {
            match report.field("hypervolume") {
                Ok(Value::Number(volume)) => assert!(volume.is_finite()),
                other => panic!("hypervolume missing from artifact: {other:?}"),
            }
        }
    } else {
        panic!("reports must be an array");
    }
    std::fs::remove_dir_all(&dir).ok();
}
