//! Integration tests for the cross-dataset campaign: quick-mode end-to-end
//! coverage, registry round-trips and artifact persistence.

use printed_mlp::core::campaign::{Campaign, CampaignConfig, CampaignResult};
use printed_mlp::core::experiment::Effort;
use printed_mlp::core::report::render_campaign_table;
use printed_mlp::data::{load, UciDataset};

fn quick_config(datasets: Vec<UciDataset>) -> CampaignConfig {
    CampaignConfig {
        datasets,
        effort: Effort::Quick,
        seed: 11,
        max_accuracy_loss: 0.05,
        ..CampaignConfig::default()
    }
}

#[test]
fn registry_round_trips_names_and_descriptor_shapes() {
    let all = UciDataset::all();
    assert!(all.len() >= 10, "the registry must stay paper-scale");
    for dataset in all {
        // parse(name) round-trips the display name.
        assert_eq!(UciDataset::parse(&dataset.to_string()).unwrap(), dataset);

        // Generation is deterministic for a fixed seed ...
        let descriptor = dataset.descriptor();
        let a = load(dataset, 5).unwrap();
        let b = load(dataset, 5).unwrap();
        assert_eq!(a, b, "{dataset}: generation must be deterministic");

        // ... and matches the descriptor's topology and class count.
        assert_eq!(a.feature_count(), descriptor.feature_count, "{dataset}");
        assert_eq!(a.class_count(), descriptor.class_count, "{dataset}");
        assert_eq!(
            descriptor.topology(),
            vec![
                descriptor.feature_count,
                descriptor.hidden_neurons,
                descriptor.class_count
            ],
            "{dataset}"
        );
        assert!(
            a.class_histogram().iter().all(|&count| count >= 2),
            "{dataset}: every class must be represented"
        );
    }
}

#[test]
fn quick_campaign_runs_end_to_end_and_renders() {
    let datasets = vec![UciDataset::Seeds, UciDataset::Mammographic];
    let result = Campaign::new(quick_config(datasets.clone())).run().unwrap();

    assert_eq!(result.reports.len(), datasets.len());
    for (report, expected) in result.reports.iter().zip(&datasets) {
        assert_eq!(report.dataset, *expected, "reports keep registry order");
        assert_eq!(
            report.series.len(),
            3,
            "{}: one series per technique",
            report.name
        );
        assert_eq!(report.headline.len(), 3, "{}", report.name);
        assert!(
            report.baseline_accuracy > 0.5,
            "{}: baseline accuracy {} is at chance level",
            report.name,
            report.baseline_accuracy
        );
        assert!(report.baseline_area_mm2 > 0.0, "{}", report.name);
        assert!(report.evaluations > 0, "{}", report.name);
        assert!(
            report.series.iter().all(|s| !s.points.is_empty()),
            "{}: every technique must produce points",
            report.name
        );
    }

    let summaries = result.technique_summaries();
    assert_eq!(summaries.len(), 3);
    assert!(summaries.iter().all(|s| s.datasets_total == datasets.len()));

    let table = render_campaign_table(&result);
    assert!(table.contains("Seeds") && table.contains("Mammographic"));
    assert!(table.contains("cross-dataset average"));
}

#[test]
fn campaign_is_deterministic_for_a_seed() {
    let config = quick_config(vec![UciDataset::Seeds]);
    let mut first = Campaign::new(config.clone()).run().unwrap();
    let mut second = Campaign::new(config).run().unwrap();
    // Wall-clock timing is the only field allowed to differ between runs.
    for report in first.reports.iter_mut().chain(second.reports.iter_mut()) {
        report.elapsed_secs = 0.0;
    }
    assert_eq!(first, second);
}

#[test]
fn campaign_progress_fires_once_per_dataset() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let fired = Arc::new(AtomicUsize::new(0));
    let observer = Arc::clone(&fired);
    let result = Campaign::new(quick_config(vec![UciDataset::Seeds, UciDataset::Vertebral]))
        .with_progress(move |_| {
            observer.fetch_add(1, Ordering::Relaxed);
        })
        .run()
        .unwrap();
    assert_eq!(fired.load(Ordering::Relaxed), result.reports.len());
}

#[test]
fn campaign_artifacts_round_trip_through_json() {
    let result = Campaign::new(quick_config(vec![UciDataset::Balance]))
        .run()
        .unwrap();

    let dir = std::env::temp_dir().join(format!("pmlp-campaign-it-{}", std::process::id()));
    let paths = result.write_artifacts(&dir).unwrap();
    // One aggregate file plus one per dataset.
    assert_eq!(paths.len(), result.reports.len() + 1);
    assert!(paths.iter().all(|p| p.exists()));

    let text = std::fs::read_to_string(&paths[0]).unwrap();
    let back: CampaignResult = serde_json::from_str(&text).unwrap();
    assert_eq!(back, result);
    std::fs::remove_dir_all(&dir).ok();
}
