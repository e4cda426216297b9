//! Regenerates the paper's Section III headline claims: the best area
//! reduction achievable with at most 5% accuracy loss, per technique and per
//! dataset, plus the cross-dataset averages quoted in the text
//! (≈5x quantization, ≈2.8x pruning, ≈3.5x clustering, up to ≈8x combined).
//!
//! The standalone-technique rows come from a full cross-dataset `Campaign`
//! (every registry dataset, fanned out over the worker pool); the combined
//! claim is the WhiteWine hardware-aware GA of Fig. 2.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmlp-bench --bin table_headline -- \
//!     [full|quick] [seed] [--quick] [--objectives LIST] [--store DIR] \
//!     [--remote-store URL] [--resume] [--require-warm]
//! ```
//!
//! `--quick` anywhere on the command line forces the reduced CI effort.
//! `--store DIR` persists every evaluation; `--resume` restarts the campaign
//! from its per-dataset completion markers, and the WhiteWine GA replays
//! from its seed against the warm store. `--remote-store URL` shares all of
//! it through a `pmlp-serve` instance; `--require-warm` fails the run if
//! anything had to be evaluated fresh.

use pmlp_bench::{parse_cli, persist_json, render_headline, CAMPAIGN_FLAGS};
use pmlp_core::campaign::{Campaign, CampaignConfig};
use pmlp_core::experiment::{headline_combined, Figure2Experiment};
use pmlp_core::report::{HeadlineRow, TechniqueSummary};
use pmlp_core::sweep::Technique;
use pmlp_data::UciDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_cli(&args);
    options.check_flags(CAMPAIGN_FLAGS)?;
    options.validate()?;
    options.check_positionals(2)?;
    let effort = options.effort(0)?;
    let seed = options.seed(1)?;

    let campaign = Campaign::new(CampaignConfig {
        datasets: UciDataset::all().to_vec(),
        effort,
        seed,
        max_accuracy_loss: 0.05,
        objectives: options.objectives.clone().unwrap_or_default(),
        store_dir: options.store.clone(),
        remote_store: options.remote_store.clone(),
        remote_timeout_ms: options.remote_timeout_ms,
        durability: options.durability.unwrap_or_default(),
        remote_cooldown_ms: None,
        resume: options.resume,
    });
    let (result, campaign_stats) = campaign.run_with_stats()?;
    let mut rows: Vec<HeadlineRow> = result
        .reports
        .iter()
        .flat_map(|report| report.headline.clone())
        .collect();

    // The combined (GA) claim is made for WhiteWine in the paper's Fig. 2.
    let mut fig2 = Figure2Experiment::new(UciDataset::WhiteWine, effort, seed);
    if let Some(space) = &options.objectives {
        fig2 = fig2.with_objectives(space.clone());
    }
    // The campaign above already published WhiteWine's baseline to the
    // store's characterization cache, so this engine builds from a document
    // read instead of retraining.
    let backend = options.open_backend()?;
    let mut engine = fig2.build_engine_cached(backend.as_deref())?;
    if let Some(backend) = backend {
        engine = engine.with_backend(backend)?;
    }
    let combined = fig2.run_with(&engine)?;
    let combined_row = headline_combined(&combined, 0.05);
    rows.push(combined_row.clone());

    println!("{}", render_headline(&rows));

    // Cross-dataset averages per technique (counting only datasets where the
    // technique met the threshold, as the paper does).
    println!("=== cross-dataset average area gain at <=5% accuracy loss ===");
    for summary in result.technique_summaries() {
        println!("{summary}");
    }
    let combined_summary = TechniqueSummary {
        technique: Technique::Combined.name().to_string(),
        mean_gain: combined_row.area_gain,
        max_gain: combined_row.area_gain,
        datasets_met: usize::from(combined_row.area_gain.is_some()),
        datasets_total: 1,
    };
    println!("{combined_summary}");

    persist_json("table_headline", &rows);

    let fresh = campaign_stats.fresh_evaluations + engine.stats().misses;
    if options.has_store() {
        println!(
            "persistence: {} dataset(s) resumed, {} fresh evaluation(s) total",
            campaign_stats.resumed.len(),
            fresh
        );
    }
    if options.require_warm && fresh > 0 {
        return Err(format!("--require-warm: {fresh} fresh evaluation(s) were needed").into());
    }
    Ok(())
}
