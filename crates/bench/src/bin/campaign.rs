//! Runs the cross-dataset reproduction campaign: every dataset in the
//! registry (or a comma-separated subset) is trained, swept with the three
//! standalone minimization techniques and summarized in one aggregate
//! paper-style table, with machine-readable JSON artifacts per run.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmlp-bench --bin campaign -- \
//!     [datasets|all] [full|quick] [seed] [--quick] [--objectives LIST] \
//!     [--store DIR] [--remote-store URL] [--resume] [--require-warm]
//!
//! cargo run --release -p pmlp-bench --bin campaign -- \
//!     gc [full|quick] [seed] --store DIR
//! ```
//!
//! `datasets` is `all` (default) or a comma-separated list of registry names
//! (e.g. `seeds,balance,vertebral`). `--quick` anywhere on the command line
//! forces the reduced CI effort. `--objectives accuracy,area,energy` selects the objective space the Pareto
//! fronts and per-dataset hypervolumes are computed in (any comma-separated
//! subset of `accuracy,area,delay,energy`; default `accuracy,area`,
//! byte-identical to the historical two-objective pipeline). The evaluation
//! store is objective-agnostic, so a store written under one space
//! warm-starts a campaign under any other with zero fresh evaluations.
//! Artifacts land under `target/experiment-results/campaign/`.
//!
//! With `--store DIR` every evaluation persists into the crash-safe store
//! under `DIR` and each finished dataset commits a completion marker;
//! `--resume` restarts an interrupted campaign from those markers (only
//! unfinished datasets are recomputed, and their evaluations warm-start from
//! the store). `--remote-store URL` shares the cache through a `pmlp-serve`
//! instance: a second worker pointed at the same server inherits every
//! evaluation and marker the first one computed. `--require-warm` makes the
//! run fail if anything had to be freshly evaluated — CI uses it to prove
//! that a store re-run is free.
//!
//! The `gc` subcommand garbage-collects a local store directory: it trains
//! every registry baseline at the given effort/seed to learn the *live*
//! fingerprints, then deletes record logs (and completion markers) bound to
//! any other baseline, merges duplicate keys, and compacts oversized logs.

use pmlp_bench::{parse_cli, CliOptions, CAMPAIGN_FLAGS, CAMPAIGN_GC_FLAGS};
use pmlp_core::campaign::{Campaign, CampaignConfig};
use pmlp_core::experiment::Figure1Experiment;
use pmlp_core::report::render_campaign_table;
use pmlp_core::store::{GcPolicy, LocalJsonlBackend};
use pmlp_data::UciDataset;
use rayon::prelude::*;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_cli(&args);
    let gc = options.positional.first().copied() == Some("gc");
    options.check_flags(if gc {
        CAMPAIGN_GC_FLAGS
    } else {
        CAMPAIGN_FLAGS
    })?;
    options.validate()?;
    options.check_positionals(3)?;
    if gc {
        return run_gc(&options);
    }
    let which = options.positional.first().copied().unwrap_or("all");
    let effort = options.effort(1)?;
    let seed = options.seed(2)?;

    let datasets: Vec<UciDataset> = if which.eq_ignore_ascii_case("all") {
        UciDataset::all().to_vec()
    } else {
        which
            .split(',')
            .map(UciDataset::parse)
            .collect::<Result<_, _>>()?
    };
    let total = datasets.len();

    let start = std::time::Instant::now();
    let campaign = Campaign::new(CampaignConfig {
        datasets,
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
    })
    .with_progress(move |report| {
        eprintln!(
            "[campaign] {:<14} done in {:>6.1}s  ({} evaluations, baseline {:.1}%)",
            report.name,
            report.elapsed_secs,
            report.evaluations,
            report.baseline_accuracy * 100.0,
        );
    });

    let (result, stats) = campaign.run_with_stats()?;
    println!("{}", render_campaign_table(&result));
    println!(
        "campaign over {} datasets finished in {:.1}s",
        total,
        start.elapsed().as_secs_f64()
    );
    if options.has_store() {
        println!(
            "persistence: {} dataset(s) resumed from markers, {} computed, \
             {} fresh evaluation(s)",
            stats.resumed.len(),
            stats.computed.len(),
            stats.fresh_evaluations
        );
    }

    let dir = Path::new("target")
        .join("experiment-results")
        .join("campaign");
    let paths = result.write_artifacts(&dir)?;
    println!("wrote {} artifacts under {}", paths.len(), dir.display());

    if options.require_warm && stats.fresh_evaluations > 0 {
        return Err(format!(
            "--require-warm: {} fresh evaluation(s) were needed (datasets recomputed: {:?})",
            stats.fresh_evaluations, stats.computed
        )
        .into());
    }
    Ok(())
}

/// `campaign gc`: garbage-collect a local store directory against the live
/// registry baselines.
fn run_gc(options: &CliOptions<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let Some(dir) = &options.store else {
        return Err(
            "campaign gc needs --store DIR (remote stores are compacted \
                    server-side by running gc against the server's own directory)"
                .into(),
        );
    };
    let effort = options.effort(1)?;
    let seed = options.seed(2)?;

    // The live fingerprints are the trained registry baselines at this
    // effort/seed — training is exactly what a campaign run does first, so
    // gc's notion of "live" matches what the next campaign will warm-start.
    eprintln!(
        "[gc] training {} registry baselines ({effort:?}, seed {seed}) to learn live fingerprints",
        UciDataset::all().len()
    );
    // The baseline characterization cache in the same store makes repeated
    // gc runs (and the campaigns that follow) skip retraining entirely.
    let backend = options.open_backend()?;
    let live: Result<Vec<u64>, pmlp_core::CoreError> = UciDataset::all()
        .par_iter()
        .map(|&dataset| {
            Figure1Experiment::new(dataset, effort, seed)
                .build_engine_cached(backend.as_deref())
                .map(|engine| engine.fingerprint())
        })
        .collect();
    let live = live?;

    // The pass rewrites the directory's logs: run it through a backend that
    // is the directory's only open owner.
    drop(backend);
    let local = LocalJsonlBackend::open_with(dir, options.durability.unwrap_or_default())?;
    let report = local.gc(Some(&live), &GcPolicy::default())?;
    println!(
        "gc of {}: kept {} record log(s), dropped {} file(s), reclaimed {} byte(s), \
         merged {} duplicate record(s), dropped {} corrupt record(s)",
        dir.display(),
        report.files_kept,
        report.files_dropped,
        report.bytes_reclaimed,
        report.duplicates_merged,
        report.corrupt_dropped,
    );
    Ok(())
}
