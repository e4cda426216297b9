//! Regenerates Figure 2 of the paper: the accuracy-area trade-off of the
//! WhiteWine classifier when quantization, pruning and weight clustering are
//! combined by the hardware-aware genetic algorithm, compared against the
//! standalone techniques.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmlp-bench --bin fig2 -- \
//!     [dataset] [full|quick] [seed] [--quick] [--objectives LIST] \
//!     [--store DIR] [--remote-store URL] [--require-warm]
//! ```
//!
//! `--quick` anywhere on the command line forces the reduced CI effort.
//! `--objectives accuracy,area,energy` runs the GA (and reports the fronts)
//! in that objective space instead of the classic `(accuracy, area)` plane.
//!
//! With `--store DIR` every evaluation persists into the crash-safe store
//! under `DIR`. An interrupted run resumes by running the same command
//! again: the sweeps and the GA replay from their seed, the store answers
//! every evaluation the first run persisted, and the artifact is
//! byte-identical to an uninterrupted run's. `--remote-store URL` adds (or
//! replaces the directory with) a shared `pmlp-serve` tier: evaluations
//! replicate to the server, so another machine replays the search the same
//! way. `--require-warm` fails the run if any evaluation had to be computed
//! fresh.

use pmlp_bench::{parse_cli, persist_json, render_figure2, render_headline, FIGURE_FLAGS};
use pmlp_core::experiment::{headline_combined, Figure2Experiment};
use pmlp_data::UciDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_cli(&args);
    options.check_flags(FIGURE_FLAGS)?;
    options.validate()?;
    options.check_positionals(3)?;
    let dataset = options
        .positional
        .first()
        .map(|name| UciDataset::parse(name))
        .transpose()?
        .unwrap_or(UciDataset::WhiteWine);
    let effort = options.effort(1)?;
    let seed = options.seed(2)?;

    let start = std::time::Instant::now();
    let mut experiment = Figure2Experiment::new(dataset, effort, seed);
    if let Some(space) = &options.objectives {
        experiment = experiment.with_objectives(space.clone());
    }
    // The backend doubles as the baseline characterization cache: a warm
    // store answers baseline training + synthesis with a single document
    // read (this is also what makes a second worker on a shared store cheap).
    let backend = options.open_backend()?;
    let mut engine = experiment.build_engine_cached(backend.as_deref())?;
    if let Some(backend) = backend {
        engine = engine.with_backend(backend)?;
    }
    let result = experiment.run_with(&engine)?;
    println!("{}", render_figure2(&result));
    println!("{}", render_headline(&[headline_combined(&result, 0.05)]));
    let stats = engine.stats();
    if options.has_store() {
        println!(
            "store: {} entries warm-started, {} fresh evaluation(s)",
            stats.warmed, stats.misses
        );
    }
    println!("(elapsed: {:.1}s)", start.elapsed().as_secs_f64());
    persist_json(
        &format!("fig2_{}", dataset.to_string().to_lowercase()),
        &result,
    );
    if options.require_warm && stats.misses > 0 {
        return Err(format!(
            "--require-warm: {} fresh evaluation(s) were needed",
            stats.misses
        )
        .into());
    }
    Ok(())
}
