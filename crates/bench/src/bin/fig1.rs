//! Regenerates Figure 1 of the paper: area-accuracy Pareto fronts of the
//! three standalone minimization techniques, one subplot per dataset,
//! normalized to the un-minimized bespoke baseline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmlp-bench --bin fig1 -- \
//!     [dataset|all] [full|quick] [seed] [--quick] [--objectives LIST] \
//!     [--store DIR] [--remote-store URL] [--require-warm]
//! ```
//!
//! `all` means the four datasets of the paper's Fig. 1 (any registry dataset
//! can be named explicitly; the full registry is covered by the `campaign`
//! binary). `--quick` anywhere on the command line forces the reduced CI
//! effort. `--objectives accuracy,area,energy` reports the Pareto fronts in
//! that objective space instead of the classic `(accuracy, area)` plane.
//!
//! With `--store DIR` every evaluation persists into (and warm-starts from)
//! the crash-safe store under `DIR`; a re-run of the same figure is then pure
//! cache replay. `--remote-store URL` adds (or replaces it with) a shared
//! `pmlp-serve` tier — records stream in from the server and fresh ones
//! replicate back, so another machine's evaluations count as warm here.
//! `--require-warm` fails the run if any evaluation had to be computed
//! fresh. The sweeps are stateless, so warm-starting the store is already a
//! resume; a flag this binary does not read is an error.

use pmlp_bench::{parse_cli, persist_json, render_figure1, render_headline, FIGURE_FLAGS};
use pmlp_core::experiment::{headline_summary, Figure1Experiment};
use pmlp_data::UciDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_cli(&args);
    options.check_flags(FIGURE_FLAGS)?;
    options.validate()?;
    options.check_positionals(3)?;
    let which = options.positional.first().copied().unwrap_or("all");
    let effort = options.effort(1)?;
    let seed = options.seed(2)?;

    let datasets: Vec<UciDataset> = if which.eq_ignore_ascii_case("all") {
        UciDataset::fig1().to_vec()
    } else {
        vec![UciDataset::parse(which)?]
    };

    let mut fresh_evaluations = 0;
    for dataset in datasets {
        let start = std::time::Instant::now();
        let mut experiment = Figure1Experiment::new(dataset, effort, seed);
        if let Some(space) = &options.objectives {
            experiment = experiment.with_objectives(space.clone());
        }
        // The backend doubles as the baseline characterization cache: a
        // warm store answers the most expensive step (baseline training +
        // synthesis) with a single document read.
        let backend = options.open_backend()?;
        let mut engine = experiment.build_engine_cached(backend.as_deref())?;
        if let Some(backend) = backend {
            engine = engine.with_backend(backend)?;
        }
        let result = experiment.run_with(&engine)?;
        println!("{}", render_figure1(&result));
        let rows = headline_summary(&result, 0.05);
        println!("{}", render_headline(&rows));
        let stats = engine.stats();
        if options.has_store() {
            println!(
                "store: {} entries warm-started, {} fresh evaluation(s)",
                stats.warmed, stats.misses
            );
        }
        println!("(elapsed: {:.1}s)\n", start.elapsed().as_secs_f64());
        fresh_evaluations += stats.misses;
        persist_json(
            &format!("fig1_{}", dataset.to_string().to_lowercase()),
            &result,
        );
    }
    if options.require_warm && fresh_evaluations > 0 {
        return Err(
            format!("--require-warm: {fresh_evaluations} fresh evaluation(s) were needed").into(),
        );
    }
    Ok(())
}
