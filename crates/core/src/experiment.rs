//! Experiment drivers that regenerate every figure and table of the paper.
//!
//! * [`Figure1Experiment`] — one subplot of Fig. 1: the three standalone
//!   technique Pareto fronts for one dataset, normalized to its bespoke
//!   baseline.
//! * [`Figure2Experiment`] — Fig. 2: the combined hardware-aware GA front for
//!   WhiteWine compared against the standalone fronts.
//! * [`headline_summary`] — the Section III text claims (area gain at ≤5 %
//!   accuracy loss per technique).

use crate::baseline::BaselineConfig;
use crate::engine::EvalEngine;
use crate::error::CoreError;
use crate::nsga2::{Nsga2, Nsga2Config, SearchResult};
use crate::objective::{DesignPoint, ObjectiveSpace};
use crate::pareto::{area_gain_at_accuracy_loss, pareto_front_in};
use crate::report::{FigureSeries, HeadlineRow};
use crate::store::StoreBackend;
use crate::sweep::{sweep_all, SweepRanges, Technique};
use pmlp_data::UciDataset;
use serde::{Deserialize, Serialize};

/// Effort level of an experiment run: `Full` reproduces the paper's ranges,
/// `Quick` shrinks everything for smoke tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Effort {
    /// Paper-scale parameter ranges and training budgets.
    #[default]
    Full,
    /// Reduced ranges/budgets for fast runs.
    Quick,
}

impl Effort {
    /// Baseline training budget for this effort level.
    ///
    /// Both efforts keep the default
    /// [accuracy tier](crate::objective::AccuracyTier): baseline and candidate
    /// accuracies are measured by pure-integer inference — the exact
    /// arithmetic of the printed circuit — not by the fake-quantized float
    /// model.
    pub fn baseline_config(self) -> BaselineConfig {
        match self {
            Effort::Full => BaselineConfig::default(),
            Effort::Quick => BaselineConfig {
                epochs: 12,
                ..BaselineConfig::default()
            },
        }
    }

    /// Sweep ranges for this effort level.
    pub fn sweep_ranges(self) -> SweepRanges {
        match self {
            Effort::Full => SweepRanges::default(),
            Effort::Quick => SweepRanges::quick(),
        }
    }

    /// Fine-tuning epochs per candidate for this effort level.
    pub fn fine_tune_epochs(self) -> usize {
        match self {
            Effort::Full => 10,
            Effort::Quick => 2,
        }
    }

    /// GA configuration for this effort level.
    pub fn nsga2_config(self) -> Nsga2Config {
        match self {
            Effort::Full => Nsga2Config::default(),
            Effort::Quick => Nsga2Config {
                population: 6,
                generations: 2,
                ..Nsga2Config::default()
            },
        }
    }

    /// Whether Pareto-front finalists are re-verified through full gate-level
    /// synthesis after the fast-path search.
    ///
    /// `Full` runs verify every finalist; `Quick` runs skip it — CI smoke
    /// tests rely on the fast-path/full-synthesis equivalence test suite
    /// instead, keeping the smoke budget proportional to the analytic cost
    /// model.
    pub fn verify_finalists(self) -> bool {
        match self {
            Effort::Full => true,
            Effort::Quick => false,
        }
    }
}

/// Re-runs every Pareto-front finalist through full gate-level synthesis via
/// [`EvalEngine::finalize`] and fails loudly if any fast-path number is not
/// reproduced exactly.
fn verify_front(
    engine: &EvalEngine,
    front: &[crate::objective::DesignPoint],
) -> Result<(), CoreError> {
    for point in front {
        let finalized = engine.finalize(&point.config)?;
        if !finalized.matches_fast_path {
            return Err(CoreError::Hw {
                context: format!(
                    "fast-path cost model diverged from full synthesis for {:?}: \
                     fast ({:.6} mm2, {:.6} uW, {:.6} us, {} gates) \
                     vs full ({:.6} mm2, {:.6} uW, {:.6} us, {} gates)",
                    point.config.describe(),
                    finalized.point.area_mm2,
                    finalized.point.power_uw,
                    finalized.point.delay_us,
                    finalized.point.gate_count,
                    finalized.full.area_mm2,
                    finalized.full.power_uw,
                    finalized.full.critical_path_us,
                    finalized.full.gate_count,
                ),
            });
        }
    }
    Ok(())
}

/// The data behind one subplot of Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1Result {
    /// Dataset of this subplot.
    pub dataset: String,
    /// Baseline absolute accuracy.
    pub baseline_accuracy: f64,
    /// Baseline circuit area in mm².
    pub baseline_area_mm2: f64,
    /// One Pareto-filtered series per technique.
    pub series: Vec<FigureSeries>,
    /// Every evaluated point per technique (not Pareto filtered), for
    /// completeness of the record.
    pub raw_points: Vec<(Technique, Vec<DesignPoint>)>,
}

/// Driver for one Fig. 1 subplot.
#[derive(Debug, Clone)]
pub struct Figure1Experiment {
    /// Dataset to evaluate.
    pub dataset: UciDataset,
    /// Effort level.
    pub effort: Effort,
    /// RNG seed (data generation + training).
    pub seed: u64,
    /// Objective space the Pareto fronts are computed in. Defaults to the
    /// classic `(accuracy, area)` space, reproducing the paper's figures
    /// byte for byte; evaluation itself (and hence the store/cache) is
    /// objective-agnostic.
    pub objectives: ObjectiveSpace,
}

impl Figure1Experiment {
    /// Creates the experiment for `dataset` at the given effort, over the
    /// classic `(accuracy, area)` objective space.
    pub fn new(dataset: UciDataset, effort: Effort, seed: u64) -> Self {
        Figure1Experiment {
            dataset,
            effort,
            seed,
            objectives: ObjectiveSpace::classic(),
        }
    }

    /// Overrides the objective space the fronts are computed in.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSpace) -> Self {
        self.objectives = objectives;
        self
    }

    /// Builds the evaluation engine this experiment would use: baseline
    /// trained at this effort's budget, fine-tuning budget set accordingly.
    ///
    /// # Errors
    ///
    /// Propagates baseline training and synthesis errors.
    pub fn build_engine(&self) -> Result<EvalEngine, CoreError> {
        Ok(
            EvalEngine::train_with(self.dataset, self.seed, &self.effort.baseline_config())?
                .with_fine_tune_epochs(self.effort.fine_tune_epochs()),
        )
    }

    /// Like [`Figure1Experiment::build_engine`], but consults (and publishes
    /// to) the baseline characterization cache in `backend` — see
    /// [`BaselineDesign::train_cached`](crate::baseline::BaselineDesign::train_cached).
    /// A warm cache turns the most expensive part of figure regeneration and
    /// of resuming a campaign dataset into a single document read.
    ///
    /// # Errors
    ///
    /// Propagates baseline training, synthesis and cache-write errors.
    pub fn build_engine_cached(
        &self,
        backend: Option<&dyn StoreBackend>,
    ) -> Result<EvalEngine, CoreError> {
        Ok(EvalEngine::train_cached(
            self.dataset,
            self.seed,
            &self.effort.baseline_config(),
            backend,
        )?
        .with_fine_tune_epochs(self.effort.fine_tune_epochs()))
    }

    /// Runs the experiment: trains the baseline, runs the three standalone
    /// sweeps and packages the normalized Pareto fronts.
    ///
    /// # Errors
    ///
    /// Propagates baseline, evaluation and synthesis errors.
    pub fn run(&self) -> Result<Figure1Result, CoreError> {
        self.run_with(&self.build_engine()?)
    }

    /// Same as [`Figure1Experiment::run`] against a caller-provided engine,
    /// so several experiments can share one warm evaluation cache.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and synthesis errors.
    pub fn run_with(&self, engine: &EvalEngine) -> Result<Figure1Result, CoreError> {
        let sweeps = sweep_all(engine, &self.effort.sweep_ranges())?;

        let mut series = Vec::with_capacity(sweeps.len());
        let mut raw_points = Vec::with_capacity(sweeps.len());
        for sweep in sweeps {
            let front = pareto_front_in(&self.objectives, &sweep.points);
            if self.effort.verify_finalists() {
                verify_front(engine, &front)?;
            }
            series.push(FigureSeries::from_points(sweep.technique, &front));
            raw_points.push((sweep.technique, sweep.points));
        }
        Ok(Figure1Result {
            dataset: self.dataset.to_string(),
            baseline_accuracy: engine.baseline().accuracy(),
            baseline_area_mm2: engine.baseline().area_mm2(),
            series,
            raw_points,
        })
    }
}

/// The data behind Fig. 2: the combined GA front plus the standalone fronts
/// for the same dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2Result {
    /// Dataset (the paper uses WhiteWine).
    pub dataset: String,
    /// Baseline absolute accuracy.
    pub baseline_accuracy: f64,
    /// Baseline circuit area in mm².
    pub baseline_area_mm2: f64,
    /// Standalone series (quantization, pruning, clustering).
    pub standalone: Vec<FigureSeries>,
    /// The combined hardware-aware GA series.
    pub combined: FigureSeries,
    /// Full GA search result (front, all points, history).
    pub search: SearchResult,
}

/// Driver for Fig. 2.
#[derive(Debug, Clone)]
pub struct Figure2Experiment {
    /// Dataset to evaluate (the paper uses WhiteWine).
    pub dataset: UciDataset,
    /// Effort level.
    pub effort: Effort,
    /// RNG seed.
    pub seed: u64,
    /// Objective space the GA selects in and the fronts are computed in.
    /// Defaults to the classic `(accuracy, area)` space (bit-identical to the
    /// fixed two-objective pipeline).
    pub objectives: ObjectiveSpace,
}

impl Figure2Experiment {
    /// Creates the Fig. 2 experiment (defaults to WhiteWine in the binaries)
    /// over the classic `(accuracy, area)` objective space.
    pub fn new(dataset: UciDataset, effort: Effort, seed: u64) -> Self {
        Figure2Experiment {
            dataset,
            effort,
            seed,
            objectives: ObjectiveSpace::classic(),
        }
    }

    /// Overrides the objective space of the search and its fronts.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSpace) -> Self {
        self.objectives = objectives;
        self
    }

    /// Builds the evaluation engine this experiment would use.
    ///
    /// # Errors
    ///
    /// Propagates baseline training and synthesis errors.
    pub fn build_engine(&self) -> Result<EvalEngine, CoreError> {
        Ok(
            EvalEngine::train_with(self.dataset, self.seed, &self.effort.baseline_config())?
                .with_fine_tune_epochs(self.effort.fine_tune_epochs()),
        )
    }

    /// Like [`Figure2Experiment::build_engine`], but consults (and publishes
    /// to) the baseline characterization cache in `backend` — see
    /// [`BaselineDesign::train_cached`](crate::baseline::BaselineDesign::train_cached).
    ///
    /// # Errors
    ///
    /// Propagates baseline training, synthesis and cache-write errors.
    pub fn build_engine_cached(
        &self,
        backend: Option<&dyn StoreBackend>,
    ) -> Result<EvalEngine, CoreError> {
        Ok(EvalEngine::train_cached(
            self.dataset,
            self.seed,
            &self.effort.baseline_config(),
            backend,
        )?
        .with_fine_tune_epochs(self.effort.fine_tune_epochs()))
    }

    /// Runs the standalone sweeps and the combined GA and packages the
    /// normalized fronts.
    ///
    /// # Errors
    ///
    /// Propagates baseline, evaluation, synthesis and search errors.
    pub fn run(&self) -> Result<Figure2Result, CoreError> {
        self.run_with(&self.build_engine()?)
    }

    /// Same as [`Figure2Experiment::run`] against a caller-provided engine.
    ///
    /// The sweeps and the GA share the engine's memo cache, so any
    /// configuration the GA re-discovers from the standalone ranges is
    /// answered without retraining.
    ///
    /// # Errors
    ///
    /// Propagates evaluation, synthesis and search errors.
    pub fn run_with(&self, engine: &EvalEngine) -> Result<Figure2Result, CoreError> {
        let sweeps = sweep_all(engine, &self.effort.sweep_ranges())?;
        let standalone: Vec<FigureSeries> = sweeps
            .iter()
            .map(|s| {
                FigureSeries::from_points(
                    s.technique,
                    &pareto_front_in(&self.objectives, &s.points),
                )
            })
            .collect();

        let mut ga_config = self.effort.nsga2_config();
        ga_config.seed ^= self.seed;
        ga_config.objectives = self.objectives.clone();
        let search = Nsga2::new(ga_config).run(engine)?;
        if self.effort.verify_finalists() {
            verify_front(engine, &search.pareto_front)?;
        }
        let combined = FigureSeries::from_points(Technique::Combined, &search.pareto_front);

        Ok(Figure2Result {
            dataset: self.dataset.to_string(),
            baseline_accuracy: engine.baseline().accuracy(),
            baseline_area_mm2: engine.baseline().area_mm2(),
            standalone,
            combined,
            search,
        })
    }

    /// Same as [`Figure2Experiment::run_with`]; `doc_name` is ignored (an
    /// interrupted run resumes from the evaluation store the engine
    /// warm-starts from). Nothing in the workspace calls it; it stays only
    /// because the out-of-workspace `perfbench` package calls it, and goes
    /// with the next change allowed to touch `perfbench/`.
    ///
    /// # Errors
    ///
    /// As [`Figure2Experiment::run_with`].
    pub fn run_with_checkpoint_doc(
        &self,
        engine: &EvalEngine,
        _doc_name: &str,
    ) -> Result<Figure2Result, CoreError> {
        self.run_with(engine)
    }
}

/// Computes the headline rows (area gain at `max_accuracy_loss`) for one
/// Fig. 1 result.
///
/// The baseline reference point that leads every sweep series is excluded
/// here: a headline row reports what the *technique* buys, so a technique
/// that never meets the threshold must stay `None` ("n/a") rather than
/// borrow the baseline's trivial 1.0x gain.
pub fn headline_summary(result: &Figure1Result, max_accuracy_loss: f64) -> Vec<HeadlineRow> {
    result
        .raw_points
        .iter()
        .map(|(technique, points)| {
            let technique_points: Vec<DesignPoint> = points
                .iter()
                .filter(|p| !p.config.is_baseline())
                .cloned()
                .collect();
            HeadlineRow {
                dataset: result.dataset.clone(),
                technique: technique.name().to_string(),
                baseline_accuracy: result.baseline_accuracy,
                area_gain: area_gain_at_accuracy_loss(
                    &technique_points,
                    result.baseline_accuracy,
                    max_accuracy_loss,
                ),
                max_accuracy_loss,
            }
        })
        .collect()
}

/// Computes the headline row of a Fig. 2 (combined GA) result.
pub fn headline_combined(result: &Figure2Result, max_accuracy_loss: f64) -> HeadlineRow {
    HeadlineRow {
        dataset: result.dataset.clone(),
        technique: Technique::Combined.name().to_string(),
        baseline_accuracy: result.baseline_accuracy,
        area_gain: area_gain_at_accuracy_loss(
            &result.search.all_points,
            result.baseline_accuracy,
            max_accuracy_loss,
        ),
        max_accuracy_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_levels_scale_budgets() {
        assert!(Effort::Quick.baseline_config().epochs < Effort::Full.baseline_config().epochs);
        assert!(Effort::Quick.fine_tune_epochs() < Effort::Full.fine_tune_epochs());
        assert!(Effort::Quick.nsga2_config().population < Effort::Full.nsga2_config().population);
        assert!(
            Effort::Quick.sweep_ranges().weight_bits.len()
                < Effort::Full.sweep_ranges().weight_bits.len()
        );
    }

    #[test]
    fn quick_figure1_on_seeds_produces_three_series() {
        let result = Figure1Experiment::new(UciDataset::Seeds, Effort::Quick, 3)
            .run()
            .unwrap();
        assert_eq!(result.series.len(), 3);
        assert!(result.baseline_area_mm2 > 0.0);
        assert!(result.baseline_accuracy > 0.5);
        // Every series has at least one point and all normalized areas are
        // positive.
        for series in &result.series {
            assert!(!series.points.is_empty());
            assert!(series.points.iter().all(|&(_, area, _)| area > 0.0));
        }
        // Quantization and pruning produce designs smaller than the baseline.
        let min_area = |t: Technique| {
            result
                .raw_points
                .iter()
                .find(|(tech, _)| *tech == t)
                .map(|(_, pts)| {
                    pts.iter()
                        .map(|p| p.normalized_area)
                        .fold(f64::INFINITY, f64::min)
                })
                .unwrap()
        };
        assert!(min_area(Technique::Quantization) < 1.0);
        assert!(min_area(Technique::Pruning) < 1.0);
    }

    #[test]
    fn headline_summary_ignores_the_baseline_reference_point() {
        use pmlp_minimize::MinimizationConfig;
        let point = |config: MinimizationConfig, accuracy: f64, norm_area: f64| DesignPoint {
            config,
            accuracy,
            area_mm2: norm_area * 100.0,
            power_uw: 1.0,
            delay_us: 1.0,
            normalized_accuracy: accuracy / 0.9,
            normalized_area: norm_area,
            sparsity: 0.0,
            gate_count: 10,
        };
        let result = Figure1Result {
            dataset: "Synthetic".into(),
            baseline_accuracy: 0.9,
            baseline_area_mm2: 100.0,
            series: Vec::new(),
            raw_points: vec![
                (
                    crate::sweep::Technique::Quantization,
                    vec![
                        point(MinimizationConfig::baseline(), 0.9, 1.0),
                        point(
                            MinimizationConfig::default().with_weight_bits(4),
                            0.88,
                            0.25,
                        ),
                    ],
                ),
                (
                    crate::sweep::Technique::Pruning,
                    // Only the baseline reference meets the 5% threshold: the
                    // technique itself never does, so the row must be `None`
                    // ("n/a"), not a borrowed 1.0x.
                    vec![
                        point(MinimizationConfig::baseline(), 0.9, 1.0),
                        point(MinimizationConfig::default().with_sparsity(0.6), 0.7, 0.5),
                    ],
                ),
            ],
        };
        let rows = headline_summary(&result, 0.05);
        assert!((rows[0].area_gain.unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(
            rows[1].area_gain, None,
            "baseline must not count for pruning"
        );
    }

    #[test]
    fn headline_summary_has_one_row_per_technique() {
        let result = Figure1Experiment::new(UciDataset::Seeds, Effort::Quick, 5)
            .run()
            .unwrap();
        let rows = headline_summary(&result, 0.05);
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| (r.baseline_accuracy - result.baseline_accuracy).abs() < 1e-12));
    }
}
