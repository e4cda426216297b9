//! The hardware-aware genetic algorithm: an NSGA-II loop over
//! [`Genome`]s whose fitness is the objective vector (by default the
//! (accuracy, area) pair; any [`ObjectiveSpace`] over accuracy, area, delay
//! and energy-per-inference via [`Nsga2Config::objectives`]) measured
//! by retraining the candidate and synthesizing its bespoke circuit.
//!
//! All candidate scoring goes through the shared
//! [`Evaluator`] — in production the memoizing
//! [`EvalEngine`](crate::engine::EvalEngine) — so repeated genomes cost one
//! evaluation per engine lifetime and populations are evaluated in parallel.
//!
//! A search keeps no state between processes. The loop is a function of its
//! seed and the fitness values alone, and each fresh evaluation depends on
//! its configuration alone (every fine-tuning stage seeds its RNG from its
//! own prefix config). So an interrupted search resumes by running
//! [`Nsga2::run`] again from the same seed over an engine warmed from the
//! evaluation store ([`EvalEngine::with_store`](crate::engine::EvalEngine::with_store)):
//! the engine answers every evaluation the first run persisted, computes only
//! what was lost, and the result equals the uninterrupted [`SearchResult`]
//! bit for bit. Against a `pmlp-serve` tier the records replicate to the
//! server, so a second machine replays the search the same way.

use crate::engine::Evaluator;
use crate::error::CoreError;
use crate::genome::{Genome, GenomeSpace};
use crate::objective::{DesignPoint, ObjectiveSpace};
use crate::pareto::{
    crowding_distances_in, descending_nan_last, non_dominated_ranks_in, pareto_front_in,
};
use crate::store::EvalStore;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Hyper-parameters of the NSGA-II search.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (kept constant across generations).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Base RNG seed of the search.
    pub seed: u64,
    /// Search space of the genomes.
    pub space: GenomeSpace,
    /// Objective axes selection operates over (ranks, crowding, the final
    /// front). Defaults to the classic `(accuracy, area)` space, which
    /// reproduces the fixed two-objective search bit for bit. Objective
    /// choice never changes which candidates are *measured* or how (the
    /// evaluator stores full metrics either way) — only which projection
    /// selection compares.
    pub objectives: ObjectiveSpace,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 24,
            generations: 12,
            mutation_rate: 0.25,
            tournament_size: 2,
            seed: 0xDA7E,
            space: GenomeSpace::default(),
            objectives: ObjectiveSpace::classic(),
        }
    }
}

impl Nsga2Config {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when any parameter is degenerate.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.population < 4 {
            return Err(CoreError::InvalidConfig {
                context: "population must be >= 4".into(),
            });
        }
        if self.generations == 0 {
            return Err(CoreError::InvalidConfig {
                context: "generations must be >= 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(CoreError::InvalidConfig {
                context: format!("mutation_rate must be in [0,1], got {}", self.mutation_rate),
            });
        }
        if !(0.0..=1.0).contains(&self.space.enable_probability) {
            return Err(CoreError::InvalidConfig {
                context: format!(
                    "space.enable_probability must be in [0,1], got {}",
                    self.space.enable_probability
                ),
            });
        }
        if self.tournament_size == 0 {
            return Err(CoreError::InvalidConfig {
                context: "tournament_size must be >= 1".into(),
            });
        }
        self.objectives.validate()?;
        Ok(())
    }
}

/// Progress of one generation, reported in [`SearchResult::history`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Size of the Pareto front within the population.
    pub front_size: usize,
    /// Best accuracy seen in this generation.
    pub best_accuracy: f64,
    /// Smallest normalized area seen in this generation.
    pub best_normalized_area: f64,
    /// Number of distinct configurations this search has evaluated so far.
    pub evaluations: usize,
}

/// Result of a hardware-aware GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The final non-dominated set over every point evaluated during the run.
    pub pareto_front: Vec<DesignPoint>,
    /// Every evaluated design point (deduplicated by configuration).
    pub all_points: Vec<DesignPoint>,
    /// Per-generation statistics.
    pub history: Vec<GenerationStats>,
}

/// The hardware-aware NSGA-II searcher.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: Nsga2Config,
}

impl Nsga2 {
    /// Creates a searcher with the given configuration.
    pub fn new(config: Nsga2Config) -> Self {
        Nsga2 { config }
    }

    /// The configuration of this searcher.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the search, scoring every candidate through `evaluator`.
    ///
    /// Each generation's distinct new genomes are evaluated as one parallel
    /// batch; genomes revisited across generations (or shared with earlier
    /// searches on the same [`EvalEngine`](crate::engine::EvalEngine)) are
    /// answered from the engine's memo cache.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the configuration is invalid or an
    /// evaluation fails.
    pub fn run<E: Evaluator + ?Sized>(&self, evaluator: &E) -> Result<SearchResult, CoreError> {
        self.config.validate()?;
        let objectives = &self.config.objectives;
        let space = &self.config.space;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Seed the population with the baseline plus random genomes so the
        // front always contains the reference point.
        let mut population: Vec<Genome> = vec![Genome::baseline()];
        while population.len() < self.config.population {
            population.push(Genome::random(space, &mut rng));
        }

        // Every distinct genome this run has scored, in stable key order.
        let mut seen = BTreeMap::new();
        let mut evaluated = self.evaluate_population(evaluator, &population, &mut seen)?;
        let mut history = Vec::with_capacity(self.config.generations);

        for generation in 0..self.config.generations {
            // Selection + variation: build an offspring population.
            let ranks = non_dominated_ranks_in(objectives, &evaluated);
            let crowding = crowding_by_rank(objectives, &evaluated, &ranks);
            let mut offspring = Vec::with_capacity(self.config.population);
            while offspring.len() < self.config.population {
                let a = self.tournament(&population, &ranks, &crowding, &mut rng);
                let b = self.tournament(&population, &ranks, &crowding, &mut rng);
                let child = population[a].crossover(&population[b], &mut rng).mutate(
                    space,
                    self.config.mutation_rate,
                    &mut rng,
                );
                offspring.push(child);
            }

            // Evaluate offspring (cached + parallel) and merge with parents.
            let offspring_points = self.evaluate_population(evaluator, &offspring, &mut seen)?;
            population.extend_from_slice(&offspring);
            evaluated.extend(offspring_points);

            // Environmental selection: keep the best `population` individuals
            // by (rank, crowding distance). The ordering is NaN-safe — a
            // degenerate evaluation sorts last instead of panicking the whole
            // search.
            let ranks = non_dominated_ranks_in(objectives, &evaluated);
            let crowding = crowding_by_rank(objectives, &evaluated, &ranks);
            let mut order: Vec<usize> = (0..evaluated.len()).collect();
            order.sort_by(|&i, &j| {
                ranks[i]
                    .cmp(&ranks[j])
                    .then_with(|| descending_nan_last(crowding[i], crowding[j]))
            });
            order.truncate(self.config.population);
            population = order.iter().map(|&i| population[i]).collect();
            evaluated = order.iter().map(|&i| evaluated[i].clone()).collect();

            let front = pareto_front_in(objectives, &evaluated);
            history.push(GenerationStats {
                generation,
                front_size: front.len(),
                best_accuracy: evaluated.iter().map(|p| p.accuracy).fold(0.0, f64::max),
                best_normalized_area: evaluated
                    .iter()
                    .map(|p| p.normalized_area)
                    .fold(f64::INFINITY, f64::min),
                evaluations: seen.len(),
            });
        }

        let all_points: Vec<DesignPoint> = seen.into_values().collect();
        Ok(SearchResult {
            pareto_front: pareto_front_in(objectives, &all_points),
            all_points,
            history,
        })
    }

    /// Same as [`Nsga2::run`]; `store`, `doc_name` and `tag` are ignored
    /// (resume comes from the evaluation store the engine warm-starts
    /// from). Nothing in the workspace calls it; it stays only because the
    /// out-of-workspace `perfbench` package calls it, and goes with the next
    /// change allowed to touch `perfbench/`.
    ///
    /// # Errors
    ///
    /// As [`Nsga2::run`].
    pub fn run_resumable_store<E: Evaluator + ?Sized>(
        &self,
        evaluator: &E,
        _store: &EvalStore,
        _doc_name: &str,
        _tag: u64,
    ) -> Result<SearchResult, CoreError> {
        self.run(evaluator)
    }

    fn tournament<R: Rng + ?Sized>(
        &self,
        population: &[Genome],
        ranks: &[usize],
        crowding: &[f64],
        rng: &mut R,
    ) -> usize {
        let mut best = rng.gen_range(0..population.len());
        for _ in 1..self.config.tournament_size {
            let challenger = rng.gen_range(0..population.len());
            let better = ranks[challenger] < ranks[best]
                || (ranks[challenger] == ranks[best] && crowding[challenger] > crowding[best]);
            if better {
                best = challenger;
            }
        }
        best
    }

    /// Scores `genomes`, batching the distinct unseen ones through the
    /// evaluator and answering the rest from `seen`.
    fn evaluate_population<E: Evaluator + ?Sized>(
        &self,
        evaluator: &E,
        genomes: &[Genome],
        seen: &mut BTreeMap<(u8, u32, usize), DesignPoint>,
    ) -> Result<Vec<DesignPoint>, CoreError> {
        let mut missing: Vec<Genome> = Vec::new();
        let mut missing_keys = std::collections::BTreeSet::new();
        for genome in genomes {
            if !seen.contains_key(&genome.key()) && missing_keys.insert(genome.key()) {
                missing.push(*genome);
            }
        }
        let configs: Vec<_> = missing.iter().map(|g| g.to_config()).collect();
        let fresh = evaluator.evaluate_batch(&configs)?;
        for (genome, point) in missing.iter().zip(fresh) {
            seen.insert(genome.key(), point);
        }
        Ok(genomes.iter().map(|g| seen[&g.key()].clone()).collect())
    }
}

/// Crowding distances computed within each rank (NSGA-II semantics).
fn crowding_by_rank(
    objectives: &ObjectiveSpace,
    points: &[DesignPoint],
    ranks: &[usize],
) -> Vec<f64> {
    let mut crowding = vec![0.0_f64; points.len()];
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for rank in 0..=max_rank {
        let members: Vec<usize> = (0..points.len()).filter(|&i| ranks[i] == rank).collect();
        let subset: Vec<DesignPoint> = members.iter().map(|&i| points[i].clone()).collect();
        let distances = crowding_distances_in(objectives, &subset);
        for (slot, &i) in members.iter().enumerate() {
            crowding[i] = distances[slot];
        }
    }
    crowding
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::MockEvaluator;
    use crate::engine::EvalEngine;
    use pmlp_data::UciDataset;
    use pmlp_minimize::MinimizationConfig;

    /// A degenerate evaluator: every 3-bit candidate comes back with NaN
    /// accuracy (e.g. a diverged fine-tune).
    struct NanEvaluator;

    impl Evaluator for NanEvaluator {
        fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
            let mut point = MockEvaluator.evaluate(config)?;
            if config.weight_bits == Some(3) {
                point.accuracy = f64::NAN;
            }
            Ok(point)
        }
    }

    #[test]
    fn nan_evaluations_rank_worst_instead_of_panicking_the_search() {
        let result = Nsga2::new(Nsga2Config {
            population: 8,
            generations: 3,
            seed: 13,
            space: GenomeSpace {
                weight_bits: vec![3, 4, 5],
                sparsities: vec![0.2, 0.4],
                cluster_counts: vec![2, 3],
                enable_probability: 0.9,
            },
            ..Nsga2Config::default()
        })
        .run(&NanEvaluator)
        .unwrap();
        assert!(!result.pareto_front.is_empty());
        assert!(
            result
                .pareto_front
                .iter()
                .all(|p| !p.accuracy.is_nan() && !p.area_mm2.is_nan()),
            "NaN points must never reach the front"
        );
    }

    #[test]
    fn multi_objective_search_fronts_in_the_requested_space() {
        let energy_space = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        let config = Nsga2Config {
            population: 8,
            generations: 3,
            seed: 21,
            objectives: energy_space.clone(),
            ..Nsga2Config::default()
        };
        let result = Nsga2::new(config).run(&MockEvaluator).unwrap();
        assert!(!result.pareto_front.is_empty());
        for a in &result.pareto_front {
            for b in &result.pareto_front {
                assert!(
                    !energy_space.dominates(a, b)
                        || energy_space.values(a) == energy_space.values(b),
                    "3-D front must be mutually non-dominated"
                );
            }
        }
        // Objective choice changes selection only — never what a point
        // carries: every front member still has its full metrics.
        assert!(result.pareto_front.iter().all(|p| p.delay_us.is_finite()));
    }

    #[test]
    fn config_validation() {
        assert!(Nsga2Config {
            population: 2,
            ..Nsga2Config::default()
        }
        .validate()
        .is_err());
        assert!(Nsga2Config {
            generations: 0,
            ..Nsga2Config::default()
        }
        .validate()
        .is_err());
        assert!(Nsga2Config {
            mutation_rate: 1.5,
            ..Nsga2Config::default()
        }
        .validate()
        .is_err());
        assert!(Nsga2Config {
            tournament_size: 0,
            ..Nsga2Config::default()
        }
        .validate()
        .is_err());
        assert!(Nsga2Config::default().validate().is_ok());
        let with_enable_probability = |enable_probability| Nsga2Config {
            space: GenomeSpace {
                enable_probability,
                ..GenomeSpace::default()
            },
            ..Nsga2Config::default()
        };
        for bad in [1.5, -0.1, f64::NAN] {
            let config = with_enable_probability(bad);
            assert!(config.validate().is_err(), "enable_probability {bad}");
            // The search reports the space instead of panicking in sampling.
            assert!(
                matches!(
                    Nsga2::new(config).run(&MockEvaluator),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "enable_probability {bad}"
            );
        }
        for bound in [0.0, 1.0] {
            assert!(with_enable_probability(bound).validate().is_ok());
        }
    }

    #[test]
    fn tiny_search_on_seeds_improves_over_baseline() {
        // A deliberately tiny search (small population, few generations, short
        // fine-tuning) so the test stays fast; it still must find designs that
        // dominate large parts of the area axis.
        let engine = EvalEngine::train_with(
            UciDataset::Seeds,
            11,
            &crate::baseline::BaselineConfig {
                epochs: 10,
                ..crate::baseline::BaselineConfig::default()
            },
        )
        .unwrap()
        .with_fine_tune_epochs(2);
        let config = Nsga2Config {
            population: 6,
            generations: 2,
            seed: 1,
            space: GenomeSpace {
                weight_bits: vec![3, 4],
                sparsities: vec![0.3, 0.5],
                cluster_counts: vec![3],
                enable_probability: 0.8,
            },
            ..Nsga2Config::default()
        };
        let result = Nsga2::new(config).run(&engine).unwrap();
        assert!(!result.pareto_front.is_empty());
        assert_eq!(result.history.len(), 2);
        // The search must discover at least one design smaller than baseline.
        assert!(result.pareto_front.iter().any(|p| p.normalized_area < 0.9));
        // The front is non-dominated.
        for a in &result.pareto_front {
            for b in &result.pareto_front {
                assert!(!crate::pareto::dominates(a, b) || a == b);
            }
        }
        // History tracks a non-decreasing evaluation count, and the engine
        // cache matches the search's own distinct-genome count.
        assert!(result
            .history
            .windows(2)
            .all(|w| w[1].evaluations >= w[0].evaluations));
        let final_evals = result.history.last().unwrap().evaluations;
        assert_eq!(engine.stats().entries, final_evals);
        // Re-running the same search on the warm engine is answered entirely
        // from the cache and produces the identical result.
        let misses_before = engine.stats().misses;
        let rerun = Nsga2::new(Nsga2Config {
            population: 6,
            generations: 2,
            seed: 1,
            space: GenomeSpace {
                weight_bits: vec![3, 4],
                sparsities: vec![0.3, 0.5],
                cluster_counts: vec![3],
                enable_probability: 0.8,
            },
            ..Nsga2Config::default()
        })
        .run(&engine)
        .unwrap();
        assert_eq!(rerun.pareto_front, result.pareto_front);
        assert_eq!(
            engine.stats().misses,
            misses_before,
            "warm re-run must not recompute"
        );
    }
}
