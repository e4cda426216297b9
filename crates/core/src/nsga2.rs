//! The hardware-aware genetic algorithm: an NSGA-II loop over
//! [`Genome`]s whose fitness is the objective vector (by default the
//! (accuracy, area) pair; any [`ObjectiveSpace`] over accuracy, area, power,
//! delay and energy-per-inference via [`Nsga2Config::objectives`]) measured
//! by retraining the candidate and synthesizing its bespoke circuit.
//!
//! All candidate scoring goes through the shared
//! [`Evaluator`] — in production the memoizing
//! [`EvalEngine`](crate::engine::EvalEngine) — so repeated genomes cost one
//! evaluation per engine lifetime and populations are evaluated in parallel.
//!
//! Long searches are resumable: [`Nsga2::run_resumable_store`] commits a
//! checkpoint (population genomes, RNG state, per-generation history and
//! every scored point) as a named document in any
//! [`StoreBackend`](crate::store::StoreBackend) — **after every evaluation
//! batch**, not just per generation: once a generation's offspring are bred,
//! the post-variation RNG state and the pending offspring are checkpointed,
//! and once their evaluation batch lands the scored points are checkpointed
//! too, so a process killed anywhere inside a generation resumes
//! mid-generation and still reproduces the uninterrupted [`SearchResult`] bit
//! for bit. Against a remote `pmlp-serve` backend the checkpoint replicates
//! to the server, so a second machine can pick up an interrupted search.

use crate::engine::Evaluator;
use crate::error::CoreError;
use crate::genome::{Genome, GenomeSpace};
use crate::objective::{DesignPoint, ObjectiveSpace};
use crate::pareto::{
    crowding_distances_in, descending_nan_last, non_dominated_ranks_in, pareto_front_in,
};
use crate::store::EvalStore;
use pmlp_minimize::{sparsity_millis, MinimizationConfig};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Hyper-parameters of the NSGA-II search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// reproduces the fixed two-objective search bit for bit. The space is
    /// part of the checkpoint identity, so a checkpoint only resumes a
    /// search over the same space. Objective choice never changes which
    /// candidates are *measured* or how (the evaluator stores full metrics
    /// either way) — only which projection selection compares.
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
        self.search(evaluator, None)
    }

    /// Runs the search with checkpointing after **every evaluation batch**:
    /// the full search state (population genomes, RNG progress, history,
    /// every scored point, plus any pending mid-generation offspring) is
    /// committed as the document `doc_name` of `store`'s backend — once when
    /// a generation's offspring are bred (so the consumed RNG state is safe),
    /// once when their evaluation batch lands, and once when environmental
    /// selection finishes the generation. Against a
    /// [tiered](crate::store::TieredStore) or remote backend the checkpoint
    /// replicates to the `pmlp-serve` server, so a *different machine*
    /// pointed at the same server resumes the search.
    ///
    /// When the document already holds a state written by the **same**
    /// configuration and `tag`, the search resumes from it — mid-generation
    /// if that is where the previous process died: a checkpoint with pending
    /// offspring skips the variation step (its randomness is already spent)
    /// and re-evaluates only what the persistent evaluation store cannot
    /// answer. The resumed run produces exactly the [`SearchResult`] the
    /// uninterrupted run would have produced, because the checkpoint carries
    /// the RNG state. A checkpoint from a different configuration or tag (or
    /// a corrupt/incompatible document) is ignored and overwritten. A
    /// checkpoint of a *finished* run short-circuits: the result is rebuilt
    /// from the recorded points without a single evaluation.
    ///
    /// `tag` binds the checkpoint to state of the evaluator itself — pass
    /// [`EvalEngine::fingerprint`](crate::engine::EvalEngine::fingerprint) so
    /// a checkpoint written against one baseline is never replayed against a
    /// retrained one (the experiment drivers do exactly this). Pair this with
    /// [`EvalEngine::with_store`](crate::engine::EvalEngine::with_store) and
    /// the resumed generations' evaluations are cache hits too.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the configuration is invalid, an evaluation
    /// fails, or a checkpoint cannot be written ([`CoreError::Store`]).
    pub fn run_resumable_store<E: Evaluator + ?Sized>(
        &self,
        evaluator: &E,
        store: &EvalStore,
        doc_name: &str,
        tag: u64,
    ) -> Result<SearchResult, CoreError> {
        self.search(
            evaluator,
            Some(&Checkpoint {
                store,
                name: doc_name,
                tag,
            }),
        )
    }

    /// The generation loop behind [`Nsga2::run`] (no checkpoint: nothing is
    /// read or serialized) and [`Nsga2::run_resumable_store`].
    fn search<E: Evaluator + ?Sized>(
        &self,
        evaluator: &E,
        checkpoint: Option<&Checkpoint<'_>>,
    ) -> Result<SearchResult, CoreError> {
        self.config.validate()?;
        let mut state = match checkpoint.and_then(|c| self.load_checkpoint(c)) {
            Some(state) => state,
            None => {
                let state = self.init_state(evaluator)?;
                self.save_checkpoint(checkpoint, &state)?;
                state
            }
        };
        while state.history.len() < self.config.generations {
            self.advance(&mut state, evaluator, checkpoint)?;
        }
        Ok(state.into_result(&self.config.objectives))
    }

    /// Seeds and scores the initial population (the state before
    /// generation 0).
    fn init_state<E: Evaluator + ?Sized>(&self, evaluator: &E) -> Result<SearchState, CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let space = &self.config.space;

        // Seed the population with the baseline plus random genomes so the
        // front always contains the reference point.
        let mut population: Vec<Genome> = vec![Genome::baseline()];
        while population.len() < self.config.population {
            population.push(Genome::random(space, &mut rng));
        }

        // Every distinct genome this run has scored, in stable key order.
        let mut seen = BTreeMap::new();
        let evaluated = self.evaluate_population(evaluator, &population, &mut seen)?;
        Ok(SearchState {
            population,
            evaluated,
            seen,
            history: Vec::with_capacity(self.config.generations),
            rng,
            pending: None,
        })
    }

    /// Runs one generation: variation, evaluation, environmental selection,
    /// history bookkeeping. The state is checkpointed after each step that
    /// either consumes randomness or completes an evaluation batch, bounding
    /// the work a crash can lose to one batch.
    fn advance<E: Evaluator + ?Sized>(
        &self,
        state: &mut SearchState,
        evaluator: &E,
        checkpoint: Option<&Checkpoint<'_>>,
    ) -> Result<(), CoreError> {
        let generation = state.history.len();
        let space = &self.config.space;

        // Selection + variation: build an offspring population — unless a
        // mid-generation checkpoint already carries one, in which case its
        // randomness is spent and re-breeding would diverge from the
        // uninterrupted run.
        let offspring = match &state.pending {
            Some(offspring) => offspring.clone(),
            None => {
                let ranks = non_dominated_ranks_in(&self.config.objectives, &state.evaluated);
                let crowding = crowding_by_rank(&self.config.objectives, &state.evaluated, &ranks);
                let mut offspring = Vec::with_capacity(self.config.population);
                while offspring.len() < self.config.population {
                    let a = self.tournament(&state.population, &ranks, &crowding, &mut state.rng);
                    let b = self.tournament(&state.population, &ranks, &crowding, &mut state.rng);
                    let child = state.population[a]
                        .crossover(&state.population[b], &mut state.rng)
                        .mutate(space, self.config.mutation_rate, &mut state.rng);
                    offspring.push(child);
                }
                // Commit the bred offspring and the post-variation RNG state
                // before evaluating: a crash inside the evaluation batch
                // resumes here instead of re-rolling the generation.
                state.pending = Some(offspring.clone());
                self.save_checkpoint(checkpoint, state)?;
                offspring
            }
        };

        // Evaluate offspring (cached + parallel) and merge with parents.
        let offspring_points = self.evaluate_population(evaluator, &offspring, &mut state.seen)?;
        // Checkpoint the completed evaluation batch.
        self.save_checkpoint(checkpoint, state)?;
        let mut combined_genomes = state.population.clone();
        combined_genomes.extend_from_slice(&offspring);
        let mut combined_points = state.evaluated.clone();
        combined_points.extend_from_slice(&offspring_points);

        // Environmental selection: keep the best `population` individuals by
        // (rank, crowding distance). The ordering is NaN-safe — a degenerate
        // evaluation sorts last instead of panicking the whole search.
        let ranks = non_dominated_ranks_in(&self.config.objectives, &combined_points);
        let crowding = crowding_by_rank(&self.config.objectives, &combined_points, &ranks);
        let mut order: Vec<usize> = (0..combined_points.len()).collect();
        order.sort_by(|&i, &j| {
            ranks[i]
                .cmp(&ranks[j])
                .then_with(|| descending_nan_last(crowding[i], crowding[j]))
        });
        order.truncate(self.config.population);
        state.population = order.iter().map(|&i| combined_genomes[i]).collect();
        state.evaluated = order.iter().map(|&i| combined_points[i].clone()).collect();

        let front = pareto_front_in(&self.config.objectives, &state.evaluated);
        state.history.push(GenerationStats {
            generation,
            front_size: front.len(),
            best_accuracy: state
                .evaluated
                .iter()
                .map(|p| p.accuracy)
                .fold(0.0, f64::max),
            best_normalized_area: state
                .evaluated
                .iter()
                .map(|p| p.normalized_area)
                .fold(f64::INFINITY, f64::min),
            evaluations: state.seen.len(),
        });
        state.pending = None;
        // Per-generation checkpoint: selection and history are in, the
        // pending offspring are consumed.
        self.save_checkpoint(checkpoint, state)?;
        Ok(())
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

/// Live state of a search between checkpoints: everything needed to continue
/// the run — including, mid-generation, the bred-but-unselected offspring
/// whose randomness has already been consumed from `rng`.
struct SearchState {
    population: Vec<Genome>,
    evaluated: Vec<DesignPoint>,
    seen: BTreeMap<(u8, u32, usize), DesignPoint>,
    history: Vec<GenerationStats>,
    rng: StdRng,
    /// Offspring of the in-flight generation (`None` between generations).
    pending: Option<Vec<Genome>>,
}

/// Where a resumable search commits its state: a named document in a
/// store's backend (which may replicate it to a `pmlp-serve` server), bound
/// to the caller's evaluator tag.
struct Checkpoint<'a> {
    store: &'a EvalStore,
    name: &'a str,
    tag: u64,
}

impl SearchState {
    fn into_result(self, objectives: &ObjectiveSpace) -> SearchResult {
        let all_points: Vec<DesignPoint> = self.seen.into_values().collect();
        let front = pareto_front_in(objectives, &all_points);
        SearchResult {
            pareto_front: front,
            all_points,
            history: self.history,
        }
    }
}

/// Magic string of NSGA-II checkpoint documents.
const CHECKPOINT_MAGIC: &str = "pmlp-nsga2-checkpoint";

/// Format version of NSGA-II checkpoint documents; bumping it orphans (and
/// overwrites) old checkpoints instead of misreading them. Version 2 added
/// the mid-generation `pending` offspring section.
const CHECKPOINT_VERSION: u32 = 2;

/// The genome deduplication key of an already-evaluated configuration — the
/// inverse of [`Genome::to_config`] as far as [`Genome::key`] is concerned,
/// used to rebuild the `seen` map from checkpointed design points.
fn config_key(config: &MinimizationConfig) -> (u8, u32, usize) {
    (
        config.weight_bits.unwrap_or(0),
        config.sparsity.map(sparsity_millis).unwrap_or(u32::MAX),
        config.clusters_per_input.unwrap_or(0),
    )
}

impl Nsga2 {
    /// Hash of the full configuration (space and objectives included) plus
    /// the caller's evaluator tag: a checkpoint is only resumed by the exact
    /// configuration (and, when tagged, the exact baseline) that wrote it.
    fn config_fingerprint(&self, tag: u64) -> u64 {
        let rendered = self.config.serialize_value().render_compact();
        let mut fp = crate::store::FingerprintHasher::new();
        fp.mix_bytes(rendered.as_bytes());
        fp.mix_u64(tag);
        fp.finish()
    }

    /// Commits `state` to `checkpoint`; a no-op without one.
    fn save_checkpoint(
        &self,
        checkpoint: Option<&Checkpoint<'_>>,
        state: &SearchState,
    ) -> Result<(), CoreError> {
        let Some(checkpoint) = checkpoint else {
            return Ok(());
        };
        let rng_words: Vec<Value> = state
            .rng
            .state()
            .iter()
            .map(|w| Value::String(format!("{w:016x}")))
            .collect();
        let seen: Vec<&DesignPoint> = state.seen.values().collect();
        let value = crate::store::seal_envelope(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            self.config_fingerprint(checkpoint.tag),
            vec![
                ("rng".into(), Value::Array(rng_words)),
                ("population".into(), state.population.serialize_value()),
                ("evaluated".into(), state.evaluated.serialize_value()),
                ("history".into(), state.history.serialize_value()),
                ("seen".into(), seen.serialize_value()),
                (
                    "pending".into(),
                    match &state.pending {
                        Some(offspring) => offspring.serialize_value(),
                        None => Value::Null,
                    },
                ),
            ],
        );
        checkpoint
            .store
            .put_doc(checkpoint.name, &value.render_pretty())
    }

    /// Loads a checkpoint written by this exact configuration and tag;
    /// anything else (missing document, corrupt JSON, other config, other
    /// version) yields `None` so the caller starts fresh.
    fn load_checkpoint(&self, checkpoint: &Checkpoint<'_>) -> Option<SearchState> {
        let text = checkpoint.store.get_doc(checkpoint.name).ok().flatten()?;
        let parsed = json::parse(&text).ok()?;
        let value = crate::store::check_envelope(
            &parsed,
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            self.config_fingerprint(checkpoint.tag),
        )?;
        let rng_words: Vec<String> = Deserialize::deserialize_value(value.get("rng")?).ok()?;
        if rng_words.len() != 4 {
            return None;
        }
        let mut rng_state = [0u64; 4];
        for (slot, word) in rng_state.iter_mut().zip(&rng_words) {
            *slot = u64::from_str_radix(word, 16).ok()?;
        }
        let population: Vec<Genome> =
            Deserialize::deserialize_value(value.get("population")?).ok()?;
        let evaluated: Vec<DesignPoint> =
            Deserialize::deserialize_value(value.get("evaluated")?).ok()?;
        let history: Vec<GenerationStats> =
            Deserialize::deserialize_value(value.get("history")?).ok()?;
        let seen_points: Vec<DesignPoint> =
            Deserialize::deserialize_value(value.get("seen")?).ok()?;
        let pending: Option<Vec<Genome>> = match value.get("pending") {
            None | Some(Value::Null) => None,
            Some(v) => Some(Deserialize::deserialize_value(v).ok()?),
        };
        if population.len() != self.config.population
            || evaluated.len() != self.config.population
            || history.len() > self.config.generations
            || pending
                .as_ref()
                .is_some_and(|offspring| offspring.len() != self.config.population)
        {
            return None;
        }
        let seen: BTreeMap<(u8, u32, usize), DesignPoint> = seen_points
            .into_iter()
            .map(|p| (config_key(&p.config), p))
            .collect();
        Some(SearchState {
            population,
            evaluated,
            seen,
            history,
            rng: StdRng::from_state(rng_state),
            pending,
        })
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
    use crate::store::{LocalJsonlBackend, MemoryBackend, StoreBackend};
    use pmlp_data::UciDataset;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Name of the checkpoint document every test resumes from.
    const DOC: &str = "ga_checkpoint.json";

    /// A store over a fresh in-memory backend.
    fn memory_store() -> EvalStore {
        store_over(Box::new(MemoryBackend::new()))
    }

    fn store_over(backend: Box<dyn StoreBackend>) -> EvalStore {
        EvalStore::with_backend(backend, "ga", 0).unwrap()
    }

    fn mock_search(seed: u64, generations: usize) -> Nsga2 {
        Nsga2::new(Nsga2Config {
            population: 8,
            generations,
            seed,
            ..Nsga2Config::default()
        })
    }

    /// Wraps an evaluator with an evaluation budget; once exhausted, every
    /// call fails — simulating a process killed mid-search.
    struct DyingEvaluator<E> {
        inner: E,
        remaining: AtomicUsize,
    }

    impl<E: Evaluator> Evaluator for DyingEvaluator<E> {
        fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
            let left = self.remaining.fetch_sub(1, Ordering::SeqCst);
            if left == 0 || left > usize::MAX / 2 {
                self.remaining.store(0, Ordering::SeqCst);
                return Err(CoreError::Nn {
                    context: "simulated crash".into(),
                });
            }
            self.inner.evaluate(config)
        }
    }

    /// An evaluator with zero budget: any evaluation attempt fails.
    fn dead() -> DyingEvaluator<MockEvaluator> {
        DyingEvaluator {
            inner: MockEvaluator,
            remaining: AtomicUsize::new(0),
        }
    }

    #[test]
    fn resumable_without_prior_checkpoint_matches_plain_run() {
        let store = memory_store();
        let searcher = mock_search(3, 4);
        let plain = searcher.run(&MockEvaluator).unwrap();
        let resumable = searcher
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();
        assert_eq!(resumable, plain);
        assert!(
            store.get_doc(DOC).unwrap().is_some(),
            "checkpoint must be committed"
        );
    }

    #[test]
    fn interrupted_search_resumes_to_the_identical_result() {
        let store = memory_store();
        let searcher = mock_search(7, 5);
        let uninterrupted = searcher.run(&MockEvaluator).unwrap();

        // Kill the search partway: enough budget for the initial population
        // plus roughly one generation, then hard failure.
        let dying = DyingEvaluator {
            inner: MockEvaluator,
            remaining: AtomicUsize::new(12),
        };
        let crash = searcher.run_resumable_store(&dying, &store, DOC, 0);
        assert!(crash.is_err(), "the simulated crash must surface");
        assert!(
            store.get_doc(DOC).unwrap().is_some(),
            "a checkpoint must survive the crash"
        );

        // A fresh process resumes from the checkpoint and reproduces the
        // uninterrupted result exactly (RNG state travels with it).
        let resumed = searcher
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();
        assert_eq!(resumed, uninterrupted);
    }

    /// Counts every evaluation that reaches the inner evaluator.
    struct CountingEvaluator<E> {
        inner: E,
        calls: AtomicUsize,
    }

    impl<E: Evaluator> Evaluator for CountingEvaluator<E> {
        fn evaluate(&self, config: &MinimizationConfig) -> Result<DesignPoint, CoreError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.evaluate(config)
        }
    }

    #[test]
    fn mid_generation_crash_resumes_bit_identically_without_restarting() {
        let store = memory_store();
        let searcher = mock_search(7, 5);
        let counting_full = CountingEvaluator {
            inner: MockEvaluator,
            calls: AtomicUsize::new(0),
        };
        let uninterrupted = searcher.run(&counting_full).unwrap();
        let full_calls = counting_full.calls.load(Ordering::SeqCst);

        // Kill the search inside a generation's evaluation batch: enough
        // budget for the initial population plus part of generation 0.
        let dying = DyingEvaluator {
            inner: MockEvaluator,
            remaining: AtomicUsize::new(10),
        };
        assert!(searcher
            .run_resumable_store(&dying, &store, DOC, 0)
            .is_err());

        // The surviving checkpoint is a *mid-generation* one: the bred
        // offspring (and the consumed RNG state) are in it.
        let text = store.get_doc(DOC).unwrap().unwrap();
        assert!(
            text.contains("\"pending\": ["),
            "checkpoint must carry pending offspring, got: {}",
            &text[..200.min(text.len())]
        );

        // Resume: bit-identical result, and strictly fewer evaluations than
        // a from-scratch run (the checkpointed `seen` answers the initial
        // population, and variation is not re-rolled).
        let counting = CountingEvaluator {
            inner: MockEvaluator,
            calls: AtomicUsize::new(0),
        };
        let resumed = searcher
            .run_resumable_store(&counting, &store, DOC, 0)
            .unwrap();
        assert_eq!(resumed, uninterrupted);
        assert!(
            counting.calls.load(Ordering::SeqCst) < full_calls,
            "mid-generation resume must not restart the search ({} vs {full_calls})",
            counting.calls.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn checkpoints_live_in_any_store_backend_document() {
        let dir = crate::store::tests::temp_dir("nsga2-checkpoint");
        let searcher = mock_search(9, 3);
        let reference = searcher.run(&MockEvaluator).unwrap();
        for backend in [
            Box::new(MemoryBackend::new()) as Box<dyn StoreBackend>,
            Box::new(LocalJsonlBackend::open(&dir).unwrap()),
        ] {
            let store = store_over(backend);
            let first = searcher
                .run_resumable_store(&MockEvaluator, &store, DOC, 7)
                .unwrap();
            assert_eq!(first, reference);
            assert!(
                store.get_doc(DOC).unwrap().is_some(),
                "checkpoint document must be committed to the backend"
            );
            // A finished checkpoint short-circuits on every backend.
            let replay = searcher
                .run_resumable_store(&dead(), &store, DOC, 7)
                .unwrap();
            assert_eq!(replay, first);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finished_checkpoint_short_circuits_without_evaluations() {
        let store = memory_store();
        let searcher = mock_search(11, 3);
        let first = searcher
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();
        let replay = searcher
            .run_resumable_store(&dead(), &store, DOC, 0)
            .unwrap();
        assert_eq!(replay, first);
    }

    #[test]
    fn checkpoint_of_another_config_is_ignored() {
        let store = memory_store();
        mock_search(1, 3)
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();
        // Different seed => different fingerprint => fresh start, identical
        // to an uncheckpointed run of the second configuration.
        let other = mock_search(2, 3);
        let expected = other.run(&MockEvaluator).unwrap();
        let actual = other
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();
        assert_eq!(actual, expected);
    }

    #[test]
    fn checkpoint_tags_isolate_different_evaluator_identities() {
        let store = memory_store();
        let searcher = mock_search(4, 3);
        let first = searcher
            .run_resumable_store(&MockEvaluator, &store, DOC, 0xAAAA)
            .unwrap();
        // A different tag (e.g. a retrained baseline) must ignore the
        // finished checkpoint and run fresh — here against a dead evaluator,
        // so a wrongly-resumed replay would be the only way to "succeed".
        assert!(
            searcher
                .run_resumable_store(&dead(), &store, DOC, 0xBBBB)
                .is_err(),
            "a checkpoint from another tag must not be replayed"
        );
        // The matching tag still short-circuits.
        let replay = searcher
            .run_resumable_store(&dead(), &store, DOC, 0xAAAA)
            .unwrap();
        assert_eq!(replay, first);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_a_fresh_run() {
        let store = memory_store();
        store.put_doc(DOC, "{not json").unwrap();
        let searcher = mock_search(5, 2);
        let expected = searcher.run(&MockEvaluator).unwrap();
        let actual = searcher
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();
        assert_eq!(actual, expected);
    }

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
    fn classic_checkpoints_are_not_replayed_by_other_objective_spaces() {
        let store = memory_store();
        let classic = mock_search(6, 3);
        let first = classic
            .run_resumable_store(&MockEvaluator, &store, DOC, 0)
            .unwrap();

        // Same config except for the objective space: the classic checkpoint
        // must be orphaned, not replayed (a dead evaluator catches replays).
        let energy = Nsga2::new(Nsga2Config {
            objectives: ObjectiveSpace::parse("accuracy,area,energy").unwrap(),
            ..classic.config().clone()
        });
        assert!(
            energy.run_resumable_store(&dead(), &store, DOC, 0).is_err(),
            "a classic checkpoint must not satisfy an energy-objective search"
        );
        // The classic config itself still short-circuits off its checkpoint.
        let replay = classic
            .run_resumable_store(&dead(), &store, DOC, 0)
            .unwrap();
        assert_eq!(replay, first);
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
