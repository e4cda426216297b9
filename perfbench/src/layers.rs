//! The traced run: per-layer metrics and a self-time table for one workload.
//!
//! The workloads' top-level calls (`Campaign::run`, `Figure2Experiment`)
//! hide their layers, so the traced pass drives the same work through each
//! layer's public functions instead, with a span around every call: per
//! dataset, baseline training (`EvalEngine::train_cached`), the store
//! warm-start (`EvalEngine::with_backend`), the sweeps (`sweep_all`, one
//! `engine.batch` span per `evaluate_batch`), NSGA-II (`Nsga2::run` /
//! `run_resumable_store`), and finalist full synthesis
//! (`EvalEngine::finalize`). Store calls are spans of a wrapping
//! [`CountingStore`]. The pass's results are compared with the workload's
//! own (`trace.faithful`).
//!
//! Stages inside one candidate evaluation cannot be hooked from outside the
//! engine, so the pass's distinct fresh candidates are then replayed, one
//! after another, through the stage functions (`prune_and_fine_tune`,
//! `cluster_and_fine_tune`, `quantization_aware_train`, `integer_accuracy`,
//! `estimate_area`), and the replay's total is set against the engine's
//! measured batch time (`replay.cover` = replay seconds over batch seconds:
//! about 1 when the stages account for the batches at one core each, up to
//! the core count when batches evaluate their candidates in parallel).

use crate::stats::{cpu_seconds, cpu_util, heap_peak_mb, median, reset_heap_peak, time_to_final};
use crate::store::{baseline_docs_written_here, CountingStore, StoreCounts};
use crate::trace::{self, SpanRecord};
use crate::workloads::{
    baseline_config, baseline_metrics, campaign_config, ga_engine, nproc, sub_seed, warm_fleet,
    Fleet, ProgressLog, Resolved, WorkDir, CHECKPOINT_DOC, EFFORT, GA_DATASET, GA_SEEDS,
    JOIN_SEEDS, MIN_ITERATIONS,
};
use crate::{Checks, Metric, Result};
use pmlp_core::bridge::estimate_area;
use pmlp_core::campaign::Campaign;
use pmlp_core::experiment::Figure2Experiment;
use pmlp_core::objective::integer_accuracy;
use pmlp_core::store::{open_backend, StoreBackend};
use pmlp_core::sweep::sweep_all;
use pmlp_core::{
    hypervolume, pareto_front_in, BaselineDesign, CoreError, DesignPoint, EngineStats, EvalEngine,
    Evaluator, Nsga2, ObjectiveSpace,
};
use pmlp_data::UciDataset;
use pmlp_hw::{multiplier_cache_stats, SharingStrategy};
use pmlp_minimize::cluster::cluster_and_fine_tune;
use pmlp_minimize::prune::prune_and_fine_tune;
use pmlp_minimize::qat::quantization_aware_train;
use pmlp_minimize::quantize::quantize_mlp;
use pmlp_minimize::{ClusteringConfig, MinimizationConfig, QatConfig, QuantizationConfig};
use pmlp_nn::TrainConfig;
use pmlp_serve::StatsSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An engine whose batches are spans.
struct Traced<'a>(&'a EvalEngine);

impl Evaluator for Traced<'_> {
    fn evaluate(&self, config: &MinimizationConfig) -> std::result::Result<DesignPoint, CoreError> {
        self.0.evaluate(config)
    }

    fn evaluate_batch(
        &self,
        configs: &[MinimizationConfig],
    ) -> std::result::Result<Vec<DesignPoint>, CoreError> {
        trace::span("engine.batch", || self.0.evaluate_batch(configs))
    }
}

/// A baseline and the configurations its engine computed fresh: the input
/// of the stage replay.
struct Candidates {
    baseline: BaselineDesign,
    fresh: Vec<MinimizationConfig>,
}

impl Candidates {
    fn new(
        engine: &EvalEngine,
        log: &ProgressLog,
    ) -> (Self, Vec<(Instant, MinimizationConfig, bool)>) {
        let events = log.take();
        let mut seen = HashSet::new();
        let fresh = events
            .iter()
            .filter(|(_, config, cached)| !cached && seen.insert(config.describe()))
            .map(|(_, config, _)| *config)
            .collect();
        let candidates = Candidates {
            baseline: engine.baseline().clone(),
            fresh,
        };
        (candidates, events)
    }
}

struct DatasetOutcome {
    hypervolume: f64,
    stats: EngineStats,
    candidates: Candidates,
}

struct GaOutcome {
    front: Vec<DesignPoint>,
    generations: usize,
    /// Resolved evaluations up to the first one at the final hypervolume.
    evals_to_final_hv: usize,
    stats: EngineStats,
    candidates: Candidates,
}

/// What one decomposed pass of a workload produced.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    datasets: Vec<DatasetOutcome>,
    ga: Option<GaOutcome>,
    store: StoreCounts,
    retries: usize,
    serve: Option<(StatsSnapshot, StatsSnapshot)>,
}

/// Trains (or, through a store, loads) a baseline and builds its engine,
/// as `Campaign::build_engine` does.
fn build_engine(
    dataset: UciDataset,
    seed: u64,
    store: Option<&Arc<CountingStore>>,
    log: &ProgressLog,
) -> Result<EvalEngine> {
    let before = baseline_docs_written_here();
    let backend = store.map(|s| &**s as &dyn StoreBackend);
    let engine = trace::span_named(
        || EvalEngine::train_cached(dataset, seed, &baseline_config(), backend),
        // Through a store, a baseline is trained only when its
        // characterization document was missing (it is then written).
        |_| match store {
            Some(_) if baseline_docs_written_here() == before => "baseline.cached",
            _ => "baseline",
        },
    )?
    .with_fine_tune_epochs(EFFORT.fine_tune_epochs());
    let engine = log.attach(engine);
    Ok(match store {
        Some(s) => trace::span("engine.warm", || {
            engine.with_backend(Box::new(Arc::clone(s)))
        })?,
        None => engine,
    })
}

/// Full synthesis of one finalist, which must reproduce the fast path.
fn finalize(engine: &EvalEngine, config: &MinimizationConfig) -> Result<()> {
    let done = trace::span("synth", || engine.finalize(config))?;
    if done.matches_fast_path {
        Ok(())
    } else {
        Err(format!(
            "full synthesis diverged from the fast path for {}",
            config.describe()
        )
        .into())
    }
}

/// One campaign dataset, as `Campaign::run_dataset` does it: baseline,
/// the three sweeps, finalist synthesis of every technique's front.
fn dataset_pass(
    dataset: UciDataset,
    seed: u64,
    store: Option<&Arc<CountingStore>>,
) -> Result<DatasetOutcome> {
    trace::span("campaign.dataset", || {
        let log = ProgressLog::default();
        let engine = build_engine(dataset, seed, store, &log)?;
        let sweeps = sweep_all(&Traced(&engine), &EFFORT.sweep_ranges())?;
        let space = ObjectiveSpace::classic();
        for sweep in &sweeps {
            for point in pareto_front_in(&space, &sweep.points) {
                finalize(&engine, &point.config)?;
            }
        }
        let evaluated: Vec<DesignPoint> = sweeps
            .iter()
            .flat_map(|s| s.points.iter().cloned())
            .collect();
        let (candidates, _) = Candidates::new(&engine, &log);
        Ok(DatasetOutcome {
            hypervolume: hypervolume(&space, &evaluated, &baseline_metrics(&engine)),
            stats: engine.stats(),
            candidates,
        })
    })
}

/// The Fig. 2 run on WhiteWine, as `Figure2Experiment` does it: sweeps,
/// NSGA-II (checkpointed to a store document when a store is attached),
/// finalist synthesis.
fn ga_pass(seed: u64, store: Option<&Arc<CountingStore>>) -> Result<GaOutcome> {
    let log = ProgressLog::default();
    let engine = build_engine(GA_DATASET, seed, store, &log)?;
    let start = Instant::now();
    let traced = Traced(&engine);
    sweep_all(&traced, &EFFORT.sweep_ranges())?;
    let mut config = EFFORT.nsga2_config();
    config.seed ^= seed;
    config.objectives = ObjectiveSpace::classic();
    let searcher = Nsga2::new(config);
    let search = match engine.store() {
        Some(evals) => {
            evals.remove_doc(CHECKPOINT_DOC)?;
            trace::span("nsga2", || {
                searcher.run_resumable_store(&traced, evals, CHECKPOINT_DOC, engine.fingerprint())
            })?
        }
        None => trace::span("nsga2", || searcher.run(&traced))?,
    };
    for point in &search.pareto_front {
        finalize(&engine, &point.config)?;
    }
    let stats = engine.stats();
    let (candidates, events) = Candidates::new(&engine, &log);
    let hv_trace = Resolved::new(&engine, &events)?.hypervolume_trace(start);
    let (index, _) = time_to_final(&hv_trace).ok_or("the GA resolved no evaluation")?;
    Ok(GaOutcome {
        front: search.pareto_front,
        generations: search.history.len(),
        evals_to_final_hv: index + 1,
        stats,
        candidates,
    })
}

/// Runs `f` over `datasets` on `threads` threads pulling from one queue,
/// each thread a child of the calling thread's span. Results keep the
/// order of `datasets`.
fn fan_out<T: Send>(
    datasets: &[UciDataset],
    threads: usize,
    f: impl Fn(UciDataset) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<std::result::Result<T, String>>>> =
        Mutex::new((0..datasets.len()).map(|_| None).collect());
    let parent = trace::current();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(datasets.len()) {
            scope.spawn(|| {
                trace::adopt(parent, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&dataset) = datasets.get(i) else {
                        break;
                    };
                    let outcome = f(dataset).map_err(|e| format!("{dataset}: {e}"));
                    slots.lock().expect("fan-out slots lock")[i] = Some(outcome);
                })
            });
        }
    });
    slots
        .into_inner()
        .expect("fan-out slots lock")
        .into_iter()
        .map(|slot| slot.expect("every dataset ran").map_err(Into::into))
        .collect()
}

/// One decomposed pass of `workload`; traced when `traced`.
fn run_pass(
    workload: &'static str,
    seed: u64,
    fleet: Option<(&Fleet, &WorkDir, usize)>,
    traced: bool,
) -> Result<(Pass, Vec<SpanRecord>)> {
    let store = match fleet {
        Some((fleet, work, pass)) => {
            let dir = work.fresh(&format!("pass{pass}"))?;
            let backend = open_backend(Some(&dir), Some(&fleet.server.url()))?
                .ok_or("no store configured")?;
            Some(Arc::new(CountingStore::new(backend)))
        }
        None => None,
    };
    let serve_before = fleet.map(|(f, _, _)| f.server.stats());
    let cpu_before = cpu_seconds();
    let root = traced.then(|| trace::start(workload));
    let start = Instant::now();
    let outcome = (|| -> Result<(Vec<DatasetOutcome>, Option<GaOutcome>)> {
        let all = &UciDataset::all();
        Ok(match workload {
            "battery" => (
                fan_out(all, nproc(), |d| dataset_pass(d, seed, None))?,
                None,
            ),
            "ga" => (Vec::new(), Some(ga_pass(seed, None)?)),
            _ => {
                let datasets = fan_out(all, nproc(), |d| dataset_pass(d, seed, store.as_ref()))?;
                let ga = ga_pass(seed, store.as_ref())?;
                if let Some(store) = &store {
                    store.flush()?;
                }
                (datasets, Some(ga))
            }
        })
    })();
    let wall_s = start.elapsed().as_secs_f64();
    let spans = root.map(trace::finish).unwrap_or_default();
    let (datasets, ga) = outcome?;
    let pass = Pass {
        wall_s,
        cpu_s: cpu_seconds() - cpu_before,
        datasets,
        ga,
        store: store.as_ref().map(|s| s.counts()).unwrap_or_default(),
        retries: store
            .as_ref()
            .and_then(|s| s.resilience())
            .map_or(0, |r| r.remote_retries),
        serve: fleet
            .zip(serve_before)
            .map(|((f, _, _), before)| (before, f.server.stats())),
    };
    Ok((pass, spans))
}

/// Counters the stage replay computes rather than times.
#[derive(Default)]
struct ReplayTally {
    epochs: u64,
    rows: u64,
}

/// Replays one candidate through the minimization stages, integer
/// inference and the fast-path cost model, mirroring
/// `pmlp_minimize::minimize` stage by stage.
fn replay_candidate(
    baseline: &BaselineDesign,
    config: &MinimizationConfig,
    tally: &mut ReplayTally,
) -> Result<()> {
    let epochs = EFFORT.fine_tune_epochs();
    let input_bits = baseline.input_bits;
    let fine_tune = TrainConfig {
        epochs,
        learning_rate: 0.005,
        track_train_accuracy: false,
        ..TrainConfig::default()
    };
    let seed = config.describe().bytes().fold(baseline.seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let train = &baseline.train;
    let validation = Some(&baseline.test);
    let (layers, sharing) = trace::span("minimize", || -> Result<_> {
        let mut model = baseline.model.clone();
        let mut mask = None;
        if let Some(sparsity) = config.sparsity.filter(|&s| s > 0.0) {
            let (m, _) = trace::span("minimize.prune", || {
                prune_and_fine_tune(
                    &mut model, train, validation, sparsity, &fine_tune, &mut rng,
                )
            })?;
            mask = Some(m);
            tally.epochs += epochs as u64;
        }
        let mut clusters = None;
        if let Some(k) = config.clusters_per_input {
            let (assignment, _) = trace::span("minimize.cluster", || {
                cluster_and_fine_tune(
                    &mut model,
                    train,
                    validation,
                    &ClusteringConfig::new(k),
                    &fine_tune,
                    &mut rng,
                )
            })?;
            clusters = Some(assignment);
            if let Some(m) = &mask {
                m.apply(&mut model)?;
            }
            tally.epochs += epochs as u64;
        }
        let weight_bits = config.weight_bits.unwrap_or(8);
        let quantization = QuantizationConfig {
            weight_bits,
            input_bits,
        };
        let quantized = match config.weight_bits {
            Some(_) => {
                let qat = QatConfig {
                    quantization,
                    training: fine_tune.clone(),
                };
                let (mut q, _) = trace::span("minimize.qat", || {
                    quantization_aware_train(&model, train, validation, &qat, &mut rng)
                })?;
                tally.epochs += epochs as u64;
                if let Some(m) = &mask {
                    m.apply(&mut q.model)?;
                }
                if let Some(c) = &mut clusters {
                    c.refit_and_apply(&mut q.model)?;
                    if let Some(m) = &mask {
                        m.apply(&mut q.model)?;
                    }
                }
                quantize_mlp(&q.model, &quantization)?
            }
            None => quantize_mlp(&model, &quantization)?,
        };
        let sharing = if clusters.is_some() {
            SharingStrategy::SharedPerInput
        } else {
            SharingStrategy::None
        };
        Ok((quantized.layers, sharing))
    })?;
    trace::span("intinfer", || {
        integer_accuracy(
            &layers,
            input_bits,
            sharing,
            &baseline.test_rows,
            baseline.test.labels(),
        )
    })?;
    tally.rows += baseline.test.len() as u64;
    trace::span("cost", || {
        estimate_area(&layers, input_bits, &baseline.library, sharing)
    })?;
    Ok(())
}

/// Replays every fresh candidate of a pass, serially, under tracing.
fn replay(pass: &Pass) -> Result<(Vec<SpanRecord>, ReplayTally)> {
    let mut tally = ReplayTally::default();
    let candidates = pass
        .datasets
        .iter()
        .map(|d| &d.candidates)
        .chain(pass.ga.iter().map(|g| &g.candidates));
    let root = trace::start("replay");
    let outcome = (|| -> Result<()> {
        for c in candidates {
            for config in &c.fresh {
                replay_candidate(&c.baseline, config, &mut tally)?;
            }
        }
        Ok(())
    })();
    let spans = trace::finish(root);
    outcome?;
    Ok((spans, tally))
}

/// `(count, total seconds)` of the spans named `name`.
fn tally(spans: &[SpanRecord], name: &str) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(n, t), s| (n + 1.0, t + s.duration()))
}

/// Self time of the spans named `name`.
fn self_of(spans: &[SpanRecord], own: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |total, (_, t)| total + t)
}

/// Per span name: count, total and self seconds, and the self share of the
/// capacity `wall × threads`.
fn self_time_table(title: &str, spans: &[SpanRecord], wall: f64, threads: usize) -> String {
    let own = trace::self_times(spans);
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (span, t) in spans.iter().zip(&own) {
        let row = rows.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.duration();
        row.2 += t;
    }
    let capacity = wall * threads as f64;
    let mut out = format!(
        "{title}: wall {wall:.4} s x {threads} thread(s)\n  {:<18} {:>6} {:>10} {:>10} {:>7}\n",
        "span", "count", "total_s", "self_s", "share"
    );
    let mut ordered: Vec<_> = rows.into_iter().collect();
    ordered.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    let mut self_sum = 0.0;
    for (name, (count, total, own)) in ordered {
        self_sum += own;
        out.push_str(&format!(
            "  {name:<18} {count:>6} {total:>10.4} {own:>10.4} {:>6.1}%\n",
            100.0 * own / capacity
        ));
    }
    // Rounding can leave a single-threaded pass a hair below zero idle.
    let idle = (capacity - self_sum).max(0.0);
    out.push_str(&format!(
        "  {:<18} {:>6} {:>10} {:>10.4} {:>6.1}%\n",
        "(idle)",
        "",
        "",
        idle,
        100.0 * idle / capacity
    ));
    out
}

/// The traced run of `workload`: per-layer metrics of one decomposed pass,
/// the stage replay, and the tracing overhead over `seconds` of alternating
/// untraced and traced passes.
pub fn traced(workload: &str, seed: u64, seconds: f64, checks: &mut Checks) -> Result<Vec<Metric>> {
    // One seed per traced run: the first of the seeds the untraced run
    // cycles through.
    let (workload, seed): (&'static str, u64) = match workload {
        "battery" => ("battery", seed),
        "ga" => ("ga", sub_seed(seed, GA_SEEDS, 0)),
        _ => ("warm_join", sub_seed(seed, JOIN_SEEDS, 0)),
    };
    let work = WorkDir::new()?;
    let fleet = match workload {
        "warm_join" => Some(warm_fleet(&[seed], &work, checks)?.0),
        _ => None,
    };

    // The workload's own run, untraced: the reference the decomposed pass
    // must reproduce, and the process's first (cold) use of the
    // multiplier cost cache.
    let mul_before = multiplier_cache_stats();
    let (reference_hv, reference_front) = match (&fleet, workload) {
        (Some(fleet), _) => {
            let fill = &fleet.fills[0].1;
            (
                fill.campaign
                    .reports
                    .iter()
                    .map(|r| r.hypervolume)
                    .collect(),
                Some(fill.ga.search.pareto_front.clone()),
            )
        }
        (None, "battery") => {
            let result = Campaign::new(campaign_config(seed, None, None)).run()?;
            (result.reports.iter().map(|r| r.hypervolume).collect(), None)
        }
        (None, _) => {
            let (engine, _) = ga_engine(seed)?;
            let result = Figure2Experiment::new(GA_DATASET, EFFORT, seed).run_with(&engine)?;
            (Vec::new(), Some(result.search.pareto_front))
        }
    };
    let mul_after = multiplier_cache_stats();
    checks.attempt(1);

    let threads = if workload == "ga" { 1 } else { nproc() };
    let mut pass_index = 0;
    let mut next_pass = |traced: bool| {
        pass_index += 1;
        run_pass(
            workload,
            seed,
            fleet.as_ref().map(|f| (f, &work, pass_index)),
            traced,
        )
    };
    reset_heap_peak();
    let (pass, spans) = next_pass(true)?;
    let heap_mb = heap_peak_mb();
    checks.attempt(1);
    let pass_hv: Vec<f64> = pass.datasets.iter().map(|d| d.hypervolume).collect();
    let faithful =
        pass_hv == reference_hv && pass.ga.as_ref().map(|g| &g.front) == reference_front.as_ref();
    if !faithful {
        eprintln!("warning: the traced pass did not reproduce the workload's own results");
    }
    let own = trace::self_times(&spans);
    let self_sum: f64 = own.iter().sum();
    let capacity = pass.wall_s * threads as f64;
    checks.check(
        self_sum >= pass.wall_s * 0.999 && self_sum <= capacity * 1.001,
        format!(
            "self times add up to {self_sum} s, outside [wall {}, wall x threads {capacity}]",
            pass.wall_s
        ),
    );
    print!(
        "{}",
        self_time_table(workload, &spans, pass.wall_s, threads)
    );

    let (replay_spans, replay_tally) = replay(&pass)?;
    let replay_wall = replay_spans.last().map_or(0.0, SpanRecord::duration);
    print!(
        "{}",
        self_time_table("stage replay", &replay_spans, replay_wall, 1)
    );

    // Tracing overhead: alternate untraced and traced passes.
    let mut untraced_walls = Vec::new();
    let mut traced_walls = vec![pass.wall_s];
    let start = Instant::now();
    while untraced_walls.len() < MIN_ITERATIONS - 1 || start.elapsed().as_secs_f64() < seconds {
        untraced_walls.push(next_pass(false)?.0.wall_s);
        traced_walls.push(next_pass(true)?.0.wall_s);
        checks.attempt(2);
    }
    if let Some(fleet) = fleet {
        fleet.server.stop();
    }

    let mut engines: Vec<&EngineStats> = pass.datasets.iter().map(|d| &d.stats).collect();
    engines.extend(pass.ga.iter().map(|g| &g.stats));
    let sum = |f: fn(&EngineStats) -> usize| engines.iter().map(|s| f(s)).sum::<usize>() as f64;
    let requests = sum(|s| s.hits + s.misses + s.coalesced);
    checks.attempt(requests as u64);
    let useful = sum(|s| s.hits + s.coalesced);
    let (batches, batch_s) = tally(&spans, "engine.batch");
    let dataset_walls: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "campaign.dataset")
        .map(SpanRecord::duration)
        .collect();
    let (minimize_n, minimize_s) = tally(&replay_spans, "minimize");
    let (intinfer_n, intinfer_s) = tally(&replay_spans, "intinfer");
    let (cost_n, cost_s) = tally(&replay_spans, "cost");
    let replay_total = minimize_s + intinfer_s + cost_s;
    let mul_hits = mul_after.hits.saturating_sub(mul_before.hits) as f64;
    let mul_misses = mul_after.misses.saturating_sub(mul_before.misses) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (serve_before, serve_after) = pass.serve.unwrap_or_default();
    let serve =
        |f: fn(&StatsSnapshot) -> u64| f(&serve_after).saturating_sub(f(&serve_before)) as f64;
    checks.attempt(serve(|s| s.requests) as u64);
    let store = &pass.store;
    let untraced = median(&untraced_walls);

    let m = Metric::new;
    Ok(vec![
        m(
            "campaign.dataset_max_s",
            dataset_walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        m(
            "campaign.dataset_sum_s",
            dataset_walls.iter().fold(0.0, |a, b| a + b),
            "s",
        ),
        m(
            "campaign.cpu_util",
            cpu_util(pass.cpu_s, pass.wall_s, nproc()),
            "ratio",
        ),
        m("engine.batches", batches, "count"),
        m("engine.batch_s", batch_s, "s"),
        m("engine.requests", requests, "count"),
        m("engine.fresh", sum(|s| s.misses), "count"),
        m("engine.hit_ratio", ratio(useful, requests), "ratio"),
        m("engine.coalesced", sum(|s| s.coalesced), "count"),
        m(
            "nsga2.generations",
            pass.ga.as_ref().map_or(0.0, |g| g.generations as f64),
            "count",
        ),
        m("nsga2.select_s", self_of(&spans, &own, "nsga2"), "s"),
        m(
            "nsga2.evals_to_final_hv",
            pass.ga.as_ref().map_or(0.0, |g| g.evals_to_final_hv as f64),
            "count",
        ),
        m("baseline.count", tally(&spans, "baseline").0, "count"),
        m("baseline.busy_s", tally(&spans, "baseline").1, "s"),
        m("minimize.count", minimize_n, "count"),
        m("minimize.busy_s", minimize_s, "s"),
        m(
            "minimize.prune_s",
            tally(&replay_spans, "minimize.prune").1,
            "s",
        ),
        m(
            "minimize.cluster_s",
            tally(&replay_spans, "minimize.cluster").1,
            "s",
        ),
        m(
            "minimize.qat_s",
            tally(&replay_spans, "minimize.qat").1,
            "s",
        ),
        m("minimize.epochs", replay_tally.epochs as f64, "count"),
        m("intinfer.count", intinfer_n, "count"),
        m("intinfer.busy_s", intinfer_s, "s"),
        m("intinfer.rows", replay_tally.rows as f64, "count"),
        m("cost.count", cost_n, "count"),
        m("cost.busy_s", cost_s, "s"),
        m(
            "cost.mulcache_hit_ratio",
            ratio(mul_hits, mul_hits + mul_misses),
            "ratio",
        ),
        m("synth.count", tally(&spans, "synth").0, "count"),
        m("synth.busy_s", tally(&spans, "synth").1, "s"),
        m("store.scans", store.scans as f64, "count"),
        m("store.scan_s", store.scan_s, "s"),
        m("store.records_read", store.records_read as f64, "count"),
        m("store.appends", store.appends as f64, "count"),
        m("store.append_s", store.append_s, "s"),
        m(
            "store.records_written",
            store.records_written as f64,
            "count",
        ),
        m("store.docs_read", store.docs_read as f64, "count"),
        m("store.docs_written", store.docs_written as f64, "count"),
        m("store.doc_s", store.doc_s, "s"),
        m("store.retries", pass.retries as f64, "count"),
        m("serve.requests", serve(|s| s.requests), "count"),
        m("serve.bytes_in", serve(|s| s.bytes_in), "bytes"),
        m("serve.bytes_out", serve(|s| s.bytes_out), "bytes"),
        m(
            "serve.connections",
            serve(|s| s.connections_accepted),
            "count",
        ),
        m("replay.total_s", replay_total, "s"),
        m("replay.cover", ratio(replay_total, batch_s), "ratio"),
        m("trace.threads", threads as f64, "count"),
        m("trace.wall_s", pass.wall_s, "s"),
        m("trace.self_sum_s", self_sum, "s"),
        m("trace.untraced_wall_s", untraced, "s"),
        m("trace.overhead_s", median(&traced_walls) - untraced, "s"),
        m("trace.faithful", if faithful { 1.0 } else { 0.0 }, "bool"),
        m("memory.peak_heap_mb", heap_mb, "MB"),
    ])
}
