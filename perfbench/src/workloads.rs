//! The three workloads, measured end to end with tracing off.
//!
//! * `battery`: a cold full-effort [`Campaign::run`] over the 12-dataset
//!   registry, in memory (the paper's Fig. 1 / Section III battery).
//! * `ga`: cold full-effort [`Figure2Experiment::run_with`] runs on
//!   WhiteWine: sweeps, NSGA-II, finalist verification (the paper's Fig. 2).
//! * `warm_join`: the `table_headline` flow (battery + WhiteWine GA with its
//!   checkpoint documents) run by a fresh worker through a tiered store whose
//!   remote tier is a loopback `pmlp-serve` filled during set-up.
//!
//! `ga` and `warm_join` cycle through several seeds derived from the
//! workload seed ([`sub_seed`]): how much work one GA search does depends
//! on the candidates its seed leads it to, so a run averages over searches.

use crate::stats::{heap_peak_mb, median, reset_heap_peak, time_to_final};
use crate::{Checks, Metric, Result};
use pmlp_core::campaign::{Campaign, CampaignConfig, CampaignResult, CampaignRunStats};
use pmlp_core::experiment::{Effort, Figure2Experiment, Figure2Result};
use pmlp_core::store::open_backend;
use pmlp_core::{
    hypervolume, AccuracyTier, BaselineConfig, DesignMetrics, DesignPoint, EngineStats, EvalEngine,
    Evaluator, ObjectiveSpace,
};
use pmlp_data::UciDataset;
use pmlp_minimize::MinimizationConfig;
use pmlp_serve::{ServeConfig, ServerHandle};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Effort of every workload: the paper's full ranges and budgets.
pub const EFFORT: Effort = Effort::Full;
/// The dataset of the combined GA (the paper's Fig. 2).
pub const GA_DATASET: UciDataset = UciDataset::WhiteWine;
/// GA checkpoint document of the `table_headline` flow.
pub const CHECKPOINT_DOC: &str = "table_headline_nsga2.json";
/// Times `battery` sets up per run; its `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Fewest timed iterations per run, however short `--seconds` is.
pub const MIN_ITERATIONS: usize = 3;
/// GA seeds per `ga` run.
pub const GA_SEEDS: u64 = 8;
/// Seeds per `warm_join` run (one cold fill each during set-up).
pub const JOIN_SEEDS: u64 = 4;

/// Worker threads (and serve workers) the benchmark uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `j`-th of `count` seeds derived from workload seed `seed`; distinct
/// workload seeds never share a derived seed.
pub fn sub_seed(seed: u64, count: u64, j: u64) -> u64 {
    seed.wrapping_mul(count).wrapping_add(j)
}

/// The baseline budget a campaign trains with.
pub fn baseline_config() -> BaselineConfig {
    BaselineConfig {
        accuracy_tier: AccuracyTier::default(),
        ..EFFORT.baseline_config()
    }
}

/// The full-registry campaign, optionally through a store.
pub fn campaign_config(seed: u64, store_dir: Option<&Path>, url: Option<&str>) -> CampaignConfig {
    CampaignConfig {
        datasets: UciDataset::all().to_vec(),
        effort: EFFORT,
        seed,
        store_dir: store_dir.map(Path::to_path_buf),
        remote_store: url.map(str::to_string),
        ..CampaignConfig::default()
    }
}

/// Baseline metrics every hypervolume of `engine` is referenced to.
pub fn baseline_metrics(engine: &EvalEngine) -> DesignMetrics {
    DesignMetrics::from_synthesis(engine.baseline().accuracy(), &engine.baseline().synthesis)
}

/// Per-dataset hypervolumes of a campaign.
fn hypervolumes(result: &CampaignResult) -> Vec<f64> {
    result.reports.iter().map(|r| r.hypervolume).collect()
}

/// Timings, heap peaks and hypervolumes of the repeated runs of one seed.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    wall: Vec<f64>,
    to_final: Vec<f64>,
    heap: Vec<f64>,
    /// The first run's hypervolumes, which every later run must repeat.
    hv: Option<Vec<f64>>,
}

impl Samples {
    /// Times `f` as one timed iteration, recording its wall clock and the
    /// heap peak it reached.
    fn time<T>(&mut self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        reset_heap_peak();
        let start = Instant::now();
        let value = f()?;
        self.wall.push(start.elapsed().as_secs_f64());
        self.heap.push(heap_peak_mb());
        Ok(value)
    }

    /// Checks that `values` are finite and equal to the first run's.
    fn check_repeatable(&mut self, checks: &mut Checks, values: Vec<f64>, what: &str) {
        checks.check(
            values.iter().all(|v| v.is_finite()),
            format!("{what}: non-finite hypervolume {values:?}"),
        );
        match &self.hv {
            None => self.hv = Some(values),
            Some(expected) => checks.check(
                *expected == values,
                format!("{what}: hypervolume changed between runs of one seed"),
            ),
        }
    }
}

/// Runs `once` round-robin over the seeds' samples until every seed ran at
/// least `min_rounds` times and `seconds` have passed.
fn rounds(
    samples: &mut [Samples],
    seconds: f64,
    min_rounds: usize,
    mut once: impl FnMut(usize, &mut Samples) -> Result<()>,
) -> Result<()> {
    let start = Instant::now();
    for round in 0.. {
        for (j, s) in samples.iter_mut().enumerate() {
            if round >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
                return Ok(());
            }
            once(j, s)?;
        }
    }
    Ok(())
}

/// The end-to-end metrics: per seed the median of each timing, then the
/// mean over seeds.
fn summarize(samples: &[Samples]) -> Vec<Metric> {
    for (j, s) in samples.iter().enumerate() {
        let range = |values: &[f64]| {
            let mut sorted = values.to_vec();
            sorted.sort_by(f64::total_cmp);
            format!(
                "min {:.4} median {:.4} max {:.4}",
                sorted.first().copied().unwrap_or(0.0),
                median(&sorted),
                sorted.last().copied().unwrap_or(0.0)
            )
        };
        eprintln!(
            "seed #{j}: {} timed run(s); wall_s {}; heap_mb {}",
            s.wall.len(),
            range(&s.wall),
            range(&s.heap)
        );
    }
    let mean =
        |f: &dyn Fn(&Samples) -> f64| samples.iter().map(f).sum::<f64>() / samples.len() as f64;
    // Printed, not bounded: which datasets overlap in time sets `battery`'s
    // heap peak, and each GA seed has its own, so the mean still moves by
    // 10-20% between workload seeds.
    eprintln!(
        "peak_heap_mb {:.4} (mean over timed runs; not bounded)",
        mean(&|s| s.heap.iter().sum::<f64>() / s.heap.len().max(1) as f64)
    );
    vec![
        Metric::new("wall_s", mean(&|s| median(&s.wall)), "s"),
        Metric::new("setup_s", mean(&|s| median(&s.setup)), "s"),
        Metric::new("time_to_final_hv_s", mean(&|s| median(&s.to_final)), "s"),
        Metric::new(
            "hypervolume",
            mean(&|s| {
                s.hv.as_deref()
                    .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
            }),
            "ratio",
        ),
    ]
}

/// Completion times of every evaluation an engine resolved.
#[derive(Clone, Default)]
pub struct ProgressLog(Arc<Mutex<Vec<(Instant, MinimizationConfig, bool)>>>);

impl ProgressLog {
    /// Attaches the log to `engine` through its progress callback.
    pub fn attach(&self, engine: EvalEngine) -> EvalEngine {
        let log = Arc::clone(&self.0);
        engine.with_progress(move |p| {
            log.lock()
                .expect("progress log lock")
                .push((Instant::now(), p.config, p.cached));
        })
    }

    pub fn take(&self) -> Vec<(Instant, MinimizationConfig, bool)> {
        std::mem::take(&mut *self.0.lock().expect("progress log lock"))
    }
}

/// The evaluations an engine resolved, in completion order, each carrying
/// its point the first time its configuration appears: enough to compute
/// the anytime hypervolume after the engine is gone.
pub struct Resolved {
    baseline: DesignMetrics,
    events: Vec<(Instant, Option<DesignPoint>)>,
}

impl Resolved {
    /// Reads the points of logged `events` back from `engine`'s cache.
    pub fn new(
        engine: &EvalEngine,
        events: &[(Instant, MinimizationConfig, bool)],
    ) -> Result<Self> {
        let mut seen = HashSet::new();
        let events = events
            .iter()
            .map(|(at, config, _)| {
                let point = match seen.insert(config.describe()) {
                    true => Some(engine.evaluate(config)?),
                    false => None,
                };
                Ok((*at, point))
            })
            .collect::<Result<_>>()?;
        Ok(Resolved {
            baseline: baseline_metrics(engine),
            events,
        })
    }

    /// For every resolved evaluation, seconds since `start` and the
    /// hypervolume of the distinct points resolved so far.
    pub fn hypervolume_trace(&self, start: Instant) -> Vec<(f64, f64)> {
        let space = ObjectiveSpace::classic();
        let mut points: Vec<DesignPoint> = Vec::new();
        let mut hv = 0.0;
        self.events
            .iter()
            .map(|(at, point)| {
                if let Some(point) = point {
                    points.push(point.clone());
                    hv = hypervolume(&space, &points, &self.baseline);
                }
                (at.saturating_duration_since(start).as_secs_f64(), hv)
            })
            .collect()
    }
}

/// Trains one baseline per registry dataset, serially, with the campaign's
/// budget: the work every cold campaign pays before its sweeps.
fn train_baselines(seed: u64) -> Result<f64> {
    let start = Instant::now();
    for dataset in UciDataset::all() {
        std::hint::black_box(EvalEngine::train_with(dataset, seed, &baseline_config())?);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// `battery`: cold full-effort campaign over all 12 datasets, in memory.
/// Its mean hypervolume is final once the last dataset reports, so its time
/// to the final hypervolume is that report's time.
pub fn battery(seed: u64, seconds: f64, checks: &mut Checks) -> Result<Vec<Metric>> {
    let mut samples = [Samples::default()];
    for _ in 0..SETUP_REPEATS {
        samples[0].setup.push(train_baselines(seed)?);
    }
    rounds(&mut samples, seconds, MIN_ITERATIONS, |_, s| {
        let reports = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&reports);
        let campaign = Campaign::new(campaign_config(seed, None, None)).with_progress(move |_| {
            log.lock().expect("report log lock").push(Instant::now());
        });
        let start = Instant::now();
        let result = s.time(|| Ok(campaign.run()?))?;
        let last = reports
            .lock()
            .expect("report log lock")
            .iter()
            .max()
            .copied();
        s.to_final
            .push(last.map_or(0.0, |at| at.duration_since(start).as_secs_f64()));
        checks.attempt(
            1 + result
                .reports
                .iter()
                .map(|r| r.evaluations as u64)
                .sum::<u64>(),
        );
        s.check_repeatable(checks, hypervolumes(&result), "battery");
        Ok(())
    })?;
    Ok(summarize(&samples))
}

/// A cold WhiteWine engine with a progress log, trained at full effort.
pub fn ga_engine(seed: u64) -> Result<(EvalEngine, ProgressLog)> {
    let log = ProgressLog::default();
    let engine = EvalEngine::train_with(GA_DATASET, seed, &baseline_config())?
        .with_fine_tune_epochs(EFFORT.fine_tune_epochs());
    Ok((log.attach(engine), log))
}

/// One cold Fig. 2 run of GA seed `seed`, checked and added to `samples`.
fn ga_once(seed: u64, samples: &mut Samples, checks: &mut Checks) -> Result<()> {
    let start = Instant::now();
    let (engine, log) = ga_engine(seed)?;
    samples.setup.push(start.elapsed().as_secs_f64());

    let start = Instant::now();
    let result =
        samples.time(|| Ok(Figure2Experiment::new(GA_DATASET, EFFORT, seed).run_with(&engine)?))?;
    let elapsed = start.elapsed().as_secs_f64();

    let events = log.take();
    let stats = engine.stats();
    checks.attempt(1 + (stats.hits + stats.misses + stats.coalesced) as u64);
    let trace = Resolved::new(&engine, &events)?.hypervolume_trace(start);
    let (_, reached) = time_to_final(&trace).ok_or("the GA resolved no evaluation")?;
    checks.check(
        reached <= elapsed,
        format!("time to final hypervolume {reached} s exceeds the run's {elapsed} s"),
    );
    samples.to_final.push(reached);
    let hv = trace.last().map_or(0.0, |&(_, hv)| hv);
    let front_hv = hypervolume(
        &ObjectiveSpace::classic(),
        &result.search.pareto_front,
        &baseline_metrics(&engine),
    );
    checks.check(
        front_hv <= hv + 1e-12,
        format!("GA front hypervolume {front_hv} exceeds that of every point run ({hv})"),
    );
    samples.check_repeatable(checks, vec![hv], "ga");
    Ok(())
}

/// `ga`: cold full-effort Fig. 2 runs (sweeps, NSGA-II, finalist
/// verification) on WhiteWine, round-robin over [`GA_SEEDS`] seeds, at
/// least twice each.
pub fn ga(seed: u64, seconds: f64, checks: &mut Checks) -> Result<Vec<Metric>> {
    let mut samples: Vec<Samples> = (0..GA_SEEDS).map(|_| Samples::default()).collect();
    rounds(&mut samples, seconds, 2, |j, s| {
        ga_once(sub_seed(seed, GA_SEEDS, j as u64), s, checks)
    })?;
    Ok(summarize(&samples))
}

/// Everything one pass of the `table_headline` flow produced.
pub struct HeadlineFlow {
    pub campaign: CampaignResult,
    pub stats: CampaignRunStats,
    pub ga: Figure2Result,
    pub ga_engine: EngineStats,
    /// When the flow started, and every evaluation the GA engine resolved.
    /// The engine itself is not kept: its store client would hold a
    /// keep-alive connection, and so a server worker, for as long as it
    /// lives.
    start: Instant,
    resolved: Resolved,
}

impl HeadlineFlow {
    /// Fresh evaluations across the campaign and the GA.
    pub fn fresh(&self) -> usize {
        self.stats.fresh_evaluations + self.ga_engine.misses
    }

    /// Seconds from the start of the flow until the GA's hypervolume first
    /// reached its final value.
    pub fn time_to_final_hv(&self) -> Result<f64> {
        let trace = self.resolved.hypervolume_trace(self.start);
        Ok(time_to_final(&trace)
            .ok_or("the GA resolved no evaluation")?
            .1)
    }
}

/// The `table_headline` flow through a tiered store (local `dir` over the
/// server at `url`), without `--resume`: the campaign, then the WhiteWine GA
/// with its checkpoint document discarded first.
pub fn headline_flow(seed: u64, dir: &Path, url: &str) -> Result<HeadlineFlow> {
    let start = Instant::now();
    let (campaign, stats) =
        Campaign::new(campaign_config(seed, Some(dir), Some(url))).run_with_stats()?;
    let fig2 = Figure2Experiment::new(GA_DATASET, EFFORT, seed);
    let backend = open_backend(Some(dir), Some(url))?.ok_or("no store configured")?;
    let log = ProgressLog::default();
    let engine = log.attach(
        fig2.build_engine_cached(Some(&*backend))?
            .with_backend(backend)?,
    );
    engine
        .store()
        .ok_or("no store attached")?
        .remove_doc(CHECKPOINT_DOC)?;
    let ga = fig2.run_with_checkpoint_doc(&engine, CHECKPOINT_DOC)?;
    let events = log.take();
    Ok(HeadlineFlow {
        campaign,
        stats,
        ga,
        ga_engine: engine.stats(),
        start,
        resolved: Resolved::new(&engine, &events)?,
    })
}

/// The scientific content of a campaign: its reports without the run-local
/// provenance (timings, cache counters), which differ between a cold run and
/// a warm one.
fn campaign_science(result: &CampaignResult) -> CampaignResult {
    let mut science = result.clone();
    for report in &mut science.reports {
        report.evaluations = 0;
        report.cache_hit_rate = 0.0;
        report.fast_path_evals = 0;
        report.full_synthesis_evals = 0;
        report.multiplier_cache_hit_rate = 0.0;
        report.elapsed_secs = 0.0;
    }
    science
}

/// Checks a warm join against its cold fill: nothing recomputed, no store
/// errors, and the same campaign and GA front.
fn check_warm_join(checks: &mut Checks, warm: &HeadlineFlow, cold: &HeadlineFlow) {
    checks.check(
        warm.fresh() == 0,
        format!("warm join ran {} fresh evaluation(s)", warm.fresh()),
    );
    checks.check(
        campaign_science(&warm.campaign) == campaign_science(&cold.campaign),
        "warm join's campaign differs from its cold fill",
    );
    checks.check(
        warm.ga.search.pareto_front == cold.ga.search.pareto_front
            && warm.ga.combined == cold.ga.combined,
        "warm join's GA front differs from its cold fill",
    );
    let resilience = warm.ga_engine.store_resilience;
    checks.fail_count(
        (resilience.transient_errors + resilience.permanent_errors) as u64,
        "store errors during the warm join",
    );
}

/// Scratch directories of one benchmark process, inside the working
/// directory; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> Result<Self> {
        let dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // Only removes the shared parent when no other run uses it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// A loopback server filled by one cold `table_headline` flow per seed.
pub struct Fleet {
    pub server: ServerHandle,
    pub fills: Vec<(u64, HeadlineFlow)>,
}

/// Spawns a loopback server with `nproc` workers and fills it with one cold
/// flow per seed. Returns the fleet and, per seed, the seconds its fill took
/// (the first including the spawn).
pub fn warm_fleet(seeds: &[u64], work: &WorkDir, checks: &mut Checks) -> Result<(Fleet, Vec<f64>)> {
    let mut start = Instant::now();
    let server = pmlp_serve::spawn(&ServeConfig {
        workers: nproc(),
        ..ServeConfig::default()
    })?;
    let mut fills = Vec::new();
    let mut setup = Vec::new();
    for &seed in seeds {
        let fill = headline_flow(seed, &work.fresh(&format!("fill{seed}"))?, &server.url())?;
        setup.push(start.elapsed().as_secs_f64());
        start = Instant::now();
        checks.attempt(1);
        checks.check(fill.fresh() > 0, "a cold fill evaluated nothing");
        fills.push((seed, fill));
    }
    Ok((Fleet { server, fills }, setup))
}

/// `warm_join`: fresh workers join a warm fleet and re-run the
/// `table_headline` flow, answered entirely from the store, round-robin over
/// [`JOIN_SEEDS`] seeds.
pub fn warm_join(seed: u64, seconds: f64, checks: &mut Checks) -> Result<Vec<Metric>> {
    let work = WorkDir::new()?;
    let seeds: Vec<u64> = (0..JOIN_SEEDS)
        .map(|j| sub_seed(seed, JOIN_SEEDS, j))
        .collect();
    let (fleet, setup) = warm_fleet(&seeds, &work, checks)?;
    let mut samples: Vec<Samples> = setup
        .into_iter()
        .map(|secs| Samples {
            setup: vec![secs],
            ..Samples::default()
        })
        .collect();
    let url = fleet.server.url();
    let mut joins = 0;
    rounds(&mut samples, seconds, MIN_ITERATIONS, |j, s| {
        let (seed, cold) = &fleet.fills[j];
        let dir = work.fresh(&format!("join{joins}"))?;
        joins += 1;
        let before = fleet.server.stats().requests;
        let warm = s.time(|| headline_flow(*seed, &dir, &url))?;
        let requests = fleet.server.stats().requests.saturating_sub(before);
        let engine = &warm.ga_engine;
        checks.attempt(1 + requests + (engine.hits + engine.misses + engine.coalesced) as u64);
        check_warm_join(checks, &warm, cold);
        s.to_final.push(warm.time_to_final_hv()?);
        s.check_repeatable(checks, hypervolumes(&warm.campaign), "warm_join");
        drop(warm);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    })?;
    fleet.server.stop();
    Ok(summarize(&samples))
}
