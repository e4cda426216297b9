//! Tracked performance baseline: times the stages that dominate a paper
//! reproduction run — baseline training, a single candidate evaluation, the
//! hardware cost of one candidate through the analytic fast path and through
//! full gate-level synthesis, the quick Fig. 2 experiment, the quick
//! full-registry campaign, and the persistence tier (local store append /
//! replay rates plus the `pmlp-serve` loopback round trip) — and writes the
//! numbers to `BENCH_campaign.json` so every future PR is measured against a
//! recorded trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmlp-bench --bin perf_report -- [--quick] [seed]
//! ```
//!
//! `--quick` lowers the repetition counts (CI smoke); the measured stages are
//! identical. The JSON lands in the working directory (repo root in CI) and a
//! copy under `target/experiment-results/`.
//!
//! Wall-clock numbers are machine-relative: compare `BENCH_campaign.json`
//! across commits measured on the same machine, not across machines. The
//! `hw_eval_speedup` ratio (fast path vs full synthesis on the same spec) is
//! the most machine-independent figure.

use pmlp_bench::{parse_cli, persist_json};
use pmlp_core::campaign::{Campaign, CampaignConfig};
use pmlp_core::engine::{EvalEngine, Evaluator};
use pmlp_core::experiment::{Effort, Figure2Experiment};
use pmlp_data::UciDataset;
use pmlp_hw::constmul::RecodingStrategy;
use pmlp_hw::cost::estimate_circuit;
use pmlp_hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, HwActivation, LayerSpec, SharingStrategy,
};
use pmlp_minimize::MinimizationConfig;
use serde::Serialize;
use std::time::Instant;

/// The machine-readable perf baseline written to `BENCH_campaign.json`.
#[derive(Debug, Serialize)]
struct PerfReport {
    /// Report schema identifier.
    schema: String,
    /// `quick` (CI smoke) or `full` repetition budget.
    mode: String,
    /// RNG seed used for all measured stages.
    seed: u64,
    /// Wall-clock timings of the measured stages.
    timings: Timings,
    /// Evaluation-cost counters of the quick campaign run.
    campaign_engine: CampaignEngine,
    /// Throughput of the pure-integer inference engine (the default accuracy
    /// tier) on a WhiteWine-shaped candidate.
    int_infer: IntInferMetrics,
    /// Persistence-tier throughput (local JSONL store + pmlp-serve loopback).
    store: StoreMetrics,
    /// Fault-tolerance counters of a scripted outage/recovery cycle against
    /// a loopback server: retries, circuit-breaker transitions and journal
    /// replay volume (see `ResilienceStats`).
    resilience: ResilienceMetrics,
    /// Context for readers of the trajectory.
    notes: String,
}

#[derive(Debug, Serialize)]
struct Timings {
    /// Quick-budget baseline training (Seeds), seconds.
    baseline_train_secs: f64,
    /// One cold candidate evaluation through the engine fast path, seconds.
    single_eval_cold_secs: f64,
    /// The same evaluation answered from the engine cache, seconds.
    single_eval_warm_secs: f64,
    /// Hardware cost of one WhiteWine-shaped candidate via the analytic fast
    /// path, microseconds (median).
    hw_eval_fast_path_us: f64,
    /// The same candidate through full gate-level synthesis + its one-walk
    /// netlist report (what finalist verification runs), microseconds
    /// (median).
    hw_eval_full_synthesis_us: f64,
    /// `hw_eval_full_synthesis_us / hw_eval_fast_path_us`.
    hw_eval_speedup: f64,
    /// Quick Fig. 2 experiment (WhiteWine sweeps + GA), seconds.
    fig2_quick_secs: f64,
    /// Quick full-registry campaign (12 datasets), seconds.
    campaign_quick_secs: f64,
}

#[derive(Debug, Serialize)]
struct CampaignEngine {
    /// Full pipeline evaluations across all datasets (cache misses).
    evaluations: usize,
    /// Evaluations served by the analytic fast path.
    fast_path_evals: usize,
    /// Evaluations (plus finalist verifications) that ran full synthesis.
    full_synthesis_evals: usize,
    /// Objective space the campaign's Pareto fronts were computed in.
    objectives: String,
    /// Per-dataset `(name, hypervolume)` in that space — the
    /// baseline-referenced dominated volume of each dataset's evaluated
    /// points, a scalar quality-of-front number future PRs can diff.
    hypervolumes: Vec<(String, f64)>,
}

#[derive(Debug, Serialize)]
struct IntInferMetrics {
    /// Test rows classified per timed repetition.
    rows: usize,
    /// Batch classification throughput, rows/second (best of the timed
    /// repetitions, i.e. steady-state with warm caches and threads).
    rows_per_sec: f64,
    /// Whether the accumulator bound forced the `i64` kernel (`false` = the
    /// narrow `i32` kernel sufficed).
    wide_kernel: bool,
}

#[derive(Debug, Serialize)]
struct StoreMetrics {
    /// Records pushed through each measured path.
    records: usize,
    /// Appends to a local JSONL record log, records/second (one flushed
    /// whole-line write each).
    local_append_records_per_sec: f64,
    /// Warm-start replay of that log (open + parse every record),
    /// records/second — the cost a resumed run pays before its first
    /// evaluation.
    local_replay_records_per_sec: f64,
    /// The same replay through a loopback `pmlp-serve` instance (HTTP scan of
    /// the full log), records/second.
    remote_replay_records_per_sec: f64,
    /// Appends through the loopback server the way an engine flushes them at
    /// `evaluate_batch` boundaries: batches of 64 records per keep-alive HTTP
    /// POST, records/second. This is the rate a remote-store worker actually
    /// pays per generation.
    remote_append_records_per_sec: f64,
    /// Appends through the loopback server as one record per request (still
    /// on a pooled keep-alive connection) — the per-request floor,
    /// records/second.
    remote_single_append_records_per_sec: f64,
    /// The server's own counters after the remote measurements.
    serve: ServeCounters,
}

#[derive(Debug, Serialize)]
struct ServeCounters {
    /// Requests the loopback server handled.
    requests: u64,
    /// Connections its accept loop handed to the worker pool.
    connections_accepted: u64,
    /// Requests served on an already-used (reused keep-alive) connection.
    requests_reused: u64,
    /// Request bytes read off the wire.
    bytes_in: u64,
    /// Response bytes written to the wire.
    bytes_out: u64,
}

#[derive(Debug, Serialize)]
struct ResilienceMetrics {
    /// Records written during the scripted outage window (all must replay).
    outage_appends: usize,
    /// Remote request retries after transient failures.
    remote_retries: usize,
    /// Transient remote errors (connect/timeout/5xx/early close).
    transient_errors: usize,
    /// Permanent remote errors (4xx/protocol) — never retried.
    permanent_errors: usize,
    /// Circuit-breaker closed → open transitions.
    breaker_opens: usize,
    /// Circuit-breaker recoveries (half-open probe succeeded).
    breaker_recoveries: usize,
    /// Records journaled locally while the remote was unreachable.
    journaled_records: usize,
    /// Journaled records replayed to the recovered remote.
    replayed_records: usize,
    /// Journal entries evicted at capacity (must be 0 in this scenario).
    journal_dropped: usize,
    /// Wall-clock of the whole outage/recovery cycle, seconds.
    cycle_secs: f64,
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// A WhiteWine-shaped candidate spec (11-25-5, 5-bit weights) — the same
/// deterministic generator the `hw_synthesis` criterion bench uses.
fn whitewine_like_spec() -> CircuitSpec {
    let weight = |i: usize, j: usize| -> i64 { ((i * 31 + j * 17 + 7) % 31) as i64 - 15 };
    let hidden: Vec<Vec<i64>> = (0..25)
        .map(|n| (0..11).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..5)
        .map(|n| (0..25).map(|i| weight(n + 100, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::new(hidden, 5, HwActivation::ReLU).expect("hidden layer"),
            LayerSpec::new(output, 5, HwActivation::Argmax).expect("output layer"),
        ],
    )
    .expect("spec")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_cli(&args);
    options.validate()?;
    let quick = options.effort == Some(Effort::Quick);
    let seed: u64 = options
        .positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let hw_reps = if quick { 7 } else { 21 };

    // 1. Baseline training (quick budget, Seeds).
    let t0 = Instant::now();
    let engine = Figure2ExperimentBaseline::build(seed)?;
    let baseline_train_secs = t0.elapsed().as_secs_f64();

    // 2. Single candidate evaluation: cold (runs minimize + fast-path
    //    hardware cost), then warm (engine memo cache).
    let config = MinimizationConfig::default().with_weight_bits(4);
    let t0 = Instant::now();
    let cold = engine.evaluate(&config)?;
    let single_eval_cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = engine.evaluate(&config)?;
    let single_eval_warm_secs = t0.elapsed().as_secs_f64();
    assert_eq!(cold, warm, "cache must reproduce the evaluation exactly");

    // 3. Per-candidate hardware evaluation: analytic fast path vs full
    //    synthesis on the same WhiteWine-shaped spec.
    let spec = whitewine_like_spec();
    let library = CellLibrary::egt();
    let hw_eval_fast_path_us = median_us(hw_reps, || {
        let report = estimate_circuit(
            &spec,
            &library,
            SharingStrategy::None,
            RecodingStrategy::Csd,
        )
        .expect("fast path");
        std::hint::black_box(report.area.total_mm2);
    });
    let hw_eval_full_synthesis_us = median_us(hw_reps, || {
        let circuit = BespokeMlpCircuit::synthesize(&spec, &library).expect("full synthesis");
        let report = circuit.report();
        std::hint::black_box((
            report.area.total_mm2,
            report.power.total_uw,
            report.timing.critical_path_us,
        ));
    });

    // 4. Quick Fig. 2 (sweeps + GA on WhiteWine).
    let t0 = Instant::now();
    let fig2 = Figure2Experiment::new(UciDataset::WhiteWine, Effort::Quick, seed).run()?;
    let fig2_quick_secs = t0.elapsed().as_secs_f64();
    assert!(!fig2.combined.points.is_empty());

    // 5. Quick full-registry campaign.
    let t0 = Instant::now();
    let campaign = Campaign::new(CampaignConfig {
        effort: Effort::Quick,
        seed,
        ..CampaignConfig::default()
    })
    .run()?;
    let campaign_quick_secs = t0.elapsed().as_secs_f64();

    // 6. Pure-integer inference throughput on the same WhiteWine-shaped spec
    //    (the per-row cost of the default accuracy tier).
    let int_infer = measure_int_infer(&spec, if quick { 100_000 } else { 1_000_000 })?;

    // 7. Persistence tier: local store append/replay rate and the same
    //    record log served over a loopback pmlp-serve instance.
    let store = measure_store(if quick { 256 } else { 2048 })?;

    // 8. Fault tolerance: a scripted outage/recovery cycle — breaker opens,
    //    appends journal, the restarted server is rejoined and replayed.
    let resilience = measure_resilience(if quick { 4 } else { 16 })?;

    let report = PerfReport {
        schema: "pmlp-perf-report/v1".into(),
        mode: if quick { "quick".into() } else { "full".into() },
        seed,
        timings: Timings {
            baseline_train_secs,
            single_eval_cold_secs,
            single_eval_warm_secs,
            hw_eval_fast_path_us,
            hw_eval_full_synthesis_us,
            hw_eval_speedup: hw_eval_full_synthesis_us / hw_eval_fast_path_us.max(1e-9),
            fig2_quick_secs,
            campaign_quick_secs,
        },
        store,
        resilience,
        int_infer,
        campaign_engine: CampaignEngine {
            evaluations: campaign.reports.iter().map(|r| r.evaluations).sum(),
            fast_path_evals: campaign.reports.iter().map(|r| r.fast_path_evals).sum(),
            full_synthesis_evals: campaign
                .reports
                .iter()
                .map(|r| r.full_synthesis_evals)
                .sum(),
            objectives: campaign.objectives.clone(),
            hypervolumes: campaign
                .reports
                .iter()
                .map(|r| (r.name.clone(), r.hypervolume))
                .collect(),
        },
        notes: "Wall-clock values are machine-relative; compare across commits measured on one \
                machine. hw_eval_speedup (fast path vs full synthesis, same spec) is the most \
                machine-independent figure. Pre-fast-path reference on the authoring machine \
                (PR-2 commit, same harness): campaign --quick wall time 0.42-0.45 s vs 0.13 s \
                after this change (~3.3x)."
            .into(),
    };

    let json = serde_json::to_string_pretty(&report)?;
    std::fs::write("BENCH_campaign.json", &json)?;
    persist_json("BENCH_campaign", &report);
    println!("{json}");
    println!("\nwrote BENCH_campaign.json");
    Ok(())
}

/// Times batch classification through [`pmlp_hw::IntInferEngine`] on `spec`
/// with `rows` deterministic synthetic test rows. Reports the best of three
/// repetitions — steady-state throughput with the rayon pool warm.
fn measure_int_infer(
    spec: &CircuitSpec,
    rows: usize,
) -> Result<IntInferMetrics, Box<dyn std::error::Error>> {
    let engine = pmlp_hw::IntInferEngine::from_spec(spec)?;
    let levels = (1u16 << spec.input_bits) - 1;
    let features = engine.input_count();
    let data: Vec<u16> = (0..rows * features)
        .map(|i| ((i * 31 + i / features * 17 + 7) % (levels as usize + 1)) as u16)
        .collect();
    let mut best_secs = f64::INFINITY;
    let mut checksum = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let labels = engine.classify_batch(&data);
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
        checksum = labels.iter().sum();
    }
    std::hint::black_box(checksum);
    Ok(IntInferMetrics {
        rows,
        rows_per_sec: rows as f64 / best_secs.max(1e-9),
        wide_kernel: engine.uses_wide_kernel(),
    })
}

/// Times the persistence tiers with `records` synthetic evaluation records:
/// local JSONL append + warm-start replay, then the same log appended to and
/// scanned from a loopback `pmlp-serve` instance.
fn measure_store(records: usize) -> Result<StoreMetrics, Box<dyn std::error::Error>> {
    use pmlp_core::store::{EvalRecord, EvalStore, RemoteBackend, StoreBackend};

    let record = synthetic_record;
    let rate = |n: usize, secs: f64| n as f64 / secs.max(1e-9);

    // Local tier.
    let dir = std::env::temp_dir().join(format!("pmlp-perf-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = EvalStore::open(&dir, "perf", 0xBE7C)?;
    let t0 = Instant::now();
    for i in 0..records {
        store.append(&record(i))?;
    }
    let local_append = t0.elapsed().as_secs_f64();
    drop(store);
    let t0 = Instant::now();
    let mut store = EvalStore::open(&dir, "perf", 0xBE7C)?;
    let replayed = store.warm_start();
    let local_replay = t0.elapsed().as_secs_f64();
    assert_eq!(
        replayed.len(),
        records,
        "replay must reproduce every record"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // Remote tier over loopback. Single appends and batched appends go to
    // distinct fingerprints so each path writes (and the scan reads) a
    // well-defined log.
    let server = pmlp_serve::spawn(&pmlp_serve::ServeConfig::default())?;
    let client = RemoteBackend::new(&server.url())?;
    let t0 = Instant::now();
    for i in 0..records {
        client.append("perf", 0xBE7C, &record(i))?;
    }
    let remote_single_append = t0.elapsed().as_secs_f64();
    let batch: Vec<EvalRecord> = (0..records).map(record).collect();
    let t0 = Instant::now();
    for chunk in batch.chunks(64) {
        client.append_batch("perf", 0xBA7C, chunk)?;
    }
    let remote_append = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let outcome = client.scan("perf", 0xBE7C)?;
    let remote_replay = t0.elapsed().as_secs_f64();
    assert_eq!(outcome.records.len(), records);
    let serve_stats = server.stats();
    server.stop();

    Ok(StoreMetrics {
        records,
        local_append_records_per_sec: rate(records, local_append),
        local_replay_records_per_sec: rate(records, local_replay),
        remote_replay_records_per_sec: rate(records, remote_replay),
        remote_append_records_per_sec: rate(records, remote_append),
        remote_single_append_records_per_sec: rate(records, remote_single_append),
        serve: ServeCounters {
            requests: serve_stats.requests,
            connections_accepted: serve_stats.connections_accepted,
            requests_reused: serve_stats.requests_reused,
            bytes_in: serve_stats.bytes_in,
            bytes_out: serve_stats.bytes_out,
        },
    })
}

/// The deterministic synthetic evaluation record the persistence stages push
/// around.
fn synthetic_record(i: usize) -> pmlp_core::store::EvalRecord {
    use pmlp_core::engine::EvalKey;
    use pmlp_core::objective::DesignPoint;
    pmlp_core::store::EvalRecord {
        key: EvalKey {
            weight_bits: (i % 14) as u8 + 2,
            sparsity_millis: (i * 37 % 900) as u32,
            clusters: i % 7,
            input_bits: 4,
            fine_tune_epochs: 2,
            salt: i as u64,
        },
        point: DesignPoint {
            config: MinimizationConfig::default().with_weight_bits((i % 14) as u8 + 2),
            accuracy: 0.5 + (i % 50) as f64 / 100.0,
            area_mm2: 10.0 + i as f64,
            power_uw: 100.0 + i as f64,
            delay_us: 1.0 + (i % 10) as f64 / 10.0,
            normalized_accuracy: 0.9,
            normalized_area: 0.5,
            sparsity: 0.1,
            gate_count: 100 + i,
        },
        artifacts: pmlp_core::store::EvalArtifacts::default(),
    }
}

/// Runs a scripted outage/recovery cycle against a loopback server — appends
/// flow, the server dies, appends keep flowing (journaled), the server comes
/// back on the same address, the breaker rejoins and the journal replays —
/// and reports the resulting fault-tolerance counters.
fn measure_resilience(
    outage_appends: usize,
) -> Result<ResilienceMetrics, Box<dyn std::error::Error>> {
    use pmlp_core::store::{MemoryBackend, RemoteBackend, StoreBackend, TieredStore};

    let t0 = Instant::now();
    let server = pmlp_serve::spawn(&pmlp_serve::ServeConfig::default())?;
    let addr = server.addr();
    // Zero cooldown: the recovery probe happens on the next write instead of
    // after the production default's 1 s wait, so the measured cycle is the
    // work, not the sleep.
    let tiered = TieredStore::with_cooldown(
        Box::new(MemoryBackend::new()),
        Box::new(RemoteBackend::new(&format!("http://{addr}"))?),
        std::time::Duration::ZERO,
    );
    for i in 0..outage_appends {
        tiered.append("resil", 0xFA11, &synthetic_record(i))?;
    }
    server.stop();
    // The outage window: every append succeeds locally and is journaled.
    for i in 0..outage_appends {
        tiered.append("resil", 0xFA11, &synthetic_record(outage_appends + i))?;
    }
    let restarted = pmlp_serve::spawn(&pmlp_serve::ServeConfig {
        addr: addr.to_string(),
        ..pmlp_serve::ServeConfig::default()
    })?;
    // The next write probes the half-open breaker, rejoins and replays.
    tiered.append("resil", 0xFA11, &synthetic_record(2 * outage_appends))?;
    let stats = tiered
        .resilience()
        .expect("tiered stores report resilience");
    let replayed = RemoteBackend::new(&restarted.url())?
        .scan("resil", 0xFA11)?
        .records
        .len();
    restarted.stop();
    assert!(
        replayed >= outage_appends,
        "outage-window appends must replay ({replayed} on the restarted server)"
    );
    assert_eq!(stats.journal_dropped, 0, "journal must not overflow");
    Ok(ResilienceMetrics {
        outage_appends,
        remote_retries: stats.remote_retries,
        transient_errors: stats.transient_errors,
        permanent_errors: stats.permanent_errors,
        breaker_opens: stats.breaker_opens,
        breaker_recoveries: stats.breaker_recoveries,
        journaled_records: stats.journaled_records,
        replayed_records: stats.replayed_records,
        journal_dropped: stats.journal_dropped,
        cycle_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Small helper so stage 1 reads as "build the quick baseline engine".
struct Figure2ExperimentBaseline;

impl Figure2ExperimentBaseline {
    fn build(seed: u64) -> Result<EvalEngine, pmlp_core::CoreError> {
        Figure2Experiment::new(UciDataset::Seeds, Effort::Quick, seed).build_engine()
    }
}
