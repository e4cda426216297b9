//! Fault-injection chaos tests of the store/serve tier: a full `--quick`
//! campaign driven through a flapping TCP proxy produces the same science
//! and bit-reproducible artifacts as an unfaulted run, the shared server
//! ends up with every evaluation the worker computed (nothing is silently
//! lost), and a server killed and restarted mid-campaign is rejoined by the
//! circuit breaker with its missed writes replayed from the journal.

use printed_mlp::core::campaign::{Campaign, CampaignConfig, CampaignResult, CampaignRunStats};
use printed_mlp::core::engine::EvalKey;
use printed_mlp::core::experiment::{Effort, Figure1Experiment};
use printed_mlp::core::objective::DesignPoint;
use printed_mlp::core::store::{
    open_backend_opts, BackendOptions, EvalArtifacts, EvalRecord, LocalJsonlBackend, RemoteBackend,
    StoreBackend,
};
use printed_mlp::data::UciDataset;
use printed_mlp::minimize::MinimizationConfig;
use printed_mlp::serve::{spawn, ServeConfig, ServerHandle};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[path = "support/chaos_proxy.rs"]
mod chaos_proxy;
use chaos_proxy::{ChaosConfig, ChaosProxy};

const SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pmlp-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A worker configuration tuned for chaos: the breaker's cooldown is zeroed
/// so a quick campaign (which finishes in well under the production 1 s
/// cooldown) probes a recovered server on its very next operation.
fn chaos_config(
    datasets: Vec<UciDataset>,
    local: &Path,
    remote: Option<String>,
    resume: bool,
) -> CampaignConfig {
    CampaignConfig {
        datasets,
        effort: Effort::Quick,
        seed: SEED,
        max_accuracy_loss: 0.05,
        objectives: Default::default(),
        store_dir: Some(local.to_path_buf()),
        remote_store: remote,
        remote_timeout_ms: Some(2_000),
        durability: Default::default(),
        remote_cooldown_ms: Some(0),
        resume,
    }
}

fn run(config: CampaignConfig) -> (CampaignResult, CampaignRunStats) {
    Campaign::new(config).run_with_stats().unwrap()
}

/// The deduplicated evaluation-key set a server holds for `dataset` — the
/// campaign's record log is named after the dataset and bound to the trained
/// baseline's fingerprint. Retried appends whose first attempt actually
/// landed legitimately duplicate records server-side; identity is the key
/// set, not the record count.
fn server_keys(url: &str, dataset: UciDataset) -> HashSet<EvalKey> {
    let fingerprint = Figure1Experiment::new(dataset, Effort::Quick, SEED)
        .build_engine()
        .unwrap()
        .fingerprint();
    RemoteBackend::new(url)
        .unwrap()
        .scan(&dataset.to_string(), fingerprint)
        .unwrap()
        .records
        .into_iter()
        .map(|record| record.key)
        .collect()
}

/// Same key set, read from a worker's local write-through cache directory.
fn local_keys(dir: &Path, dataset: UciDataset) -> HashSet<EvalKey> {
    let fingerprint = Figure1Experiment::new(dataset, Effort::Quick, SEED)
        .build_engine()
        .unwrap()
        .fingerprint();
    LocalJsonlBackend::open(dir)
        .unwrap()
        .scan(&dataset.to_string(), fingerprint)
        .unwrap()
        .records
        .into_iter()
        .map(|record| record.key)
        .collect()
}

fn record(bits: u8, accuracy: f64) -> EvalRecord {
    EvalRecord {
        key: EvalKey {
            weight_bits: bits,
            sparsity_millis: u32::MAX,
            clusters: 0,
            input_bits: 4,
            fine_tune_epochs: 2,
            salt: 0xFEED_FACE_CAFE_BEEF,
        },
        point: DesignPoint {
            config: MinimizationConfig::default().with_weight_bits(bits),
            accuracy,
            area_mm2: 42.5,
            power_uw: 425.0,
            delay_us: 2.0,
            normalized_accuracy: accuracy / 0.9,
            normalized_area: 0.425,
            sparsity: 0.0,
            gate_count: 300,
        },
        artifacts: EvalArtifacts::default(),
    }
}

/// The tentpole acceptance contract: a full quick campaign driven through a
/// fault-injecting proxy (delays, connection resets, truncated and corrupted
/// responses, garbage bytes) finishes, reports the same science as an
/// unfaulted run, resumes bit-identically through the still-flapping proxy,
/// and loses not a single evaluation on the server behind the proxy.
#[test]
fn a_campaign_through_a_flapping_proxy_loses_nothing_and_matches_the_clean_run() {
    let datasets = vec![UciDataset::Seeds, UciDataset::Vertebral];

    // Clean reference: a direct, unfaulted worker against its own server.
    let clean_server = spawn(&ServeConfig::default()).unwrap();
    let clean_dir = temp_dir("clean");
    let (clean, clean_stats) = run(chaos_config(
        datasets.clone(),
        &clean_dir,
        Some(clean_server.url()),
        false,
    ));
    assert!(clean_stats.fresh_evaluations > 0, "clean run must compute");

    // Chaos run: same campaign, but every byte between worker and server
    // crosses the fault-injecting proxy with the default fault schedule.
    let chaos_server = spawn(&ServeConfig::default()).unwrap();
    let proxy = ChaosProxy::spawn(chaos_server.addr(), ChaosConfig::default()).unwrap();
    let chaos_dir = temp_dir("flaky");
    let (chaos, chaos_stats) = run(chaos_config(
        datasets.clone(),
        &chaos_dir,
        Some(proxy.url()),
        false,
    ));
    assert!(
        proxy.faults_injected() > 0,
        "the proxy must actually have misbehaved: {:?}",
        proxy.snapshot()
    );
    assert_eq!(chaos_stats.computed, datasets, "chaos run must complete");

    // Identical science: faults may cost retries and journal trips, but
    // never correctness. (Whole-report equality would compare wall-clock
    // fields; the science is the series, headlines and baselines.)
    for (a, b) in clean.reports.iter().zip(&chaos.reports) {
        assert_eq!(a.series, b.series, "{}: faulted series differ", a.name);
        assert_eq!(
            a.headline, b.headline,
            "{}: faulted headline differs",
            a.name
        );
        assert_eq!(a.baseline_accuracy, b.baseline_accuracy);
        assert_eq!(a.baseline_area_mm2, b.baseline_area_mm2);
        assert_eq!(a.evaluations, b.evaluations);
    }

    // Bit-reproducible artifacts: a --resume re-run of the chaos worker,
    // still through the flapping proxy, replays every report verbatim from
    // its completion markers and writes byte-identical artifact files.
    let artifacts_first = temp_dir("art-first");
    let artifacts_resumed = temp_dir("art-resumed");
    let first_paths = chaos.write_artifacts(&artifacts_first).unwrap();
    let (resumed, resumed_stats) = run(chaos_config(
        datasets.clone(),
        &chaos_dir,
        Some(proxy.url()),
        true,
    ));
    assert_eq!(resumed_stats.fresh_evaluations, 0, "resume must be warm");
    assert_eq!(resumed_stats.resumed, datasets);
    assert_eq!(resumed, chaos, "resumed reports must be verbatim");
    let resumed_paths = resumed.write_artifacts(&artifacts_resumed).unwrap();
    assert_eq!(first_paths.len(), resumed_paths.len());
    for (a, b) in first_paths.iter().zip(&resumed_paths) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "artifact {} is not byte-identical across the chaos resume",
            a.file_name().unwrap().to_string_lossy()
        );
    }

    // Zero lost evaluations: behind the proxy, the chaos server holds the
    // exact evaluation-key set the clean server does — every append that a
    // fault interrupted was retried or journal-replayed to completion.
    for &dataset in &datasets {
        let clean_keys = server_keys(&clean_server.url(), dataset);
        let chaos_keys = server_keys(&chaos_server.url(), dataset);
        assert!(!clean_keys.is_empty());
        assert_eq!(
            clean_keys, chaos_keys,
            "{dataset:?}: the faulted server lost (or invented) evaluations"
        );
    }

    proxy.stop();
    clean_server.stop();
    chaos_server.stop();
    for dir in [&clean_dir, &chaos_dir, &artifacts_first, &artifacts_resumed] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A disk-backed server killed after the first finished dataset and
/// restarted after the second: the breaker opens, writes journal locally,
/// the restarted process is rejoined by a half-open probe, and by the end of
/// the campaign the server holds every record the worker's local cache does.
#[test]
fn a_server_killed_and_restarted_mid_campaign_ends_with_every_record() {
    let datasets = vec![
        UciDataset::Seeds,
        UciDataset::Balance,
        UciDataset::Vertebral,
    ];
    let server_store = temp_dir("restart-server-store");
    let server = spawn(&ServeConfig {
        store_dir: Some(server_store.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let url = server.url();

    // The chaos operator rides the campaign's progress callback: the first
    // finished dataset takes the server down, the second brings a fresh
    // process back up on the same address and store directory. Whatever the
    // worker writes in between lands in the replay journal.
    struct Operator {
        fired: usize,
        server: Option<ServerHandle>,
    }
    let operator = Arc::new(Mutex::new(Operator {
        fired: 0,
        server: Some(server),
    }));
    let operator_for_campaign = Arc::clone(&operator);
    let respawn_store = server_store.clone();
    let local_dir = temp_dir("restart-local");
    let campaign = Campaign::new(chaos_config(
        datasets.clone(),
        &local_dir,
        Some(url.clone()),
        false,
    ))
    .with_progress(move |_report| {
        let mut operator = operator_for_campaign.lock().unwrap();
        operator.fired += 1;
        match operator.fired {
            1 => {
                if let Some(server) = operator.server.take() {
                    server.stop();
                }
            }
            2 => {
                operator.server = Some(
                    spawn(&ServeConfig {
                        addr: addr.to_string(),
                        store_dir: Some(respawn_store.clone()),
                        ..ServeConfig::default()
                    })
                    .expect("respawn on the same address"),
                );
            }
            _ => {}
        }
    });

    let (result, stats) = campaign.run_with_stats().unwrap();
    assert_eq!(stats.computed, datasets, "the outage must not fail the run");
    assert_eq!(result.reports.len(), datasets.len());
    {
        let operator = operator.lock().unwrap();
        assert_eq!(operator.fired, datasets.len());
        assert!(operator.server.is_some(), "the restarted server must be up");
    }

    // The worker's local tier is authoritative for what was computed; the
    // restarted server must have converged to the same key set — pre-kill
    // records from its on-disk store, outage-window records from the
    // journal replay, post-restart records live.
    for &dataset in &datasets {
        let local = local_keys(&local_dir, dataset);
        let remote = server_keys(&url, dataset);
        assert!(!local.is_empty());
        assert_eq!(
            local, remote,
            "{dataset:?}: the restarted server is missing records"
        );
    }

    if let Some(server) = operator.lock().unwrap().server.take() {
        server.stop();
    }
    std::fs::remove_dir_all(&server_store).ok();
    std::fs::remove_dir_all(&local_dir).ok();
}

/// The resilience counters of the composed backend tell the outage's story:
/// transient errors and retries while the link is down, journaled writes
/// while the breaker is open, a recovery plus a full replay once the link
/// returns — and every record on the server afterwards.
#[test]
fn an_outage_window_is_visible_in_the_resilience_counters() {
    let server = spawn(&ServeConfig::default()).unwrap();
    let quiet = ChaosConfig {
        delay_per_mille: 0,
        reset_per_mille: 0,
        truncate_per_mille: 0,
        garbage_per_mille: 0,
        corrupt_per_mille: 0,
        ..ChaosConfig::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), quiet).unwrap();
    let dir = temp_dir("counters");
    let backend = open_backend_opts(
        Some(&dir),
        Some(&proxy.url()),
        &BackendOptions {
            remote_timeout: Some(Duration::from_millis(2_000)),
            durability: Default::default(),
            remote_cooldown: Some(Duration::ZERO),
        },
    )
    .unwrap()
    .unwrap();

    backend.append("Seeds", 0xAB, &record(3, 0.80)).unwrap();
    proxy.set_healthy(false);
    backend.append("Seeds", 0xAB, &record(4, 0.81)).unwrap();
    backend.append("Seeds", 0xAB, &record(5, 0.82)).unwrap();
    proxy.set_healthy(true);
    backend.append("Seeds", 0xAB, &record(6, 0.83)).unwrap();

    let resilience = backend.resilience().unwrap();
    assert!(resilience.breaker_opens >= 1, "{resilience:?}");
    assert!(resilience.breaker_recoveries >= 1, "{resilience:?}");
    assert_eq!(resilience.journaled_records, 2, "{resilience:?}");
    assert_eq!(resilience.replayed_records, 2, "{resilience:?}");
    assert_eq!(resilience.journal_dropped, 0, "{resilience:?}");
    assert!(resilience.transient_errors >= 1, "{resilience:?}");
    assert!(resilience.remote_retries >= 1, "{resilience:?}");

    let bits: HashSet<u8> = RemoteBackend::new(&server.url())
        .unwrap()
        .scan("Seeds", 0xAB)
        .unwrap()
        .records
        .iter()
        .map(|r| r.key.weight_bits)
        .collect();
    assert_eq!(bits, HashSet::from([3, 4, 5, 6]));

    proxy.stop();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
