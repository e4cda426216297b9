//! Integration tests of the networked evaluation-cache tier: campaign
//! workers sharing one `pmlp-serve` instance inherit each other's
//! evaluations and completion markers, and replay each other's GA searches
//! from them; a killed server trips the worker's circuit breaker onto its
//! local write-through cache instead of failing it (see `tests/chaos.rs` for
//! the recovery half: restarted servers are rejoined and journaled writes
//! replayed).

use printed_mlp::core::baseline_doc_name;
use printed_mlp::core::campaign::{Campaign, CampaignConfig, CampaignResult, CampaignRunStats};
use printed_mlp::core::experiment::{Effort, Figure2Experiment};
use printed_mlp::core::store::{RemoteBackend, StoreBackend};
use printed_mlp::data::UciDataset;
use printed_mlp::serve::{spawn, ServeConfig};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pmlp-serve-worker-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn worker_config(
    datasets: Vec<UciDataset>,
    local: &Path,
    remote: Option<String>,
    resume: bool,
) -> CampaignConfig {
    CampaignConfig {
        datasets,
        effort: Effort::Quick,
        seed: 11,
        max_accuracy_loss: 0.05,
        objectives: Default::default(),
        store_dir: Some(local.to_path_buf()),
        remote_store: remote,
        remote_timeout_ms: None,
        durability: Default::default(),
        remote_cooldown_ms: None,
        resume,
    }
}

fn run(config: CampaignConfig) -> (CampaignResult, CampaignRunStats) {
    Campaign::new(config).run_with_stats().unwrap()
}

/// The headline acceptance contract: two workers with *disjoint* local
/// caches share one server; the second worker recomputes nothing and its
/// artifacts are byte-identical to the first (cold) worker's.
#[test]
fn second_worker_on_a_shared_server_is_free_and_byte_identical() {
    let server = spawn(&ServeConfig::default()).unwrap();
    let datasets = vec![UciDataset::Seeds];
    let dir_a = temp_dir("shared-a");
    let dir_b = temp_dir("shared-b");
    let dir_c = temp_dir("shared-c");
    let artifacts_a = temp_dir("shared-art-a");
    let artifacts_b = temp_dir("shared-art-b");

    // Worker A: cold — computes everything, replicates records + markers.
    let (a, a_stats) = run(worker_config(
        datasets.clone(),
        &dir_a,
        Some(server.url()),
        false,
    ));
    assert!(a_stats.fresh_evaluations > 0, "worker A must compute");
    let paths_a = a.write_artifacts(&artifacts_a).unwrap();
    assert!(
        server.stats().records_appended > 0,
        "records must replicate"
    );
    assert!(server.stats().doc_puts > 0, "markers must replicate");
    let baseline_doc = baseline_doc_name(UciDataset::Seeds, 11, &Effort::Quick.baseline_config());
    assert!(
        RemoteBackend::new(&server.url())
            .unwrap()
            .get_doc(&baseline_doc)
            .unwrap()
            .is_some(),
        "the baseline characterization must be published on the server"
    );
    let doc_puts_after_a = server.stats().doc_puts;

    // Worker B: fresh machine (empty local dir), same server, --resume
    // --require-warm semantics: zero fresh evaluations, markers stream in
    // from the server, artifacts byte-identical to the cold run.
    let (b, b_stats) = run(worker_config(
        datasets.clone(),
        &dir_b,
        Some(server.url()),
        true,
    ));
    assert_eq!(b_stats.fresh_evaluations, 0, "worker B must be fully warm");
    assert_eq!(
        server.stats().doc_puts,
        doc_puts_after_a,
        "worker B loads the baseline and markers instead of republishing them"
    );
    assert_eq!(b_stats.resumed, datasets);
    assert_eq!(b, a, "resumed reports must be verbatim");
    let paths_b = b.write_artifacts(&artifacts_b).unwrap();
    assert_eq!(paths_a.len(), paths_b.len());
    for (pa, pb) in paths_a.iter().zip(&paths_b) {
        assert_eq!(
            std::fs::read(pa).unwrap(),
            std::fs::read(pb).unwrap(),
            "artifact {} differs between the cold run and the shared-server worker",
            pa.file_name().unwrap().to_string_lossy()
        );
    }

    // Worker C: fresh machine, no --resume: it recomputes the sweeps, but
    // every single evaluation streams in from the server — zero misses.
    let (c, c_stats) = run(worker_config(
        datasets.clone(),
        &dir_c,
        Some(server.url()),
        false,
    ));
    assert_eq!(c_stats.computed, datasets);
    assert_eq!(
        c_stats.fresh_evaluations, 0,
        "remote records must warm worker C"
    );
    for (cold, warm) in a.reports.iter().zip(&c.reports) {
        assert_eq!(cold.series, warm.series);
        assert_eq!(cold.headline, warm.headline);
    }

    server.stop();
    for dir in [&dir_a, &dir_b, &dir_c, &artifacts_a, &artifacts_b] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A server killed between (or during) runs degrades the worker to its local
/// write-through cache: the campaign still completes, still warm.
#[test]
fn killed_server_degrades_to_the_local_write_through_cache() {
    let server = spawn(&ServeConfig::default()).unwrap();
    let url = server.url();
    let datasets = vec![UciDataset::Seeds];
    let dir = temp_dir("degrade");

    // Cold run against the live server fills the local cache.
    let (first, first_stats) = run(worker_config(
        datasets.clone(),
        &dir,
        Some(url.clone()),
        false,
    ));
    assert!(first_stats.fresh_evaluations > 0);

    // Kill the server. The same worker re-runs with the dead URL: markers
    // and records answer from the local tier, nothing fails, zero fresh.
    server.stop();
    let (second, second_stats) = run(worker_config(
        datasets.clone(),
        &dir,
        Some(url.clone()),
        true,
    ));
    assert_eq!(second_stats.fresh_evaluations, 0);
    assert_eq!(second_stats.resumed, datasets);
    assert_eq!(second, first);

    // A completely fresh worker against the dead server simply computes
    // locally — degraded, not broken.
    let dir_fresh = temp_dir("degrade-fresh");
    let (third, third_stats) = run(worker_config(
        datasets.clone(),
        &dir_fresh,
        Some(url),
        false,
    ));
    assert!(
        third_stats.fresh_evaluations > 0,
        "dead remote => local compute"
    );
    for (a, b) in first.reports.iter().zip(&third.reports) {
        assert_eq!(a.series, b.series, "degraded science must match");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_fresh).ok();
}

/// A GA search replays through the server: a second worker with an empty
/// local tier re-runs Fig. 2 from its seed, every evaluation streams in from
/// the server, and the search equals the first worker's.
#[test]
fn ga_search_replays_from_the_server_on_a_second_worker() {
    let server = spawn(&ServeConfig::default()).unwrap();
    let experiment = Figure2Experiment::new(UciDataset::Seeds, Effort::Quick, 21);
    let dir_a = temp_dir("ga-a");
    let dir_b = temp_dir("ga-b");

    let backend = |dir: &Path| {
        printed_mlp::core::store::open_backend(Some(dir), Some(&server.url()))
            .unwrap()
            .unwrap()
    };

    // Worker A runs the search; its records replicate to the server.
    let engine_a = experiment
        .build_engine()
        .unwrap()
        .with_backend(backend(&dir_a))
        .unwrap();
    let result_a = experiment.run_with(&engine_a).unwrap();
    assert!(engine_a.stats().misses > 0, "worker A computes");

    // Worker B, fresh local tier: the same run is answered by the server's
    // records without a single fresh evaluation.
    let engine_b = experiment
        .build_engine()
        .unwrap()
        .with_backend(backend(&dir_b))
        .unwrap();
    let result_b = experiment.run_with(&engine_b).unwrap();
    assert_eq!(result_b.search, result_a.search);
    assert_eq!(engine_b.stats().misses, 0, "worker B must be fully warm");

    server.stop();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
