//! Integration tests of the distributed search plane: a fleet of campaign
//! workers splitting one battery through lease-based work stealing on a
//! shared `pmlp-serve` store, and a crashed worker's lease expiring and being
//! stolen by a survivor (the outage staged with the chaos proxy).

use printed_mlp::core::campaign::{
    Campaign, CampaignConfig, CampaignResult, CampaignRunStats, WorkerOptions,
};
use printed_mlp::core::experiment::Effort;
use printed_mlp::core::store::{now_epoch_ms, RemoteBackend, StoreBackend};
use printed_mlp::data::UciDataset;
use printed_mlp::serve::chaos::{ChaosConfig, ChaosProxy};
use printed_mlp::serve::{spawn, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pmlp-fleet-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fleet_config(
    datasets: Vec<UciDataset>,
    local: &Path,
    remote: String,
    worker: WorkerOptions,
) -> CampaignConfig {
    CampaignConfig {
        datasets,
        effort: Effort::Quick,
        seed: SEED,
        max_accuracy_loss: 0.05,
        objectives: Default::default(),
        store_dir: Some(local.to_path_buf()),
        remote_store: Some(remote),
        remote_timeout_ms: Some(2_000),
        durability: Default::default(),
        remote_cooldown_ms: Some(0),
        resume: false,
        worker: Some(worker),
    }
}

fn run_fleet_worker(config: CampaignConfig) -> (CampaignResult, CampaignRunStats) {
    Campaign::new(config).run_with_stats().unwrap()
}

/// The tentpole acceptance contract: two workers against one server split
/// the battery dynamically — every dataset is computed by exactly one of
/// them, both assemble the identical full result, and the science matches a
/// classic single-process run. Afterwards the server's document listing
/// (exercising `list_docs` end to end through the remote backend) shows one
/// completion marker and one cached baseline per dataset and zero leases.
#[test]
fn two_workers_split_the_battery_and_match_the_classic_run() {
    let datasets = vec![UciDataset::Seeds, UciDataset::Vertebral];

    let classic = Campaign::new(CampaignConfig {
        datasets: datasets.clone(),
        effort: Effort::Quick,
        seed: SEED,
        ..CampaignConfig::default()
    })
    .run()
    .unwrap();

    let server = spawn(&ServeConfig::default()).unwrap();
    let dir_a = temp_dir("split-a");
    let dir_b = temp_dir("split-b");
    let spawn_worker = |id: &str, dir: &Path| {
        let config = fleet_config(
            datasets.clone(),
            dir,
            server.url(),
            WorkerOptions::new(id).with_steal(true),
        );
        std::thread::spawn(move || run_fleet_worker(config))
    };
    let first = spawn_worker("w1", &dir_a);
    let second = spawn_worker("w2", &dir_b);
    let (result_a, stats_a) = first.join().unwrap();
    let (result_b, stats_b) = second.join().unwrap();

    // No dataset is evaluated twice: the computed sets partition the battery.
    for dataset in &datasets {
        let in_a = stats_a.computed.contains(dataset);
        let in_b = stats_b.computed.contains(dataset);
        assert!(
            in_a ^ in_b,
            "{dataset:?} must be computed by exactly one worker"
        );
    }

    // Both workers hold the full battery result, identically, and the
    // science equals the classic run's.
    assert_eq!(result_a, result_b);
    for (fleet, single) in result_a.reports.iter().zip(&classic.reports) {
        assert_eq!(fleet.series, single.series, "{}: series differ", fleet.name);
        assert_eq!(fleet.headline, single.headline);
        assert_eq!(fleet.hypervolume, single.hypervolume);
        assert_eq!(fleet.baseline_accuracy, single.baseline_accuracy);
    }

    // list_docs round-trips through the live server: per dataset one
    // completion marker and one cached baseline characterization; all
    // leases released.
    let remote = RemoteBackend::new(&server.url()).unwrap();
    for dataset in &datasets {
        let ds = dataset.to_string().to_lowercase();
        assert_eq!(
            remote.list_docs(&format!("done_{ds}_")).unwrap().len(),
            1,
            "{dataset:?}: exactly one completion marker"
        );
        assert_eq!(
            remote.list_docs(&format!("baseline_{ds}_")).unwrap().len(),
            1,
            "{dataset:?}: the baseline characterization must be cached"
        );
    }
    assert!(
        remote.list_docs("lease_").unwrap().is_empty(),
        "all leases must be released"
    );

    server.stop();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// A worker whose link dies mid-dataset stops renewing its lease on the
/// server; once the lease expires, a stealing survivor takes the dataset
/// over and finishes the battery. The cut is staged with the chaos proxy:
/// the doomed worker claims through it, then the proxy goes unhealthy.
#[test]
fn a_dead_workers_expired_lease_is_stolen_by_a_survivor() {
    let datasets = vec![UciDataset::Seeds];
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

    // The doomed worker claims through the proxy with a short lease.
    let dir_doomed = temp_dir("steal-doomed");
    let mut doomed_worker = WorkerOptions::new("doomed");
    doomed_worker.lease_ttl_ms = 500;
    let doomed_config = fleet_config(datasets.clone(), &dir_doomed, proxy.url(), doomed_worker);
    let lease_name = Campaign::new(doomed_config.clone()).lease_doc_name(UciDataset::Seeds);
    let doomed = std::thread::spawn(move || run_fleet_worker(doomed_config));

    // Cut the link the moment the claim lands on the server. From here the
    // doomed worker's heartbeats fail (journaled locally) and its server-side
    // lease runs out.
    let remote = RemoteBackend::new(&server.url()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while remote.get_doc(&lease_name).unwrap().is_none() {
        assert!(Instant::now() < deadline, "doomed worker never claimed");
        std::thread::sleep(Duration::from_millis(5));
    }
    proxy.set_healthy(false);

    // Wait for the orphaned lease to expire server-side.
    let survivor_config = fleet_config(
        datasets.clone(),
        &temp_dir("steal-survivor"),
        server.url(),
        WorkerOptions::new("survivor").with_steal(true),
    );
    let survivor = Campaign::new(survivor_config.clone());
    loop {
        assert!(Instant::now() < deadline, "orphaned lease never expired");
        match survivor.read_lease(&remote, &lease_name) {
            Some((holder, lease_deadline)) => {
                assert_eq!(holder, "doomed");
                if lease_deadline < now_epoch_ms() {
                    break;
                }
            }
            // The doomed worker finished and released before the cut bit;
            // extremely fast machines could get here — the steal scenario
            // needs the lease present, so keep polling for the marker case.
            None => break,
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The survivor steals the expired lease and completes the battery.
    let (survivor_result, survivor_stats) = survivor.run_with_stats().unwrap();
    assert_eq!(survivor_stats.computed, datasets);
    assert_eq!(
        survivor_stats.stolen, datasets,
        "the survivor must have broken the expired lease"
    );

    // The doomed worker still completes on its local tier (its duplicate
    // work is the documented cost of a lost lease, never a correctness
    // problem) and agrees on the science.
    let (doomed_result, doomed_stats) = doomed.join().unwrap();
    assert_eq!(doomed_stats.computed, datasets);
    for (a, b) in doomed_result.reports.iter().zip(&survivor_result.reports) {
        assert_eq!(a.series, b.series, "{}: stolen series differ", a.name);
        assert_eq!(a.headline, b.headline);
        assert_eq!(a.hypervolume, b.hypervolume);
    }

    proxy.stop();
    server.stop();
    std::fs::remove_dir_all(&dir_doomed).ok();
}
