//! End-to-end tests of the evaluation-cache server against the real
//! `pmlp-core` HTTP client: records and documents round-trip over loopback,
//! the tiered composition fills its local cache from the server, and bad
//! input is rejected instead of stored.

use pmlp_core::engine::EvalKey;
use pmlp_core::objective::DesignPoint;
use pmlp_core::store::{
    EvalArtifacts, EvalRecord, LocalJsonlBackend, MemoryBackend, RemoteBackend, StoreBackend,
    TieredStore,
};
use pmlp_minimize::MinimizationConfig;
use pmlp_serve::{spawn, ServeConfig};
use std::path::PathBuf;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pmlp-serve-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn records_round_trip_through_the_server() {
    let handle = spawn(&ServeConfig::default()).unwrap();
    let client = RemoteBackend::new(&handle.url()).unwrap();
    assert!(client.ping());

    // Empty scan first: a valid (empty) log with a matching header.
    let outcome = client.scan("Seeds", 0xAB).unwrap();
    assert!(outcome.records.is_empty());

    let a = record(3, 0.8);
    let b = record(4, 0.9);
    client.append("Seeds", 0xAB, &a).unwrap();
    client.append("Seeds", 0xAB, &b).unwrap();

    let outcome = client.scan("Seeds", 0xAB).unwrap();
    assert_eq!(outcome.records, vec![a.clone(), b.clone()]);
    assert_eq!(outcome.dropped, 0);

    // Fingerprints isolate on the server exactly like on disk.
    assert!(client.scan("Seeds", 0xCD).unwrap().records.is_empty());
    // get() resolves through the scan path.
    assert_eq!(client.get("Seeds", 0xAB, &a.key).unwrap(), Some(a));

    let stats = handle.stats();
    assert_eq!(stats.records_appended, 2);
    assert!(stats.scans >= 3);
    handle.stop();
}

#[test]
fn documents_round_trip_and_missing_ones_are_404_not_errors() {
    let handle = spawn(&ServeConfig::default()).unwrap();
    let client = RemoteBackend::new(&handle.url()).unwrap();

    assert_eq!(client.get_doc("checkpoint.json").unwrap(), None);
    client.put_doc("checkpoint.json", "{\"gen\":3}").unwrap();
    assert_eq!(
        client.get_doc("checkpoint.json").unwrap().as_deref(),
        Some("{\"gen\":3}")
    );
    // Overwrite.
    client.put_doc("checkpoint.json", "{\"gen\":4}").unwrap();
    assert_eq!(
        client.get_doc("checkpoint.json").unwrap().as_deref(),
        Some("{\"gen\":4}")
    );
    client.remove_doc("checkpoint.json").unwrap();
    assert_eq!(client.get_doc("checkpoint.json").unwrap(), None);
    client.remove_doc("checkpoint.json").unwrap(); // idempotent
    handle.stop();
}

#[test]
fn server_rejects_malformed_records_and_unsafe_paths() {
    let handle = spawn(&ServeConfig::default()).unwrap();
    let client = RemoteBackend::new(&handle.url()).unwrap();

    // A hand-rolled bad append: the server must reject the whole batch.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let body = "this is not a record line";
    write!(
        stream,
        "POST /v1/records/seeds/00000000000000ab HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "got: {response}");

    // Nothing was stored.
    assert!(client.scan("seeds", 0xAB).unwrap().records.is_empty());

    // Unsafe names never reach the backend.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write!(
        stream,
        "GET /v1/docs/..%2Fescape HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "got: {response}");

    assert!(handle.stats().bad_requests >= 1);
    handle.stop();
}

#[test]
fn tiered_store_fills_its_local_cache_from_the_server() {
    let handle = spawn(&ServeConfig::default()).unwrap();

    // Worker A computes two "evaluations" and replicates them.
    let worker_a = TieredStore::new(
        Box::new(MemoryBackend::new()),
        Box::new(RemoteBackend::new(&handle.url()).unwrap()),
    );
    let a = record(3, 0.8);
    let b = record(4, 0.9);
    worker_a.append("Seeds", 0x11, &a).unwrap();
    worker_a.append("Seeds", 0x11, &b).unwrap();

    // Worker B, fresh local tier, same server: the scan streams both records
    // in and caches them locally.
    let local_b = MemoryBackend::new();
    let worker_b = TieredStore::new(
        Box::new(local_b),
        Box::new(RemoteBackend::new(&handle.url()).unwrap()),
    );
    let outcome = worker_b.scan("Seeds", 0x11).unwrap();
    assert_eq!(outcome.records.len(), 2);
    assert_eq!(worker_b.stats().remote_fills, 2);

    // Kill the server: worker B still answers from its filled local cache.
    handle.stop();
    let outcome = worker_b.scan("Seeds", 0x11).unwrap();
    assert_eq!(
        outcome.records.len(),
        2,
        "local cache must survive the server"
    );
    assert!(!worker_b.remote_healthy());
}

#[test]
fn eval_store_checkpoint_documents_replicate_to_the_server() {
    let handle = spawn(&ServeConfig::default()).unwrap();
    let tiered = TieredStore::new(
        Box::new(MemoryBackend::new()),
        Box::new(RemoteBackend::new(&handle.url()).unwrap()),
    );
    tiered
        .put_doc("done_seeds_0000.json", "{\"done\":true}")
        .unwrap();

    // A different client sees the document on the server.
    let other = RemoteBackend::new(&handle.url()).unwrap();
    assert_eq!(
        other.get_doc("done_seeds_0000.json").unwrap().as_deref(),
        Some("{\"done\":true}")
    );
    handle.stop();
}

#[test]
fn a_store_directory_backs_the_server_durably() {
    let dir = temp_dir("durable");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let a = record(5, 0.7);
    {
        let handle = spawn(&config).unwrap();
        let client = RemoteBackend::new(&handle.url()).unwrap();
        client.append("Seeds", 0x33, &a).unwrap();
        handle.stop();
    }
    // A new server over the same directory still has the record...
    {
        let handle = spawn(&config).unwrap();
        let client = RemoteBackend::new(&handle.url()).unwrap();
        assert_eq!(client.scan("Seeds", 0x33).unwrap().records, vec![a.clone()]);
        handle.stop();
    }
    // ...because it lives in the standard local JSONL format, readable by a
    // plain single-machine backend too.
    let local = LocalJsonlBackend::open(&dir).unwrap();
    assert_eq!(local.scan("Seeds", 0x33).unwrap().records, vec![a]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A record with a distinguishable key, for concurrency tests that must
/// prove nothing was lost or duplicated.
fn keyed_record(thread: u8, i: u32) -> EvalRecord {
    let mut r = record(thread, 0.5 + f64::from(i) / 1000.0);
    r.key.sparsity_millis = i;
    r
}

#[test]
fn concurrent_clients_hammering_one_server_lose_nothing() {
    let handle = spawn(&ServeConfig::default()).unwrap();
    const THREADS: u8 = 8;
    const PER_THREAD: u32 = 25;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let url = handle.url();
            scope.spawn(move || {
                // One keep-alive client per thread, mixing single appends,
                // batches and interleaved scans.
                let client = RemoteBackend::new(&url).unwrap();
                let mut i = 0;
                while i < PER_THREAD {
                    if i % 5 == 0 && i + 2 <= PER_THREAD {
                        let batch = [keyed_record(t, i), keyed_record(t, i + 1)];
                        client.append_batch("Seeds", 0x77, &batch).unwrap();
                        i += 2;
                    } else {
                        client.append("Seeds", 0x77, &keyed_record(t, i)).unwrap();
                        i += 1;
                    }
                    if i % 7 == 0 {
                        client.scan("Seeds", 0x77).unwrap();
                    }
                }
            });
        }
    });

    let client = RemoteBackend::new(&handle.url()).unwrap();
    let outcome = client.scan("Seeds", 0x77).unwrap();
    let expected = usize::from(THREADS) * PER_THREAD as usize;
    assert_eq!(outcome.records.len(), expected, "no record may be lost");
    let unique: std::collections::HashSet<_> = outcome.records.iter().map(|r| r.key).collect();
    assert_eq!(unique.len(), expected, "no record may be duplicated");

    let stats = handle.stats();
    assert_eq!(stats.records_appended, expected as u64);
    assert!(
        stats.requests_reused > 0,
        "keep-alive connections must be reused: {stats:?}"
    );
    assert!(
        stats.connections_accepted < stats.requests,
        "connection pooling must amortize connections over requests: {stats:?}"
    );
    handle.stop();
}

#[test]
fn a_slowloris_connection_times_out_without_wedging_the_worker() {
    // One worker: if the stalled connection wedged it, the healthy request
    // below could never be served.
    let config = ServeConfig {
        workers: 1,
        request_timeout: std::time::Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let handle = spawn(&config).unwrap();

    use std::io::{Read, Write};
    let mut slow = std::net::TcpStream::connect(handle.addr()).unwrap();
    // First byte sent, request never finished: the deadline must fire.
    slow.write_all(b"POST /v1/records/seeds/00").unwrap();

    let start = std::time::Instant::now();
    let mut response = String::new();
    slow.read_to_string(&mut response).ok();
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "stalled request must get 408, got: {response:?}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "deadline must fire promptly"
    );

    // The (single) worker is free again: a healthy client gets served.
    let client = RemoteBackend::new(&handle.url()).unwrap();
    client.append("Seeds", 0x88, &record(3, 0.8)).unwrap();
    assert_eq!(client.scan("Seeds", 0x88).unwrap().records.len(), 1);
    assert!(handle.stats().bad_requests >= 1);
    handle.stop();
}

#[test]
fn bearer_auth_rejects_bad_tokens_and_tiered_stores_degrade_cleanly() {
    let config = ServeConfig {
        token: Some("sekrit".into()),
        ..ServeConfig::default()
    };
    let handle = spawn(&config).unwrap();

    // The liveness probe stays open (load balancers don't carry tokens)...
    let anonymous = RemoteBackend::new(&handle.url()).unwrap();
    assert!(anonymous.ping());
    // ...but everything else is a 401 without the right token.
    assert!(anonymous.append("Seeds", 0x99, &record(3, 0.8)).is_err());
    let wrong = RemoteBackend::new(&handle.url())
        .unwrap()
        .with_token("nope");
    assert!(wrong.scan("Seeds", 0x99).is_err());

    // The token rides in the URL userinfo, exactly like --remote-store.
    let authed = RemoteBackend::new(&format!("http://sekrit@{}", handle.addr())).unwrap();
    authed.append("Seeds", 0x99, &record(3, 0.8)).unwrap();
    assert_eq!(authed.scan("Seeds", 0x99).unwrap().records.len(), 1);

    // A misconfigured worker degrades to its local tier instead of failing.
    let tiered = TieredStore::new(
        Box::new(MemoryBackend::new()),
        Box::new(
            RemoteBackend::new(&handle.url())
                .unwrap()
                .with_token("nope"),
        ),
    );
    tiered.append("Seeds", 0x99, &record(4, 0.9)).unwrap();
    assert_eq!(tiered.scan("Seeds", 0x99).unwrap().records.len(), 1);
    assert!(!tiered.remote_healthy());

    let stats = handle.stats();
    assert!(stats.auth_failures >= 3, "got: {stats:?}");
    handle.stop();
}

#[test]
fn online_gc_compacts_and_drops_dead_fingerprints() {
    let dir = temp_dir("online-gc");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let handle = spawn(&config).unwrap();
    let client = RemoteBackend::new(&handle.url()).unwrap();

    // One log with a duplicated key, one log that will become dead.
    let a = record(3, 0.8);
    let mut a2 = a.clone();
    a2.point.accuracy = 0.81;
    client.append("Seeds", 0xAA, &a).unwrap();
    client.append("Seeds", 0xAA, &a2).unwrap();
    client.append("Wine", 0xBB, &record(4, 0.9)).unwrap();

    // Pass 1, no live set: pure compaction (threshold 0 forces the rewrite).
    let report = client.gc("{\"compact_threshold_bytes\": 0}").unwrap();
    assert!(report.contains("\"duplicates_merged\": 1"), "got: {report}");
    // Scans replay the rewritten file: last write won.
    let outcome = client.scan("Seeds", 0xAA).unwrap();
    assert_eq!(outcome.records, vec![a2]);
    assert_eq!(client.scan("Wine", 0xBB).unwrap().records.len(), 1);

    // Pass 2: only 0xAA is live; the wine log is dropped for good.
    let report = client
        .gc("{\"live\": [\"00000000000000aa\"], \"compact_threshold_bytes\": 0}")
        .unwrap();
    assert!(report.contains("\"files_dropped\": 1"), "got: {report}");
    assert!(client.scan("Wine", 0xBB).unwrap().records.is_empty());
    assert_eq!(client.scan("Seeds", 0xAA).unwrap().records.len(), 1);

    assert_eq!(handle.stats().gc_runs, 2);
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appends_after_an_online_gc_survive_a_restart() {
    let dir = temp_dir("gc-then-append");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (a, b, c, d) = (
        record(3, 0.8),
        record(4, 0.9),
        record(5, 0.7),
        record(6, 0.6),
    );
    {
        let handle = spawn(&config).unwrap();
        let client = RemoteBackend::new(&handle.url()).unwrap();
        client.append("Seeds", 0xAA, &a).unwrap();
        client.append("Wine", 0xBB, &b).unwrap();
        // The pass rewrites the live Seeds log and drops the dead Wine log
        // while the server holds append handles to both.
        let report = client
            .gc("{\"live\": [\"00000000000000aa\"], \"compact_threshold_bytes\": 0}")
            .unwrap();
        assert!(report.contains("\"files_kept\": 1"), "got: {report}");
        assert!(report.contains("\"files_dropped\": 1"), "got: {report}");
        client.append("Seeds", 0xAA, &c).unwrap();
        client.append("Wine", 0xBB, &d).unwrap();
        let live = client.scan("Seeds", 0xAA).unwrap().records;
        assert_eq!(live, vec![a.clone(), c.clone()]);
        handle.stop();
    }
    // A restarted server over the same directory still has every append the
    // first one acknowledged after the pass...
    {
        let handle = spawn(&config).unwrap();
        let client = RemoteBackend::new(&handle.url()).unwrap();
        assert_eq!(client.scan("Seeds", 0xAA).unwrap().records, vec![a, c]);
        assert_eq!(client.scan("Wine", 0xBB).unwrap().records, vec![d.clone()]);
        handle.stop();
    }
    // ...and the dropped log came back as a freshly sealed file.
    let wine = LocalJsonlBackend::open(&dir)
        .unwrap()
        .scan("Wine", 0xBB)
        .unwrap();
    assert_eq!((wine.records, wine.dropped), (vec![d], 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_draining_server_stays_live_but_stops_being_ready() {
    use std::io::{Read, Write};
    let healthz = |addr: std::net::SocketAddr| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };

    let handle = spawn(&ServeConfig::default()).unwrap();
    let response = healthz(handle.addr());
    assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    assert!(response.contains("\"ok\""), "got: {response}");

    // Draining: still live (answers), no longer ready (503) — and data
    // requests are answered to completion rather than dropped.
    handle.drain();
    let response = healthz(handle.addr());
    assert!(response.starts_with("HTTP/1.1 503"), "got: {response}");
    assert!(response.contains("\"draining\""), "got: {response}");
    let client = RemoteBackend::new(&handle.url()).unwrap();
    client.append("Seeds", 0x51, &record(3, 0.8)).unwrap();
    assert_eq!(client.scan("Seeds", 0x51).unwrap().records.len(), 1);

    handle.stop();
}

#[test]
fn graceful_stop_flushes_a_disk_backed_store() {
    let dir = temp_dir("graceful-flush");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let handle = spawn(&config).unwrap();
    let client = RemoteBackend::new(&handle.url()).unwrap();
    let a = record(3, 0.8);
    let b = record(4, 0.9);
    client.append("Seeds", 0x61, &a).unwrap();
    client.append("Seeds", 0x61, &b).unwrap();
    handle.stop();

    // Everything the server accepted is on disk after a graceful stop.
    let reopened = LocalJsonlBackend::open(&dir).unwrap();
    assert_eq!(reopened.scan("Seeds", 0x61).unwrap().records, vec![a, b]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_restarted_server_is_rejoined_and_journaled_appends_replay() {
    use pmlp_core::store::RetryPolicy;
    let handle = spawn(&ServeConfig::default()).unwrap();
    let addr = handle.addr();
    // Zero cooldown so the half-open probe happens immediately in the test;
    // production uses the 1 s default.
    let tiered = TieredStore::with_cooldown(
        Box::new(MemoryBackend::new()),
        Box::new(
            RemoteBackend::new(&format!("http://{addr}"))
                .unwrap()
                .with_retry_policy(RetryPolicy::none()),
        ),
        std::time::Duration::ZERO,
    );
    tiered.append("Seeds", 0x71, &record(3, 0.8)).unwrap();

    // Server dies mid-run. Appends keep succeeding against the local tier
    // and are journaled — not silently lost.
    handle.stop();
    tiered.append("Seeds", 0x71, &record(4, 0.9)).unwrap();
    tiered.append("Seeds", 0x71, &record(5, 0.95)).unwrap();
    assert!(!tiered.remote_healthy());
    assert_eq!(tiered.journal_len(), 2);

    // The operator restarts the server on the same address (fresh state —
    // the in-memory store died with the process).
    let restarted = spawn(&ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    })
    .unwrap();

    // The next write probes the half-open breaker, rejoins, and replays the
    // journal; nothing appended during the outage is missing on the server.
    tiered.append("Seeds", 0x71, &record(6, 0.97)).unwrap();
    assert!(tiered.remote_healthy());
    assert_eq!(tiered.journal_len(), 0);
    let on_server = RemoteBackend::new(&restarted.url())
        .unwrap()
        .scan("Seeds", 0x71)
        .unwrap();
    let mut bits: Vec<u8> = on_server
        .records
        .iter()
        .map(|r| r.key.weight_bits)
        .collect();
    bits.sort_unstable();
    assert_eq!(bits, vec![4, 5, 6], "outage-window appends must replay");

    let resilience = tiered.resilience().unwrap();
    assert_eq!(resilience.journaled_records, 2);
    assert_eq!(resilience.replayed_records, 2);
    assert_eq!(resilience.breaker_recoveries, 1);
    assert!(resilience.breaker_opens >= 1);
    restarted.stop();
}
