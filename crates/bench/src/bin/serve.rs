//! Runs the `pmlp-serve` evaluation-cache server: a dependency-free HTTP
//! key-value tier that lets a fleet of workers share one content-addressed
//! evaluation cache (records, cached baselines and campaign completion
//! markers).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmlp-bench --bin serve -- \
//!     [host:port] [--store DIR] [--token TOKEN] [--workers N] \
//!     [--durability POLICY]
//! ```
//!
//! `host:port` defaults to `127.0.0.1:7878` (use port `0` for an ephemeral
//! port — the bound address is printed on startup). With `--store DIR` the
//! server reads and writes the standard local JSONL store format under `DIR`
//! directly, so an existing single-machine `--store` directory can be
//! promoted to a shared server without conversion; without it, state lives
//! in memory for the server's lifetime.
//!
//! `--token TOKEN` turns on bearer auth: every request except the
//! `/v1/healthz` liveness probe must carry `Authorization: Bearer TOKEN`, and
//! workers embed the token in their store URL. `--workers N` sizes the
//! connection worker pool (default: one per core, clamped to 4..=32).
//! `--durability POLICY` (`buffered`, `sync-each-append`, `sync-on-seal`)
//! picks how eagerly a `--store`-backed server fsyncs; a graceful shutdown
//! (SIGTERM/SIGINT) always drains in-flight requests (for up to 5 s) and
//! fsyncs before exiting, whatever the policy.
//!
//! Point workers at the server with `--remote-store http://host:port` (or
//! `http://TOKEN@host:port` when auth is on) on the
//! `fig1`/`fig2`/`table_headline`/`campaign` binaries. Any flag other than
//! the four above is an error here.

use pmlp_bench::{parse_cli, SERVE_FLAGS};
use pmlp_serve::{run, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_cli(&args);
    options.check_flags(SERVE_FLAGS)?;
    options.validate()?;
    options.check_positionals(1)?;
    let addr = options
        .positional
        .first()
        .copied()
        .unwrap_or("127.0.0.1:7878")
        .to_string();
    let config = ServeConfig {
        addr,
        store_dir: options.store.clone(),
        token: options.token.clone(),
        workers: options.workers.unwrap_or(0),
        durability: options.durability.unwrap_or_default(),
        ..ServeConfig::default()
    };
    run(&config)?;
    Ok(())
}
