//! An in-process chaos TCP proxy: the network half of the fault-injection
//! harness. Test support for `tests/chaos.rs`, which pulls it in with
//! `#[path]`; it is not part of any library.
//!
//! [`ChaosProxy`] listens on a loopback port and forwards every connection
//! to an upstream `pmlp-serve` instance, drawing a **fate** for every
//! response chunk from a seeded generator: forwarded cleanly, delayed,
//! dropped mid-stream (a TCP reset from the client's point of view),
//! replaced by protocol garbage, truncated mid-message, or forwarded with a
//! corrupted byte. Drawing per chunk rather than per connection matters
//! because the store client keeps connections alive across requests — one
//! pooled connection can carry a whole campaign, and a per-connection
//! schedule would fault almost none of its traffic. The same seed yields
//! the same fault schedule, so a chaos test is reproducible run over run.
//!
//! Faults are only ever injected on the **server → client** direction (plus
//! connection-level drops): the upstream server's stored state is never
//! poisoned by the proxy, which mirrors the real failure domain — a flaky
//! network corrupts what you *read*, while a half-received append is
//! rejected whole by the server's parse-before-apply contract.
//!
//! [`ChaosProxy::set_healthy`] is the scripted-outage switch: flipping it
//! off severs every established relay **and** drops every new connection —
//! indistinguishable from a dead server even to a client with a warm
//! keep-alive pool — which is how tests exercise the client-side circuit
//! breaker's open → half-open → closed recovery path without killing the
//! real server process.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Per-mille fault probabilities and the fault parameters, drawn for every
/// response chunk from a generator seeded with `seed`. The probabilities
/// are evaluated in order (delay, reset, truncate, garbage, corrupt);
/// whatever remains is a clean forward.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Chance (per 1000 response chunks) of delaying before forwarding.
    pub delay_per_mille: u16,
    /// How long a delayed chunk waits.
    pub delay: Duration,
    /// Chance of dropping the connection instead of forwarding the chunk (a
    /// TCP reset from the client's point of view).
    pub reset_per_mille: u16,
    /// Chance of truncating the response — a taste of the chunk flows, then
    /// the connection dies mid-message.
    pub truncate_per_mille: u16,
    /// Chance of replacing the chunk with non-HTTP garbage bytes and
    /// dropping the connection.
    pub garbage_per_mille: u16,
    /// Chance of flipping one byte in the chunk — wire-level corruption
    /// that still delivers a complete message.
    pub corrupt_per_mille: u16,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x5EED_C4A0_5EED_C4A0,
            delay_per_mille: 100,
            delay: Duration::from_millis(5),
            reset_per_mille: 100,
            truncate_per_mille: 80,
            garbage_per_mille: 80,
            corrupt_per_mille: 80,
        }
    }
}

/// What happened to the traffic that flowed through a proxy.
#[derive(Debug, Default)]
struct ChaosCounters {
    forwarded: AtomicU64,
    delayed: AtomicU64,
    reset: AtomicU64,
    truncated: AtomicU64,
    garbage: AtomicU64,
    corrupted: AtomicU64,
    outage_drops: AtomicU64,
}

/// A point-in-time copy of a proxy's fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSnapshot {
    /// Response chunks forwarded cleanly.
    pub forwarded: u64,
    /// Response chunks delayed before forwarding.
    pub delayed: u64,
    /// Connections dropped instead of forwarding a pending chunk.
    pub reset: u64,
    /// Responses cut off mid-message.
    pub truncated: u64,
    /// Responses replaced with protocol garbage.
    pub garbage: u64,
    /// Response chunks whose bytes were corrupted in flight.
    pub corrupted: u64,
    /// Connections dropped or severed by the [`ChaosProxy::set_healthy`]
    /// outage switch.
    pub outage_drops: u64,
}

/// The fate one response chunk draws from the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Forward,
    Delay,
    Reset,
    Truncate,
    Garbage,
    Corrupt,
}

/// A running chaos proxy; dropping (or [`stop`](Self::stop)ping) it closes
/// the listener.
pub struct ChaosProxy {
    addr: SocketAddr,
    healthy: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("healthy", &self.healthy.load(Ordering::SeqCst))
            .finish()
    }
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream`, injecting faults per `config`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn spawn(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let healthy = Arc::new(AtomicBool::new(true));
        let counters = Arc::new(ChaosCounters::default());
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let rng = Arc::new(Mutex::new(config.seed | 1));
        let accept_healthy = Arc::clone(&healthy);
        let accept_counters = Arc::clone(&counters);
        let accept_conns = Arc::clone(&conns);
        let accept_stop = Arc::clone(&stop);
        let thread = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else { continue };
                if !accept_healthy.load(Ordering::SeqCst) {
                    // Scripted outage: indistinguishable from a dead server.
                    accept_counters.outage_drops.fetch_add(1, Ordering::Relaxed);
                    drop(client);
                    continue;
                }
                let counters = Arc::clone(&accept_counters);
                let conns = Arc::clone(&accept_conns);
                let rng = Arc::clone(&rng);
                thread::spawn(move || relay(client, upstream, &rng, config, &counters, &conns));
            }
        });
        Ok(ChaosProxy {
            addr,
            healthy,
            counters,
            conns,
            stop,
            thread: Some(thread),
        })
    }

    /// The proxy's base URL — what workers point `--remote-store` at.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The scripted-outage switch: while `false`, every new connection is
    /// dropped before a byte flows — and flipping to `false` also severs
    /// every established relay, so a client's warm keep-alive pool cannot
    /// tunnel through the outage.
    pub fn set_healthy(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::SeqCst);
        if !healthy {
            let severed = {
                let mut conns = self.conns.lock().expect("chaos conns lock");
                std::mem::take(&mut *conns)
            };
            for stream in &severed {
                stream.shutdown(Shutdown::Both).ok();
            }
            self.counters
                .outage_drops
                .fetch_add(severed.len() as u64 / 2, Ordering::Relaxed);
        }
    }

    /// Current fault counters.
    pub fn snapshot(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            delayed: self.counters.delayed.load(Ordering::Relaxed),
            reset: self.counters.reset.load(Ordering::Relaxed),
            truncated: self.counters.truncated.load(Ordering::Relaxed),
            garbage: self.counters.garbage.load(Ordering::Relaxed),
            corrupted: self.counters.corrupted.load(Ordering::Relaxed),
            outage_drops: self.counters.outage_drops.load(Ordering::Relaxed),
        }
    }

    /// Total faults injected (everything except clean forwards).
    pub fn faults_injected(&self) -> u64 {
        let s = self.snapshot();
        s.delayed + s.reset + s.truncated + s.garbage + s.corrupted + s.outage_drops
    }

    /// Stops accepting; in-flight relays die with their sockets.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
        for stream in self.conns.lock().expect("chaos conns lock").drain(..) {
            stream.shutdown(Shutdown::Both).ok();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One xorshift64 step.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Draws the next chunk's fate from the seeded schedule.
fn draw_fate(rng: &Arc<Mutex<u64>>, config: &ChaosConfig) -> Fate {
    let roll = (xorshift(&mut rng.lock().expect("chaos rng lock")) % 1000) as u16;
    let mut threshold = config.delay_per_mille;
    if roll < threshold {
        return Fate::Delay;
    }
    threshold += config.reset_per_mille;
    if roll < threshold {
        return Fate::Reset;
    }
    threshold += config.truncate_per_mille;
    if roll < threshold {
        return Fate::Truncate;
    }
    threshold += config.garbage_per_mille;
    if roll < threshold {
        return Fate::Garbage;
    }
    threshold += config.corrupt_per_mille;
    if roll < threshold {
        return Fate::Corrupt;
    }
    Fate::Forward
}

/// Forwards one client connection to the upstream, drawing a fate per
/// response chunk. Faults touch only the server → client direction, so the
/// upstream's state stays clean; the client sees delays, resets, truncation
/// and corruption exactly as a flaky network would deliver them.
fn relay(
    mut client: TcpStream,
    upstream: SocketAddr,
    rng: &Arc<Mutex<u64>>,
    config: ChaosConfig,
    counters: &Arc<ChaosCounters>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
) {
    let Ok(mut server) = TcpStream::connect(upstream) else {
        // Upstream genuinely down: dropping the client reports exactly that.
        return;
    };
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    // Bound the relay threads' lifetime even if both peers go silent.
    let lifetime = Some(Duration::from_secs(120));
    client.set_read_timeout(lifetime).ok();
    server.set_read_timeout(lifetime).ok();

    // Register both sockets with the outage switch so `set_healthy(false)`
    // can sever this relay even while it sits idle in a keep-alive pool.
    {
        let mut conns = conns.lock().expect("chaos conns lock");
        if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
            conns.push(c);
            conns.push(s);
        }
    }

    // Client → server: verbatim copy on its own thread.
    let (Ok(mut client_read), Ok(mut server_write)) = (client.try_clone(), server.try_clone())
    else {
        return;
    };
    let uplink = thread::spawn(move || {
        std::io::copy(&mut client_read, &mut server_write).ok();
        server_write.shutdown(Shutdown::Write).ok();
    });

    // Server → client: the faultable direction.
    let mut buf = [0u8; 4096];
    loop {
        let n = match server.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        match draw_fate(rng, &config) {
            Fate::Forward => {
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            Fate::Delay => {
                counters.delayed.fetch_add(1, Ordering::Relaxed);
                thread::sleep(config.delay);
            }
            Fate::Reset => {
                // Die without forwarding: the client sees the connection
                // reset mid-request.
                counters.reset.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Fate::Truncate => {
                // Forward a taste of the response, then die mid-message.
                counters.truncated.fetch_add(1, Ordering::Relaxed);
                let keep = n.min(24);
                client.write_all(&buf[..keep]).ok();
                break;
            }
            Fate::Garbage => {
                counters.garbage.fetch_add(1, Ordering::Relaxed);
                client
                    .write_all(b"\x15\x03\x01GARBAGE garbage \xde\xad\xbe\xef not-http\r\n\r\n")
                    .ok();
                break;
            }
            Fate::Corrupt => {
                counters.corrupted.fetch_add(1, Ordering::Relaxed);
                buf[n / 2] ^= 0x01;
            }
        }
        if client.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    client.shutdown(Shutdown::Both).ok();
    server.shutdown(Shutdown::Both).ok();
    uplink.join().ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_mlp::core::store::{RemoteBackend, RetryPolicy, StoreBackend};
    use printed_mlp::serve::{spawn, ServeConfig};

    /// A clean-forward-only config, for tests that need determinism of a
    /// specific fate.
    fn quiet() -> ChaosConfig {
        ChaosConfig {
            delay_per_mille: 0,
            reset_per_mille: 0,
            truncate_per_mille: 0,
            garbage_per_mille: 0,
            corrupt_per_mille: 0,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn a_quiet_proxy_forwards_requests_verbatim() {
        let server = spawn(&ServeConfig::default()).unwrap();
        let proxy = ChaosProxy::spawn(server.addr(), quiet()).unwrap();
        let client = RemoteBackend::new(&proxy.url()).expect("proxy url parses");
        let description = client.describe();
        assert!(description.contains("pmlp-serve"));
        // A healthz round trip through the proxy answers like the server.
        let scan = client.scan("Seeds", 7).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(proxy.faults_injected(), 0);
        assert!(proxy.snapshot().forwarded >= 1);
        proxy.stop();
        server.stop();
    }

    #[test]
    fn the_outage_switch_drops_connections_like_a_dead_server() {
        let server = spawn(&ServeConfig::default()).unwrap();
        let proxy = ChaosProxy::spawn(server.addr(), quiet()).unwrap();
        let client = RemoteBackend::new(&proxy.url())
            .expect("proxy url parses")
            .with_retry_policy(RetryPolicy::none());
        // Warm the keep-alive pool, then flip the switch: the established
        // relay is severed, not just new connections.
        assert!(client.scan("Seeds", 7).is_ok());
        proxy.set_healthy(false);
        assert!(client.scan("Seeds", 7).is_err());
        assert!(proxy.snapshot().outage_drops >= 1);
        // Back to healthy: the same client reconnects through the proxy.
        proxy.set_healthy(true);
        assert!(client.scan("Seeds", 7).is_ok());
        proxy.stop();
        server.stop();
    }

    #[test]
    fn the_fault_schedule_is_deterministic_per_seed() {
        let config = ChaosConfig::default();
        let draws = |seed: u64| {
            let rng = Arc::new(Mutex::new(seed | 1));
            (0..128)
                .map(|_| draw_fate(&rng, &config))
                .collect::<Vec<Fate>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(99));
        let sample = draws(42);
        assert!(sample.contains(&Fate::Forward));
        assert!(sample.iter().any(|f| *f != Fate::Forward));
    }
}
