//! The `serve_mixed` workload: a real, durable `tnet serve` seeded at
//! scale 0.2 (19,658 transactions at seed 42) with `--fsync always`
//! and `--batch 64`, so every ingest batch publishes a generation and
//! invalidates the result cache.
//!
//! The load comes from this process over two loopback connections:
//!
//! - a closed-loop reader cycling through a fixed mix — `stats`; four
//!   `support` label pairs on each of the three labelings; two small
//!   `pattern` queries on the gross-weight graph (4 partitions, support
//!   3, at most 3 edges; top 15 and top 5) — with a pause after each
//!   pass over the mix;
//! - an open-loop writer sending 64-record `ingest` batches, two per
//!   second on average. Batch `k` is due at a seeded random point in the
//!   first half of its 500 ms slot, so ingests land at every phase of
//!   the reader's cycle instead of locking onto one. Each ingest is
//!   timed from when it was due, so a stalled daemon cannot slow the
//!   writer down and hide its own latency; how late the writer ran is
//!   reported too. After each ack the writer pings until a reply's
//!   generation holds the batch: the publish lag.
//!
//! Checks: every reply is `"ok":true`; generations never go backwards
//! on a connection; two replies to one query at one generation are
//! byte-equal; a `stats` reply at generation `g` counts the seed plus
//! `g` batches (one publish per batch); every acknowledged batch becomes
//! visible within 5 s; the daemon counts no publish failures or query
//! errors.

use crate::spans::{self, Spans};
use crate::{util, Cfg, Outcome, THREADS};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnet_data::model::Transaction;
use tnet_data::synth::{generate, SynthConfig};
use tnet_exec::Exec;
use tnet_graph::frozen::FrozenStats;
use tnet_graph::rng::{derive_seed, Rng, StdRng};
use tnet_obs::{MetricsRegistry, Tracer};
use tnet_serve::{proto, query, EpochCell, Generation};

pub const SCALE: f64 = 0.2;
const BATCH: usize = 64;
/// One ingest slot; each batch is due somewhere in the first
/// [`INGEST_JITTER`] of its slot.
const INGEST_PERIOD: Duration = Duration::from_millis(500);
const INGEST_JITTER: f64 = 0.5;
/// Daemon starts per run: half before the load, the load's own daemon,
/// the rest after it, so the set-up samples span the run.
const SETUP_REPS: usize = 5;
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);
const VISIBILITY_POLL: Duration = Duration::from_micros(200);
/// The reader's pause after each pass over the mix. It keeps the
/// pattern misses (two per publish) at about 2% of reads, so
/// `read_p99_ms` lands in the middle of the pattern-miss latencies
/// instead of at the edge of the cache-hit tail, where it moves with
/// every scheduling hiccup. Within a pass requests go back to back.
const THINK_TIME: Duration = Duration::from_millis(72);
const START_TIMEOUT: Duration = Duration::from_secs(120);
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Ids for ingested records, far above any generated id.
const INGEST_ID_BASE: u64 = 1 << 40;

/// Builds `tnet` from this checkout's sources (a no-op when current)
/// and returns its path.
fn tnet_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "tnet-cli",
            "--bin",
            "tnet",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tnet failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("tnet");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// One client connection: request lines out, reply lines back.
struct Conn {
    out: TcpStream,
    input: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let input = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            out: stream,
            input,
            line: String::new(),
        })
    }

    fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.out.write_all(&buf).map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.input.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// The unsigned integer after `"key":` in a reply.
fn field_u64(reply: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = reply.find(&pat)? + pat.len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The flat `metrics` object of a `trace` reply.
fn trace_metrics(reply: &str) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    let Some(at) = reply.find("\"metrics\":{") else {
        return out;
    };
    let body = &reply[at + "\"metrics\":{".len()..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    for pair in body.split(',') {
        if let Some((k, v)) = pair.split_once(':') {
            if let Ok(v) = v.trim().parse() {
                out.insert(k.trim().trim_matches('"').to_string(), v);
            }
        }
    }
    out
}

/// A running daemon. Dropping it kills the process if [`Daemon::stop`]
/// was not reached.
struct Daemon {
    child: Option<Child>,
    pid: u32,
    port: u16,
    dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh data directory and returns it with its
    /// set-up time: from spawn to the first `ping` reply.
    fn start(
        bin: &Path,
        seed: u64,
        dir: &Path,
        trace: bool,
        retries: &mut u64,
    ) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let data_dir = dir.join("data");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .args(["--scale", &SCALE.to_string(), "--seed", &seed.to_string()])
            .arg("--data-dir")
            .arg(&data_dir)
            .args(["--fsync", "always", "--batch", &BATCH.to_string()])
            .args([
                "--threads",
                &THREADS.to_string(),
                "--trace",
                if trace { "true" } else { "false" },
            ])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d = Daemon {
            pid: child.id(),
            child: Some(child),
            port: 0,
            dir: dir.to_path_buf(),
        };
        d.port = loop {
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse().ok())
            {
                break p;
            }
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("daemon did not start in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let mut conn = d.connect(retries)?;
        let reply = conn.call("{\"op\":\"ping\"}")?;
        if !is_ok(reply) {
            return Err(format!("ping failed: {reply}"));
        }
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    /// Connects, retrying with backoff while the daemon comes up; each
    /// retry is counted.
    fn connect(&self, retries: &mut u64) -> Result<Conn, String> {
        let mut wait = Duration::from_millis(1);
        loop {
            match Conn::open(self.port) {
                Ok(c) => return Ok(c),
                Err(e) if *retries > 50 => return Err(e),
                Err(_) => {
                    *retries += 1;
                    std::thread::sleep(wait);
                    wait = (wait * 2).min(Duration::from_millis(200));
                }
            }
        }
    }

    /// Graceful shutdown over the wire, then waits for the process. On
    /// any failure the drop kills and reaps it.
    fn stop(mut self, retries: &mut u64) -> Result<(), String> {
        let reply = self
            .connect(retries)?
            .call("{\"op\":\"shutdown\"}")?
            .to_string();
        let child = self.child.as_mut().expect("child present until stop");
        drop(child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not shut down in time".to_string()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        };
        self.child = None;
        if !is_ok(&reply) || !status.success() {
            return Err(format!("shutdown: {reply} ({status})"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The reader's fixed request mix, drawn from the seed.
fn read_mix(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5e7e));
    let mut mix = vec!["{\"op\":\"stats\"}".to_string()];
    for labeling in ["gw", "th", "td"] {
        for _ in 0..4 {
            let (a, b) = (rng.gen_range(0..8u32), rng.gen_range(0..8u32));
            mix.push(format!(
                "{{\"op\":\"support\",\"labeling\":\"{labeling}\",\"labels\":[{a},{b}]}}"
            ));
        }
    }
    // Two cache keys for the same mining work (only the list length
    // differs), so every pattern miss costs the same.
    for top in [15, 5] {
        mix.push(format!(
            "{{\"op\":\"pattern\",\"labeling\":\"gw\",\"partitions\":4,\"support\":3,\"max_edges\":3,\"top\":{top}}}"
        ));
    }
    mix
}

/// The cacheable query kinds, in [`query_kind`] order.
const QUERY_KINDS: [&str; 3] = ["stats", "support", "pattern"];

/// Index of a mix line's query kind in [`QUERY_KINDS`].
fn query_kind(line: &str) -> usize {
    if line.contains("\"op\":\"stats\"") {
        0
    } else if line.contains("\"op\":\"support\"") {
        1
    } else {
        2
    }
}

/// `n` ingest batches of fresh records drawn from the seed, as request
/// lines, with the records themselves.
fn ingest_batches(seed: u64, n: usize) -> Vec<(String, Vec<Transaction>)> {
    let pool =
        generate(&SynthConfig::scaled(0.02).with_seed(derive_seed(seed, 0x1a9e))).transactions;
    let mut next = 0usize;
    (0..n)
        .map(|_| {
            let records: Vec<Transaction> = (0..BATCH)
                .map(|_| {
                    let mut t = pool[next % pool.len()].clone();
                    t.id = INGEST_ID_BASE + next as u64;
                    next += 1;
                    t
                })
                .collect();
            let json: Vec<String> = records
                .iter()
                .map(|t| {
                    format!(
                        "{{\"id\":{},\"pickup\":{},\"delivery\":{},\"olat\":{},\"olon\":{},\
                         \"dlat\":{},\"dlon\":{},\"distance\":{},\"weight\":{},\"hours\":{},\
                         \"mode\":\"{}\"}}",
                        t.id,
                        t.req_pickup.0,
                        t.req_delivery.0,
                        f64::from(t.origin.lat_deci) / 10.0,
                        f64::from(t.origin.lon_deci) / 10.0,
                        f64::from(t.dest.lat_deci) / 10.0,
                        f64::from(t.dest.lon_deci) / 10.0,
                        t.total_distance,
                        t.gross_weight,
                        t.transit_hours,
                        t.mode.as_str()
                    )
                })
                .collect();
            (
                format!("{{\"op\":\"ingest\",\"records\":[{}]}}", json.join(",")),
                records,
            )
        })
        .collect()
}

/// What one load phase measured.
struct Load {
    reader: ReaderLog,
    writer: WriterLog,
}

/// The reader's side of a load phase.
#[derive(Default)]
struct ReaderLog {
    read_ms: Vec<f64>,
    /// Per query kind (stats, support, pattern): reads and summed ms.
    kind_ms: [(u64, f64); 3],
    /// Per generation: the summed time of the first reply to each mix
    /// query on it, i.e. the cost of answering the whole mix once on
    /// fresh data (every such reply is a cache miss).
    refresh_s: Vec<f64>,
    reads: u64,
    /// From the start of the load to the reader's last reply.
    elapsed_s: f64,
    failures: u64,
    overloaded: u64,
    problems: Vec<String>,
}

/// The writer's side of a load phase.
#[derive(Default)]
struct WriterLog {
    /// From when each batch was due to its ack.
    ack_ms: Vec<f64>,
    /// How late each batch was sent after it was due.
    late_ms: Vec<f64>,
    /// From each ack to the first reply whose generation holds it.
    lag_ms: Vec<f64>,
    ingests: u64,
    failures: u64,
    invisible: u64,
    acked: usize,
    last_generation: u64,
    problems: Vec<String>,
}

/// Tracks one connection's generations: they must never go back.
fn see_generation(last: &mut u64, reply: &str, problems: &mut Vec<String>) -> Option<u64> {
    let g = field_u64(reply, "generation")?;
    if g < *last {
        problems.push(format!("generation went back from {last} to {g}"));
    }
    *last = (*last).max(g);
    Some(g)
}

/// When each of `n` batches is due, from the start of the load: batch
/// `k` at a random point in the first [`INGEST_JITTER`] of slot `k`.
fn ingest_schedule(seed: u64, n: usize) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xd0e));
    (0..n)
        .map(|k| INGEST_PERIOD.mul_f64(k as f64 + rng.gen_range(0.0..INGEST_JITTER)))
        .collect()
}

/// The open-loop writer: batch `k` is due `schedule[k]` after `start`.
/// After each ack it pings until a reply's generation includes the
/// batch (batch `k` is in generation `k + 1` on, one publish per batch).
fn write_loop(
    conn: &mut Conn,
    batches: &[(String, Vec<Transaction>)],
    schedule: &[Duration],
    start: Instant,
    end: Instant,
) -> WriterLog {
    let mut log = WriterLog::default();
    for (k, ((line, _), offset)) in batches.iter().zip(schedule).enumerate() {
        let due = start + *offset;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        log.ingests += 1;
        let acked = match conn.call(line) {
            Ok(r) if is_ok(r) && field_u64(r, "accepted") == Some(BATCH as u64) => Instant::now(),
            Ok(r) => {
                log.failures += 1;
                log.problems.push(format!("ingest {k} refused: {r}"));
                continue;
            }
            Err(e) => {
                log.failures += 1;
                log.problems.push(format!("ingest {k}: {e}"));
                break;
            }
        };
        log.ack_ms.push((acked - due).as_secs_f64() * 1e3);
        log.acked += 1;
        loop {
            let gen = match conn.call("{\"op\":\"ping\"}") {
                Ok(r) => see_generation(&mut log.last_generation, r, &mut log.problems),
                Err(e) => {
                    log.problems.push(format!("ping: {e}"));
                    None
                }
            };
            let now = Instant::now();
            if gen.is_some_and(|g| g > k as u64) {
                log.lag_ms.push((now - acked).as_secs_f64() * 1e3);
                break;
            }
            if gen.is_none() || now - acked > VISIBLE_TIMEOUT {
                log.invisible += 1;
                log.problems
                    .push(format!("batch {k} not visible within {VISIBLE_TIMEOUT:?}"));
                break;
            }
            std::thread::sleep(VISIBILITY_POLL);
        }
    }
    log
}

/// The closed-loop reader: one mix request at a time, a think time
/// after each pass over the mix, from `start` until `end`.
fn read_loop(
    conn: &mut Conn,
    mix: &[String],
    seed_txns: u64,
    start: Instant,
    end: Instant,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut seen: HashMap<(u64, usize), u64> = HashMap::new();
    let mut last_gen = 0;
    // Per generation: mix queries answered on it so far, summed time.
    let mut fresh: HashMap<u64, (usize, f64)> = HashMap::new();
    for idx in (0..mix.len()).cycle() {
        if Instant::now() >= end {
            break;
        }
        let sent = Instant::now();
        let reply = match conn.call(&mix[idx]) {
            Ok(r) => r,
            Err(e) => {
                log.failures += 1;
                log.problems.push(format!("read: {e}"));
                break;
            }
        };
        let took = sent.elapsed().as_secs_f64();
        log.reads += 1;
        log.read_ms.push(took * 1e3);
        let kind = &mut log.kind_ms[query_kind(&mix[idx])];
        kind.0 += 1;
        kind.1 += took * 1e3;
        match see_generation(&mut last_gen, reply, &mut log.problems) {
            Some(g) if is_ok(reply) => {
                let digest = util::fnv64(reply.as_bytes());
                match seen.entry((g, idx)) {
                    Entry::Vacant(v) => {
                        v.insert(digest);
                        let f = fresh.entry(g).or_default();
                        f.0 += 1;
                        f.1 += took;
                    }
                    Entry::Occupied(o) if *o.get() != digest => log.problems.push(format!(
                        "two replies to mix[{idx}] at generation {g} differ"
                    )),
                    Entry::Occupied(_) => {}
                }
                let want = seed_txns + g * BATCH as u64;
                if idx == 0 && field_u64(reply, "transactions") != Some(want) {
                    log.problems.push(format!(
                        "stats at generation {g} does not hold {want} transactions: one publish per batch broke"
                    ));
                }
            }
            _ => {
                log.failures += 1;
                if reply.contains("\"kind\":\"overloaded\"") {
                    log.overloaded += 1;
                }
                log.problems.push(format!("read refused: {reply}"));
            }
        }
        if idx + 1 == mix.len() {
            std::thread::sleep(THINK_TIME);
        }
    }
    log.refresh_s = fresh
        .into_values()
        .filter(|&(n, _)| n == mix.len())
        .map(|(_, s)| s)
        .collect();
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Drives `seconds` of mixed load against `d` over two connections,
/// batch `k` due `schedule[k]` after the start. The daemon must be at
/// generation 0 holding `seed_txns` transactions.
fn load(
    d: &Daemon,
    seconds: f64,
    mix: &[String],
    batches: &[(String, Vec<Transaction>)],
    schedule: &[Duration],
    seed_txns: u64,
    retries: &mut u64,
) -> Result<Load, String> {
    let mut reader_conn = d.connect(retries)?;
    let mut writer_conn = d.connect(retries)?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (reader, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_loop(&mut writer_conn, batches, schedule, start, end));
        let reader = scope.spawn(|| read_loop(&mut reader_conn, mix, seed_txns, start, end));
        (reader.join(), writer.join())
    });
    Ok(Load {
        reader: reader.map_err(|_| "reader thread panicked".to_string())?,
        writer: writer.map_err(|_| "writer thread panicked".to_string())?,
    })
}

/// Daemon counters from the `trace` op.
fn daemon_trace(d: &Daemon, retries: &mut u64) -> Result<HashMap<String, u64>, String> {
    let mut conn = d.connect(retries)?;
    let reply = conn.call("{\"op\":\"trace\"}")?;
    if !is_ok(reply) {
        return Err(format!("trace op failed: {reply}"));
    }
    Ok(trace_metrics(reply))
}

/// Seed size at generation 0, from a `stats` reply.
fn seed_size(d: &Daemon, retries: &mut u64) -> Result<u64, String> {
    let mut conn = d.connect(retries)?;
    let reply = conn.call("{\"op\":\"stats\"}")?;
    match (
        is_ok(reply),
        field_u64(reply, "generation"),
        field_u64(reply, "transactions"),
    ) {
        (true, Some(0), Some(n)) => Ok(n),
        _ => Err(format!("unexpected first stats reply: {reply}")),
    }
}

fn record_load(o: &mut Outcome, l: &Load) {
    let (r, w) = (&l.reader, &l.writer);
    o.attempted += r.reads + w.ingests;
    o.failed += r.failures + w.failures + w.invisible;
    for p in r.problems.iter().chain(&w.problems) {
        o.problem(p.clone());
    }
}

/// One load phase on a freshly started daemon.
struct Phase {
    load: Load,
    setup_s: f64,
    /// The daemon's high-water RSS during the load, in MiB.
    peak_rss_mb: Option<f64>,
    /// The daemon's counters from the `trace` op after the load.
    counters: HashMap<String, u64>,
    seed_txns: u64,
}

fn phase(
    bin: &Path,
    cfg: &Cfg,
    name: &str,
    trace: bool,
    mix: &[String],
    batches: &[(String, Vec<Transaction>)],
    retries: &mut u64,
) -> Result<Phase, String> {
    let (d, setup_s) = Daemon::start(bin, cfg.seed, &cfg.work.join(name), trace, retries)?;
    let seed_txns = seed_size(&d, retries)?;
    let rss_reset = util::reset_peak_rss(Some(d.pid));
    let schedule = ingest_schedule(cfg.seed, batches.len());
    let load = load(&d, cfg.seconds, mix, batches, &schedule, seed_txns, retries)?;
    let peak_rss_mb = if rss_reset {
        util::peak_rss_mb(Some(d.pid))
    } else {
        None
    };
    let counters = daemon_trace(&d, retries)?;
    d.stop(retries)?;
    Ok(Phase {
        load,
        setup_s,
        peak_rss_mb,
        counters,
        seed_txns,
    })
}

/// Starts and stops a daemon; returns its set-up time.
fn start_only(bin: &Path, cfg: &Cfg, i: usize, retries: &mut u64) -> Result<f64, String> {
    let (d, setup_s) = Daemon::start(
        bin,
        cfg.seed,
        &cfg.work.join(format!("setup{i}")),
        false,
        retries,
    )?;
    d.stop(retries)?;
    Ok(setup_s)
}

/// Records a phase's failures and the daemon's own error counters.
fn record_phase(o: &mut Outcome, p: &Phase) {
    record_load(o, &p.load);
    for key in ["serve.publish_failures", "serve.query_errors"] {
        let v = p.counters.get(key).copied().unwrap_or(0);
        if v > 0 {
            o.failed += v;
            o.problem(format!("daemon reports {key} = {v}"));
        }
    }
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let bin = tnet_binary()?;
    let mut o = Outcome::default();
    let mix = read_mix(cfg.seed);
    let n_batches = (cfg.seconds / INGEST_PERIOD.as_secs_f64()).ceil() as usize + 1;
    let batches = ingest_batches(cfg.seed, n_batches);
    let mut retries = 0u64;
    o.meta("scale", util::json_num(SCALE));
    o.meta("batch_records", BATCH.to_string());
    o.meta(
        "ingest_period_ms",
        util::json_num(INGEST_PERIOD.as_secs_f64() * 1e3),
    );
    o.meta(
        "think_time_ms",
        util::json_num(THINK_TIME.as_secs_f64() * 1e3),
    );
    o.meta("mix_requests", mix.len().to_string());
    if cfg.trace {
        return run_traced(&bin, cfg, &mix, &batches, &mut retries, o);
    }
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS / 2 {
        setup.push(start_only(&bin, cfg, i, &mut retries)?);
    }
    let p = phase(&bin, cfg, "load", false, &mix, &batches, &mut retries)?;
    setup.push(p.setup_s);
    for i in SETUP_REPS / 2 + 1..SETUP_REPS {
        setup.push(start_only(&bin, cfg, i, &mut retries)?);
    }
    record_phase(&mut o, &p);
    o.attempted += SETUP_REPS as u64 + retries;
    o.failed += retries;
    let (r, w) = (&p.load.reader, &p.load.writer);
    o.set("setup_s", util::median(&setup).unwrap_or(f64::NAN));
    o.set("job_s", util::median(&r.refresh_s).unwrap_or(f64::NAN));
    o.set("peak_rss_mb", p.peak_rss_mb.unwrap_or(f64::NAN));
    o.meta(
        "read_p50_ms",
        util::json_num(util::median(&r.read_ms).unwrap_or(f64::NAN)),
    );
    o.set(
        "read_p99_ms",
        util::percentile(&r.read_ms, 0.99).unwrap_or(f64::NAN),
    );
    o.set("reads_per_s", r.reads as f64 / r.elapsed_s);
    o.meta(
        "ingest_ack_p50_ms",
        util::json_num(util::median(&w.ack_ms).unwrap_or(f64::NAN)),
    );
    o.set(
        "publish_lag_p50_ms",
        util::median(&w.lag_ms).unwrap_or(f64::NAN),
    );
    o.meta("seed_transactions", p.seed_txns.to_string());
    o.meta("setup_samples", setup.len().to_string());
    o.meta("read_samples", r.read_ms.len().to_string());
    for (name, (n, ms)) in QUERY_KINDS.iter().zip(r.kind_ms) {
        o.meta(&format!("reads_{name}"), n.to_string());
        o.meta(&format!("read_ms_total_{name}"), util::json_num(ms));
    }
    o.meta("refresh_samples", r.refresh_s.len().to_string());
    o.meta("ingest_samples", w.ack_ms.len().to_string());
    o.meta("lag_samples", w.lag_ms.len().to_string());
    let quartiles = |xs: &[f64]| {
        util::json_list(
            [0.25, 0.75].map(|q| util::json_num(util::percentile(xs, q).unwrap_or(f64::NAN))),
        )
    };
    o.meta("ingest_ack_ms_quartiles", quartiles(&w.ack_ms));
    o.meta("publish_lag_ms_quartiles", quartiles(&w.lag_ms));
    o.meta(
        "ingest_sched_late_ms_p50",
        util::json_num(util::median(&w.late_ms).unwrap_or(f64::NAN)),
    );
    o.meta("last_generation", w.last_generation.to_string());
    o.meta("overload_refusals", r.overloaded.to_string());
    o.meta("connect_retries", retries.to_string());
    o.meta(
        "generations_published",
        p.counters
            .get("serve.generations_published")
            .copied()
            .unwrap_or(0)
            .to_string(),
    );
    Ok(o)
}

/// Median wall time per call of `f`, in seconds, over `rounds` rounds
/// of `per_round` calls each.
fn per_call(rounds: usize, per_round: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_round {
                f();
            }
            t.elapsed().as_secs_f64() / per_round as f64
        })
        .collect();
    util::median(&times).unwrap_or(f64::NAN)
}

fn run_traced(
    bin: &Path,
    cfg: &Cfg,
    mix: &[String],
    batches: &[(String, Vec<Transaction>)],
    retries: &mut u64,
    mut o: Outcome,
) -> Result<Outcome, String> {
    // The same load on an untraced and a traced daemon: the difference
    // in read latency is the tracing overhead.
    let plain = phase(bin, cfg, "plain", false, mix, batches, retries)?;
    record_phase(&mut o, &plain);
    let traced = phase(bin, cfg, "traced", true, mix, batches, retries)?;
    record_phase(&mut o, &traced);
    o.attempted += 2 + *retries;
    o.failed += *retries;
    let p50 = |p: &Phase| util::median(&p.load.reader.read_ms).unwrap_or(f64::NAN);
    o.set(
        "bench.trace_overhead_read_p50_ms",
        p50(&traced) - p50(&plain),
    );
    o.meta("untraced_read_p50_ms", util::json_num(p50(&plain)));
    o.meta("traced_read_p50_ms", util::json_num(p50(&traced)));
    o.set(
        "bench.ingest_sched_late_ms",
        util::median(&traced.load.writer.late_ms).unwrap_or(f64::NAN),
    );
    let get = |k: &str| traced.counters.get(k).copied().unwrap_or(0) as f64;
    let hits = get("serve.cache_hits");
    o.set(
        "serve.cache_hit_ratio",
        hits / (hits + get("serve.cache_misses")).max(1.0),
    );
    o.set("serve.cache_evictions", get("serve.cache_evictions"));
    o.set("serve.wal_fsync_p50_ms", get("wal.fsync.p50_ns") / 1e6);
    o.set("serve.snapshots", get("snapshot.writes"));
    o.set(
        "serve.generations_published",
        get("serve.generations_published"),
    );
    o.set("serve.publish_failures", get("serve.publish_failures"));
    o.set("serve.query_errors", get("serve.query_errors"));

    replay(cfg, mix, batches, traced.load.writer.acked, &mut o)?;
    Ok(o)
}

/// Replays the daemon's layers in-process against a generation built
/// from the same seed data at the size the traced load reached.
fn replay(
    cfg: &Cfg,
    mix: &[String],
    batches: &[(String, Vec<Transaction>)],
    acked: usize,
    o: &mut Outcome,
) -> Result<(), String> {
    let spans = Spans::new();
    let root = Some(spans.open("serve.replay", None));
    let mut live = spans.time("data.generate", root, |_| {
        generate(&SynthConfig::scaled(SCALE).with_seed(cfg.seed)).transactions
    });
    for (_, records) in batches.iter().take(acked) {
        live.extend(records.iter().cloned());
    }
    o.meta("replay_transactions", live.len().to_string());

    crate::replay_od_graph(&spans, root, &live)?;

    let frozen_before = FrozenStats::snapshot();
    let mut gen = None;
    let build = spans.open("serve.generation_build", root);
    let mut build_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let built = Generation::build(1, live.clone())
            .map_err(|e| format!("generation build failed: {e}"))?;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        gen = Some(built);
    }
    spans.close(build);
    let frozen = FrozenStats::snapshot().since(&frozen_before);
    let gen = Arc::new(gen.expect("three builds"));
    o.set(
        "serve.generation_build_ms",
        util::median(&build_ms).unwrap_or(f64::NAN),
    );
    o.set(
        "graph.freeze_count",
        frozen.freeze_count as f64 / build_ms.len() as f64,
    );
    o.set(
        "graph.csr_bytes",
        frozen.csr_bytes as f64 / build_ms.len() as f64,
    );

    let parse_s = spans.time("serve.parse", root, |_| {
        per_call(50, 20, || {
            for line in mix {
                std::hint::black_box(proto::parse_request(std::hint::black_box(line)).is_ok());
            }
        })
    });
    o.set("serve.parse_us", parse_s / mix.len() as f64 * 1e6);

    let cell = EpochCell::new(Arc::clone(&gen));
    let reader = cell.register().ok_or("no free reader slot")?;
    let pin_s = spans.time("serve.pin", root, |_| {
        per_call(50, 1000, || {
            std::hint::black_box(reader.pin());
        })
    });
    o.set("serve.pin_us", pin_s * 1e6);
    drop(reader);

    let tracer = Tracer::new("serve.replay");
    let registry = MetricsRegistry::new();
    let exec = Exec::new(THREADS).with_obs(tracer.root(), registry.clone());
    let mut per_kind: [Vec<f64>; 3] = Default::default();
    let execute = spans.open("serve.execute", root);
    for line in mix {
        let req = proto::parse_request(line).map_err(|e| format!("mix line rejected: {e}"))?;
        for _ in 0..3 {
            let t = Instant::now();
            let reply = query::execute(&gen, &req, &exec);
            per_kind[query_kind(line)].push(t.elapsed().as_secs_f64() * 1e3);
            if reply.is_err() {
                o.failed += 1;
                o.problem(format!("replayed {line} failed"));
            }
        }
    }
    spans.close(execute);
    if let Some(r) = root {
        spans.close(r);
    }
    for (kind, ms) in QUERY_KINDS.iter().zip(&per_kind) {
        o.set(
            &format!("serve.execute_ms.{kind}"),
            util::median(ms).unwrap_or(f64::NAN),
        );
    }
    o.program_fsg(&tracer.snapshot(), &registry);

    let recs = spans.records();
    for (metric, span) in [
        ("data.generate_s", "data.generate"),
        ("data.bin_fit_s", "data.bin_fit"),
        ("data.od_graph_s", "data.od_graph"),
        ("graph.dedup_s", "graph.dedup"),
    ] {
        o.set(metric, spans::total(&recs, span));
    }
    o.spans(&recs);
    o.meta(
        "measured_by_program_tracer",
        "[\"fsg.calls\",\"fsg.busy_s\"]".to_string(),
    );
    Ok(())
}
