//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! Run from the root of the repository:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload report --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Workloads (all on 2 worker threads):
//!
//! - `report` — `Pipeline::full_report_supervised` (what `tnet report`
//!   runs) at scale 0.1, all 13 sections, back to back.
//! - `mine_paper` — both `tnet mine` modes on the paper-scale dataset
//!   (scale 1.0, 98,292 transactions) read from CSV: partition mode, then
//!   neighborhood mode.
//! - `serve_mixed` — a real, durable `tnet serve` seeded at scale 0.2,
//!   driven over loopback TCP by one closed-loop reader and one open-loop
//!   ingest writer.
//!
//! `--seed` makes every input; the measured code receives only the
//! generated inputs. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` a separate traced run records
//! spans around each public call and carries the per-layer metrics.
//! A line starting `perfbench meta:` before it holds the run's metadata
//! (sample counts, thread count, scale, seed, source identity, tracing
//! overhead, span summary). The exit code is 0 only when a result was
//! printed; `correct` is false when any output check failed.
//!
//! Every end-to-end metric is reported on every workload. Each workload
//! is a stream of requests a user waits on — a report, a pair of ranked
//! pattern lists, or a daemon query — plus the ingest of input data, so
//! the metrics read per workload as follows (sample counts in the meta
//! line):
//!
//! | metric | report | mine_paper | serve_mixed |
//! |---|---|---|---|
//! | `setup_s` | `Pipeline::synthetic` | generate + write CSV | daemon start to first `ping` reply |
//! | `job_s` | ingest + full report | CSV parse to both ranked lists | answering the whole read mix once on a new generation |
//! | `peak_rss_mb` | per report (from a trimmed heap) | per mining job (from a trimmed heap) | daemon high-water RSS under load |
//! | `read_p99_ms` | per dataset (median of its reports) | per dataset (median of its jobs) | per query |
//! | `reads_per_s` | reports per second | jobs per second | queries per second |
//! | `publish_lag_p50_ms` | ingest accepted to report rendered | CSV parsed to both ranked lists | ack to first reply that includes the batch |
//!
//! The median read time and the median ingest time
//! (`Pipeline::from_transactions`, the CSV parse, or an ingest from when
//! it was due to its ack) are in the meta line as `read_p50_ms` and
//! `ingest_ack_p50_ms` but are not end-to-end metrics: on a shared
//! 2-vCPU host they spread from run to run by more than any bound
//! allowed (a 40 µs loopback read follows the host's CPU steal; a CSV
//! parse takes about 60 ms or about 120 ms in streaks, in a mix that
//! changes from run to run).
//!
//! A batch run holds a dozen requests at most, so a percentile over
//! them would be their maximum and would follow whichever request the
//! host happened to slow down. Its `read_p99_ms` is instead the tail
//! across inputs: each dataset's median request time, and the 99th
//! percentile of those. Every batch request starts from a trimmed heap
//! with the high-water mark reset, as in a fresh `tnet` process: it pays
//! for growing its heap, and its peak RSS is its own.
//!
//! Every median is a Harrell–Davis estimate ([`util::median`]).

mod mine;
mod report;
mod serve;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads for every workload.
pub const THREADS: usize = 2;

/// The seed kept back for the held-out check of a gain claim: a change
/// tuned on other seeds must show its gain on this one too.
pub const HELD_OUT_SEED: u64 = 1009;

/// End-to-end metrics: (name, unit). `--trace 0` reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("read_p99_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("publish_lag_p50_ms", "ms"),
];

/// Section ids for `core.section_s.<id>`, keyed by the prefix of the
/// section's name in the report.
pub const SECTIONS: [(&str, &str); 13] = [
    ("E1:", "e1"),
    ("E2:", "e2"),
    ("E3:", "e3"),
    ("E4:", "e4"),
    ("E5:", "e5"),
    ("Figure 2:", "fig2"),
    ("Figure 3:", "fig3"),
    ("E8:", "e8"),
    ("E9-E11:", "e9_e11"),
    ("E12:", "e12"),
    ("E13:", "e13"),
    ("E14/15:", "e14_e15"),
    ("E16:", "e16"),
];

/// Per-layer metrics: (name, unit). `--trace 1` reports all of
/// them; a metric this workload's traced run does not measure (the layer does not run, or runs
/// only inside a call the benchmark cannot wrap) reads 0 and is listed under
/// `not_measured` in the meta line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("data.read_csv_s", "s"),
    ("data.bin_fit_s", "s"),
    ("data.od_graph_s", "s"),
    ("graph.dedup_s", "s"),
    ("graph.freeze_count", "count"),
    ("graph.csr_bytes", "bytes"),
    ("partition.split_s", "s"),
    ("partition.txn_edges_max_over_mean", "ratio"),
    ("fsg.calls", "count"),
    ("fsg.busy_s", "s"),
    ("fsg.wall_s", "s"),
    ("fsg.call_max_s", "s"),
    ("fsg.candidates", "count"),
    ("fsg.frequent", "count"),
    ("fsg.frequent_per_candidate", "ratio"),
    ("fsg.iso_tests", "count"),
    ("fsg.embeddings_extended", "count"),
    ("fsg.peak_candidate_bytes", "bytes"),
    ("fsg.errors", "count"),
    ("nbhd.s", "s"),
    ("nbhd.centers", "count"),
    ("nbhd.iso_tests", "count"),
    ("nbhd.fingerprint_rejects", "count"),
    ("temporal.windows_s.hour", "s"),
    ("temporal.windows_s.day", "s"),
    ("temporal.windows_s.week", "s"),
    ("temporal.flows_s", "s"),
    ("session.windows", "count"),
    ("session.incremental_windows", "count"),
    ("session.full_recounts", "count"),
    ("session.recount_skips", "count"),
    ("subdue.s", "s"),
    ("subdue.expanded", "count"),
    ("subdue.patterns_derived", "count"),
    ("tabular.apriori_s", "s"),
    ("tabular.tree_s", "s"),
    ("tabular.em_s", "s"),
    ("core.section_s.e1", "s"),
    ("core.section_s.e2", "s"),
    ("core.section_s.e3", "s"),
    ("core.section_s.e4", "s"),
    ("core.section_s.e5", "s"),
    ("core.section_s.fig2", "s"),
    ("core.section_s.fig3", "s"),
    ("core.section_s.e8", "s"),
    ("core.section_s.e9_e11", "s"),
    ("core.section_s.e12", "s"),
    ("core.section_s.e13", "s"),
    ("core.section_s.e14_e15", "s"),
    ("core.section_s.e16", "s"),
    ("core.section_max_s", "s"),
    ("exec.busy_s", "s"),
    ("exec.idle_s", "s"),
    ("exec.utilization", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.pin_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.execute_ms.stats", "ms"),
    ("serve.execute_ms.support", "ms"),
    ("serve.execute_ms.pattern", "ms"),
    ("serve.generation_build_ms", "ms"),
    ("serve.wal_fsync_p50_ms", "ms"),
    ("serve.snapshots", "count"),
    ("serve.generations_published", "count"),
    ("serve.publish_failures", "count"),
    ("serve.query_errors", "count"),
    ("bench.ingest_sched_late_ms", "ms"),
    ("bench.trace_overhead_job_s", "s"),
    ("bench.trace_overhead_read_p50_ms", "ms"),
];

/// Replays the graph layers under `root`: bin fit, gross-weight OD
/// graph build and edge dedup, one span each.
pub fn replay_od_graph(
    spans: &spans::Spans,
    root: Option<spans::SpanId>,
    txns: &[tnet_data::Transaction],
) -> Result<(), String> {
    let scheme = spans
        .time("data.bin_fit", root, |_| {
            tnet_data::BinScheme::fit_width_transactions(txns)
        })
        .map_err(|e| format!("bin fit failed: {e}"))?;
    let mut g = spans.time("data.od_graph", root, |_| {
        tnet_data::build_od_graph(
            txns,
            &scheme,
            tnet_data::EdgeLabeling::GrossWeight,
            tnet_data::VertexLabeling::Uniform,
        )
        .graph
    });
    spans.time("graph.dedup", root, |_| g.dedup_edges());
    Ok(())
}

/// Seed of a run's `i`-th dataset: the run's own seed first, then
/// seeds derived from it.
pub fn dataset_seed(seed: u64, i: usize) -> u64 {
    match i {
        0 => seed,
        _ => tnet_graph::rng::derive_seed(seed, i as u64),
    }
}

/// Run settings from the command line.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's files, inside the checkout.
    pub work: PathBuf,
}

/// Timings of one request of a batch workload (a report, a mining job).
#[derive(Clone)]
pub struct Request {
    /// Index of the run's dataset the request worked on.
    pub dataset: usize,
    /// From the input to the complete result.
    pub job_s: f64,
    /// Taking in the input.
    pub ingest_s: f64,
    /// From the accepted input to the complete result.
    pub publish_s: f64,
    /// High-water RSS during the request, which starts from a trimmed
    /// heap; `None` where the mark cannot be reset.
    pub peak_rss_mb: Option<f64>,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes `correct` false.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Extra facts for the meta line: key and JSON value.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn meta(&mut self, key: &str, json_value: String) {
        self.meta.push((key.to_string(), json_value));
    }

    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }

    /// The end-to-end metrics of a batch workload, where every request
    /// is one read.
    pub fn batch(&mut self, setup_s: &[f64], reqs: &[Request], elapsed_s: f64) {
        let med = |xs: &[f64]| util::median(xs).unwrap_or(f64::NAN);
        let col = |f: fn(&Request) -> f64| reqs.iter().map(f).collect::<Vec<f64>>();
        let jobs = col(|r| r.job_s);
        self.set("setup_s", med(setup_s));
        self.set("job_s", med(&jobs));
        let peaks: Vec<f64> = reqs.iter().filter_map(|r| r.peak_rss_mb).collect();
        self.set("peak_rss_mb", med(&peaks));
        self.meta("read_p50_ms", util::json_num(med(&jobs) * 1e3));
        let mut per_dataset: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for r in reqs {
            per_dataset.entry(r.dataset).or_default().push(r.job_s);
        }
        let dataset_medians: Vec<f64> = per_dataset.values().map(|xs| med(xs)).collect();
        self.set(
            "read_p99_ms",
            util::percentile(&dataset_medians, 0.99).unwrap_or(f64::NAN) * 1e3,
        );
        self.set("reads_per_s", reqs.len() as f64 / elapsed_s);
        let ingest = col(|r| r.ingest_s);
        self.meta("ingest_ack_p50_ms", util::json_num(med(&ingest) * 1e3));
        self.set("publish_lag_p50_ms", med(&col(|r| r.publish_s)) * 1e3);
        self.meta("setup_samples", setup_s.len().to_string());
        self.meta("request_samples", reqs.len().to_string());
        self.meta("p99_datasets", dataset_medians.len().to_string());
        self.meta("rss_samples", peaks.len().to_string());
        let samples = |xs: &[f64]| util::json_list(xs.iter().map(|&x| util::json_num(x)));
        self.meta("job_s_samples", samples(&jobs));
        self.meta("ingest_s_samples", samples(&ingest));
    }

    /// Pool busy and idle time from an [`Exec`](tnet_exec::Exec)'s
    /// counters.
    pub fn exec_counters(&mut self, c: &tnet_exec::CountersSnapshot) {
        self.set("exec.busy_s", c.busy_nanos as f64 / 1e9);
        self.set("exec.idle_s", c.idle_nanos as f64 / 1e9);
        self.set("exec.utilization", c.utilization());
    }

    /// FSG counts from the program's own tracer and registry, for calls
    /// the benchmark cannot wrap. The tracer sums concurrent calls, so
    /// its time is busy time.
    pub fn program_fsg(&mut self, tree: &tnet_obs::SpanNode, registry: &tnet_obs::MetricsRegistry) {
        let mut nodes = Vec::new();
        spans::tracer_nodes(tree, "fsg", &mut nodes);
        self.set("fsg.calls", nodes.iter().map(|n| n.count as f64).sum());
        self.set(
            "fsg.busy_s",
            nodes.iter().map(|n| n.nanos as f64 / 1e9).sum(),
        );
        let reg = |name: &str| registry.get(name) as f64;
        for name in [
            "fsg.candidates",
            "fsg.frequent",
            "fsg.iso_tests",
            "fsg.embeddings_extended",
            "fsg.peak_candidate_bytes",
        ] {
            self.set(name, reg(name));
        }
        self.set(
            "fsg.frequent_per_candidate",
            reg("fsg.frequent") / reg("fsg.candidates").max(1.0),
        );
    }

    /// Records the span summary and the span-tree consistency check.
    pub fn spans(&mut self, recs: &[spans::Rec]) {
        for msg in spans::check(recs) {
            self.problem(msg);
        }
        let rows: Vec<String> = spans::by_name(recs)
            .into_iter()
            .map(|(name, calls, dur, own)| {
                format!(
                    "{{\"span\":{},\"calls\":{calls},\"total_s\":{},\"self_s\":{}}}",
                    util::json_str(&name),
                    util::json_num(dur),
                    util::json_num(own)
                )
            })
            .collect();
        self.meta("spans", util::json_list(rows));
    }
}

const USAGE: &str = "usage: perfbench --workload report|mine_paper|serve_mixed \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<(String, Cfg), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 10f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = Path::new("perfbench")
        .join(".work")
        .join(std::process::id().to_string());
    Ok((
        workload,
        Cfg {
            seed,
            seconds,
            trace,
            work,
        },
    ))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the workspace's crates from source; outside
    // a full checkout there is nothing to measure.
    if !Path::new("crates/core/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the root of a full checkout (crates/ is missing)");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(1);
    }
    let ticks = util::cpu_ticks();
    let result = match workload.as_str() {
        "report" => report::run(&cfg),
        "mine_paper" => mine::run(&cfg),
        "serve_mixed" => serve::run(&cfg),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    // Removes the shared parent only when no concurrent run still uses it.
    let _ = std::fs::remove_dir(Path::new("perfbench").join(".work"));
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, util::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.meta("cpu_steal_share", util::json_num(share));
    }
    print_result(&workload, &cfg, out);
    ExitCode::SUCCESS
}

fn print_result(workload: &str, cfg: &Cfg, mut out: Outcome) {
    if out.attempted == 0 {
        out.problem("no operation was attempted".to_string());
    }
    let wanted: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                missing.push(util::json_str(name));
                0.0
            }
        };
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            util::json_str(name),
            util::json_num(value),
            util::json_str(unit)
        ));
    }
    if !cfg.trace && !missing.is_empty() {
        out.problem(format!(
            "end-to-end metrics not measured: {}",
            missing.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("workload".to_string(), util::json_str(workload)),
        ("seed".to_string(), cfg.seed.to_string()),
        ("held_out_seed".to_string(), HELD_OUT_SEED.to_string()),
        ("seconds".to_string(), util::json_num(cfg.seconds)),
        ("trace".to_string(), cfg.trace.to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("threads".to_string(), THREADS.to_string()),
        ("commit".to_string(), util::json_str(&commit())),
        (
            "source_digest".to_string(),
            util::json_str(&format!("{:016x}", util::tree_digest(Path::new("crates")))),
        ),
    ];
    if cfg.trace {
        meta.push(("not_measured".to_string(), util::json_list(missing)));
    }
    meta.push((
        "problems".to_string(),
        util::json_list(out.problems.iter().map(|p| util::json_str(p))),
    ));
    meta.extend(out.meta);
    let meta: Vec<String> = meta
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", util::json_str(&k)))
        .collect();
    println!("perfbench meta: {{{}}}", meta.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared, with the same
    /// unit, in BENCHMARK.json, and nothing else is.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let declared: Vec<(&str, &str)> = doc
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = &chunk[..chunk.find('"')?];
                let unit = chunk.split("\"unit\": \"").nth(1)?;
                Some((name, &unit[..unit.find('"')?]))
            })
            .collect();
        let ours: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        assert_eq!(declared, ours);
    }
}
