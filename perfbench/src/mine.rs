//! The `mine_paper` workload: both `tnet mine` modes at the paper's
//! scale (scale 1.0: 98,292 transactions, 4,038 vertices at seed 42),
//! reading the dataset from CSV.
//!
//! One request is what a user of `tnet mine --input` waits for: parse
//! the CSV, fit bins, build and deduplicate the gross-weight OD graph,
//! run Algorithm 1 (64 breadth-first partitions, 2 repetitions, support
//! 5) and rank its patterns, then run the radius-1 neighborhood miner
//! (support 5, at most 3 edges) and rank those. The partition miner
//! runs at most 4 edges on 64 partitions, where the CLI defaults are 5
//! edges on 16. Its cost depends on whether one partition holds a dense
//! hub region, and with large partitions that is heavy-tailed over
//! seeds (times on 2 threads): at 5 edges on 16 partitions it took from
//! 3 s (seed 42) to 170 s (seed 2); at 4 edges on 16 partitions about
//! one dataset in ten took 18–30 s instead of 0.5–0.8 s, and on 32
//! partitions one in twenty took 4.8 s instead of 0.5–1.0 s. On 64
//! partitions that dataset took 0.9 s, and 28 seeds took 0.40–1.08 s.
//!
//! The miner closure is the benchmark's own, so an `Err` from
//! `mine_with` is counted as a failed call instead of becoming an empty
//! pattern list.

use crate::spans::{self, timed, SpanId, Spans};
use crate::{util, Cfg, Outcome, Request, THREADS};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use tnet_core::patterns::{classify, interestingness};
use tnet_data::binning::BinScheme;
use tnet_data::model::Transaction;
use tnet_data::od_graph::{build_od_graph, EdgeLabeling, VertexLabeling};
use tnet_data::synth::{generate, SynthConfig};
use tnet_exec::Exec;
use tnet_fsg::{mine_with, FsgConfig, MiningStats, NbhdConfig, NbhdStats, Support};
use tnet_graph::frozen::FrozenStats;
use tnet_graph::graph::Graph;
use tnet_graph::rng::{derive_seed, StdRng};
use tnet_obs::{MetricsRegistry, Span};
use tnet_partition::single_graph::{mine_single_graph, SingleGraphPattern};
use tnet_partition::split::{split_frozen, Strategy};

pub const SCALE: f64 = 1.0;
/// Datasets per run, all drawn from the run's seed; requests cycle
/// through them, so a run's medians do not hang on one dataset.
const DATASETS: usize = 2;
const _: () = assert!(
    DATASETS <= THREADS,
    "datasets are generated one per worker thread"
);
const PARTITIONS: usize = 64;
const REPETITIONS: usize = 2;
const SUPPORT: usize = 5;
const PARTITION_MAX_EDGES: usize = 4;
const NBHD_RADIUS: usize = 1;
const NBHD_MAX_EDGES: usize = 3;
const TOP: usize = 15;
/// The partitioning seed `tnet mine` passes to Algorithm 1.
const PARTITION_SEED: u64 = 42;
/// Known answers at seed 42: (partition patterns, neighborhood patterns).
const SEED_42_COUNTS: (usize, usize) = (1861, 732);

/// One FSG call, timed from the benchmark's closure.
struct Call {
    start: Instant,
    end: Instant,
    stats: Option<MiningStats>,
    /// Largest transaction's edge count over the mean, for this call's
    /// partitioning.
    imbalance: f64,
}

/// What one request produced.
struct Job {
    partition_patterns: usize,
    nbhd_patterns: usize,
    digest: u64,
    /// `publish_s` runs from the parsed CSV to both ranked lists.
    timing: Request,
    calls: Vec<Call>,
    nbhd: Option<NbhdStats>,
    vertices: usize,
    edges: usize,
}

fn write_dataset(seed: u64, path: &Path) -> Result<usize, String> {
    let ds = generate(&SynthConfig::scaled(SCALE).with_seed(seed));
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    tnet_data::csv::write_csv(&ds.transactions, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(ds.transactions.len())
}

/// Parses the dataset's CSV, as `tnet mine --input` does.
fn read_transactions(csv: &Path) -> Result<Vec<Transaction>, String> {
    let file = File::open(csv).map_err(|e| format!("cannot open {}: {e}", csv.display()))?;
    tnet_data::csv::read_csv(BufReader::new(file)).map_err(|e| format!("CSV parse failed: {e}"))
}

/// The top-N lines `tnet mine` prints, after the count.
fn ranked(mut patterns: Vec<SingleGraphPattern>) -> (usize, String) {
    patterns.sort_by(|a, b| {
        interestingness(&b.pattern, b.support)
            .total()
            .total_cmp(&interestingness(&a.pattern, a.support).total())
    });
    let mut text = format!("{} patterns\n", patterns.len());
    for p in patterns.iter().take(TOP) {
        text.push_str(&format!(
            "  support {:>5}  {} edges  {:<14} score {:.0}\n",
            p.support,
            p.pattern.edge_count(),
            classify(&p.pattern).name(),
            interestingness(&p.pattern, p.support).total()
        ));
    }
    (patterns.len(), text)
}

/// One request on the run's dataset `dataset`, stored at `csv`.
fn request(
    csv: &Path,
    dataset: usize,
    exec: &Exec,
    spans: Option<(&Spans, SpanId)>,
) -> Result<Job, String> {
    let rss_reset = util::start_peak_rss();
    let t0 = Instant::now();
    let txns = timed(spans, "data.read_csv", || read_transactions(csv))?;
    let t_ingest = Instant::now();
    let scheme = timed(spans, "data.bin_fit", || {
        BinScheme::fit_width_transactions(&txns)
    })
    .map_err(|e| format!("bin fit failed: {e}"))?;
    let od = timed(spans, "data.od_graph", || {
        build_od_graph(
            &txns,
            &scheme,
            EdgeLabeling::GrossWeight,
            VertexLabeling::Uniform,
        )
    });
    let mut g = od.graph;
    timed(spans, "graph.dedup", || g.dedup_edges());

    let cfg = FsgConfig::default()
        .with_support(Support::Count(SUPPORT))
        .with_max_edges(PARTITION_MAX_EDGES)
        .with_memory_budget(512 << 20);
    let calls = Mutex::new(Vec::new());
    let partition =
        spans.map(|(s, parent)| (s, s.open("partition.mine_single_graph", Some(parent))));
    let patterns = mine_single_graph(
        &g,
        PARTITIONS,
        REPETITIONS,
        Strategy::BreadthFirst,
        PARTITION_SEED,
        exec,
        |t: &[Graph], e: &Exec| {
            let edges: Vec<f64> = t.iter().map(|x| x.edge_count() as f64).collect();
            let mean = edges.iter().sum::<f64>() / edges.len().max(1) as f64;
            let imbalance = edges.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
            let start = Instant::now();
            let result = mine_with(t, &cfg, e);
            let end = Instant::now();
            if let Some((s, id)) = partition {
                s.record("fsg.mine_with", Some(id), start, end);
            }
            let (found, stats) = match result {
                Ok(out) => (
                    out.patterns
                        .into_iter()
                        .map(|p| (p.graph, p.support))
                        .collect(),
                    Some(out.stats),
                ),
                Err(_) => (Vec::new(), None),
            };
            calls
                .lock()
                .expect("call log poisoned by a panicking miner")
                .push(Call {
                    start,
                    end,
                    stats,
                    imbalance,
                });
            found
        },
    );
    if let Some((s, id)) = partition {
        s.close(id);
    }
    let (partition_patterns, first) = timed(spans, "core.rank", || ranked(patterns));

    let ncfg = NbhdConfig::default()
        .with_radius(NBHD_RADIUS)
        .with_support(Support::Count(SUPPORT))
        .with_max_edges(NBHD_MAX_EDGES);
    let nb = timed(spans, "fsg.mine_neighborhoods", || {
        tnet_fsg::mine_neighborhoods(&g, &ncfg, exec)
    });
    let (nbhd_patterns, second, nbhd) = match nb {
        Ok(out) => {
            let list: Vec<SingleGraphPattern> = out
                .patterns
                .into_iter()
                .map(|p| SingleGraphPattern {
                    pattern: p.graph,
                    support: p.support,
                    repetitions_seen: 1,
                })
                .collect();
            let (n, text) = timed(spans, "core.rank", || ranked(list));
            (n, text, Some(out.stats))
        }
        Err(e) => (0, format!("neighborhood mining failed: {e}\n"), None),
    };
    let t_end = Instant::now();
    let digest = util::fnv64(format!("{first}{second}").as_bytes());
    Ok(Job {
        partition_patterns,
        nbhd_patterns,
        digest,
        timing: Request {
            dataset,
            ingest_s: (t_ingest - t0).as_secs_f64(),
            publish_s: (t_end - t_ingest).as_secs_f64(),
            job_s: (t_end - t0).as_secs_f64(),
            peak_rss_mb: util::peak_rss_mb(None).filter(|_| rss_reset),
        },
        calls: calls
            .into_inner()
            .expect("call log poisoned by a panicking miner"),
        nbhd,
        vertices: g.vertex_count(),
        edges: g.edge_count(),
    })
}

/// Output checks across a run: every miner call succeeds, both modes
/// find patterns, seed 42 gives the known counts, and every request on
/// one dataset gives the same ranked lists.
struct Checker {
    first: Vec<Option<(usize, usize, u64)>>,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            first: vec![None; DATASETS],
        }
    }

    /// Checks a request on dataset `d` made from `seed`; returns the
    /// number of failed operations (one per failed miner call, two when
    /// the lists differ from the dataset's first request).
    fn check(&mut self, d: usize, job: &Job, seed: u64, o: &mut Outcome) -> u64 {
        let mut failed = job.calls.iter().filter(|c| c.stats.is_none()).count() as u64;
        if job.nbhd.is_none() {
            failed += 1;
        }
        if failed > 0 {
            o.problem(format!("{failed} miner call(s) returned an error"));
        }
        let got = (job.partition_patterns, job.nbhd_patterns, job.digest);
        if seed == 42 && (got.0, got.1) != SEED_42_COUNTS {
            o.problem(format!(
                "seed 42 found {}/{} patterns, expected {}/{}",
                got.0, got.1, SEED_42_COUNTS.0, SEED_42_COUNTS.1
            ));
        }
        if got.0 == 0 || got.1 == 0 {
            o.problem("a mining mode found no patterns".to_string());
        }
        match self.first[d] {
            None => self.first[d] = Some(got),
            Some(f) if f != got => {
                o.problem(format!(
                    "request output {got:?} differs from the first {f:?}"
                ));
                failed += 2;
            }
            Some(_) => {}
        }
        failed
    }
}

fn attempts(job: &Job) -> u64 {
    job.calls.len() as u64 + 1
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let datasets = if cfg.trace { 1 } else { DATASETS };
    let seeds: Vec<u64> = (0..datasets)
        .map(|d| crate::dataset_seed(cfg.seed, d))
        .collect();
    let csvs: Vec<PathBuf> = (0..datasets)
        .map(|d| cfg.work.join(format!("paper{d}.csv")))
        .collect();
    // Generation is single-threaded and takes about 10 s a dataset at
    // this scale, so the datasets are made side by side, one thread each
    // (no more than the workload's worker threads); each is timed alone.
    let made: Vec<Result<(usize, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .zip(&csvs)
            .map(|(&seed, csv)| {
                scope.spawn(move || {
                    let t = Instant::now();
                    write_dataset(seed, csv).map(|n| (n, t.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("dataset generation panicked".to_string()))
            })
            .collect()
    });
    let mut setup_times = Vec::new();
    let mut txn_count = 0;
    for m in made {
        let (n, secs) = m?;
        txn_count = n;
        setup_times.push(secs);
    }
    o.meta("scale", util::json_num(SCALE));
    o.meta("transactions", txn_count.to_string());
    o.meta("partition_max_edges", PARTITION_MAX_EDGES.to_string());
    o.meta(
        "dataset_seeds",
        util::json_list(seeds.iter().map(u64::to_string)),
    );
    let mut checker = Checker::new();
    if cfg.trace {
        return run_traced(cfg, &csvs[0], setup_times[0], &mut checker, o);
    }
    let exec = Exec::new(THREADS);
    let mut jobs = Vec::new();
    let start = Instant::now();
    // Every dataset is mined at least three times: repeats give each a
    // digest to compare against and a median for `read_p99_ms`.
    while jobs.len() < 3 * DATASETS || start.elapsed().as_secs_f64() < cfg.seconds {
        let d = jobs.len() % DATASETS;
        let job = request(&csvs[d], d, &exec, None)?;
        o.attempted += attempts(&job);
        o.failed += checker.check(d, &job, seeds[d], &mut o);
        jobs.push(job);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let timings: Vec<Request> = jobs.iter().map(|j| j.timing.clone()).collect();
    o.batch(&setup_times, &timings, elapsed);
    let per_dataset = |f: fn(&Job) -> String| util::json_list(jobs.iter().take(DATASETS).map(f));
    o.meta("vertices", per_dataset(|j| j.vertices.to_string()));
    o.meta("edges", per_dataset(|j| j.edges.to_string()));
    o.meta(
        "partition_patterns",
        per_dataset(|j| j.partition_patterns.to_string()),
    );
    o.meta(
        "neighborhood_patterns",
        per_dataset(|j| j.nbhd_patterns.to_string()),
    );
    o.meta(
        "lists_digests",
        per_dataset(|j| util::json_str(&format!("{:016x}", j.digest))),
    );
    Ok(o)
}

fn run_traced(
    cfg: &Cfg,
    csv: &Path,
    generate_s: f64,
    checker: &mut Checker,
    mut o: Outcome,
) -> Result<Outcome, String> {
    let plain = request(csv, 0, &Exec::new(THREADS), None)?;
    o.attempted += attempts(&plain);
    o.failed += checker.check(0, &plain, cfg.seed, &mut o);

    let spans = Spans::new();
    let registry = MetricsRegistry::new();
    let exec = Exec::new(THREADS).with_obs(Span::disabled(), registry.clone());
    let frozen_before = FrozenStats::snapshot();
    let root = spans.open("mine.request", None);
    let job = request(csv, 0, &exec, Some((&spans, root)))?;
    spans.close(root);
    let frozen = FrozenStats::snapshot().since(&frozen_before);
    o.attempted += attempts(&job);
    o.failed += checker.check(0, &job, cfg.seed, &mut o);
    o.set(
        "bench.trace_overhead_job_s",
        job.timing.job_s - plain.timing.job_s,
    );
    o.meta("untraced_job_s", util::json_num(plain.timing.job_s));
    o.meta("traced_job_s", util::json_num(job.timing.job_s));

    // Algorithm 1's splits, replayed with the repetition seeds it uses.
    let split_root = spans.open("mine.replay", None);
    let txns = read_transactions(csv)?;
    let scheme =
        BinScheme::fit_width_transactions(&txns).map_err(|e| format!("bin fit failed: {e}"))?;
    let mut g = build_od_graph(
        &txns,
        &scheme,
        EdgeLabeling::GrossWeight,
        VertexLabeling::Uniform,
    )
    .graph;
    g.dedup_edges();
    let frozen_graph = g.freeze();
    for i in 0..REPETITIONS as u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(PARTITION_SEED, i));
        spans.time("partition.split", Some(split_root), |_| {
            std::hint::black_box(split_frozen(
                &frozen_graph,
                PARTITIONS,
                Strategy::BreadthFirst,
                &mut rng,
            ))
        });
    }
    spans.close(split_root);

    let recs = spans.records();
    o.set("data.generate_s", generate_s);
    for (metric, span) in [
        ("data.read_csv_s", "data.read_csv"),
        ("data.bin_fit_s", "data.bin_fit"),
        ("data.od_graph_s", "data.od_graph"),
        ("graph.dedup_s", "graph.dedup"),
        ("partition.split_s", "partition.split"),
        ("nbhd.s", "fsg.mine_neighborhoods"),
    ] {
        o.set(metric, spans::total(&recs, span));
    }
    o.set("graph.freeze_count", frozen.freeze_count as f64);
    o.set("graph.csr_bytes", frozen.csr_bytes as f64);

    let calls = &job.calls;
    let durations: Vec<f64> = calls
        .iter()
        .map(|c| (c.end - c.start).as_secs_f64())
        .collect();
    let (lo, hi) = (
        calls
            .iter()
            .map(|c| spans.at(c.start))
            .fold(f64::INFINITY, f64::min),
        calls.iter().map(|c| spans.at(c.end)).fold(0.0, f64::max),
    );
    let intervals = calls
        .iter()
        .map(|c| (spans.at(c.start), spans.at(c.end)))
        .collect();
    let ok: Vec<&MiningStats> = calls.iter().filter_map(|c| c.stats.as_ref()).collect();
    let sum = |f: fn(&MiningStats) -> usize| ok.iter().map(|s| f(s) as f64).sum::<f64>();
    let candidates = sum(MiningStats::total_candidates);
    let frequent = sum(MiningStats::total_frequent);
    o.set(
        "partition.txn_edges_max_over_mean",
        calls.iter().map(|c| c.imbalance).fold(0.0, f64::max),
    );
    o.set("fsg.calls", calls.len() as f64);
    o.set("fsg.busy_s", durations.iter().sum());
    o.set("fsg.wall_s", spans::union_len(lo, hi, intervals));
    o.set(
        "fsg.call_max_s",
        durations.iter().copied().fold(0.0, f64::max),
    );
    o.set("fsg.candidates", candidates);
    o.set("fsg.frequent", frequent);
    o.set("fsg.frequent_per_candidate", frequent / candidates.max(1.0));
    o.set("fsg.iso_tests", sum(|s| s.iso_tests));
    o.set("fsg.embeddings_extended", sum(|s| s.embeddings_extended));
    o.set(
        "fsg.peak_candidate_bytes",
        ok.iter()
            .map(|s| s.peak_candidate_bytes as f64)
            .fold(0.0, f64::max),
    );
    o.set("fsg.errors", (calls.len() - ok.len()) as f64);
    if let Some(nb) = &job.nbhd {
        o.set("nbhd.centers", nb.centers as f64);
        o.set("nbhd.iso_tests", nb.iso_tests as f64);
        o.set("nbhd.fingerprint_rejects", nb.fingerprint_rejects as f64);
    }
    o.exec_counters(&exec.counters());
    o.meta(
        "registry_fsg_iso_tests",
        registry.get("fsg.iso_tests").to_string(),
    );
    o.spans(&recs);
    Ok(o)
}
