//! The `report` workload: the full supervised reproduction report at
//! scale 0.1 (9,829 transactions at seed 42), back to back for the run's
//! duration.
//!
//! Each request ingests the generated transactions through
//! `Pipeline::from_transactions` (the entry point `tnet report --input`
//! uses) with the generator's ground truth attached, exactly what
//! `Pipeline::synthetic` builds, then renders all 13 sections with
//! `Pipeline::full_report_supervised`. Every report must end with
//! `sections: 13 ok, 0 degraded, 0 failed`, and all reports of one
//! dataset must agree once durations are scrubbed.

use crate::spans::{self, timed, SpanId, Spans};
use crate::{util, Cfg, Outcome, Request, SECTIONS, THREADS};
use std::time::Instant;
use tnet_core::experiments::{conventional, structural};
use tnet_core::{Pipeline, SupervisorConfig};
use tnet_data::binning::BinScheme;
use tnet_data::synth::{generate, SynthConfig};
use tnet_exec::Exec;
use tnet_fsg::{FsgConfig, Support};
use tnet_graph::frozen::FrozenStats;
use tnet_obs::{MetricsRegistry, Span, Tracer};
use tnet_partition::temporal::TemporalOptions;
use tnet_partition::{Granularity, WindowSpec};

pub const SCALE: f64 = 0.1;
/// Datasets per run, all drawn from the run's seed; requests cycle
/// through them, so a run's medians do not hang on one dataset.
const DATASETS: usize = 3;
/// Set-ups per dataset before the first request; one more set-up is
/// timed after every request, so the set-up samples span the run.
const SETUP_REPS_PER_DATASET: usize = 3;
const EXPECTED_TAIL: &str = "sections: 13 ok, 0 degraded, 0 failed\n";

/// A generated dataset and the seed the report runs with.
struct Source {
    seed: u64,
    pipeline: Pipeline,
}

/// Output checks across a run: every report complete, and every report
/// of one dataset equal to the first once durations are scrubbed.
struct Checker {
    digests: Vec<Option<u64>>,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            digests: vec![None; DATASETS],
        }
    }

    /// Checks one report of dataset `d`; returns the number of failed
    /// sections (a report whose digest differs from the dataset's first
    /// counts as all 13 failed).
    fn check(&mut self, d: usize, out: &tnet_core::ReportOutcome, o: &mut Outcome) -> u64 {
        let mut failed = (out.degraded + out.failed) as u64;
        if out.sections() != SECTIONS.len() || failed > 0 || !out.text.ends_with(EXPECTED_TAIL) {
            let tail = out.text.lines().last().unwrap_or("").to_string();
            o.problem(format!("report ended with '{tail}'"));
        }
        let digest = util::fnv64(util::scrub_durations(&out.text).as_bytes());
        match self.digests[d] {
            None => self.digests[d] = Some(digest),
            Some(first) if first != digest => {
                o.problem(format!(
                    "report digest {digest:016x} differs from {first:016x}"
                ));
                failed = SECTIONS.len() as u64;
            }
            Some(_) => {}
        }
        failed
    }
}

/// Builds `datasets` sources with `Pipeline::synthetic`, `reps` times
/// each; returns them with every set-up time.
fn setup(seed: u64, datasets: usize, reps: usize) -> (Vec<Source>, Vec<f64>) {
    let mut times = Vec::new();
    let sources = (0..datasets)
        .map(|i| {
            let seed = crate::dataset_seed(seed, i);
            let mut pipeline = None;
            for _ in 0..reps {
                let t = Instant::now();
                let p = std::hint::black_box(Pipeline::synthetic(SCALE, seed));
                times.push(t.elapsed().as_secs_f64());
                pipeline = Some(p);
            }
            Source {
                seed,
                pipeline: pipeline.expect("at least one set-up"),
            }
        })
        .collect();
    (sources, times)
}

/// One request on the run's dataset `dataset`: ingest the
/// transactions, render the report.
fn request(
    source: &Source,
    dataset: usize,
    exec: &Exec,
    spans: Option<(&Spans, SpanId)>,
) -> Result<(tnet_core::ReportOutcome, Request), String> {
    let rss_reset = util::start_peak_rss();
    let t0 = Instant::now();
    let ingest = || {
        let mut p = Pipeline::from_transactions(source.pipeline.transactions().to_vec())
            .map_err(|e| format!("ingest failed: {e}"))?;
        p.dataset = source.pipeline.dataset.clone();
        Ok::<_, String>(p)
    };
    let accepted = timed(spans, "core.from_transactions", ingest)?;
    let t1 = Instant::now();
    let render =
        || accepted.full_report_supervised(SCALE, source.seed, exec, &SupervisorConfig::default());
    let out = timed(spans, "core.full_report_supervised", render);
    let t2 = Instant::now();
    let sample = Request {
        dataset,
        ingest_s: (t1 - t0).as_secs_f64(),
        publish_s: (t2 - t1).as_secs_f64(),
        job_s: (t2 - t0).as_secs_f64(),
        peak_rss_mb: util::peak_rss_mb(None).filter(|_| rss_reset),
    };
    Ok((std::hint::black_box(out), sample))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut o = Outcome::default();
    let (sources, mut setup_times) = setup(cfg.seed, DATASETS, SETUP_REPS_PER_DATASET);
    let exec = Exec::new(THREADS);
    let mut checker = Checker::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    // Every dataset is reported at least twice: the repeat gives it a
    // digest to compare against, and its median in `read_p99_ms` rests
    // on more than one request.
    while samples.len() < 2 * DATASETS || start.elapsed().as_secs_f64() < cfg.seconds {
        let d = samples.len() % DATASETS;
        let (out, sample) = request(&sources[d], d, &exec, None)?;
        o.attempted += SECTIONS.len() as u64;
        o.failed += checker.check(d, &out, &mut o);
        samples.push(sample);
        let t = Instant::now();
        std::hint::black_box(Pipeline::synthetic(SCALE, sources[d].seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed().as_secs_f64();
    o.batch(&setup_times, &samples, elapsed);
    o.meta("scale", util::json_num(SCALE));
    o.meta(
        "dataset_seeds",
        util::json_list(sources.iter().map(|s| s.seed.to_string())),
    );
    o.meta(
        "transactions",
        sources[0].pipeline.transactions().len().to_string(),
    );
    let digests = checker
        .digests
        .iter()
        .map(|d| util::json_str(&format!("{:016x}", d.unwrap_or(0))));
    o.meta("report_digests", util::json_list(digests));
    Ok(o)
}

fn run_traced(cfg: &Cfg) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (sources, _) = setup(cfg.seed, 1, 1);
    let source = &sources[0];
    let mut checker = Checker::new();

    // Untraced request: the baseline for the tracing overhead.
    let (out, plain) = request(source, 0, &Exec::new(THREADS), None)?;
    o.attempted += SECTIONS.len() as u64;
    o.failed += checker.check(0, &out, &mut o);

    // Traced request: the program's own tracer and registry attached,
    // and the benchmark's spans around the two calls.
    let spans = Spans::new();
    let tracer = Tracer::new("report");
    let registry = MetricsRegistry::new();
    let exec = Exec::new(THREADS).with_obs(tracer.root(), registry.clone());
    let frozen_before = FrozenStats::snapshot();
    let root = spans.open("report.request", None);
    let (out, traced) = request(source, 0, &exec, Some((&spans, root)))?;
    spans.close(root);
    let frozen = FrozenStats::snapshot().since(&frozen_before);
    o.attempted += SECTIONS.len() as u64;
    o.failed += checker.check(0, &out, &mut o);
    o.set("bench.trace_overhead_job_s", traced.job_s - plain.job_s);
    o.meta("untraced_job_s", util::json_num(plain.job_s));
    o.meta("traced_job_s", util::json_num(traced.job_s));

    // Section times and miner busy time come from the program's tracer,
    // which sums concurrent calls: they are busy time, not wall time.
    let tree = tracer.snapshot();
    let mut section_max: f64 = 0.0;
    for (prefix, id) in SECTIONS {
        let node = tree.children.iter().find(|c| c.label.starts_with(prefix));
        match node {
            Some(n) => {
                let s = n.nanos as f64 / 1e9;
                section_max = section_max.max(s);
                o.set(&format!("core.section_s.{id}"), s);
            }
            None => o.problem(format!("no tracer span for section {prefix}")),
        }
    }
    o.set("core.section_max_s", section_max);
    o.program_fsg(&tree, &registry);
    o.exec_counters(&exec.counters());
    o.set("graph.freeze_count", frozen.freeze_count as f64);
    o.set("graph.csr_bytes", frozen.csr_bytes as f64);

    replay_layers(&source.pipeline, source.seed, &spans, &mut o)?;
    o.spans(&spans.records());
    o.meta("scale", util::json_num(SCALE));
    o.meta(
        "measured_by_program_tracer",
        "[\"core.section_s.*\",\"core.section_max_s\",\"fsg.calls\",\"fsg.busy_s\"]".to_string(),
    );
    Ok(o)
}

/// Replays the report's layers one public call at a time, each inside a
/// benchmark span, on the same transactions.
fn replay_layers(
    source: &Pipeline,
    seed: u64,
    spans: &Spans,
    o: &mut Outcome,
) -> Result<(), String> {
    let txns = source.transactions();
    let registry = MetricsRegistry::new();
    let exec = Exec::new(THREADS).with_obs(Span::disabled(), registry.clone());
    let root = Some(spans.open("report.replay", None));
    let ds = spans.time("data.generate", root, |_| {
        generate(&SynthConfig::scaled(SCALE).with_seed(seed))
    });
    if ds.transactions.len() != txns.len() {
        o.problem("replayed generation differs from set-up".to_string());
    }
    crate::replay_od_graph(spans, root, txns)?;
    let scheme =
        BinScheme::fit_width_transactions(txns).map_err(|e| format!("bin fit failed: {e}"))?;

    // The section sizes the report uses at this scale.
    let s = |full: usize, min: usize| ((full as f64 * SCALE).round() as usize).max(min);
    let err = |e: tnet_core::PipelineError| e.to_string();
    spans
        .time("subdue", root, |sub| {
            let sub = Some(sub);
            spans.time("subdue.fig1", sub, |_| {
                structural::run_fig1(txns, s(100, 40), None, &exec)
            })?;
            spans.time("subdue.scaling", sub, |_| {
                structural::run_subdue_scaling(
                    txns,
                    &[s(25, 10), s(50, 20), s(100, 40)],
                    None,
                    &exec,
                )
            })?;
            spans.time("subdue.size_principle", sub, |_| {
                structural::run_size_principle(14, 3, 60, seed, None, &exec)
            })?;
            Ok::<(), tnet_core::PipelineError>(())
        })
        .map_err(err)?;
    o.set("subdue.expanded", registry.get("subdue.expanded") as f64);
    o.set(
        "subdue.patterns_derived",
        registry.get("subdue.patterns_derived") as f64,
    );

    spans
        .time("tabular", root, |tab| {
            let tab = Some(tab);
            spans.time("tabular.apriori", tab, |_| {
                std::hint::black_box(conventional::run_assoc(txns, 12))
            });
            spans.time("tabular.tree", tab, |_| {
                std::hint::black_box(conventional::run_classify(txns))
            });
            spans
                .time("tabular.em", tab, |_| {
                    conventional::run_cluster(txns, 9, 60, seed, &exec)
                })
                .map(|_| ())
        })
        .map_err(err)?;

    // E16's three window specs with its normal-effort miner settings.
    let specs = [
        ("hour", WindowSpec::tumbling(Granularity::Hour, 24)),
        ("day", WindowSpec::new(Granularity::Day, 7, 1)),
        ("week", WindowSpec::tumbling(Granularity::Week, 1)),
    ];
    let fsg = FsgConfig::default()
        .with_support(Support::Count(5))
        .with_max_edges(3);
    let session = MetricsRegistry::new();
    let temporal = spans.open("temporal", root);
    let mut valid_specs = Vec::new();
    for (name, spec) in specs {
        let spec = spec.map_err(|e| format!("window spec {name}: {e}"))?;
        let tcfg = tnet_temporal::TemporalConfig::new(spec).with_fsg(fsg.clone());
        let run = spans
            .time(&format!("temporal.windows.{name}"), Some(temporal), |_| {
                tnet_temporal::run_windows(txns, &scheme, &TemporalOptions::default(), &tcfg, &exec)
            })
            .map_err(|e| format!("{name} windows failed: {e}"))?;
        run.session.record_into(&session);
        valid_specs.push(spec);
    }
    spans.time("temporal.flows", Some(temporal), |_| {
        let fcfg = tnet_temporal::FlowConfig::default();
        for spec in &valid_specs {
            std::hint::black_box(tnet_temporal::detect_flows(txns, spec, &fcfg));
        }
    });
    spans.close(temporal);
    if let Some(r) = root {
        spans.close(r);
    }
    for name in [
        "session.windows",
        "session.incremental_windows",
        "session.full_recounts",
        "session.recount_skips",
    ] {
        o.set(name, session.get(name) as f64);
    }

    let recs = spans.records();
    for (metric, span) in [
        ("data.generate_s", "data.generate"),
        ("data.bin_fit_s", "data.bin_fit"),
        ("data.od_graph_s", "data.od_graph"),
        ("graph.dedup_s", "graph.dedup"),
        ("subdue.s", "subdue"),
        ("tabular.apriori_s", "tabular.apriori"),
        ("tabular.tree_s", "tabular.tree"),
        ("tabular.em_s", "tabular.em"),
        ("temporal.windows_s.hour", "temporal.windows.hour"),
        ("temporal.windows_s.day", "temporal.windows.day"),
        ("temporal.windows_s.week", "temporal.windows.week"),
        ("temporal.flows_s", "temporal.flows"),
    ] {
        o.set(metric, spans::total(&recs, span));
    }
    Ok(())
}
