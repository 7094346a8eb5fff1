//! `tnet report` — the full E1–E15 reproduction report plus the E17–E21
//! extensions, run under supervision: every section is panic-isolated,
//! optionally deadline- and budget-bounded, and retried once at reduced
//! effort on a retryable failure. The command succeeds (exit 0) as long
//! as at least one section completes.

use crate::args::{ArgError, Args};
use crate::commands::{load_transactions, obs_context, parse_scale};
use crate::error::CliError;
use std::time::Duration;
use tnet_core::experiments::extensions::{run_events, run_paths, run_periodic};
use tnet_core::pipeline::Pipeline;
use tnet_core::SupervisorConfig;
use tnet_dynamic::paths::PathConfig;

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "extensions",
        "threads",
        "deadline-secs",
        "section-budget",
        "trace",
        "trace-json",
    ])?;
    let obs = obs_context(args);
    let mut exec = args.exec()?;
    if let Some(o) = &obs {
        exec = o.attach(&exec);
    }
    let scale = parse_scale(args, 0.05)?;
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let with_extensions = args.get_bool("extensions", true)?;
    let deadline_secs: f64 = args.get_parsed_or("deadline-secs", 0.0)?;
    // A week covers every sane supervision budget; anything past it is a
    // typo (and huge values would overflow `Duration::from_secs_f64`,
    // which panics rather than erroring).
    const MAX_DEADLINE_SECS: f64 = 7.0 * 24.0 * 3600.0;
    if deadline_secs < 0.0 || !deadline_secs.is_finite() {
        return Err(ArgError("--deadline-secs must be a non-negative number".into()).into());
    }
    if deadline_secs > MAX_DEADLINE_SECS {
        return Err(ArgError(format!(
            "--deadline-secs {deadline_secs} is absurd (max {MAX_DEADLINE_SECS}, one week)"
        ))
        .into());
    }
    let budget_mb: usize = args.get_parsed_or("section-budget", 0)?;
    // `budget_mb << 20` would silently wrap on absurd values in release
    // builds, turning a huge requested budget into a tiny one.
    let budget_bytes = budget_mb
        .checked_mul(1 << 20)
        .ok_or_else(|| ArgError(format!("--section-budget {budget_mb} MB overflows")))?;
    let cfg = SupervisorConfig {
        section_deadline: (deadline_secs > 0.0).then_some(Duration::from_secs_f64(deadline_secs)),
        section_budget: (budget_mb > 0).then_some(budget_bytes),
    };

    let total = exec.span().timer();
    let pipeline = if args.get("input").is_some() {
        let txns = {
            let _t = exec.span().time("ingest");
            load_transactions(args)?
        };
        Pipeline::from_transactions(txns)?
    } else {
        let _t = exec.span().time("ingest");
        Pipeline::synthetic(scale, seed)
    };
    let outcome = pipeline.full_report_supervised(scale, seed, &exec, &cfg);
    println!("{}", outcome.text);
    // Observability only — stderr, so the report text stays byte-stable.
    eprintln!("[exec] {} threads: {}", exec.threads(), exec.counters());
    if outcome.ok + outcome.degraded == 0 {
        return Err(CliError::Runtime(format!(
            "all {} report sections failed",
            outcome.failed
        )));
    }

    if with_extensions {
        let _t = exec.span().time("extensions");
        let txns = pipeline.transactions();
        println!("{}", run_periodic(txns));
        println!(
            "{}",
            run_paths(
                txns,
                &PathConfig {
                    min_sep: 0,
                    max_sep: 3,
                    max_len: 2,
                    min_occurrences: 3,
                    max_instances: 1_000_000,
                },
            )
        );
        println!("{}", run_events(txns));
    }
    drop(total);
    if let Some(o) = &obs {
        o.finish(&exec)?;
    }
    Ok(())
}
