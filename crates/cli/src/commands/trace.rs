//! `tnet trace` — summarize a `tnet-trace/v1` JSON document written by
//! `--trace-json`.
//!
//! The document may have been hand-edited, truncated by a crashed run,
//! or produced by a different tool version, so nothing here is trusted:
//! parse failures, schema violations, and missing or mistyped fields
//! (`nanos`, `count`, `label`, `children`, `metrics`) all surface as
//! runtime errors under the one-line-stderr / exit-1 contract — never a
//! panic.

use crate::args::Args;
use crate::error::CliError;
use tnet_obs::json::Json;
use tnet_obs::SpanNode;

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["input"])?;
    let path = args.get("input").ok_or_else(|| {
        CliError::Usage("tnet trace requires --input PATH (a --trace-json document)".into())
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let summary = summarize(&text).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    print!("{summary}");
    Ok(())
}

/// Renders the trace summary, or a one-line description of what is
/// malformed. Split from [`run`] so tests can exercise it directly.
pub fn summarize(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("malformed trace JSON: {e}"))?;
    let (root, metrics) = tnet_obs::trace_from_json(&doc)
        .map_err(|e| format!("invalid tnet-trace/v1 document: {e}"))?;
    let mut out = String::new();
    out.push_str("--- trace (wall clock per phase) ---\n");
    out.push_str(&root.render());
    out.push_str("--- metrics ---\n");
    let width = metrics.keys().map(|k| k.len()).max().unwrap_or(0);
    for (k, n) in &metrics {
        out.push_str(&format!("{k:<width$}  {n}\n"));
    }
    out.push_str(&format!(
        "{} spans, {} counters, total wall {:.3} ms\n",
        count_spans(&root),
        metrics.len(),
        root.nanos as f64 / 1e6
    ));
    Ok(out)
}

fn count_spans(n: &SpanNode) -> usize {
    1 + n.children.iter().map(count_spans).sum::<usize>()
}
