//! Trace export (`tnet-trace/v1`): converts a span-tree snapshot plus a
//! metrics snapshot into a [`Json`] value, and reads such documents
//! back, schema-checked. The CLI's `--trace-json`, `tnet trace`, and
//! `bench_miners`' embedded trace block all use this schema, so one
//! validator covers them (see DESIGN.md §10).
//!
//! Document shape:
//!
//! ```json
//! {
//!   "schema": "tnet-trace/v1",
//!   "root": {"label": "mine", "nanos": 12345, "count": 1,
//!            "children": [ ...same shape... ]},
//!   "metrics": {"exec.tasks": 42, "fsg.iso_tests": 20, ...}
//! }
//! ```

use crate::json::Json;
use crate::SpanNode;
use std::collections::BTreeMap;

/// Schema tag written into (and required from) every trace document.
pub const TRACE_SCHEMA: &str = "tnet-trace/v1";

/// Builds a `tnet-trace/v1` document from a span-tree snapshot and a
/// metrics snapshot (the output of `MetricsRegistry::snapshot`).
pub fn trace_to_json(root: &SpanNode, metrics: &BTreeMap<String, u64>) -> Json {
    Json::obj([
        ("schema", Json::Str(TRACE_SCHEMA.into())),
        ("root", span_to_json(root)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
    ])
}

fn span_to_json(node: &SpanNode) -> Json {
    Json::obj([
        ("label", Json::Str(node.label.clone())),
        ("nanos", Json::Num(node.nanos as f64)),
        ("count", Json::Num(node.count as f64)),
        (
            "children",
            Json::Arr(node.children.iter().map(span_to_json).collect()),
        ),
    ])
}

/// Reads a parsed `tnet-trace/v1` document back into its span tree and
/// metrics, checking the schema on the way: the schema tag, a `metrics`
/// object of non-negative integers, and a span tree under `root` whose
/// every node carries a string label, non-negative integer
/// `nanos`/`count`, and a `children` array. Recursion depth is bounded
/// by the parser's nesting cap.
pub fn trace_from_json(doc: &Json) -> Result<(SpanNode, BTreeMap<String, u64>), String> {
    match doc.get("schema") {
        Some(Json::Str(s)) if s == TRACE_SCHEMA => {}
        Some(Json::Str(s)) => {
            return Err(format!("unexpected schema '{s}' (want '{TRACE_SCHEMA}')"));
        }
        _ => return Err("missing 'schema' string".into()),
    }
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(name, v)| {
                let n = counter(v)
                    .ok_or_else(|| format!("metric '{name}' is not a non-negative integer"))?;
                Ok((name.clone(), n))
            })
            .collect::<Result<_, String>>()?,
        _ => return Err("missing 'metrics' object".into()),
    };
    let root = span_from_json(doc.get("root").ok_or("missing 'root' span")?, "root")?;
    Ok((root, metrics))
}

/// Checks a parsed document against the `tnet-trace/v1` schema (see
/// [`trace_from_json`]).
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    trace_from_json(doc).map(|_| ())
}

fn counter(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn span_from_json(node: &Json, path: &str) -> Result<SpanNode, String> {
    let label = match node.get("label") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err(format!("{path}: missing 'label' string")),
    };
    let field = |key: &str| {
        node.get(key)
            .and_then(counter)
            .ok_or_else(|| format!("{path}: '{key}' is not a non-negative integer"))
    };
    let (nanos, count) = (field("nanos")?, field("count")?);
    let children = match node.get("children") {
        Some(Json::Arr(children)) => children
            .iter()
            .enumerate()
            .map(|(i, c)| span_from_json(c, &format!("{path}.children[{i}]")))
            .collect::<Result<_, _>>()?,
        _ => return Err(format!("{path}: missing 'children' array")),
    };
    Ok(SpanNode {
        label,
        nanos,
        count,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_trace() -> Json {
        let t = Tracer::new("mine");
        {
            let total = t.root().timer();
            let _ingest = total.span().time("ingest");
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("fsg.iso_tests".to_string(), 20u64);
        metrics.insert("exec.tasks".to_string(), 4u64);
        trace_to_json(&t.snapshot(), &metrics)
    }

    #[test]
    fn round_trips_through_the_parser() {
        let doc = sample_trace();
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        let (root, metrics) = trace_from_json(&back).unwrap();
        assert_eq!(trace_to_json(&root, &metrics), doc);
    }

    #[test]
    fn validator_rejects_wrong_schema_and_shapes() {
        let mut doc = sample_trace();
        if let Json::Obj(m) = &mut doc {
            m.insert("schema".into(), Json::Str("other/v9".into()));
        }
        assert!(validate_trace(&doc)
            .unwrap_err()
            .contains("unexpected schema"));

        let doc = Json::obj([("schema", Json::Str(TRACE_SCHEMA.into()))]);
        assert!(validate_trace(&doc).unwrap_err().contains("metrics"));

        let mut doc = sample_trace();
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Obj(metrics)) = m.get_mut("metrics") {
                metrics.insert("bad".into(), Json::Num(-1.0));
            }
        }
        assert!(validate_trace(&doc)
            .unwrap_err()
            .contains("non-negative integer"));
    }

    #[test]
    fn validator_descends_into_children() {
        let bad_child = Json::obj([
            ("label", Json::Str("x".into())),
            ("nanos", Json::Num(1.0)),
            ("count", Json::Str("not a number".into())),
            ("children", Json::Arr(vec![])),
        ]);
        let doc = Json::obj([
            ("schema", Json::Str(TRACE_SCHEMA.into())),
            ("metrics", Json::Obj(BTreeMap::new())),
            (
                "root",
                Json::obj([
                    ("label", Json::Str("r".into())),
                    ("nanos", Json::Num(0.0)),
                    ("count", Json::Num(0.0)),
                    ("children", Json::Arr(vec![bad_child])),
                ]),
            ),
        ]);
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("root.children[0]"), "{err}");
        assert!(err.contains("count"), "{err}");
    }
}
