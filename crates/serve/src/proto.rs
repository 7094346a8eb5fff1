//! The wire protocol: newline-delimited JSON requests and replies.
//!
//! One request per line, one reply per line. Every reply is a flat-ish
//! JSON object with an `"ok"` boolean; errors carry the
//! [`tnet_core::error::PipelineError`] taxonomy as
//! `{"ok":false,"error":{"kind":...,"message":...}}` so clients can
//! dispatch on the stable `kind` tag. Lines are parsed by the shared
//! [`tnet_obs::json`] parser, whose depth cap keeps a hostile request
//! from recursing the connection thread's stack and which rejects
//! duplicate keys and non-finite numbers. Schema reference: DESIGN.md
//! §12.
//!
//! Parsing also produces the **canonical query form** used as the cache
//! key: fixed field order, defaults filled in, whitespace-free — so
//! `{"op":"pattern","support":5}` and a field-reordered,
//! default-spelled-out equivalent hit the same cache entry.

use std::collections::BTreeMap;
use tnet_core::error::PipelineError;
use tnet_data::model::{Date, RawTransaction, TransMode, Transaction};
use tnet_data::od_graph::EdgeLabeling;
use tnet_graph::graph::ELabel;
use tnet_obs::json::{quote, Json};
use tnet_partition::split::Strategy;

/// Longest accepted request line, in bytes. Anything longer gets a
/// typed `protocol` error reply and the rest of the line is discarded;
/// the connection survives.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answers with the current generation id.
    Ping,
    /// The §3 dataset description of the pinned generation.
    Stats,
    /// Directed-walk support of an edge-label chain on the pinned OD
    /// graph (see `tnet_graph::traverse::count_label_walks`).
    Support {
        labeling: EdgeLabeling,
        labels: Vec<ELabel>,
    },
    /// Algorithm 1 frequent-pattern mining on the pinned generation,
    /// same knobs and defaults as `tnet mine`.
    Pattern {
        labeling: EdgeLabeling,
        strategy: Strategy,
        partitions: usize,
        support: usize,
        max_edges: usize,
        reps: usize,
        top: usize,
    },
    /// Server metrics snapshot (counters + latency quantiles).
    Trace,
    /// Batched transaction appends, forwarded to the writer.
    Ingest { records: Vec<Transaction> },
    /// Tombstone deletes by transaction id, forwarded to the writer.
    Delete { ids: Vec<u64> },
    /// Begin graceful shutdown: drain connections, flush a final
    /// generation, exit 0.
    Shutdown,
}

impl Request {
    /// The canonical cache-key form, or `None` for requests that are
    /// not cacheable (mutations, probes, and metrics reads).
    pub fn canonical(&self) -> Option<String> {
        match self {
            Request::Stats => Some("stats".to_string()),
            Request::Support { labeling, labels } => {
                let seq: Vec<String> = labels.iter().map(|l| l.0.to_string()).collect();
                Some(format!(
                    "support labeling={} labels={}",
                    labeling.name(),
                    seq.join(",")
                ))
            }
            Request::Pattern {
                labeling,
                strategy,
                partitions,
                support,
                max_edges,
                reps,
                top,
            } => Some(format!(
                "pattern labeling={} strategy={} partitions={partitions} support={support} \
                 max_edges={max_edges} reps={reps} top={top}",
                labeling.name(),
                match strategy {
                    Strategy::BreadthFirst => "bf",
                    Strategy::DepthFirst => "df",
                },
            )),
            _ => None,
        }
    }
}

/// Largest `reps` a `pattern` request may ask for. Algorithm 1 splits
/// and mines the graph once per repetition, so the bound caps the work
/// one request can queue; `tnet mine` defaults to 2.
pub const MAX_PATTERN_REPS: usize = 64;

fn perr(message: impl Into<String>) -> PipelineError {
    PipelineError::Protocol {
        message: message.into(),
    }
}

// ----------------------------------------------------------- extraction

type Fields = BTreeMap<String, Json>;

fn usize_field(fields: &Fields, key: &str, default: usize) -> Result<usize, PipelineError> {
    match fields.get(key) {
        None => Ok(default),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
            Ok(*n as usize)
        }
        Some(v) => Err(perr(format!(
            "field `{key}` must be a small non-negative integer, got {}",
            v.type_name()
        ))),
    }
}

fn num_field(fields: &Fields, key: &str) -> Result<f64, PipelineError> {
    match fields.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(v) => Err(perr(format!(
            "field `{key}` must be a number, got {}",
            v.type_name()
        ))),
        None => Err(perr(format!("missing field `{key}`"))),
    }
}

fn str_field<'v>(fields: &'v Fields, key: &str) -> Result<&'v str, PipelineError> {
    match fields.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(v) => Err(perr(format!(
            "field `{key}` must be a string, got {}",
            v.type_name()
        ))),
        None => Err(perr(format!("missing field `{key}`"))),
    }
}

fn labeling_field(fields: &Fields) -> Result<EdgeLabeling, PipelineError> {
    match fields.get("labeling") {
        None => Ok(EdgeLabeling::GrossWeight),
        Some(Json::Str(s)) => match s.as_str() {
            "gw" | "weight" => Ok(EdgeLabeling::GrossWeight),
            "th" | "hours" => Ok(EdgeLabeling::TransitHours),
            "td" | "distance" => Ok(EdgeLabeling::TotalDistance),
            other => Err(perr(format!(
                "unknown labeling `{other}` (use gw, th, or td)"
            ))),
        },
        Some(v) => Err(perr(format!(
            "field `labeling` must be a string, got {}",
            v.type_name()
        ))),
    }
}

fn record_field(fields: &Fields) -> Result<Transaction, PipelineError> {
    let mode = match fields.get("mode") {
        None => TransMode::Truckload,
        Some(Json::Str(s)) => TransMode::parse(s)
            .ok_or_else(|| perr(format!("unknown mode `{s}` (use TL or LTL)")))?,
        Some(v) => {
            return Err(perr(format!(
                "field `mode` must be a string, got {}",
                v.type_name()
            )))
        }
    };
    let day = num_field(fields, "pickup")?;
    if !(0.0..=u32::MAX as f64).contains(&day) || day.fract() != 0.0 {
        return Err(perr("field `pickup` must be a whole day number"));
    }
    let pickup = Date(day as u32);
    let delivery = match fields.get("delivery") {
        None => pickup,
        Some(Json::Num(n)) if (0.0..=u32::MAX as f64).contains(n) && n.fract() == 0.0 => {
            Date(*n as u32)
        }
        Some(_) => return Err(perr("field `delivery` must be a whole day number")),
    };
    let id = num_field(fields, "id")?;
    if !(0.0..=u64::MAX as f64).contains(&id) || id.fract() != 0.0 {
        return Err(perr("field `id` must be a non-negative integer"));
    }
    // The same checks CSV ingest applies, so a record the daemon
    // acknowledges (and logs to the WAL) is one recovery can replay.
    RawTransaction {
        id: id as u64,
        req_pickup: pickup,
        req_delivery: delivery,
        origin: (num_field(fields, "olat")?, num_field(fields, "olon")?),
        dest: (num_field(fields, "dlat")?, num_field(fields, "dlon")?),
        total_distance: num_field(fields, "distance")?,
        gross_weight: num_field(fields, "weight")?,
        transit_hours: num_field(fields, "hours")?,
        mode,
    }
    .validate()
    .map_err(perr)
}

/// Parses one request line. All protocol violations come back as
/// [`PipelineError::Protocol`] so the server can reply without killing
/// the connection.
pub fn parse_request(line: &str) -> Result<Request, PipelineError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(perr(format!(
            "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
            line.len()
        )));
    }
    let parsed = Json::parse(line).map_err(|e| perr(e.to_string()))?;
    let Json::Obj(fields) = parsed else {
        return Err(perr("request must be a JSON object"));
    };
    match str_field(&fields, "op")? {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace),
        "shutdown" => Ok(Request::Shutdown),
        "support" => {
            let labels = match fields.get("labels") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                            Ok(ELabel(*n as u32))
                        }
                        other => Err(perr(format!(
                            "`labels` entries must be bin indices, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(perr(format!(
                        "field `labels` must be an array, got {}",
                        v.type_name()
                    )))
                }
                None => return Err(perr("missing field `labels`")),
            };
            Ok(Request::Support {
                labeling: labeling_field(&fields)?,
                labels,
            })
        }
        "pattern" => {
            let strategy = match fields.get("strategy") {
                None => Strategy::BreadthFirst,
                Some(Json::Str(s)) => match s.as_str() {
                    "bf" | "breadth" => Strategy::BreadthFirst,
                    "df" | "depth" => Strategy::DepthFirst,
                    other => return Err(perr(format!("unknown strategy `{other}` (bf|df)"))),
                },
                Some(v) => {
                    return Err(perr(format!(
                        "field `strategy` must be a string, got {}",
                        v.type_name()
                    )))
                }
            };
            let support = usize_field(&fields, "support", 5)?;
            if support == 0 {
                return Err(perr("field `support` must be at least 1"));
            }
            let reps = usize_field(&fields, "reps", 2)?.max(1);
            if reps > MAX_PATTERN_REPS {
                return Err(perr(format!(
                    "field `reps` must be at most {MAX_PATTERN_REPS}, got {reps}"
                )));
            }
            Ok(Request::Pattern {
                labeling: labeling_field(&fields)?,
                strategy,
                partitions: usize_field(&fields, "partitions", 16)?.max(1),
                support,
                max_edges: usize_field(&fields, "max_edges", 5)?.max(1),
                reps,
                top: usize_field(&fields, "top", 15)?,
            })
        }
        "ingest" => {
            let records = match fields.get("records") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        Json::Obj(rec) => record_field(rec),
                        other => Err(perr(format!(
                            "`records` entries must be objects, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(perr(format!(
                        "field `records` must be an array, got {}",
                        v.type_name()
                    )))
                }
                None => return Err(perr("missing field `records`")),
            };
            Ok(Request::Ingest { records })
        }
        "delete" => {
            let ids = match fields.get("ids") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
                        other => Err(perr(format!(
                            "`ids` entries must be transaction ids, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(perr(format!(
                        "field `ids` must be an array, got {}",
                        v.type_name()
                    )))
                }
                None => return Err(perr("missing field `ids`")),
            };
            Ok(Request::Delete { ids })
        }
        other => Err(perr(format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------- serialization

/// The one-line error reply for `err`.
pub fn error_reply(err: &PipelineError) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":{},\"message\":{}}}}}",
        quote(err.kind()),
        quote(&err.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_obs::json::MAX_DEPTH;

    #[test]
    fn parses_simple_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#" {"op": "stats"} "#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn pattern_defaults_match_tnet_mine() {
        let r = parse_request(r#"{"op":"pattern"}"#).unwrap();
        assert_eq!(
            r,
            Request::Pattern {
                labeling: EdgeLabeling::GrossWeight,
                strategy: Strategy::BreadthFirst,
                partitions: 16,
                support: 5,
                max_edges: 5,
                reps: 2,
                top: 15,
            }
        );
    }

    #[test]
    fn reps_up_to_the_protocol_bound_are_accepted() {
        let line = format!(r#"{{"op":"pattern","reps":{MAX_PATTERN_REPS}}}"#);
        let Request::Pattern { reps, .. } = parse_request(&line).unwrap() else {
            panic!("not a pattern request");
        };
        assert_eq!(reps, MAX_PATTERN_REPS);
    }

    #[test]
    fn canonical_form_is_field_order_independent() {
        let a = parse_request(r#"{"op":"pattern","support":3,"labeling":"th"}"#).unwrap();
        let b = parse_request(r#"{"labeling":"hours","op":"pattern","support":3}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        let c = parse_request(r#"{"op":"pattern","support":4,"labeling":"th"}"#).unwrap();
        assert_ne!(a.canonical(), c.canonical());
        // Defaults spelled out canonicalize the same as defaults omitted.
        let d = parse_request(r#"{"op":"pattern","support":5}"#).unwrap();
        let e = parse_request(r#"{"op":"pattern"}"#).unwrap();
        assert_eq!(d.canonical(), e.canonical());
    }

    #[test]
    fn mutations_are_not_cacheable() {
        let r = parse_request(r#"{"op":"delete","ids":[1,2]}"#).unwrap();
        assert_eq!(r.canonical(), None);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().canonical(), None);
        assert_eq!(
            parse_request(r#"{"op":"trace"}"#).unwrap().canonical(),
            None
        );
    }

    #[test]
    fn support_request_round_trip() {
        let r = parse_request(r#"{"op":"support","labeling":"td","labels":[2,0,1]}"#).unwrap();
        assert_eq!(
            r,
            Request::Support {
                labeling: EdgeLabeling::TotalDistance,
                labels: vec![ELabel(2), ELabel(0), ELabel(1)],
            }
        );
        assert_eq!(
            r.canonical().unwrap(),
            "support labeling=OD_TD labels=2,0,1"
        );
    }

    #[test]
    fn ingest_records_parse() {
        let line = r#"{"op":"ingest","records":[{"id":7,"pickup":733000,"delivery":733002,
            "olat":33.7,"olon":-84.4,"dlat":35.1,"dlon":-90.0,
            "distance":380.5,"weight":25000.0,"hours":9.5,"mode":"TL"}]}"#
            .replace('\n', " ");
        let Request::Ingest { records } = parse_request(&line).unwrap() else {
            panic!("not ingest");
        };
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, 7);
        assert_eq!(records[0].req_pickup, Date(733000));
        assert_eq!(records[0].mode, TransMode::Truckload);
        assert!((records[0].total_distance - 380.5).abs() < 1e-9);
    }

    #[test]
    fn malformed_lines_become_protocol_errors() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"support"}"#,
            r#"{"op":"support","labels":["x"]}"#,
            r#"{"op":"pattern","support":0}"#,
            r#"{"op":"pattern","reps":65}"#,
            r#"{"op":"pattern","reps":4294967295}"#,
            r#"{"op":"ping"} trailing"#,
            r#"{"op":"ingest","records":[{"id":1}]}"#,
            r#"{"op":"pattern","labeling":"zz"}"#,
            &format!(
                "{}{}",
                r#"{"op":"ping","pad":""#,
                "x".repeat(MAX_LINE_BYTES)
            ),
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind(), "protocol", "input: {:.60}", bad);
        }
    }

    /// Ingest records get the CSV reader's checks, and the shared
    /// parser's duplicate-key and overflow rules apply to every line.
    #[test]
    fn invalid_ingest_records_and_ambiguous_lines_are_rejected() {
        let record = |extra: &str| {
            format!(
                r#"{{"op":"ingest","records":[{{"id":7,"pickup":733000,"olat":33.7,"olon":-84.4,"dlat":35.1,"dlon":-90.0,"distance":380.5,"hours":9.5,{extra}}}]}}"#
            )
        };
        assert!(parse_request(&record(r#""weight":25000.0"#)).is_ok());
        for (extra, want) in [
            (r#""weight":1e309"#, "infinity"),
            (r#""weight":-1"#, "negative weight"),
            (r#""weight":1,"delivery":732999"#, "precedes"),
            (r#""weight":1,"weight":2"#, "duplicate key"),
        ] {
            let err = parse_request(&record(extra)).unwrap_err();
            assert_eq!(err.kind(), "protocol", "{extra}");
            assert!(err.to_string().contains(want), "{extra}: {err}");
        }
        let err = parse_request(r#"{"op":"ping","op":"shutdown"}"#).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let line = format!(r#"{{"op":{}1{}}}"#, "[".repeat(40), "]".repeat(40));
        assert_eq!(parse_request(&line).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn error_reply_is_one_line_typed_json() {
        let err = PipelineError::Protocol {
            message: "unknown op `x`\nboom".into(),
        };
        let reply = error_reply(&err);
        assert!(!reply.contains('\n'), "reply must stay one line");
        assert!(reply.starts_with(r#"{"ok":false,"error":{"kind":"protocol""#));
        assert!(reply.contains("\\n"), "newlines escaped, not emitted");
        let o = Json::parse(&reply).unwrap();
        assert_eq!(o.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndA".to_string()));
        let s = quote("a\"b\\c\nd");
        assert_eq!(
            Json::parse(&s).unwrap(),
            Json::Str("a\"b\\c\nd".to_string())
        );
    }

    /// Checks the never-panic contract for one line and, on failure,
    /// that the error reply is itself one line of well-formed JSON.
    fn assert_never_panics(line: &str) {
        if let Err(e) = parse_request(line) {
            let reply = error_reply(&e);
            assert!(!reply.contains('\n'), "multi-line error reply for {line:?}");
            let o = Json::parse(&reply).expect("error reply re-parses");
            assert_eq!(o.get("ok"), Some(&Json::Bool(false)), "for {line:?}");
        }
    }

    /// The dependency-free half of the fuzz suite (the proptest half is
    /// `tests/prop.rs`, gated behind the `prop` feature): a fixed-seed
    /// LCG drives random byte lines — embedded NULs, control bytes,
    /// bracket storms — through the parser. Deterministic, so a
    /// regression reproduces identically in CI.
    #[test]
    fn deterministic_fuzz_never_panics() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            // SplitMix64: dependency-free, full-period, well-mixed.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Pure random bytes, lossily decoded like the connection thread
        // does with non-UTF-8 input.
        for _ in 0..2_000 {
            let len = (next() % 256) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            assert_never_panics(&String::from_utf8_lossy(&bytes));
        }
        // Structure-biased lines: random draws from the protocol's own
        // alphabet, which reach much deeper into the parser.
        const ALPHABET: &[&str] = &[
            "{", "}", "[", "]", "\"", "\\", ":", ",", "\u{0}", "op", "\"op\"", "ping", "ingest",
            "records", "null", "true", "-", "1e309", "0.5", "\\u0041", "\\uZZZZ", " ", "\"id\"",
        ];
        for _ in 0..2_000 {
            let parts = (next() % 48) as usize;
            let line: String = (0..parts)
                .map(|_| ALPHABET[(next() as usize) % ALPHABET.len()])
                .collect();
            assert_never_panics(&line);
        }
        // Mutation fuzz: valid requests with random single-byte edits.
        let seeds = [
            r#"{"op":"ping"}"#.to_string(),
            r#"{"op":"support","labeling":"gw","labels":[0,1,2]}"#.to_string(),
            r#"{"op":"pattern","partitions":4,"support":2,"max_edges":3}"#.to_string(),
            r#"{"op":"ingest","records":[{"id":7,"pickup":733000,"olat":33.7,"olon":-84.4,"dlat":35.1,"dlon":-90.0,"distance":380.5,"weight":25000.0,"hours":9.5}]}"#.to_string(),
        ];
        for _ in 0..2_000 {
            let mut bytes = seeds[(next() as usize) % seeds.len()].clone().into_bytes();
            for _ in 0..=(next() % 3) {
                let at = (next() as usize) % bytes.len();
                bytes[at] = (next() & 0xFF) as u8;
            }
            assert_never_panics(&String::from_utf8_lossy(&bytes));
        }
        // Nesting storms beyond MAX_DEPTH must error, never overflow.
        for depth in [MAX_DEPTH + 1, 64, 1024, 4096] {
            let arr = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            assert_eq!(parse_request(&arr).unwrap_err().kind(), "protocol");
            let obj = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            assert_eq!(parse_request(&obj).unwrap_err().kind(), "protocol");
        }
    }
}
