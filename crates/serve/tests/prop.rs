//! Property-based fuzzing of the wire-protocol parser.
//!
//! The daemon feeds `parse_request` whatever bytes arrive on a public
//! TCP port, so the parser's contract is absolute: for ANY input —
//! embedded NULs, truncated escapes, over-length lines, pathological
//! nesting — it must return `Ok(Request)` or a typed
//! `PipelineError::Protocol`, and never panic, hang, or recurse out of
//! stack. The deterministic sibling of this suite (no external deps)
//! lives in proto.rs's unit tests; this one drives the same invariant
//! with proptest's generators and shrinking.

// Gated: needs the external `proptest` crate (see the `prop` feature
// note in Cargo.toml). Off by default so the workspace builds offline.
#![cfg(feature = "prop")]
use proptest::prelude::*;
use tnet_obs::json::Json;
use tnet_serve::proto::{error_reply, parse_request, MAX_LINE_BYTES};

/// Any reply the daemon would send for `line` must itself be one line
/// of well-formed protocol JSON with `"ok":false` and a `kind` tag.
fn assert_wellformed_error(line: &str) {
    if let Err(e) = parse_request(line) {
        let reply = error_reply(&e);
        assert!(!reply.contains('\n'), "error reply must stay one line");
        let parsed = Json::parse(&reply).expect("error reply must re-parse");
        assert_eq!(
            parsed.get("ok"),
            Some(&Json::Bool(false)),
            "error reply missing ok:false: {reply}"
        );
    }
}

proptest! {
    /// Arbitrary UTF-8 (including NULs and control bytes) never panics
    /// the parser, and every failure renders a well-formed error reply.
    #[test]
    fn arbitrary_utf8_never_panics(line in "\\PC*") {
        assert_wellformed_error(&line);
    }

    /// Arbitrary raw bytes, lossily decoded the way the connection
    /// thread does it, never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let line = String::from_utf8_lossy(&bytes);
        assert_wellformed_error(&line);
    }

    /// Structured-ish garbage: JSON-looking fragments with embedded
    /// NULs, quotes, braces, and backslashes in random arrangements.
    #[test]
    fn jsonish_garbage_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("{".to_string()), Just("}".to_string()),
            Just("[".to_string()), Just("]".to_string()),
            Just("\"".to_string()), Just("\\".to_string()),
            Just(":".to_string()), Just(",".to_string()),
            Just("\u{0}".to_string()), Just("op".to_string()),
            Just("\"op\"".to_string()), Just("ingest".to_string()),
            Just("1e309".to_string()), Just("-0".to_string()),
            Just("null".to_string()), Just("\\u0000".to_string()),
        ], 0..64)) {
        let line: String = parts.concat();
        assert_wellformed_error(&line);
    }

    /// Deep nesting far beyond MAX_DEPTH is rejected with a typed
    /// error, not a stack overflow — whatever bracket mix arrives.
    #[test]
    fn deep_nesting_is_rejected_not_fatal(depth in 9usize..2000, open_brace in any::<bool>()) {
        let (open, close) = if open_brace { ("{\"k\":", "}") } else { ("[", "]") };
        let line = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        let err = parse_request(&line).unwrap_err();
        prop_assert_eq!(err.kind(), "protocol");
    }

    /// Over-length lines (beyond MAX_LINE_BYTES) are refused with a
    /// typed error no matter the content.
    #[test]
    fn overlength_lines_are_refused(pad in 1usize..4096) {
        let line = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "y".repeat(MAX_LINE_BYTES + pad));
        let err = parse_request(&line).unwrap_err();
        prop_assert_eq!(err.kind(), "protocol");
    }

    /// Valid ingest records round-trip whatever finite numbers they
    /// carry — the happy path stays happy under random field values.
    #[test]
    fn valid_ingest_always_parses(
        id in 0u64..1_000_000,
        pickup in 0u32..1_000_000,
        olat in -90.0f64..90.0, olon in -180.0f64..180.0,
        dlat in -90.0f64..90.0, dlon in -180.0f64..180.0,
        distance in 0.0f64..10_000.0,
        weight in 0.0f64..100_000.0,
        hours in 0.0f64..200.0,
    ) {
        let line = format!(
            "{{\"op\":\"ingest\",\"records\":[{{\"id\":{id},\"pickup\":{pickup},\
             \"olat\":{olat},\"olon\":{olon},\"dlat\":{dlat},\"dlon\":{dlon},\
             \"distance\":{distance},\"weight\":{weight},\"hours\":{hours}}}]}}"
        );
        let req = parse_request(&line).unwrap();
        let tnet_serve::Request::Ingest { records } = req else {
            return Err(TestCaseError::fail("not an ingest"));
        };
        prop_assert_eq!(records.len(), 1);
        prop_assert_eq!(records[0].id, id);
    }
}
