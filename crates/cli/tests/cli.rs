//! End-to-end tests of the `tnet` binary: spawn the real executable and
//! check exit codes and output shape (generate → stats → mine round
//! trip through an actual CSV file on disk), plus the exit-code
//! contract — 0 success, 1 runtime failure, 2 usage error — and the
//! supervised report under an armed failpoint.

use std::process::Command;

fn tnet() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tnet"));
    // Isolate from any failpoints armed in the invoking environment.
    cmd.env_remove("TNET_FAILPOINTS");
    cmd
}

fn run_ok(args: &[&str]) -> String {
    let out = tnet().args(args).output().expect("spawn tnet");
    assert!(
        out.status.success(),
        "tnet {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn help_lists_commands() {
    let text = run_ok(&["help"]);
    for cmd in [
        "gen", "stats", "mine", "subdue", "temporal", "lanes", "report",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_is_usage_error() {
    let out = tnet().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.starts_with("error: "), "{err}");
}

#[test]
fn unparseable_value_is_usage_error() {
    let out = tnet()
        .args(["stats", "--scale", "notanumber"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
}

#[test]
fn non_boolean_value_is_usage_error() {
    for (args, key) in [
        (
            &[
                "temporal",
                "--scale",
                "0.005",
                "--granularity",
                "day",
                "--verbose",
                "yes",
            ][..],
            "--verbose",
        ),
        (
            &["mine", "--scale", "0.005", "--maximal", "1"][..],
            "--maximal",
        ),
        (
            &["report", "--scale", "0.005", "--extensions", "no"][..],
            "--extensions",
        ),
    ] {
        let out = tnet().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "tnet {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: ") && err.contains(key), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line stderr, got:\n{err}");
    }
}

/// Values that parse but are out of range are usage errors too: exit 2
/// with one stderr line naming the option, never a panic (exit 101).
#[test]
fn out_of_range_value_is_usage_error() {
    for (args, key) in [
        (&["report", "--scale", "0"][..], "--scale"),
        (&["report", "--scale", "1.5"][..], "--scale"),
        (&["report", "--scale", "NaN"][..], "--scale"),
        (
            &["gen", "--scale", "NaN", "--out", "/dev/null"][..],
            "--scale",
        ),
        (&["mine", "--scale", "0.005", "--reps", "0"][..], "--reps"),
        (
            &["mine", "--scale", "0.005", "--partitions", "0"][..],
            "--partitions",
        ),
        (&["subdue", "--scale", "0.005", "--beam", "0"][..], "--beam"),
        (&["subdue", "--scale", "0.005", "--best", "0"][..], "--best"),
        (
            &["lanes", "--scale", "0.005", "--max-len", "1"][..],
            "--max-len",
        ),
        (
            &["lanes", "--scale", "0.005", "--max-sep", "-1"][..],
            "--max-sep",
        ),
    ] {
        let out = tnet().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "tnet {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: ") && err.contains(key), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line stderr, got:\n{err}");
    }
}

/// `mine --partitions 4294967295` runs to completion: the split holds at
/// most one transaction per edge, however many partitions are asked for.
#[test]
fn huge_partition_count_is_bounded_by_the_edge_count() {
    run_ok(&[
        "mine",
        "--scale",
        "0.005",
        "--partitions",
        "4294967295",
        "--reps",
        "1",
    ]);
}

#[test]
fn missing_input_file_is_runtime_error() {
    let out = tnet()
        .args(["stats", "--input", "/nonexistent/data.csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "I/O failure is runtime");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line stderr, got:\n{err}");
}

#[test]
fn malformed_csv_is_runtime_error_with_line_number() {
    let dir = std::env::temp_dir().join(format!("tnet_cli_badcsv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.csv");
    std::fs::write(
        &path,
        format!("{}\nnot,enough,fields\n", tnet_data::csv::HEADER),
    )
    .unwrap();
    let out = tnet()
        .args(["stats", "--input", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    // File-line numbering: the header is line 1, the broken row line 2.
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_with_injected_panic_still_succeeds() {
    // One section panics; the supervisor isolates it, every other
    // section renders, and the command still exits 0.
    let out = tnet()
        .args([
            "report",
            "--scale",
            "0.008",
            "--extensions",
            "false",
            "--threads",
            "2",
        ])
        .env("TNET_FAILPOINTS", "em::iteration=panic")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("!! section failed:"),
        "missing failure notice:\n{stdout}"
    );
    assert!(
        stdout.contains("sections: 12 ok, 0 degraded, 1 failed"),
        "missing summary:\n{stdout}"
    );
}

#[test]
fn gen_stats_mine_roundtrip() {
    let dir = std::env::temp_dir().join(format!("tnet_cli_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let csv_str = csv.to_str().unwrap();

    let gen_out = run_ok(&["gen", "--scale", "0.01", "--seed", "7", "--out", csv_str]);
    assert!(gen_out.contains("wrote"), "gen output: {gen_out}");
    assert!(csv.exists());

    let stats_out = run_ok(&["stats", "--input", csv_str]);
    assert!(stats_out.contains("distinct OD pairs"));
    assert!(stats_out.contains("out-degree"));

    let mine_out = run_ok(&[
        "mine",
        "--input",
        csv_str,
        "--partitions",
        "6",
        "--support",
        "3",
        "--max-edges",
        "3",
        "--reps",
        "1",
    ]);
    assert!(mine_out.contains("frequent patterns"), "mine: {mine_out}");
    assert!(mine_out.contains("support"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subdue_runs_on_synthetic() {
    let out = run_ok(&[
        "subdue",
        "--scale",
        "0.01",
        "--vertices",
        "20",
        "--eval",
        "size",
        "--max-size",
        "6",
    ]);
    assert!(out.contains("truncated graph"));
    assert!(out.contains("#1:"), "expected a best substructure: {out}");
}

#[test]
fn lanes_runs_on_synthetic() {
    let out = run_ok(&["lanes", "--scale", "0.02"]);
    assert!(out.contains("periodic lanes"));
    assert!(out.contains("route patterns"));
}

#[test]
fn bad_option_reports_error() {
    let out = tnet().args(["stats", "--nonsense", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

/// A pathologically nested `--input` document is refused by the shared
/// parser's depth cap — exit 1, one stderr line — instead of
/// overflowing the stack.
#[test]
fn deeply_nested_trace_is_a_one_line_runtime_error() {
    let dir = std::env::temp_dir().join(format!("tnet_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(
        &path,
        format!("{}{}", "[".repeat(200_000), "]".repeat(200_000)),
    )
    .unwrap();
    let out = tnet()
        .args(["trace", "--input", path.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line stderr, got:\n{err}");
    assert!(err.contains("nested deeper"), "{err}");
}

/// A span label needing every kind of escape survives the writer, the
/// parser, the validator, and `tnet trace` unchanged.
#[test]
fn escaped_span_label_round_trips_through_tnet_trace() {
    use tnet_obs::json::Json;
    let label = "a\"b\\c\nd\u{1}é";
    let tracer = tnet_obs::Tracer::new("mine");
    {
        let total = tracer.root().timer();
        let _phase = total.span().time(label);
    }
    let doc = tnet_obs::trace_to_json(&tracer.snapshot(), &Default::default());
    let text = doc.pretty();
    let back = Json::parse(&text).unwrap();
    assert_eq!(back, doc);
    tnet_obs::validate_trace(&back).unwrap();
    let child = &back.get("root").and_then(|r| r.get("children")).unwrap();
    let Json::Arr(children) = child else {
        panic!("children not an array: {child:?}");
    };
    assert_eq!(children[0].get("label"), Some(&Json::Str(label.into())));

    let dir = std::env::temp_dir().join(format!("tnet_cli_label_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    std::fs::write(&path, &text).unwrap();
    let summary = run_ok(&["trace", "--input", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(summary.contains(label), "{summary}");
}

/// JSON has no infinities or NaN: the writer emits `null` for them, so
/// whatever it writes parses back.
#[test]
fn json_writer_emits_null_for_non_finite_numbers() {
    use tnet_obs::json::Json;
    let doc = Json::obj([
        ("inf", Json::Num(f64::INFINITY)),
        ("nan", Json::Num(f64::NAN)),
        ("neg_inf", Json::Num(f64::NEG_INFINITY)),
    ]);
    let text = doc.pretty();
    assert_eq!(
        text,
        "{\n  \"inf\": null,\n  \"nan\": null,\n  \"neg_inf\": null\n}\n"
    );
    assert!(Json::parse(&text).is_ok());
}
