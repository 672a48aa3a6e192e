//! `benchdiff` — compares a freshly emitted `BENCH_serve.json` against
//! the committed baseline and fails CI on a throughput regression.
//!
//! ```text
//! benchdiff --baseline BENCH_serve.json --current BENCH_serve.pr.json \
//!     [--threshold-pct 15] [--allow-regression]
//! ```
//!
//! The gate is on `sustained_frames_per_sec`: the current run must stay
//! within `threshold-pct` (default 15%) of the committed baseline.
//! Improvements always pass (and are reported, so a stale baseline is
//! visible). `--allow-regression` downgrades a failure to a warning for
//! intentional trade-offs — CI passes it when the commit message carries
//! the `[bench: allow-regression]` marker (see `.github/workflows/ci.yml`).
//!
//! Exit codes: 0 pass (or allowed regression), 1 regression, 2 usage or
//! unreadable/invalid artifact.

use std::process::ExitCode;

use laelaps_bench::json::Json;

const DEFAULT_THRESHOLD_PCT: f64 = 15.0;
const GATED_METRIC: &str = "sustained_frames_per_sec";

/// Everything `main` needs, parsed from argv.
struct Args {
    baseline: String,
    current: String,
    threshold_pct: f64,
    allow_regression: bool,
}

fn usage() -> String {
    "usage: benchdiff --baseline <path> --current <path> \
     [--threshold-pct <percent>] [--allow-regression]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut allow_regression = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(it.next().ok_or_else(usage)?.clone()),
            "--current" => current = Some(it.next().ok_or_else(usage)?.clone()),
            "--threshold-pct" => {
                let raw = it.next().ok_or_else(usage)?;
                threshold_pct = raw
                    .parse::<f64>()
                    .map_err(|_| format!("bad --threshold-pct {raw:?}"))?;
                if !threshold_pct.is_finite() || threshold_pct < 0.0 {
                    return Err(format!("bad --threshold-pct {raw:?}"));
                }
            }
            "--allow-regression" => allow_regression = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or_else(usage)?,
        current: current.ok_or_else(usage)?,
        threshold_pct,
        allow_regression,
    })
}

/// The verdict for one metric comparison, ready to render.
struct Diff {
    baseline: f64,
    current: f64,
    /// Signed change in percent; negative means the current run is slower.
    delta_pct: f64,
    regressed: bool,
}

/// Workload-shape fields that must match between the two artifacts: a
/// 64-session run against a 256-session baseline is not a regression
/// signal, it is a configuration error — report it as one (exit 2)
/// instead of a spurious FAIL.
const CONFIG_FIELDS: &[&str] = &[
    "schema",
    "mode",
    "arrival",
    "sessions",
    "model_pool",
    "dim",
    "electrodes",
    "chunks_per_session",
];

/// Ensures both artifacts describe the same workload.
fn check_comparable(baseline: &Json, current: &Json) -> Result<(), String> {
    for field in CONFIG_FIELDS {
        let (b, c) = (baseline.get(field), current.get(field));
        if b != c {
            return Err(format!(
                "artifacts are not comparable: {field:?} is {} in the baseline but {} \
                 in the current run — regenerate one side with the other's loadgen flags",
                b.map_or("absent".to_string(), Json::render),
                c.map_or("absent".to_string(), Json::render),
            ));
        }
    }
    Ok(())
}

/// Compares the gated metric between two parsed artifacts.
///
/// Pure so the policy is unit-testable: `threshold_pct` bounds how far
/// below baseline the current value may fall.
fn diff_metric(baseline: &Json, current: &Json, threshold_pct: f64) -> Result<Diff, String> {
    let read = |doc: &Json, which: &str| -> Result<f64, String> {
        let value = doc
            .get(GATED_METRIC)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{which} artifact has no numeric {GATED_METRIC:?} field"))?;
        if !value.is_finite() || value <= 0.0 {
            return Err(format!(
                "{which} {GATED_METRIC} is not a positive number: {value}"
            ));
        }
        Ok(value)
    };
    let base = read(baseline, "baseline")?;
    let cur = read(current, "current")?;
    let delta_pct = (cur - base) / base * 100.0;
    Ok(Diff {
        baseline: base,
        current: cur,
        delta_pct,
        regressed: delta_pct < -threshold_pct,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchdiff: {msg}");
            return ExitCode::from(2);
        }
    };
    let loaded = load(&args.baseline).and_then(|base| Ok((base, load(&args.current)?)));
    let (base_doc, cur_doc) = match loaded {
        Ok(pair) => pair,
        Err(msg) => {
            eprintln!("benchdiff: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = check_comparable(&base_doc, &cur_doc) {
        eprintln!("benchdiff: {msg}");
        return ExitCode::from(2);
    }
    let diff = match diff_metric(&base_doc, &cur_doc, args.threshold_pct) {
        Ok(diff) => diff,
        Err(msg) => {
            eprintln!("benchdiff: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "benchdiff: {GATED_METRIC}: baseline {:.0}, current {:.0} ({:+.1}%), \
         threshold -{:.1}%",
        diff.baseline, diff.current, diff.delta_pct, args.threshold_pct
    );
    if diff.regressed {
        if args.allow_regression {
            println!(
                "benchdiff: REGRESSION beyond threshold, allowed by --allow-regression \
                 — remember to refresh the committed baseline if this is the new normal"
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "benchdiff: FAIL — {GATED_METRIC} regressed {:.1}% (limit {:.1}%). \
             If intentional, add `[bench: allow-regression]` to the commit message \
             and refresh {}",
            -diff.delta_pct, args.threshold_pct, args.baseline
        );
        return ExitCode::FAILURE;
    }
    if diff.delta_pct > args.threshold_pct {
        println!(
            "benchdiff: improvement beyond threshold — consider refreshing the \
             committed baseline so the gate keeps teeth"
        );
    }
    println!("benchdiff: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(fps: f64) -> Json {
        Json::obj([
            ("schema", Json::Str("laelaps-bench/serve-load/v1".into())),
            (GATED_METRIC, Json::Num(fps)),
        ])
    }

    #[test]
    fn within_threshold_passes_both_directions() {
        for cur in [860_000.0, 1_000_000.0, 1_140_000.0] {
            let d = diff_metric(&artifact(1_000_000.0), &artifact(cur), 15.0).unwrap();
            assert!(!d.regressed, "{cur} should pass");
        }
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let d = diff_metric(&artifact(1_000_000.0), &artifact(840_000.0), 15.0).unwrap();
        assert!(d.regressed);
        assert!(d.delta_pct < -15.0);
    }

    #[test]
    fn improvements_never_fail() {
        let d = diff_metric(&artifact(1_000_000.0), &artifact(3_000_000.0), 15.0).unwrap();
        assert!(!d.regressed);
        assert!(d.delta_pct > 15.0);
    }

    #[test]
    fn missing_or_bad_metric_is_an_error_not_a_pass() {
        let empty = Json::obj([("schema", Json::Str("x".into()))]);
        assert!(diff_metric(&empty, &artifact(1.0), 15.0).is_err());
        assert!(diff_metric(&artifact(1.0), &empty, 15.0).is_err());
        let zero = artifact(0.0);
        assert!(diff_metric(&zero, &artifact(1.0), 15.0).is_err());
    }

    #[test]
    fn args_parse_flags_and_reject_garbage() {
        let ok = parse_args(&[
            "--baseline".into(),
            "a.json".into(),
            "--current".into(),
            "b.json".into(),
            "--threshold-pct".into(),
            "10".into(),
            "--allow-regression".into(),
        ])
        .unwrap();
        assert_eq!(ok.baseline, "a.json");
        assert_eq!(ok.current, "b.json");
        assert_eq!(ok.threshold_pct, 10.0);
        assert!(ok.allow_regression);
        assert!(parse_args(&["--baseline".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
        assert!(parse_args(&[
            "--baseline".into(),
            "a".into(),
            "--current".into(),
            "b".into(),
            "--threshold-pct".into(),
            "-3".into(),
        ])
        .is_err());
    }

    #[test]
    fn mismatched_workloads_refuse_to_compare() {
        let a = Json::obj([
            ("schema", Json::Str("laelaps-bench/serve-load/v1".into())),
            ("sessions", Json::num_u64(256)),
            (GATED_METRIC, Json::Num(2_000_000.0)),
        ]);
        let b = Json::obj([
            ("schema", Json::Str("laelaps-bench/serve-load/v1".into())),
            ("sessions", Json::num_u64(64)),
            (GATED_METRIC, Json::Num(1_000_000.0)),
        ]);
        let err = check_comparable(&a, &b).unwrap_err();
        assert!(err.contains("sessions"), "{err}");
        assert!(check_comparable(&a, &a).is_ok());
    }

    #[test]
    fn the_committed_baseline_matches_the_ci_loadgen_config() {
        // CI's bench-diff step emits BENCH_serve.pr.json with the
        // loadgen *defaults* (256 sessions, 4 models, 10 s/session) and
        // diffs it against the committed baseline; the baseline must
        // have been generated with that same workload shape or the gate
        // dies with a config error on every run.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("committed baseline"))
            .expect("valid JSON");
        assert_eq!(doc.get("sessions").and_then(Json::as_f64), Some(256.0));
        assert_eq!(doc.get("model_pool").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            doc.get("chunks_per_session").and_then(Json::as_f64),
            Some(20.0)
        );
        assert_eq!(
            doc.get("mode").and_then(Json::as_str),
            Some("in-process"),
            "baseline must be an in-process run like CI's"
        );
    }

    #[test]
    fn reads_the_committed_baseline_artifact() {
        // The real committed artifact must stay parseable and gate-able,
        // or the CI bench-diff step would pass vacuously.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("committed baseline"))
            .expect("valid JSON");
        let d = diff_metric(&doc, &doc, 15.0).expect("self-diff");
        assert_eq!(d.delta_pct, 0.0);
        assert!(!d.regressed);
    }
}
