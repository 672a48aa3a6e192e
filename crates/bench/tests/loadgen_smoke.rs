//! Smoke-scale run of the `loadgen` cohort harness: the binary must
//! complete a small closed-loop workload, write the JSON artifact, and
//! the artifact must satisfy the `laelaps-bench/serve-load/v1` schema —
//! the same gate CI applies to its uploaded artifact.

use laelaps_bench::json::Json;
use std::process::Command;

/// Every field the schema promises, with its expected shape.
fn check_schema(doc: &Json) {
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("laelaps-bench/serve-load/v1"),
        "schema tag"
    );
    for key in ["mode", "arrival"] {
        assert!(doc.get(key).and_then(Json::as_str).is_some(), "{key}");
    }
    for key in [
        "sessions",
        "model_pool",
        "dim",
        "electrodes",
        "chunks_per_session",
        "wall_seconds",
        "signal_seconds",
        "realtime_multiple",
        "sustained_frames_per_sec",
        "frames_offered",
        "frames_in",
        "frames_processed",
        "frames_dropped",
        "frames_refused",
        "events_out",
        "alarms_out",
        "max_drain_micros",
        "recent_frames_per_sec",
    ] {
        let value = doc
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{key} is a number"));
        assert!(value >= 0.0, "{key} is non-negative");
    }
    assert!(
        doc.get("telemetry_enabled")
            .and_then(Json::as_bool)
            .is_some(),
        "telemetry_enabled"
    );

    let stages = doc
        .get("stages")
        .and_then(Json::as_array)
        .expect("stages is an array");
    assert_eq!(stages.len(), 10, "one row per hot-path stage");
    for row in stages {
        assert!(row.get("stage").and_then(Json::as_str).is_some());
        for key in ["count", "mean_us", "p50_us", "p99_us", "p999_us", "max_us"] {
            assert!(
                row.get(key).and_then(Json::as_f64).is_some(),
                "stage row has {key}"
            );
        }
        let p50 = row.get("p50_us").unwrap().as_f64().unwrap();
        let p99 = row.get("p99_us").unwrap().as_f64().unwrap();
        let p999 = row.get("p999_us").unwrap().as_f64().unwrap();
        let max = row.get("max_us").unwrap().as_f64().unwrap();
        assert!(
            p50 <= p99 && p99 <= p999 && p999 <= max,
            "ordered quantiles"
        );
    }

    // The health object is always present — enabled or not — so the
    // schema stays one shape regardless of the `--health` flag.
    let health = doc.get("health").expect("health object present");
    let enabled = health
        .get("enabled")
        .and_then(Json::as_bool)
        .expect("health.enabled is a bool");
    let verdict = health
        .get("verdict")
        .and_then(Json::as_str)
        .expect("health.verdict is a string");
    assert!(
        ["ok", "degraded", "critical"].contains(&verdict),
        "recognised verdict, got {verdict}"
    );
    for key in ["ticks", "worst_fast_burn", "worst_slow_burn", "transitions"] {
        let value = health
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("health.{key} is a number"));
        assert!(value >= 0.0, "health.{key} is non-negative");
    }
    let rules = health
        .get("rules")
        .and_then(Json::as_array)
        .expect("health.rules is an array");
    assert_eq!(
        enabled,
        !rules.is_empty(),
        "rules exactly when the engine ran"
    );
    for rule in rules {
        assert!(rule.get("rule").and_then(Json::as_str).is_some());
        assert!(rule.get("verdict").and_then(Json::as_str).is_some());
        for key in ["fast_burn", "slow_burn"] {
            assert!(
                rule.get(key).and_then(Json::as_f64).is_some(),
                "rule row has {key}"
            );
        }
    }
}

#[test]
fn loadgen_smoke_emits_valid_artifact() {
    let out =
        std::env::temp_dir().join(format!("laelaps-loadgen-smoke-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--sessions",
            "16",
            "--models",
            "2",
            "--seconds",
            "2",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("loadgen runs");
    assert!(status.success(), "loadgen exits cleanly");

    let text = std::fs::read_to_string(&out).expect("artifact written");
    let _ = std::fs::remove_file(&out);
    assert!(!text.trim().is_empty(), "artifact is not empty");
    let doc = Json::parse(&text).expect("artifact is valid JSON");
    check_schema(&doc);

    // The smoke workload really ran: frames flowed and telemetry saw them.
    let num = |key: &str| doc.get(key).unwrap().as_f64().unwrap();
    assert!(num("frames_processed") > 0.0);
    assert_eq!(num("frames_processed"), num("frames_in"));
    assert!(num("sustained_frames_per_sec") > 0.0);
    assert!(num("events_out") > 0.0);
    assert!(doc.get("telemetry_enabled").unwrap().as_bool() == Some(true));
    let stages = doc.get("stages").unwrap().as_array().unwrap();
    let timed: f64 = stages
        .iter()
        .map(|row| row.get("count").unwrap().as_f64().unwrap())
        .sum();
    assert!(timed > 0.0, "at least one stage histogram populated");

    // Default run leaves the health engine off, and the artifact says so.
    let health = doc.get("health").unwrap();
    assert_eq!(health.get("enabled").unwrap().as_bool(), Some(false));
}

/// `--health --prom-out`: the same smoke workload with the SLO engine
/// on must report a real evaluation (rules, ticks) in the artifact and
/// write a Prometheus scrape carrying the CI gate's patterns. Open-loop
/// arrival stretches the run past the evaluator's 250 ms period —
/// closed-loop smoke finishes in milliseconds, before the first tick.
#[test]
fn loadgen_smoke_health_run_emits_health_and_prom() {
    let out = std::env::temp_dir().join(format!(
        "laelaps-loadgen-smoke-health-{}.json",
        std::process::id()
    ));
    let prom = std::env::temp_dir().join(format!(
        "laelaps-loadgen-smoke-health-{}.prom",
        std::process::id()
    ));
    let status = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--sessions",
            "16",
            "--models",
            "2",
            "--seconds",
            "2",
            "--arrival",
            "open",
            "--rate",
            "2",
            "--health",
            "--out",
        ])
        .arg(&out)
        .arg("--prom-out")
        .arg(&prom)
        .status()
        .expect("loadgen runs");
    assert!(status.success(), "loadgen exits cleanly");

    let text = std::fs::read_to_string(&out).expect("artifact written");
    let _ = std::fs::remove_file(&out);
    let doc = Json::parse(&text).expect("artifact is valid JSON");
    check_schema(&doc);
    let health = doc.get("health").unwrap();
    assert_eq!(health.get("enabled").unwrap().as_bool(), Some(true));
    assert!(
        health.get("ticks").unwrap().as_f64().unwrap() > 0.0,
        "the evaluator ticked during the run"
    );
    assert!(!health.get("rules").unwrap().as_array().unwrap().is_empty());

    let scrape = std::fs::read_to_string(&prom).expect("prom scrape written");
    let _ = std::fs::remove_file(&prom);
    assert!(scrape.contains("laelaps_health_enabled 1\n"));
    assert!(scrape.contains("laelaps_health_verdict "));
    assert!(scrape.contains("laelaps_slo_burn_rate{rule="));
    assert!(scrape.contains("laelaps_frames_total{outcome=\"processed\"}"));
}

/// The committed artifact at the repo root stays valid against the same
/// schema gate, so a stale or hand-mangled `BENCH_serve.json` fails CI.
#[test]
fn committed_artifact_matches_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let text = std::fs::read_to_string(path).expect("BENCH_serve.json is committed");
    let doc = Json::parse(&text).expect("committed artifact is valid JSON");
    check_schema(&doc);
    let sessions = doc.get("sessions").unwrap().as_f64().unwrap();
    assert!(sessions >= 256.0, "committed run is cohort-scale");
    assert!(doc.get("frames_processed").unwrap().as_f64().unwrap() > 0.0);
}
