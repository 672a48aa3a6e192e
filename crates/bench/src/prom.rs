//! Minimal Prometheus text-exposition (format 0.0.4) renderer for the
//! service's wire introspection snapshots.
//!
//! Takes the same [`WireStats`] / [`WireHealth`] payloads the
//! introspection connection answers with and flattens them into the
//! plain-text `# HELP` / `# TYPE` / sample-line format every Prometheus
//! scraper (and `promtool`) understands — no client library, no
//! registry, just deterministic string assembly, so the output is stable
//! enough to golden-test byte for byte.
//!
//! Rendered families (all prefixed `laelaps_`):
//!
//! * service gauges and counters (`sessions`, `frames_total{outcome=…}`,
//!   `events_total`, …);
//! * per-stage latency summaries (`stage_latency_us{stage=…,quantile=…}`
//!   with `_count` / `_sum` / `_max`), reconstructed from the wire
//!   histograms with the telemetry crate's own bucket math;
//! * per-shard saturation gauges (`shard_…{shard=…}`);
//! * tracer accounting (`trace_spans_total{status=…}`);
//! * the SLO engine: `health_verdict` (0 = ok, 1 = degraded,
//!   2 = critical), per-rule `slo_verdict{rule=…}` and
//!   `slo_burn_rate{rule=…,window=fast|slow}`, and
//!   `health_transitions_total`. `health_enabled 0` with no rule rows
//!   means the server runs without health evaluation;
//! * the per-session layer (`laelaps_session_*`, session id as label):
//!   **bounded** — only the heavy-hitter top-K rows render, never one
//!   row per live session, so cardinality stays `O(shards × top_k)`
//!   however many sessions stream. `session_obs_enabled 0` with no
//!   session rows means the layer is off.

use laelaps_serve::wire::{WireHealth, WireSessionStats, WireStats};
use laelaps_serve::Stage;

/// Renders `f` the way Prometheus expects: shortest round-trip decimal
/// (Rust's `Display` for `f64`), with non-finite values spelled in the
/// exposition format's casing.
fn num(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else if f == f64::INFINITY {
        "+Inf".to_string()
    } else if f == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{f}")
    }
}

/// Escapes a label value (backslash, quote, newline).
fn label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn stage_name(raw: u8) -> String {
    match Stage::ALL.get(raw as usize) {
        Some(stage) => stage.name().to_string(),
        None => format!("stage_{raw}"),
    }
}

struct Exposition {
    out: String,
}

impl Exposition {
    fn new() -> Self {
        Exposition { out: String::new() }
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out
            .push_str(&format!("# HELP laelaps_{name} {help}\n"));
        self.out
            .push_str(&format!("# TYPE laelaps_{name} {kind}\n"));
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(&format!("laelaps_{name}"));
        if !labels.is_empty() {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", label(v)))
                .collect();
            self.out.push_str(&format!("{{{}}}", rendered.join(",")));
        }
        self.out.push_str(&format!(" {}\n", num(value)));
    }
}

/// Renders one complete scrape: the service stats, the health view,
/// then the per-session heavy hitters. Deterministic for fixed inputs —
/// suitable for golden tests and for diffing two scrapes.
pub fn render(stats: &WireStats, health: &WireHealth, sessions: &WireSessionStats) -> String {
    let mut exp = Exposition::new();

    exp.family("sessions", "gauge", "Sessions currently registered.");
    exp.sample("sessions", &[], stats.sessions as f64);
    exp.family(
        "retired_sessions",
        "gauge",
        "Sessions finished and retired from their shard.",
    );
    exp.sample("retired_sessions", &[], stats.retired_sessions as f64);

    exp.family(
        "frames_total",
        "counter",
        "Frames by outcome: accepted (in), processed, dropped, refused, discarded.",
    );
    for (outcome, value) in [
        ("in", stats.frames_in),
        ("processed", stats.frames_processed),
        ("dropped", stats.frames_dropped),
        ("refused", stats.frames_refused),
        ("discarded", stats.frames_discarded),
    ] {
        exp.sample("frames_total", &[("outcome", outcome)], value as f64);
    }

    exp.family("events_total", "counter", "Classification events emitted.");
    exp.sample("events_total", &[], stats.events_out as f64);
    exp.family("alarms_total", "counter", "Seizure alarms raised.");
    exp.sample("alarms_total", &[], stats.alarms_out as f64);
    exp.family(
        "max_drain_micros",
        "gauge",
        "Worst-case wall time of one drain batch, microseconds.",
    );
    exp.sample("max_drain_micros", &[], stats.max_drain_micros as f64);
    exp.family(
        "recent_frames_per_sec",
        "gauge",
        "Frames drained per second over the trailing window.",
    );
    exp.sample("recent_frames_per_sec", &[], stats.recent_frames_per_sec);
    exp.family(
        "telemetry_enabled",
        "gauge",
        "Whether stage timing is on (1) or off (0).",
    );
    exp.sample(
        "telemetry_enabled",
        &[],
        stats.telemetry_enabled as u8 as f64,
    );

    exp.family(
        "stage_latency_us",
        "summary",
        "Hot-path stage latency, microseconds (quantiles from the telemetry histograms).",
    );
    for row in &stats.stages {
        let hist = row.to_histogram();
        let stage = stage_name(row.stage);
        for (q, v) in [
            ("0.5", hist.p50()),
            ("0.99", hist.p99()),
            ("0.999", hist.p999()),
        ] {
            exp.sample(
                "stage_latency_us",
                &[("stage", &stage), ("quantile", q)],
                v as f64,
            );
        }
        exp.sample(
            "stage_latency_us_count",
            &[("stage", &stage)],
            hist.count as f64,
        );
        exp.sample(
            "stage_latency_us_sum",
            &[("stage", &stage)],
            hist.sum as f64,
        );
        exp.sample(
            "stage_latency_us_max",
            &[("stage", &stage)],
            hist.max as f64,
        );
    }

    exp.family(
        "shard_sessions",
        "gauge",
        "Live sessions pinned to the shard.",
    );
    for shard in &stats.shards {
        let id = shard.shard.to_string();
        exp.sample("shard_sessions", &[("shard", &id)], shard.sessions as f64);
    }
    exp.family(
        "shard_ring_depth_chunks",
        "gauge",
        "Chunks queued across the shard's session rings.",
    );
    for shard in &stats.shards {
        let id = shard.shard.to_string();
        exp.sample(
            "shard_ring_depth_chunks",
            &[("shard", &id)],
            shard.ring_depth_chunks as f64,
        );
    }
    exp.family(
        "shard_in_flight_frames",
        "gauge",
        "Accepted frames not yet processed or discarded on the shard.",
    );
    for shard in &stats.shards {
        let id = shard.shard.to_string();
        exp.sample(
            "shard_in_flight_frames",
            &[("shard", &id)],
            shard.in_flight_frames as f64,
        );
    }

    exp.family(
        "trace_enabled",
        "gauge",
        "Whether per-chunk causal tracing is on (1) or off (0).",
    );
    exp.sample("trace_enabled", &[], stats.trace_enabled as u8 as f64);
    exp.family(
        "trace_spans_total",
        "counter",
        "Tracer accounting: ids minted, spans recorded, spans dropped.",
    );
    for (status, value) in [
        ("minted", stats.trace_minted),
        ("recorded", stats.trace_recorded),
        ("dropped", stats.trace_dropped),
    ] {
        exp.sample("trace_spans_total", &[("status", status)], value as f64);
    }
    exp.family(
        "trace_pinned",
        "gauge",
        "Distinct pinned traces currently retained.",
    );
    exp.sample("trace_pinned", &[], stats.trace_pinned as f64);

    exp.family(
        "health_enabled",
        "gauge",
        "Whether SLO health evaluation is running (1) or off (0).",
    );
    exp.sample("health_enabled", &[], health.enabled as u8 as f64);
    exp.family(
        "health_verdict",
        "gauge",
        "Folded service verdict: 0 = ok, 1 = degraded, 2 = critical.",
    );
    exp.sample("health_verdict", &[], health.verdict as f64);
    exp.family(
        "health_ticks_total",
        "counter",
        "Health evaluation ticks performed.",
    );
    exp.sample("health_ticks_total", &[], health.ticks as f64);
    exp.family(
        "slo_verdict",
        "gauge",
        "Per-rule verdict: 0 = ok, 1 = degraded, 2 = critical.",
    );
    for rule in &health.rules {
        exp.sample("slo_verdict", &[("rule", &rule.name)], rule.verdict as f64);
    }
    exp.family(
        "slo_burn_rate",
        "gauge",
        "Per-rule burn rate (observed / ceiling; 1.0 = at the objective's limit).",
    );
    for rule in &health.rules {
        exp.sample(
            "slo_burn_rate",
            &[("rule", &rule.name), ("window", "fast")],
            rule.fast_burn,
        );
        exp.sample(
            "slo_burn_rate",
            &[("rule", &rule.name), ("window", "slow")],
            rule.slow_burn,
        );
    }
    exp.family(
        "health_transitions_total",
        "counter",
        "Verdict transitions currently retained in the journal.",
    );
    exp.sample(
        "health_transitions_total",
        &[],
        health.transitions.len() as f64,
    );

    exp.family(
        "session_obs_enabled",
        "gauge",
        "Whether the per-session observability layer is on (1) or off (0).",
    );
    exp.sample("session_obs_enabled", &[], sessions.enabled as u8 as f64);
    exp.family(
        "session_drain_ticks_total",
        "counter",
        "Shard-worker drain passes (the tick domain of session_last_drain_tick).",
    );
    exp.sample("session_drain_ticks_total", &[], sessions.ticks as f64);

    exp.family(
        "session_frames_total",
        "counter",
        "Heavy-hitter session frames by outcome (top-K rows only — bounded cardinality).",
    );
    for row in &sessions.top {
        let id = row.session.to_string();
        for (outcome, value) in [
            ("in", row.frames_in),
            ("processed", row.frames_processed),
            ("dropped", row.frames_dropped),
            ("discarded", row.frames_discarded),
        ] {
            exp.sample(
                "session_frames_total",
                &[("session", &id), ("outcome", outcome)],
                value as f64,
            );
        }
    }
    exp.family(
        "session_ewma_drain_us",
        "gauge",
        "Heavy-hitter session drain-latency EWMA, microseconds.",
    );
    for row in &sessions.top {
        let id = row.session.to_string();
        exp.sample(
            "session_ewma_drain_us",
            &[("session", &id)],
            row.ewma_drain_us as f64,
        );
    }
    exp.family(
        "session_last_drain_tick",
        "gauge",
        "Drain tick of the session's last productive pass (compare with session_drain_ticks_total).",
    );
    for row in &sessions.top {
        let id = row.session.to_string();
        exp.sample(
            "session_last_drain_tick",
            &[("session", &id)],
            row.last_drain_tick as f64,
        );
    }
    exp.family(
        "session_score",
        "gauge",
        "Heavy-hitter score by dimension (cumulative; higher = worse).",
    );
    for row in &sessions.top {
        let id = row.session.to_string();
        for (dimension, value) in [
            ("latency", row.score_latency),
            ("saturation", row.score_saturation),
            ("discard", row.score_discard),
        ] {
            exp.sample(
                "session_score",
                &[("session", &id), ("dimension", dimension)],
                value as f64,
            );
        }
    }

    exp.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_the_exposition_way() {
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "NaN");
        assert_eq!(num(f64::INFINITY), "+Inf");
        assert_eq!(num(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(label("plain"), "plain");
        assert_eq!(label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn disabled_health_still_renders_the_gauge() {
        let text = render(
            &WireStats::default(),
            &WireHealth::default(),
            &WireSessionStats::default(),
        );
        assert!(text.contains("laelaps_health_enabled 0\n"));
        assert!(text.contains("laelaps_health_verdict 0\n"));
        assert!(!text.contains("slo_verdict{"), "no rules when disabled");
        assert!(text.contains("laelaps_session_obs_enabled 0\n"));
        assert!(
            !text.contains("session_frames_total{"),
            "no session rows when disabled"
        );
    }
}
