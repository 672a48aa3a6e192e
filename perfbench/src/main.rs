//! The repository benchmark. Runs one workload of the Laelaps serving
//! path, checks every session's events against a bare `Detector`, and
//! prints its metrics by name and unit, ending with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_d1k|stream_d10k|ictal_tcp_open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! traced run, which times each layer from outside and reports the
//! per-layer metrics instead. README.md lists every metric and what
//! each per-layer metric should move.

mod closed;
mod host;
mod layers;
mod measure;
mod open_tcp;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use laelaps_serve::{HistogramSnapshot, Stage};

use host::HostFacts;
use measure::StreamOutcome;
use stats::{highest_supported_percentile, histogram_quantile, percentile, sorted, Summary};
use workload::{Arrival, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload stream_d1k|stream_d10k|ictal_tcp_open \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name}"))?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The samples behind `value`, when there are several.
    summary: Summary,
    note: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: Summary::single(value),
            note: String::new(),
        }
    }

    fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples).unwrap_or(Summary::single(f64::NAN));
        Metric {
            summary,
            ..Metric::new(name, unit, summary.median)
        }
    }

    /// The `p`-th percentile of `samples`, noting the highest percentile
    /// they support.
    fn percentile_of(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Metric {
        let sorted = sorted(samples);
        let top = highest_supported_percentile(sorted.len());
        let mut note = format!(
            "highest supported: p{top} = {:.4}",
            percentile(&sorted, top).unwrap_or(f64::NAN)
        );
        if top < p {
            note.push_str(&format!("; p{p} has fewer than 10 samples beyond it"));
        }
        Metric {
            value: percentile(&sorted, p).unwrap_or(f64::NAN),
            note,
            ..Metric::median_of(name, unit, samples)
        }
    }

    fn with_note(self, note: String) -> Metric {
        Metric { note, ..self }
    }
}

/// What one run reports.
struct Report {
    /// The metrics BENCHMARK.json lists for this kind of run.
    metrics: Vec<Metric>,
    /// Printed and written to the result file only: too unsteady from run
    /// to run on a shared host to gate a change (see README.md).
    info: Vec<Metric>,
    outcome_lines: Vec<String>,
    attempted: usize,
    failures: Vec<String>,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::read();
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let correct = report.failures.is_empty() && report.metrics.iter().all(|m| m.value.is_finite());
    let failed = if correct {
        0
    } else {
        report.failures.len().max(1)
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(
        text,
        "host: nproc {}, cpu {:?}, L1d {}, L2 {}",
        host.nproc, host.cpu_model, host.l1d, host.l2
    );
    let _ = writeln!(
        text,
        "{:<28} {:>14} {:<9} {:>14} {:>14} {:>14} {:>8}",
        "metric", "value", "unit", "median", "q1", "q3", "n"
    );
    for m in report.metrics.iter().chain(&report.info) {
        let s = &m.summary;
        let _ = writeln!(
            text,
            "{:<28} {:>14.4} {:<9} {:>14.4} {:>14.4} {:>14.4} {:>8}  {}",
            m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n, m.note
        );
    }
    for line in &report.outcome_lines {
        let _ = writeln!(text, "{line}");
    }
    for failure in &report.failures {
        let _ = writeln!(text, "FAILED: {failure}");
    }
    print!("{text}");

    let result = result_json(&args, &host, &report, correct, failed);
    let dir = workload::run_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &result)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("result file: {}", path.display());
    println!("{}", last_line(&report, correct, failed));
    ExitCode::SUCCESS
}

/// Sets the workload up, streams it, then sets it up [`SETUPS`] − 1 more
/// times for `setup_s` alone, and reports the end-to-end metrics. The
/// extra set-ups come after the stream so that its memory and speed see
/// one set-up's history, as a deployment's would.
fn end_to_end(args: &Args) -> Report {
    let w = &args.workload;
    let (outcome, setup_s) = match w.arrival {
        Arrival::Closed { .. } => {
            let (setup, first) = timed(|| closed::setup(w, args.seed));
            let outcome = closed::run(setup, args.seconds);
            (outcome, setup_times(first, || closed::setup(w, args.seed)))
        }
        Arrival::OpenTcp { .. } => {
            let (setup, first) = timed(|| open_tcp::setup(w, args.seed));
            let outcome = open_tcp::run(setup, args.seconds);
            (
                outcome,
                setup_times(first, || open_tcp::setup(w, args.seed)),
            )
        }
    };
    let o = &outcome;
    let metrics = vec![
        Metric::median_of("frames_per_s", "frames/s", &o.meter.frames_per_s),
        Metric {
            summary: Summary::of(&o.meter.cpu_ns_per_frame).unwrap_or(Summary::single(f64::NAN)),
            note: "whole window; quartiles over 1 s slices; driver thread subtracted".into(),
            ..Metric::new("cpu_ns_per_frame", "ns/frame", o.totals.cpu_ns_per_frame)
        },
        Metric::percentile_of("event_latency_p50_ms", "ms", &o.latency_ms, 50.0),
        Metric::median_of("setup_s", "s", &setup_s),
        Metric::new("peak_rss_mb", "MB", o.peak_rss_kb as f64 / 1024.0),
    ];
    let info = vec![
        Metric::percentile_of("event_latency_p99_ms", "ms", &o.latency_ms, 99.0),
        Metric::percentile_of("send_lag_p99_ms", "ms", &o.send_lag_ms, 99.0),
        Metric::new(
            "frames_lost_frac",
            "fraction",
            o.lost_frames as f64 / o.offered_frames.max(1) as f64,
        ),
    ];
    Report {
        metrics,
        info,
        outcome_lines: outcome_lines(w, o),
        attempted: o.sessions,
        failures: outcome_failures(w, o),
    }
}

/// `f`'s result and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `first` followed by the seconds of [`SETUPS`] − 1 more set-ups, each
/// torn down before the next.
fn setup_times<S>(first: f64, setup: impl Fn() -> S) -> Vec<f64> {
    let mut seconds = vec![first];
    seconds.extend((1..SETUPS).map(|_| timed(&setup).1));
    seconds
}

/// The checks and facts every run prints besides its metrics.
fn outcome_lines(w: &Workload, o: &StreamOutcome) -> Vec<String> {
    let poll = Summary::of(&o.poll_gap_us).unwrap_or(Summary::single(0.0));
    let poll_limit_us = match w.arrival {
        Arrival::Closed { .. } => closed::POLL.as_secs_f64() * 1e6,
        Arrival::OpenTcp { .. } => open_tcp::POLL.as_secs_f64() * 1e6,
    };
    vec![
        format!(
            "window: {:.3} s, {} frames processed; {} frames offered in all",
            o.totals.wall.as_secs_f64(),
            o.totals.frames,
            o.offered_frames
        ),
        format!(
            "frames lost: {} of {} offered frames dropped, refused or discarded",
            o.lost_frames, o.offered_frames
        ),
        format!(
            "alarms: {} (reference {}); {} sessions checked against a bare Detector, {} failed",
            o.alarms,
            o.reference_alarms,
            o.sessions,
            o.failures.len()
        ),
        format!(
            "event polling: every <= {poll_limit_us:.0} us, median gap {:.1} us over {} waits; \
             {} latency samples, {} send-lag samples",
            poll.median,
            poll.n,
            o.latency_ms.len(),
            o.send_lag_ms.len()
        ),
    ]
}

fn outcome_failures(w: &Workload, o: &StreamOutcome) -> Vec<String> {
    let mut failures = o.failures.clone();
    if o.lost_frames > 0 {
        failures.push(format!("{} offered frames were lost", o.lost_frames));
    }
    if matches!(w.arrival, Arrival::OpenTcp { .. }) {
        if o.reference_alarms == 0 {
            failures.push("the reference raised no alarm on the ictal recording".into());
        } else if o.alarms != o.reference_alarms {
            failures.push(format!(
                "{} alarms, the reference raised {}",
                o.alarms, o.reference_alarms
            ));
        }
    }
    failures
}

/// The traced run: one set-up with its phases timed, each layer timed
/// from outside on the workload's own signal and model, then the
/// workload streamed to read the service's own counters.
fn traced(args: &Args) -> Report {
    let w = &args.workload;
    let (times, layer, (open_us, state_kb), outcome) = match w.arrival {
        Arrival::Closed { .. } => {
            let setup = closed::setup(w, args.seed);
            let layer = layers::measure(&setup.patients[0]);
            let sessions = layers::open_sessions(&setup.service, &setup.patients[0].model);
            let times = setup.times.clone();
            (times, layer, sessions, closed::run(setup, args.seconds))
        }
        Arrival::OpenTcp { .. } => {
            let setup = open_tcp::setup(w, args.seed);
            let layer = layers::measure(&setup.patients[0]);
            let sessions = layers::open_sessions(&setup.service, &setup.patients[0].model);
            let times = setup.times.clone();
            (times, layer, sessions, open_tcp::run(setup, args.seconds))
        }
    };
    let o = &outcome;
    let stages = &o.stats.telemetry.stages;
    let ring_wait = stages.get(Stage::RingWait);
    let publish = stages.get(Stage::Publish);
    let metrics = vec![
        Metric::new("lbp.ns_per_frame", "ns/frame", layer.lbp_ns),
        Metric::new("spatial.ns_per_frame", "ns/frame", layer.spatial_ns),
        Metric::new("temporal.ns_per_frame", "ns/frame", layer.temporal_ns),
        Metric::new("encoder.ns_per_frame", "ns/frame", layer.encoder_ns),
        Metric::new("detector.ns_per_frame", "ns/frame", layer.detector_ns),
        Metric::new(
            "classify.ns_per_window",
            "ns/window",
            layer.classify_ns_per_window,
        ),
        Metric::new(
            "postprocess.ns_per_window",
            "ns/window",
            layer.postprocess_ns_per_window,
        ),
        Metric::new("layers.sum_ratio", "ratio", layer.sum_ratio),
        Metric::new("shell.ns_per_frame", "ns/frame", layer.shell_ns),
        Metric::new("wire.encode_us_per_chunk", "us/chunk", layer.wire_encode_us),
        Metric::new("wire.decode_us_per_chunk", "us/chunk", layer.wire_decode_us),
        Metric::new("ring.full_per_chunk", "count/chunk", o.refusals_per_chunk),
        stage_quantile("service.ring_wait_p50_us", ring_wait, 0.50),
        stage_quantile("service.ring_wait_p99_us", ring_wait, 0.99),
        stage_quantile("service.publish_p99_us", publish, 0.99),
        Metric::median_of("session.open_us", "us", &open_us),
        Metric::new("session.state_kb", "kB", state_kb),
        Metric::median_of("persist.load_us", "us", &times.load_us),
        Metric::new("setup.synth_s", "s", times.synth_s),
        Metric::new("setup.train_s", "s", times.train_s),
    ];
    let mut outcome_lines = outcome_lines(w, o);
    outcome_lines.push(format!(
        "layer timings: d = {}, single-threaded, best of their repetitions; \
         {:.5} windows per frame",
        w.dim, layer.windows_per_frame
    ));
    Report {
        metrics,
        info: Vec::new(),
        outcome_lines,
        attempted: o.sessions,
        failures: outcome_failures(w, o),
    }
}

/// A quantile, in µs, of a stage histogram from `DetectionService::stats()`.
fn stage_quantile(name: &'static str, h: &HistogramSnapshot, q: f64) -> Metric {
    let value = histogram_quantile(h, q).unwrap_or(f64::NAN);
    Metric {
        summary: Summary {
            n: h.count as usize,
            ..Summary::single(value)
        },
        ..Metric::new(name, "us", value)
    }
    .with_note("DetectionService::stats(), interpolated within its bucket".into())
}

/// Formats `v` for JSON: every digit Rust's shortest round-trip form
/// gives, or `null` when it is not finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The line the benchmark pipeline reads: each metric's value and unit.
fn last_line(report: &Report, correct: bool, failed: usize) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.attempted,
        metrics.join(", ")
    )
}

/// The full result: every metric with its quartiles and sample count,
/// the checks, the seed and the host facts.
fn result_json(
    args: &Args,
    host: &HostFacts,
    report: &Report,
    correct: bool,
    failed: usize,
) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .chain(&report.info)
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
                 \"n\": {}, \"note\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit),
                json_number(m.summary.median),
                json_number(m.summary.q1),
                json_number(m.summary.q3),
                m.summary.n,
                json_string(&m.note)
            )
        })
        .collect();
    let list = |lines: &[String]| {
        lines
            .iter()
            .map(|l| json_string(l))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"l1d\": {}, \"l2\": {}}},\n  \
         \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {failed},\n  \
         \"failures\": [{}],\n  \"outcome\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_string(args.workload.name),
        args.seed,
        args.seconds,
        args.trace,
        host.nproc,
        json_string(&host.cpu_model),
        json_string(&host.l1d),
        json_string(&host.l2),
        report.attempted,
        list(&report.failures),
        list(&report.outcome_lines),
        metrics.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn arguments_are_the_drivers_four() {
        let a = args("--workload stream_d10k --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("stream_d10k", 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload stream_d1k --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload stream_d1k --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload stream_d1k --seed 1 --trace 0").is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits_and_reject_nan() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(1556224.123456789), "1556224.123456789");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
