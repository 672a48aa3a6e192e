//! # laelaps
//!
//! Facade crate for the Laelaps reproduction (Burrello et al., DATE 2019):
//! an energy-efficient seizure-detection pipeline from long-term human
//! iEEG built on local binary patterns and hyperdimensional computing.
//!
//! This crate re-exports the workspace members under stable paths:
//!
//! * [`core`] — the Laelaps algorithm (LBP, HD encoder, AM, postprocess);
//! * [`ieeg`] — recordings, DSP, EDF I/O, synthetic dataset;
//! * [`nn`] — the mini NN/SVM library behind the baselines;
//! * [`baselines`] — LBP+SVM, LSTM, and STFT+CNN detectors;
//! * [`gpu_sim`] — the Tegra X2 timing/energy model;
//! * [`eval`] — metrics and the table/figure experiment harness;
//! * [`telemetry`] — lock-free counters, latency histograms, stage timers;
//! * [`serve`] — the multi-patient streaming detection service.
//!
//! ## Serving
//!
//! The paper's deployment scenario is continuous long-term monitoring:
//! one classification per patient every 0.5 s, indefinitely. [`serve`]
//! provides that as a service: persist trained
//! [`core::PatientModel`]s in a versioned binary format via
//! [`serve::ModelRegistry`], then run many patients concurrently through
//! a [`serve::DetectionService`] — each session a bounded frame queue
//! with explicit backpressure, pinned to a worker shard so its event
//! stream is *identical* to a single [`core::Detector`] run. Alarms fan
//! into a service-wide bus; [`serve::ServiceStats`] exposes frames,
//! events, drops, per-stage latency histograms with p50/p99/p999
//! estimates ([`serve::TelemetrySnapshot`]), and worst-case drain
//! latency.
//!
//! See `examples/long_term_monitoring.rs` for the full train → persist →
//! load → stream → alarm flow over a 32-patient synthetic cohort, and
//! `laelaps-bench` for the table/figure regeneration commands.

pub use laelaps_baselines as baselines;
pub use laelaps_core as core;
pub use laelaps_eval as eval;
pub use laelaps_gpu_sim as gpu_sim;
pub use laelaps_ieeg as ieeg;
pub use laelaps_nn as nn;
pub use laelaps_serve as serve;
pub use laelaps_telemetry as telemetry;
