//! The ingest wire format: versioned, length-prefixed, checksummed frames.
//!
//! Every message travels as one self-delimiting binary frame sealed with
//! the same FNV-1a 64 digest the model files use ([`crate::persist`]) —
//! a flipped bit anywhere in a frame is caught before the payload is
//! interpreted, and a reader never trusts a length it cannot bound.
//!
//! ## Frame layout (wire versions 1 through 4)
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"LW"
//! 2       1     wire format version (the lowest version carrying the tag:
//!               1 for the original messages, 2 for Feedback/ModelUpdated,
//!               3 for the introspection messages, 4 for the health
//!               messages)
//! 3       1     message type tag
//! 4       4     payload length P (u32 LE), P ≤ 16 MiB
//! 8       P     payload (all scalars little-endian)
//! 8+P     8     FNV-1a 64 checksum of bytes [0, 8+P) (u64 LE)
//! ```
//!
//! Readers gate on the version byte *before* verifying the checksum, so a
//! frame from a future protocol fails with
//! [`ServeError::VersionMismatch`], not a corruption error — the same
//! discipline as the model files. Because writers stamp each frame with
//! the lowest version that carries its tag, an upgraded peer stays fully
//! interoperable with a version-1 peer until it actually sends a
//! version-2 (or version-3) message (rolling upgrades).
//!
//! ## Messages
//!
//! | tag  | message            | direction | payload |
//! |------|--------------------|-----------|---------|
//! | 0x01 | `Hello`            | c → s     | `u32` patient length, patient bytes (ASCII), `u32` electrodes |
//! | 0x02 | `Frames`           | c → s     | interleaved `f32` samples (length = P / 4) |
//! | 0x03 | `Close`            | c → s     | empty |
//! | 0x04 | `Feedback`         | c → s     | `u8` label (0 interictal / 1 ictal), interleaved `f32` samples |
//! | 0x05 | `StatsRequest`     | c → s     | empty |
//! | 0x06 | `TraceDumpRequest` | c → s     | `u32` span limit (0 = everything retained) |
//! | 0x07 | `HealthRequest`    | c → s     | empty |
//! | 0x08 | `SessionStatsRequest` | c → s  | `u8` lookup flag, then `u64` session id when the flag is 1 |
//! | 0x81 | `Accepted`         | s → c     | `u64` session id, `u32` electrodes |
//! | 0x82 | `Throttle`         | s → c     | `u32` queued chunks, `u32` queue capacity |
//! | 0x83 | `Event`            | s → c     | one [`DetectorEvent`] (below), `alarm` absent |
//! | 0x84 | `Alarm`            | s → c     | one [`DetectorEvent`] with its alarm record |
//! | 0x85 | `ModelUpdated`     | s → c     | `u64` model generation now running |
//! | 0x86 | `StatsSnapshot`    | s → c     | one [`WireStats`] (see its docs for the layout) |
//! | 0x87 | `TraceDump`        | s → c     | `u64` recorded, `u64` dropped, `u32` span count, then 40-byte [`WireSpan`] records |
//! | 0x88 | `HealthSnapshot`   | s → c     | one [`WireHealth`] (see its docs for the layout) |
//! | 0x89 | `SessionStatsSnapshot` | s → c | one [`WireSessionStats`] (see its docs for the layout) |
//! | 0xEE | `Error`            | either    | `u32` reason length, UTF-8 reason bytes |
//!
//! An event payload is `u64` index, `u64` end sample, `f64` time bits,
//! `u8` label (0 interictal / 1 ictal), `u64` distance to the interictal
//! prototype, `u64` distance to the ictal prototype, then — for `Alarm`
//! only — `u64` triggering label index and `f64` mean-Δ bits. Floats ride
//! as raw IEEE-754 bits for bit-exact parity with an in-process
//! [`laelaps_core::Detector`].
//!
//! `Feedback` carries a clinician-confirmed labeled segment for the
//! session's patient; the server's adaptation engine folds it into the
//! model off the hot path and answers — in stream order, at the exact
//! frame boundary where the hot-swap took effect — with `ModelUpdated`.
//! A label byte other than 0/1 is rejected as corrupt before the payload
//! reaches any training code.
//!
//! `StatsRequest`, `TraceDumpRequest`, and `HealthRequest` open a
//! read-only introspection exchange instead of a streaming session: when
//! a connection's *first* message is one of them, the server answers each
//! request with a `StatsSnapshot` / `TraceDump` / `HealthSnapshot` and
//! keeps answering until the peer sends `Close` or disconnects. This is
//! how `laelapsctl` inspects a running [`crate::IngestServer`] without
//! opening a patient session. `HealthRequest` is the version-4 surface:
//! it returns the SLO engine's verdict, per-rule burn rates, transition
//! journal, and time-series tail (empty, with `enabled: false`, when
//! [`crate::ServeConfig::health`] is off).
//!
//! # Examples
//!
//! ```
//! use laelaps_serve::wire::{read_message, write_message, Message};
//!
//! let mut buf = Vec::new();
//! write_message(&mut buf, &Message::Hello {
//!     patient: "P01".into(),
//!     electrodes: 4,
//! })?;
//! write_message(&mut buf, &Message::Close)?;
//! let mut stream = buf.as_slice();
//! assert!(matches!(
//!     read_message(&mut stream)?,
//!     Some(Message::Hello { electrodes: 4, .. })
//! ));
//! assert_eq!(read_message(&mut stream)?, Some(Message::Close));
//! assert_eq!(read_message(&mut stream)?, None); // clean end of stream
//! # Ok::<(), laelaps_serve::ServeError>(())
//! ```

use std::io::{Read, Write};

use laelaps_core::{Alarm, Classification, DetectorEvent, Label};

use crate::error::{Result, ServeError};
use crate::persist::Fnv1a;

/// Magic bytes opening every wire frame.
pub const WIRE_MAGIC: [u8; 2] = *b"LW";

/// Highest wire format version this build reads. Writers stamp each
/// frame with the **lowest version that carries its tag** — version-1
/// messages still go out as version 1, so an upgraded peer keeps
/// interoperating with a not-yet-upgraded one until it actually uses a
/// version-2 feature (`Feedback` / `ModelUpdated`), a version-3 one (the
/// introspection messages), a version-4 one (the health messages), or a
/// version-5 one (the per-session stats messages).
pub const WIRE_VERSION: u8 = 5;

/// Frame header length: magic + version + tag + payload length.
pub const HEADER_LEN: usize = 8;

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 8;

/// Upper bound on a frame's payload. Large enough for ~17 minutes of
/// 8-electrode 512 Hz signal in one `Frames` message; small enough that a
/// corrupted (or hostile) length field cannot make a reader allocate
/// unboundedly.
pub const MAX_PAYLOAD: usize = 16 << 20;

const TAG_HELLO: u8 = 0x01;
const TAG_FRAMES: u8 = 0x02;
const TAG_CLOSE: u8 = 0x03;
const TAG_FEEDBACK: u8 = 0x04;
const TAG_STATS_REQUEST: u8 = 0x05;
const TAG_TRACE_DUMP_REQUEST: u8 = 0x06;
const TAG_HEALTH_REQUEST: u8 = 0x07;
const TAG_SESSION_STATS_REQUEST: u8 = 0x08;
const TAG_ACCEPTED: u8 = 0x81;
const TAG_THROTTLE: u8 = 0x82;
const TAG_EVENT: u8 = 0x83;
const TAG_ALARM: u8 = 0x84;
const TAG_MODEL_UPDATED: u8 = 0x85;
const TAG_STATS_SNAPSHOT: u8 = 0x86;
const TAG_TRACE_DUMP: u8 = 0x87;
const TAG_HEALTH_SNAPSHOT: u8 = 0x88;
const TAG_SESSION_STATS_SNAPSHOT: u8 = 0x89;
const TAG_ERROR: u8 = 0xEE;

/// One ingest-protocol message; see the [module docs](self) for the
/// exact byte layout of each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open a stream for `patient`, declaring the
    /// electrode count every subsequent chunk interleaves.
    Hello {
        /// Patient id the client wants a session for.
        patient: String,
        /// Samples per frame the client will send.
        electrodes: u32,
    },
    /// Client → server: a chunk of interleaved frame-major samples.
    Frames {
        /// The samples; length must divide by the session's electrodes.
        chunk: Box<[f32]>,
    },
    /// Client → server: no more frames; the server drains, streams the
    /// remaining events, and closes the connection.
    Close,
    /// Client → server: a clinician-confirmed labeled segment for this
    /// session's patient, to be folded into the model by the server's
    /// adaptation engine (answered later by [`Message::ModelUpdated`]).
    Feedback {
        /// The confirmed brain-state label of the segment.
        label: Label,
        /// Interleaved frame-major samples; length must divide by the
        /// session's electrode count.
        chunk: Box<[f32]>,
    },
    /// Client → server: ask for a live [`WireStats`] snapshot. Valid only
    /// as the first message of a connection (which it turns into an
    /// introspection exchange) or later within one.
    StatsRequest,
    /// Client → server: ask for the flight recorder's retained spans.
    /// Same introspection-only placement as [`Message::StatsRequest`].
    TraceDumpRequest {
        /// Most recent spans to return; 0 means everything retained.
        limit: u32,
    },
    /// Client → server: ask for the SLO engine's live health view. Same
    /// introspection-only placement as [`Message::StatsRequest`]; the
    /// first version-4 message.
    HealthRequest,
    /// Client → server: ask for the per-session observability view (the
    /// heavy-hitter top-K plus an optional single-session lookup). Same
    /// introspection-only placement as [`Message::StatsRequest`]; the
    /// first version-5 message.
    SessionStatsRequest {
        /// A specific session id to look up alongside the top-K, if any.
        session: Option<u64>,
    },
    /// Server → client: the `Hello` was accepted and a session is live.
    Accepted {
        /// Session id within the serving process.
        session: u64,
        /// Electrode count the session expects (echo of the model's).
        electrodes: u32,
    },
    /// Server → client: the session's queue is full; the server is
    /// holding the offending chunk and will not read more until it fits
    /// (explicit backpressure — nothing was dropped).
    Throttle {
        /// Chunks waiting in the session queue when the push failed.
        queued_chunks: u32,
        /// The queue's capacity in chunks.
        capacity_chunks: u32,
    },
    /// Server → client: one classification event (no alarm attached).
    Event {
        /// The event, bit-exact with an in-process detector's.
        event: DetectorEvent,
    },
    /// Server → client: a classification event whose postprocessor
    /// raised an alarm.
    Alarm {
        /// The event; `event.alarm` is always `Some`.
        event: DetectorEvent,
    },
    /// Server → client: the session's detector was hot-swapped to a new
    /// model generation. Sent in stream order: every `Event`/`Alarm`
    /// before it came from the previous model, every one after it from
    /// the new model.
    ModelUpdated {
        /// Generation of the model now running.
        generation: u64,
    },
    /// Server → client: the live service counters, stage histograms, and
    /// shard gauges answering a [`Message::StatsRequest`].
    StatsSnapshot {
        /// The snapshot (boxed: it is much larger than every other
        /// variant and only travels on the introspection path).
        stats: Box<WireStats>,
    },
    /// Server → client: the SLO engine's verdict, rule evaluations,
    /// transition journal, and time-series tail answering a
    /// [`Message::HealthRequest`].
    HealthSnapshot {
        /// The health view (boxed: it carries the series tail and only
        /// travels on the introspection path).
        health: Box<WireHealth>,
    },
    /// Server → client: the heavy-hitter sessions and optional lookup
    /// row answering a [`Message::SessionStatsRequest`].
    SessionStatsSnapshot {
        /// The snapshot (boxed: it carries per-session rows and only
        /// travels on the introspection path).
        sessions: Box<WireSessionStats>,
    },
    /// Server → client: the flight recorder's retained spans answering a
    /// [`Message::TraceDumpRequest`].
    TraceDump {
        /// Spans ever written to the recorder (including overwritten).
        recorded: u64,
        /// Spans lost to recorder slot collisions.
        dropped: u64,
        /// The retained spans, oldest first.
        spans: Vec<WireSpan>,
    },
    /// Either direction: the sender hit a fatal condition; the stream is
    /// over.
    Error {
        /// Human-readable description of what went wrong.
        reason: String,
    },
}

/// One hot-path stage's latency histogram on the wire: the exact sparse
/// form of [`laelaps_telemetry::HistogramSnapshot`], so the reader can
/// reconstruct quantiles with the library's own bucket math.
///
/// Layout: `u8` stage discriminant, `u64` count, `u64` sum, `u64` max,
/// `u32` bucket count, then `(u16 bucket index, u64 count)` pairs ordered
/// by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStage {
    /// [`laelaps_telemetry::Stage`] discriminant (decode with
    /// `Stage::ALL.get(stage as usize)`; unknown values are a newer
    /// peer's stages and safe to skip).
    pub stage: u8,
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of every recorded value, microseconds.
    pub sum: u64,
    /// Exact maximum recorded value, microseconds.
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ordered by index.
    pub buckets: Vec<(u16, u64)>,
}

impl WireStage {
    /// Reassembles the library histogram snapshot this row was built
    /// from, re-enabling [`laelaps_telemetry::HistogramSnapshot::p99`]
    /// and friends on the reader's side.
    pub fn to_histogram(&self) -> laelaps_telemetry::HistogramSnapshot {
        laelaps_telemetry::HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets: self.buckets.clone(),
        }
    }
}

/// One shard worker's saturation gauges on the wire (mirrors
/// [`crate::ShardGauges`]).
///
/// Layout: `u32` shard, `u32` sessions, `u32` ring depth, `u64`
/// in-flight frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireShard {
    /// Shard index.
    pub shard: u32,
    /// Live sessions pinned to this shard.
    pub sessions: u32,
    /// Chunks currently queued across this shard's session rings.
    pub ring_depth_chunks: u32,
    /// Accepted frames not yet processed or discarded on this shard.
    pub in_flight_frames: u64,
}

/// The live-introspection payload of [`Message::StatsSnapshot`]: service
/// totals, the trailing drain rate, tracer accounting, per-stage latency
/// histograms, and per-shard saturation gauges — everything `laelapsctl`
/// renders, flattened from [`crate::ServiceStats`].
///
/// Layout: `u32` sessions, `u32` retired, nine `u64` totals (frames in /
/// processed / dropped / refused / discarded, events, alarms, reserved
/// zero, max drain µs), `f64` recent frames/s (IEEE-754 bits), `u8`
/// telemetry enabled, `u8` trace enabled, four `u64` tracer counters
/// (minted / recorded / dropped / pinned), `u32` stage count + that many
/// [`WireStage`] rows, `u32` shard count + that many [`WireShard`] rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireStats {
    /// Sessions currently registered (live or draining).
    pub sessions: u32,
    /// Sessions already finished and retired from their shard.
    pub retired_sessions: u32,
    /// Frames accepted into session queues, live + retired.
    pub frames_in: u64,
    /// Frames run through the detector.
    pub frames_processed: u64,
    /// Frames rejected by lossy pushes against a full queue.
    pub frames_dropped: u64,
    /// Frames offered after a session closed or failed.
    pub frames_refused: u64,
    /// Accepted frames thrown away after a detector failure.
    pub frames_discarded: u64,
    /// Classification events emitted.
    pub events_out: u64,
    /// Alarms raised.
    pub alarms_out: u64,
    /// Worst-case wall time of one drain batch, microseconds.
    pub max_drain_micros: u64,
    /// Frames drained per second over the trailing 5 s window.
    pub recent_frames_per_sec: f64,
    /// Whether stage timing was on ([`crate::ServeConfig::telemetry`]).
    pub telemetry_enabled: bool,
    /// Whether per-chunk tracing was on ([`crate::ServeConfig::trace`]).
    pub trace_enabled: bool,
    /// Trace ids minted.
    pub trace_minted: u64,
    /// Spans written to the flight recorder (including overwritten ones).
    pub trace_recorded: u64,
    /// Spans dropped to recorder slot collisions.
    pub trace_dropped: u64,
    /// Distinct pinned traces currently remembered.
    pub trace_pinned: u64,
    /// One row per hot-path stage with at least one sample.
    pub stages: Vec<WireStage>,
    /// One row per worker shard, ordered by shard index.
    pub shards: Vec<WireShard>,
}

impl WireStats {
    /// Flattens a [`crate::ServiceStats`] into its wire form.
    pub fn from_stats(stats: &crate::ServiceStats) -> Self {
        let t = &stats.totals;
        let tel = &stats.telemetry;
        WireStats {
            sessions: stats.sessions.min(u32::MAX as usize) as u32,
            retired_sessions: stats.retired_sessions.min(u32::MAX as usize) as u32,
            frames_in: t.frames_in,
            frames_processed: t.frames_processed,
            frames_dropped: t.frames_dropped,
            frames_refused: t.frames_refused,
            frames_discarded: t.frames_discarded,
            events_out: t.events_out,
            alarms_out: t.alarms_out,
            max_drain_micros: t.max_drain_micros,
            recent_frames_per_sec: tel.recent_frames_per_sec,
            telemetry_enabled: tel.enabled,
            trace_enabled: tel.trace.enabled,
            trace_minted: tel.trace.minted,
            trace_recorded: tel.trace.recorded,
            trace_dropped: tel.trace.dropped,
            trace_pinned: tel.trace.pinned,
            stages: tel
                .stages
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(stage, h)| WireStage {
                    stage: stage as u8,
                    count: h.count,
                    sum: h.sum,
                    max: h.max,
                    buckets: h.buckets.clone(),
                })
                .collect(),
            shards: tel
                .shards
                .iter()
                .map(|s| WireShard {
                    shard: s.shard.min(u32::MAX as usize) as u32,
                    sessions: s.sessions.min(u32::MAX as usize) as u32,
                    ring_depth_chunks: s.ring_depth_chunks.min(u32::MAX as usize) as u32,
                    in_flight_frames: s.in_flight_frames,
                })
                .collect(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.sessions.to_le_bytes());
        out.extend_from_slice(&self.retired_sessions.to_le_bytes());
        for v in [
            self.frames_in,
            self.frames_processed,
            self.frames_dropped,
            self.frames_refused,
            self.frames_discarded,
            self.events_out,
            self.alarms_out,
            RESERVED_SLOT,
            self.max_drain_micros,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.recent_frames_per_sec.to_bits().to_le_bytes());
        out.push(self.telemetry_enabled as u8);
        out.push(self.trace_enabled as u8);
        for v in [
            self.trace_minted,
            self.trace_recorded,
            self.trace_dropped,
            self.trace_pinned,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.stages.len() as u32).to_le_bytes());
        for stage in &self.stages {
            out.push(stage.stage);
            out.extend_from_slice(&stage.count.to_le_bytes());
            out.extend_from_slice(&stage.sum.to_le_bytes());
            out.extend_from_slice(&stage.max.to_le_bytes());
            out.extend_from_slice(&(stage.buckets.len() as u32).to_le_bytes());
            for &(index, count) in &stage.buckets {
                out.extend_from_slice(&index.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&shard.shard.to_le_bytes());
            out.extend_from_slice(&shard.sessions.to_le_bytes());
            out.extend_from_slice(&shard.ring_depth_chunks.to_le_bytes());
            out.extend_from_slice(&shard.in_flight_frames.to_le_bytes());
        }
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        let sessions = cursor.u32()?;
        let retired_sessions = cursor.u32()?;
        let frames_in = cursor.u64()?;
        let frames_processed = cursor.u64()?;
        let frames_dropped = cursor.u64()?;
        let frames_refused = cursor.u64()?;
        let frames_discarded = cursor.u64()?;
        let events_out = cursor.u64()?;
        let alarms_out = cursor.u64()?;
        cursor.u64()?; // RESERVED_SLOT
        let max_drain_micros = cursor.u64()?;
        let recent_frames_per_sec = cursor.f64_bits()?;
        let telemetry_enabled = cursor.u8()? != 0;
        let trace_enabled = cursor.u8()? != 0;
        let trace_minted = cursor.u64()?;
        let trace_recorded = cursor.u64()?;
        let trace_dropped = cursor.u64()?;
        let trace_pinned = cursor.u64()?;
        let stage_count = cursor.u32()?;
        let mut stages = Vec::new();
        for _ in 0..stage_count {
            let stage = cursor.u8()?;
            let count = cursor.u64()?;
            let sum = cursor.u64()?;
            let max = cursor.u64()?;
            let bucket_count = cursor.u32()?;
            let mut buckets = Vec::new();
            for _ in 0..bucket_count {
                let index = cursor.u16()?;
                let count = cursor.u64()?;
                buckets.push((index, count));
            }
            stages.push(WireStage {
                stage,
                count,
                sum,
                max,
                buckets,
            });
        }
        let shard_count = cursor.u32()?;
        let mut shards = Vec::new();
        for _ in 0..shard_count {
            shards.push(WireShard {
                shard: cursor.u32()?,
                sessions: cursor.u32()?,
                ring_depth_chunks: cursor.u32()?,
                in_flight_frames: cursor.u64()?,
            });
        }
        Ok(WireStats {
            sessions,
            retired_sessions,
            frames_in,
            frames_processed,
            frames_dropped,
            frames_refused,
            frames_discarded,
            events_out,
            alarms_out,
            max_drain_micros,
            recent_frames_per_sec,
            telemetry_enabled,
            trace_enabled,
            trace_minted,
            trace_recorded,
            trace_dropped,
            trace_pinned,
            stages,
            shards,
        })
    }
}

/// The `u64` after `alarms_out` in [`WireStats`] and [`WireSessionRow`]:
/// written as 0 and skipped on read, so v5 keeps its layout without the
/// removed batched-window count.
const RESERVED_SLOT: u64 = 0;

/// One completed hot-path span on the wire — a fixed 40-byte record:
/// `u64` trace id, `u8` stage discriminant, `u8` pin reason (0 =
/// unpinned), `u16` shard, `u32` model generation, `u64` session id,
/// `u64` start (µs since the tracer's epoch), `u64` duration (µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSpan {
    /// The chunk's trace id.
    pub trace_id: u64,
    /// [`laelaps_telemetry::Stage`] discriminant.
    pub stage: u8,
    /// [`laelaps_telemetry::PinReason`] discriminant if this span's
    /// trace was pinned; 0 when unpinned.
    pub pin: u8,
    /// Shard the span ran on.
    pub shard: u16,
    /// Model generation the session was running.
    pub generation: u32,
    /// Session id.
    pub session: u64,
    /// Span start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

impl WireSpan {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.push(self.stage);
        out.push(self.pin);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.start_us.to_le_bytes());
        out.extend_from_slice(&self.dur_us.to_le_bytes());
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        Ok(WireSpan {
            trace_id: cursor.u64()?,
            stage: cursor.u8()?,
            pin: cursor.u8()?,
            shard: cursor.u16()?,
            generation: cursor.u32()?,
            session: cursor.u64()?,
            start_us: cursor.u64()?,
            dur_us: cursor.u64()?,
        })
    }
}

/// One SLO rule's latest evaluation on the wire (mirrors
/// [`crate::RuleEval`]).
///
/// Layout: `u32` name length + UTF-8 name bytes, `u8` verdict
/// discriminant, `f64` fast burn (IEEE-754 bits), `f64` slow burn.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireRuleEval {
    /// [`crate::SloRule::name`] of the rule.
    pub name: String,
    /// [`crate::HealthVerdict`] discriminant (decode with
    /// [`crate::HealthVerdict::from_raw`]; unknown values are a newer
    /// peer's verdicts and safe to treat as worst-case).
    pub verdict: u8,
    /// Burn rate over the fast window (`observed / ceiling`).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
}

/// One journaled verdict transition on the wire (mirrors
/// [`crate::HealthTransition`]).
///
/// Layout: `u64` tick, `u32` rule-name length + UTF-8 bytes, `u8` from
/// verdict, `u8` to verdict, `f64` fast burn bits, `f64` slow burn bits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireHealthEvent {
    /// Evaluation tick at which the transition happened.
    pub tick: u64,
    /// Rule that moved (or `"overall"` for the folded verdict).
    pub rule: String,
    /// [`crate::HealthVerdict`] discriminant before.
    pub from: u8,
    /// [`crate::HealthVerdict`] discriminant after.
    pub to: u8,
    /// Fast-window burn at transition time.
    pub fast_burn: f64,
    /// Slow-window burn at transition time.
    pub slow_burn: f64,
}

/// One metric time-series row on the wire (mirrors
/// [`laelaps_telemetry::SeriesSample`]; word meanings are
/// [`crate::sample_label`]).
///
/// Layout: `u64` sequence number, `u32` word count, then that many
/// `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireSeriesSample {
    /// The row's sequence number (tick order, monotonically increasing).
    pub seq: u64,
    /// The row's words, in [`crate::sample_label`] order.
    pub words: Vec<u64>,
}

/// The live-health payload of [`Message::HealthSnapshot`]: the SLO
/// engine's folded verdict, every rule's latest burn rates, the
/// transition journal, and the tail of the metric time-series —
/// everything `laelapsctl health` / `laelapsctl watch` render, flattened
/// from [`crate::HealthSnapshot`].
///
/// Layout: `u8` enabled, `u8` verdict discriminant, `u64` ticks, `u32`
/// rule count + that many [`WireRuleEval`] records, `u32` transition
/// count + that many [`WireHealthEvent`] records, `u32` sample count +
/// that many [`WireSeriesSample`] rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireHealth {
    /// Whether health evaluation is running on the server.
    pub enabled: bool,
    /// [`crate::HealthVerdict`] discriminant of the folded verdict.
    pub verdict: u8,
    /// Evaluation ticks performed so far.
    pub ticks: u64,
    /// Latest evaluation of every configured rule.
    pub rules: Vec<WireRuleEval>,
    /// Recent verdict transitions, oldest first.
    pub transitions: Vec<WireHealthEvent>,
    /// Tail of the metric time-series, oldest first.
    pub series: Vec<WireSeriesSample>,
}

impl WireHealth {
    /// Flattens a [`crate::HealthSnapshot`] into its wire form.
    pub fn from_snapshot(snapshot: &crate::HealthSnapshot) -> Self {
        WireHealth {
            enabled: snapshot.enabled,
            verdict: snapshot.verdict as u8,
            ticks: snapshot.ticks,
            rules: snapshot
                .rules
                .iter()
                .map(|r| WireRuleEval {
                    name: r.name.clone(),
                    verdict: r.verdict as u8,
                    fast_burn: r.fast_burn,
                    slow_burn: r.slow_burn,
                })
                .collect(),
            transitions: snapshot
                .transitions
                .iter()
                .map(|t| WireHealthEvent {
                    tick: t.tick,
                    rule: t.rule.clone(),
                    from: t.from as u8,
                    to: t.to as u8,
                    fast_burn: t.fast_burn,
                    slow_burn: t.slow_burn,
                })
                .collect(),
            series: snapshot
                .series
                .iter()
                .map(|s| WireSeriesSample {
                    seq: s.seq,
                    words: s.words.clone(),
                })
                .collect(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.enabled as u8);
        out.push(self.verdict);
        out.extend_from_slice(&self.ticks.to_le_bytes());
        out.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        for rule in &self.rules {
            encode_str(out, &rule.name);
            out.push(rule.verdict);
            out.extend_from_slice(&rule.fast_burn.to_bits().to_le_bytes());
            out.extend_from_slice(&rule.slow_burn.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.transitions.len() as u32).to_le_bytes());
        for event in &self.transitions {
            out.extend_from_slice(&event.tick.to_le_bytes());
            encode_str(out, &event.rule);
            out.push(event.from);
            out.push(event.to);
            out.extend_from_slice(&event.fast_burn.to_bits().to_le_bytes());
            out.extend_from_slice(&event.slow_burn.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.series.len() as u32).to_le_bytes());
        for sample in &self.series {
            out.extend_from_slice(&sample.seq.to_le_bytes());
            out.extend_from_slice(&(sample.words.len() as u32).to_le_bytes());
            for word in &sample.words {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        let enabled = cursor.u8()? != 0;
        let verdict = cursor.u8()?;
        let ticks = cursor.u64()?;
        let rule_count = cursor.u32()?;
        let mut rules = Vec::new();
        for _ in 0..rule_count {
            rules.push(WireRuleEval {
                name: decode_str(cursor, "rule name")?,
                verdict: cursor.u8()?,
                fast_burn: cursor.f64_bits()?,
                slow_burn: cursor.f64_bits()?,
            });
        }
        let transition_count = cursor.u32()?;
        let mut transitions = Vec::new();
        for _ in 0..transition_count {
            transitions.push(WireHealthEvent {
                tick: cursor.u64()?,
                rule: decode_str(cursor, "transition rule")?,
                from: cursor.u8()?,
                to: cursor.u8()?,
                fast_burn: cursor.f64_bits()?,
                slow_burn: cursor.f64_bits()?,
            });
        }
        let sample_count = cursor.u32()?;
        let mut series = Vec::new();
        for _ in 0..sample_count {
            let seq = cursor.u64()?;
            let word_count = cursor.u32()?;
            let mut words = Vec::new();
            for _ in 0..word_count {
                words.push(cursor.u64()?);
            }
            series.push(WireSeriesSample { seq, words });
        }
        Ok(WireHealth {
            enabled,
            verdict,
            ticks,
            rules,
            transitions,
            series,
        })
    }
}

/// One session's observability row on the wire (mirrors
/// [`crate::SessionObsRow`]).
///
/// Layout: `u64` session id, `u32` shard, `u64` model generation, `u32`
/// patient length + UTF-8 patient bytes, twelve `u64` counters (frames
/// in / dropped / refused / discarded / processed, events, alarms,
/// reserved zero, drains, max drain µs, last drain tick, EWMA drain
/// µs), three `u64` heavy-hitter scores (latency / saturation /
/// discard).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireSessionRow {
    /// Session id.
    pub session: u64,
    /// Worker shard the session is pinned to.
    pub shard: u32,
    /// Generation of the model the session is currently running.
    pub generation: u64,
    /// Patient id the session serves.
    pub patient: String,
    /// Frames accepted into the session's queue.
    pub frames_in: u64,
    /// Frames rejected by lossy pushes against a full queue.
    pub frames_dropped: u64,
    /// Frames offered after the session closed or failed.
    pub frames_refused: u64,
    /// Accepted frames thrown away after a detector failure.
    pub frames_discarded: u64,
    /// Frames run through the detector.
    pub frames_processed: u64,
    /// Classification events emitted.
    pub events_out: u64,
    /// Alarms raised.
    pub alarms_out: u64,
    /// Worker drain batches executed for this session.
    pub drains: u64,
    /// Worst-case wall time of one drain batch, microseconds.
    pub max_drain_micros: u64,
    /// Service drain tick of the last productive drain (0 = never);
    /// compare with [`WireSessionStats::ticks`] for staleness.
    pub last_drain_tick: u64,
    /// EWMA of the session's drain latency, microseconds.
    pub ewma_drain_us: u64,
    /// Heavy-hitter latency score (sum of EWMAs over productive passes).
    pub score_latency: u64,
    /// Heavy-hitter saturation score (sum of observed ring depths).
    pub score_saturation: u64,
    /// Heavy-hitter discard score (total frames discarded as sketched).
    pub score_discard: u64,
}

impl WireSessionRow {
    fn from_row(row: &crate::SessionObsRow) -> Self {
        let s = &row.stats;
        WireSessionRow {
            session: row.session,
            shard: row.shard.min(u32::MAX as usize) as u32,
            generation: row.generation,
            patient: row.patient.clone(),
            frames_in: s.frames_in,
            frames_dropped: s.frames_dropped,
            frames_refused: s.frames_refused,
            frames_discarded: s.frames_discarded,
            frames_processed: s.frames_processed,
            events_out: s.events_out,
            alarms_out: s.alarms_out,
            drains: s.drains,
            max_drain_micros: s.max_drain_micros,
            last_drain_tick: s.last_drain_tick,
            ewma_drain_us: s.ewma_drain_us,
            score_latency: row.scores.latency,
            score_saturation: row.scores.saturation,
            score_discard: row.scores.discard,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        encode_str(out, &self.patient);
        for v in [
            self.frames_in,
            self.frames_dropped,
            self.frames_refused,
            self.frames_discarded,
            self.frames_processed,
            self.events_out,
            self.alarms_out,
            RESERVED_SLOT,
            self.drains,
            self.max_drain_micros,
            self.last_drain_tick,
            self.ewma_drain_us,
            self.score_latency,
            self.score_saturation,
            self.score_discard,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        Ok(WireSessionRow {
            session: cursor.u64()?,
            shard: cursor.u32()?,
            generation: cursor.u64()?,
            patient: decode_str(cursor, "session patient id")?,
            frames_in: cursor.u64()?,
            frames_dropped: cursor.u64()?,
            frames_refused: cursor.u64()?,
            frames_discarded: cursor.u64()?,
            frames_processed: cursor.u64()?,
            events_out: cursor.u64()?,
            alarms_out: cursor.u64()?,
            drains: {
                cursor.u64()?; // RESERVED_SLOT
                cursor.u64()?
            },
            max_drain_micros: cursor.u64()?,
            last_drain_tick: cursor.u64()?,
            ewma_drain_us: cursor.u64()?,
            score_latency: cursor.u64()?,
            score_saturation: cursor.u64()?,
            score_discard: cursor.u64()?,
        })
    }
}

/// The per-session payload of [`Message::SessionStatsSnapshot`]: the
/// heavy-hitter top-K (worst combined score first) plus the optional
/// single-session lookup row — everything `laelapsctl sessions` /
/// `laelapsctl top` render, flattened from [`crate::SessionObsSnapshot`].
///
/// Layout: `u8` enabled, `u64` drain ticks, `u32` top-row count + that
/// many [`WireSessionRow`] records, `u8` lookup flag + one
/// [`WireSessionRow`] when the flag is 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireSessionStats {
    /// Whether the per-session layer was on
    /// ([`crate::ServeConfig::sessions`]); when `false`, `top` is empty
    /// but `lookup` still answers.
    pub enabled: bool,
    /// Current service drain tick — compare with
    /// [`WireSessionRow::last_drain_tick`] for staleness.
    pub ticks: u64,
    /// Worst sessions by combined heavy-hitter score, worst first.
    pub top: Vec<WireSessionRow>,
    /// The explicitly requested session, if asked for and still live.
    pub lookup: Option<WireSessionRow>,
}

impl WireSessionStats {
    /// Flattens a [`crate::SessionObsSnapshot`] into its wire form.
    pub fn from_snapshot(snapshot: &crate::SessionObsSnapshot) -> Self {
        WireSessionStats {
            enabled: snapshot.enabled,
            ticks: snapshot.ticks,
            top: snapshot.top.iter().map(WireSessionRow::from_row).collect(),
            lookup: snapshot.lookup.as_ref().map(WireSessionRow::from_row),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.enabled as u8);
        out.extend_from_slice(&self.ticks.to_le_bytes());
        out.extend_from_slice(&(self.top.len() as u32).to_le_bytes());
        for row in &self.top {
            row.encode_into(out);
        }
        match &self.lookup {
            Some(row) => {
                out.push(1);
                row.encode_into(out);
            }
            None => out.push(0),
        }
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        let enabled = cursor.u8()? != 0;
        let ticks = cursor.u64()?;
        let count = cursor.u32()?;
        let mut top = Vec::new();
        for _ in 0..count {
            top.push(WireSessionRow::decode(cursor)?);
        }
        let lookup = match cursor.u8()? {
            0 => None,
            1 => Some(WireSessionRow::decode(cursor)?),
            other => return Err(corrupt(format!("unknown lookup flag 0x{other:02x}"))),
        };
        Ok(WireSessionStats {
            enabled,
            ticks,
            top,
            lookup,
        })
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(cursor: &mut Cursor<'_>, what: &str) -> Result<String> {
    let len = cursor.u32()? as usize;
    String::from_utf8(cursor.take(len)?.to_vec())
        .map_err(|_| corrupt(format!("{what} is not UTF-8")))
}

/// Builds the [`Message::HealthSnapshot`] answering a
/// [`Message::HealthRequest`].
pub fn health_message(snapshot: &crate::HealthSnapshot) -> Message {
    Message::HealthSnapshot {
        health: Box::new(WireHealth::from_snapshot(snapshot)),
    }
}

/// Builds the [`Message::SessionStatsSnapshot`] answering a
/// [`Message::SessionStatsRequest`].
pub fn session_stats_message(snapshot: &crate::SessionObsSnapshot) -> Message {
    Message::SessionStatsSnapshot {
        sessions: Box::new(WireSessionStats::from_snapshot(snapshot)),
    }
}

/// Builds the [`Message::TraceDump`] answering a request with `limit`:
/// the snapshot's spans (already oldest-first) with each trace's pin
/// reason stamped, keeping only the most recent `limit` when `limit` is
/// non-zero.
pub fn trace_dump_message(snapshot: &laelaps_telemetry::TraceSnapshot, limit: u32) -> Message {
    let skip = if limit == 0 {
        0
    } else {
        snapshot.spans.len().saturating_sub(limit as usize)
    };
    let spans = snapshot.spans[skip..]
        .iter()
        .map(|span| WireSpan {
            trace_id: span.trace_id,
            stage: span.stage as u8,
            pin: snapshot
                .pin_reason(span.trace_id)
                .map(|r| r as u8)
                .unwrap_or(0),
            shard: span.shard,
            generation: span.generation,
            session: span.session,
            start_us: span.start_us,
            dur_us: span.dur_us,
        })
        .collect();
    Message::TraceDump {
        recorded: snapshot.recorded,
        dropped: snapshot.dropped,
        spans,
    }
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => TAG_HELLO,
            Message::Frames { .. } => TAG_FRAMES,
            Message::Close => TAG_CLOSE,
            Message::Feedback { .. } => TAG_FEEDBACK,
            Message::StatsRequest => TAG_STATS_REQUEST,
            Message::TraceDumpRequest { .. } => TAG_TRACE_DUMP_REQUEST,
            Message::HealthRequest => TAG_HEALTH_REQUEST,
            Message::SessionStatsRequest { .. } => TAG_SESSION_STATS_REQUEST,
            Message::Accepted { .. } => TAG_ACCEPTED,
            Message::Throttle { .. } => TAG_THROTTLE,
            Message::Event { .. } => TAG_EVENT,
            Message::Alarm { .. } => TAG_ALARM,
            Message::ModelUpdated { .. } => TAG_MODEL_UPDATED,
            Message::StatsSnapshot { .. } => TAG_STATS_SNAPSHOT,
            Message::TraceDump { .. } => TAG_TRACE_DUMP,
            Message::HealthSnapshot { .. } => TAG_HEALTH_SNAPSHOT,
            Message::SessionStatsSnapshot { .. } => TAG_SESSION_STATS_SNAPSHOT,
            Message::Error { .. } => TAG_ERROR,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello {
                patient,
                electrodes,
            } => {
                out.extend_from_slice(&(patient.len() as u32).to_le_bytes());
                out.extend_from_slice(patient.as_bytes());
                out.extend_from_slice(&electrodes.to_le_bytes());
            }
            Message::Frames { chunk } => {
                out.reserve(chunk.len() * 4);
                for &sample in chunk.iter() {
                    out.extend_from_slice(&sample.to_le_bytes());
                }
            }
            Message::Close => {}
            Message::Feedback { label, chunk } => {
                out.reserve(1 + chunk.len() * 4);
                out.push(label.is_ictal() as u8);
                for &sample in chunk.iter() {
                    out.extend_from_slice(&sample.to_le_bytes());
                }
            }
            Message::Accepted {
                session,
                electrodes,
            } => {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&electrodes.to_le_bytes());
            }
            Message::Throttle {
                queued_chunks,
                capacity_chunks,
            } => {
                out.extend_from_slice(&queued_chunks.to_le_bytes());
                out.extend_from_slice(&capacity_chunks.to_le_bytes());
            }
            Message::Event { event } | Message::Alarm { event } => {
                out.extend_from_slice(&event.index.to_le_bytes());
                out.extend_from_slice(&event.end_sample.to_le_bytes());
                out.extend_from_slice(&event.time_secs.to_bits().to_le_bytes());
                out.push(event.classification.label.is_ictal() as u8);
                out.extend_from_slice(&(event.classification.dist_interictal as u64).to_le_bytes());
                out.extend_from_slice(&(event.classification.dist_ictal as u64).to_le_bytes());
                if let Some(alarm) = &event.alarm {
                    out.extend_from_slice(&alarm.label_index.to_le_bytes());
                    out.extend_from_slice(&alarm.mean_delta.to_bits().to_le_bytes());
                }
            }
            Message::StatsRequest => {}
            Message::TraceDumpRequest { limit } => {
                out.extend_from_slice(&limit.to_le_bytes());
            }
            Message::HealthRequest => {}
            Message::SessionStatsRequest { session } => match session {
                Some(id) => {
                    out.push(1);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                None => out.push(0),
            },
            Message::ModelUpdated { generation } => {
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Message::StatsSnapshot { stats } => {
                stats.encode_into(&mut out);
            }
            Message::HealthSnapshot { health } => {
                health.encode_into(&mut out);
            }
            Message::SessionStatsSnapshot { sessions } => {
                sessions.encode_into(&mut out);
            }
            Message::TraceDump {
                recorded,
                dropped,
                spans,
            } => {
                out.reserve(8 + 8 + 4 + spans.len() * 40);
                out.extend_from_slice(&recorded.to_le_bytes());
                out.extend_from_slice(&dropped.to_le_bytes());
                out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
                for span in spans {
                    span.encode_into(&mut out);
                }
            }
            Message::Error { reason } => {
                out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
                out.extend_from_slice(reason.as_bytes());
            }
        }
        out
    }
}

fn corrupt(reason: impl Into<String>) -> ServeError {
    ServeError::Corrupt {
        reason: format!("wire: {}", reason.into()),
    }
}

/// The lowest wire version whose readers understand `tag` — what the
/// writer stamps, so frames using only version-1 features stay readable
/// by version-1 peers (rolling upgrades).
fn version_for_tag(tag: u8) -> u8 {
    match tag {
        TAG_SESSION_STATS_REQUEST | TAG_SESSION_STATS_SNAPSHOT => 5,
        TAG_HEALTH_REQUEST | TAG_HEALTH_SNAPSHOT => 4,
        TAG_STATS_REQUEST | TAG_TRACE_DUMP_REQUEST | TAG_STATS_SNAPSHOT | TAG_TRACE_DUMP => 3,
        TAG_FEEDBACK | TAG_MODEL_UPDATED => 2,
        _ => 1,
    }
}

/// Encodes `message` into one complete wire frame.
///
/// Does not enforce [`MAX_PAYLOAD`]; use [`write_message`], which
/// rejects oversized messages before any byte reaches the transport
/// (an oversized frame would be unreadable on the other end).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let payload = message.payload();
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    frame.extend_from_slice(&WIRE_MAGIC);
    frame.push(version_for_tag(message.tag()));
    frame.push(message.tag());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let mut checksum = Fnv1a::new();
    checksum.update(&frame);
    frame.extend_from_slice(&checksum.finish().to_le_bytes());
    frame
}

/// Encodes `message` and writes the frame to `writer`.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] if the payload exceeds
/// [`MAX_PAYLOAD`] (nothing is written — the peer could only reject the
/// frame as corrupt), or [`ServeError::Io`] on write failure.
pub fn write_message<W: Write>(writer: &mut W, message: &Message) -> Result<()> {
    let frame = encode_message(message);
    let payload_len = frame.len() - HEADER_LEN - CHECKSUM_LEN;
    if payload_len > MAX_PAYLOAD {
        return Err(ServeError::Protocol {
            reason: format!(
                "message payload of {payload_len} bytes exceeds the \
                 {MAX_PAYLOAD}-byte frame cap"
            ),
        });
    }
    writer.write_all(&frame)?;
    Ok(())
}

/// Reads `buf.len()` bytes, distinguishing a clean end-of-stream before
/// the first byte (`Ok(false)`) from a mid-buffer truncation (error).
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(corrupt("frame truncated by end of stream"));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads and verifies one frame from `reader`.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); an EOF anywhere inside a frame is
/// [`ServeError::Corrupt`].
///
/// # Errors
///
/// * [`ServeError::VersionMismatch`] — frame from a newer protocol
///   (gated before the checksum, mirroring [`crate::load_model`]);
/// * [`ServeError::Corrupt`] — bad magic, oversized or truncated
///   payload, checksum mismatch, unknown tag, or malformed payload;
/// * [`ServeError::Io`] — transport failure.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Option<Message>> {
    read_message_timed(reader, None)
}

/// [`read_message`] with optional stage timing: a
/// [`laelaps_telemetry::Stage::WireDecode`] timer starts only after the
/// 8-byte header has fully arrived, so idle socket waits between
/// messages are never charged to decode latency — only validating +
/// reading the body, the checksum pass, and payload parsing are.
///
/// # Errors
///
/// Same as [`read_message`].
pub fn read_message_timed<R: Read>(
    reader: &mut R,
    stages: Option<&laelaps_telemetry::StageSet>,
) -> Result<Option<Message>> {
    Ok(read_message_spanned(reader, stages)?.map(|(message, _)| message))
}

/// [`read_message_timed`] that also hands back the measured decode time
/// in microseconds, so the caller can attach a
/// [`laelaps_telemetry::Stage::WireDecode`] span to the chunk's causal
/// trace. The duration is 0 whenever no enabled
/// [`laelaps_telemetry::StageSet`] was passed
/// (the clock is never read then — tracing alone does not pay for wire
/// timing).
///
/// # Errors
///
/// Same as [`read_message`].
pub fn read_message_spanned<R: Read>(
    reader: &mut R,
    stages: Option<&laelaps_telemetry::StageSet>,
) -> Result<Option<(Message, u64)>> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(reader, &mut header)? {
        return Ok(None);
    }
    let timer = stages.map(|s| s.timer(laelaps_telemetry::Stage::WireDecode));
    if header[..2] != WIRE_MAGIC {
        return Err(corrupt("bad magic (not a Laelaps wire frame)"));
    }
    let version = header[2];
    if version == 0 || version > WIRE_VERSION {
        return Err(ServeError::VersionMismatch {
            found: version as u64,
            supported: WIRE_VERSION as u32,
        });
    }
    let tag = header[3];
    let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(corrupt(format!(
            "payload length {payload_len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let mut rest = vec![0u8; payload_len + CHECKSUM_LEN];
    if !read_full(reader, &mut rest)? {
        return Err(corrupt("frame truncated by end of stream"));
    }
    let (payload, footer) = rest.split_at(payload_len);
    let mut checksum = Fnv1a::new();
    checksum.update(&header);
    checksum.update(payload);
    let expected = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    if checksum.finish() != expected {
        return Err(corrupt("checksum mismatch"));
    }
    let message = decode_payload(tag, payload)?;
    let decode_us = timer.map(|t| t.commit()).unwrap_or(0);
    Ok(Some((message, decode_us)))
}

/// A little-endian cursor over a verified payload.
struct Cursor<'p> {
    bytes: &'p [u8],
}

impl<'p> Cursor<'p> {
    fn take(&mut self, n: usize) -> Result<&'p [u8]> {
        if self.bytes.len() < n {
            return Err(corrupt("payload shorter than its message requires"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(&self) -> Result<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(corrupt("payload longer than its message requires"))
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message> {
    let mut cursor = Cursor { bytes: payload };
    let message = match tag {
        TAG_HELLO => {
            let len = cursor.u32()? as usize;
            let patient = String::from_utf8(cursor.take(len)?.to_vec())
                .map_err(|_| corrupt("patient id is not UTF-8"))?;
            let electrodes = cursor.u32()?;
            Message::Hello {
                patient,
                electrodes,
            }
        }
        TAG_FRAMES => {
            if !payload.len().is_multiple_of(4) {
                return Err(corrupt("frames payload is not whole f32 samples"));
            }
            let chunk: Box<[f32]> = payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            cursor.take(payload.len())?;
            Message::Frames { chunk }
        }
        TAG_CLOSE => Message::Close,
        TAG_FEEDBACK => {
            let label = match cursor.u8()? {
                0 => Label::Interictal,
                1 => Label::Ictal,
                other => {
                    return Err(corrupt(format!(
                        "unknown feedback label byte 0x{other:02x}"
                    )))
                }
            };
            let samples = cursor.take(payload.len() - 1)?;
            if !samples.len().is_multiple_of(4) {
                return Err(corrupt("feedback payload is not whole f32 samples"));
            }
            let chunk: Box<[f32]> = samples
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            Message::Feedback { label, chunk }
        }
        TAG_ACCEPTED => Message::Accepted {
            session: cursor.u64()?,
            electrodes: cursor.u32()?,
        },
        TAG_THROTTLE => Message::Throttle {
            queued_chunks: cursor.u32()?,
            capacity_chunks: cursor.u32()?,
        },
        TAG_EVENT | TAG_ALARM => {
            let index = cursor.u64()?;
            let end_sample = cursor.u64()?;
            let time_secs = cursor.f64_bits()?;
            let label = match cursor.u8()? {
                0 => Label::Interictal,
                1 => Label::Ictal,
                other => return Err(corrupt(format!("unknown label byte 0x{other:02x}"))),
            };
            let dist_interictal = cursor.u64()? as usize;
            let dist_ictal = cursor.u64()? as usize;
            let alarm = if tag == TAG_ALARM {
                Some(Alarm {
                    label_index: cursor.u64()?,
                    mean_delta: cursor.f64_bits()?,
                })
            } else {
                None
            };
            let event = DetectorEvent {
                index,
                end_sample,
                time_secs,
                classification: Classification {
                    label,
                    dist_interictal,
                    dist_ictal,
                },
                alarm,
            };
            if tag == TAG_ALARM {
                Message::Alarm { event }
            } else {
                Message::Event { event }
            }
        }
        TAG_STATS_REQUEST => Message::StatsRequest,
        TAG_TRACE_DUMP_REQUEST => Message::TraceDumpRequest {
            limit: cursor.u32()?,
        },
        TAG_HEALTH_REQUEST => Message::HealthRequest,
        TAG_SESSION_STATS_REQUEST => {
            let session = match cursor.u8()? {
                0 => None,
                1 => Some(cursor.u64()?),
                other => return Err(corrupt(format!("unknown lookup flag 0x{other:02x}"))),
            };
            Message::SessionStatsRequest { session }
        }
        TAG_MODEL_UPDATED => Message::ModelUpdated {
            generation: cursor.u64()?,
        },
        TAG_STATS_SNAPSHOT => Message::StatsSnapshot {
            stats: Box::new(WireStats::decode(&mut cursor)?),
        },
        TAG_HEALTH_SNAPSHOT => Message::HealthSnapshot {
            health: Box::new(WireHealth::decode(&mut cursor)?),
        },
        TAG_SESSION_STATS_SNAPSHOT => Message::SessionStatsSnapshot {
            sessions: Box::new(WireSessionStats::decode(&mut cursor)?),
        },
        TAG_TRACE_DUMP => {
            let recorded = cursor.u64()?;
            let dropped = cursor.u64()?;
            let count = cursor.u32()?;
            let mut spans = Vec::new();
            for _ in 0..count {
                spans.push(WireSpan::decode(&mut cursor)?);
            }
            Message::TraceDump {
                recorded,
                dropped,
                spans,
            }
        }
        TAG_ERROR => {
            let len = cursor.u32()? as usize;
            let reason = String::from_utf8(cursor.take(len)?.to_vec())
                .map_err(|_| corrupt("error reason is not UTF-8"))?;
            Message::Error { reason }
        }
        other => return Err(corrupt(format!("unknown message type 0x{other:02x}"))),
    };
    cursor.finish()?;
    Ok(message)
}

/// Builds the `Event`/`Alarm` message for a detector event: events whose
/// postprocessor fired travel as [`Message::Alarm`], the rest as
/// [`Message::Event`].
pub fn event_message(event: DetectorEvent) -> Message {
    if event.alarm.is_some() {
        Message::Alarm { event }
    } else {
        Message::Event { event }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event(alarm: bool) -> DetectorEvent {
        DetectorEvent {
            index: 41,
            end_sample: 21504,
            time_secs: 42.0,
            classification: Classification {
                label: Label::Ictal,
                dist_interictal: 4811,
                dist_ictal: 1009,
            },
            alarm: alarm.then_some(Alarm {
                label_index: 41,
                mean_delta: 0.1 + 0.2, // deliberately non-representable
            }),
        }
    }

    fn sample_stats() -> WireStats {
        WireStats {
            sessions: 3,
            retired_sessions: 1,
            frames_in: 4096,
            frames_processed: 4000,
            frames_dropped: 5,
            frames_refused: 2,
            frames_discarded: 89,
            events_out: 15,
            alarms_out: 1,
            max_drain_micros: 731,
            recent_frames_per_sec: 512.25,
            telemetry_enabled: true,
            trace_enabled: true,
            trace_minted: 4103,
            trace_recorded: 16412,
            trace_dropped: 2,
            trace_pinned: 7,
            stages: vec![
                WireStage {
                    stage: 0,
                    count: 100,
                    sum: 5_000,
                    max: 90,
                    buckets: vec![(3, 10), (17, 90)],
                },
                WireStage {
                    stage: 3,
                    count: 1,
                    sum: 7,
                    max: 7,
                    buckets: vec![(7, 1)],
                },
            ],
            shards: vec![
                WireShard {
                    shard: 0,
                    sessions: 2,
                    ring_depth_chunks: 5,
                    in_flight_frames: 1280,
                },
                WireShard {
                    shard: 1,
                    sessions: 1,
                    ring_depth_chunks: 0,
                    in_flight_frames: 0,
                },
            ],
        }
    }

    fn sample_health() -> WireHealth {
        WireHealth {
            enabled: true,
            verdict: 2,
            ticks: 907,
            rules: vec![
                WireRuleEval {
                    name: "stage_p99:classify".into(),
                    verdict: 0,
                    fast_burn: 0.25,
                    slow_burn: 0.75,
                },
                WireRuleEval {
                    name: "shard_stall".into(),
                    verdict: 2,
                    fast_burn: 1.5,
                    slow_burn: 1.5,
                },
            ],
            transitions: vec![WireHealthEvent {
                tick: 811,
                rule: "overall".into(),
                from: 0,
                to: 2,
                fast_burn: 1.5,
                slow_burn: 1.5,
            }],
            series: vec![
                WireSeriesSample {
                    seq: 905,
                    words: vec![4096, 4000, 5, 2, 89, 12],
                },
                WireSeriesSample {
                    seq: 906,
                    words: vec![0; 6],
                },
            ],
        }
    }

    fn sample_session_stats() -> WireSessionStats {
        WireSessionStats {
            enabled: true,
            ticks: 4_811,
            top: vec![
                WireSessionRow {
                    session: 7,
                    shard: 1,
                    generation: 2,
                    patient: "chb03".into(),
                    frames_in: 4096,
                    frames_dropped: 12,
                    frames_refused: 1,
                    frames_discarded: 256,
                    frames_processed: 3828,
                    events_out: 14,
                    alarms_out: 1,
                    drains: 31,
                    max_drain_micros: 977,
                    last_drain_tick: 4_810,
                    ewma_drain_us: 412,
                    score_latency: 9_001,
                    score_saturation: 77,
                    score_discard: 256,
                },
                WireSessionRow::default(),
            ],
            lookup: Some(WireSessionRow {
                session: 11,
                patient: "chb01".into(),
                ..Default::default()
            }),
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        let messages = [
            Message::Hello {
                patient: "chb01".into(),
                electrodes: 23,
            },
            Message::Frames {
                chunk: vec![0.0, -1.5, f32::MIN_POSITIVE, 3.25].into(),
            },
            Message::Close,
            Message::Feedback {
                label: Label::Ictal,
                chunk: vec![1.0, -2.5, 0.125].into(),
            },
            Message::Feedback {
                label: Label::Interictal,
                chunk: Box::new([]),
            },
            Message::Accepted {
                session: u64::MAX,
                electrodes: 4,
            },
            Message::ModelUpdated { generation: 7 },
            Message::Throttle {
                queued_chunks: 64,
                capacity_chunks: 64,
            },
            event_message(sample_event(false)),
            event_message(sample_event(true)),
            Message::StatsRequest,
            Message::TraceDumpRequest { limit: 0 },
            Message::TraceDumpRequest { limit: 128 },
            Message::StatsSnapshot {
                stats: Box::new(sample_stats()),
            },
            Message::StatsSnapshot {
                stats: Box::default(),
            },
            Message::TraceDump {
                recorded: 900,
                dropped: 3,
                spans: vec![
                    WireSpan {
                        trace_id: 41,
                        stage: 0,
                        pin: 1,
                        shard: 2,
                        generation: 7,
                        session: 11,
                        start_us: 1_000,
                        dur_us: 250,
                    },
                    WireSpan::default(),
                ],
            },
            Message::TraceDump {
                recorded: 0,
                dropped: 0,
                spans: Vec::new(),
            },
            Message::HealthRequest,
            Message::HealthSnapshot {
                health: Box::new(sample_health()),
            },
            Message::HealthSnapshot {
                health: Box::default(),
            },
            Message::SessionStatsRequest { session: None },
            Message::SessionStatsRequest {
                session: Some(u64::MAX),
            },
            Message::SessionStatsSnapshot {
                sessions: Box::new(sample_session_stats()),
            },
            Message::SessionStatsSnapshot {
                sessions: Box::default(),
            },
            Message::Error {
                reason: "no model for patient".into(),
            },
        ];
        let mut stream = Vec::new();
        for message in &messages {
            write_message(&mut stream, message).unwrap();
        }
        let mut reader = stream.as_slice();
        for message in &messages {
            assert_eq!(read_message(&mut reader).unwrap().as_ref(), Some(message));
        }
        assert_eq!(read_message(&mut reader).unwrap(), None);
    }

    #[test]
    fn session_stats_frames_are_stamped_version_5() {
        // Older messages must keep their original stamp so v5 builds
        // stay readable by not-yet-upgraded peers.
        let frame = encode_message(&Message::SessionStatsRequest { session: None });
        assert_eq!(frame[2], 5);
        let frame = encode_message(&session_stats_message(&Default::default()));
        assert_eq!(frame[2], 5);
        let frame = encode_message(&Message::HealthRequest);
        assert_eq!(frame[2], 4);
        let frame = encode_message(&Message::StatsRequest);
        assert_eq!(frame[2], 3);
    }

    #[test]
    fn alarm_floats_are_bit_exact() {
        let event = sample_event(true);
        let bytes = encode_message(&event_message(event));
        let Some(Message::Alarm { event: back }) = read_message(&mut bytes.as_slice()).unwrap()
        else {
            panic!("expected an alarm message");
        };
        assert_eq!(
            back.alarm.unwrap().mean_delta.to_bits(),
            event.alarm.unwrap().mean_delta.to_bits()
        );
        assert_eq!(back.time_secs.to_bits(), event.time_secs.to_bits());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        // Decoding is permissive; the server rejects empty chunks at the
        // session layer where the width contract lives.
        let bytes = encode_message(&Message::Frames {
            chunk: Box::new([]),
        });
        assert_eq!(
            read_message(&mut bytes.as_slice()).unwrap(),
            Some(Message::Frames {
                chunk: Box::new([])
            })
        );
    }

    /// Lower-case hex of `bytes`, for compact byte-golden literals.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Pins the v5 byte layout of `StatsSnapshot` and
    /// `SessionStatsSnapshot`: header, every payload slot in order
    /// (including the reserved, always-zero `u64` after `alarms_out`),
    /// and the checksum. Fields left to `Default` encode as zero.
    #[test]
    fn introspection_snapshots_match_byte_golden() {
        let stats = Message::StatsSnapshot {
            stats: Box::new(WireStats {
                sessions: 3,
                retired_sessions: 1,
                frames_in: 4096,
                frames_processed: 4000,
                frames_dropped: 5,
                frames_discarded: 89,
                events_out: 15,
                alarms_out: 1,
                max_drain_micros: 731,
                recent_frames_per_sec: 512.25,
                telemetry_enabled: true,
                trace_enabled: true,
                trace_minted: 4103,
                trace_recorded: 16412,
                trace_dropped: 2,
                trace_pinned: 7,
                stages: vec![WireStage {
                    stage: 8,
                    count: 100,
                    sum: 5_000,
                    max: 90,
                    buckets: vec![(3, 10), (17, 90)],
                }],
                shards: vec![WireShard {
                    shard: 1,
                    sessions: 2,
                    ring_depth_chunks: 5,
                    in_flight_frames: 1280,
                }],
                ..Default::default()
            }),
        };
        let sessions = Message::SessionStatsSnapshot {
            sessions: Box::new(WireSessionStats {
                enabled: true,
                ticks: 4_811,
                top: vec![WireSessionRow {
                    session: 7,
                    shard: 1,
                    generation: 2,
                    patient: "chb03".into(),
                    frames_in: 4096,
                    frames_dropped: 12,
                    frames_discarded: 256,
                    frames_processed: 3828,
                    events_out: 14,
                    alarms_out: 1,
                    drains: 31,
                    max_drain_micros: 977,
                    last_drain_tick: 4_810,
                    ewma_drain_us: 412,
                    score_latency: 9_001,
                    score_saturation: 77,
                    score_discard: 256,
                    ..Default::default()
                }],
                lookup: None,
            }),
        };
        const STATS_GOLDEN: &str = concat!(
            "4c570386c7000000", // header: magic, version 3, tag 0x86, payload length
            "0300000001000000", // sessions, retired sessions
            "0010000000000000a00f0000000000000500000000000000000000000000000059000000000000000f000000000000000100000000000000", // frames in/processed/dropped/refused/discarded, events, alarms
            "0000000000000000", // reserved slot, always zero
            "db02000000000000", // max drain µs
            "0000000000028040", // recent frames/s (f64 bits)
            "0101", // telemetry and trace enabled
            "07100000000000001c4000000000000002000000000000000700000000000000", // trace minted/recorded/dropped/pinned
            "0100000008640000000000000088130000000000005a000000000000000200000003000a0000000000000011005a00000000000000", // one stage row
            "010000000100000002000000050000000005000000000000", // one shard row
            "e895155be1dd4dbe", // FNV-1a checksum
        );
        const SESSIONS_GOLDEN: &str = concat!(
            "4c570589a3000000", // header: magic, version 5, tag 0x89, payload length
            "01cb1200000000000001000000", // enabled, ticks, one top row
            "0700000000000000010000000200000000000000050000006368623033", // session, shard, generation, patient
            "00100000000000000c0000000000000000000000000000000001000000000000f40e0000000000000e000000000000000100000000000000", // frames in/dropped/refused/discarded/processed, events, alarms
            "0000000000000000", // reserved slot, always zero
            "1f00000000000000d103000000000000ca120000000000009c01000000000000", // drains, max drain µs, last drain tick, EWMA
            "29230000000000004d000000000000000001000000000000", // heavy-hitter scores
            "00", // no lookup row
            "3fdd8fd58f661962", // FNV-1a checksum
        );
        for (message, golden) in [(stats, STATS_GOLDEN), (sessions, SESSIONS_GOLDEN)] {
            let bytes = encode_message(&message);
            assert_eq!(hex(&bytes), golden);
            assert_eq!(read_message(&mut bytes.as_slice()).unwrap(), Some(message));
        }
    }
}
