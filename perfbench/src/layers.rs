//! The traced run's layer timings, taken from outside the program: each
//! layer's public function is called on the workload's own signal and
//! model, single-threaded, with no service running.

use std::hint::black_box;
use std::time::Instant;

use laelaps_core::lbp::{LbpCode, LbpExtractor};
use laelaps_core::{
    Classification, Detector, Encoder, PatientModel, Postprocessor, SpatialEncoder, WindowVector,
};
use laelaps_serve::wire::{encode_message, read_message, Message};
use laelaps_serve::{DetectionService, PushError, ServeConfig};

use crate::host;
use crate::workload::{Patient, CHUNK_FRAMES, FS};

/// Signal each repetition runs through a layer.
const SIGNAL_SECS: usize = 30;
/// Repetitions, each timing every layer back to back. Each figure is the
/// fastest repetition's: interference from other work on the host only
/// ever adds time, and the differences between layers (temporal, shell)
/// are only meaningful between undisturbed timings.
const REPS: usize = 15;
/// Passes over a repetition's windows when timing classify and
/// postprocess, which run once per 256 frames.
const WINDOW_PASSES: usize = 20;
/// Wire messages encoded or decoded per repetition.
const WIRE_MESSAGES: usize = 500;
/// Sessions in the one-worker service that times the serving shell.
const SHELL_SESSIONS: usize = 4;
/// Sessions opened to time `open_session` and size a session's state.
const STATE_SESSIONS: usize = 64;

/// Best-of-[`REPS`] ns per frame (or per window, or µs per chunk) of each
/// layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    pub lbp_ns: f64,
    pub spatial_ns: f64,
    /// `Encoder::push_frame` minus its LBP and spatial steps.
    pub temporal_ns: f64,
    pub encoder_ns: f64,
    pub detector_ns: f64,
    /// A one-worker service's ns per frame minus the detector's.
    pub shell_ns: f64,
    pub classify_ns_per_window: f64,
    pub postprocess_ns_per_window: f64,
    /// A frame's share of every layer above, over the detector's own cost.
    pub sum_ratio: f64,
    /// Windows completed per frame on the timed signal.
    pub windows_per_frame: f64,
    pub wire_encode_us: f64,
    pub wire_decode_us: f64,
}

/// Nanoseconds per item of `items` runs of `f`.
fn per_item_ns(items: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / items.max(1) as f64
}

pub fn measure(patient: &Patient) -> LayerTimes {
    let model: &PatientModel = &patient.model;
    let config = model.config();
    let electrodes = patient.electrodes();
    let frames: Vec<f32> = (0..SIGNAL_SECS * FS / CHUNK_FRAMES)
        .flat_map(|k| patient.chunk(0, k).iter().copied())
        .collect();
    let frame_count = frames.len() / electrodes;

    // Inputs of the later layers, from one untimed pass of the earlier.
    let mut extractors: Vec<LbpExtractor> = (0..electrodes)
        .map(|_| LbpExtractor::new(config.lbp_len))
        .collect();
    let codes: Vec<Vec<LbpCode>> = frames
        .chunks_exact(electrodes)
        .filter_map(|frame| {
            // Every extractor sees every sample, warm or not.
            let codes: Vec<Option<LbpCode>> = frame
                .iter()
                .zip(&mut extractors)
                .map(|(&x, ex)| ex.push(x))
                .collect();
            codes.into_iter().collect::<Option<Vec<LbpCode>>>()
        })
        .collect();
    let mut encoder = Encoder::new(config, electrodes).expect("config is valid");
    let windows: Vec<WindowVector> = frames
        .chunks_exact(electrodes)
        .filter_map(|frame| encoder.push_frame(frame).expect("frame width matches"))
        .collect();
    let classifications: Vec<Classification> = windows
        .iter()
        .map(|w| model.am().classify(&w.vector))
        .collect();

    let windows_per_frame = windows.len() as f64 / frame_count as f64;
    let warm_share = codes.len() as f64 / frame_count as f64;
    let [mut lbp, mut spatial, mut enc, mut det, mut service, mut classify, mut post] =
        [f64::INFINITY; 7];
    // Every repetition's encoders stay allocated until the end, so each
    // repetition gets fresh addresses: at large d a layer's speed depends
    // on where its hypervectors land in the cache, and freed blocks would
    // otherwise hand every repetition the same layout.
    let mut kept = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut extractors: Vec<LbpExtractor> = (0..electrodes)
            .map(|_| LbpExtractor::new(config.lbp_len))
            .collect();
        let mut out: Vec<LbpCode> = vec![0; electrodes];
        lbp = lbp.min(per_item_ns(frame_count, || {
            for frame in frames.chunks_exact(electrodes) {
                for ((&x, ex), code) in frame.iter().zip(&mut extractors).zip(&mut out) {
                    if let Some(c) = ex.push(x) {
                        *code = c;
                    }
                }
                black_box(&out);
            }
        }));

        let mut spatial_encoder = SpatialEncoder::new(config, electrodes).expect("config is valid");
        // `encode` runs on warm frames only; charge it per frame.
        spatial = spatial.min(
            warm_share
                * per_item_ns(codes.len(), || {
                    for frame_codes in &codes {
                        black_box(spatial_encoder.encode(black_box(frame_codes)));
                    }
                }),
        );

        let mut encoder = Encoder::new(config, electrodes).expect("config is valid");
        enc = enc.min(per_item_ns(frame_count, || {
            for frame in frames.chunks_exact(electrodes) {
                black_box(
                    encoder
                        .push_frame(black_box(frame))
                        .expect("frame width matches"),
                );
            }
        }));

        let mut detector = Detector::new(model).expect("model is valid");
        det = det.min(per_item_ns(frame_count, || {
            for frame in frames.chunks_exact(electrodes) {
                black_box(
                    detector
                        .push_frame(black_box(frame))
                        .expect("frame width matches"),
                );
            }
        }));
        service = service.min(one_worker_ns(patient, &frames));
        kept.push((spatial_encoder, encoder, detector));

        classify = classify.min(per_item_ns(windows.len() * WINDOW_PASSES, || {
            for _ in 0..WINDOW_PASSES {
                for w in &windows {
                    black_box(model.am().classify(black_box(&w.vector)));
                }
            }
        }));

        post = post.min(per_item_ns(classifications.len() * WINDOW_PASSES, || {
            for _ in 0..WINDOW_PASSES {
                let mut postprocessor = Postprocessor::new(config);
                for c in &classifications {
                    black_box(postprocessor.push(black_box(c)));
                }
            }
        }));
    }

    let temporal = enc - lbp - spatial;
    let per_window = (classify + post) * windows_per_frame;
    let (wire_encode_us, wire_decode_us) = wire_us(&frames[..CHUNK_FRAMES * electrodes]);
    LayerTimes {
        lbp_ns: lbp,
        spatial_ns: spatial,
        temporal_ns: temporal,
        encoder_ns: enc,
        detector_ns: det,
        shell_ns: service - det,
        classify_ns_per_window: classify,
        postprocess_ns_per_window: post,
        sum_ratio: (lbp + spatial + temporal + per_window) / det,
        windows_per_frame,
        wire_encode_us,
        wire_decode_us,
    }
}

/// Wall ns per frame of a one-worker `DetectionService` streaming
/// `frames` into [`SHELL_SESSIONS`] sessions as fast as their rings take
/// them.
fn one_worker_ns(patient: &Patient, frames: &[f32]) -> f64 {
    let service = DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut handles: Vec<_> = (0..SHELL_SESSIONS)
        .map(|i| {
            service
                .open_session(&format!("S{i}"), &patient.model)
                .expect("session opens")
        })
        .collect();
    let tap = handles[0].tap();
    let chunk_len = CHUNK_FRAMES * patient.electrodes();
    let chunks: Vec<&[f32]> = frames.chunks_exact(chunk_len).collect();
    let mut next = vec![0usize; handles.len()];
    let t = Instant::now();
    while next.iter().any(|&k| k < chunks.len()) {
        let seen = tap.progress_generation();
        let mut pushed = false;
        for (handle, k) in handles.iter_mut().zip(&mut next) {
            while *k < chunks.len() {
                match handle.try_push_chunk(chunks[*k].into()) {
                    Ok(()) => {
                        *k += 1;
                        pushed = true;
                    }
                    Err(PushError::Full(_)) => break,
                    Err(e) => panic!("push failed: {e}"),
                }
            }
        }
        if !pushed {
            tap.wait_progress(seen, std::time::Duration::from_millis(1));
        }
    }
    service.flush();
    let elapsed = t.elapsed();
    for handle in &mut handles {
        handle.close();
    }
    elapsed.as_nanos() as f64 / (handles.len() * chunks.len() * CHUNK_FRAMES) as f64
}

/// Best-of-[`REPS`] µs to encode, and to decode, one `Frames` message
/// carrying `chunk`.
fn wire_us(chunk: &[f32]) -> (f64, f64) {
    let message = Message::Frames {
        chunk: chunk.into(),
    };
    let bytes = encode_message(&message);
    let (mut encode, mut decode) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        encode = encode.min(per_item_ns(WIRE_MESSAGES, || {
            for _ in 0..WIRE_MESSAGES {
                black_box(encode_message(black_box(&message)));
            }
        }));
        decode = decode.min(per_item_ns(WIRE_MESSAGES, || {
            for _ in 0..WIRE_MESSAGES {
                let mut reader = black_box(bytes.as_slice());
                black_box(read_message(&mut reader).expect("message decodes"));
            }
        }));
    }
    (encode / 1e3, decode / 1e3)
}

/// Opens [`STATE_SESSIONS`] sessions of `model` on `service`, timing each
/// `open_session`, and returns those times with the resident memory the
/// sessions added, in kB per session. The sessions are closed again.
pub fn open_sessions(service: &DetectionService, model: &PatientModel) -> (Vec<f64>, f64) {
    host::release_free_heap();
    let rss_before = host::status_kb("VmRSS");
    let mut open_us = Vec::with_capacity(STATE_SESSIONS);
    let handles: Vec<_> = (0..STATE_SESSIONS)
        .map(|i| {
            let t = Instant::now();
            let handle = service
                .open_session(&format!("T{i}"), model)
                .expect("session opens");
            open_us.push(t.elapsed().as_secs_f64() * 1e6);
            handle
        })
        .collect();
    let rss_after = host::status_kb("VmRSS");
    drop(handles);
    let state_kb = rss_after.saturating_sub(rss_before) as f64 / STATE_SESSIONS as f64;
    (open_us, state_kb)
}
