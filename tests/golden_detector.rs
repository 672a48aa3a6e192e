//! Golden corpus of detector outputs.
//!
//! Every case streams a seeded synthetic patient through a trained model
//! and reduces the resulting `DetectorEvent`s to an FNV-1a hash over every
//! field plus a sampled, human-readable event list. The rendering must
//! equal `tests/golden/detector_events.txt` byte for byte, so any change to
//! the encoder, the associative memory or the postprocessor that moves a
//! single distance, timestamp or alarm fails here.
//!
//! Each case is replayed through a bare `Detector` and through an
//! in-process `DetectionService`; one case also goes over loopback TCP.
//! All replays must agree with each other before they are compared with
//! the golden file.
//!
//! On a mismatch the actual rendering is written to
//! `detector_events.actual.txt` in the system temp directory and its path
//! is printed; after a deliberate change in detector behaviour, review
//! that file and copy it over the golden one.

use std::fmt::Write as _;
use std::sync::Arc;

use laelaps::core::hv::TiePolicy;
use laelaps::core::{Detector, DetectorEvent, LaelapsConfig, PatientModel, Trainer, TrainingData};
use laelaps::ieeg::synth::demo_patient;
use laelaps::serve::net::{IngestClient, IngestServer};
use laelaps::serve::{DetectionService, ModelRegistry, PushError, ServeConfig};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/detector_events.txt"
);
const FS: usize = 512;
/// Frames per pushed chunk: one 0.5 s hop.
const CHUNK: usize = 256;
/// Every `SAMPLE_EVERY`th event (and every alarm) is listed in full.
const SAMPLE_EVERY: usize = 32;

/// One recorded configuration.
struct Case {
    name: &'static str,
    dim: usize,
    policy: TiePolicy,
    electrodes: usize,
    /// Frame at which the model is hot-swapped for the second model.
    swap_at: Option<usize>,
}

const CASES: [Case; 6] = [
    Case {
        name: "d1000_zero_on_tie_e12",
        dim: 1000,
        policy: TiePolicy::ZeroOnTie,
        electrodes: 12,
        swap_at: None,
    },
    Case {
        name: "d1000_tie_break_e12",
        dim: 1000,
        policy: TiePolicy::TieBreakVector,
        electrodes: 12,
        swap_at: None,
    },
    Case {
        name: "d10000_zero_on_tie_e12",
        dim: 10_000,
        policy: TiePolicy::ZeroOnTie,
        electrodes: 12,
        swap_at: None,
    },
    Case {
        name: "d10000_tie_break_e12",
        dim: 10_000,
        policy: TiePolicy::TieBreakVector,
        electrodes: 12,
        swap_at: None,
    },
    Case {
        name: "d1000_tie_break_e11",
        dim: 1000,
        policy: TiePolicy::TieBreakVector,
        electrodes: 11,
        swap_at: None,
    },
    Case {
        name: "d1000_tie_break_e12_hot_swap",
        dim: 1000,
        policy: TiePolicy::TieBreakVector,
        electrodes: 12,
        swap_at: Some(CHUNK * 60),
    },
];

/// The patient's channels, cut to what the cases use.
struct Patient {
    channels: Vec<Vec<f32>>,
    ictal: std::ops::Range<usize>,
    interictal: [std::ops::Range<usize>; 2],
    stream: std::ops::Range<usize>,
}

fn patient() -> Patient {
    let recording = demo_patient(14).synthesize().expect("synthesis succeeds");
    let seizures = recording.annotations();
    let first = seizures[0];
    let second = seizures[1];
    let inter_end = first.onset_sample as usize - 45 * FS;
    let stream_start = second.onset_sample as usize - 40 * FS;
    let stream_end = (second.range().end + 30 * FS).min(recording.len_samples());
    Patient {
        channels: recording.channels().to_vec(),
        ictal: first.range(),
        interictal: [
            inter_end - 30 * FS..inter_end,
            inter_end - 90 * FS..inter_end - 60 * FS,
        ],
        stream: stream_start..stream_end,
    }
}

/// The model trained on the first seizure and one interictal segment;
/// `variant` picks the segment, so both variants share one pipeline and
/// can be hot-swapped into each other.
fn train(case: &Case, patient: &Patient, variant: usize) -> PatientModel {
    let config = LaelapsConfig::builder()
        .dim(case.dim)
        .tie_policy(case.policy)
        .seed(0x601D)
        .build()
        .expect("config is valid");
    let channels = &patient.channels[..case.electrodes];
    let data = TrainingData::new(channels)
        .ictal(patient.ictal.clone())
        .interictal(patient.interictal[variant].clone());
    Trainer::new(config)
        .train(&data)
        .expect("training succeeds")
}

fn stream(case: &Case, patient: &Patient) -> Vec<Vec<f32>> {
    patient.channels[..case.electrodes]
        .iter()
        .map(|ch| ch[patient.stream.clone()].to_vec())
        .collect()
}

/// Frame-major interleaving of `signal[from..to]`.
fn interleave(signal: &[Vec<f32>], from: usize, to: usize) -> Vec<f32> {
    (from..to)
        .flat_map(|t| signal.iter().map(move |ch| ch[t]))
        .collect()
}

fn slice(signal: &[Vec<f32>], from: usize, to: usize) -> Vec<Vec<f32>> {
    signal.iter().map(|ch| ch[from..to].to_vec()).collect()
}

fn bare_detector(models: &[PatientModel], case: &Case, signal: &[Vec<f32>]) -> Vec<DetectorEvent> {
    let len = signal[0].len();
    let mut detector = Detector::new(&models[0]).expect("model is valid");
    match case.swap_at {
        None => detector.run(signal).expect("stream runs"),
        Some(at) => {
            let mut events = detector.run(&slice(signal, 0, at)).expect("stream runs");
            detector.hot_swap(&models[1]).expect("same pipeline");
            events.extend(detector.run(&slice(signal, at, len)).expect("stream runs"));
            events
        }
    }
}

fn push_all(handle: &mut laelaps::serve::SessionHandle, frames: &[f32], electrodes: usize) {
    for chunk in frames.chunks(CHUNK * electrodes) {
        let mut chunk: Box<[f32]> = chunk.into();
        loop {
            match handle.try_push_chunk(chunk) {
                Ok(()) => break,
                Err(PushError::Full(back)) => {
                    chunk = back;
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
    }
}

fn in_process_service(
    models: &[PatientModel],
    case: &Case,
    signal: &[Vec<f32>],
) -> Vec<DetectorEvent> {
    let len = signal[0].len();
    let service = DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut handle = service
        .open_session(case.name, &models[0])
        .expect("session opens");
    let split = case.swap_at.unwrap_or(len);
    push_all(&mut handle, &interleave(signal, 0, split), case.electrodes);
    if case.swap_at.is_some() {
        // Every earlier frame is processed before the swap is requested,
        // so it applies exactly at `split`, as `Detector::hot_swap` did.
        service.flush();
        service
            .swap_session_model(handle.id(), &Arc::new(models[1].clone()))
            .expect("swap accepted");
        push_all(
            &mut handle,
            &interleave(signal, split, len),
            case.electrodes,
        );
    }
    handle.close();
    service.flush();
    assert!(handle.error().is_none(), "{}: session failed", case.name);
    handle.take_events()
}

fn over_tcp(model: &PatientModel, case: &Case, signal: &[Vec<f32>]) -> Vec<DetectorEvent> {
    let dir = std::env::temp_dir().join(format!("laelaps-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).expect("registry opens"));
    registry.save(case.name, model).expect("model saves");
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let server =
        IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).expect("server binds");
    let mut client = IngestClient::connect(server.local_addr(), case.name, case.electrodes as u32)
        .expect("handshake succeeds");
    let frames = interleave(signal, 0, signal[0].len());
    for chunk in frames.chunks(CHUNK * case.electrodes) {
        client.send_chunk(chunk).expect("chunk sends");
    }
    let events = client.finish().expect("server drains and closes");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    events
}

/// FNV-1a over every field of every event.
fn fnv(events: &[DetectorEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in events {
        eat(e.index);
        eat(e.end_sample);
        eat(e.time_secs.to_bits());
        eat(e.classification.label.is_ictal() as u64);
        eat(e.classification.dist_interictal as u64);
        eat(e.classification.dist_ictal as u64);
        match e.alarm {
            None => eat(0),
            Some(a) => {
                eat(1);
                eat(a.label_index);
                eat(a.mean_delta.to_bits());
            }
        }
    }
    hash
}

fn render(out: &mut String, case: &Case, events: &[DetectorEvent]) {
    let alarms = events.iter().filter(|e| e.alarm.is_some()).count();
    writeln!(
        out,
        "case {} events={} alarms={} fnv={:016x}",
        case.name,
        events.len(),
        alarms,
        fnv(events)
    )
    .unwrap();
    for (i, e) in events.iter().enumerate() {
        if i % SAMPLE_EVERY != 0 && e.alarm.is_none() {
            continue;
        }
        let c = &e.classification;
        let alarm = match e.alarm {
            Some(a) => format!("alarm={}:{:016x}", a.label_index, a.mean_delta.to_bits()),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "  {} end={} t={:016x} ictal={} d1={} d2={} {}",
            e.index,
            e.end_sample,
            e.time_secs.to_bits(),
            c.label.is_ictal() as u8,
            c.dist_interictal,
            c.dist_ictal,
            alarm
        )
        .unwrap();
    }
}

#[test]
fn detector_outputs_match_the_golden_corpus() {
    let patient = patient();
    let mut actual = String::new();
    for (k, case) in CASES.iter().enumerate() {
        let mut models = vec![train(case, &patient, 0)];
        if case.swap_at.is_some() {
            models.push(train(case, &patient, 1));
        }
        let signal = stream(case, &patient);
        let bare = bare_detector(&models, case, &signal);
        assert!(!bare.is_empty(), "{}: no events", case.name);
        let served = in_process_service(&models, case, &signal);
        assert_eq!(served, bare, "{}: service differs from Detector", case.name);
        if k == 0 {
            let tcp = over_tcp(&models[0], case, &signal);
            assert_eq!(tcp, bare, "{}: TCP differs from Detector", case.name);
        }
        render(&mut actual, case, &bare);
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    if golden != actual {
        let path = std::env::temp_dir().join("detector_events.actual.txt");
        std::fs::write(&path, &actual).expect("actual rendering writes");
        panic!(
            "detector outputs differ from {GOLDEN_PATH}; actual rendering written to {}",
            path.display()
        );
    }
}
