//! Workload definitions, their set-up (synthesis, training, persisting
//! and loading models), and the reference event streams every run is
//! checked against.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use laelaps_core::tuning::{tune_tr, DEFAULT_ALPHA};
use laelaps_core::{Detector, DetectorEvent, PatientModel, DEPLOY_DIM, GOLDEN_DIM};
use laelaps_eval::parallel::parallel_map;
use laelaps_eval::runner::{train_laelaps, PreparedPatient};
use laelaps_ieeg::synth::demo_patient;
use laelaps_serve::{ModelRegistry, ServeConfig};

use crate::host;

/// Sample rate of the synthetic recordings (the paper's 512 Hz).
pub const FS: usize = 512;
/// Frames per pushed chunk: 0.5 s of signal, one classification hop.
pub const CHUNK_FRAMES: usize = 256;

/// How a workload offers its chunks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// In-process sessions; the driver pushes until a ring refuses.
    Closed {
        sessions: usize,
        /// Distinct start offsets per patient, so sessions of one patient
        /// do not classify identical windows in lockstep.
        offsets: usize,
    },
    /// Loopback TCP connections, each paced at `rate` × real time.
    OpenTcp { connections: usize, rate: f64 },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dim: usize,
    /// Trained synthetic patients the sessions share.
    pub pool: usize,
    pub arrival: Arrival,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stream_d1k",
        dim: DEPLOY_DIM,
        pool: 4,
        arrival: Arrival::Closed {
            sessions: 256,
            offsets: 4,
        },
    },
    Workload {
        name: "stream_d10k",
        dim: GOLDEN_DIM,
        pool: 4,
        arrival: Arrival::Closed {
            sessions: 64,
            offsets: 1,
        },
    },
    Workload {
        name: "ictal_tcp_open",
        dim: DEPLOY_DIM,
        pool: 2,
        arrival: Arrival::OpenTcp {
            connections: 2,
            rate: 64.0,
        },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The service configuration every workload runs: the defaults, with
/// one worker per CPU stated explicitly.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: host::nproc(),
        ..ServeConfig::default()
    }
}

/// SplitMix64: derives patient seeds from the workload seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of patient `index` under workload seed `seed`.
pub fn patient_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ splitmix64(index as u64))
}

/// Registry id of pool patient `index`.
pub fn patient_id(index: usize) -> String {
    format!("P{index:02}")
}

/// A trained patient: its deployed model and its held-out test recording
/// cut into interleaved chunks (the ragged tail is dropped).
#[derive(Debug)]
pub struct Patient {
    pub model: Arc<PatientModel>,
    pub chunks: Vec<Box<[f32]>>,
}

impl Patient {
    pub fn electrodes(&self) -> usize {
        self.model.electrodes()
    }

    /// Chunk `k` of the stream that starts at chunk `start` and loops
    /// over the recording.
    pub fn chunk(&self, start: usize, k: usize) -> &[f32] {
        &self.chunks[(start + k) % self.chunks.len()]
    }
}

/// Timings of one set-up pass, split by phase for the traced run.
#[derive(Debug, Clone)]
pub struct SetupTimes {
    pub synth_s: f64,
    pub train_s: f64,
    /// `ModelRegistry::load` of each pool model from a cold registry.
    pub load_us: Vec<f64>,
}

/// Synthesises and trains the pool, persists every model to a registry
/// under `dir`, and loads them back through a cold registry, as a
/// deployment would. Returns the patients with their loaded models and
/// the registry that served them.
pub fn prepare_pool(
    workload: &Workload,
    seed: u64,
    dir: &Path,
) -> (Vec<Patient>, Arc<ModelRegistry>, SetupTimes) {
    let threads = host::nproc();
    let indices: Vec<usize> = (0..workload.pool).collect();
    let t = Instant::now();
    let prepared: Vec<PreparedPatient> = parallel_map(&indices, threads, |&i| {
        PreparedPatient::new(&demo_patient(patient_seed(seed, i))).expect("synthesis succeeds")
    });
    let synth_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let models: Vec<PatientModel> = parallel_map(&prepared, threads, |prep| {
        let (model, replay) = train_laelaps(prep, workload.dim).expect("training succeeds");
        model
            .with_tr(tune_tr(&replay, DEFAULT_ALPHA))
            .expect("tuned tr is valid")
    });
    let train_s = t.elapsed().as_secs_f64();

    let writer = ModelRegistry::open(dir).expect("registry opens");
    for (i, model) in models.iter().enumerate() {
        writer.save(&patient_id(i), model).expect("model persists");
    }
    drop(writer);
    let registry = Arc::new(ModelRegistry::open(dir).expect("registry reopens"));
    let mut load_us = Vec::with_capacity(models.len());
    let mut patients = Vec::with_capacity(models.len());
    for (i, prep) in prepared.iter().enumerate() {
        let t = Instant::now();
        let model = registry.load(&patient_id(i)).expect("model loads");
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
        patients.push(Patient {
            chunks: interleave_chunks(&prep.test_signal()),
            model,
        });
    }
    let times = SetupTimes {
        synth_s,
        train_s,
        load_us,
    };
    (patients, registry, times)
}

/// Cuts channel-major `signal` into frame-major chunks of
/// [`CHUNK_FRAMES`] frames.
pub fn interleave_chunks(signal: &[Vec<f32>]) -> Vec<Box<[f32]>> {
    let len = signal.first().map_or(0, Vec::len);
    (0..len / CHUNK_FRAMES)
        .map(|c| {
            (c * CHUNK_FRAMES..(c + 1) * CHUNK_FRAMES)
                .flat_map(|t| signal.iter().map(move |ch| ch[t]))
                .collect()
        })
        .collect()
}

/// Index of the chunk that delivered sample `end_sample` of a stream:
/// the chunk whose arrival completed the event's window.
pub fn due_chunk(end_sample: u64) -> usize {
    (end_sample / CHUNK_FRAMES as u64) as usize
}

/// Order-sensitive FNV-1a digest of an event stream, with its length and
/// alarm count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest {
    pub hash: u64,
    pub events: u64,
    pub alarms: u64,
}

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
            alarms: 0,
        }
    }
}

impl EventDigest {
    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn push(&mut self, e: &DetectorEvent) {
        let c = &e.classification;
        self.mix(e.index);
        self.mix(e.end_sample);
        self.mix(e.time_secs.to_bits());
        self.mix(u64::from(c.label.is_ictal()));
        self.mix(c.dist_interictal as u64);
        self.mix(c.dist_ictal as u64);
        match e.alarm {
            Some(alarm) => {
                self.mix(1);
                self.mix(alarm.label_index);
                self.mix(alarm.mean_delta.to_bits());
                self.alarms += 1;
            }
            None => self.mix(0),
        }
        self.events += 1;
    }
}

/// What a bare `Detector` emits on one stream: the digest after each
/// event, so any prefix can be checked.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `prefix[i]` digests the first `i` events.
    pub prefix: Vec<EventDigest>,
    /// `end_sample` of each event.
    pub end_samples: Vec<u64>,
}

impl Reference {
    /// Runs a fresh detector for `model` over chunks `start..start+chunks`
    /// of `patient`'s looping stream.
    pub fn compute(patient: &Patient, start: usize, chunks: usize) -> Reference {
        let mut detector = Detector::new(&patient.model).expect("model is valid");
        let mut digest = EventDigest::default();
        let mut prefix = vec![digest];
        let mut end_samples = Vec::new();
        for k in 0..chunks {
            for frame in patient.chunk(start, k).chunks_exact(patient.electrodes()) {
                if let Some(event) = detector.push_frame(frame).expect("frame width matches") {
                    digest.push(&event);
                    prefix.push(digest);
                    end_samples.push(event.end_sample);
                }
            }
        }
        Reference {
            prefix,
            end_samples,
        }
    }

    /// The digest the reference gives for the first `frames` frames.
    pub fn digest_for_frames(&self, frames: u64) -> EventDigest {
        let events = self.end_samples.partition_point(|&end| end < frames);
        self.prefix[events]
    }
}

/// A per-run scratch directory inside the benchmark's own `run/`
/// directory (ignored by git), removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        let path = run_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch directory is creatable");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes its result files and scratch models.
pub fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

/// Microseconds in `d`, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_end_sample_maps_to_the_chunk_that_delivered_it() {
        assert_eq!(due_chunk(0), 0);
        assert_eq!(due_chunk(255), 0);
        assert_eq!(due_chunk(256), 1);
        // With ℓ = 6 the first window ends at sample 517, in chunk 2;
        // every later one ends a hop (one chunk) further on.
        assert_eq!(due_chunk(517), 2);
        assert_eq!(due_chunk(517 + 256), 3);
        assert_eq!(due_chunk(767), 2);
        assert_eq!(due_chunk(768), 3);
    }

    #[test]
    fn interleaving_is_frame_major_and_drops_the_ragged_tail() {
        let signal = vec![
            (0..600).map(|t| t as f32).collect::<Vec<_>>(),
            (0..600).map(|t| -(t as f32)).collect::<Vec<_>>(),
        ];
        let chunks = interleave_chunks(&signal);
        assert_eq!(chunks.len(), 2);
        assert_eq!(&chunks[1][..4], &[256.0, -256.0, 257.0, -257.0]);
        assert_eq!(chunks[0].len(), 2 * CHUNK_FRAMES);
    }

    #[test]
    fn patient_seeds_differ_by_index_and_workload_seed() {
        assert_ne!(patient_seed(1, 0), patient_seed(1, 1));
        assert_ne!(patient_seed(1, 0), patient_seed(2, 0));
        assert_eq!(patient_seed(7, 3), patient_seed(7, 3));
    }
}
