//! The closed-loop in-process workloads: one driver thread keeps every
//! session's ring full through `SessionHandle::try_push_chunk`, so the
//! system sets the pace and the driver waits, without spinning, on the
//! shards' progress signal whenever every ring is full.

use std::time::{Duration, Instant};

use laelaps_eval::parallel::parallel_map;
use laelaps_serve::{DetectionService, EventTap, PushError, SessionHandle};

use crate::host;
use crate::measure::{in_window, Meter, StreamOutcome};
use crate::workload::{
    due_chunk, ms, patient_id, prepare_pool, serve_config, us, Arrival, EventDigest, Patient,
    Reference, ScratchDir, SetupTimes, Workload, CHUNK_FRAMES,
};

/// How long the driver sleeps on a shard's progress signal when no ring
/// had room: also the resolution of its event timestamps.
pub const POLL: Duration = Duration::from_millis(5);

/// Longest the closing drain may take before the run is failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One session as the driver sees it.
struct Lane {
    handle: SessionHandle,
    patient: usize,
    /// First chunk of the patient's recording this session streams.
    start: usize,
    /// Identifies sessions that stream the same signal.
    stream: usize,
    /// The next chunk, already offered once, with when it was.
    pending: Option<(Box<[f32]>, Instant)>,
    /// When each accepted chunk was first offered.
    due: Vec<Instant>,
    digest: EventDigest,
}

/// A service with every session open, ready to stream.
pub struct ClosedSetup {
    // Fields drop in order: sessions close before their service stops.
    lanes: Vec<Lane>,
    pub service: DetectionService,
    pub patients: Vec<Patient>,
    pub times: SetupTimes,
    _dir: ScratchDir,
}

pub fn setup(workload: &Workload, seed: u64) -> ClosedSetup {
    let Arrival::Closed { sessions, offsets } = workload.arrival else {
        unreachable!("closed-loop set-up of an open-loop workload")
    };
    let dir = ScratchDir::new(workload.name);
    let (patients, _registry, times) = prepare_pool(workload, seed, dir.path());
    let service = DetectionService::new(serve_config());
    let lanes: Vec<Lane> = (0..sessions)
        .map(|i| {
            let patient = i % patients.len();
            let offset = (i / patients.len()) % offsets;
            let handle = service
                .open_session(&patient_id(patient), &patients[patient].model)
                .expect("session opens");
            Lane {
                handle,
                patient,
                start: offset * patients[patient].chunks.len() / offsets,
                stream: patient * offsets + offset,
                pending: None,
                due: Vec::new(),
                digest: EventDigest::default(),
            }
        })
        .collect();
    ClosedSetup {
        lanes,
        service,
        patients,
        times,
        _dir: dir,
    }
}

/// Samples the driver collects while sweeping.
#[derive(Default)]
struct Samples {
    window: Option<(Instant, Instant)>,
    latency_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    refusals: u64,
    accepted: u64,
}

impl Samples {
    fn counts(&self, due: Instant) -> bool {
        self.window.is_some_and(|w| in_window(w, due))
    }
}

/// Pushes `lane`'s chunks until its ring refuses one. Returns whether
/// any was accepted.
fn fill(lane: &mut Lane, patients: &[Patient], samples: &mut Samples) -> bool {
    let mut pushed = false;
    loop {
        let (chunk, offered) = lane.pending.take().unwrap_or_else(|| {
            let chunk = patients[lane.patient].chunk(lane.start, lane.due.len());
            (chunk.into(), Instant::now())
        });
        match lane.handle.try_push_chunk(chunk) {
            Ok(()) => {
                let accepted = Instant::now();
                if samples.counts(offered) {
                    samples.send_lag_ms.push(ms(accepted - offered));
                    samples.accepted += 1;
                }
                lane.due.push(offered);
                pushed = true;
            }
            Err(PushError::Full(chunk)) => {
                if samples.counts(offered) {
                    samples.refusals += 1;
                }
                lane.pending = Some((chunk, offered));
                return pushed;
            }
            Err(e) => panic!("push failed: {e}"),
        }
    }
}

/// One pass over every session: top its ring up (when `push`) and take
/// its new events. Returns whether any chunk was accepted.
fn sweep(lanes: &mut [Lane], patients: &[Patient], push: bool, samples: &mut Samples) -> bool {
    let mut pushed = false;
    for lane in lanes.iter_mut() {
        if push {
            pushed |= fill(lane, patients, samples);
        }
        let events = lane.handle.take_events();
        if events.is_empty() {
            continue;
        }
        let seen = Instant::now();
        for event in &events {
            let due = lane.due[due_chunk(event.end_sample)];
            if samples.counts(due) {
                samples.latency_ms.push(ms(seen - due));
            }
            lane.digest.push(event);
        }
    }
    pushed
}

/// Sleeps until the next shard in turn makes progress past `seen`, or
/// for [`POLL`]; returns how long it slept.
fn wait(taps: &[EventTap], round: &mut usize, seen: u64) -> Duration {
    let t = Instant::now();
    taps[*round % taps.len()].wait_progress(seen, POLL);
    *round += 1;
    t.elapsed()
}

/// Streams for `seconds` of measurement after the rings first fill, then
/// closes every session, drains it, and checks each session's events
/// against a bare `Detector` over the frames it was sent.
pub fn run(setup: ClosedSetup, seconds: u64) -> StreamOutcome {
    let ClosedSetup {
        patients,
        service,
        mut lanes,
        _dir,
        ..
    } = setup;
    // Sessions open on the least-loaded shard, so the first `workers`
    // sessions sit on distinct shards: one progress signal per shard.
    let taps: Vec<EventTap> = lanes
        .iter()
        .take(host::nproc())
        .map(|l| l.handle.tap())
        .collect();
    let mut samples = Samples::default();
    let mut poll_gap_us = Vec::new();
    let mut round = 0usize;

    // Warm-up: one sweep fills every ring.
    sweep(&mut lanes, &patients, true, &mut samples);

    let mut meter = Meter::start(&service);
    let start = meter.started_at();
    let end = start + Duration::from_secs(seconds);
    samples.window = Some((start, end));
    loop {
        let seen = taps[round % taps.len()].progress_generation();
        let pushed = sweep(&mut lanes, &patients, true, &mut samples);
        meter.poll(&service);
        if Instant::now() >= end {
            break;
        }
        if !pushed {
            poll_gap_us.push(us(wait(&taps, &mut round, seen)));
        }
    }
    let totals = meter.finish(&service);

    for lane in &mut lanes {
        lane.pending = None;
        lane.handle.close();
    }
    let drain_start = Instant::now();
    while !lanes.iter().all(|l| l.handle.is_caught_up()) {
        assert!(
            drain_start.elapsed() < DRAIN_LIMIT,
            "sessions did not drain within {DRAIN_LIMIT:?}"
        );
        let seen = taps[round % taps.len()].progress_generation();
        sweep(&mut lanes, &patients, false, &mut samples);
        wait(&taps, &mut round, seen);
    }
    sweep(&mut lanes, &patients, false, &mut samples);
    let peak_rss_kb = host::status_kb("VmHWM");
    let stats = service.stats();

    let references = references(&lanes, &patients);
    let mut failures = Vec::new();
    let (mut offered, mut lost, mut reference_alarms) = (0, 0, 0);
    for lane in &lanes {
        let s = lane.handle.stats();
        let sent = (lane.due.len() * CHUNK_FRAMES) as u64;
        offered += sent;
        let lane_lost = s.frames_dropped + s.frames_refused + s.frames_discarded;
        lost += lane_lost;
        let want = references[lane.stream]
            .as_ref()
            .expect("every stream has a reference")
            .digest_for_frames(sent);
        reference_alarms += want.alarms;
        let id = lane.handle.id();
        if let Some(e) = lane.handle.error() {
            failures.push(format!("session {id}: {e}"));
        } else if lane_lost > 0 || s.frames_processed != sent {
            failures.push(format!(
                "session {id}: {sent} frames sent, {} processed, {lane_lost} lost",
                s.frames_processed
            ));
        } else if lane.digest != want {
            failures.push(format!(
                "session {id}: events {:?} differ from the reference {want:?}",
                lane.digest
            ));
        }
    }
    StreamOutcome {
        meter,
        totals,
        latency_ms: samples.latency_ms,
        send_lag_ms: samples.send_lag_ms,
        poll_gap_us,
        offered_frames: offered,
        lost_frames: lost,
        sessions: lanes.len(),
        failures,
        alarms: lanes.iter().map(|l| l.digest.alarms).sum(),
        reference_alarms,
        refusals_per_chunk: samples.refusals as f64 / samples.accepted.max(1) as f64,
        peak_rss_kb,
        stats,
    }
}

/// One reference per distinct stream, long enough for the longest
/// session on it, computed on every CPU.
fn references(lanes: &[Lane], patients: &[Patient]) -> Vec<Option<Reference>> {
    let streams = lanes.iter().map(|l| l.stream + 1).max().unwrap_or(0);
    let jobs: Vec<Option<(usize, usize, usize)>> = (0..streams)
        .map(|stream| {
            let mut on_stream = lanes.iter().filter(|l| l.stream == stream);
            let first = on_stream.next()?;
            let chunks = on_stream
                .map(|l| l.due.len())
                .fold(first.due.len(), usize::max);
            Some((first.patient, first.start, chunks))
        })
        .collect();
    parallel_map(&jobs, host::nproc(), |job| {
        job.map(|(patient, start, chunks)| Reference::compute(&patients[patient], start, chunks))
    })
}
