//! The open-loop loopback-TCP workload: one driver thread sends each
//! connection's chunks on a fixed schedule through `IngestClient`,
//! whatever the system does, and stamps events as they arrive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use laelaps_eval::parallel::parallel_map;
use laelaps_serve::{DetectionService, IngestClient, IngestServer};

use crate::host;
use crate::measure::{Meter, StreamOutcome};
use crate::workload::{
    due_chunk, ms, patient_id, prepare_pool, serve_config, us, Arrival, EventDigest, Patient,
    Reference, ScratchDir, SetupTimes, Workload, CHUNK_FRAMES, FS,
};

/// Longest the driver sleeps between looks at the event streams: the
/// resolution of its event timestamps.
pub const POLL: Duration = Duration::from_micros(100);

/// Longest the driver waits for the last events after the last send.
const TAIL_LIMIT: Duration = Duration::from_secs(60);

/// A server with every connection open, ready to stream.
pub struct TcpSetup {
    // Fields drop in order: clients hang up before the server stops.
    clients: Vec<IngestClient>,
    server: IngestServer,
    pub service: Arc<DetectionService>,
    pub patients: Vec<Patient>,
    rate: f64,
    pub times: SetupTimes,
    _dir: ScratchDir,
}

pub fn setup(workload: &Workload, seed: u64) -> TcpSetup {
    let Arrival::OpenTcp { connections, rate } = workload.arrival else {
        unreachable!("open-loop set-up of a closed-loop workload")
    };
    let connections = connections.min(host::nproc());
    let dir = ScratchDir::new(workload.name);
    let (patients, registry, times) = prepare_pool(workload, seed, dir.path());
    let service = Arc::new(DetectionService::new(serve_config()));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), registry)
        .expect("ingest server binds");
    let clients: Vec<IngestClient> = (0..connections)
        .map(|c| {
            let patient = c % patients.len();
            IngestClient::connect(
                server.local_addr(),
                &patient_id(patient),
                patients[patient].electrodes() as u32,
            )
            .expect("client connects")
        })
        .collect();
    TcpSetup {
        clients,
        server,
        service,
        patients,
        rate,
        times,
        _dir: dir,
    }
}

/// Streams `seconds` of schedule on every connection: connection `c`
/// sends its patient's held-out recording (looped if the schedule
/// outlasts it) from the start, one chunk per interval, offset by
/// `c / connections` of an interval from the others. Then collects every
/// event and checks it against a bare `Detector` over the same chunks.
pub fn run(setup: TcpSetup, seconds: u64) -> StreamOutcome {
    let TcpSetup {
        patients,
        service,
        server,
        mut clients,
        rate,
        _dir,
        ..
    } = setup;
    let n = clients.len();
    let interval = Duration::from_secs_f64(CHUNK_FRAMES as f64 / FS as f64 / rate);
    let chunks = (seconds as f64 / interval.as_secs_f64()).round() as usize;
    let connections: Vec<usize> = (0..n).collect();
    let references = parallel_map(&connections, host::nproc(), |&c| {
        Reference::compute(&patients[c % patients.len()], 0, chunks)
    });

    let mut meter = Meter::start(&service);
    let start = meter.started_at();
    let due = |c: usize, k: usize| start + interval.mul_f64(k as f64 + c as f64 / n as f64);
    let mut next = vec![0usize; n];
    let mut seen_at: Vec<Vec<Instant>> = vec![Vec::new(); n];
    let mut send_lag_ms = Vec::with_capacity(n * chunks);
    let mut poll_gap_us = Vec::new();
    let mut last_poll = start;
    let mut look = |clients: &[IngestClient], seen_at: &mut [Vec<Instant>]| {
        let now = Instant::now();
        poll_gap_us.push(us(now - last_poll));
        last_poll = now;
        for (client, seen) in clients.iter().zip(seen_at.iter_mut()) {
            let count = client.events_seen();
            seen.resize(count.max(seen.len()), now);
        }
    };
    loop {
        for (c, client) in clients.iter_mut().enumerate() {
            while next[c] < chunks && due(c, next[c]) <= Instant::now() {
                send_lag_ms.push(ms(due(c, next[c]).elapsed()));
                let patient = &patients[c % patients.len()];
                client
                    .send_chunk(patient.chunk(0, next[c]))
                    .expect("chunk sends");
                next[c] += 1;
            }
        }
        look(&clients, &mut seen_at);
        meter.poll(&service);
        let Some(next_due) = (0..n)
            .filter(|&c| next[c] < chunks)
            .map(|c| due(c, next[c]))
            .min()
        else {
            break;
        };
        let wake = next_due.min(Instant::now() + POLL);
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    let totals = meter.finish(&service);
    let tail_start = Instant::now();
    while (0..n).any(|c| seen_at[c].len() < references[c].end_samples.len())
        && tail_start.elapsed() < TAIL_LIMIT
    {
        std::thread::sleep(POLL);
        look(&clients, &mut seen_at);
    }
    let peak_rss_kb = host::status_kb("VmHWM");
    let throttles: u64 = clients.iter().map(IngestClient::throttles_seen).sum();

    let mut latency_ms = Vec::new();
    let mut failures = Vec::new();
    let (mut alarms, mut reference_alarms) = (0, 0);
    for (c, client) in clients.into_iter().enumerate() {
        let events = match client.finish() {
            Ok(events) => events,
            Err(e) => {
                failures.push(format!("connection {c}: {e}"));
                continue;
            }
        };
        // Event `i` arrived when the count received first exceeded `i`.
        // Events that only `finish` returned have no arrival time, but are
        // still checked.
        for (event, seen) in events.iter().zip(&seen_at[c]) {
            let due_at = due(c, due_chunk(event.end_sample));
            latency_ms.push(ms(seen.saturating_duration_since(due_at)));
        }
        let mut digest = EventDigest::default();
        events.iter().for_each(|e| digest.push(e));
        let want = references[c].digest_for_frames((chunks * CHUNK_FRAMES) as u64);
        alarms += digest.alarms;
        reference_alarms += want.alarms;
        if digest != want {
            failures.push(format!(
                "connection {c}: events {digest:?} differ from the reference {want:?}"
            ));
        }
    }
    drop(server);
    let stats = service.stats();
    let t = &stats.totals;
    let offered = (n * chunks * CHUNK_FRAMES) as u64;
    let lost = t.frames_dropped + t.frames_refused + t.frames_discarded;
    if lost > 0 || t.frames_processed != offered {
        failures.push(format!(
            "{offered} frames sent, {} processed, {lost} lost",
            t.frames_processed
        ));
    }
    StreamOutcome {
        meter,
        totals,
        latency_ms,
        send_lag_ms,
        poll_gap_us,
        offered_frames: offered,
        lost_frames: lost,
        sessions: n,
        failures,
        alarms,
        reference_alarms,
        refusals_per_chunk: throttles as f64 / (n * chunks).max(1) as f64,
        peak_rss_kb,
        stats,
    }
}
