//! What a streaming phase measures, shared by the closed-loop and the
//! open-loop drivers.

use std::time::{Duration, Instant};

use laelaps_serve::{DetectionService, ServiceStats};

use crate::host;

/// Length of one throughput/CPU slice of the measurement window.
pub const SLICE: Duration = Duration::from_secs(1);

/// One reading of the counters a slice is the difference of.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    frames: u64,
    process_ticks: u64,
    driver_ticks: u64,
}

impl Mark {
    fn take(service: &DetectionService) -> Mark {
        Mark {
            at: Instant::now(),
            frames: service.stats().totals.frames_processed,
            process_ticks: host::process_cpu_ticks(),
            driver_ticks: host::thread_cpu_ticks(),
        }
    }
}

/// Cuts the measurement window into [`SLICE`]s of frames processed and
/// CPU spent. Must be driven from the driver thread: its own CPU time is
/// subtracted from the process's.
#[derive(Debug)]
pub struct Meter {
    first: Mark,
    last: Mark,
    pub frames_per_s: Vec<f64>,
    pub cpu_ns_per_frame: Vec<f64>,
}

impl Meter {
    pub fn start(service: &DetectionService) -> Meter {
        let mark = Mark::take(service);
        Meter {
            first: mark,
            last: mark,
            frames_per_s: Vec::new(),
            cpu_ns_per_frame: Vec::new(),
        }
    }

    pub fn started_at(&self) -> Instant {
        self.first.at
    }

    /// Closes a slice if one is due.
    pub fn poll(&mut self, service: &DetectionService) {
        if self.last.at.elapsed() >= SLICE {
            self.close_slice(service);
        }
    }

    fn close_slice(&mut self, service: &DetectionService) {
        let mark = Mark::take(service);
        let frames = mark.frames - self.last.frames;
        let secs = (mark.at - self.last.at).as_secs_f64();
        self.frames_per_s.push(frames as f64 / secs);
        if frames > 0 {
            self.cpu_ns_per_frame
                .push(cpu_ns(&self.last, &mark) / frames as f64);
        }
        self.last = mark;
    }

    /// Ends the window and returns the CPU ns per frame over all of it:
    /// finer than any one slice, whose CPU reading moves in 10 ms ticks.
    pub fn finish(&mut self, service: &DetectionService) -> WindowTotals {
        self.close_slice(service);
        let frames = self.last.frames - self.first.frames;
        WindowTotals {
            wall: self.last.at - self.first.at,
            frames,
            cpu_ns_per_frame: cpu_ns(&self.first, &self.last) / frames.max(1) as f64,
        }
    }
}

/// Process CPU between two marks minus the driver thread's, in ns.
fn cpu_ns(from: &Mark, to: &Mark) -> f64 {
    let process = to.process_ticks - from.process_ticks;
    let driver = to.driver_ticks - from.driver_ticks;
    process.saturating_sub(driver) as f64 * host::TICK.as_nanos() as f64
}

#[derive(Debug, Clone, Copy)]
pub struct WindowTotals {
    pub wall: Duration,
    pub frames: u64,
    pub cpu_ns_per_frame: f64,
}

/// Everything one streaming phase produced.
#[derive(Debug)]
pub struct StreamOutcome {
    pub meter: Meter,
    pub totals: WindowTotals,
    /// Per event: due → seen by the driver, for chunks due in the window.
    pub latency_ms: Vec<f64>,
    /// Per chunk: due → handed to the system, for chunks due in the window.
    pub send_lag_ms: Vec<f64>,
    /// Gaps between the driver's looks at the event streams.
    pub poll_gap_us: Vec<f64>,
    /// Frames the driver offered over the whole phase.
    pub offered_frames: u64,
    /// Offered frames dropped, refused or discarded by the system.
    pub lost_frames: u64,
    /// Sessions (or connections) streamed.
    pub sessions: usize,
    /// Why each failed session failed.
    pub failures: Vec<String>,
    /// Alarms seen over all sessions, and what the reference raised.
    pub alarms: u64,
    pub reference_alarms: u64,
    /// Back-pressure met per accepted chunk: `PushError::Full` returns in
    /// process, `Throttle` messages over TCP.
    pub refusals_per_chunk: f64,
    /// `VmHWM` when the phase ended.
    pub peak_rss_kb: u64,
    /// Service counters and stage histograms when the phase ended.
    pub stats: ServiceStats,
}

/// Whether `due` falls inside the measurement window.
pub fn in_window(window: (Instant, Instant), due: Instant) -> bool {
    due >= window.0 && due < window.1
}
