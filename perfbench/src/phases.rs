//! The measured phases of a run on one [`Frontend`]: set-up, burst
//! rounds and the paced open loop. Only calls into the program's public
//! API are timed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sdr_engine::{Frontend, ScaleSummary, Session, SessionState, Snapshot, Standard};

use crate::frames::{Frame, FrameGen, Workload};
use crate::procstat::{self, ThreadCpu};
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// After a pump makes progress the driver spins (yielding) this long
/// before it starts to nap: a step hand-off that completes within the
/// window is noticed at once, without the wake-up delay (virtual-CPU halt
/// and resume) a sleeping driver adds; a longer wait does not keep a
/// core busy that the workers need.
const SPIN_WINDOW: Duration = Duration::from_millis(1);
/// How long the driver naps once the spin window has passed.
const NAP: Duration = Duration::from_micros(100);

/// Waits a little for the next pump: spins within [`SPIN_WINDOW`] of
/// the last progress, naps after it, and never past `until` (the next
/// due arrival, if any).
fn idle(last_progress: Instant, until: Option<Instant>) {
    let now = Instant::now();
    if now.duration_since(last_progress) < SPIN_WINDOW {
        std::thread::yield_now();
    } else {
        let nap = until.map_or(NAP, |u| u.saturating_duration_since(now).min(NAP));
        std::thread::sleep(nap);
    }
}

/// Per-thread CPU samples are taken this often in a traced paced phase.
const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy)]
struct Entry {
    standard: Standard,
    due: Instant,
    completions: u32,
    done: bool,
    completed_at: Option<Instant>,
}

/// Every frame offered in a run, and what became of it.
#[derive(Debug, Default)]
pub struct Book {
    entries: HashMap<u64, Entry>,
    unknown_completions: u64,
}

pub fn std_index(s: Standard) -> usize {
    match s {
        Standard::Wcdma => 0,
        Standard::Ofdm => 1,
    }
}

impl Book {
    pub fn offer(&mut self, frame: &Frame, due: Instant) {
        self.entries.insert(
            frame.record.id(),
            Entry {
                standard: frame.standard,
                due,
                completions: 0,
                done: false,
                completed_at: None,
            },
        );
    }

    /// The front-end's completion callback: one call per terminal state.
    pub fn complete(&mut self, session: &Session, at: Instant) {
        match self.entries.get_mut(&session.id()) {
            Some(e) => {
                e.completions += 1;
                e.done = matches!(session.state(), SessionState::Done);
                e.completed_at.get_or_insert(at);
            }
            None => self.unknown_completions += 1,
        }
    }

    pub fn offered(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Frames that reached `Done` exactly once.
    pub fn done_once(&self) -> u64 {
        self.entries
            .values()
            .filter(|e| e.done && e.completions == 1)
            .count() as u64
    }

    /// Seconds from a frame's due time to its terminal state.
    pub fn latency_s(&self, id: u64) -> Option<f64> {
        let e = self.entries.get(&id)?;
        Some(
            e.completed_at?
                .saturating_duration_since(e.due)
                .as_secs_f64(),
        )
    }

    pub fn completed_at(&self, id: u64) -> Option<Instant> {
        self.entries.get(&id)?.completed_at
    }

    /// Every way the run broke the exactly-once-`Done` rule.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut ids: Vec<_> = self.entries.iter().collect();
        ids.sort_by_key(|(id, _)| **id);
        for (id, e) in ids {
            if e.completions != 1 {
                out.push(format!(
                    "frame {id} ({:?}) reached a terminal state {} times",
                    e.standard, e.completions
                ));
            } else if !e.done {
                out.push(format!("frame {id} ({:?}) did not end Done", e.standard));
            }
        }
        if self.unknown_completions > 0 {
            out.push(format!(
                "{} completions of frames never offered",
                self.unknown_completions
            ));
        }
        out
    }
}

/// Wall, CPU and counter deltas over one measured phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Whether spans were recorded during the phase.
    pub traced: bool,
    pub frames: usize,
    pub frames_by_std: [u64; 2],
    pub wall_s: f64,
    pub cpu_s: f64,
    pub threads_before: ThreadCpu,
    pub threads_after: ThreadCpu,
    pub before: Snapshot,
    pub after: Snapshot,
    pub summary: ScaleSummary,
}

impl Phase {
    pub fn driver_cpu_s(&self) -> f64 {
        self.threads_after.driver_s - self.threads_before.driver_s
    }

    pub fn worker_cpu_s(&self) -> f64 {
        self.threads_after.others_s - self.threads_before.others_s
    }
}

struct Meter {
    t0: Instant,
    cpu0: f64,
    threads0: ThreadCpu,
    snap0: Snapshot,
}

fn cpu_now() -> (f64, ThreadCpu) {
    let cpu = procstat::process_cpu_s().expect("/proc/self/stat is readable");
    let threads = procstat::thread_cpu().expect("/proc/self/task is readable");
    (cpu, threads)
}

impl Meter {
    fn start(fe: &Frontend) -> Self {
        let (cpu0, threads0) = cpu_now();
        Meter {
            t0: Instant::now(),
            cpu0,
            threads0,
            snap0: fe.snapshot(),
        }
    }

    fn finish(self, fe: &Frontend, frames: &[Frame], summary: ScaleSummary, traced: bool) -> Phase {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let (cpu1, threads1) = cpu_now();
        let mut by_std = [0; 2];
        for f in frames {
            by_std[std_index(f.standard)] += 1;
        }
        Phase {
            traced,
            frames: frames.len(),
            frames_by_std: by_std,
            wall_s,
            cpu_s: cpu1 - self.cpu0,
            threads_before: self.threads0,
            threads_after: threads1,
            before: self.snap0,
            after: fe.snapshot(),
            summary,
        }
    }
}

/// Builds the front-end and runs one warm-up frame of each of the
/// workload's standards to completion (worker threads spawned,
/// configurations compiled). Returns the front-end and the seconds it
/// took.
pub fn set_up(workload: &Workload, gen: &mut FrameGen, book: &mut Book) -> (Frontend, f64) {
    let t0 = Instant::now();
    let mut fe = Frontend::new(workload.frontend_config());
    for &standard in workload.standards() {
        let frame = gen.frame_of(standard);
        book.offer(&frame, t0);
        fe.admit(frame.record);
    }
    // Driven like the paced phase, by `pump` and [`idle`].
    let mut last_progress = Instant::now();
    loop {
        let progress = fe.pump(&mut |s: &Session, _| {
            book.complete(s, Instant::now());
            None
        });
        if fe.resident() == 0 {
            break;
        }
        if progress > 0 {
            last_progress = Instant::now();
        } else {
            idle(last_progress, None);
        }
    }
    (fe, t0.elapsed().as_secs_f64())
}

/// One burst round: `n` frames admitted at once, run to completion the
/// way `examples/basestation` runs.
pub fn burst_round(
    fe: &mut Frontend,
    gen: &mut FrameGen,
    book: &mut Book,
    n: usize,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let frames = gen.take(n);
    let round_span = tracer.as_deref_mut().map(|t| t.open("burst.round", None));
    let mut admits: Vec<Admit> = Vec::with_capacity(if tracer.is_some() { n } else { 0 });
    let meter = Meter::start(fe);
    for f in &frames {
        let due = Instant::now();
        book.offer(f, due);
        fe.admit(f.record);
        if tracer.is_some() {
            admits.push((f.record.id(), due, due, Instant::now()));
        }
    }
    let summary = fe.run(&mut |s: &Session, _| {
        book.complete(s, Instant::now());
        None
    });
    let phase = meter.finish(fe, &frames, summary, tracer.is_some());
    if let (Some(t), Some(round)) = (tracer, round_span) {
        t.close(round);
        record_frames(t, book, round, &admits);
        t.sample_cpu(phase.threads_after);
    }
    phase
}

/// A traced admission: frame id, due time, `Frontend::admit` start and end.
type Admit = (u64, Instant, Instant, Instant);

/// Frame spans (due → terminal) with their admit spans as children.
fn record_frames(t: &mut Tracer, book: &Book, parent: SpanId, admits: &[Admit]) {
    for &(id, due, a0, a1) in admits {
        let end = book.completed_at(id).unwrap_or(a1);
        let frame = t.span("frame", due, end, Some(parent), Some(id));
        t.span("frontend.admit", a0, a1, Some(frame), Some(id));
    }
}

/// The paced open loop's extra measurements.
#[derive(Debug, Clone)]
pub struct Paced {
    pub phase: Phase,
    /// The frames offered, in arrival order.
    pub frames: Vec<Frame>,
    /// (frame id, standard, due → terminal seconds), in arrival order.
    pub latencies: Vec<(u64, Standard, f64)>,
    /// How late each admission ran behind its due time, seconds.
    pub lag_s: Vec<f64>,
    /// Wall seconds per `Frontend::admit` call.
    pub admit_s: Vec<f64>,
    /// Wall seconds spent inside `Frontend::pump` calls that made progress.
    pub pump_busy_s: f64,
}

impl Paced {
    /// Latency quantile `q` over every paced frame, in ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let ms: Vec<f64> = self.latencies.iter().map(|&(_, _, s)| s * 1e3).collect();
        stats::quantile(&ms, q).unwrap_or(f64::NAN)
    }
}

/// The paced phase: `n` seeded Poisson arrivals at the workload's paced
/// rate. `Frontend::admit` is called when a frame is due and
/// `Frontend::pump` in between; each frame is timed from its due time.
pub fn paced(
    fe: &mut Frontend,
    gen: &mut FrameGen,
    book: &mut Book,
    n: usize,
    mut tracer: Option<&mut Tracer>,
) -> Paced {
    let frames = gen.take(n);
    let offsets = gen.paced_offsets(n);
    let phase_span = tracer.as_deref_mut().map(|t| t.open("paced", None));
    let mut admits: Vec<Admit> = Vec::with_capacity(if tracer.is_some() { n } else { 0 });
    let mut lag_s = Vec::with_capacity(n);
    let mut admit_s = Vec::with_capacity(n);
    let mut pump_busy_s = 0.0;
    let meter = Meter::start(fe);
    let start = meter.t0;
    let due_of = |i: usize| start + Duration::from_secs_f64(offsets[i]);
    let mut next = 0;
    let mut last_sample = start;
    let mut last_progress = start;
    loop {
        let now = Instant::now();
        while next < n && due_of(next) <= now {
            let due = due_of(next);
            let f = &frames[next];
            book.offer(f, due);
            let a0 = Instant::now();
            fe.admit(f.record);
            let a1 = Instant::now();
            lag_s.push(a0.saturating_duration_since(due).as_secs_f64());
            admit_s.push((a1 - a0).as_secs_f64());
            if tracer.is_some() {
                admits.push((f.record.id(), due, a0, a1));
            }
            next += 1;
        }
        let p0 = Instant::now();
        let progress = fe.pump(&mut |s: &Session, _| {
            book.complete(s, Instant::now());
            None
        });
        if progress > 0 {
            let p1 = Instant::now();
            pump_busy_s += (p1 - p0).as_secs_f64();
            if let (Some(t), Some(parent)) = (tracer.as_deref_mut(), phase_span) {
                t.span("frontend.pump", p0, p1, Some(parent), None);
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            if last_sample.elapsed() >= CPU_SAMPLE_EVERY {
                last_sample = Instant::now();
                if let Some(cpu) = procstat::thread_cpu() {
                    t.sample_cpu(cpu);
                }
            }
        }
        if next == n && fe.resident() == 0 {
            break;
        }
        if progress > 0 {
            last_progress = Instant::now();
        } else {
            idle(last_progress, (next < n).then(|| due_of(next)));
        }
    }
    // Nothing is left resident: this only collects the modeled summary.
    let summary = fe.run(&mut |s: &Session, _| {
        book.complete(s, Instant::now());
        None
    });
    let phase = meter.finish(fe, &frames, summary, tracer.is_some());
    if let (Some(t), Some(span)) = (tracer, phase_span) {
        t.close(span);
        record_frames(t, book, span, &admits);
        t.sample_cpu(phase.threads_after);
    }
    let latencies = frames
        .iter()
        .filter_map(|f| Some((f.record.id(), f.standard, book.latency_s(f.record.id())?)))
        .collect();
    Paced {
        phase,
        frames,
        latencies,
        lag_s,
        admit_s,
        pump_busy_s,
    }
}
