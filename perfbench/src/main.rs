//! Frame-path benchmark for the multi-terminal engine.
//!
//! Drives the `examples/basestation` frame path — `Frontend` →
//! `ShardPool` → `Session::step` → `WorkerArray` (simulated XPP array)
//! plus host DSP — from one driver thread, timing only calls into public
//! functions.
//!
//! ```text
//! perfbench --workload <wcdma|ofdm|mixed_gang> --seed <n> --seconds <s>
//!           --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1`
//! runs the traced variant and prints the per-layer metrics, writing its
//! spans to `<dir>/trace-<workload>-<seed>.json`. Either way the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md` for the metric definitions.

mod frames;
mod json;
mod layers;
mod phases;
mod procstat;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use sdr_engine::metrics::KernelKind;
use sdr_engine::Snapshot;

use frames::{FrameGen, Workload};
use phases::{Book, Paced, Phase};

/// Extra set-ups timed after each burst round of an untraced run;
/// `setup_s` is the median of these and the measured front-end's own.
const SETUPS_PER_ROUND: usize = 2;
/// Share of `--seconds` given to burst rounds; the rest is paced.
const BURST_SHARE: f64 = 0.3;
/// Fewest burst rounds a run measures (their median is reported).
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    frames::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Metrics of one run, in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn encode(&self) -> String {
        let mut obj = json::Object::new();
        for (name, value, unit) in &self.0 {
            obj = obj.raw(
                name,
                json::Object::new()
                    .num("value", *value)
                    .str("unit", unit)
                    .encode(),
            );
        }
        obj.encode()
    }
}

/// Everything one run measured on its front-end.
struct Run {
    book: Book,
    setup_s: Vec<f64>,
    warm: Phase,
    /// Burst rounds, in order. The traced run alternates untraced and
    /// traced rounds, so their ratio is the tracing overhead.
    rounds: Vec<Phase>,
    paced: Paced,
    /// Counters of the measured front-end at shutdown.
    final_snapshot: Snapshot,
    /// Frames offered to the measured front-end, per standard.
    offered_to_measured: [u64; 2],
    /// Sessions the pool still held at shutdown (none on a good run).
    leftover: usize,
}

/// Burst rounds and paced frames for a run of `seconds` on the
/// reference host. The work is a pure function of the arguments, so
/// every run of one seed offers the same frames.
fn sizing(w: &Workload, seconds: f64) -> (usize, usize) {
    let burst_frames = BURST_SHARE * seconds * w.nominal_fps;
    let rounds = ((burst_frames / w.burst_frames as f64).round() as usize).max(MIN_ROUNDS);
    let paced = ((1.0 - BURST_SHARE) * seconds * w.paced_fps).round() as usize;
    (rounds, paced.max(1))
}

fn measure(args: &Args, gen: &mut FrameGen, mut tracer: Option<&mut trace::Tracer>) -> Run {
    let w = &args.workload;
    let mut book = Book::default();
    let (mut fe, first) = phases::set_up(w, &mut FrameGen::setup(*w, args.seed, 0), &mut book);
    let mut setup_s = vec![first];
    let (rounds_n, paced_n) = sizing(w, args.seconds);
    let warm = phases::burst_round(&mut fe, gen, &mut book, w.burst_frames, None);
    let mut rounds = Vec::with_capacity(rounds_n);
    for i in 0..rounds_n {
        let t = tracer.as_deref_mut().filter(|_| i % 2 == 1);
        rounds.push(phases::burst_round(
            &mut fe,
            gen,
            &mut book,
            w.burst_frames,
            t,
        ));
        // Set-ups are spread between the burst rounds rather than run
        // back to back, so their median samples the whole run.
        if !args.trace {
            for _ in 0..SETUPS_PER_ROUND {
                let index = setup_s.len() as u64;
                let (extra, secs) =
                    phases::set_up(w, &mut FrameGen::setup(*w, args.seed, index), &mut book);
                setup_s.push(secs);
                extra.shutdown();
            }
        }
    }
    let paced = phases::paced(&mut fe, gen, &mut book, paced_n, tracer);
    let final_snapshot = fe.snapshot();
    let leftover = fe.shutdown().len();
    // The measured front-end ran its own warm-up frames plus every phase.
    let mut offered_to_measured = [0; 2];
    for &standard in w.standards() {
        offered_to_measured[phases::std_index(standard)] += 1;
    }
    for p in std::iter::once(&warm).chain(&rounds).chain([&paced.phase]) {
        for (total, n) in offered_to_measured.iter_mut().zip(p.frames_by_std) {
            *total += n;
        }
    }
    Run {
        book,
        setup_s,
        warm,
        rounds,
        paced,
        final_snapshot,
        offered_to_measured,
        leftover,
    }
}

/// The correctness gate: exactly-once `Done`, per-kernel job counts, and
/// the fingerprint of the deterministic simulated statistics.
struct Gate {
    problems: Vec<String>,
    /// Hash of the modeled slack and shed decisions of the burst rounds.
    model: u64,
}

impl Gate {
    /// The fingerprint line: the burst rounds' modeled admission
    /// decisions, and the measured front-end's per-kernel simulated array
    /// cycles and jobs.
    fn fingerprint(&self, s: &Snapshot) -> String {
        let mut all = stats::Fnv::new();
        all.word(self.model);
        let mut kernels = Vec::new();
        for kind in KernelKind::ALL {
            let (cycles, jobs) = (s.kernel_cycles[kind.index()], s.kernel_jobs[kind.index()]);
            all.word(cycles);
            all.word(jobs);
            kernels.push(format!("{}={cycles}/{jobs}", kind.name()));
        }
        format!(
            "{:016x} model {:016x} cycles/jobs {}",
            all.finish(),
            self.model,
            kernels.join(" ")
        )
    }
}

fn gate(run: &Run) -> Gate {
    let mut problems = run.book.problems();
    if run.leftover > 0 {
        problems.push(format!(
            "the pool held {} sessions at shutdown",
            run.leftover
        ));
    }
    let s = &run.final_snapshot;
    let [wcdma, ofdm] = run.offered_to_measured;
    for (kind, expected) in [
        (KernelKind::Descrambler, wcdma),
        (KernelKind::Despreader, wcdma),
        (KernelKind::PreambleDetector, ofdm),
        (KernelKind::Demodulator, ofdm),
    ] {
        let jobs = s.kernel_jobs[kind.index()];
        if jobs != expected {
            problems.push(format!(
                "{} ran {jobs} jobs for {expected} frames",
                kind.name()
            ));
        }
    }
    // Burst admissions reach the admission model in a fixed order: every
    // frame is parked before the round runs, and the lot releases fresh
    // frames in deadline order. Paced admissions are left out: when frames
    // of both standards (different periods, so deadline order differs
    // from arrival order) wait in the lot together, the order the model
    // sees them in depends on timing.
    let mut model = stats::Fnv::new();
    for phase in std::iter::once(&run.warm).chain(&run.rounds) {
        model.word(phase.summary.slack_cycles.len() as u64);
        for &slack in &phase.summary.slack_cycles {
            model.word(slack as u64);
        }
        model.word(phase.summary.shed.len() as u64);
        for &id in &phase.summary.shed {
            model.word(id);
        }
    }
    Gate {
        problems,
        model: model.finish(),
    }
}

fn per_round(rounds: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    let values: Vec<f64> = rounds.iter().map(f).collect();
    stats::median(&values).unwrap_or(f64::NAN)
}

fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        stats::median(&run.setup_s).unwrap_or(f64::NAN),
        "s",
    );
    m.put(
        "frames_per_s",
        per_round(&run.rounds, |p| p.frames as f64 / p.wall_s),
        "1/s",
    );
    m.put(
        "cpu_ms_per_frame",
        per_round(&run.rounds, |p| p.cpu_s * 1e3 / p.frames as f64),
        "ms",
    );
    let offered = run.book.offered();
    m.put(
        "done_rate",
        run.book.done_once() as f64 / offered as f64,
        "ratio",
    );
    m.put(
        "peak_rss_mb",
        procstat::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    m
}

fn provenance(args: &Args) -> json::Object {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::Object::new()
        .str("workload", args.workload.name)
        .raw("seed", args.seed.to_string())
        .num("seconds", args.seconds)
        .raw("trace", u8::from(args.trace).to_string())
        .raw("nproc", nproc.to_string())
        .str("host", &std::env::var("PERFBENCH_HOST").unwrap_or_default())
        .str(
            "commit",
            &std::env::var("PERFBENCH_COMMIT").unwrap_or_default(),
        )
        .str(
            "rustc",
            &std::env::var("PERFBENCH_RUSTC").unwrap_or_default(),
        )
}

/// Human-readable context for the run's figures: the host's CPU steal
/// over the run (time the hypervisor gave this machine's virtual CPUs to
/// other tenants), each burst round's frames/s, the paced phase's p50 by
/// eighths, its pooled tail percentiles, and every set-up time.
fn print_diagnostics(run: &Run, ticks0: Option<(u64, u64)>) {
    let steal = match (ticks0, procstat::host_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let list = |v: &mut dyn Iterator<Item = f64>, digits: usize| {
        v.map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let fps = list(
        &mut run.rounds.iter().map(|p| p.frames as f64 / p.wall_s),
        1,
    );
    let eighths = list(
        &mut run
            .paced
            .latencies
            .chunks(run.paced.latencies.len().div_ceil(8).max(1))
            .filter_map(|c| stats::median(&c.iter().map(|&(_, _, s)| s * 1e3).collect::<Vec<_>>())),
        2,
    );
    let tails = list(
        &mut [0.5, 0.9, 0.95, 0.99]
            .iter()
            .map(|&q| run.paced.latency_ms(q)),
        2,
    );
    println!(
        "diagnostics: host_steal_frac {steal:.3} round_fps [{fps}] paced_p50_by_eighth_ms \
         [{eighths}] paced_pooled_p50_p90_p95_p99_ms [{tails}] setup_s [{}]",
        list(&mut run.setup_s.iter().copied(), 4)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let ticks0 = procstat::host_ticks();
    let mut gen = FrameGen::new(args.workload, args.seed);
    let mut tracer = args.trace.then(|| trace::Tracer::new(origin));
    let run = measure(&args, &mut gen, tracer.as_mut());
    let mut g = gate(&run);
    let metrics = match tracer.as_mut() {
        Some(t) => {
            let (m, problems) = layers::per_layer(&args.workload, &run, &mut gen, t);
            g.problems.extend(problems);
            let path = args
                .out
                .join(format!("trace-{}-{}.json", args.workload.name, args.seed));
            match t.write(&path, &provenance(&args)) {
                Ok(()) => println!("trace: {} spans in {}", t.span_count(), path.display()),
                Err(e) => g.problems.push(format!("writing {}: {e}", path.display())),
            }
            m
        }
        None => end_to_end(&run),
    };
    println!("provenance: {}", provenance(&args).encode());
    println!("fingerprint: {}", g.fingerprint(&run.final_snapshot));
    print_diagnostics(&run, ticks0);
    for p in &g.problems {
        println!("gate: {p}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name:<48} {value:>14.6} {unit}");
    }
    println!(
        "paced latency (reported, not gated): p50 {:.3} ms, p99 {:.3} ms over {} frames",
        run.paced.latency_ms(0.5),
        run.paced.latency_ms(0.99),
        run.paced.latencies.len()
    );
    let offered = run.book.offered();
    let failed = offered - run.book.done_once();
    println!(
        "error_rate {:.6} ({failed} of {offered} frames not Done exactly once)",
        failed as f64 / offered as f64
    );
    let correct = g.problems.is_empty() && metrics.0.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        json::Object::new()
            .raw("correct", correct.to_string())
            .raw("attempted", offered.to_string())
            .raw("failed", failed.to_string())
            .raw("metrics", metrics.encode())
            .encode()
    );
}
