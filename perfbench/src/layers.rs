//! Per-layer metrics of the traced run, named after the program's
//! modules: `frontend`, `pool`, `router`, `config_manager`, `session`,
//! `xpp`, `wcdma` and `ofdm`.
//!
//! Counter-based figures come from the measured front-end's `Snapshot`
//! deltas over the burst rounds (and the paced phase where noted). Wall
//! figures come from spans this module records around public calls: a
//! serial walk of sampled frames through `Session::rehydrate` /
//! `Session::step` on one `WorkerArray`, the activation tiers of
//! `WorkerArray::activate` / `swap`, the public `xpp_map` kernel
//! wrappers, and the host-DSP calls each standard's pipeline makes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sdr_dsp::fft::Fft64Fixed;
use sdr_dsp::rng::Rng64;
use sdr_dsp::Cplx;
use sdr_engine::config_manager::KernelSpec;
use sdr_engine::metrics::{KernelKind, Metrics as Registry};
use sdr_engine::{ParkedSession, Session, SessionState, Snapshot, Standard, WorkerArray};
use sdr_ofdm::channel::WlanChannel;
use sdr_ofdm::params::{data_subcarriers, rate, subcarrier_to_bin, RateParams, CP_LEN};
use sdr_ofdm::rx::{autocorr_metric, OfdmReceiver};
use sdr_ofdm::tx::Transmitter;
use sdr_ofdm::xpp_map::{OfdmKernel, ReconfigurableFrontend};
use sdr_wcdma::channel::{propagate, AdcConfig, CellLink, Path};
use sdr_wcdma::rake::estimator::estimate_channel;
use sdr_wcdma::rake::searcher::PathSearcher;
use sdr_wcdma::tx::{CellConfig, CellTransmitter};
use sdr_wcdma::xpp_map::{ArrayDescrambler, ArrayDespreader, WcdmaKernel};
use sdr_wcdma::ScramblingCode;

use crate::frames::{self, Frame, FrameGen, Workload};
use crate::phases::{std_index, Phase};
use crate::stats::{mean, median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::{Metrics, Run};

/// Walked frames per standard the workload runs (sampled evenly from the
/// paced phase, so `pool.wait_ms_p50` compares the same frames).
const WALK_FRAMES: [usize; 2] = [12, 48];
/// Probe frames per standard the workload does not run, so every
/// per-layer metric has a value on every workload.
const PROBE_FRAMES: usize = 4;
/// Repeats of each activation-tier and swap measurement.
const TIER_REPEATS: usize = 8;

const STEP_NAMES: [[&str; 3]; 2] = [
    ["wcdma_capture", "wcdma_search", "wcdma_track"],
    ["ofdm_capture", "ofdm_detect", "ofdm_demod"],
];
/// The parked phase a frame is rehydrated from before each step.
const PHASE_NAMES: [[&str; 3]; 2] = [
    ["wcdma_start", "wcdma_search", "wcdma_track"],
    ["ofdm_start", "ofdm_detect", "ofdm_demod"],
];

fn std_name(s: Standard) -> &'static str {
    match s {
        Standard::Wcdma => "wcdma",
        Standard::Ofdm => "ofdm",
    }
}

/// Adds the counter deltas `b − a` the layers read to `into`.
fn add_delta(into: &mut Snapshot, a: &Snapshot, b: &Snapshot) {
    macro_rules! add {
        ($($f:ident),*) => { $( into.$f += b.$f - a.$f; )* };
    }
    add!(
        jobs_run,
        jobs_rejected,
        reconfigurations,
        cache_hits,
        cache_misses,
        config_bus_cycles,
        config_words_demand,
        config_words_prefetched,
        rehydrations,
        backpressure_parks,
        batches_dispatched,
        batch_sessions,
        delta_words_saved,
        array_cycles_run,
        config_words_streamed,
        schedules_captured,
        schedule_replay_cycles,
        schedule_invalidations,
        router_affinity_hits,
        router_fallbacks,
        steal_sessions
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sums of several phases (frames, wall, CPU, counter deltas).
struct Totals {
    frames: f64,
    by_std: [f64; 2],
    driver_cpu_s: f64,
    worker_cpu_s: f64,
    worker_thread_s: f64,
    counters: Snapshot,
}

fn totals<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> Totals {
    let mut t = Totals {
        frames: 0.0,
        by_std: [0.0; 2],
        driver_cpu_s: 0.0,
        worker_cpu_s: 0.0,
        worker_thread_s: 0.0,
        counters: Snapshot::default(),
    };
    for p in phases {
        t.frames += p.frames as f64;
        for i in 0..2 {
            t.by_std[i] += p.frames_by_std[i] as f64;
        }
        t.driver_cpu_s += p.driver_cpu_s();
        t.worker_cpu_s += p.worker_cpu_s();
        t.worker_thread_s += p.wall_s * p.threads_after.others as f64;
        add_delta(&mut t.counters, &p.before, &p.after);
    }
    t
}

pub fn per_layer(
    w: &Workload,
    run: &Run,
    gen: &mut FrameGen,
    t: &mut Tracer,
) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let mut problems = Vec::new();
    let burst = totals(&run.rounds);
    let paced = &run.paced;
    let both = totals(run.rounds.iter().chain([&paced.phase]));

    // Serial walk and per-call probes first: the pool metrics below need
    // the walk's per-frame service times.
    let walk_frames = walk_sample(w, run, gen);
    let walk = walk(&walk_frames, t, &mut problems);

    // -- frontend ----------------------------------------------------------
    let f = burst.frames;
    m.put(
        "frontend.driver_cpu_ms_per_frame",
        burst.driver_cpu_s * 1e3 / f,
        "ms",
    );
    m.put(
        "frontend.bp_parks_per_frame",
        burst.counters.backpressure_parks as f64 / f,
        "count",
    );
    m.put(
        "frontend.rehydrations_per_frame",
        burst.counters.rehydrations as f64 / f,
        "count",
    );
    m.put(
        "frontend.pump_busy_frac",
        paced.pump_busy_s / paced.phase.wall_s,
        "ratio",
    );
    m.put(
        "frontend.admit_us",
        median(&paced.admit_s).unwrap_or(0.0) * 1e6,
        "us",
    );
    m.put(
        "frontend.generator_lag_ms",
        quantile(&paced.lag_s, 0.99).unwrap_or(0.0) * 1e3,
        "ms",
    );
    let summaries = std::iter::once(&run.warm)
        .chain(&run.rounds)
        .chain([&paced.phase])
        .map(|p| &p.summary);
    let (mut slack, mut shed) = (Vec::new(), 0usize);
    for s in summaries {
        slack.extend(s.slack_cycles.iter().map(|&c| c as f64));
        shed += s.shed.len();
    }
    m.put(
        "frontend.model_p99_slack_cycles",
        quantile(&slack, 0.01).unwrap_or(0.0),
        "cycles",
    );
    m.put(
        "frontend.model_shed_rate",
        ratio(shed as f64, (slack.len() + shed) as f64),
        "ratio",
    );
    let modeled: f64 = [Standard::Wcdma, Standard::Ofdm]
        .iter()
        .map(|&s| burst.by_std[std_index(s)] * frames::service_cycles(s) as f64)
        .sum();
    m.put(
        "frontend.model_service_ratio",
        burst.counters.array_cycles_run as f64 / modeled,
        "ratio",
    );

    // -- paced end-to-end latency (reported here, not gated) --------------
    m.put("paced.latency_p50_ms", paced.latency_ms(0.5), "ms");
    m.put("paced.latency_p99_ms", paced.latency_ms(0.99), "ms");

    // -- pool --------------------------------------------------------------
    let worker_ms = burst.worker_cpu_s * 1e3 / f;
    m.put("pool.worker_cpu_ms_per_frame", worker_ms, "ms");
    m.put(
        "pool.worker_busy_frac",
        burst.worker_cpu_s / burst.worker_thread_s,
        "ratio",
    );
    let latency: HashMap<u64, f64> = paced.latencies.iter().map(|&(id, _, s)| (id, s)).collect();
    let waits: Vec<f64> = walk
        .service_s
        .iter()
        .filter_map(|(id, service)| Some((latency.get(id)? - service) * 1e3))
        .collect();
    m.put("pool.wait_ms_p50", median(&waits).unwrap_or(0.0), "ms");
    m.put(
        "pool.rejected_per_frame",
        burst.counters.jobs_rejected as f64 / f,
        "count",
    );
    m.put(
        "pool.batch_avg_size",
        burst.counters.avg_batch_size(),
        "count",
    );
    let explained: f64 = (0..2)
        .map(|i| burst.by_std[i] / f * walk.service_ms[i])
        .sum();
    m.put("pool.overhead_ms_per_frame", worker_ms - explained, "ms");
    m.put(
        "pool.overhead_share",
        ratio(worker_ms - explained, worker_ms),
        "ratio",
    );

    // -- router ------------------------------------------------------------
    m.put(
        "router.affinity_hit_rate",
        both.counters.affinity_hit_rate(),
        "ratio",
    );
    m.put("router.steal_rate", both.counters.steal_rate(), "ratio");

    // -- config_manager ----------------------------------------------------
    let c = &burst.counters;
    m.put(
        "config_manager.cfg_words_per_frame",
        c.config_words_streamed as f64 / f,
        "count",
    );
    m.put(
        "config_manager.reconfigs_per_frame",
        c.reconfigurations as f64 / f,
        "count",
    );
    m.put("config_manager.cache_hit_rate", c.cache_hit_rate(), "ratio");
    m.put(
        "config_manager.delta_word_hit_rate",
        c.delta_hit_rate(),
        "ratio",
    );
    m.put("config_manager.bus_idle_frac", c.bus_idle_ratio(), "ratio");
    activation_tiers(t, &mut m);

    // -- session -----------------------------------------------------------
    for (i, names) in PHASE_NAMES.iter().enumerate() {
        for (j, name) in names.iter().enumerate() {
            m.put(
                format!("session.rehydrate_us.{name}"),
                walk.rehydrate_us[i][j],
                "us",
            );
        }
    }
    for (i, names) in STEP_NAMES.iter().enumerate() {
        for (j, name) in names.iter().enumerate() {
            m.put(format!("session.step_ms.{name}"), walk.step_ms[i][j], "ms");
        }
    }
    for s in [Standard::Wcdma, Standard::Ofdm] {
        m.put(
            format!("session.service_ms.{}", std_name(s)),
            walk.service_ms[std_index(s)],
            "ms",
        );
    }

    // -- xpp ---------------------------------------------------------------
    let ws = &walk.snapshot;
    for kind in KernelKind::ALL {
        let k = kind.index();
        let jobs = ws.kernel_jobs[k] as f64;
        m.put(
            format!("xpp.cycles_per_job.{}", kind.name()),
            ratio(ws.kernel_cycles[k] as f64, jobs),
            "cycles",
        );
        m.put(
            format!("xpp.fires_per_job.{}", kind.name()),
            ratio(ws.kernel_fires[k] as f64, jobs),
            "count",
        );
    }
    let probe = probes(&walk_frames, t, &mut problems);
    for kind in KernelKind::ALL {
        let (wall, cycles) = probe.kernel[kind.index()];
        m.put(
            format!("xpp.host_ns_per_cycle.{}", kind.name()),
            ratio(wall * 1e9, cycles),
            "ns",
        );
    }
    m.put("xpp.replay_hit_rate", c.replay_hit_ratio(), "ratio");
    m.put(
        "xpp.invalidations_per_capture",
        ratio(c.schedule_invalidations as f64, c.schedules_captured as f64),
        "ratio",
    );

    // -- wcdma / ofdm host DSP --------------------------------------------
    for (name, secs) in &probe.calls {
        m.put(*name, median(secs).unwrap_or(0.0) * 1e3, "ms");
    }

    // -- tracing itself ----------------------------------------------------
    let ms_per_frame = |traced: bool| {
        let ms: Vec<f64> = run
            .rounds
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s * 1e3 / p.frames as f64)
            .collect();
        median(&ms).unwrap_or(0.0)
    };
    m.put(
        "trace.overhead_frac",
        ratio(ms_per_frame(true), ms_per_frame(false)) - 1.0,
        "ratio",
    );
    (m, problems)
}

// ---------------------------------------------------------------------------
// Serial walk
// ---------------------------------------------------------------------------

/// Paced frames sampled evenly per standard, plus probe frames of any
/// standard the workload does not run.
fn walk_sample(w: &Workload, run: &Run, gen: &mut FrameGen) -> Vec<Frame> {
    let mut out = Vec::new();
    for s in [Standard::Wcdma, Standard::Ofdm] {
        let of_std: Vec<&Frame> = run
            .paced
            .frames
            .iter()
            .filter(|f| f.standard == s)
            .collect();
        if w.standards().contains(&s) && !of_std.is_empty() {
            let want = WALK_FRAMES[std_index(s)].min(of_std.len());
            let stride = of_std.len() / want;
            out.extend((0..want).map(|i| *of_std[i * stride]));
        } else {
            out.extend((0..PROBE_FRAMES).map(|_| gen.frame_of(s)));
        }
    }
    out
}

struct Walk {
    /// Mean rehydrate µs per standard and parked phase.
    rehydrate_us: [[f64; 3]; 2],
    /// Mean step ms per standard and step.
    step_ms: [[f64; 3]; 2],
    /// Sum of the mean step times, per standard.
    service_ms: [f64; 2],
    /// Serial service seconds (three steps) of each walked frame.
    service_s: Vec<(u64, f64)>,
    snapshot: Snapshot,
}

fn walk(frames: &[Frame], t: &mut Tracer, problems: &mut Vec<String>) -> Walk {
    let registry = Arc::new(Registry::new());
    let mut worker = WorkerArray::new(8, Arc::clone(&registry));
    worker.set_delta_loading(true);
    let mut rehydrate = [[const { Vec::new() }; 3], [const { Vec::new() }; 3]];
    let mut steps = [[const { Vec::new() }; 3], [const { Vec::new() }; 3]];
    let mut service_s = Vec::new();
    let walk_span = t.open("walk", None);
    for f in frames {
        let s = std_index(f.standard);
        let id = f.record.id();
        let frame_span = t.open("walk.frame", Some(walk_span));
        let (mut session, secs) = t.time("session.rehydrate", Some(frame_span), Some(id), || {
            Session::rehydrate(&f.record)
        });
        rehydrate[s][0].push(secs);
        let mut service = 0.0;
        for j in 0..3 {
            let (_, secs) = t.time("session.step", Some(frame_span), Some(id), || {
                session.step(&mut worker)
            });
            worker.refresh_activity();
            steps[s][j].push(secs);
            service += secs;
            if j < 2 {
                let Some(parked) = session.park() else {
                    problems.push(format!(
                        "walk: frame {id} ended early: {:?}",
                        session.state()
                    ));
                    break;
                };
                let (resumed, secs) =
                    t.time("session.rehydrate", Some(frame_span), Some(id), || {
                        Session::rehydrate(&parked)
                    });
                rehydrate[s][j + 1].push(secs);
                session = resumed;
            }
        }
        t.close(frame_span);
        if !matches!(session.state(), SessionState::Done) {
            problems.push(format!("walk: frame {id} ended {:?}", session.state()));
        }
        service_s.push((id, service));
    }
    t.close(walk_span);
    let per = |v: &[Vec<f64>; 3], scale: f64| -> [f64; 3] {
        [0, 1, 2].map(|j| mean(&v[j]).unwrap_or(0.0) * scale)
    };
    let rehydrate_us = [per(&rehydrate[0], 1e6), per(&rehydrate[1], 1e6)];
    let step_ms = [per(&steps[0], 1e3), per(&steps[1], 1e3)];
    Walk {
        rehydrate_us,
        step_ms,
        service_ms: step_ms.map(|s| s.iter().sum()),
        service_s,
        snapshot: registry.snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Activation tiers
// ---------------------------------------------------------------------------

fn activation_tiers(t: &mut Tracer, m: &mut Metrics) {
    // The engine's four kernels, with the despreader shaped as the
    // default cell's data channel.
    let dpch = CellConfig::default().dpch;
    let kernels: [KernelSpec; 4] = [
        WcdmaKernel::Descrambler.into(),
        WcdmaKernel::Despreader {
            sf: dpch.sf,
            code_index: dpch.code_index,
        }
        .into(),
        OfdmKernel::PreambleDetector.into(),
        OfdmKernel::Demodulator.into(),
    ];
    // Cold: first activation on a fresh worker (compile and load);
    // cached: again after `deactivate` (store hit, bus load); resident:
    // once more while loaded.
    const TIERS: [&str; 3] = [
        "config_manager.activate.cold",
        "config_manager.activate.cached",
        "config_manager.activate.resident",
    ];
    let span = t.open("config_manager.tiers", None);
    let mut tiers: [Vec<f64>; 3] = Default::default();
    let mut swaps = Vec::new();
    for _ in 0..TIER_REPEATS {
        for spec in kernels {
            let mut worker = WorkerArray::new(8, Arc::new(Registry::new()));
            worker.set_delta_loading(true);
            for (tier, name) in TIERS.into_iter().enumerate() {
                if tier == 1 {
                    worker.deactivate(spec).expect("resident kernel unloads");
                }
                let (r, secs) = t.time(name, Some(span), None, || worker.activate(spec));
                r.expect("kernel activates on an empty array");
                tiers[tier].push(secs);
            }
        }
        // The Fig. 10 swap with both configurations compiled in the store.
        let mut worker = WorkerArray::new(8, Arc::new(Registry::new()));
        worker.set_delta_loading(true);
        let (det, demod) = (OfdmKernel::PreambleDetector, OfdmKernel::Demodulator);
        worker.activate(demod).expect("demodulator activates");
        worker.deactivate(demod).expect("demodulator unloads");
        worker.activate(det).expect("detector activates");
        let (r, secs) = t.time("config_manager.swap", Some(span), None, || {
            worker.swap(det, demod)
        });
        r.expect("Fig. 10 swap succeeds");
        swaps.push(secs);
    }
    t.close(span);
    for (tier, name) in ["cold", "cached", "resident"].iter().enumerate() {
        m.put(
            format!("config_manager.activate_us.{name}"),
            median(&tiers[tier]).unwrap_or(0.0) * 1e6,
            "us",
        );
    }
    m.put(
        "config_manager.swap_us",
        median(&swaps).unwrap_or(0.0) * 1e6,
        "us",
    );
}

// ---------------------------------------------------------------------------
// Host-DSP calls and kernel wrappers
// ---------------------------------------------------------------------------

struct Probes {
    /// Wall seconds of each timed call, by metric name.
    calls: Vec<(&'static str, Vec<f64>)>,
    /// (wall seconds, array cycles) per kernel, through the public
    /// `xpp_map` wrappers.
    kernel: [(f64, f64); 4],
}

impl Probes {
    fn call<T>(
        &mut self,
        t: &mut Tracer,
        parent: SpanId,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, secs) = t.time(name, Some(parent), Some(id), f);
        match self.calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(secs),
            None => self.calls.push((name, vec![secs])),
        }
        out
    }
}

fn probes(frames: &[Frame], t: &mut Tracer, problems: &mut Vec<String>) -> Probes {
    let mut p = Probes {
        calls: Vec::new(),
        kernel: [(0.0, 0.0); 4],
    };
    // Fix the metric order whatever the workload.
    for name in [
        "wcdma.scrambling_downlink_ms",
        "wcdma.transmit_ms",
        "wcdma.propagate_ms",
        "wcdma.path_search_ms",
        "wcdma.estimate_channel_ms",
        "ofdm.transmit_ms",
        "ofdm.channel_run_ms",
        "ofdm.autocorr_metric_ms",
        "ofdm.detect_ms",
        "ofdm.fine_timing_ms",
        "ofdm.receive_ms",
    ] {
        p.calls.push((name, Vec::new()));
    }
    let span = t.open("probes", None);
    for f in frames {
        let result = match f.standard {
            Standard::Wcdma => probe_wcdma(&f.record, &mut p, t, span),
            Standard::Ofdm => probe_ofdm(&f.record, &mut p, t, span),
        };
        if let Err(e) = result {
            problems.push(format!("probe of frame {}: {e}", f.record.id()));
        }
    }
    t.close(span);
    p
}

/// Times one call of a public `xpp_map` kernel wrapper `w`, adding its
/// wall time and simulated array cycles to the kernel's totals.
#[allow(clippy::too_many_arguments)]
fn kernel<W, T>(
    p: &mut Probes,
    t: &mut Tracer,
    parent: SpanId,
    kind: KernelKind,
    id: u64,
    w: &mut W,
    cycles: fn(&W) -> u64,
    f: impl FnOnce(&mut W) -> T,
) -> T {
    let before = cycles(w);
    let start = Instant::now();
    let out = f(w);
    let end = Instant::now();
    t.span(kind.name(), start, end, Some(parent), Some(id));
    let slot = &mut p.kernel[kind.index()];
    slot.0 += (end - start).as_secs_f64();
    slot.1 += cycles(w).saturating_sub(before) as f64;
    out
}

/// The W-CDMA terminal's inputs for a session seed, rebuilt with the
/// same public calls its capture, search and track steps make.
fn probe_wcdma(
    rec: &ParkedSession,
    p: &mut Probes,
    t: &mut Tracer,
    parent: SpanId,
) -> Result<(), String> {
    let seed = rec.seed();
    let id = rec.id();
    let cell = CellConfig::default();
    let mut rng = Rng64::seed_from_u64(seed);
    let bits: Vec<u8> = (0..32).map(|_| (rng.next_u32() & 1) as u8).collect();
    let true_delay = 4 + (seed % 8) as usize;

    let code = p.call(t, parent, "wcdma.scrambling_downlink_ms", id, || {
        ScramblingCode::downlink(cell.scrambling_code)
    });
    let signal = p.call(t, parent, "wcdma.transmit_ms", id, || {
        CellTransmitter::new(cell).transmit(&bits)
    });
    let link = CellLink::new(vec![Path::new(true_delay, Cplx::new(0.8, 0.2))]);
    let rx = p.call(t, parent, "wcdma.propagate_ms", id, || {
        propagate(&[(signal, link)], 0.02, seed ^ 0x5EED, AdcConfig::default())
    });
    let hits = p.call(t, parent, "wcdma.path_search_ms", id, || {
        PathSearcher::default().search(&rx, &code)
    });
    let delay = hits
        .first()
        .map(|h| h.delay)
        .ok_or("path search found no paths")?;
    p.call(t, parent, "wcdma.estimate_channel_ms", id, || {
        estimate_channel(&rx, &code, delay, 8)
    });

    let sf = cell.dpch.sf;
    let n = ((rx.len() - delay) / sf) * sf;
    let mut desc = ArrayDescrambler::new().map_err(|e| e.to_string())?;
    let chips = kernel(
        p,
        t,
        parent,
        KernelKind::Descrambler,
        id,
        &mut desc,
        |d| d.array().stats().cycles,
        |d| d.process(&rx, &code, delay, 0, n),
    )
    .map_err(|e| e.to_string())?;
    let mut desp = ArrayDespreader::new(sf, cell.dpch.code_index).map_err(|e| e.to_string())?;
    let symbols = kernel(
        p,
        t,
        parent,
        KernelKind::Despreader,
        id,
        &mut desp,
        |d| d.array().stats().cycles,
        |d| d.process(&chips),
    )
    .map_err(|e| e.to_string())?;
    if symbols.is_empty() {
        return Err("despreader produced no symbols".into());
    }
    Ok(())
}

/// The OFDM terminal's inputs for a session seed, rebuilt with the same
/// public calls its capture, detect and demod steps make.
fn probe_ofdm(
    rec: &ParkedSession,
    p: &mut Probes,
    t: &mut Tracer,
    parent: SpanId,
) -> Result<(), String> {
    let seed = rec.seed();
    let id = rec.id();
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0FD3);
    let bits: Vec<u8> = (0..96).map(|_| (rng.next_u32() & 1) as u8).collect();
    let rate12: RateParams = rate(12).ok_or("12 Mb/s is a standard rate")?;
    let leading_gap = 64 + (seed % 48) as usize;

    let frame = p.call(t, parent, "ofdm.transmit_ms", id, || {
        Transmitter::new(rate12).transmit(&bits)
    });
    let channel = WlanChannel {
        leading_gap,
        seed,
        ..WlanChannel::default()
    };
    let rx = p.call(t, parent, "ofdm.channel_run_ms", id, || {
        channel.run(&frame.samples)
    });
    p.call(t, parent, "ofdm.autocorr_metric_ms", id, || {
        autocorr_metric(&rx)
    });
    let receiver = OfdmReceiver::new(rate12);
    let coarse = p
        .call(t, parent, "ofdm.detect_ms", id, || receiver.detect(&rx))
        .ok_or("no preamble plateau found")?;
    let long_start = p
        .call(t, parent, "ofdm.fine_timing_ms", id, || {
            receiver.fine_timing(&rx, coarse)
        })
        .ok_or("fine timing failed")?;
    let out = p.call(t, parent, "ofdm.receive_ms", id, || {
        receiver.receive(&rx, bits.len())
    });
    if out.map_err(|e| e.to_string())?.bits != bits {
        return Err("decoded payload differs from transmitted".into());
    }

    // Fig. 10 through the public wrapper: 2a search on the capture
    // (held to 40 Msps for the resident down-sampler), swap, 2b slicing.
    let mut fe = ReconfigurableFrontend::new(1).map_err(|e| e.to_string())?;
    let oversampled: Vec<Cplx<i32>> = rx.iter().flat_map(|&s| [s, s]).collect();
    let cycles = |f: &ReconfigurableFrontend| f.array().stats().cycles;
    kernel(
        p,
        t,
        parent,
        KernelKind::PreambleDetector,
        id,
        &mut fe,
        cycles,
        |f| f.search(&oversampled),
    )
    .map_err(|e| e.to_string())?;
    fe.switch_to_demodulation().map_err(|e| e.to_string())?;

    let at = long_start + 2 * 64 + CP_LEN;
    let mut window = [Cplx::<i32>::ZERO; 64];
    window.copy_from_slice(rx.get(at..at + 64).ok_or("frame truncated")?);
    let spectrum = Fft64Fixed::with_stage_shift(1).run(&window);
    let carriers: Vec<Cplx<i32>> = data_subcarriers()
        .iter()
        .map(|&k| spectrum[subcarrier_to_bin(k)])
        .collect();
    let weights = vec![Cplx::new(512, 0); carriers.len()];
    kernel(
        p,
        t,
        parent,
        KernelKind::Demodulator,
        id,
        &mut fe,
        cycles,
        |f| f.demodulate(&carriers, &weights),
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}
