//! The three workloads and the frames they offer.
//!
//! Every input is a pure function of the workload seed: session seeds,
//! the standard of each frame, the modeled arrival stamps the front-end's
//! virtual-time admission model sees, and the wall-clock arrival
//! schedule of the paced phase. The program only ever sees the generated
//! [`ParkedSession`] records.

use sdr_dsp::rng::Rng64;
use sdr_engine::session::{OFDM_JOB_CYCLES, WCDMA_JOB_CYCLES};
use sdr_engine::{FrontendConfig, ParkedSession, PlacementPolicy, Standard};

/// Pipeline steps per frame (capture, detect/search, demod/track).
pub const STEPS: u64 = 3;

/// Which standards a workload's frames run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Wcdma,
    Ofdm,
    /// Alternating W-CDMA / OFDM terminals.
    Alternating,
}

/// One benchmark workload: pool shape and how much work a run offers.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shards: usize,
    pub arrays_per_shard: usize,
    pub mix: Mix,
    /// Frames admitted at once per burst round.
    pub burst_frames: usize,
    /// Nominal burst capacity on the reference 2-core host (frames per
    /// wall second); only sizes how many rounds a run offers, so the
    /// work per run is fixed for a given `--seconds`.
    pub nominal_fps: f64,
    /// Paced-phase mean arrival rate, frames per wall second: about a
    /// third of the nominal burst capacity.
    pub paced_fps: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wcdma",
        shards: 2,
        arrays_per_shard: 1,
        mix: Mix::Wcdma,
        burst_frames: 96,
        nominal_fps: 150.0,
        paced_fps: 50.0,
    },
    Workload {
        name: "ofdm",
        shards: 2,
        arrays_per_shard: 1,
        mix: Mix::Ofdm,
        burst_frames: 512,
        nominal_fps: 1350.0,
        paced_fps: 450.0,
    },
    Workload {
        name: "mixed_gang",
        shards: 1,
        arrays_per_shard: 2,
        mix: Mix::Alternating,
        burst_frames: 128,
        nominal_fps: 150.0,
        paced_fps: 50.0,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `examples/basestation` front-end at this workload's shape:
    /// affinity routing, work stealing and differential loading on.
    pub fn frontend_config(&self) -> FrontendConfig {
        FrontendConfig {
            shards: self.shards,
            arrays_per_shard: self.arrays_per_shard,
            placement: PlacementPolicy::Affinity,
            work_stealing: true,
            delta_loading: true,
            ..FrontendConfig::default()
        }
    }

    pub fn standards(&self) -> &'static [Standard] {
        match self.mix {
            Mix::Wcdma => &[Standard::Wcdma],
            Mix::Ofdm => &[Standard::Ofdm],
            Mix::Alternating => &[Standard::Wcdma, Standard::Ofdm],
        }
    }

    fn standard_of(&self, index: u64) -> Standard {
        let stds = self.standards();
        stds[(index % stds.len() as u64) as usize]
    }

    /// Mean modeled service demand per frame (array cycles).
    fn mean_service_cycles(&self) -> f64 {
        let stds = self.standards();
        stds.iter().map(|&s| service_cycles(s) as f64).sum::<f64>() / stds.len() as f64
    }
}

/// The front-end model's per-frame service charge (3 × job cycles).
pub fn service_cycles(standard: Standard) -> u64 {
    STEPS
        * match standard {
            Standard::Wcdma => WCDMA_JOB_CYCLES,
            Standard::Ofdm => OFDM_JOB_CYCLES,
        }
}

/// Modeled offered load: arrivals are stamped so the virtual servers run
/// at this utilisation, far from the shed threshold, so no frame is shed.
const MODEL_UTILISATION: f64 = 0.3;

/// One generated frame.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub record: ParkedSession,
    pub standard: Standard,
}

/// Seeded frame source for one run. Ids are unique for the run, so every
/// offered frame can be tracked to exactly one terminal state.
pub struct FrameGen {
    workload: Workload,
    seed: u64,
    rng: Rng64,
    first_id: u64,
    next_id: u64,
    model_clock: f64,
    model_interarrival: f64,
}

/// First frame id of the set-up streams, far above any measured frame.
const SETUP_FIRST_ID: u64 = 1 << 40;
/// Modeled cycle the measured stream starts at: after any set-up
/// warm-up frame, so the admission model never charges a measured frame
/// for a warm-up.
const MEASURED_CLOCK_START: f64 = 1.0e6;

impl FrameGen {
    /// The measured frames of a run.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self::stream(workload, seed, 0, MEASURED_CLOCK_START)
    }

    /// The warm-up frames of set-up number `index`: a stream of its own,
    /// so every set-up runs the same frames and the number of set-ups
    /// never shifts which frames are measured.
    pub fn setup(workload: Workload, seed: u64, index: u64) -> Self {
        Self::stream(
            workload,
            seed ^ 0x5E70_95E7,
            SETUP_FIRST_ID + 16 * index,
            0.0,
        )
    }

    fn stream(workload: Workload, seed: u64, first_id: u64, model_clock: f64) -> Self {
        let servers = (workload.shards * workload.arrays_per_shard) as f64;
        FrameGen {
            workload,
            seed,
            rng: Rng64::seed_from_u64(seed ^ 0xF4A3_E5ED),
            first_id,
            next_id: first_id,
            model_clock,
            model_interarrival: workload.mean_service_cycles() / (servers * MODEL_UTILISATION),
        }
    }

    /// The session seed of the stream's `index`-th frame: a SplitMix-style
    /// mix of the stream seed and the index.
    fn session_seed(&self, index: u64) -> u64 {
        let mut z = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn make(&mut self, standard: Standard) -> Frame {
        let id = self.next_id;
        self.next_id += 1;
        let u = self.rng.next_f64().max(1e-12);
        self.model_clock += -self.model_interarrival * u.ln();
        let arrival = self.model_clock.ceil() as u64;
        let seed = self.session_seed(id - self.first_id);
        let record = match standard {
            Standard::Wcdma => ParkedSession::new_wcdma(id, seed, arrival),
            Standard::Ofdm => ParkedSession::new_ofdm(id, seed, arrival),
        };
        Frame { record, standard }
    }

    /// The next frame of the workload's mix.
    pub fn next_frame(&mut self) -> Frame {
        let standard = self.workload.standard_of(self.next_id - self.first_id);
        self.make(standard)
    }

    /// The next frame, of a given standard (warm-up and probes).
    pub fn frame_of(&mut self, standard: Standard) -> Frame {
        self.make(standard)
    }

    pub fn take(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }

    /// Seeded Poisson wall-clock offsets (seconds from phase start) for
    /// `n` paced arrivals at the workload's paced rate.
    pub fn paced_offsets(&mut self, n: usize) -> Vec<f64> {
        let mean = 1.0 / self.workload.paced_fps;
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                let u = self.rng.next_f64().max(1e-12);
                t += -mean * u.ln();
                t
            })
            .collect()
    }
}
