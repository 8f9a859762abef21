//! Shard-gang golden equivalence: batching re-orders *dispatch*, never
//! *results*. A mixed rake + OFDM workload run on a 4-array gang must
//! produce exactly the per-session outcomes of the single-array seed
//! configuration — same terminal state for every session id, compared
//! order-independently (batching legitimately changes completion order).
//!
//! This is the engine-layer counterpart of the bit-exact golden tests in
//! `xpp_array`: each session's signal path runs on *some* array with the
//! same kernels, seeds and data either way, so its payload verdict cannot
//! depend on which gang member it landed on.

use std::sync::Arc;

use sdr_engine::{Engine, Metrics, PoolConfig, Session, SessionState, WorkerArray};
use xpp_array::with_schedule_capture;

/// Mixed workload: even ids W-CDMA rake terminals, odd ids 802.11a OFDM
/// terminals, seeds derived from the id both ways.
fn mixed_sessions(n: u64) -> Vec<Session> {
    (0..n)
        .map(|id| {
            if id % 2 == 0 {
                Session::wcdma(id, 1_000 + id)
            } else {
                Session::ofdm(id, 2_000 + id)
            }
        })
        .collect()
}

/// Runs the workload and returns `(id, terminal state)` sorted by id.
fn outcomes(arrays_per_shard: usize, n: u64) -> Vec<(u64, SessionState)> {
    outcomes_full(arrays_per_shard, n, false)
}

fn outcomes_full(arrays_per_shard: usize, n: u64, delta_loading: bool) -> Vec<(u64, SessionState)> {
    let mut engine = Engine::new(PoolConfig {
        shards: 1,
        arrays_per_shard,
        queue_depth: 64,
        cache_capacity: 8,
        delta_loading,
        ..PoolConfig::default()
    });
    let summary = engine.run(mixed_sessions(n));
    assert_eq!(
        summary.completed.len() as u64,
        n,
        "gang={arrays_per_shard}: sessions lost"
    );
    let mut out: Vec<(u64, SessionState)> = summary
        .completed
        .iter()
        .map(|s| (s.id(), s.state().clone()))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

#[test]
fn gang_of_four_matches_single_array_outcomes() {
    let n = 48;
    let seed = outcomes(1, n);
    let gang = outcomes(4, n);
    assert_eq!(seed.len(), gang.len());
    for ((seed_id, seed_state), (gang_id, gang_state)) in seed.iter().zip(gang.iter()) {
        assert_eq!(seed_id, gang_id);
        assert_eq!(
            seed_state, gang_state,
            "session {seed_id}: gang dispatch changed the outcome"
        );
    }
    // The workload is fault-free and feasible: every session finishes.
    assert!(
        seed.iter().all(|(_, s)| *s == SessionState::Done),
        "baseline must complete cleanly for the comparison to mean much"
    );
}

/// Differential loading changes *how* configurations reach the array —
/// word deltas against the evicted resident instead of full streams —
/// never *what* they compute: a delta-loaded configuration is bit-exact
/// (pinned in the workspace golden suite), so every session outcome must
/// match the full-load run, on the seed single-array shape and the gang.
#[test]
fn delta_loading_does_not_change_outcomes() {
    let n = 32;
    for gang in [1usize, 4] {
        let off = outcomes_full(gang, n, false);
        let on = outcomes_full(gang, n, true);
        assert_eq!(off.len(), on.len());
        for ((id_off, state_off), (id_on, state_on)) in off.iter().zip(on.iter()) {
            assert_eq!(id_off, id_on);
            assert_eq!(
                state_off, state_on,
                "session {id_off} (gang={gang}): differential loading changed the outcome"
            );
        }
    }
}

/// The capture-off oracle: every session stepped serially to a terminal
/// state on one array built with schedule capture forced off, so the
/// event scheduler alone runs every kernel.
fn outcomes_without_capture(n: u64) -> Vec<(u64, SessionState)> {
    let mut worker = with_schedule_capture(false, || WorkerArray::new(8, Arc::new(Metrics::new())));
    mixed_sessions(n)
        .into_iter()
        .map(|mut session| {
            while !session.is_terminal() {
                session.step(&mut worker);
            }
            (session.id(), session.state().clone())
        })
        .collect()
}

/// Schedule capture is always on for every pool array; the serial
/// capture-off oracle must reach the same outcome for every session, on
/// either the seed single-array shape or the 4-array gang. (Bit-level
/// array equivalence is pinned in `xpp_array`'s golden suite; this pins
/// the engine layer — captured schedules travelling through the shared
/// `Arc<CompiledConfig>` across gang members included.)
#[test]
fn schedule_capture_does_not_change_outcomes() {
    let n = 32;
    let off = outcomes_without_capture(n);
    for gang in [1usize, 4] {
        let on = outcomes(gang, n);
        assert_eq!(on.len(), off.len());
        for ((id_on, state_on), (id_off, state_off)) in on.iter().zip(off.iter()) {
            assert_eq!(id_on, id_off);
            assert_eq!(
                state_on, state_off,
                "session {id_on} (gang={gang}): schedule replay changed the outcome"
            );
        }
    }
}
