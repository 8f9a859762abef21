//! Engine integration tests: the Fig. 10 reconfiguration served from the
//! configuration cache, pool backpressure, clean shutdown with in-flight
//! jobs, a mixed-standard stress run, and one config reaching the pool
//! whole through either driver.

use std::sync::Arc;

use sdr_engine::metrics::KernelKind;
use sdr_engine::{
    Engine, Frontend, Metrics, ParkedSession, PoolConfig, Session, SessionState, ShardPool,
    Standard, SubmitError,
};

/// End to end on one worker: an OFDM session detects the preamble on
/// configuration 2a, swaps to 2b on the *same* array, and decodes its
/// frame; a second session then repeats the cycle and every configuration
/// comes out of the cache — two builds total, never a rebuild.
#[test]
fn ofdm_reconfiguration_is_served_from_the_cache() {
    let mut engine = Engine::new(PoolConfig {
        shards: 1,
        queue_depth: 8,
        cache_capacity: 8,
        ..PoolConfig::default()
    });
    let summary = engine.run(vec![Session::ofdm(0, 11), Session::ofdm(1, 12)]);

    for s in &summary.completed {
        assert_eq!(*s.state(), SessionState::Done, "session {} failed", s.id());
    }
    let snap = summary.snapshot;
    // Two distinct netlists (2a detector, 2b demodulator) were ever built…
    assert_eq!(
        snap.cache_misses, 2,
        "each configuration built exactly once"
    );
    // …yet both sessions activated both: the second session's activations
    // were cache hits (2a re-loaded from the cached netlist after the
    // first session's swap unloaded it; 2b still resident).
    assert!(
        snap.cache_hits >= 2,
        "second session not served from cache: {snap}"
    );
    assert!(snap.reconfigurations >= 1, "no 2a->2b swap recorded");
    assert!(
        snap.config_bus_cycles > 0,
        "loads must pay serial-bus cycles"
    );
    assert_eq!(snap.kernel_jobs[KernelKind::PreambleDetector.index()], 2);
    assert_eq!(snap.kernel_jobs[KernelKind::Demodulator.index()], 2);
}

/// A full shard queue rejects with `WouldBlock` and hands the session
/// back; the rejection is counted, and the queued sessions still run once
/// the shard resumes.
#[test]
fn full_shard_returns_would_block() {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::new(
        PoolConfig {
            shards: 1,
            queue_depth: 2,
            cache_capacity: 4,
            start_paused: true,
            ..PoolConfig::default()
        },
        Arc::clone(&metrics),
    );

    assert!(pool.submit(Session::wcdma(0, 1)).is_ok());
    assert!(pool.submit(Session::wcdma(1, 2)).is_ok());
    assert_eq!(pool.queue_depth(0), 2);
    match pool.submit(Session::wcdma(2, 3)) {
        Err(SubmitError::WouldBlock(s)) => assert_eq!(s.id(), 2, "same session handed back"),
        other => panic!("expected WouldBlock, got {other:?}"),
    }
    assert_eq!(metrics.snapshot().jobs_rejected, 1);
    assert_eq!(metrics.snapshot().queue_high_water, 2);

    pool.resume(0);
    let a = pool.recv().expect("first queued session steps");
    let b = pool.recv().expect("second queued session steps");
    assert_eq!(metrics.snapshot().jobs_run, 2);
    assert!(
        !a.is_terminal() && !b.is_terminal(),
        "one step each, not run to completion"
    );
}

/// Shutting down with queued jobs is clean: every in-flight session is
/// stepped exactly once by its worker while draining, then returned.
#[test]
fn shutdown_drains_in_flight_jobs() {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::new(
        PoolConfig {
            shards: 2,
            queue_depth: 8,
            cache_capacity: 4,
            start_paused: true,
            ..PoolConfig::default()
        },
        Arc::clone(&metrics),
    );
    for id in 0..6 {
        pool.submit(Session::wcdma(id, 10 + id)).unwrap();
    }

    let leftover = pool.shutdown();
    assert_eq!(leftover.len(), 6, "every in-flight session handed back");
    for s in &leftover {
        assert_eq!(*s.state(), SessionState::Searching, "stepped exactly once");
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.jobs_run, 6);
    assert_eq!(snap.sessions_completed + snap.sessions_failed, 0);
}

/// Stress: 64 mixed sessions over 4 shards all reach `Done`, and the
/// metrics ledger stays consistent with what actually happened.
#[test]
fn stress_64_mixed_sessions_over_4_shards() {
    let mut engine = Engine::new(PoolConfig {
        shards: 4,
        queue_depth: 8, // small queues force re-queue traffic
        cache_capacity: 8,
        ..PoolConfig::default()
    });
    let sessions: Vec<Session> = (0..64)
        .map(|id| {
            if id % 2 == 0 {
                Session::wcdma(id, 1_000 + id)
            } else {
                Session::ofdm(id, 2_000 + id)
            }
        })
        .collect();
    let summary = engine.run(sessions);

    assert_eq!(
        summary.completed.len(),
        64,
        "every session reached a terminal state"
    );
    for s in &summary.completed {
        assert_eq!(
            *s.state(),
            SessionState::Done,
            "session {} ({:?}) failed",
            s.id(),
            s.standard()
        );
    }
    let wcdma = summary
        .completed
        .iter()
        .filter(|s| s.standard() == Standard::Wcdma)
        .count();
    assert_eq!(wcdma, 32);

    let snap = summary.snapshot;
    assert_eq!(snap.sessions_started, 64);
    assert_eq!(snap.sessions_completed, 64);
    assert_eq!(snap.sessions_failed, 0);
    // Every session takes exactly 3 steps (capture, acquire, demodulate).
    assert_eq!(snap.jobs_run, 3 * 64);
    // 4 distinct configurations, built at most once per shard.
    assert!(
        snap.cache_misses <= 16,
        "too many rebuilds: {}",
        snap.cache_misses
    );
    assert!(
        snap.cache_hits > snap.cache_misses,
        "cache mostly hits: {snap}"
    );
    assert!(snap.reconfigurations >= 1);
    assert!(snap.queue_high_water >= 1);
    // Each standard's kernels all ran.
    for kind in KernelKind::ALL {
        assert!(
            snap.kernel_jobs[kind.index()] > 0,
            "{} never ran",
            kind.name()
        );
        assert!(
            snap.kernel_cycles[kind.index()] > 0,
            "{} spent no cycles",
            kind.name()
        );
    }
    assert!(snap.cache_hit_rate() > 0.5);
}

/// More shards than sessions: idle shards must admit trivially instead of
/// panicking the EDF admission check.
#[test]
fn idle_shards_admit_trivially() {
    let mut engine = Engine::new(PoolConfig {
        shards: 8,
        ..PoolConfig::default()
    });
    let summary = engine.run(vec![Session::wcdma(0, 7), Session::ofdm(1, 8)]);
    assert_eq!(summary.done(), 2);
    assert_eq!(summary.admission.len(), 8);
    assert!(summary.admission_feasible());
}

/// The front-end hands its whole config to the pool, so pool-only fields
/// such as `replicate_after_cycles` take effect through `Frontend` too.
/// One OFDM-only load on a 1-shard × 4-array gang (a gang of 2 never
/// replicates: at most `gang − 1` homes). The load is closed-loop, so
/// every follow-up frame meets its kernels warm on a member that has
/// already run them: replicating at the first cycle of imbalance must
/// then spread the hot kernels, never replicating must not.
#[test]
fn frontend_config_reaches_the_pool() {
    let run = |replicate_after_cycles: u64| {
        let mut fe = Frontend::new(PoolConfig {
            shards: 1,
            arrays_per_shard: 4,
            replicate_after_cycles,
            ..PoolConfig::default()
        });
        for id in 0..8u64 {
            fe.admit(ParkedSession::new_ofdm(id, 2_000 + id, id * 200));
        }
        // Each terminal runs three frames, the next admitted when the
        // previous one completes.
        let mut frames = 8;
        let summary = fe.run(&mut |done: &Session, completed_at| {
            (frames < 24).then(|| {
                frames += 1;
                ParkedSession::new_ofdm(done.id(), 3_000 + frames, completed_at)
            })
        });
        assert_eq!(summary.done, 24, "every frame completes");
        summary.snapshot.batch_replications
    };
    assert!(run(0) > 0, "replicate_after_cycles: 0 must replicate");
    assert_eq!(
        run(u64::MAX),
        0,
        "replicate_after_cycles: MAX must never replicate"
    );
}
