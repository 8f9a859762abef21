//! Engine throughput benches: whole terminal sessions per second through
//! the sharded worker pool, and the cost of a cached configuration
//! activation versus a cold build.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_engine::{Engine, Metrics, PoolConfig, Session, WorkerArray};
use std::sync::Arc;

/// A mixed batch (half W-CDMA, half OFDM) run to completion.
fn mixed_batch(n: u64) -> Vec<Session> {
    (0..n)
        .map(|id| {
            if id % 2 == 0 {
                Session::wcdma(id, 100 + id)
            } else {
                Session::ofdm(id, 200 + id)
            }
        })
        .collect()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_throughput");
    for (sessions, shards) in [(8u64, 2usize), (16, 4)] {
        g.bench_function(format!("{sessions}sessions_{shards}shards"), |b| {
            b.iter_batched(
                || {
                    (
                        Engine::new(PoolConfig {
                            shards,
                            ..PoolConfig::default()
                        }),
                        mixed_batch(sessions),
                    )
                },
                |(mut engine, batch)| {
                    let summary = engine.run(batch);
                    assert_eq!(summary.failed(), 0);
                    summary
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_activation_cache(c: &mut Criterion) {
    use sdr_wcdma::xpp_map::WcdmaKernel;
    let mut g = c.benchmark_group("engine_activation");
    g.bench_function("cold_build", |b| {
        b.iter_batched(
            || WorkerArray::new(8, Arc::new(Metrics::new())),
            |mut w| w.activate(WcdmaKernel::Descrambler).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("cached_reload", |b| {
        b.iter_batched(
            || {
                let mut w = WorkerArray::new(8, Arc::new(Metrics::new()));
                w.activate(WcdmaKernel::Descrambler).unwrap();
                w.deactivate(WcdmaKernel::Descrambler).unwrap();
                w
            },
            |mut w| w.activate(WcdmaKernel::Descrambler).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("resident_hit", |b| {
        let mut w = WorkerArray::new(8, Arc::new(Metrics::new()));
        w.activate(WcdmaKernel::Descrambler).unwrap();
        b.iter(|| w.activate(WcdmaKernel::Descrambler).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = engine_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_throughput, bench_activation_cache
}
criterion_main!(engine_benches);
