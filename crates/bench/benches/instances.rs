//! End-to-end instance benchmarks: the Fig. 6 default flow under each
//! mobility mode plus the HELLO-dense arena, each timed before and after
//! the hot-path optimizations (binary-heap queue / no cache vs calendar
//! queue / decision cache).
//!
//! Allocation counts are gated by `tests/allocs.rs`; same-host A/B timing
//! of whole jobs lives in the repository's `benchmark/` harness.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use imobif::MobilityMode;
use imobif_bench::instances::{build_fig6, build_hello_dense, Variant};
use imobif_netsim::SimTime;

fn bench_fig6_modes(c: &mut Criterion) {
    let modes = [
        ("no_mobility", MobilityMode::NoMobility),
        ("cost_unaware", MobilityMode::CostUnaware),
        ("informed", MobilityMode::Informed),
    ];
    for (name, mode) in modes {
        let mut group = c.benchmark_group(format!("fig6_{name}"));
        for variant in [Variant::before(), Variant::after()] {
            group.bench_function(variant.label(), |b| {
                b.iter(|| {
                    let mut run = build_fig6(mode, variant, 0);
                    run.run_to_completion();
                    black_box(run.world.events_processed())
                })
            });
        }
        group.finish();
    }
}

fn bench_hello_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("hello_dense_100_nodes_60s");
    for variant in [Variant::before(), Variant::after()] {
        group.bench_function(variant.label(), |b| {
            b.iter(|| {
                let mut w = build_hello_dense(variant);
                w.run_until(SimTime::from_micros(60_000_000));
                black_box(w.events_processed())
            })
        });
    }
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group! {
    name = instances;
    config = configure();
    targets = bench_fig6_modes, bench_hello_dense
}
criterion_main!(instances);
