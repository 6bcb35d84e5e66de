//! Benchmarks of the k-means family: plain Lloyd, PCKMeans and MPCKMeans on
//! the ALOI-like fixture (125 × 144, 5 classes), including MPCKMeans fits on
//! a prebuilt seeding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cvcp_bench::{aloi_dataset, pool_for, rng};
use cvcp_kmeans::{KMeans, MpckMeans, MpckSeeding, PckMeans};

fn bench_kmeans_family(c: &mut Criterion) {
    let ds = aloi_dataset();
    let pool = pool_for(&ds);

    let mut group = c.benchmark_group("kmeans/aloi_125x144");
    group.sample_size(20);
    group.bench_function("lloyd_k5", |b| {
        b.iter(|| KMeans::new(5).with_n_init(1).fit(ds.matrix(), &mut rng()))
    });
    group.bench_function("pck_k5", |b| {
        b.iter(|| PckMeans::new(5).fit(ds.matrix(), &pool, &mut rng()))
    });
    group.bench_function("mpck_k5", |b| {
        b.iter(|| MpckMeans::new(5).fit(ds.matrix(), &pool, &mut rng()))
    });
    group.finish();

    let mut sweep = c.benchmark_group("kmeans/mpck_k_sweep");
    sweep.sample_size(15);
    for k in [2usize, 5, 10] {
        sweep.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| MpckMeans::new(k).fit(ds.matrix(), &pool, &mut rng()))
        });
    }
    sweep.finish();

    // The fit alone: the seeding (closure and neighbourhood candidates) is
    // built once outside the timed loop, as the engine's cache shares it
    // across every k of a selection.
    let seeding = MpckSeeding::compute(ds.matrix(), &pool, true);
    let mut seeded = c.benchmark_group("kmeans/mpck_fit_seeded_sweep");
    seeded.sample_size(15);
    for k in [2usize, 5, 10] {
        seeded.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| MpckMeans::new(k).fit_seeded(ds.matrix(), &seeding, &mut rng()))
        });
    }
    seeded.finish();
}

criterion_group!(benches, bench_kmeans_family);
criterion_main!(benches);
