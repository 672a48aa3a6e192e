//! End-to-end classification-event benchmarks: the Laelaps encoder across
//! electrode counts (the paper's "almost constant in electrodes" claim,
//! Table II), the deployed 12-electrode shape at both dimensions, LBP
//! length ℓ sweep, and tie-policy ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use laelaps_core::hv::TiePolicy;
use laelaps_core::{Encoder, LaelapsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn signal(electrodes: usize, samples: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..electrodes)
        .map(|_| (0..samples).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// One 0.5 s classification event's worth of encoding (256 new samples).
fn bench_event_vs_electrodes(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_event_by_electrodes");
    group.sample_size(10);
    for &electrodes in &[24usize, 64, 128] {
        let config = LaelapsConfig::builder()
            .dim(laelaps_core::DEPLOY_DIM)
            .seed(1)
            .build()
            .unwrap();
        let sig = signal(electrodes, 512 * 3, electrodes as u64);
        group.throughput(Throughput::Elements(256));
        group.bench_with_input(
            BenchmarkId::from_parameter(electrodes),
            &electrodes,
            |bench, _| {
                bench.iter(|| {
                    let mut enc = Encoder::new(&config, electrodes).unwrap();
                    black_box(enc.encode_signal(black_box(&sig)).unwrap().len())
                });
            },
        );
    }
    group.finish();
}

/// The deployed shape: 12 electrodes, as in every benchmark workload, at
/// the deploy and golden dimensions.
fn bench_event_deploy_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_event_12_electrodes");
    group.sample_size(10);
    for &dim in &[laelaps_core::DEPLOY_DIM, laelaps_core::GOLDEN_DIM] {
        let config = LaelapsConfig::builder().dim(dim).seed(8).build().unwrap();
        let sig = signal(12, 512 * 3, 9);
        group.throughput(Throughput::Elements(256));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut enc = Encoder::new(&config, 12).unwrap();
                black_box(enc.encode_signal(black_box(&sig)).unwrap().len())
            });
        });
    }
    group.finish();
}

fn bench_dim_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_event_by_dim");
    group.sample_size(10);
    for &dim in &[500usize, 1_000, 4_000, 10_000] {
        let config = LaelapsConfig::builder().dim(dim).seed(2).build().unwrap();
        let sig = signal(32, 512 * 2, 3);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut enc = Encoder::new(&config, 32).unwrap();
                black_box(enc.encode_signal(black_box(&sig)).unwrap().len())
            });
        });
    }
    group.finish();
}

fn bench_lbp_len_sweep(c: &mut Criterion) {
    // Paper §III-A: ℓ ∈ [4, 8] behaves similarly; ℓ = 6 is the default.
    let mut group = c.benchmark_group("encode_event_by_lbp_len");
    group.sample_size(10);
    for &len in &[4usize, 6, 8] {
        let config = LaelapsConfig::builder()
            .dim(1_000)
            .lbp_len(len)
            .seed(4)
            .build()
            .unwrap();
        let sig = signal(32, 512 * 2, 5);
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |bench, _| {
            bench.iter(|| {
                let mut enc = Encoder::new(&config, 32).unwrap();
                black_box(enc.encode_signal(black_box(&sig)).unwrap().len())
            });
        });
    }
    group.finish();
}

fn bench_tie_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("tie_policy_ablation");
    group.sample_size(10);
    for (name, policy) in [
        ("zero_on_tie", TiePolicy::ZeroOnTie),
        ("tie_break_vector", TiePolicy::TieBreakVector),
    ] {
        let config = LaelapsConfig::builder()
            .dim(2_000)
            .tie_policy(policy)
            .seed(6)
            .build()
            .unwrap();
        let sig = signal(32, 512 * 2, 7);
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut enc = Encoder::new(&config, 32).unwrap();
                black_box(enc.encode_signal(black_box(&sig)).unwrap().len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_vs_electrodes,
    bench_event_deploy_shape,
    bench_dim_sweep,
    bench_lbp_len_sweep,
    bench_tie_policy
);
criterion_main!(benches);
