//! Ablation benches for the design choices DESIGN.md calls out.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("duplicates", |b| {
        b.iter(|| criterion::black_box(csq_bench::figures::ablate_duplicates()))
    });
    g.bench_function("asymmetry_emulation", |b| {
        b.iter(|| criterion::black_box(csq_bench::figures::ablate_asymmetry_emulation()))
    });
    g.bench_function("cost_model_validation", |b| {
        b.iter(|| criterion::black_box(csq_bench::figures::cost_validation()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
