//! Criterion bench: the alignment kernel (the live runtime's "BLAST") and
//! the calibrated compute-model conversions behind Table II.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oddci_receiver::compute::{ComputeModel, DeviceClass, UsageMode};
use oddci_types::SimDuration;
use oddci_workload::alignment::{random_sequence, smith_waterman, BlastSearch, Scoring};
use std::hint::black_box;
use std::sync::Arc;

fn smith_waterman_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("alignment/smith_waterman");
    for &(qa, qb) in &[(64usize, 256usize), (128, 1024), (256, 4096)] {
        let a = random_sequence(qa, 1);
        let b_seq = random_sequence(qb, 2);
        g.throughput(Throughput::Elements((qa * qb) as u64)); // DP cells
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{qa}x{qb}")),
            &(a, b_seq),
            |bch, (a, b_seq)| {
                bch.iter(|| black_box(smith_waterman(a, b_seq, Scoring::default())));
            },
        );
    }
    g.finish();
}

fn blast_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("alignment/seed_and_extend");
    for &db_len in &[50_000usize, 200_000] {
        let db = random_sequence(db_len, 3);
        let idx =
            BlastSearch::index(db, 11, Scoring::default()).expect("11 is a valid word length");
        let query = random_sequence(200, 4);
        g.throughput(Throughput::Bytes(db_len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(db_len), &idx, |b, idx| {
            b.iter(|| black_box(idx.search(&query, 64, 14)));
        });
    }
    g.finish();
}

fn index_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("alignment/index_build");
    for &db_len in &[50_000usize, 200_000] {
        let db = Arc::new(random_sequence(db_len, 5));
        g.throughput(Throughput::Bytes(db_len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(db_len), &db, |b, db| {
            b.iter(|| black_box(BlastSearch::index(Arc::clone(db), 11, Scoring::default())));
        });
    }
    g.finish();
}

fn compute_model_conversion(c: &mut Criterion) {
    let model = ComputeModel::paper();
    c.bench_function("compute_model/convert", |b| {
        let t = SimDuration::from_secs(42);
        b.iter(|| {
            black_box(model.convert(
                t,
                (DeviceClass::ReferencePc, UsageMode::InUse),
                (DeviceClass::SetTopBox, UsageMode::Standby),
            ))
        });
    });
}

criterion_group!(
    benches,
    smith_waterman_cells,
    blast_search,
    index_build,
    compute_model_conversion
);
criterion_main!(benches);
