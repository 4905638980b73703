//! Storage-engine benches — the substrate behind Tables I and II.
//!
//! Measures insert throughput into sharded extents, point reads via packed
//! doc-ids, the group-by powering Table III (index read path vs scan), and
//! the parallel shard scan. Filtered queries run on the typed AST over
//! fused entities and are priced in `benches/query.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use datatamer_model::{doc, Value};
use datatamer_storage::{Collection, CollectionConfig, IndexSpec};

fn sample_doc(i: i64) -> datatamer_model::Document {
    doc! {
        "type" => ["Person", "Company", "Movie", "City"][(i % 4) as usize],
        "name" => format!("Entity number {i}"),
        "canonical" => format!("entity number {i}"),
        "confidence" => 0.5 + (i % 50) as f64 / 100.0,
        "chars" => i % 240
    }
}

fn seeded_collection(n: i64, indexed: bool) -> Collection {
    let c = Collection::new(
        "bench",
        CollectionConfig { extent_size: 2 * 1024 * 1024, shards: 8, ..Default::default() },
    )
    .unwrap();
    if indexed {
        c.create_index(IndexSpec::new("by_type", "type")).unwrap();
    }
    for i in 0..n {
        c.insert(&sample_doc(i)).unwrap();
    }
    c
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_insert");
    for &n in &[1_000i64, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("no_index", n), &n, |b, &n| {
            b.iter(|| {
                let c = seeded_collection(n, false);
                black_box(c.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("one_index", n), &n, |b, &n| {
            b.iter(|| {
                let c = seeded_collection(n, true);
                black_box(c.len())
            });
        });
    }
    group.finish();
}

fn bench_point_read(c: &mut Criterion) {
    let col = seeded_collection(10_000, false);
    let ids: Vec<_> = {
        let mut v = Vec::new();
        col.for_each(|id, _| v.push(id)).unwrap();
        v
    };
    c.bench_function("storage_point_read", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % ids.len();
            black_box(col.get(ids[i]))
        });
    });
}

fn bench_count_by(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_count_by_type");
    let scan_col = seeded_collection(20_000, false);
    let idx_col = seeded_collection(20_000, true);
    group.bench_function("scan", |b| b.iter(|| black_box(scan_col.count_by("type"))));
    group.bench_function("indexed", |b| b.iter(|| black_box(idx_col.count_by("type"))));
    group.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let col = seeded_collection(20_000, false);
    c.bench_function("storage_parallel_scan_20k", |b| {
        b.iter(|| {
            black_box(col.parallel_scan(|_, d| d.get("chars").and_then(Value::as_int)))
                .unwrap()
                .len()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_insert, bench_point_read, bench_count_by, bench_parallel_scan
);
criterion_main!(benches);
