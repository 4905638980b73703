//! Query & serving benches: plan cost and serving throughput.
//!
//! `query/probe_vs_scan/{4000,12000}` — the same selective predicate
//! (one GENRE value, 1/40 of the rows) executed two ways over one
//! snapshot: the planner's hash-probe and a forced row-parallel full
//! scan. The probe touches only the posting list, so its cell should be
//! roughly flat across corpus sizes while the scan grows linearly — that
//! separation is the reason the index layer exists. Both produce
//! byte-identical results (pinned in `tests/query_oracle.rs`); these
//! cells price the equivalence.
//!
//! `query/qps/{1,4,8}` — loopback HTTP round-trips per second with 1, 4,
//! and 8 concurrent client threads, while a background ingest thread
//! keeps republishing fresh snapshots under the server the whole time
//! (the serving contract: readers never block on ingest, they just see
//! whole snapshots). Throughput counts completed request/response pairs,
//! one TCP connection each, as the front end serves them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datatamer_core::fusion::FusedEntity;
use datatamer_model::{Record, RecordId, SourceId, Value};
use datatamer_query::http::{QueryServer, ServerConfig, SharedViews};
use datatamer_query::view::IndexSpec;
use datatamer_query::{Aggregate, CollectionSnapshot, Predicate, Query, ScanMode};

/// Synthetic fused entities with a 40-way categorical attribute (probe
/// target), a numeric attribute, and a short text attribute.
fn entities(n: usize) -> Vec<FusedEntity> {
    (0..n)
        .map(|i| FusedEntity {
            key: format!("k{i:06}"),
            record: Record::from_pairs(
                SourceId(0),
                RecordId(i as u64),
                vec![
                    ("GENRE", Value::from(format!("g{}", i % 40))),
                    ("PRICE", Value::Int((i % 97) as i64)),
                    ("NAME", Value::from(format!("show number {i}"))),
                ],
            ),
            member_count: 1 + i % 3,
            confidence: Some(((i % 10) as f64) / 10.0),
        })
        .collect()
}

fn spec() -> IndexSpec {
    IndexSpec::default().hash_on("GENRE").ordered_on("PRICE")
}

fn bench_probe_vs_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("query/probe_vs_scan");
    group.sample_size(10);
    let q = Query::filtered(Predicate::Eq("GENRE".into(), Value::from("g17")))
        .aggregate(Aggregate::Count);
    for &n in &[4000usize, 12000] {
        let snap = CollectionSnapshot::from_entities(entities(n), spec());
        group.throughput(Throughput::Elements(n as u64));
        for (label, mode) in [("probe", ScanMode::Auto), ("full_scan", ScanMode::FullScan)] {
            group.bench_with_input(BenchmarkId::new(label, n), &snap, |b, snap| {
                b.iter(|| black_box(snap.execute_as(&q, mode).result))
            });
        }
    }
    group.finish();
}

/// One blocking GET; the server closes the connection after responding.
fn http_get(addr: SocketAddr, path: &str) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("recv");
    assert!(raw.starts_with(b"HTTP/1.1 200"), "bad response");
    raw.len()
}

fn bench_qps_under_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("query/qps");
    group.sample_size(10);

    let views = SharedViews::new();
    let snap_a = CollectionSnapshot::from_entities(entities(4000), spec());
    let snap_b = CollectionSnapshot::from_entities(entities(4100), spec());
    views.publish("bench", snap_a.clone());
    let server = QueryServer::bind("127.0.0.1:0", views.clone(), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.addr();

    // Background ingest: keep swapping full snapshots under the server
    // for the whole benchmark, so every QPS cell measures serving
    // concurrent with publication, not a quiescent registry.
    let stop = Arc::new(AtomicBool::new(false));
    let ingest = {
        let stop = Arc::clone(&stop);
        let views = views.clone();
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(Ordering::SeqCst) {
                views.publish("bench", if flip { snap_b.clone() } else { snap_a.clone() });
                flip = !flip;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    const REQS_PER_CLIENT: usize = 25;
    let path = "/collections/bench/query?where=GENRE=g17&agg=count";
    for &clients in &[1usize, 4, 8] {
        group.throughput(Throughput::Elements((clients * REQS_PER_CLIENT) as u64));
        group.bench_with_input(BenchmarkId::new("clients", clients), &clients, |b, &clients| {
            b.iter(|| {
                let workers: Vec<_> = (0..clients)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let mut bytes = 0usize;
                            for _ in 0..REQS_PER_CLIENT {
                                bytes += http_get(addr, path);
                            }
                            bytes
                        })
                    })
                    .collect();
                let total: usize =
                    workers.into_iter().map(|w| w.join().expect("client")).sum();
                black_box(total)
            })
        });
    }
    group.finish();

    stop.store(true, Ordering::SeqCst);
    ingest.join().expect("ingest thread");
    server.stop();
}

criterion_group!(benches, bench_probe_vs_scan, bench_qps_under_ingest);
criterion_main!(benches);
