//! Criterion micro-benchmarks for the hot structures underlying the
//! paper's numbers: epoch refresh, trigger-action bump/drain, hash-index
//! probes, HybridLog allocation and in-place updates, 2PL lock
//! acquisition, WAL reservation + copy, CALC commit-log appends, and the
//! Zipfian sampler. These are the ablation knobs called out in DESIGN.md.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cpr_core::NoWaitLock;
use cpr_epoch::EpochManager;
use cpr_faster::index::{key_hash, HashIndex};
use cpr_faster::{FasterBuilder, FasterKv, HlogConfig};
use cpr_memdb::{Access, CommitLog, Durability, MemDb, TxnRequest, Wal};
use cpr_workload::keys::{KeyDist, Sampler};

fn bench_epoch(c: &mut Criterion) {
    let mgr = Arc::new(EpochManager::new(8));
    let guard = mgr.register();
    c.bench_function("epoch/refresh", |b| b.iter(|| guard.refresh()));
    c.bench_function("epoch/bump_and_drain", |b| {
        b.iter(|| {
            guard.bump_epoch(|| {});
            guard.refresh();
        })
    });
}

fn bench_latch(c: &mut Criterion) {
    let l = NoWaitLock::new();
    c.bench_function("latch/shared_acquire_release", |b| {
        b.iter(|| {
            assert!(l.try_shared());
            l.release_shared();
        })
    });
    c.bench_function("latch/exclusive_acquire_release", |b| {
        b.iter(|| {
            assert!(l.try_exclusive());
            l.release_exclusive();
        })
    });
}

fn bench_index(c: &mut Criterion) {
    let idx = HashIndex::new(1 << 14);
    for k in 0..100_000u64 {
        let slot = idx.find_or_create(key_hash(k));
        loop {
            let cur = slot.address();
            if slot.try_update(cur, 24 * (k + 1)) {
                break;
            }
        }
    }
    let mut k = 0u64;
    c.bench_function("index/find_hit", |b| {
        b.iter(|| {
            k = (k + 1) % 100_000;
            black_box(idx.find(key_hash(k)).map(|s| s.address()))
        })
    });
}

fn bench_zipfian(c: &mut Criterion) {
    let mut zipf = Sampler::new(KeyDist::Zipfian { theta: 0.99 }, 1 << 20, 7);
    let mut uni = Sampler::new(KeyDist::Uniform, 1 << 20, 7);
    c.bench_function("workload/zipfian_draw", |b| {
        b.iter(|| black_box(zipf.next_key()))
    });
    c.bench_function("workload/uniform_draw", |b| {
        b.iter(|| black_box(uni.next_key()))
    });
}

fn bench_commit_log(c: &mut Criterion) {
    let log = CommitLog::new(1 << 20);
    c.bench_function("calc/commit_log_append", |b| {
        b.iter(|| black_box(log.append(42)))
    });
}

fn bench_wal(c: &mut Criterion) {
    let dir = tempfile::tempdir().unwrap();
    let wal = Wal::create(
        dir.path().join("wal.log"),
        1 << 24,
        std::time::Duration::from_millis(5),
    )
    .unwrap();
    let payload = [0u8; 24]; // 1-key redo record
    c.bench_function("wal/append_24B", |b| {
        b.iter(|| black_box(wal.append(&payload)))
    });
}

fn bench_memdb_txn(c: &mut Criterion) {
    let dir = tempfile::tempdir().unwrap();
    let db: MemDb<u64> = MemDb::builder(Durability::Cpr)
        .dir(dir.path())
        .capacity(1 << 16)
        .open()
        .unwrap();
    for k in 0..10_000u64 {
        db.load(k, k);
    }
    let mut s = db.session(0);
    let mut reads = Vec::new();
    let mut k = 0u64;
    c.bench_function("memdb/1key_write_txn", |b| {
        b.iter(|| {
            k = (k + 1) % 10_000;
            let accesses = [(k, Access::Write)];
            let seeds = [k];
            let req = TxnRequest {
                accesses: &accesses,
                write_seeds: &seeds,
            };
            while s.execute(&req, &mut reads).is_err() {}
        })
    });
}

fn bench_faster_ops(c: &mut Criterion) {
    let dir = tempfile::tempdir().unwrap();
    let kv: FasterKv<u64> = FasterBuilder::u64_sums(dir.path())
        .hlog(HlogConfig {
            page_bits: 16,
            memory_pages: 256,
            mutable_pages: 230,
            value_size: 8,
        })
        .index_buckets(1 << 13)
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    for k in 0..50_000u64 {
        s.upsert(k, k);
    }
    let mut k = 0u64;
    c.bench_function("faster/upsert_hot", |b| {
        b.iter(|| {
            k = (k + 1) % 50_000;
            black_box(s.upsert(k, k))
        })
    });
    c.bench_function("faster/read_hot", |b| {
        b.iter(|| {
            k = (k + 1) % 50_000;
            black_box(s.read(k))
        })
    });
    c.bench_function("faster/rmw_hot", |b| {
        b.iter(|| {
            k = (k + 1) % 50_000;
            black_box(s.rmw(k, 1))
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_epoch, bench_latch, bench_index, bench_zipfian,
        bench_commit_log, bench_wal, bench_memdb_txn, bench_faster_ops
}
criterion_main!(micro);
