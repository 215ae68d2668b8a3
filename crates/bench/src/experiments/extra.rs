//! Extra experiments exercising paper parameters the figure suite does
//! not: the 100-byte value size of Sec. 7.1, and FASTER's
//! larger-than-memory regime (working set exceeding the in-memory log,
//! driving the asynchronous I/O pending path under load).

use std::time::Instant;

use cpr_faster::{FasterBuilder, HlogConfig, VersionGrain};
use cpr_workload::keys::KeyDist;
use cpr_workload::ycsb::{OpKind, YcsbConfig, YcsbGenerator};

use crate::args::Args;
use crate::report::Report;

pub fn extra(args: &Args) {
    value_size_sweep(args);
    larger_than_memory(args);
}

/// 8-byte vs ~100-byte values (paper Sec. 7.1 uses both): wide values
/// cost more per op (more words moved) and grow the log faster.
fn value_size_sweep(args: &Args) {
    let keys = args.u64("keys", 100_000);
    let seconds = args.f64("seconds", 2.0);
    let mut r = Report::new(
        "Extra: value size 8B vs 104B, 50:50 YCSB, zipf",
        &["value_bytes", "Mops", "log_MB_end"],
    );
    // 8-byte values.
    {
        let (mops, log_mb) = run_fixed::<u64>(keys, seconds, 8, |old, d| old.wrapping_add(d));
        r.row(vec![
            "8".into(),
            format!("{mops:.3}"),
            format!("{log_mb:.2}"),
        ]);
    }
    // 104-byte values (13 words — the paper's "100 byte" point).
    {
        let (mops, log_mb) = run_fixed::<[u64; 13]>(keys, seconds, 104, |mut old, d| {
            old[0] = old[0].wrapping_add(d[0]);
            old
        });
        r.row(vec![
            "104".into(),
            format!("{mops:.3}"),
            format!("{log_mb:.2}"),
        ]);
    }
    r.print();
}

fn run_fixed<V: cpr_core::Pod + From8>(
    keys: u64,
    seconds: f64,
    value_size: usize,
    rmw: fn(V, V) -> V,
) -> (f64, f64) {
    let dir = tempfile::tempdir().unwrap();
    let kv = FasterBuilder::<V>::new(dir.path())
        .index_buckets(1 << 14)
        .hlog(HlogConfig {
            page_bits: 16,
            memory_pages: 1024,
            mutable_pages: 920,
            value_size,
        })
        .refresh_every(64)
        .grain(VersionGrain::Fine)
        .max_sessions(8)
        .rmw(rmw)
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    for k in 0..keys {
        s.upsert(k, V::from8(k));
    }
    let mut gen = YcsbGenerator::new(
        YcsbConfig::read_update(keys, KeyDist::Zipfian { theta: 0.99 }, 50),
        7,
    );
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        for _ in 0..1024 {
            let op = gen.next_op();
            match op.kind {
                OpKind::Read => {
                    let _ = s.read(op.key);
                }
                _ => {
                    let _ = s.upsert(op.key, V::from8(op.arg));
                }
            }
            ops += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    (ops as f64 / elapsed / 1e6, kv.log_tail() as f64 / 1e6)
}

/// Build a value from a u64 seed (bench-local helper trait).
trait From8: Sized {
    fn from8(x: u64) -> Self;
}
impl From8 for u64 {
    fn from8(x: u64) -> Self {
        x
    }
}
impl From8 for [u64; 13] {
    fn from8(x: u64) -> Self {
        [x; 13]
    }
}

/// Larger-than-memory: shrink the in-memory log below the working set
/// and watch throughput degrade as reads go to the device via the
/// asynchronous pending path — FASTER's defining capability (paper
/// Secs. 1, 5).
fn larger_than_memory(args: &Args) {
    let keys = args.u64("keys", 200_000);
    let seconds = args.f64("seconds", 2.0);
    // Working set: keys × 24 B records ≈ 4.8 MB at the default key count.
    let mut r = Report::new(
        "Extra: larger-than-memory (uniform 90:10 reads)",
        &[
            "memory_MB",
            "workingset_MB",
            "Mops",
            "pending_ops",
            "pending_%",
        ],
    );
    for memory_pages in [512usize, 128, 64, 32] {
        let dir = tempfile::tempdir().unwrap();
        let opts = FasterBuilder::u64_sums(dir.path())
            .hlog(HlogConfig {
                page_bits: 14, // 16 KiB pages
                memory_pages,
                mutable_pages: memory_pages / 2,
                value_size: 8,
            })
            .index_buckets(1 << 14)
            .refresh_every(32);
        let kv = opts.open().unwrap();
        let mut s = kv.start_session(1);
        for k in 0..keys {
            s.upsert(k, k);
        }
        // Drain the preload's own pendings before timing.
        for _ in 0..10_000 {
            if s.pending_len() == 0 {
                break;
            }
            s.refresh();
        }
        let mut gen = YcsbGenerator::new(YcsbConfig::read_update(keys, KeyDist::Uniform, 90), 11);
        let started = Instant::now();
        let mut ops = 0u64;
        let mut completions = Vec::new();
        while started.elapsed().as_secs_f64() < seconds {
            for _ in 0..256 {
                let op = gen.next_op();
                match op.kind {
                    OpKind::Read => {
                        let _ = s.read(op.key);
                    }
                    _ => {
                        let _ = s.upsert(op.key, op.arg);
                    }
                }
                ops += 1;
            }
            s.drain_completions(&mut completions);
            completions.clear();
        }
        let elapsed = started.elapsed().as_secs_f64();
        let pend = s.stats.went_pending;
        r.row(vec![
            format!("{:.1}", (memory_pages as u64 * (1 << 14)) as f64 / 1e6),
            format!("{:.1}", (keys * 24) as f64 / 1e6),
            format!("{:.3}", ops as f64 / elapsed / 1e6),
            pend.to_string(),
            format!("{:.2}", pend as f64 / ops as f64 * 100.0),
        ]);
    }
    r.print();
}
