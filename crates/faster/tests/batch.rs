//! `FasterSession::apply_batch` against the same ops issued one at a time.
//!
//! Both runs use a log small enough that many records live only on disk,
//! so reads and updates go pending, and both request a fold-over commit
//! at the same point of the stream and keep operating through it.
//! Pending ops are driven home at every batch boundary in both runs, and
//! no batch touches a key twice, so a pending op's result cannot depend
//! on when its I/O finished. Each op's resolved result (its immediate
//! result, or its completion's), the serials and the final scan must then
//! agree with each other and with a model, and every op that went
//! pending must complete once, under its own serial, kind and key. Which
//! ops go pending depends on when the commit's phases land, so that set
//! is not compared across runs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cpr_faster::{
    BatchOp, BatchResult, CheckpointVariant, Completion, FasterBuilder, FasterKv, FasterSession,
    HlogConfig, OpKind, ReadResult, Status,
};

const KEYS: u64 = 3_000;
const DEADLINE: Duration = Duration::from_secs(20);

fn open(dir: &std::path::Path) -> FasterKv<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 8,
            mutable_pages: 4,
            value_size: 8,
        })
        .refresh_every(16)
        .open()
        .unwrap()
}

/// Batches of random ops, no key twice within a batch.
fn gen_batches(seed: u64, n: usize) -> Vec<Vec<BatchOp<u64>>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = if rng.gen_range(0..4) == 0 {
                256
            } else {
                rng.gen_range(1..64)
            };
            let mut keys = std::collections::HashSet::new();
            (0..len)
                .map(|_| {
                    let key = loop {
                        let k = rng.gen_range(0..KEYS);
                        if keys.insert(k) {
                            break k;
                        }
                    };
                    match rng.gen_range(0..10) {
                        0..=3 => BatchOp::Read(key),
                        4..=5 => BatchOp::Upsert(key, rng.gen_range(0..1_000_000)),
                        6..=8 => BatchOp::Rmw(key, rng.gen_range(1..100)),
                        _ => BatchOp::Delete(key),
                    }
                })
                .collect()
        })
        .collect()
}

/// Per op, once resolved: `Found`/`NotFound` for a read, `Done` for an
/// update.
type Resolved = Vec<BatchResult<u64>>;

/// What a run observed.
#[derive(Debug, PartialEq)]
struct Run {
    resolved: Resolved,
    /// Session serial after each batch.
    serials: Vec<u64>,
    scan: Vec<(u64, u64)>,
}

fn drive_home(s: &mut FasterSession<u64>, out: &mut Vec<Completion<u64>>) {
    let deadline = Instant::now() + DEADLINE;
    while s.pending_len() > 0 {
        assert!(Instant::now() < deadline, "pending ops never completed");
        s.refresh();
        std::thread::yield_now();
    }
    s.drain_completions(out);
}

/// Run every batch either through `apply_batch` or op by op, requesting
/// a fold-over before batch `commit_at`.
fn run(seed: u64, batches: &[Vec<BatchOp<u64>>], commit_at: usize, batched: bool) -> (Run, u64) {
    let dir = tempfile::tempdir().unwrap();
    let kv = open(dir.path());
    let mut s = kv.start_session(1);
    let mut resolved = Vec::new();
    let mut serials = Vec::new();
    let mut results = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        if b == commit_at {
            assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        }
        let first = s.serial() + 1;
        results.clear();
        if batched {
            s.apply_batch(batch, &mut results);
        } else {
            results.extend(batch.iter().map(|op| match *op {
                BatchOp::Read(k) => match s.read(k) {
                    ReadResult::Found(v) => BatchResult::Found(v),
                    ReadResult::NotFound => BatchResult::NotFound,
                    ReadResult::Pending => BatchResult::Pending,
                    ReadResult::Evicted => BatchResult::Evicted,
                },
                BatchOp::Upsert(k, v) => status(s.upsert(k, v)),
                BatchOp::Rmw(k, v) => status(s.rmw(k, v)),
                BatchOp::Delete(k) => status(s.delete(k)),
            }));
        }
        assert_eq!(results.len(), batch.len());
        let mut done = Vec::new();
        drive_home(&mut s, &mut done);
        let done: HashMap<u64, Completion<u64>> = done.into_iter().map(|c| (c.serial, c)).collect();
        for (i, (op, r)) in batch.iter().zip(&results).enumerate() {
            let serial = first + i as u64;
            resolved.push(match *r {
                BatchResult::Pending => {
                    let c = done.get(&serial).unwrap_or_else(|| {
                        panic!("seed {seed}: no completion for serial {serial}")
                    });
                    assert_eq!((c.kind, c.key), (kind(op), op.key()), "seed {seed}");
                    match (c.kind, c.value) {
                        (OpKind::Read, Some(v)) => BatchResult::Found(v),
                        (OpKind::Read, None) => BatchResult::NotFound,
                        _ => BatchResult::Done,
                    }
                }
                BatchResult::Evicted => panic!("seed {seed}: no watchdog, no eviction"),
                r => r,
            });
        }
        assert_eq!(
            done.len(),
            results
                .iter()
                .filter(|r| **r == BatchResult::Pending)
                .count()
        );
        serials.push(s.serial());
    }
    let deadline = Instant::now() + DEADLINE;
    while kv.committed_version() < 1 {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: fold-over never committed"
        );
        s.refresh();
        std::thread::yield_now();
    }
    let pending = s.stats.went_pending;
    drop(s);
    let scan = kv.scan_all().unwrap();
    let run = Run {
        resolved,
        serials,
        scan,
    };
    (run, pending)
}

fn kind(op: &BatchOp<u64>) -> OpKind {
    match op {
        BatchOp::Read(_) => OpKind::Read,
        BatchOp::Upsert(..) => OpKind::Upsert,
        BatchOp::Rmw(..) => OpKind::Rmw,
        BatchOp::Delete(_) => OpKind::Delete,
    }
}

fn status(s: Status) -> BatchResult<u64> {
    match s {
        Status::Ok => BatchResult::Done,
        Status::Pending => BatchResult::Pending,
        _ => BatchResult::Evicted,
    }
}

/// Sequential replay: the resolved result of every op and the final
/// state.
fn model(batches: &[Vec<BatchOp<u64>>]) -> (Resolved, Vec<(u64, u64)>) {
    let mut m: HashMap<u64, u64> = HashMap::new();
    let mut resolved = Vec::new();
    for op in batches.iter().flatten() {
        resolved.push(match *op {
            BatchOp::Read(k) => m
                .get(&k)
                .map_or(BatchResult::NotFound, |&v| BatchResult::Found(v)),
            BatchOp::Upsert(k, v) => {
                m.insert(k, v);
                BatchResult::Done
            }
            BatchOp::Rmw(k, d) => {
                let v = m.get(&k).map_or(d, |v| v.wrapping_add(d));
                m.insert(k, v);
                BatchResult::Done
            }
            BatchOp::Delete(k) => {
                m.remove(&k);
                BatchResult::Done
            }
        });
    }
    let mut state: Vec<(u64, u64)> = m.into_iter().collect();
    state.sort_unstable();
    (resolved, state)
}

#[test]
fn apply_batch_matches_single_ops() {
    for seed in [1u64, 2, 3] {
        let batches = gen_batches(seed, 120);
        let commit_at = batches.len() / 2;
        let (single, pending_single) = run(seed, &batches, commit_at, false);
        let (batched, pending_batched) = run(seed, &batches, commit_at, true);
        let (resolved, state) = model(&batches);
        assert!(
            pending_single > 0 && pending_batched > 0,
            "seed {seed}: no op went pending"
        );
        assert_eq!(
            single.resolved, resolved,
            "seed {seed}: single ops vs model"
        );
        assert_eq!(single.scan, state, "seed {seed}: single-op scan vs model");
        assert_eq!(batched, single, "seed {seed}: apply_batch vs single ops");
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let dir = tempfile::tempdir().unwrap();
    let kv = open(dir.path());
    let mut s = kv.start_session(1);
    let mut out = Vec::new();
    s.apply_batch(&[], &mut out);
    assert!(out.is_empty());
    assert_eq!(s.serial(), 0);
    s.apply_batch(
        &[BatchOp::Upsert(5, 50), BatchOp::Read(5), BatchOp::Read(6)],
        &mut out,
    );
    assert_eq!(
        out,
        vec![
            BatchResult::Done,
            BatchResult::Found(50),
            BatchResult::NotFound
        ]
    );
    assert_eq!(s.serial(), 3);
}
