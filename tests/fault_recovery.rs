//! Fault-injecting crash-schedule harness for prefix recovery.
//!
//! Every test threads a scripted [`FaultInjector`] underneath the
//! checkpoint I/O of memdb (CPR) and FASTER (fold-over and snapshot),
//! "crashes" the storage stack at a chosen point of the commit state
//! machine (PREPARE / IN-PROGRESS / WAIT-FLUSH, plus specific
//! checkpoint writes within WAIT-FLUSH), then reopens from the
//! surviving directory with a fault-free stack and asserts:
//!
//! 1. the live system never panics or wedges — a failed checkpoint
//!    aborts (no manifest) and sessions return to REST;
//! 2. the recovered state equals a model replay of **exactly** the
//!    committed prefix — all operations before the surviving commit
//!    point, none after (paper Definition 1).
//!
//! All randomness derives from explicit `u64` seeds printed with every
//! case and embedded in every assertion message, so any failure is
//! replayable by pinning the seed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cpr::core::Phase;
use cpr::faster::{
    CheckpointVariant, FasterBuilder, FasterKv, FasterSession, HlogConfig, ReadResult, VersionGrain,
};
use cpr::memdb::{Access, Durability, MemDb, MemDbBuilder, Session, TxnRequest};
use cpr::storage::{CheckpointStore, FaultInjector, FaultPlan};

const KEYS: u64 = 16;
const SPLIT: u64 = 0x9e37_79b9_7f4a_7c15; // golden-ratio stream splitter
const PUMP_DEADLINE: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------------
// Deterministic operation schedules + model replay
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert { key: u64, val: u64 },
    Merge { key: u64, delta: u64 },
    Delete { key: u64 },
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen_range(0u32..10) {
            0..=5 => Op::Upsert {
                key: rng.gen_range(0..KEYS),
                val: rng.gen_range(0u64..1_000_000),
            },
            6..=8 => Op::Merge {
                key: rng.gen_range(0..KEYS),
                delta: rng.gen_range(1u64..100),
            },
            _ => Op::Delete {
                key: rng.gen_range(0..KEYS),
            },
        })
        .collect()
}

fn model_replay(ops: &[Op]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &op in ops {
        match op {
            Op::Upsert { key, val } => {
                m.insert(key, val);
            }
            Op::Merge { key, delta } => {
                let v = m.get(&key).copied().unwrap_or(0).wrapping_add(delta);
                m.insert(key, v);
            }
            Op::Delete { key } => {
                m.remove(&key);
            }
        }
    }
    m
}

// ---------------------------------------------------------------------------
// The crash schedule: where in the commit state machine to pull the plug
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum CrashPoint {
    /// Wait until the system is observed in `phase`, then freeze all
    /// I/O; run `extra_ops` more (doomed) transactions afterwards so the
    /// crash lands amid different amounts of in-flight work.
    Phase { phase: Phase, extra_ops: usize },
    /// Freeze at the `k`-th checkpoint I/O of the WAIT-FLUSH pass
    /// (armed before the request; only the capture performs I/O).
    WaitFlushOp { k: u64 },
    /// Tear the manifest write mid-file; the commit must abort.
    TornManifest,
    /// Freeze immediately *after* the manifest lands: the commit is
    /// durable and recovery must include the second prefix.
    CommitThenFreeze { ops: u64 },
}

fn crash_label(p: &CrashPoint) -> String {
    match p {
        CrashPoint::Phase { phase, extra_ops } => format!("{phase:?}+{extra_ops}ops"),
        CrashPoint::WaitFlushOp { k } => format!("WaitFlush@io{k}"),
        CrashPoint::TornManifest => "WaitFlush@torn-manifest".into(),
        CrashPoint::CommitThenFreeze { .. } => "freeze-after-commit".into(),
    }
}

/// ≥3 crash points in each of PREPARE, IN-PROGRESS, and WAIT-FLUSH.
/// `wait_flush_ops` is how many checkpoint I/Os precede the commit
/// becoming durable (crashing at any of them must abort it); the torn
/// manifest is one more WAIT-FLUSH point on top.
fn sweep_points(wait_flush_ops: u64) -> Vec<CrashPoint> {
    let mut pts = Vec::new();
    for phase in [Phase::Prepare, Phase::InProgress] {
        for extra_ops in [0usize, 2, 5] {
            pts.push(CrashPoint::Phase { phase, extra_ops });
        }
    }
    for k in 0..wait_flush_ops {
        pts.push(CrashPoint::WaitFlushOp { k });
    }
    pts.push(CrashPoint::TornManifest);
    pts
}

// ---------------------------------------------------------------------------
// memdb (CPR) harness
// ---------------------------------------------------------------------------

fn memdb_opts(dir: &std::path::Path, inj: Option<Arc<FaultInjector>>) -> MemDbBuilder<u64> {
    let mut o = MemDb::builder(Durability::Cpr)
        .dir(dir)
        .capacity(64)
        .refresh_every(4);
    if let Some(i) = inj {
        o = o.fault_injector(i);
    }
    o
}

fn memdb_exec(s: &mut Session<u64>, op: Op) {
    let (access, key, seed) = match op {
        Op::Upsert { key, val } => (Access::Write, key, val),
        Op::Merge { key, delta } => (Access::Merge, key, delta),
        Op::Delete { key } => (Access::Delete, key, 0),
    };
    let accesses = [(key, access)];
    let seeds = [seed];
    let req = TxnRequest {
        accesses: &accesses,
        write_seeds: &seeds,
    };
    let mut reads = Vec::new();
    while s.execute(&req, &mut reads).is_err() {}
}

/// Pump refreshes until the in-flight commit either lands (`true`) or
/// aborts (`false`). Panics (with the seed) if neither happens.
fn memdb_pump(
    db: &MemDb<u64>,
    s: &mut Session<u64>,
    target_v: u64,
    failures0: u64,
    tag: &str,
) -> bool {
    let deadline = Instant::now() + PUMP_DEADLINE;
    loop {
        if db.committed_version() >= target_v {
            return true;
        }
        if db.checkpoint_failures() > failures0 {
            return false;
        }
        assert!(Instant::now() < deadline, "commit pump wedged: {tag}");
        s.refresh();
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn memdb_wait_rest(db: &MemDb<u64>, s: &mut Session<u64>, tag: &str) {
    let deadline = Instant::now() + PUMP_DEADLINE;
    while db.state().0 != Phase::Rest {
        assert!(Instant::now() < deadline, "never returned to REST: {tag}");
        s.refresh();
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn memdb_crash_case(seed: u64, point: CrashPoint) {
    let label = crash_label(&point);
    let tag = format!("memdb case {label} seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let ops_a = gen_ops(seed, 40);
    let ops_b = gen_ops(seed ^ SPLIT, 25);
    let committed_second;
    {
        let db: MemDb<u64> = memdb_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = db.session(1);
        for &op in &ops_a {
            memdb_exec(&mut s, op);
        }
        assert!(db.request_commit(), "{tag}");
        assert!(
            memdb_pump(&db, &mut s, 1, 0, &tag),
            "fault-free commit must land: {tag}"
        );
        for &op in &ops_b {
            memdb_exec(&mut s, op);
        }
        let failures0 = db.checkpoint_failures();
        let (_, v) = db.state();
        match point {
            CrashPoint::Phase { phase, extra_ops } => {
                assert!(db.request_commit(), "{tag}");
                if phase == Phase::InProgress {
                    let deadline = Instant::now() + PUMP_DEADLINE;
                    while db.state().0 == Phase::Prepare {
                        assert!(Instant::now() < deadline, "stuck in PREPARE: {tag}");
                        s.refresh();
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                assert_eq!(db.state().0, phase, "{tag}");
                inj.crash_now();
                // Doomed in-flight transactions after the crash: they run
                // fine in memory but can never become durable.
                for &op in &gen_ops(seed ^ (SPLIT << 1), extra_ops) {
                    memdb_exec(&mut s, op);
                }
            }
            CrashPoint::WaitFlushOp { k } => {
                inj.crash_after(k);
                assert!(db.request_commit(), "{tag}");
            }
            CrashPoint::TornManifest => {
                inj.torn_after(1, 12); // io 0 = db.dat, io 1 = manifest
                assert!(db.request_commit(), "{tag}");
            }
            CrashPoint::CommitThenFreeze { ops } => {
                inj.crash_after(ops);
                assert!(db.request_commit(), "{tag}");
            }
        }
        committed_second = memdb_pump(&db, &mut s, v, failures0, &tag);
        let expect_commit = matches!(point, CrashPoint::CommitThenFreeze { .. });
        assert_eq!(committed_second, expect_commit, "{tag}");
        // Whatever happened, sessions must be back at REST.
        memdb_wait_rest(&db, &mut s, &tag);
    }

    // Reopen the surviving directory with a fault-free stack.
    let (db2, manifest) = memdb_opts(dir.path(), None).recover().unwrap();
    let manifest = manifest.unwrap_or_else(|| panic!("committed checkpoint lost: {tag}"));
    let expect_ops: Vec<Op> = if committed_second {
        ops_a.iter().chain(&ops_b).copied().collect()
    } else {
        ops_a.clone()
    };
    assert_eq!(
        manifest.version,
        if committed_second { 2 } else { 1 },
        "{tag}"
    );
    assert_eq!(
        manifest.cpr_point(1),
        Some(expect_ops.len() as u64),
        "{tag}"
    );
    let model = model_replay(&expect_ops);
    for key in 0..KEYS {
        assert_eq!(db2.read(key), model.get(&key).copied(), "key {key}: {tag}");
    }
}

/// memdb CPR: crash sweep across PREPARE / IN-PROGRESS / WAIT-FLUSH.
#[test]
fn memdb_cpr_crash_sweep() {
    let base = 0x00c0_ffee_0000_0001u64;
    for (i, point) in sweep_points(2).into_iter().enumerate() {
        memdb_crash_case(base.wrapping_add(i as u64), point);
    }
    // The capture pass performs exactly two writes (db.dat, manifest):
    // freezing after both means the commit is durable.
    memdb_crash_case(base ^ 0xfff, CrashPoint::CommitThenFreeze { ops: 2 });
}

/// An injected write failure aborts the checkpoint cleanly — no manifest,
/// no panic, no wedge — and the *next* checkpoint succeeds.
#[test]
fn memdb_transient_failure_aborts_then_next_commit_succeeds() {
    let seed = 0x7a75_0000_0000_0001u64;
    let tag = format!("memdb transient seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let ops = gen_ops(seed, 50);
    {
        let db: MemDb<u64> = memdb_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = db.session(1);
        for &op in &ops {
            memdb_exec(&mut s, op);
        }
        // First attempt: the db.dat write fails once.
        inj.fail_after(0);
        assert!(db.request_commit(), "{tag}");
        assert!(!memdb_pump(&db, &mut s, 1, 0, &tag), "must abort: {tag}");
        assert_eq!(db.checkpoint_failures(), 1, "{tag}");
        assert_eq!(db.committed_version(), 0, "no manifest after abort: {tag}");
        memdb_wait_rest(&db, &mut s, &tag);
        // Second attempt: the transient fault is consumed; it must land.
        let (_, v) = db.state();
        assert!(db.request_commit(), "{tag}");
        assert!(
            memdb_pump(&db, &mut s, v, 1, &tag),
            "retry must commit: {tag}"
        );
    }
    let (db2, manifest) = memdb_opts(dir.path(), None).recover().unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.cpr_point(1), Some(ops.len() as u64), "{tag}");
    let model = model_replay(&ops);
    for key in 0..KEYS {
        assert_eq!(db2.read(key), model.get(&key).copied(), "key {key}: {tag}");
    }
}

// ---------------------------------------------------------------------------
// FASTER harness (fold-over + snapshot)
// ---------------------------------------------------------------------------

fn faster_opts(dir: &std::path::Path, inj: Option<Arc<FaultInjector>>) -> FasterBuilder<u64> {
    let mut o = FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 16,
            mutable_pages: 8,
            value_size: 8,
        })
        .grain(VersionGrain::Fine)
        .refresh_every(4);
    if let Some(i) = inj {
        o = o.fault_injector(i);
    }
    o
}

fn faster_exec(s: &mut FasterSession<u64>, op: Op) {
    match op {
        Op::Upsert { key, val } => {
            s.upsert(key, val);
        }
        Op::Merge { key, delta } => {
            s.rmw(key, delta);
        }
        Op::Delete { key } => {
            s.delete(key);
        }
    }
}

fn faster_pump(
    kv: &FasterKv<u64>,
    s: &mut FasterSession<u64>,
    target_v: u64,
    failures0: u64,
    tag: &str,
) -> bool {
    let deadline = Instant::now() + PUMP_DEADLINE;
    loop {
        if kv.committed_version() >= target_v {
            return true;
        }
        if kv.checkpoint_failures() > failures0 {
            return false;
        }
        assert!(Instant::now() < deadline, "checkpoint pump wedged: {tag}");
        s.refresh();
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn faster_wait_rest(kv: &FasterKv<u64>, s: &mut FasterSession<u64>, tag: &str) {
    let deadline = Instant::now() + PUMP_DEADLINE;
    while kv.state().0 != Phase::Rest {
        assert!(Instant::now() < deadline, "never returned to REST: {tag}");
        s.refresh();
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Read through the recovered store, riding out the async pending path.
fn faster_read(s: &mut FasterSession<u64>, key: u64, tag: &str) -> Option<u64> {
    match s.read(key) {
        ReadResult::Found(v) => Some(v),
        ReadResult::NotFound => None,
        ReadResult::Evicted => panic!("session evicted"),
        ReadResult::Pending => {
            let mut out = Vec::new();
            for _ in 0..20_000 {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out.iter().find(|c| c.key == key) {
                    return c.value;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            panic!("pending read for key {key} never completed: {tag}");
        }
    }
}

fn faster_crash_case(seed: u64, variant: CheckpointVariant, point: CrashPoint) {
    let label = crash_label(&point);
    let tag = format!("faster {variant:?} case {label} seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let ops_a = gen_ops(seed, 40);
    let ops_b = gen_ops(seed ^ SPLIT, 25);
    {
        let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = kv.start_session(7);
        for &op in &ops_a {
            faster_exec(&mut s, op);
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
        assert!(kv.request_checkpoint(variant, false), "{tag}");
        assert!(
            faster_pump(&kv, &mut s, 1, 0, &tag),
            "fault-free commit must land: {tag}"
        );
        for &op in &ops_b {
            faster_exec(&mut s, op);
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
        let failures0 = kv.checkpoint_failures();
        let (_, v) = kv.state();
        match point {
            CrashPoint::Phase { phase, extra_ops } => {
                assert!(kv.request_checkpoint(variant, false), "{tag}");
                if phase == Phase::InProgress {
                    let deadline = Instant::now() + PUMP_DEADLINE;
                    while kv.state().0 == Phase::Prepare {
                        assert!(Instant::now() < deadline, "stuck in PREPARE: {tag}");
                        s.refresh();
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                assert_eq!(kv.state().0, phase, "{tag}");
                inj.crash_now();
                for &op in &gen_ops(seed ^ (SPLIT << 1), extra_ops) {
                    faster_exec(&mut s, op);
                }
            }
            CrashPoint::WaitFlushOp { k } => {
                // io 0 = index.dat; io 1 = log flush (fold-over) or
                // snapshot.dat (snapshot); io 2 = manifest or later flush.
                inj.crash_after(k);
                assert!(kv.request_checkpoint(variant, false), "{tag}");
            }
            CrashPoint::TornManifest | CrashPoint::CommitThenFreeze { .. } => {
                unreachable!("not part of the FASTER sweep")
            }
        }
        assert!(
            !faster_pump(&kv, &mut s, v, failures0, &tag),
            "must abort: {tag}"
        );
        faster_wait_rest(&kv, &mut s, &tag);
    }

    let (kv2, manifest) = faster_opts(dir.path(), None).recover().unwrap();
    let manifest = manifest.unwrap_or_else(|| panic!("committed checkpoint lost: {tag}"));
    assert_eq!(manifest.version, 1, "{tag}");
    let (mut s2, cpr_point) = kv2.continue_session(7);
    assert_eq!(cpr_point, ops_a.len() as u64, "{tag}");
    let model = model_replay(&ops_a);
    for key in 0..KEYS {
        assert_eq!(
            faster_read(&mut s2, key, &tag),
            model.get(&key).copied(),
            "key {key}: {tag}"
        );
    }
}

/// FASTER fold-over: crash sweep across PREPARE / IN-PROGRESS /
/// WAIT-FLUSH (index dump, log flush, manifest).
#[test]
fn faster_foldover_crash_sweep() {
    let base = 0x0f01_d000_0000_0001u64;
    for (i, point) in sweep_points(3).into_iter().enumerate() {
        if matches!(point, CrashPoint::TornManifest) {
            continue; // covered by the dedicated torn-manifest tests
        }
        faster_crash_case(
            base.wrapping_add(i as u64),
            CheckpointVariant::FoldOver,
            point,
        );
    }
}

/// FASTER snapshot: the same sweep against the snapshot variant
/// (index dump, snapshot write, manifest).
#[test]
fn faster_snapshot_crash_sweep() {
    let base = 0x54a9_0000_0000_0002u64;
    for (i, point) in sweep_points(3).into_iter().enumerate() {
        if matches!(point, CrashPoint::TornManifest) {
            continue;
        }
        faster_crash_case(
            base.wrapping_add(i as u64),
            CheckpointVariant::Snapshot,
            point,
        );
    }
}

/// An injected failure on the index dump aborts the checkpoint; the
/// retry (fault consumed) succeeds and recovers the full prefix.
#[test]
fn faster_transient_failure_aborts_then_next_checkpoint_succeeds() {
    let seed = 0x7a75_0000_0000_0002u64;
    let tag = format!("faster transient seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let ops = gen_ops(seed, 50);
    {
        let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = kv.start_session(7);
        for &op in &ops {
            faster_exec(&mut s, op);
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
        inj.fail_after(0);
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        assert!(!faster_pump(&kv, &mut s, 1, 0, &tag), "must abort: {tag}");
        assert_eq!(kv.checkpoint_failures(), 1, "{tag}");
        assert_eq!(kv.committed_version(), 0, "no manifest after abort: {tag}");
        faster_wait_rest(&kv, &mut s, &tag);
        let (_, v) = kv.state();
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        assert!(
            faster_pump(&kv, &mut s, v, 1, &tag),
            "retry must commit: {tag}"
        );
    }
    let (kv2, manifest) = faster_opts(dir.path(), None).recover().unwrap();
    assert!(manifest.is_some(), "{tag}");
    let (mut s2, cpr_point) = kv2.continue_session(7);
    assert_eq!(cpr_point, ops.len() as u64, "{tag}");
    let model = model_replay(&ops);
    for key in 0..KEYS {
        assert_eq!(
            faster_read(&mut s2, key, &tag),
            model.get(&key).copied(),
            "key {key}: {tag}"
        );
    }
}

/// A crash before the request is even made: `request_checkpoint` is
/// rejected cleanly (begin fails), the state machine stays at REST, and
/// the untouched directory recovers as a fresh store.
#[test]
fn faster_crash_before_request_is_rejected_cleanly() {
    let seed = 0xdead_0000_0000_0003u64;
    let tag = format!("faster pre-request crash seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    {
        let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = kv.start_session(7);
        for &op in &gen_ops(seed, 30) {
            faster_exec(&mut s, op);
        }
        inj.crash_now();
        assert!(
            !kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        assert_eq!(kv.checkpoint_failures(), 1, "{tag}");
        assert_eq!(kv.state(), (Phase::Rest, 1), "{tag}");
    }
    let (kv2, manifest) = faster_opts(dir.path(), None).recover().unwrap();
    assert!(manifest.is_none(), "{tag}");
    let (mut s2, cpr_point) = kv2.continue_session(7);
    assert_eq!(cpr_point, 0, "{tag}");
    for key in 0..KEYS {
        assert_eq!(faster_read(&mut s2, key, &tag), None, "{tag}");
    }
}

// ---------------------------------------------------------------------------
// Seeded torture: arbitrary generated fault plans, replayable by seed
// ---------------------------------------------------------------------------

fn torture_memdb(seed: u64) {
    let tag = format!("torture memdb seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::from_seed(seed, 8));
    let ops = gen_ops(seed ^ SPLIT, 48);
    let mut committed: HashMap<u64, u64> = HashMap::new(); // version -> prefix len
    {
        let db: MemDb<u64> = memdb_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = db.session(1);
        let mut done = 0u64;
        for chunk in ops.chunks(12) {
            for &op in chunk {
                memdb_exec(&mut s, op);
            }
            done += chunk.len() as u64;
            let (_, v) = db.state();
            let failures0 = db.checkpoint_failures();
            if db.request_commit() && memdb_pump(&db, &mut s, v, failures0, &tag) {
                committed.insert(v, done);
            }
            memdb_wait_rest(&db, &mut s, &tag);
        }
    }
    let (db2, manifest) = memdb_opts(dir.path(), None).recover().unwrap();
    let prefix = match &manifest {
        Some(m) => *committed.get(&m.version).unwrap_or_else(|| {
            panic!(
                "recovered version {} was never seen committing: {tag}",
                m.version
            )
        }),
        None => {
            assert!(committed.is_empty(), "committed checkpoint lost: {tag}");
            0
        }
    };
    if let Some(m) = &manifest {
        assert_eq!(m.cpr_point(1), Some(prefix), "{tag}");
    }
    let model = model_replay(&ops[..prefix as usize]);
    for key in 0..KEYS {
        assert_eq!(db2.read(key), model.get(&key).copied(), "key {key}: {tag}");
    }
}

fn torture_faster(seed: u64) {
    let tag = format!("torture faster seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::from_seed(seed, 12));
    let ops = gen_ops(seed ^ SPLIT, 48);
    let mut committed: HashMap<u64, u64> = HashMap::new();
    {
        let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = kv.start_session(11);
        let mut done = 0u64;
        for (i, chunk) in ops.chunks(12).enumerate() {
            for &op in chunk {
                faster_exec(&mut s, op);
            }
            done += chunk.len() as u64;
            while s.pending_len() > 0 {
                s.refresh();
            }
            let variant = if i % 2 == 0 {
                CheckpointVariant::FoldOver
            } else {
                CheckpointVariant::Snapshot
            };
            let (_, v) = kv.state();
            let failures0 = kv.checkpoint_failures();
            if kv.request_checkpoint(variant, false) && faster_pump(&kv, &mut s, v, failures0, &tag)
            {
                committed.insert(v, done);
            }
            faster_wait_rest(&kv, &mut s, &tag);
        }
    }
    let (kv2, manifest) = faster_opts(dir.path(), None).recover().unwrap();
    let prefix = match &manifest {
        Some(m) => *committed.get(&m.version).unwrap_or_else(|| {
            panic!(
                "recovered version {} was never seen committing: {tag}",
                m.version
            )
        }),
        None => {
            assert!(committed.is_empty(), "committed checkpoint lost: {tag}");
            0
        }
    };
    let (mut s2, cpr_point) = kv2.continue_session(11);
    assert_eq!(cpr_point, prefix, "{tag}");
    let model = model_replay(&ops[..prefix as usize]);
    for key in 0..KEYS {
        assert_eq!(
            faster_read(&mut s2, key, &tag),
            model.get(&key).copied(),
            "key {key}: {tag}"
        );
    }
}

/// Generated fault plans ([`FaultPlan::from_seed`]): whatever the
/// schedule does — transient failures, torn writes, delays, a crash —
/// the system must not panic or wedge, and recovery must reproduce
/// exactly the last committed prefix. Each seed is printed; pin it to
/// replay a failure.
#[test]
fn seeded_fault_plans_recover_a_committed_prefix() {
    for &seed in &[
        0x0000_0000_0000_002au64,
        0x0000_0000_dead_beef,
        0x1234_5678_9abc_def0,
        0xfeed_face_cafe_f00d,
        0x0bad_5eed_0bad_5eed,
    ] {
        torture_memdb(seed);
        torture_faster(seed ^ SPLIT);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint retention: once a commit is published, the checkpoints it
// superseded are deleted, manifest first. A crash at either step of that
// deletion must leave a store that recovers exactly the newest committed
// prefix, and the half-deleted directory must read as uncommitted until
// a later commit removes it.
// ---------------------------------------------------------------------------

fn faster_retention_crash_case(seed: u64, crash_at_delete: u64) {
    let tag = format!("faster retention crash@delete{crash_at_delete} seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path().join("checkpoints");
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let mut ops = gen_ops(seed, 40);
    let ops_b = gen_ops(seed ^ SPLIT, 25);
    let first;
    {
        let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = kv.start_session(7);
        for &op in &ops {
            faster_exec(&mut s, op);
        }
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        assert!(
            faster_pump(&kv, &mut s, 1, 0, &tag),
            "first commit must land: {tag}"
        );
        first = CheckpointStore::open(&root).unwrap().tokens().unwrap();
        assert_eq!(first.len(), 1, "{tag}");
        for &op in &ops_b {
            faster_exec(&mut s, op);
        }
        ops.extend(ops_b);
        // Delete op 0 removes the first checkpoint's manifest, op 1 its
        // directory.
        inj.crash_delete_after(crash_at_delete);
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        assert!(
            faster_pump(&kv, &mut s, 2, 0, &tag),
            "second commit must land: {tag}"
        );
        let deadline = Instant::now() + PUMP_DEADLINE;
        while !inj.crashed() {
            assert!(
                Instant::now() < deadline,
                "retention never reached the crash: {tag}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Frozen mid-delete: the first directory is still there, with its
    // manifest only if the crash came before the manifest's deletion.
    assert!(root.join(format!("cpt.{}", first[0])).exists(), "{tag}");
    let committed = CheckpointStore::open(&root).unwrap().tokens().unwrap();
    assert_eq!(
        committed.len(),
        if crash_at_delete == 0 { 2 } else { 1 },
        "{tag}"
    );

    let (kv, manifest) = faster_opts(dir.path(), None).recover().unwrap();
    assert_eq!(manifest.map(|m| m.version), Some(2), "{tag}");
    let (mut s, cpr_point) = kv.continue_session(7);
    assert_eq!(cpr_point, ops.len() as u64, "{tag}");
    let model = model_replay(&ops);
    for key in 0..KEYS {
        assert_eq!(
            faster_read(&mut s, key, &tag),
            model.get(&key).copied(),
            "key {key}: {tag}"
        );
    }
    // The next commit removes the leftover.
    assert!(
        kv.request_checkpoint(CheckpointVariant::FoldOver, false),
        "{tag}"
    );
    assert!(
        faster_pump(&kv, &mut s, 3, 0, &tag),
        "third commit must land: {tag}"
    );
    let deadline = Instant::now() + PUMP_DEADLINE;
    while std::fs::read_dir(&root).unwrap().count() > 1 {
        assert!(Instant::now() < deadline, "leftover never removed: {tag}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// FASTER checkpoint retention: crash before, then after, the superseded
/// checkpoint's manifest is deleted.
#[test]
fn faster_retention_crash_mid_delete() {
    let base = 0x4e7a_1000_0000_0003u64;
    for k in 0..2 {
        faster_retention_crash_case(base.wrapping_add(k), k);
    }
}

fn memdb_retention_crash_case(seed: u64, crash_at_delete: u64) {
    let tag = format!("memdb retention crash@delete{crash_at_delete} seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let mut ops = gen_ops(seed, 40);
    let ops_b = gen_ops(seed ^ SPLIT, 25);
    let first;
    {
        let db: MemDb<u64> = memdb_opts(root, Some(inj.clone())).open().unwrap();
        let mut s = db.session(1);
        for &op in &ops {
            memdb_exec(&mut s, op);
        }
        assert!(db.request_commit(), "{tag}");
        assert!(
            memdb_pump(&db, &mut s, 1, 0, &tag),
            "first commit must land: {tag}"
        );
        first = CheckpointStore::open(root).unwrap().tokens().unwrap();
        assert_eq!(first.len(), 1, "{tag}");
        for &op in &ops_b {
            memdb_exec(&mut s, op);
        }
        ops.extend(ops_b);
        // Delete op 0 removes the first checkpoint's manifest, op 1 its
        // directory.
        inj.crash_delete_after(crash_at_delete);
        let (_, v) = db.state();
        assert!(db.request_commit(), "{tag}");
        assert!(
            memdb_pump(&db, &mut s, v, 0, &tag),
            "second commit must land: {tag}"
        );
        let deadline = Instant::now() + PUMP_DEADLINE;
        while !inj.crashed() {
            assert!(
                Instant::now() < deadline,
                "retention never reached the crash: {tag}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        memdb_wait_rest(&db, &mut s, &tag);
    }
    // Frozen mid-delete: the first directory is still there, with its
    // manifest only if the crash came before the manifest's deletion.
    assert!(root.join(format!("cpt.{}", first[0])).exists(), "{tag}");
    let committed = CheckpointStore::open(root).unwrap().tokens().unwrap();
    assert_eq!(
        committed.len(),
        if crash_at_delete == 0 { 2 } else { 1 },
        "{tag}"
    );

    let (db, manifest) = memdb_opts(root, None).recover().unwrap();
    let manifest = manifest.unwrap_or_else(|| panic!("committed checkpoint lost: {tag}"));
    assert_eq!(manifest.version, 2, "{tag}");
    assert_eq!(manifest.cpr_point(1), Some(ops.len() as u64), "{tag}");
    let model = model_replay(&ops);
    for key in 0..KEYS {
        assert_eq!(db.read(key), model.get(&key).copied(), "key {key}: {tag}");
    }
    // The next commit removes the leftover.
    let (mut s, _) = db.continue_session(1);
    let (_, v) = db.state();
    assert!(db.request_commit(), "{tag}");
    assert!(
        memdb_pump(&db, &mut s, v, 0, &tag),
        "third commit must land: {tag}"
    );
    let deadline = Instant::now() + PUMP_DEADLINE;
    while std::fs::read_dir(root).unwrap().count() > 1 {
        assert!(Instant::now() < deadline, "leftover never removed: {tag}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// memdb checkpoint retention: crash before, then after, the superseded
/// checkpoint's manifest is deleted.
#[test]
fn memdb_retention_crash_mid_delete() {
    let base = 0x4e7a_1000_0000_0005u64;
    for k in 0..2 {
        memdb_retention_crash_case(base.wrapping_add(k), k);
    }
}

// ---------------------------------------------------------------------------
// Killing recovery itself: a recovery attempt that dies on checkpoint
// reads, scan reads, invalidation-marker writes, or (for snapshots) the
// normalization copy must surface an error — never a panic or a wedge —
// and a later fault-free attempt must still land on exactly the
// committed prefix. Recovery is re-runnable: partial marker writes and
// torn normalization copies from a dead attempt are absorbed by the
// retry, and the result is identical at any recovery thread count.
// ---------------------------------------------------------------------------

/// Commit a fold-over/snapshot checkpoint while operations overlap the
/// commit, so version-(v+1) records land below the checkpoint's log end
/// and recovery has invalidation markers to write. Returns the full
/// operation stream in session order (the committed prefix length comes
/// from `continue_session` after recovery).
fn faster_overlapped_checkpoint(
    dir: &std::path::Path,
    variant: CheckpointVariant,
    seed: u64,
    tag: &str,
) -> Vec<Op> {
    let kv: FasterKv<u64> = faster_opts(dir, None).open().unwrap();
    let mut s = kv.start_session(7);
    let ops_a = gen_ops(seed, 40);
    for &op in &ops_a {
        faster_exec(&mut s, op);
    }
    while s.pending_len() > 0 {
        s.refresh();
    }
    let ops_b = gen_ops(seed ^ SPLIT, 4000);
    assert!(kv.request_checkpoint(variant, false), "{tag}");
    let mut executed = Vec::new();
    let mut i = 0usize;
    let deadline = Instant::now() + PUMP_DEADLINE;
    while kv.committed_version() < 1 {
        let op = ops_b[i % ops_b.len()];
        faster_exec(&mut s, op);
        executed.push(op);
        i += 1;
        s.refresh();
        assert!(Instant::now() < deadline, "overlapped commit wedged: {tag}");
        std::thread::sleep(Duration::from_micros(50));
    }
    faster_wait_rest(&kv, &mut s, tag);
    while s.pending_len() > 0 {
        s.refresh();
    }
    let mut all = ops_a;
    all.extend(executed);
    all
}

/// Recover `dir` fault-free at `threads` recovery threads and check the
/// store against the model replay of the committed prefix; returns the
/// recovered index digest.
fn faster_check_recovered(dir: &std::path::Path, ops: &[Op], threads: usize, tag: &str) -> u64 {
    let (kv, manifest) = faster_opts(dir, None)
        .io_threads(threads)
        .recover()
        .unwrap_or_else(|e| panic!("fault-free recovery failed ({threads} threads): {e}: {tag}"));
    assert!(manifest.is_some(), "committed checkpoint lost: {tag}");
    let (mut s, cpr_point) = kv.continue_session(7);
    assert!(
        cpr_point as usize >= 40 && cpr_point as usize <= ops.len(),
        "cpr point {cpr_point} outside [40, {}]: {tag}",
        ops.len()
    );
    let model = model_replay(&ops[..cpr_point as usize]);
    for key in 0..KEYS {
        assert_eq!(
            faster_read(&mut s, key, tag),
            model.get(&key).copied(),
            "key {key} ({threads} threads): {tag}"
        );
    }
    kv.index_digest()
}

fn faster_recovery_kill_case(variant: CheckpointVariant, seed: u64) {
    let tag = format!("faster {variant:?} recovery-kill seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let ops = faster_overlapped_checkpoint(dir.path(), variant, seed, &tag);

    // Attempt 1: the first recovery read (snapshot.dat for snapshots,
    // index.dat for fold-over) hits a crashed device.
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    inj.crash_read_after(0);
    let r = faster_opts(dir.path(), Some(inj.clone()))
        .io_threads(2)
        .recover();
    assert!(r.is_err(), "recovery must die on read 0: {tag}");
    assert!(inj.fault_hits() >= 1, "{tag}");

    // Attempt 2: a later read — the index load or a partitioned-scan
    // chunk — fails transiently mid-recovery.
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    inj.fail_read_after(1);
    let r = faster_opts(dir.path(), Some(inj.clone()))
        .io_threads(2)
        .recover();
    assert!(r.is_err(), "recovery must die on read 1: {tag}");

    // Attempt 3: the first recovery *write* dies. For fold-over that is
    // an invalidation marker (present when operations overlapped the
    // commit); for snapshot it is the normalization copy, torn mid-write
    // so the retry must re-copy over the partial bytes.
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    match variant {
        CheckpointVariant::FoldOver => inj.fail_after(0),
        CheckpointVariant::Snapshot => inj.torn_after(0, 7),
    }
    let r = faster_opts(dir.path(), Some(inj.clone()))
        .io_threads(2)
        .recover();
    match r {
        Err(_) => assert!(inj.fault_hits() >= 1, "{tag}"),
        Ok(_) => assert_eq!(
            inj.fault_hits(),
            0,
            "recovery succeeded past an armed write fault: {tag}"
        ),
    }

    // Fault-free attempts now succeed — partial markers and torn
    // normalization bytes from the dead attempts are absorbed — and the
    // recovered state is identical at 1, 2, and 4 recovery threads.
    let d2 = faster_check_recovered(dir.path(), &ops, 2, &tag);
    let d1 = faster_check_recovered(dir.path(), &ops, 1, &tag);
    let d4 = faster_check_recovered(dir.path(), &ops, 4, &tag);
    assert_eq!(
        d1, d2,
        "index digest differs between 1 and 2 threads: {tag}"
    );
    assert_eq!(
        d1, d4,
        "index digest differs between 1 and 4 threads: {tag}"
    );
}

/// FASTER fold-over: recovery killed on checkpoint reads, scan reads,
/// and marker writes; retries converge on the committed prefix.
#[test]
fn faster_foldover_recovery_killed_then_retried() {
    faster_recovery_kill_case(CheckpointVariant::FoldOver, 0x4b11_0000_0000_0001);
}

/// FASTER snapshot: recovery killed on the snapshot read and a torn
/// normalization copy; the retry re-copies and recovers.
#[test]
fn faster_snapshot_recovery_killed_then_retried() {
    faster_recovery_kill_case(CheckpointVariant::Snapshot, 0x4b11_0000_0000_0002);
}

/// memdb CPR: recovery killed on the checkpoint read; the retry loads
/// the committed prefix, identically at any recovery thread count.
#[test]
fn memdb_recovery_killed_then_retried() {
    let seed = 0x4b11_0000_0000_0003u64;
    let tag = format!("memdb recovery-kill seed={seed:#018x}");
    println!("{tag}");
    let dir = tempfile::tempdir().unwrap();
    let ops = gen_ops(seed, 50);
    {
        let db: MemDb<u64> = memdb_opts(dir.path(), None).open().unwrap();
        let mut s = db.session(1);
        for &op in &ops {
            memdb_exec(&mut s, op);
        }
        assert!(db.request_commit(), "{tag}");
        assert!(
            memdb_pump(&db, &mut s, 1, 0, &tag),
            "commit must land: {tag}"
        );
        memdb_wait_rest(&db, &mut s, &tag);
    }

    // Two dead attempts: db.dat read fails, then the device crashes on it.
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    inj.fail_read_after(0);
    assert!(
        memdb_opts(dir.path(), Some(inj.clone())).recover().is_err(),
        "recovery must die on a failed checkpoint read: {tag}"
    );
    assert!(inj.fault_hits() >= 1, "{tag}");
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    inj.crash_read_after(0);
    assert!(
        memdb_opts(dir.path(), Some(inj)).recover().is_err(),
        "recovery must die on a crashed checkpoint read: {tag}"
    );

    // Fault-free retries at different thread counts agree with the model.
    let model = model_replay(&ops);
    for threads in [1usize, 2, 4] {
        let (db2, manifest) = memdb_opts(dir.path(), None)
            .io_threads(threads)
            .recover()
            .unwrap_or_else(|e| {
                panic!("fault-free recovery failed ({threads} threads): {e}: {tag}")
            });
        let manifest = manifest.unwrap_or_else(|| panic!("manifest lost: {tag}"));
        assert_eq!(manifest.cpr_point(1), Some(ops.len() as u64), "{tag}");
        for key in 0..KEYS {
            assert_eq!(
                db2.read(key),
                model.get(&key).copied(),
                "key {key} ({threads} threads): {tag}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// FASTER log compaction. A pass copies the live records of the oldest
// segments to the tail; a later commit publishes the new begin address,
// and only once its manifest is durable are the segments below it
// unlinked. Crashes before the publishing commit, in the middle of the
// unlinking, and around a version-v+1 record that recovery rolls back
// must all recover exactly the committed prefix. `CPR_STRESS_SEED`
// varies the values and which keys are hot.
// ---------------------------------------------------------------------------

/// Keys of the compaction schedules: enough that the 1.5 live segments
/// keep the background rule (span above 3x live bytes) from starting a
/// pass of its own, so the explicit pass is the only one.
const CKEYS: u64 = 1500;

fn compaction_seed() -> u64 {
    std::env::var("CPR_STRESS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xc0_4ac7)
}

/// Preload every key, then run `rounds` rounds that update the hot third
/// of the keys, with a fold-over commit after the preload and after each
/// round. The cold two thirds keep their only record in the oldest
/// segments, so a pass must copy them.
fn compaction_churn(
    kv: &FasterKv<u64>,
    s: &mut FasterSession<u64>,
    seed: u64,
    rounds: u64,
    tag: &str,
) -> HashMap<u64, u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = HashMap::new();
    for round in 0..=rounds {
        for key in 0..CKEYS {
            if round > 0 && !key.wrapping_add(seed).is_multiple_of(3) {
                continue;
            }
            let delta = rng.gen_range(1..1000u64);
            s.rmw(key, delta);
            *model.entry(key).or_insert(0u64) += delta;
        }
        let v = kv.committed_version().0 + 1;
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        assert!(faster_pump(kv, s, v, 0, tag), "churn commit {v}: {tag}");
    }
    model
}

/// Run a compaction pass over everything it may take on another thread
/// while `s` keeps refreshing: the pass's appends can wait for an epoch
/// drain, which needs every session to refresh.
fn compact_refreshing(
    kv: &FasterKv<u64>,
    s: &mut FasterSession<u64>,
    tag: &str,
) -> cpr::faster::CompactionStats {
    let stats = std::thread::scope(|sc| {
        let pass = sc.spawn(|| kv.compact_log(u64::MAX).unwrap());
        while !pass.is_finished() {
            s.refresh();
            std::thread::sleep(Duration::from_micros(200));
        }
        pass.join().unwrap()
    });
    stats.unwrap_or_else(|| panic!("no pass: {tag}"))
}

fn log_segments(dir: &std::path::Path) -> Vec<u64> {
    let mut segs: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("log.dat.").and_then(|n| n.parse().ok())
        })
        .collect();
    segs.sort_unstable();
    segs
}

/// Recover `dir` at 1, 2 and 4 threads: each must find `begin`, scan
/// exactly `model`, read it back key by key, and build the same index.
fn check_compacted_recovery(
    dir: &std::path::Path,
    model: &HashMap<u64, u64>,
    begin: u64,
    tag: &str,
) {
    let mut want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    want.sort_unstable();
    let mut digests = Vec::new();
    for threads in [1, 2, 4] {
        let (kv, m) = faster_opts(dir, None)
            .io_threads(threads)
            .recover()
            .unwrap_or_else(|e| panic!("recovery failed ({threads} threads): {e}: {tag}"));
        let m = m.unwrap_or_else(|| panic!("no commit: {tag}"));
        assert_eq!(m.begin_address, Some(begin), "manifest begin: {tag}");
        assert_eq!(kv.hlog().begin_address(), begin, "{tag}");
        let bits = kv.hlog().segment_bits();
        let segs = log_segments(dir);
        assert!(
            segs.iter().all(|&seg| seg >= begin >> bits),
            "segments {segs:?} left below begin {begin}: {tag}"
        );
        assert_eq!(
            kv.scan_all().unwrap(),
            want,
            "scan ({threads} threads): {tag}"
        );
        let mut s = kv.start_session(99);
        for key in (0..CKEYS).step_by(7) {
            assert_eq!(
                faster_read(&mut s, key, tag),
                model.get(&key).copied(),
                "key {key} ({threads} threads): {tag}"
            );
        }
        drop(s);
        digests.push(kv.index_digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "index digests differ across recovery threads {digests:x?}: {tag}"
    );
}

/// Crash after a pass has copied the live records but before any commit
/// publishes its begin address: recovery uses the old begin, and the
/// copies are either absent (beyond the recovered tail) or harmless.
#[test]
fn faster_compaction_crash_before_publishing_commit() {
    let seed = compaction_seed();
    let tag = format!("faster compaction crash-before-publish seed={seed:#x}");
    let dir = tempfile::tempdir().unwrap();
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let (model, begin) = {
        let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
        let mut s = kv.start_session(7);
        let model = compaction_churn(&kv, &mut s, seed, 3, &tag);
        let begin = kv.hlog().begin_address();
        let scan = kv.scan_all().unwrap();
        let stats = compact_refreshing(&kv, &mut s, &tag);
        assert!(stats.copied > 0 && stats.until > begin, "{stats:?}: {tag}");
        assert_eq!(kv.scan_all().unwrap(), scan, "copies changed data: {tag}");
        // The publishing commit's log flush is the next write: it never
        // lands, and no manifest names the new begin.
        inj.crash_after(0);
        let failures = kv.checkpoint_failures();
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        let v = kv.committed_version().0 + 1;
        assert!(!faster_pump(&kv, &mut s, v, failures, &tag), "{tag}");
        assert_eq!(kv.hlog().begin_address(), begin, "{tag}");
        (model, begin)
    };
    check_compacted_recovery(dir.path(), &model, begin, &tag);
}

/// Crash at each of the unlinks that follow the durable publishing
/// manifest: the surviving segments below the new begin are ignored,
/// and recovery removes them.
#[test]
fn faster_compaction_crash_mid_unlink() {
    let seed = compaction_seed();
    for crash_at_delete in 0..3 {
        let tag = format!("faster compaction crash@delete{crash_at_delete} seed={seed:#x}");
        println!("{tag}");
        let dir = tempfile::tempdir().unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let (model, until) = {
            let kv: FasterKv<u64> = faster_opts(dir.path(), Some(inj.clone())).open().unwrap();
            let mut s = kv.start_session(7);
            let model = compaction_churn(&kv, &mut s, seed, 3, &tag);
            let stats = compact_refreshing(&kv, &mut s, &tag);
            let bits = kv.hlog().segment_bits();
            let doomed = (stats.until >> bits) - (kv.hlog().begin_address() >> bits);
            assert!(doomed > crash_at_delete, "{doomed} segments: {tag}");
            // Segment unlinks come first after the manifest, one delete
            // op each, lowest first.
            inj.crash_delete_after(crash_at_delete);
            let v = kv.committed_version().0 + 1;
            assert!(
                kv.request_checkpoint(CheckpointVariant::FoldOver, false),
                "{tag}"
            );
            assert!(faster_pump(&kv, &mut s, v, 0, &tag), "{tag}");
            // The unlinking follows the commit's report.
            let deadline = Instant::now() + PUMP_DEADLINE;
            while !inj.crashed() {
                assert!(Instant::now() < deadline, "no unlink crash: {tag}");
                std::thread::sleep(Duration::from_millis(1));
            }
            let segs = log_segments(dir.path());
            assert_eq!(
                segs.first().copied(),
                Some(crash_at_delete),
                "unlinking froze at the crash: {segs:?}: {tag}"
            );
            (model, stats.until)
        };
        check_compacted_recovery(dir.path(), &model, until, &tag);
    }
}

/// The rollback case. Key `k`'s newest record is a version-v+1 update
/// written during the commit of v (so below that commit's `L_he`), and
/// its older record lies in the region a pass compacts. The pass finds
/// the older record dead and skips it; its begin address must not be
/// published by the commit of v, or recovering v (which rolls the v+1
/// record back) would lose `k`. Checked both ways: crash after the
/// commit of v, and after the commit of v+1 that publishes the begin.
#[test]
fn faster_compaction_rollback_keeps_committed_value() {
    let seed = compaction_seed();
    for publish in [false, true] {
        let tag = format!("faster compaction rollback publish={publish} seed={seed:#x}");
        println!("{tag}");
        let dir = tempfile::tempdir().unwrap();
        let (model, begin) = {
            // The whole log fits in memory: with `b` held back from
            // refreshing, nothing may wait for an epoch drain.
            let kv: FasterKv<u64> = faster_opts(dir.path(), None)
                .hlog(HlogConfig {
                    page_bits: 12,
                    memory_pages: 64,
                    mutable_pages: 8,
                    value_size: 8,
                })
                .open()
                .unwrap();
            let mut a = kv.start_session(7);
            let mut model = compaction_churn(&kv, &mut a, seed, 3, &tag);
            let begin = kv.hlog().begin_address();
            let mut b = kv.start_session(8);
            // A cold key: its only record is in the oldest segment.
            let key = (0..CKEYS)
                .find(|k| !k.wrapping_add(seed).is_multiple_of(3))
                .unwrap();
            let v = kv.committed_version().0 + 1;
            assert!(
                kv.request_checkpoint(CheckpointVariant::FoldOver, false),
                "{tag}"
            );
            b.refresh(); // b acknowledges PREPARE and then stays behind
            let deadline = Instant::now() + PUMP_DEADLINE;
            while a.info().phase != Phase::InProgress {
                assert!(Instant::now() < deadline, "no IN-PROGRESS: {tag}");
                a.refresh();
            }
            assert_eq!(b.info().phase, Phase::Prepare, "{tag}");
            // A version-v+1 update of the cold key.
            assert_eq!(a.upsert(key, 4242), cpr::faster::Status::Ok, "{tag}");
            // A pass started now waits out the commit of v, which ends
            // once `b` is gone. It finds the cold key's old record dead,
            // and the commit of v keeps the old begin.
            let stats = std::thread::scope(|sc| {
                let pass = sc.spawn(|| kv.compact_log(u64::MAX).unwrap());
                drop(b);
                assert!(faster_pump(&kv, &mut a, v, 0, &tag), "{tag}");
                while !pass.is_finished() {
                    a.refresh();
                    std::thread::sleep(Duration::from_micros(200));
                }
                pass.join().unwrap()
            });
            let stats = stats.unwrap_or_else(|| panic!("no pass: {tag}"));
            assert!(stats.until > begin, "{stats:?}: {tag}");
            assert_eq!(
                kv.hlog().begin_address(),
                begin,
                "published too early: {tag}"
            );
            if !publish {
                (model, begin)
            } else {
                model.insert(key, 4242);
                assert!(
                    kv.request_checkpoint(CheckpointVariant::FoldOver, false),
                    "{tag}"
                );
                assert!(faster_pump(&kv, &mut a, v + 1, 0, &tag), "{tag}");
                assert_eq!(kv.hlog().begin_address(), stats.until, "{tag}");
                (model, stats.until)
            }
        };
        check_compacted_recovery(dir.path(), &model, begin, &tag);
    }
}

/// Superseded marks survive a crash but may lie: here a record is marked
/// superseded by a version-v+1 update, flushed with the mark by the
/// commit of v, and then recovery rolls the update back. A pass over the
/// recovered log must still copy the record.
#[test]
fn faster_compaction_ignores_marks_of_rolled_back_updates() {
    let seed = compaction_seed();
    let tag = format!("faster compaction rolled-back mark seed={seed:#x}");
    let dir = tempfile::tempdir().unwrap();
    let opts = |dir: &std::path::Path| {
        faster_opts(dir, None).hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 64,
            mutable_pages: 8,
            value_size: 8,
        })
    };
    let key = (0..CKEYS)
        .find(|k| !k.wrapping_add(seed).is_multiple_of(3))
        .unwrap();
    let mut model = {
        let kv: FasterKv<u64> = opts(dir.path()).open().unwrap();
        let mut a = kv.start_session(7);
        let mut model = compaction_churn(&kv, &mut a, seed, 3, &tag);
        // A version-v record of the key, then a segment's worth of other
        // records, so a pass over the recovered log reaches it.
        a.upsert(key, 777);
        model.insert(key, 777);
        for k in CKEYS..CKEYS + 1000 {
            a.upsert(k, k);
            model.insert(k, k);
        }
        let mut b = kv.start_session(8);
        let v = kv.committed_version().0 + 1;
        assert!(
            kv.request_checkpoint(CheckpointVariant::FoldOver, false),
            "{tag}"
        );
        b.refresh();
        let deadline = Instant::now() + PUMP_DEADLINE;
        while a.info().phase != Phase::InProgress {
            assert!(Instant::now() < deadline, "no IN-PROGRESS: {tag}");
            a.refresh();
        }
        // Version v+1 supersedes the version-v record, which the commit
        // of v then flushes with its mark.
        assert_eq!(a.upsert(key, 4242), cpr::faster::Status::Ok, "{tag}");
        drop(b);
        assert!(faster_pump(&kv, &mut a, v, 0, &tag), "{tag}");
        model
    };
    let (kv, _) = opts(dir.path()).recover().unwrap();
    let mut s = kv.start_session(9);
    assert_eq!(faster_read(&mut s, key, &tag), Some(777), "{tag}");
    let stats = compact_refreshing(&kv, &mut s, &tag);
    let v = kv.committed_version().0 + 1;
    assert!(
        kv.request_checkpoint(CheckpointVariant::FoldOver, false),
        "{tag}"
    );
    assert!(faster_pump(&kv, &mut s, v, 0, &tag), "{tag}");
    assert_eq!(kv.hlog().begin_address(), stats.until, "{tag}");
    drop(s);
    drop(kv);
    model.insert(key, 777);
    check_compacted_recovery(dir.path(), &model, stats.until, &tag);
}
