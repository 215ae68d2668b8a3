//! Property-based crash-recovery tests: for randomized operation
//! schedules and commit points, the recovered state must equal a model
//! replay of exactly the committed prefix (all-before / none-after —
//! paper Definition 1).

use std::collections::HashMap;
use std::time::Duration;

use proptest::prelude::*;

use cpr::faster::{
    CheckpointVariant, FasterBuilder, FasterKv, HlogConfig, ReadResult, VersionGrain,
};
use cpr::memdb::{Access, DbValue, Durability, MemDb, TxnRequest};

/// One single-key operation in a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert {
        key: u64,
        val: u64,
    },
    Merge {
        key: u64,
        delta: u64,
    },
    /// Deletes must cross the live/stable version-shift path like writes:
    /// a delete before the CPR point is durable, one after is discarded.
    Delete {
        key: u64,
    },
}

fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keys, 0u64..1_000_000).prop_map(|(key, val)| Op::Upsert { key, val }),
        (0..keys, 1u64..100).prop_map(|(key, delta)| Op::Merge { key, delta }),
        (0..keys).prop_map(|key| Op::Delete { key }),
    ]
}

fn model_apply(model: &mut HashMap<u64, u64>, op: Op) {
    match op {
        Op::Upsert { key, val } => {
            model.insert(key, val);
        }
        Op::Merge { key, delta } => {
            *model.entry(key).or_insert(0) =
                model.get(&key).copied().unwrap_or(0).wrapping_add(delta);
        }
        Op::Delete { key } => {
            model.remove(&key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full checkpoint + recovery cycle
        .. ProptestConfig::default()
    })]

    /// memdb (CPR): ops before the commit are recovered exactly; ops after
    /// are discarded.
    #[test]
    fn memdb_cpr_recovers_exact_prefix(
        pre in prop::collection::vec(op_strategy(16), 1..60),
        post in prop::collection::vec(op_strategy(16), 0..40),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let opts = || MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(64)
            .refresh_every(4);
        let mut model: HashMap<u64, u64> = HashMap::new();

        {
            let db: MemDb<u64> = opts().open().unwrap();
            let mut s = db.session(1);
            let mut reads = Vec::new();
            let mut run = |s: &mut cpr::memdb::Session<u64>, op: Op, model: Option<&mut HashMap<u64,u64>>| {
                let (access, key, seed) = match op {
                    Op::Upsert { key, val } => (Access::Write, key, val),
                    Op::Merge { key, delta } => (Access::Merge, key, delta),
                    Op::Delete { key } => (Access::Delete, key, 0), // seed unused
                };
                let accesses = [(key, access)];
                let seeds = [seed];
                let req = TxnRequest { accesses: &accesses, write_seeds: &seeds };
                while s.execute(&req, &mut reads).is_err() {}
                if let Some(m) = model { model_apply(m, op); }
            };
            for &op in &pre {
                run(&mut s, op, Some(&mut model));
            }
            db.request_commit();
            while db.committed_version() < 1 {
                s.refresh();
                std::thread::sleep(Duration::from_micros(200));
            }
            prop_assert_eq!(s.durable_serial(), pre.len() as u64);
            for &op in &post {
                run(&mut s, op, None); // lost on crash
            }
        }

        let (db2, manifest) = opts().recover().unwrap();
        let manifest = manifest.unwrap();
        prop_assert_eq!(manifest.cpr_point(1), Some(pre.len() as u64));
        for key in 0..16u64 {
            prop_assert_eq!(
                db2.read(key),
                model.get(&key).copied(),
                "key {} after recovery", key
            );
        }
    }

    /// memdb (WAL): after an explicit sync, replay recovers everything.
    #[test]
    fn memdb_wal_replays_synced_history(
        ops in prop::collection::vec(op_strategy(8), 1..80),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let opts = || MemDb::builder(Durability::Wal)
            .dir(dir.path())
            .capacity(64)
            .group_commit(Duration::from_millis(1));
        let mut model: HashMap<u64, u64> = HashMap::new();
        {
            let db: MemDb<u64> = opts().open().unwrap();
            let mut s = db.session(1);
            let mut reads = Vec::new();
            for &op in &ops {
                let (access, key, seed) = match op {
                    Op::Upsert { key, val } => (Access::Write, key, val),
                    Op::Merge { key, delta } => (Access::Merge, key, delta),
                    Op::Delete { key } => (Access::Delete, key, 0), // seed unused
                };
                let accesses = [(key, access)];
                let seeds = [seed];
                let req = TxnRequest { accesses: &accesses, write_seeds: &seeds };
                while s.execute(&req, &mut reads).is_err() {}
                model_apply(&mut model, op);
            }
            db.request_commit(); // WAL sync
        }
        let (db2, _) = opts().recover().unwrap();
        for key in 0..8u64 {
            prop_assert_eq!(db2.read(key), model.get(&key).copied(), "key {}", key);
        }
    }

    /// FASTER: randomized upsert/RMW schedules, commit, crash, recover —
    /// state equals the model prefix, and continue_session reports the
    /// exact prefix length.
    #[test]
    fn faster_recovers_exact_prefix(
        pre in prop::collection::vec(op_strategy(24), 1..60),
        post in prop::collection::vec(op_strategy(24), 0..40),
        snapshot in any::<bool>(),
        coarse in any::<bool>(),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let opts = || FasterBuilder::u64_sums(dir.path())
            .hlog(HlogConfig {
                page_bits: 12,
                memory_pages: 16,
                mutable_pages: 8,
                value_size: 8,
            })
            .grain(if coarse { VersionGrain::Coarse } else { VersionGrain::Fine })
            .refresh_every(4);
        let variant = if snapshot {
            CheckpointVariant::Snapshot
        } else {
            CheckpointVariant::FoldOver
        };
        let mut model: HashMap<u64, u64> = HashMap::new();
        {
            let kv: FasterKv<u64> = opts().open().unwrap();
            let mut s = kv.start_session(9);
            for &op in &pre {
                match op {
                    Op::Upsert { key, val } => { s.upsert(key, val); }
                    Op::Merge { key, delta } => { s.rmw(key, delta); }
                    Op::Delete { key } => { s.delete(key); }
                }
                model_apply(&mut model, op);
            }
            while s.pending_len() > 0 { s.refresh(); }
            prop_assert!(kv.request_checkpoint(variant, false));
            while kv.committed_version() < 1 {
                s.refresh();
                std::thread::sleep(Duration::from_micros(200));
            }
            prop_assert_eq!(s.durable_serial(), pre.len() as u64);
            for &op in &post {
                match op {
                    Op::Upsert { key, val } => { s.upsert(key, val); }
                    Op::Merge { key, delta } => { s.rmw(key, delta); }
                    Op::Delete { key } => { s.delete(key); }
                }
            }
        }
        let (kv, _) = opts().recover().unwrap();
        let (mut s, point) = kv.continue_session(9);
        prop_assert_eq!(point, pre.len() as u64);
        for key in 0..24u64 {
            let got = match s.read(key) {
                ReadResult::Found(v) => Some(v),
                ReadResult::NotFound => None,
                ReadResult::Evicted => panic!("session evicted"),
                ReadResult::Pending => {
                    let mut out = Vec::new();
                    let mut res = None;
                    for _ in 0..5000 {
                        s.refresh();
                        s.drain_completions(&mut out);
                        if let Some(c) = out.iter().find(|c| c.key == key) {
                            res = Some(c.value);
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    res.expect("pending read completed")
                }
            };
            prop_assert_eq!(got, model.get(&key).copied(), "key {}", key);
        }
    }

    /// DbValue merge semantics used by the ledger example: sequences of
    /// merges commute with the model.
    #[test]
    fn merge_matches_wrapping_sum(deltas in prop::collection::vec(any::<u64>(), 0..50)) {
        let mut v = 0u64;
        for &d in &deltas {
            v = DbValue::merge(v, d);
        }
        let expect = deltas.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(v, expect);
    }
}
