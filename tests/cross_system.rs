//! Cross-crate integration: the same logical history applied to both
//! CPR-enabled systems (the transactional database and FASTER) must
//! produce identical recovered key-value states, and the epoch framework
//! must coordinate both without ever blocking worker progress.

use std::time::Duration;

use cpr::faster::{CheckpointVariant, FasterBuilder, FasterKv, HlogConfig, ReadResult};
use cpr::memdb::{Access, Durability, MemDb, TxnRequest};
use cpr::workload::keys::{KeyDist, Sampler};

/// Deterministic single-key upsert history.
fn history(n: usize, keys: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut sampler = Sampler::new(KeyDist::Zipfian { theta: 0.5 }, keys, seed);
    (0..n)
        .map(|i| {
            let k = sampler.next_key();
            (k, (i as u64) << 20 | k)
        })
        .collect()
}

#[test]
fn memdb_and_faster_agree_on_recovered_state() {
    const KEYS: u64 = 32;
    let ops = history(500, KEYS, 42);
    let committed = 300; // commit after this many ops; the rest is lost

    // --- memdb ---
    let dir_db = tempfile::tempdir().unwrap();
    let db_opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir_db.path())
            .capacity(128)
            .refresh_every(8)
    };
    {
        let db: MemDb<u64> = db_opts().open().unwrap();
        let mut s = db.session(0);
        let mut reads = Vec::new();
        for (i, &(k, v)) in ops.iter().enumerate() {
            let accesses = [(k, Access::Write)];
            let seeds = [v];
            let req = TxnRequest {
                accesses: &accesses,
                write_seeds: &seeds,
            };
            while s.execute(&req, &mut reads).is_err() {}
            if i + 1 == committed {
                db.request_commit();
                while db.committed_version() < 1 {
                    s.refresh();
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }
    let (db2, _) = db_opts().recover().unwrap();

    // --- faster ---
    let dir_kv = tempfile::tempdir().unwrap();
    let kv_opts = || {
        FasterBuilder::u64_sums(dir_kv.path())
            .hlog(HlogConfig {
                page_bits: 12,
                memory_pages: 32,
                mutable_pages: 16,
                value_size: 8,
            })
            .refresh_every(8)
    };
    {
        let kv: FasterKv<u64> = kv_opts().open().unwrap();
        let mut s = kv.start_session(0);
        for (i, &(k, v)) in ops.iter().enumerate() {
            s.upsert(k, v);
            if i + 1 == committed {
                while s.pending_len() > 0 {
                    s.refresh();
                }
                assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
                while kv.committed_version() < 1 {
                    s.refresh();
                    std::thread::sleep(Duration::from_micros(100));
                }
                assert_eq!(s.durable_serial(), committed as u64);
            }
        }
    }
    let (kv2, _) = kv_opts().recover().unwrap();
    let (mut s2, point) = kv2.continue_session(0);
    assert_eq!(point, committed as u64);

    // --- compare: both must equal the model prefix ---
    let mut model = std::collections::HashMap::new();
    for &(k, v) in &ops[..committed] {
        model.insert(k, v);
    }
    for key in 0..KEYS {
        let db_val = db2.read(key);
        let kv_val = match s2.read(key) {
            ReadResult::Found(v) => Some(v),
            ReadResult::NotFound => None,
            ReadResult::Evicted => panic!("session evicted"),
            ReadResult::Pending => {
                let mut out = Vec::new();
                loop {
                    s2.refresh();
                    s2.drain_completions(&mut out);
                    if let Some(c) = out.iter().find(|c| c.key == key) {
                        break c.value;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        };
        let expect = model.get(&key).copied();
        assert_eq!(db_val, expect, "memdb key {key}");
        assert_eq!(kv_val, expect, "faster key {key}");
    }
}

/// The durable prefix reported to a session is monotone and never
/// overtakes the accepted serial, across repeated commits on both
/// systems.
#[test]
fn durable_prefix_is_monotone_and_bounded() {
    let dir = tempfile::tempdir().unwrap();
    let kv: FasterKv<u64> = FasterBuilder::u64_sums(dir.path())
        .refresh_every(4)
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    let mut last_durable = 0;
    for round in 1..=4u64 {
        for i in 0..50u64 {
            s.upsert(i, round * 1000 + i);
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
        while kv.committed_version() < round {
            s.refresh();
            std::thread::sleep(Duration::from_micros(100));
        }
        let d = s.durable_serial();
        assert!(d >= last_durable, "durable prefix regressed");
        assert!(d <= s.serial(), "durable prefix overtook accepted serial");
        assert_eq!(d, round * 50, "commit {round} point");
        last_durable = d;
    }
}

/// Sessions joining and leaving mid-commit never deadlock the state
/// machine (registry conditions must tolerate churn).
#[test]
fn session_churn_during_commit_completes() {
    let dir = tempfile::tempdir().unwrap();
    let kv: FasterKv<u64> = FasterBuilder::u64_sums(dir.path())
        .refresh_every(4)
        .open()
        .unwrap();
    let mut s0 = kv.start_session(0);
    for i in 0..100u64 {
        s0.upsert(i, i);
    }
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
    // Churn: short-lived sessions appear and disappear while the commit
    // is in flight.
    for g in 1..6u64 {
        let mut s = kv.start_session(g);
        s.upsert(g, g);
        s.refresh();
        drop(s);
        s0.refresh();
    }
    assert!(
        kv.wait_for_version(1, Duration::from_secs(20)),
        "commit stalled under session churn: state {:?}",
        kv.state()
    );
}
