//! The record arena under recovery: a table grown past its capacity hint
//! by racing runtime inserts recovers to the same state at any recovery
//! thread count, and the recovered table checkpoints to the same bytes at
//! any capture thread count.

use std::path::Path;
use std::time::Duration;

use cpr_memdb::{Access, Durability, MemDb, MemDbBuilder, TxnRequest};
use cpr_storage::CheckpointStore;

/// More rows than one chunk of slots holds.
const ROWS: u64 = 20_000;

fn builder(dir: &Path) -> MemDbBuilder<u64> {
    MemDb::builder(Durability::Cpr).dir(dir).capacity(64)
}

/// Four threads each merge into every row, in different orders, so most
/// rows are inserted at runtime by racing sessions.
fn grow(db: &MemDb<u64>) {
    std::thread::scope(|sc| {
        for (t, stride) in [1u64, 3, 7, 9].into_iter().enumerate() {
            let db = db.clone();
            sc.spawn(move || {
                let mut s = db.session(t as u64 + 1);
                let mut reads = Vec::new();
                for i in 0..ROWS {
                    let accesses = [(i * stride % ROWS, Access::Merge)];
                    let seeds = [i + t as u64];
                    let req = TxnRequest {
                        accesses: &accesses,
                        write_seeds: &seeds,
                    };
                    while s.execute(&req, &mut reads).is_err() {}
                }
            });
        }
    });
}

fn commit(db: &MemDb<u64>) {
    let (_, v) = db.state();
    assert!(db.request_commit());
    assert!(db.wait_for_version(v, Duration::from_secs(20)));
}

/// `db.dat` of the newest checkpoint under `dir`.
fn newest_db_dat(dir: &Path) -> Vec<u8> {
    let store = CheckpointStore::open(dir).unwrap();
    let token = store.latest().unwrap().unwrap().token;
    store.read_file(token, "db.dat").unwrap()
}

#[test]
fn recovery_and_capture_are_independent_of_thread_counts() {
    let dir = tempfile::tempdir().unwrap();
    let (state, bytes) = {
        let db = builder(dir.path()).io_threads(1).open().unwrap();
        grow(&db);
        assert_eq!(db.len(), ROWS as usize);
        commit(&db);
        (db.scan_all(), newest_db_dat(dir.path()))
    };
    assert_eq!(state.len(), ROWS as usize);

    for threads in [1usize, 2, 4] {
        let (db, manifest) = builder(dir.path()).io_threads(threads).recover().unwrap();
        assert!(manifest.is_some());
        assert!(db.scan_all() == state, "{threads} recovery threads");
        // Recovery lays the records out in file order, so a full
        // checkpoint of the recovered table rewrites the same bytes.
        commit(&db);
        assert!(
            newest_db_dat(dir.path()) == bytes,
            "{threads} capture threads"
        );
    }
}
