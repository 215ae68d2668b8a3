//! Robustness and edge-case tests for the transactional database:
//! failure injection, commit-request races, the read-upgrade path during
//! version shifts, and a TPC-C-lite end-to-end cycle.

use std::time::Duration;

use cpr_memdb::{Abort, Access, Durability, MemDb, MemDbBuilder, TxnRequest};
use cpr_workload::tpcc::{TpccConfig, TpccGenerator};
use cpr_workload::txn::AccessType;

fn cpr_opts(dir: &std::path::Path) -> MemDbBuilder<u64> {
    MemDb::builder(Durability::Cpr)
        .dir(dir)
        .capacity(1 << 10)
        .refresh_every(4)
}

#[test]
fn truncated_checkpoint_data_is_a_recovery_error() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db: MemDb<u64> = cpr_opts(dir.path()).open().unwrap();
        for k in 0..50u64 {
            db.load(k, k);
        }
        db.commit_and_wait(Duration::from_secs(10)).unwrap();
    }
    let store = cpr_storage::CheckpointStore::open(dir.path()).unwrap();
    let token = store.tokens().unwrap()[0];
    // Truncate db.dat below its declared record count.
    let path = store.file(token, "db.dat");
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..data.len() / 2]).unwrap();
    assert!(
        cpr_opts(dir.path()).recover().is_err(),
        "truncated checkpoint must not recover silently"
    );
}

#[test]
fn second_commit_request_while_in_flight_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let db: MemDb<u64> = cpr_opts(dir.path()).open().unwrap();
    db.load(0, 0);
    let mut s = db.session(0);
    assert!(db.request_commit());
    // A second request in any non-rest phase must be refused, not queued.
    assert!(!db.request_commit());
    while db.committed_version() < 1 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    // After completion a new commit is accepted again.
    assert!(db.request_commit());
    while db.committed_version() < 2 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Read-only transactions during the shift exercise the shared-latch
/// upgrade path (a reader must still move the record's stable image to
/// version v+1 before reading in in-progress).
#[test]
fn read_only_txns_during_commit_stay_consistent() {
    let dir = tempfile::tempdir().unwrap();
    let db: MemDb<u64> = cpr_opts(dir.path()).open().unwrap();
    for k in 0..8u64 {
        db.load(k, 100 + k);
    }
    let mut s = db.session(0);
    let mut reads = Vec::new();

    assert!(db.request_commit());
    // Drive the whole commit with read-only transactions: the session
    // still transitions through every phase, and in in-progress the
    // reads themselves shift record versions via lock upgrade.
    let mut iterations = 0;
    while db.committed_version() < 1 {
        let accesses = [(iterations % 8, Access::Read)];
        let txn = TxnRequest {
            accesses: &accesses,
            write_seeds: &[],
        };
        match s.execute(&txn, &mut reads) {
            Ok(()) => {
                assert_eq!(reads[0], 100 + (iterations % 8), "read saw torn value");
            }
            Err(Abort::CprShift) => {} // retried next loop in the new phase
            Err(Abort::Conflict) => {}
            Err(other) => unreachable!("unexpected abort without a watchdog: {other:?}"),
        }
        iterations += 1;
        if iterations % 16 == 0 {
            s.refresh();
        }
        assert!(iterations < 1_000_000, "commit never completed");
    }
    drop(s);
    drop(db);
    let (db2, _) = cpr_opts(dir.path()).recover().unwrap();
    for k in 0..8u64 {
        assert_eq!(db2.read(k), Some(100 + k));
    }
}

/// TPC-C lite end to end: run a Payment/New-Order mix on the CPR
/// backend, commit, crash, recover — warehouse YTD totals must equal the
/// sum of committed payment amounts (money conservation on the merge
/// path) and order rows must exist exactly for pre-point orders.
#[test]
fn tpcc_lite_commit_and_recover() {
    let dir = tempfile::tempdir().unwrap();
    let warehouses = 2;
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(400_000)
            .refresh_every(8)
    };
    let cfg = TpccConfig::mix(warehouses, 50);
    let mut committed_payment_total = 0u64;
    let mut committed_orders: Vec<u64> = Vec::new();

    {
        let db: MemDb<[u64; 4]> = opts().open().unwrap();
        for k in cfg.preload_keys() {
            db.load(k, [0, 0, 0, 0]);
        }
        let mut s = db.session(0);
        let mut gen = TpccGenerator::new(cfg, 0, 99);
        let mut reads = Vec::new();
        let mut accesses = Vec::new();

        let mut run_txns = |s: &mut cpr_memdb::Session<[u64; 4]>,
                            n: usize,
                            record: bool,
                            payment_total: &mut u64,
                            orders: &mut Vec<u64>| {
            for _ in 0..n {
                let (kind, txn) = gen.next_txn();
                accesses.clear();
                // Payments use Merge so YTD sums are additive.
                let merge = kind == cpr_workload::tpcc::TpccKind::Payment;
                accesses.extend(txn.accesses.iter().map(|&(k, a)| {
                    (
                        k,
                        match a {
                            AccessType::Read => Access::Read,
                            AccessType::Write if merge => Access::Merge,
                            AccessType::Write => Access::Write,
                        },
                    )
                }));
                let req = TxnRequest {
                    accesses: &accesses,
                    write_seeds: &txn.write_vals,
                };
                while s.execute(&req, &mut reads).is_err() {}
                if record {
                    if merge {
                        *payment_total += txn.write_vals[0]; // warehouse YTD
                    } else {
                        for (k, _) in &txn.accesses {
                            if let Some((cpr_workload::tpcc::Table::Order, row)) =
                                cpr_workload::tpcc::decode(*k)
                            {
                                orders.push(row);
                            }
                        }
                    }
                }
            }
        };

        run_txns(
            &mut s,
            400,
            true,
            &mut committed_payment_total,
            &mut committed_orders,
        );
        db.request_commit();
        while db.committed_version() < 1 {
            s.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
        // Post-point work: lost on crash.
        let (mut scratch_total, mut scratch_orders) = (0, Vec::new());
        run_txns(&mut s, 200, false, &mut scratch_total, &mut scratch_orders);
    }

    let (db2, _) = opts().recover().unwrap();
    let ytd_total: u64 = (0..warehouses)
        .map(|w| {
            db2.read(cpr_workload::tpcc::warehouse_key(w))
                .map(|v| v[0])
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        ytd_total, committed_payment_total,
        "warehouse YTD totals must equal committed payment amounts"
    );
    for row in committed_orders {
        let key = cpr_workload::tpcc::key(cpr_workload::tpcc::Table::Order, row);
        assert!(db2.read(key).is_some(), "committed order {row} lost");
    }
}

/// Durability::None never writes anything and rejects commit requests.
#[test]
fn no_durability_mode_runs_without_a_directory() {
    let db: MemDb<u64> = MemDb::builder(Durability::None).open().unwrap();
    db.load(1, 10);
    let mut s = db.session(0);
    let mut reads = Vec::new();
    let accesses = [(1u64, Access::Write)];
    let seeds = [99u64];
    let req = TxnRequest {
        accesses: &accesses,
        write_seeds: &seeds,
    };
    s.execute(&req, &mut reads).unwrap();
    assert!(!db.request_commit());
    assert_eq!(db.read(1), Some(99));
}

/// Missing directory for a durable mode is an immediate open error.
#[test]
fn durable_modes_require_a_directory() {
    assert!(MemDb::<u64>::builder(Durability::Cpr).open().is_err());
    assert!(MemDb::<u64>::builder(Durability::Wal).open().is_err());
}

/// Sessions outliving the database handle keep working (Arc-based
/// lifetime), and their stats fold into the shared aggregate on drop.
#[test]
fn session_outlives_db_handle_and_merges_stats() {
    let dir = tempfile::tempdir().unwrap();
    let db: MemDb<u64> = cpr_opts(dir.path()).open().unwrap();
    db.load(1, 1);
    let db2 = db.clone();
    let mut s = db.session(0);
    drop(db);
    let accesses = [(1u64, Access::Write)];
    let seeds = [5u64];
    let req = TxnRequest {
        accesses: &accesses,
        write_seeds: &seeds,
    };
    let mut reads = Vec::new();
    for _ in 0..10 {
        s.execute(&req, &mut reads).unwrap();
    }
    drop(s);
    assert_eq!(db2.stats().committed, 10);
}
