//! Side-by-side comparison of the three durability backends on the same
//! workload — a miniature of the paper's Fig. 2: CPR (this paper) vs CALC
//! (atomic commit log) vs WAL (group commit), single-key update
//! transactions on a low-contention key space.
//!
//! ```sh
//! cargo run --release --example durability_comparison
//! ```

use std::time::{Duration, Instant};

use cpr::memdb::{Access, Durability, MemDb, TxnRequest};
use cpr::workload::keys::KeyDist;
use cpr::workload::txn::{TxnConfig, TxnGenerator};

const KEYS: u64 = 100_000;
const SECONDS: f64 = 1.0;

fn run(system: Durability, name: &str) {
    let dir = tempfile::tempdir().expect("tempdir");
    let db: MemDb<u64> = MemDb::builder(system)
        .dir(dir.path())
        .capacity(KEYS as usize * 2)
        .open()
        .expect("open");
    for k in 0..KEYS {
        db.load(k, k);
    }

    let mut session = db.session(0);
    let mut generator = TxnGenerator::new(
        TxnConfig::mix(KEYS, KeyDist::Zipfian { theta: 0.1 }, 1, 50),
        42,
    );
    let mut reads = Vec::new();
    let mut accesses = Vec::new();
    let mut committed = 0u64;
    let started = Instant::now();
    let mut committed_once = false;
    while started.elapsed().as_secs_f64() < SECONDS {
        for _ in 0..1024 {
            let txn = generator.next_txn();
            accesses.clear();
            accesses.extend(txn.accesses.iter().map(|&(k, a)| {
                (
                    k,
                    match a {
                        cpr::workload::AccessType::Read => Access::Read,
                        cpr::workload::AccessType::Write => Access::Write,
                    },
                )
            }));
            let req = TxnRequest {
                accesses: &accesses,
                write_seeds: &txn.write_vals,
            };
            while session.execute(&req, &mut reads).is_err() {}
            committed += 1;
        }
        // One asynchronous commit mid-run: throughput should not dip.
        if !committed_once && started.elapsed().as_secs_f64() > SECONDS / 2.0 {
            committed_once = true;
            db.request_commit();
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if matches!(system, Durability::Cpr | Durability::Calc) {
        // Let the in-flight commit finish before reporting.
        while db.committed_version() < 1 {
            session.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    println!(
        "{name:>5}: {:>7.3} M txns/sec  ({committed} txns, durable prefix {})",
        committed as f64 / elapsed / 1e6,
        session.durable_serial(),
    );
}

fn main() {
    println!("single-key 50:50 update transactions, {KEYS} keys, one commit mid-run\n");
    run(Durability::Cpr, "CPR");
    run(Durability::Calc, "CALC");
    run(Durability::Wal, "WAL");
    println!(
        "\nCPR avoids both the commit-log append (CALC) and the redo-record\n\
         copy + LSN allocation (WAL) — on a many-core machine the gap grows\n\
         with thread count (paper Fig. 2); run `cpr-bench fig02` for the sweep."
    );
}
