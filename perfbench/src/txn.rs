//! `txn-contended`: the in-memory transactional database under CPR, with
//! Zipfian 4-access transactions retried until they commit and a commit
//! requested every 500 ms.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use cpr_core::Phase;
use cpr_memdb::{Abort, Access, Durability, MemDb, MemDbBuilder, Session, TxnRequest};
use cpr_workload::keys::KeyDist;
use cpr_workload::txn::{AccessType, TxnConfig, TxnGenerator};

use crate::common::*;
use crate::embedded::{Engine, Finished, OpCx};
use crate::stats;
use crate::trace;

const ROWS: u64 = 1 << 18;
/// Commit completion is polled this often in traced runs, to time the
/// version shift from outside.
const POLL: Duration = Duration::from_micros(100);

fn txn_config() -> TxnConfig {
    TxnConfig::mix(ROWS, KeyDist::Zipfian { theta: 0.9 }, 4, 50)
}

/// The database configuration. Sessions are refreshed by the benchmark
/// every [`REFRESH_EVERY`] transactions, so the store never refreshes on
/// its own.
fn builder(dir: &Path) -> MemDbBuilder<u64> {
    MemDb::builder(Durability::Cpr)
        .dir(dir)
        .capacity(ROWS as usize)
        .max_sessions(8)
        .refresh_every(u64::MAX)
}

/// A generated transaction in the engine's request form. Writes are
/// merges (`new = old + seed`), so the final state does not depend on the
/// order concurrent transactions commit in and can be checked exactly.
pub struct Request {
    accesses: Vec<(u64, Access)>,
    seeds: Vec<u64>,
}

fn next_request(gen: &mut TxnGenerator) -> Request {
    let txn = gen.next_txn();
    Request {
        accesses: txn
            .accesses
            .iter()
            .map(|&(k, a)| {
                let a = match a {
                    AccessType::Read => Access::Read,
                    AccessType::Write => Access::Merge,
                };
                (k, a)
            })
            .collect(),
        seeds: txn.write_vals,
    }
}

/// The `txn-contended` workload.
pub struct TxnContended;

impl Engine for TxnContended {
    type Store = MemDb<u64>;
    type Session = (Session<u64>, Vec<u64>);
    type Gen = TxnGenerator;
    type Op = Request;

    const NAME: &'static str = "txn-contended";
    const KEYS: u64 = ROWS;
    const THREADS: usize = 2;
    const CHUNK: usize = 256;
    const OP_SPAN: &'static str = "txn.op";
    const REFRESH_SPAN: &'static str = "memdb.refresh";

    fn open(&self, dir: &Path) -> io::Result<MemDb<u64>> {
        let db: MemDb<u64> = builder(dir).open()?;
        for k in 0..ROWS {
            db.load(k, k);
        }
        Ok(db)
    }

    fn session(&self, db: &MemDb<u64>, guid: u64) -> Self::Session {
        (db.session(guid), Vec::new())
    }

    fn generator(&self, seed: u64) -> TxnGenerator {
        TxnGenerator::new(txn_config(), seed)
    }

    fn next(&self, gen: &mut TxnGenerator) -> Request {
        next_request(gen)
    }

    /// Execute until the transaction commits: No-Wait conflicts and CPR
    /// version shifts abort it, and it is retried.
    fn execute(
        &self,
        _db: &MemDb<u64>,
        s: &mut Self::Session,
        req: &Request,
        cx: &mut OpCx,
    ) -> bool {
        let (s, reads) = s;
        let txn = TxnRequest {
            accesses: &req.accesses,
            write_seeds: &req.seeds,
        };
        loop {
            let call = cx
                .span
                .map(|root| cx.tracer.begin("memdb.execute", root, cx.req));
            let res = s.execute(&txn, reads);
            if let Some(c) = call {
                cx.tracer.end(c);
            }
            if cx.measuring {
                cx.tracer.tally("memdb.attempt", 0);
            }
            match res {
                Ok(()) => return true,
                Err(Abort::Conflict) | Err(Abort::CprShift) => std::hint::spin_loop(),
                Err(_) => return false,
            }
        }
    }

    fn refresh(&self, s: &mut Self::Session) {
        s.0.refresh();
    }

    fn durable_serial(&self, s: &mut Self::Session) -> u64 {
        s.0.durable_serial()
    }

    fn serial(&self, s: &Self::Session) -> u64 {
        s.0.info().serial
    }

    fn commit(&self, db: &MemDb<u64>, commits: &mut Commits, trace: bool) -> bool {
        commit(db, commits, trace)
    }

    fn scan(&self, db: &MemDb<u64>) -> Result<Vec<(u64, u64)>, String> {
        Ok(db.scan_all())
    }

    fn durable_point(&self, db: &MemDb<u64>, guid: u64) -> u64 {
        db.durable_point(guid)
    }

    fn recover(&self, dir: &Path, guids: &[u64]) -> io::Result<(MemDb<u64>, bool, Vec<u64>)> {
        let (db, manifest) = builder(dir).recover()?;
        let serials = guids.iter().map(|&g| db.continue_session(g).1).collect();
        Ok((db, manifest.is_some(), serials))
    }

    fn replay(&self, seed: u64, n: u64, sums: &mut [u64]) {
        let mut g = TxnGenerator::new(txn_config(), seed);
        for _ in 0..n {
            let txn = g.next_txn();
            let writes = txn.accesses.iter().filter(|(_, a)| *a == AccessType::Write);
            for (&(k, _), seed) in writes.zip(&txn.write_vals) {
                sums[k as usize] = sums[k as usize].wrapping_add(*seed);
            }
        }
    }

    fn finish(&self, run: &Finished, r: &mut Report) -> Vec<(&'static str, f64)> {
        let t = run.tracer;
        let attempts = t.tally_of("memdb.attempt").count;
        let per_txn = attempts as f64 / run.measured.ops.max(1) as f64;
        r.notes.push(format!(
            "attempts per committed txn: {per_txn:.4} ({attempts} / {})",
            run.measured.ops
        ));
        vec![
            (
                "memdb.attempt_ns_p50",
                trace::median_self_ns(t.spans(), &["memdb.execute"]),
            ),
            ("memdb.attempts_per_txn", per_txn),
            (
                "memdb.capture_ms",
                stats::median(&mut run.commits.capture_ms.clone()).unwrap_or(0.0),
            ),
            (
                "memdb.refresh_frac",
                t.tally_of("memdb.refresh").ns as f64 / run.session_ns,
            ),
        ]
    }
}

/// One commit: request it and wait until it is durable. Traced runs poll
/// the state machine instead of blocking, to time the version shift
/// (prepare + in-progress) from outside. False (and one failed op) if it
/// could not start or finish.
fn commit(db: &MemDb<u64>, commits: &mut Commits, poll: bool) -> bool {
    let v = db.state().1;
    commits.requested += 1;
    let t0 = Instant::now();
    if !db.request_commit() {
        commits.failed += 1;
        return false;
    }
    if poll {
        let mut shift = None;
        while db.committed_version().0 < v {
            let (phase, pv) = db.state();
            if shift.is_none() && (pv > v || !matches!(phase, Phase::Prepare | Phase::InProgress)) {
                shift = Some(t0.elapsed());
            }
            if t0.elapsed() > COMMIT_DEADLINE {
                commits.failed += 1;
                return false;
            }
            std::thread::sleep(POLL);
        }
        let shift = shift.unwrap_or_else(|| t0.elapsed());
        commits.shift_ms.push(shift.as_secs_f64() * 1e3);
    } else if !db.wait_for_version(v, COMMIT_DEADLINE) {
        commits.failed += 1;
        return false;
    }
    commits.ms.push(t0.elapsed().as_secs_f64() * 1e3);
    if let Some(d) = db.last_capture_duration() {
        commits.capture_ms.push(d.as_secs_f64() * 1e3);
    }
    true
}
