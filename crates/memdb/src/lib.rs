//! An in-memory transactional database with **Concurrent Prefix Recovery**
//! (paper Sec. 4), plus the two baselines the paper compares against:
//! **CALC** (atomic-commit-log checkpointing) and a traditional **WAL**
//! with group commit.
//!
//! * Concurrency control: strict two-phase locking with a No-Wait
//!   deadlock-avoidance policy — lock acquisition never blocks.
//! * Every record carries two values, *live* and *stable*, and a version;
//!   a CPR commit shifts the database from version `v` to `v + 1` while a
//!   background pass captures the version-`v` snapshot (Algs. 1 & 2).
//! * The commit is coordinated lazily through the epoch framework: worker
//!   threads observe phase changes only when they refresh, so the hot
//!   path carries no extra synchronization.
//!
//! # Quickstart
//! ```
//! use cpr_memdb::{Access, Durability, MemDb, TxnRequest};
//!
//! let dir = tempfile::tempdir().unwrap();
//! let db: MemDb<u64> = MemDb::builder(Durability::Cpr)
//!     .dir(dir.path())
//!     .open()
//!     .unwrap();
//! db.load(1, 10);
//! db.load(2, 20);
//!
//! let mut session = db.session(0);
//! let mut reads = Vec::new();
//! let txn = TxnRequest {
//!     accesses: &[(1, Access::Write), (2, Access::Read)],
//!     write_seeds: &[99],
//! };
//! session.execute(&txn, &mut reads).unwrap();
//! assert_eq!(reads, vec![20]);
//!
//! // Commit: all transactions up to each session's CPR point become
//! // durable; sessions keep refreshing until it completes.
//! assert!(db.request_commit());
//! while db.committed_version() < 1 {
//!     session.refresh();
//! }
//! assert_eq!(session.durable_serial(), 1);
//! ```

mod calc;
mod checkpoint;
mod client;
mod db;
mod error;
mod record;
mod stats;
mod table;
mod value;
mod wal;

pub use calc::CommitLog;
pub use client::{Access, Session, TxnRequest};
pub use cpr_core::liveness::{
    Clock, CommitOutcome, LivenessConfig, SessionStatus, SystemClock, VirtualClock,
};
pub use cpr_core::{CheckpointVersion, NoWaitLock, SessionInfo};
pub use db::{Durability, MemDb, MemDbBuilder};
pub use error::{Abort, CommitError, RecoveryError};
pub use record::Record;
pub use stats::ClientStats;
pub use table::Table;
pub use value::DbValue;
pub use wal::Wal;
