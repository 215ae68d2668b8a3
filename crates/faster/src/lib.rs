//! A from-scratch Rust implementation of the **FASTER** key-value store
//! with **Concurrent Prefix Recovery (CPR)** durability — the larger-than-
//! memory system of the paper's Secs. 5–6.
//!
//! Components:
//! * [`index::HashIndex`] — latch-free hash index (8-entry cache-line
//!   buckets, tentative-bit inserts, fuzzy checkpoints);
//! * [`hlog::HybridLog`] — log-structured record store spanning memory
//!   and storage with in-place updates in the mutable region;
//! * [`FasterSession`] — sessions with monotone serial numbers, pending
//!   operations, and per-session CPR points;
//! * checkpoints — fold-over & snapshot variants, fine- & coarse-grained
//!   version shifts, fuzzy index checkpoints, and Alg. 3 recovery;
//! * compaction — live records copied off the oldest part of the log so
//!   the log can be truncated, keeping its size proportional to live data.
//!
//! # Quickstart
//! ```
//! use cpr_faster::{CheckpointVariant, FasterBuilder, ReadResult, Status};
//!
//! let dir = tempfile::tempdir().unwrap();
//! let kv = FasterBuilder::u64_sums(dir.path()).open().unwrap();
//! let mut session = kv.start_session(7);
//!
//! assert_eq!(session.upsert(1, 100), Status::Ok);
//! assert_eq!(session.rmw(1, 5), Status::Ok); // running sum
//! assert_eq!(session.read(1), ReadResult::Found(105));
//!
//! // CPR commit: returns immediately; sessions keep working and the
//! // commit completes as they refresh.
//! assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
//! while kv.committed_version() < 1 {
//!     session.refresh();
//! }
//! assert_eq!(session.durable_serial(), 3);
//! ```

pub mod addr;
mod checkpoint;
mod compact;
pub mod header;
pub mod hlog;
pub mod index;
mod io;
mod prefetch;
mod recovery;
mod session;
mod store;

pub use compact::{CompactionStats, COMPACT_SPAN_FACTOR};
pub use cpr_core::liveness::{
    Clock, CommitOutcome, LivenessConfig, SessionStatus, SystemClock, VirtualClock,
};
pub use cpr_core::{CheckpointVersion, CommitCallback, SessionInfo};
pub use hlog::{HlogConfig, HybridLog};
pub use index::HashIndex;
pub use session::{
    BatchOp, BatchResult, Completion, FasterSession, OpKind, ReadResult, SessionStats, Status,
};
pub use store::{CheckpointVariant, FasterBuilder, FasterKv, FasterStore, VersionGrain};
