//! Engine adapters: one trait the server speaks, implemented for both
//! CPR engines ([`cpr_faster::FasterKv`] and [`cpr_memdb::MemDb`], served
//! as `u64` stores).
//!
//! The trait surface is exactly what a network session needs: establish
//! or resume a session by guid, apply a batch of serial-tagged ops,
//! request checkpoints, observe durable commits, and scan the committed
//! state. Sessions are created *on the connection's thread* (they are
//! not `Sync`, mirroring the paper's thread-affine sessions), so the
//! trait only requires the engine itself to be shareable.

use std::io;

use cpr_core::SessionCpr;
use cpr_faster::{BatchOp, BatchResult, CheckpointVariant, Completion, FasterKv, FasterSession};
use cpr_memdb::{Abort, Access, MemDb, Session as MemdbSession, TxnRequest};

use crate::wire::{checkpoint_variant, OpKind, OpReply, OpStatus, WireOp};

/// Durable-commit observer: commit version + every session's CPR point.
pub type CommitObserver = Box<dyn Fn(u64, &[SessionCpr]) + Send + Sync>;

/// A CPR engine servable over the network.
pub trait NetEngine: Send + Sync + 'static {
    type Session: NetSession;

    /// Establish or resume the session for `guid`; returns the session
    /// and the serial to resume from (see the engines'
    /// `continue_session` docs for live-reattach vs post-crash
    /// semantics).
    fn continue_session(&self, guid: u64) -> (Self::Session, u64);

    /// Kick off a checkpoint; `false` if one is already in flight.
    /// `variant` uses [`checkpoint_variant`] codes (ignored by engines
    /// with a single checkpoint flavor).
    fn request_checkpoint(&self, variant: u8, log_only: bool) -> bool;

    /// Register a durable-commit observer (commit version + every
    /// session's CPR point). Runs on the engine's checkpoint thread.
    fn on_commit(&self, cb: CommitObserver);

    /// Newest durable checkpoint version (0 = none).
    fn committed_version(&self) -> u64;

    /// Every live `(key, value)` pair, sorted by key.
    fn scan(&self) -> io::Result<Vec<(u64, u64)>>;
}

/// One engine session bound to a connection thread.
pub trait NetSession {
    /// Apply ops in order, driving any pending operations to completion,
    /// and append one reply per op (same order) to `out`. The caller
    /// guarantees `ops[i].serial` continues the session's serial
    /// sequence contiguously.
    fn apply_batch(&mut self, ops: &[WireOp], out: &mut Vec<OpReply>);

    /// Participate in the CPR state machine while idle (epoch refresh).
    fn refresh(&mut self);

    /// Serial of the last accepted op.
    fn serial(&self) -> u64;
}

// ---- FASTER ----------------------------------------------------------------

impl NetEngine for FasterKv<u64> {
    type Session = FasterNetSession;

    fn continue_session(&self, guid: u64) -> (Self::Session, u64) {
        let (session, resume) = FasterKv::continue_session(self, guid);
        let session = FasterNetSession {
            session,
            ops: Vec::new(),
            results: Vec::new(),
            done: Vec::new(),
        };
        (session, resume)
    }

    fn request_checkpoint(&self, variant: u8, log_only: bool) -> bool {
        let variant = if variant == checkpoint_variant::SNAPSHOT {
            CheckpointVariant::Snapshot
        } else {
            CheckpointVariant::FoldOver
        };
        FasterKv::request_checkpoint(self, variant, log_only)
    }

    fn on_commit(&self, cb: CommitObserver) {
        FasterKv::on_commit(self, cb)
    }

    fn committed_version(&self) -> u64 {
        FasterKv::committed_version(self).0
    }

    fn scan(&self) -> io::Result<Vec<(u64, u64)>> {
        self.scan_all()
    }
}

/// A FASTER session serving one connection, with the buffers its batches
/// reuse.
pub struct FasterNetSession {
    session: FasterSession<u64>,
    ops: Vec<BatchOp<u64>>,
    results: Vec<BatchResult<u64>>,
    done: Vec<Completion<u64>>,
}

impl From<WireOp> for BatchOp<u64> {
    fn from(op: WireOp) -> Self {
        match op.kind {
            OpKind::Read => BatchOp::Read(op.key),
            OpKind::Upsert => BatchOp::Upsert(op.key, op.arg),
            OpKind::Rmw => BatchOp::Rmw(op.key, op.arg),
            OpKind::Delete => BatchOp::Delete(op.key),
        }
    }
}

impl NetSession for FasterNetSession {
    fn apply_batch(&mut self, ops: &[WireOp], out: &mut Vec<OpReply>) {
        self.ops.clear();
        self.ops.extend(ops.iter().map(|&op| BatchOp::from(op)));
        self.results.clear();
        // The caller keeps wire serials aligned with the session's
        // internal counter: op `i` gets engine serial `first + i`.
        let first = self.session.serial() + 1;
        self.session.apply_batch(&self.ops, &mut self.results);
        let base = out.len();
        let mut pending = false;
        out.extend(ops.iter().zip(&self.results).map(|(op, r)| {
            let (status, value) = match *r {
                BatchResult::Found(v) => (OpStatus::Ok, Some(v)),
                BatchResult::NotFound => (OpStatus::NotFound, None),
                BatchResult::Done => (OpStatus::Ok, None),
                BatchResult::Pending => {
                    pending = true;
                    (OpStatus::Ok, None)
                }
                BatchResult::Evicted => (OpStatus::Evicted, None),
            };
            OpReply {
                serial: op.serial,
                status,
                value,
            }
        }));
        if !pending {
            return;
        }
        // Batch acks mean "applied": drive every pending op home before
        // replying.
        while self.session.pending_len() > 0 {
            self.session.refresh();
            self.session.complete_pending();
            std::hint::spin_loop();
        }
        self.done.clear();
        self.session.drain_completions(&mut self.done);
        for c in &self.done {
            let Some(i) = c.serial.checked_sub(first).map(|i| i as usize) else {
                continue;
            };
            if i < ops.len() && ops[i].kind == OpKind::Read {
                out[base + i].status = if c.value.is_some() {
                    OpStatus::Ok
                } else {
                    OpStatus::NotFound
                };
                out[base + i].value = c.value;
            }
        }
    }

    fn refresh(&mut self) {
        self.session.refresh();
        self.session.complete_pending();
    }

    fn serial(&self) -> u64 {
        self.session.serial()
    }
}

// ---- MemDb -----------------------------------------------------------------

impl NetEngine for MemDb<u64> {
    type Session = MemdbSession<u64>;

    fn continue_session(&self, guid: u64) -> (Self::Session, u64) {
        MemDb::continue_session(self, guid)
    }

    fn request_checkpoint(&self, _variant: u8, _log_only: bool) -> bool {
        // The transactional DB has one checkpoint flavor (capture).
        self.request_commit()
    }

    fn on_commit(&self, cb: CommitObserver) {
        MemDb::on_commit(self, cb)
    }

    fn committed_version(&self) -> u64 {
        MemDb::committed_version(self).0
    }

    fn scan(&self) -> io::Result<Vec<(u64, u64)>> {
        Ok(self.scan_all())
    }
}

impl NetSession for MemdbSession<u64> {
    fn apply_batch(&mut self, ops: &[WireOp], out: &mut Vec<OpReply>) {
        out.reserve(ops.len());
        let mut reads: Vec<u64> = Vec::with_capacity(1);
        for op in ops {
            let access = match op.kind {
                OpKind::Read => Access::Read,
                OpKind::Upsert => Access::Write,
                OpKind::Rmw => Access::Merge,
                OpKind::Delete => Access::Delete,
            };
            let accesses = [(op.key, access)];
            let seeds = [op.arg];
            let req = TxnRequest {
                accesses: &accesses,
                write_seeds: if matches!(op.kind, OpKind::Upsert | OpKind::Rmw) {
                    &seeds
                } else {
                    &[]
                },
            };
            let status = loop {
                match self.execute(&req, &mut reads) {
                    Ok(()) => break OpStatus::Ok,
                    // No-Wait conflicts and CPR shifts are transient
                    // (execute() already refreshed after a shift);
                    // single-key transactions cannot deadlock.
                    Err(Abort::Conflict) => std::hint::spin_loop(),
                    Err(Abort::CprShift) => {}
                    Err(Abort::SessionEvicted) => break OpStatus::Evicted,
                    Err(_) => break OpStatus::Evicted,
                }
            };
            // Reads of absent keys yield the zero value — the
            // transactional DB has no key-existence notion, so NotFound
            // is never reported here (unlike the FASTER adapter).
            let value = (op.kind == OpKind::Read && status == OpStatus::Ok)
                .then(|| reads.first().copied().unwrap_or(0));
            out.push(OpReply {
                serial: op.serial,
                status,
                value,
            });
        }
    }

    fn refresh(&mut self) {
        MemdbSession::refresh(self);
    }

    fn serial(&self) -> u64 {
        MemdbSession::serial(self)
    }
}
