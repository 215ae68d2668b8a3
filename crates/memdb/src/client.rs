//! Client sessions and the transaction executor (paper Alg. 1).
//!
//! All transactions of a client are processed by one thread; a [`Session`]
//! is that thread's handle. It carries the thread-local view of the global
//! (phase, version), refreshed lazily via the epoch framework; avoiding
//! per-transaction synchronization of this state is the key to CPR's
//! scalability.

use std::sync::Arc;
use std::time::Instant;

use cpr_core::liveness::{BusyState, SessionStatus};
use cpr_core::{Entry, Participant, Phase, Refreshed, SessionInfo};
use cpr_metrics::Registry;

use crate::db::{DbInner, Durability};
use crate::error::Abort;
use crate::stats::ClientStats;
use crate::table::Table;
use crate::value::DbValue;

/// Access mode, mirroring `cpr_workload::AccessType` without the
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    /// Blind write: the record takes `DbValue::from_seed(seed)`.
    Write,
    /// Read-modify-write: the record takes `old.merge(seed)` — atomic
    /// within the transaction (both lock and apply under 2PL).
    Merge,
    /// Tombstone the record: subsequent reads see it as absent. Consumes
    /// no write seed. The record slot survives so the delete crosses the
    /// live/stable version-shift path exactly like a write.
    Delete,
}

/// One transaction: unique keys with access modes, plus a value seed per
/// write (consumed in access order).
#[derive(Debug, Clone)]
pub struct TxnRequest<'a> {
    pub accesses: &'a [(u64, Access)],
    pub write_seeds: &'a [u64],
}

/// A client session (paper Sec. 5.2 applied to the transactional DB).
pub struct Session<V: DbValue> {
    db: Arc<DbInner<V>>,
    /// The session's part in the CPR protocol; its serial is that of the
    /// last *committed* transaction.
    part: Participant,
    /// Metrics sink (cached Arc + enabled flag so the hot path pays one
    /// branch, no pointer chase, when metrics are off).
    metrics: Arc<Registry>,
    metrics_on: bool,
    /// Test hook: runs right after the session enters a transaction
    /// (busy = in-txn, before lock acquisition).
    pause_in_txn: Option<Box<dyn FnMut() + Send>>,
    /// Test hook: runs while the transaction's 2PL locks are held.
    pause_locked: Option<Box<dyn FnMut() + Send>>,
    /// Lock set of the transaction attempt in flight: (slot id,
    /// exclusive) per access, in acquisition order. Reused across
    /// attempts, so executing allocates nothing.
    locked: Vec<(u32, bool)>,
    /// Redo payload of the WAL transaction in flight, reused likewise.
    wal_payload: Vec<u8>,
    pub stats: ClientStats,
}

impl<V: DbValue> Session<V> {
    pub(crate) fn new(db: Arc<DbInner<V>>, guid: u64, start_serial: u64) -> Self {
        let clock = db.opts.liveness.as_ref().map(|l| Arc::clone(&l.clock));
        let part = Participant::attach(&db.core, &db.epoch, guid, start_serial, clock);
        let metrics = Arc::clone(&db.opts.metrics);
        let metrics_on = metrics.is_enabled();
        Session {
            db,
            part,
            metrics,
            metrics_on,
            pause_in_txn: None,
            pause_locked: None,
            locked: Vec::new(),
            wal_payload: Vec::new(),
            stats: ClientStats::default(),
        }
    }

    /// Install a hook that runs at the start of every transaction, after
    /// the session is marked busy but before locks are taken. Test-only:
    /// lets liveness tests park a thread mid-transaction.
    #[doc(hidden)]
    pub fn set_pause_in_txn(&mut self, f: impl FnMut() + Send + 'static) {
        self.pause_in_txn = Some(Box::new(f));
    }

    /// Install a hook that runs while a transaction's locks are held.
    /// Test-only: lets liveness tests park a stalled lock holder.
    #[doc(hidden)]
    pub fn set_pause_locked(&mut self, f: impl FnMut() + Send + 'static) {
        self.pause_locked = Some(Box::new(f));
    }

    /// True once the watchdog has evicted this session.
    pub fn is_evicted(&self) -> bool {
        self.part.is_evicted(&self.db.core)
    }

    pub fn guid(&self) -> u64 {
        self.part.guid
    }

    /// Serial number of the last committed transaction.
    pub fn serial(&self) -> u64 {
        self.part.serial
    }

    /// Snapshot of this session's identity and thread-local state-machine
    /// view. Shares its shape with `cpr-faster`'s sessions.
    pub fn info(&self) -> SessionInfo {
        self.part.info()
    }

    /// Publish the local epoch, adopt any global state change, and mark a
    /// CPR point when crossing prepare → in-progress (paper Alg. 1).
    pub fn refresh(&mut self) {
        let changed = self.part.refresh(&self.db.core, |_, _| {}) == Refreshed::Changed;
        if changed && self.part.phase != Phase::Rest {
            // A commit is in flight: cede the CPU so the capture thread
            // makes progress even on a single core.
            std::thread::yield_now();
        }
    }

    /// Largest serial number known durable for this session: every
    /// transaction with serial ≤ this survives any crash. In WAL mode that
    /// is the last explicit sync ([`Session::note_wal_synced`]).
    pub fn durable_serial(&mut self) -> u64 {
        self.part.durable_serial(&self.db.core)
    }

    /// Execute one transaction. Reads are appended to `reads` (cleared
    /// first). On `Abort::Conflict` the caller may retry; on
    /// `Abort::CprShift` the session has already refreshed and an
    /// immediate retry executes in the new phase (at most one such abort
    /// per commit — paper Sec. 4.1).
    pub fn execute(&mut self, txn: &TxnRequest<'_>, reads: &mut Vec<V>) -> Result<(), Abort> {
        reads.clear();
        self.part.ops_since_refresh += 1;
        if self.part.ops_since_refresh >= self.db.opts.refresh_every {
            self.refresh();
        }
        if self.part.live() {
            self.begin_op()?;
        }
        if let Some(mut f) = self.pause_in_txn.take() {
            f();
            self.pause_in_txn = Some(f);
        }
        let profile = self.db.opts.profile;
        let t0 = profile.then(Instant::now);
        let m0 = self.metrics_on.then(Instant::now);

        let result = match self.db.opts.durability {
            Durability::Wal => self.exec_wal(txn, reads, profile),
            _ => self.exec_versioned(txn, reads),
        };
        self.part.set_busy(&self.db.core, BusyState::Idle);

        match result {
            Ok(()) => {
                self.part.serial += 1;
                self.part.publish_serial(&self.db.core);
                self.stats.committed += 1;
                if let Some(t0) = t0 {
                    let side = self.stats.take_pending_side_ns();
                    self.stats.exec_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(side);
                }
                if let Some(m0) = m0 {
                    let reads = txn
                        .accesses
                        .iter()
                        .filter(|&&(_, a)| a == Access::Read)
                        .count() as u64;
                    let writes = txn.accesses.len() as u64 - reads;
                    self.metrics.record_commit(m0.elapsed(), reads, writes);
                }
                Ok(())
            }
            Err(a) => {
                match a {
                    Abort::Conflict => self.stats.aborts_conflict += 1,
                    Abort::CprShift => self.stats.aborts_cpr += 1,
                    Abort::SessionEvicted => self.stats.aborts_evicted += 1,
                }
                if let Some(t0) = t0 {
                    let _ = self.stats.take_pending_side_ns();
                    self.stats.abort_ns += t0.elapsed().as_nanos() as u64;
                }
                if self.metrics_on {
                    self.metrics.record_abort();
                }
                if a == Abort::CprShift {
                    // Paper: the thread refreshes immediately so the retry
                    // runs in the new phase.
                    self.refresh();
                }
                Err(a)
            }
        }
    }

    /// Enter the busy window through the watchdog entry protocol. A
    /// suspended session adopts the state published on its behalf and
    /// retries; an evicted one fails fast with a sticky error.
    fn begin_op(&mut self) -> Result<(), Abort> {
        loop {
            match self.part.try_begin_op(&self.db.core) {
                Entry::Entered => return Ok(()),
                Entry::Resumed => self.refresh(),
                Entry::Evicted => return Err(Abort::SessionEvicted),
            }
        }
    }

    /// Executor for CPR / CALC / no-durability modes (paper Alg. 1).
    fn exec_versioned(&mut self, txn: &TxnRequest<'_>, reads: &mut Vec<V>) -> Result<(), Abort> {
        let table = &self.db.table;
        let v = self.part.version;
        let phase = self.part.phase;
        // The version new records/writes belong to.
        let txn_version = self.part.txn_version();

        // From here we acquire (and then hold) 2PL locks: the watchdog
        // must not evict us — its only remedy for a straggler in this
        // window is aborting the checkpoint and backing off.
        self.part.set_busy(&self.db.core, BusyState::Locking);

        // Acquire phase: lock the full read-write set (No-Wait).
        self.locked.clear();
        let mut fail: Option<Abort> = None;
        'acquire: for &(key, access) in txn.accesses {
            let (slot, _) = table.get_or_insert_slot(key, txn_version, V::from_seed(0));
            let rec = table.record(slot);
            let exclusive = access != Access::Read;
            let got = if exclusive {
                rec.lock.try_exclusive()
            } else {
                rec.lock.try_shared()
            };
            if !got {
                fail = Some(Abort::Conflict);
                break 'acquire;
            }
            self.locked.push((slot, exclusive));

            match phase {
                Phase::Rest => {}
                Phase::Prepare => {
                    // A record already shifted to v+1 means the CPR shift
                    // has begun: this transaction cannot belong to the
                    // version-v commit.
                    if rec.version() > v {
                        fail = Some(Abort::CprShift);
                        break 'acquire;
                    }
                }
                Phase::InProgress | Phase::WaitPending | Phase::WaitFlush => {
                    if rec.version() < txn_version {
                        // Shift the record: capture its final version-v
                        // value in `stable` before this v+1 transaction
                        // touches `live`. Requires the exclusive lock.
                        if exclusive {
                            rec.copy_live_to_stable();
                            rec.set_version(txn_version);
                        } else if rec.lock.try_upgrade() {
                            rec.copy_live_to_stable();
                            rec.set_version(txn_version);
                            rec.lock.downgrade();
                        } else {
                            fail = Some(Abort::Conflict);
                            break 'acquire;
                        }
                    }
                }
            }
        }

        if let Some(abort) = fail {
            release_all(table, &self.locked);
            return Err(abort);
        }

        if self.part.live() {
            if let Some(mut f) = self.pause_locked.take() {
                f();
                self.pause_locked = Some(f);
            }
            // All locks held; re-check ownership before applying a single
            // write. If the watchdog suspended (or evicted) this session
            // while it straggled through acquisition, its view may be
            // stale and its CPR point may have been proxy-published —
            // applying now could grow the committed prefix inconsistently.
            // Shifts done above are safe: they are idempotent maintenance
            // any session at this view would perform.
            match self.db.core.registry.status(self.part.slot) {
                SessionStatus::Active => {}
                SessionStatus::Evicted => {
                    release_all(table, &self.locked);
                    self.part.evicted = true;
                    return Err(Abort::SessionEvicted);
                }
                _ => {
                    release_all(table, &self.locked);
                    if self.db.core.registry.await_reactivate(self.part.slot) {
                        self.refresh();
                        return Err(Abort::Conflict);
                    }
                    self.part.evicted = true;
                    return Err(Abort::SessionEvicted);
                }
            }
        }

        // Execute phase: all locks held.
        let mut seed_idx = 0;
        for (&(_, access), &(slot, _)) in txn.accesses.iter().zip(&self.locked) {
            let rec = table.record(slot);
            match access {
                Access::Read => {
                    reads.push(if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0)
                    } else {
                        rec.read_live()
                    });
                    self.stats.reads += 1;
                }
                Access::Write => {
                    rec.write_live(V::from_seed(txn.write_seeds[seed_idx]));
                    rec.set_dead(false);
                    rec.set_birth_if_unset(txn_version);
                    rec.set_modified(txn_version);
                    seed_idx += 1;
                    self.stats.writes += 1;
                }
                Access::Merge => {
                    let old = if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0)
                    } else {
                        rec.read_live()
                    };
                    rec.write_live(old.merge(txn.write_seeds[seed_idx]));
                    rec.set_dead(false);
                    rec.set_birth_if_unset(txn_version);
                    rec.set_modified(txn_version);
                    seed_idx += 1;
                    self.stats.writes += 1;
                }
                Access::Delete => {
                    rec.set_dead(true);
                    rec.set_birth_if_unset(txn_version);
                    rec.set_modified(txn_version);
                    self.stats.writes += 1;
                }
            }
        }

        // CALC: every commit appends to the atomic commit log while locks
        // are held — the measured serial bottleneck.
        if let Some(log) = &self.db.commit_log {
            let t = self.db.opts.profile.then(Instant::now);
            log.append((self.part.guid << 32) | (self.part.serial + 1));
            if let Some(t) = t {
                self.stats.note_side_ns(t.elapsed().as_nanos() as u64, true);
            }
        }

        release_all(table, &self.locked);
        Ok(())
    }

    /// Executor for the WAL baseline: 2PL + redo record + group commit.
    fn exec_wal(
        &mut self,
        txn: &TxnRequest<'_>,
        reads: &mut Vec<V>,
        profile: bool,
    ) -> Result<(), Abort> {
        let table = &self.db.table;
        self.part.set_busy(&self.db.core, BusyState::Locking);
        self.locked.clear();
        for &(key, access) in txn.accesses {
            let (slot, _) = table.get_or_insert_slot(key, 1, V::from_seed(0));
            let rec = table.record(slot);
            let exclusive = access != Access::Read;
            let got = if exclusive {
                rec.lock.try_exclusive()
            } else {
                rec.lock.try_shared()
            };
            if !got {
                release_all(table, &self.locked);
                return Err(Abort::Conflict);
            }
            self.locked.push((slot, exclusive));
        }

        // Execute and build the redo record. Payload format:
        // `[count u64][(key u64, flags u64, value)*]`, flags bit 0 =
        // tombstone; count patched below (deletes consume no write seed,
        // so the seed count cannot serve as the entry count).
        let payload = &mut self.wal_payload;
        payload.clear();
        let t_build = profile.then(Instant::now);
        payload.extend_from_slice(&0u64.to_le_bytes());
        let mut seed_idx = 0;
        let mut entries = 0u64;
        for (&(key, access), &(slot, _)) in txn.accesses.iter().zip(&self.locked) {
            let rec = table.record(slot);
            match access {
                Access::Read => {
                    reads.push(if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0)
                    } else {
                        rec.read_live()
                    });
                    self.stats.reads += 1;
                }
                Access::Write | Access::Merge => {
                    let val = if access == Access::Write {
                        V::from_seed(txn.write_seeds[seed_idx])
                    } else if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0).merge(txn.write_seeds[seed_idx])
                    } else {
                        rec.read_live().merge(txn.write_seeds[seed_idx])
                    };
                    rec.write_live(val);
                    rec.set_dead(false);
                    rec.set_birth_if_unset(1);
                    // Redo-log the *result* value: replay is then
                    // idempotent and order-faithful.
                    payload.extend_from_slice(&key.to_le_bytes());
                    payload.extend_from_slice(&0u64.to_le_bytes());
                    cpr_core::pod_write(&val, payload);
                    seed_idx += 1;
                    entries += 1;
                    self.stats.writes += 1;
                }
                Access::Delete => {
                    rec.set_dead(true);
                    rec.set_birth_if_unset(1);
                    payload.extend_from_slice(&key.to_le_bytes());
                    payload.extend_from_slice(&1u64.to_le_bytes());
                    cpr_core::pod_write(&V::from_seed(0), payload);
                    entries += 1;
                    self.stats.writes += 1;
                }
            }
        }
        payload[..8].copy_from_slice(&entries.to_le_bytes());
        if let Some(t) = t_build {
            self.stats
                .note_side_ns(t.elapsed().as_nanos() as u64, false);
        }

        if entries > 0 {
            let wal = self.db.wal.as_ref().expect("wal");
            // LSN allocation (tail contention) then the record copy (log
            // write), measured separately when profiling.
            let t_tail = profile.then(Instant::now);
            let reservation = wal.reserve(payload.len());
            if let Some(t) = t_tail {
                self.stats.note_side_ns(t.elapsed().as_nanos() as u64, true);
            }
            let t_copy = profile.then(Instant::now);
            reservation.fill(&self.wal_payload);
            if let Some(t) = t_copy {
                self.stats
                    .note_side_ns(t.elapsed().as_nanos() as u64, false);
            }
        }

        release_all(table, &self.locked);
        Ok(())
    }

    /// Record that everything up to the current serial was made durable by
    /// an explicit WAL sync (used by the bench harness after
    /// `request_commit` in WAL mode).
    pub fn note_wal_synced(&mut self) {
        self.part.note_durable();
    }
}

fn release_all<V: DbValue>(table: &Table<V>, locked: &[(u32, bool)]) {
    for &(slot, exclusive) in locked.iter().rev() {
        let rec = table.record(slot);
        if exclusive {
            rec.lock.release_exclusive();
        } else {
            rec.lock.release_shared();
        }
    }
}

impl<V: DbValue> Drop for Session<V> {
    fn drop(&mut self) {
        self.db.merged_stats.lock().merge(&self.stats);
        self.part.detach(&self.db.core);
        // The epoch guard drops afterwards, draining any pending actions.
    }
}
