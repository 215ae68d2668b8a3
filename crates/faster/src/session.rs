//! Sessions and the operation engine (paper Secs. 5.2, 6.2, Algs. 4 & 5).
//!
//! Every user request carries a strictly increasing session-local serial
//! number. A session's thread-local view of the global (phase, version) is
//! synchronized only at epoch refresh; the prepare → in-progress
//! transition demarcates the session's CPR point. Requests that cannot be
//! served immediately (disk-resident record, fuzzy region, version
//! hand-off conflicts) go *pending* and are retried by
//! [`FasterSession::complete_pending`].
//!
//! [`FasterSession::apply_batch`] runs many ops through the same path,
//! prefetching the index bucket and the record of ops further ahead so
//! their cache misses overlap the ops before them (DESIGN.md, "Batched
//! execution and prefetch").

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cpr_core::liveness::{BusyState, SessionStatus};
use cpr_core::{Entry, Participant, Phase, Pod, Refreshed, SessionInfo};

use crate::addr::Address;
use crate::header::{version13, Header};
use crate::index::{key_hash, Slot};
use crate::io::IoRead;
use crate::store::{
    release_pending, value_from_words, value_to_words, OfflineGuard, StoreInner, VersionGrain,
};

/// Result of a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResult<V> {
    Found(V),
    NotFound,
    /// Went pending (disk or contention); the result arrives via
    /// [`FasterSession::drain_completions`].
    Pending,
    /// The liveness watchdog evicted this session (stale lease during a
    /// commit); the op was not accepted. Retry on a fresh session.
    Evicted,
}

/// Result of an update operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Status {
    Ok,
    Pending,
    /// The liveness watchdog evicted this session; the op was not
    /// accepted. Retry on a fresh session.
    Evicted,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Status::Ok => f.write_str("ok"),
            Status::Pending => f.write_str("pending"),
            Status::Evicted => f.write_str("session evicted"),
        }
    }
}

/// Kind of a user operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Upsert,
    Rmw,
    Delete,
}

/// One operation of a batch (see [`FasterSession::apply_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp<V> {
    Read(u64),
    Upsert(u64, V),
    /// Read-modify-write with this input (see [`FasterSession::rmw`]).
    Rmw(u64, V),
    Delete(u64),
}

impl<V: Copy> BatchOp<V> {
    pub fn key(&self) -> u64 {
        match *self {
            BatchOp::Read(k) | BatchOp::Upsert(k, _) | BatchOp::Rmw(k, _) | BatchOp::Delete(k) => k,
        }
    }

    fn parts(self) -> (OpKind, u64, Option<V>) {
        match self {
            BatchOp::Read(k) => (OpKind::Read, k, None),
            BatchOp::Upsert(k, v) => (OpKind::Upsert, k, Some(v)),
            BatchOp::Rmw(k, v) => (OpKind::Rmw, k, Some(v)),
            BatchOp::Delete(k) => (OpKind::Delete, k, None),
        }
    }
}

/// Outcome of one op of [`FasterSession::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchResult<V> {
    /// A read found its key.
    Found(V),
    /// A read found no live record for its key.
    NotFound,
    /// An update was applied.
    Done,
    /// Went pending; the result arrives via
    /// [`FasterSession::drain_completions`] under the op's serial.
    Pending,
    /// The watchdog evicted this session; the op was not accepted.
    Evicted,
}

/// How many ops a batch looks ahead. Stage 1 prefetches the index bucket
/// of op `i + 2 * PREFETCH_DISTANCE`, stage 2 the record of op
/// `i + PREFETCH_DISTANCE`, while op `i` runs. Distances 4 to 16 measured
/// alike, so it is fixed rather than an option.
const PREFETCH_DISTANCE: usize = 8;

/// A completed formerly-pending operation.
#[derive(Debug, Clone, Copy)]
pub struct Completion<V> {
    pub serial: u64,
    pub kind: OpKind,
    pub key: u64,
    /// Read result (`None` = key absent) — unset for updates.
    pub value: Option<V>,
}

/// Per-session op counters.
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    pub reads: u64,
    pub upserts: u64,
    pub rmws: u64,
    pub deletes: u64,
    pub went_pending: u64,
    pub completed_pending: u64,
}

struct Pending<V> {
    serial: u64,
    kind: OpKind,
    key: u64,
    input: Option<V>,
    /// Full version this op belongs to (its transaction version at
    /// acceptance).
    tag: u64,
    /// Fine grain: bucket whose shared latch this pending op holds.
    latch: Option<usize>,
    /// Coarse grain: key registered in the pending-v-keys guard set.
    guarded: bool,
    io: Option<DiskRead>,
}

/// A device read issued while walking a hash chain that continues on
/// disk.
struct DiskRead {
    /// First on-disk address of the chain when the walk began. While the
    /// chain still enters the disk here, every record between it and the
    /// fetched one was already checked: on-disk records are immutable.
    entry: Address,
    read: IoRead,
}

enum Outcome<V> {
    Done(Option<V>),
    /// Must wait; optionally with an I/O already issued.
    Pend(Option<DiskRead>),
    /// CPR shift detected in prepare: refresh and retry.
    Shift,
    /// Index CAS lost a race: retry immediately.
    Retry,
}

/// A client session. Not `Sync`: owned by one thread, as in the paper.
pub struct FasterSession<V: Pod> {
    store: Arc<StoreInner<V>>,
    st: SessionState<V>,
    pub stats: SessionStats,
}

/// Everything a session owns besides its store handle, and the op engine.
///
/// Engine methods borrow the store as `&StoreInner` from the session's
/// `Arc` (disjoint field borrows), so an operation never touches the
/// `Arc`'s reference count — a cache line every session would otherwise
/// write on every op.
struct SessionState<V: Pod> {
    /// The session's part in the CPR protocol; its serial is that of the
    /// most recently *accepted* operation.
    part: Participant,
    pending: Vec<Pending<V>>,
    completions: Vec<Completion<V>>,
    scratch: Vec<u64>,
    scratch2: Vec<u64>,
    /// Test hook: runs right after the session enters an operation
    /// (busy = in-txn, before the op touches the log).
    pause_in_op: Option<Box<dyn FnMut() + Send>>,
}

impl<V: Pod> FasterSession<V> {
    pub(crate) fn new(store: Arc<StoreInner<V>>, guid: u64, start_serial: u64) -> Self {
        let clock = store.liveness.as_ref().map(|l| Arc::clone(&l.clock));
        let part = Participant::attach(&store.core, &store.epoch, guid, start_serial, clock);
        if part.live() {
            // Clear any offline-pending leftovers from a prior tenant of
            // this slot.
            store.offline_pending.lock().remove(&part.slot);
        }
        FasterSession {
            store,
            st: SessionState {
                part,
                pending: Vec::new(),
                completions: Vec::new(),
                scratch: Vec::new(),
                scratch2: Vec::new(),
                pause_in_op: None,
            },
            stats: SessionStats::default(),
        }
    }

    /// Test hook: invoked after entering an operation, before the log is
    /// touched.
    #[doc(hidden)]
    pub fn set_pause_in_op(&mut self, f: impl FnMut() + Send + 'static) {
        self.st.pause_in_op = Some(Box::new(f));
    }

    /// True once the watchdog has evicted this session.
    pub fn is_evicted(&self) -> bool {
        self.st.part.is_evicted(&self.store.core)
    }

    pub fn guid(&self) -> u64 {
        self.st.part.guid
    }

    /// Serial of the most recently accepted operation.
    pub fn serial(&self) -> u64 {
        self.st.part.serial
    }

    /// Structured snapshot of the session's identity and thread-local
    /// CPR state.
    pub fn info(&self) -> SessionInfo {
        self.st.part.info()
    }

    /// Number of operations awaiting completion.
    pub fn pending_len(&self) -> usize {
        self.st.pending.len()
    }

    /// Largest serial known durable: every op with serial ≤ this survives
    /// a crash (the session's committed CPR prefix).
    pub fn durable_serial(&mut self) -> u64 {
        self.st.part.durable_serial(&self.store.core)
    }

    /// Move completed formerly-pending results into `out`.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion<V>>) {
        out.append(&mut self.st.completions);
    }

    /// Publish the local epoch, adopt global state changes (marking the
    /// CPR point on the prepare → in-progress crossing), and retry
    /// pending operations.
    pub fn refresh(&mut self) {
        self.st.refresh(&self.store, &mut self.stats);
    }

    /// Retry pending operations; completed ones become
    /// [`Completion`]s. Returns the number completed this call.
    pub fn complete_pending(&mut self) -> usize {
        self.st.complete_pending(&self.store, &mut self.stats)
    }

    // ---- public operations ------------------------------------------------

    pub fn read(&mut self, key: u64) -> ReadResult<V> {
        match self.op(OpKind::Read, key, None) {
            Some(DriveResult::Done(Some(v))) => ReadResult::Found(v),
            Some(DriveResult::Done(None)) => ReadResult::NotFound,
            Some(DriveResult::Pending) => ReadResult::Pending,
            None => ReadResult::Evicted,
        }
    }

    pub fn upsert(&mut self, key: u64, value: V) -> Status {
        self.update(OpKind::Upsert, key, Some(value))
    }

    /// Read-modify-write: `new = rmw(old, input)`; a missing key is
    /// initialized to `input`.
    pub fn rmw(&mut self, key: u64, input: V) -> Status {
        self.update(OpKind::Rmw, key, Some(input))
    }

    pub fn delete(&mut self, key: u64) -> Status {
        self.update(OpKind::Delete, key, None)
    }

    /// Run `ops` in order and append one result per op to `out`.
    ///
    /// Each op goes through the same path as the single-op calls: it gets
    /// the next serial (op `i` gets `serial() + i + 1` as of the call) and
    /// the same CPR semantics. Once an op reads `Evicted`, every later op
    /// does too, and none of them takes a serial. While op `i` runs, the
    /// index bucket of op `i + 16` and the record of op `i + 8` are
    /// prefetched, so a batch of independent keys overlaps their cache
    /// misses. A prefetch is only a hint: every op reads its bucket and
    /// record again.
    pub fn apply_batch(&mut self, ops: &[BatchOp<V>], out: &mut Vec<BatchResult<V>>) {
        const D: usize = PREFETCH_DISTANCE;
        out.reserve(ops.len());
        // Both offsets only grow: stale bounds only skip hints.
        let (head, tail) = (self.store.hlog.head(), self.store.hlog.tail());
        for op in ops.iter().take(2 * D) {
            self.store.index.prefetch(key_hash(op.key()));
        }
        for op in ops.iter().take(D) {
            prefetch_record(&self.store, op.key(), head, tail);
        }
        for (i, op) in ops.iter().enumerate() {
            if let Some(ahead) = ops.get(i + 2 * D) {
                self.store.index.prefetch(key_hash(ahead.key()));
            }
            if let Some(ahead) = ops.get(i + D) {
                prefetch_record(&self.store, ahead.key(), head, tail);
            }
            let (kind, key, input) = op.parts();
            out.push(match (self.op(kind, key, input), kind) {
                (Some(DriveResult::Done(Some(v))), _) => BatchResult::Found(v),
                (Some(DriveResult::Done(None)), OpKind::Read) => BatchResult::NotFound,
                (Some(DriveResult::Done(None)), _) => BatchResult::Done,
                (Some(DriveResult::Pending), _) => BatchResult::Pending,
                (None, _) => BatchResult::Evicted,
            });
        }
    }

    fn update(&mut self, kind: OpKind, key: u64, input: Option<V>) -> Status {
        match self.op(kind, key, input) {
            Some(DriveResult::Done(_)) => Status::Ok,
            Some(DriveResult::Pending) => Status::Pending,
            None => Status::Evicted,
        }
    }

    /// Accept and run one user operation; `None` if the session has been
    /// evicted. Completed ops contribute a latency sample, evicted ops
    /// count as aborts, pendings are sampled at completion.
    fn op(&mut self, kind: OpKind, key: u64, input: Option<V>) -> Option<DriveResult<V>> {
        let store = &*self.store;
        let st = &mut self.st;
        st.maybe_refresh(store, &mut self.stats);
        let t0 = store.metrics_on.then(Instant::now);
        if !st.enter_op(store, &mut self.stats) {
            if store.metrics_on {
                store.metrics.record_abort();
            }
            return None;
        }
        st.part.serial += 1;
        match kind {
            OpKind::Read => self.stats.reads += 1,
            OpKind::Upsert => self.stats.upserts += 1,
            OpKind::Rmw => self.stats.rmws += 1,
            OpKind::Delete => self.stats.deletes += 1,
        }
        let out = st.drive(store, &mut self.stats, kind, key, input);
        if let (Some(t0), DriveResult::Done(_)) = (t0, &out) {
            let (reads, writes) = if kind == OpKind::Read { (1, 0) } else { (0, 1) };
            store.metrics.record_commit(t0.elapsed(), reads, writes);
        }
        st.exit_op(store);
        Some(out)
    }
}

impl<V: Pod> SessionState<V> {
    fn refresh(&mut self, store: &StoreInner<V>, stats: &mut SessionStats) {
        let pending = &mut self.pending;
        let slot = self.part.slot;
        let live = self.part.live();
        let refreshed = self.part.refresh(&store.core, |(p, v), (gp, gv)| {
            // Entering prepare: protect pre-existing pending requests so
            // post-point writers cannot overtake them (paper Sec. 6.2.1).
            if gp == Phase::Prepare && gv == v && p == Phase::Rest {
                protect_pendings(store, pending, v, slot, live);
            }
        });
        if refreshed == Refreshed::Evicted {
            self.drop_cancelled_pendings(store);
            return;
        }
        if self.part.phase != Phase::Rest {
            // A commit is in flight: cede the CPU so the checkpoint and
            // device threads make progress even on a single core.
            std::thread::yield_now();
        }
        self.complete_pending(store, stats);
    }

    fn complete_pending(&mut self, store: &StoreInner<V>, stats: &mut SessionStats) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let live = self.part.live();
        if live && (self.part.evicted || store.core.registry.is_evicted(self.part.slot)) {
            self.part.evicted = true;
            self.drop_cancelled_pendings(store);
            return 0;
        }
        let mut ops = std::mem::take(&mut self.pending);
        let mut completed = 0;
        let mut i = 0;
        while i < ops.len() {
            // Pending retries apply writes: re-check ownership before each
            // one so an evicted session stops growing the database. A
            // merely-suspended session reactivates itself and proceeds.
            if live && store.core.registry.status(self.part.slot) != SessionStatus::Active {
                if store.core.registry.await_reactivate(self.part.slot) {
                    continue;
                }
                self.part.evicted = true;
                break;
            }
            let op = &mut ops[i];
            if let Some(d) = &op.io {
                if !d.read.handle.is_done() {
                    i += 1;
                    continue; // still in flight
                }
                if d.read.handle.wait().is_err() {
                    // Read raced an in-flight flush; drop and retry
                    // through the normal path.
                    op.io = None;
                    i += 1;
                    continue;
                }
            }
            // The I/O thread is done with the buffer: decode in place.
            let fetched = op.io.as_ref().map(|d| (d, d.read.buf.lock()));
            let outcome = self.run_op(
                store,
                op.kind,
                op.key,
                op.input,
                op.tag,
                fetched.as_ref().map(|(d, b)| (*d, b.as_slice())),
            );
            drop(fetched);
            match outcome {
                Outcome::Done(value) => {
                    self.finish_pending(store, op, value);
                    completed += 1;
                    ops.swap_remove(i);
                }
                Outcome::Pend(io) => {
                    op.io = io;
                    i += 1;
                }
                Outcome::Shift | Outcome::Retry => {
                    // Re-run the same op immediately (CAS race); a Shift
                    // cannot occur for an already-accepted pending op’s
                    // tag, but retrying is always safe.
                }
            }
        }
        debug_assert!(self.pending.is_empty());
        self.pending = ops;
        if self.part.evicted {
            self.drop_cancelled_pendings(store);
        }
        stats.completed_pending += completed as u64;
        completed
    }

    fn finish_pending(&mut self, store: &StoreInner<V>, op: &mut Pending<V>, value: Option<V>) {
        if self.part.live() {
            // The offline-pending entry is the ownership token for this
            // op's protections: remove it and release per the *entry* (the
            // watchdog may hold a fresher view of the latches than the
            // local op after an eviction race).
            let owned = {
                let mut map = store.offline_pending.lock();
                map.get_mut(&self.part.slot).and_then(|gs| {
                    gs.iter()
                        .position(|g| g.serial == op.serial)
                        .map(|i| gs.swap_remove(i))
                })
            };
            op.latch = None;
            op.guarded = false;
            let Some(g) = owned else {
                // Cancelled by the watchdog: protections already released,
                // the session is evicted, the result is dropped.
                self.part.evicted = true;
                return;
            };
            release_pending(store, g.latch, g.guarded_key, g.tag);
        } else {
            let guarded_key = std::mem::take(&mut op.guarded).then_some(op.key);
            release_pending(store, op.latch.take(), guarded_key, op.tag);
        }
        self.completions.push(Completion {
            serial: op.serial,
            kind: op.kind,
            key: op.key,
            value,
        });
    }

    /// Drop local pending ops whose offline entry is gone (cancelled by
    /// the watchdog at eviction): their protections are already released
    /// and their counts already decremented — just forget them.
    fn drop_cancelled_pendings(&mut self, store: &StoreInner<V>) {
        if self.pending.is_empty() {
            return;
        }
        let live: Vec<u64> = {
            let map = store.offline_pending.lock();
            map.get(&self.part.slot)
                .map(|gs| gs.iter().map(|g| g.serial).collect())
                .unwrap_or_default()
        };
        self.pending.retain(|op| live.contains(&op.serial));
    }

    #[inline]
    fn maybe_refresh(&mut self, store: &StoreInner<V>, stats: &mut SessionStats) {
        self.part.ops_since_refresh += 1;
        if self.part.ops_since_refresh >= store.refresh_every {
            self.refresh(store, stats);
        }
    }

    /// Enter an operation through the watchdog entry protocol (a
    /// suspended session refreshes to what was published on its behalf
    /// and retries). Returns `false` once evicted.
    fn begin_op(&mut self, store: &StoreInner<V>, stats: &mut SessionStats) -> bool {
        loop {
            match self.part.try_begin_op(&store.core) {
                Entry::Entered => return true,
                Entry::Resumed => self.refresh(store, stats),
                Entry::Evicted => return false,
            }
        }
    }

    #[inline]
    fn enter_op(&mut self, store: &StoreInner<V>, stats: &mut SessionStats) -> bool {
        if !self.part.live() {
            return true;
        }
        if !self.begin_op(store, stats) {
            return false;
        }
        if let Some(mut f) = self.pause_in_op.take() {
            f();
            self.pause_in_op = Some(f);
        }
        true
    }

    #[inline]
    fn exit_op(&mut self, store: &StoreInner<V>) {
        self.part.set_busy(&store.core, BusyState::Idle);
    }

    // ---- op driver ----------------------------------------------------------

    fn drive(
        &mut self,
        store: &StoreInner<V>,
        stats: &mut SessionStats,
        kind: OpKind,
        key: u64,
        input: Option<V>,
    ) -> DriveResult<V> {
        loop {
            // Fine grain, prepare phase: every request takes the bucket's
            // shared latch (paper Alg. 4); failure means the CPR shift
            // has begun.
            let mut latch: Option<usize> = None;
            if self.part.phase == Phase::Prepare && store.grain == VersionGrain::Fine {
                let b = store.index.bucket_index(key_hash(key));
                if !store.latches[b].try_shared() {
                    self.refresh(store, stats); // CPR_SHIFT_DETECTED
                    continue;
                }
                latch = Some(b);
            }
            let tag = self.part.txn_version();
            match self.run_op(store, kind, key, input, tag, None) {
                Outcome::Done(v) => {
                    if let Some(b) = latch {
                        store.latches[b].release_shared();
                    }
                    store
                        .core
                        .registry
                        .set_serial(self.part.slot, self.part.serial);
                    return DriveResult::Done(v);
                }
                Outcome::Shift => {
                    if let Some(b) = latch {
                        store.latches[b].release_shared();
                    }
                    self.refresh(store, stats);
                    continue;
                }
                Outcome::Retry => {
                    if let Some(b) = latch {
                        store.latches[b].release_shared();
                    }
                    continue;
                }
                Outcome::Pend(io) => {
                    // Pre-point pendings keep their protection: the shared
                    // latch (fine) or a key guard (coarse).
                    let keep_latch = latch.take_if(|_| tag == self.part.version);
                    if let Some(b) = latch {
                        store.latches[b].release_shared();
                    }
                    let guarded = store.grain == VersionGrain::Coarse
                        && tag == self.part.version
                        && self.part.phase != Phase::Rest;
                    if guarded {
                        store.pending_v_keys.lock().insert(key);
                    }
                    store.pending_count[(tag & 1) as usize].fetch_add(1, Ordering::AcqRel);
                    if self.part.live() {
                        // Mirror the op's protections for the watchdog.
                        store
                            .offline_pending
                            .lock()
                            .entry(self.part.slot)
                            .or_default()
                            .push(OfflineGuard {
                                serial: self.part.serial,
                                tag,
                                latch: keep_latch,
                                guarded_key: guarded.then_some(key),
                            });
                    }
                    self.pending.push(Pending {
                        serial: self.part.serial,
                        kind,
                        key,
                        input,
                        tag,
                        latch: keep_latch,
                        guarded,
                        io,
                    });
                    stats.went_pending += 1;
                    store
                        .core
                        .registry
                        .set_serial(self.part.slot, self.part.serial);
                    return DriveResult::Pending;
                }
            }
        }
    }

    /// One attempt at an operation. `fetched` carries a completed disk
    /// read and its bytes when resolving an I/O pending op.
    fn run_op(
        &mut self,
        store: &StoreInner<V>,
        kind: OpKind,
        key: u64,
        input: Option<V>,
        tag: u64,
        fetched: Option<(&DiskRead, &[u8])>,
    ) -> Outcome<V> {
        let hl = &store.hlog;
        let hash = key_hash(key);

        let slot = match kind {
            OpKind::Read => match store.index.find(hash) {
                Some(s) => s,
                None => return Outcome::Done(None),
            },
            _ => store.index.find_or_create(hash),
        };
        let entry = slot.address();
        let head = hl.head();
        let ro = hl.read_only();
        let safe_ro = hl.safe_read_only();

        // Walk the in-memory chain for our key; it ends below `begin`.
        let begin = hl.begin_address();
        let mut addr = entry;
        let mut found: Option<(Address, Header)> = None;
        while addr >= begin {
            if addr < head {
                break; // continues on disk
            }
            let h = hl.header_at(addr);
            if !h.invalid && hl.key_at(addr) == key {
                found = Some((addr, h));
                break;
            }
            addr = h.prev;
        }

        let vnext13 = version13(self.part.version + 1);
        let is_next = tag > self.part.version;

        match found {
            Some((_raddr, h)) if h.tombstone => match kind {
                OpKind::Read => Outcome::Done(None),
                OpKind::Delete => Outcome::Done(None),
                // Re-create over the tombstone.
                _ => self.append_record(store, &slot, entry, key, kind, input, None, tag),
            },
            Some((raddr, h)) => {
                // Prepare-phase shift detection: a record already at
                // version v+1 means the commit has begun (Alg. 4).
                if self.part.phase == Phase::Prepare
                    && tag == self.part.version
                    && h.version == vnext13
                {
                    return Outcome::Shift;
                }
                if kind == OpKind::Read {
                    self.scratch.resize(store.value_words, 0);
                    hl.value_at(raddr, &mut self.scratch);
                    return Outcome::Done(Some(value_from_words(&self.scratch)));
                }
                if is_next && h.version != vnext13 {
                    // Post-point update over a pre-point record: hand the
                    // record over to version v+1 (Alg. 5).
                    return self.handoff_update(
                        store, &slot, entry, raddr, key, kind, input, tag, safe_ro,
                    );
                }
                // Same-version regional logic.
                if raddr >= ro {
                    self.update_in_place(store, raddr, h, kind, input);
                    Outcome::Done(None)
                } else if raddr >= safe_ro {
                    Outcome::Pend(None) // fuzzy region (Sec. 5.1)
                } else {
                    // Immutable (read-only region): read-copy-update.
                    self.append_record(store, &slot, entry, key, kind, input, Some(raddr), tag)
                }
            }
            None if addr >= begin => {
                // Chain continues on disk at `addr`.
                self.resolve_disk(store, &slot, entry, addr, key, kind, input, tag, fetched)
            }
            None => match kind {
                OpKind::Read | OpKind::Delete => Outcome::Done(None),
                _ => self.append_record(store, &slot, entry, key, kind, input, None, tag),
            },
        }
    }

    /// In-place update in the mutable region.
    fn update_in_place(
        &mut self,
        store: &StoreInner<V>,
        raddr: Address,
        h: Header,
        kind: OpKind,
        input: Option<V>,
    ) {
        let hl = &store.hlog;
        match kind {
            OpKind::Upsert => {
                value_to_words(
                    &input.expect("upsert input"),
                    &mut self.scratch,
                    store.value_words,
                );
                hl.set_value_at(raddr, &self.scratch);
            }
            OpKind::Rmw => {
                let input = input.expect("rmw input");
                if store.value_words == 1 {
                    // Atomic single-word RMW (the paper's running sums).
                    loop {
                        let old = hl.word(raddr + 16).load(Ordering::Acquire);
                        let oldv = value_from_words::<V>(&[old]);
                        value_to_words(&(store.rmw)(oldv, input), &mut self.scratch, 1);
                        if hl.cas_value_word(raddr, old, self.scratch[0]) {
                            break;
                        }
                    }
                } else {
                    self.scratch.resize(store.value_words, 0);
                    hl.value_at(raddr, &mut self.scratch);
                    let oldv = value_from_words::<V>(&self.scratch);
                    value_to_words(
                        &(store.rmw)(oldv, input),
                        &mut self.scratch2,
                        store.value_words,
                    );
                    hl.set_value_at(raddr, &self.scratch2);
                }
            }
            OpKind::Delete => {
                hl.set_header(raddr, h.with_tombstone());
            }
            OpKind::Read => unreachable!("reads never update"),
        }
    }

    /// Post-point update of a pre-point record (paper Alg. 5): the record
    /// must be copied to the tail as version v+1 without racing pre-point
    /// in-place updates.
    #[allow(clippy::too_many_arguments)]
    fn handoff_update(
        &mut self,
        store: &StoreInner<V>,
        slot: &Slot<'_>,
        entry: Address,
        raddr: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        tag: u64,
        safe_ro: Address,
    ) -> Outcome<V> {
        match store.grain {
            VersionGrain::Fine => {
                let b = store.index.bucket_index(key_hash(key));
                match self.part.phase {
                    Phase::InProgress => {
                        // The exclusive-latch hand-off window: the watchdog
                        // must not evict us here (we may be mid-append
                        // under the latch); its only remedy is an abort.
                        self.part.set_busy(&store.core, BusyState::Locking);
                        let out = if store.latches[b].try_exclusive() {
                            let out = self.append_record(
                                store,
                                slot,
                                entry,
                                key,
                                kind,
                                input,
                                Some(raddr),
                                tag,
                            );
                            store.latches[b].release_exclusive();
                            out
                        } else {
                            Outcome::Pend(None)
                        };
                        self.part.set_busy(&store.core, BusyState::InTxn);
                        out
                    }
                    Phase::WaitPending => {
                        if store.latches[b].shared_count() == 0 {
                            self.append_record(
                                store,
                                slot,
                                entry,
                                key,
                                kind,
                                input,
                                Some(raddr),
                                tag,
                            )
                        } else {
                            Outcome::Pend(None)
                        }
                    }
                    // Wait-flush (and the rest-phase tail of a commit):
                    // all pre-point work is done; copy freely.
                    _ => self.append_record(store, slot, entry, key, kind, input, Some(raddr), tag),
                }
            }
            VersionGrain::Coarse => {
                if store.pending_v_keys.lock().contains(&key) {
                    return Outcome::Pend(None);
                }
                if raddr < safe_ro || self.part.phase >= Phase::WaitPending {
                    self.append_record(store, slot, entry, key, kind, input, Some(raddr), tag)
                } else {
                    // The pre-point record is still mutable: wait until it
                    // is safely immutable (Appx. C).
                    Outcome::Pend(None)
                }
            }
        }
    }

    /// Resolve an operation whose chain continues on disk at `disk_addr`.
    ///
    /// A fetched record deeper than `disk_addr` is accepted only while the
    /// chain still enters the disk where the fetch's walk began: the
    /// records between were checked by earlier fetches and cannot have
    /// changed. If the entry point moved (newer records of this chain were
    /// evicted meanwhile) the walk restarts there, since one of them may
    /// hold a newer version of the key.
    #[allow(clippy::too_many_arguments)]
    fn resolve_disk(
        &mut self,
        store: &StoreInner<V>,
        slot: &Slot<'_>,
        entry: Address,
        disk_addr: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        tag: u64,
        fetched: Option<(&DiskRead, &[u8])>,
    ) -> Outcome<V> {
        let hl = &store.hlog;
        let rec_size = hl.rec.record_size();

        let Some((_, bytes)) = fetched.filter(|(r, b)| r.entry == disk_addr && b.len() >= rec_size)
        else {
            return self.issue_or_wait(store, disk_addr, disk_addr);
        };
        let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let h = Header::unpack(word);
        let rkey = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if word != 0 && !h.invalid && rkey == key {
            if h.tombstone {
                return match kind {
                    OpKind::Read | OpKind::Delete => Outcome::Done(None),
                    _ => self.append_record(store, slot, entry, key, kind, input, None, tag),
                };
            }
            self.scratch.clear();
            self.scratch.extend(
                bytes[16..16 + 8 * store.value_words]
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().unwrap())),
            );
            let value: V = value_from_words(&self.scratch);
            return match kind {
                OpKind::Read => Outcome::Done(Some(value)),
                _ => self.append_with_base(store, slot, entry, key, kind, input, Some(value), tag),
            };
        }
        // Wrong key (hash-chain collision) or invalid: follow the chain
        // further down the log, as the in-memory walk does, keeping the
        // walk's entry point. A zero header is a record truncated away
        // while the read was in flight: its chain ended there.
        if word != 0 && h.prev >= hl.begin_address() {
            return self.issue_or_wait(store, disk_addr, h.prev);
        }
        // Chain exhausted: key absent.
        match kind {
            OpKind::Read | OpKind::Delete => Outcome::Done(None),
            _ => self.append_record(store, slot, entry, key, kind, input, None, tag),
        }
    }

    /// Fetch the record at `addr` of a disk walk that began at `entry`.
    fn issue_or_wait(&self, store: &StoreInner<V>, entry: Address, addr: Address) -> Outcome<V> {
        let hl = &store.hlog;
        if addr < hl.flushed_durable() {
            let read = store.io.read(addr, hl.rec.record_size());
            Outcome::Pend(Some(DiskRead { entry, read }))
        } else {
            // Flush still in flight; retry on a later refresh.
            Outcome::Pend(None)
        }
    }

    /// RCU / insert with a disk-fetched base value: still subject to the
    /// hand-off rules when the op is post-point. Disk records are
    /// immutable by definition, so no fuzzy-region wait applies.
    #[allow(clippy::too_many_arguments)]
    fn append_with_base(
        &mut self,
        store: &StoreInner<V>,
        slot: &Slot<'_>,
        entry: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        base: Option<V>,
        tag: u64,
    ) -> Outcome<V> {
        if tag > self.part.version {
            // Post-point op resolving a disk record: respect the same
            // protections as an in-memory hand-off.
            match store.grain {
                VersionGrain::Fine => {
                    let b = store.index.bucket_index(key_hash(key));
                    if self.part.phase == Phase::InProgress {
                        self.part.set_busy(&store.core, BusyState::Locking);
                        let out = if store.latches[b].try_exclusive() {
                            let out = self.append_base_inner(
                                store, slot, entry, key, kind, input, base, tag, None,
                            );
                            store.latches[b].release_exclusive();
                            out
                        } else {
                            Outcome::Pend(None)
                        };
                        self.part.set_busy(&store.core, BusyState::InTxn);
                        return out;
                    }
                    if self.part.phase == Phase::WaitPending && store.latches[b].shared_count() != 0
                    {
                        return Outcome::Pend(None);
                    }
                }
                VersionGrain::Coarse => {
                    if store.pending_v_keys.lock().contains(&key) {
                        return Outcome::Pend(None);
                    }
                }
            }
        }
        self.append_base_inner(store, slot, entry, key, kind, input, base, tag, None)
    }

    /// Append the record and CAS the slot from `entry` to it. A record
    /// `superseded` by it (the key's previous newest, in memory) is
    /// marked as such once the new record is linked, so compaction can
    /// skip it without a lookup.
    #[allow(clippy::too_many_arguments)]
    fn append_base_inner(
        &mut self,
        store: &StoreInner<V>,
        slot: &Slot<'_>,
        entry: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        base: Option<V>,
        tag: u64,
        superseded: Option<Address>,
    ) -> Outcome<V> {
        let value = match (kind, base) {
            (OpKind::Upsert, _) => input.expect("upsert input"),
            (OpKind::Rmw, Some(b)) => (store.rmw)(b, input.expect("rmw input")),
            (OpKind::Rmw, None) => input.expect("rmw input"),
            (OpKind::Delete, b) => {
                b.unwrap_or_else(|| value_from_words(&vec![0; store.value_words]))
            }
            (OpKind::Read, _) => unreachable!(),
        };
        value_to_words(&value, &mut self.scratch, store.value_words);
        let addr = store.hlog.allocate(&self.part.guard);
        let mut header = Header::new(entry, tag);
        if kind == OpKind::Delete {
            header = header.with_tombstone();
        }
        store.hlog.write_record(addr, header, key, &self.scratch);
        if slot.try_update(entry, addr) {
            if let Some(old) = superseded {
                store.hlog.mark_superseded(old);
            }
            Outcome::Done(None)
        } else {
            store.hlog.set_header(addr, header.with_invalid());
            Outcome::Retry
        }
    }

    /// Append a new version of `key` at the tail (RCU when `src` names an
    /// immutable source record, plain insert otherwise), then CAS the
    /// index slot.
    #[allow(clippy::too_many_arguments)]
    fn append_record(
        &mut self,
        store: &StoreInner<V>,
        slot: &Slot<'_>,
        entry: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        src: Option<Address>,
        tag: u64,
    ) -> Outcome<V> {
        let base = src.map(|raddr| {
            self.scratch2.resize(store.value_words, 0);
            store.hlog.value_at(raddr, &mut self.scratch2);
            value_from_words::<V>(&self.scratch2)
        });
        self.append_base_inner(store, slot, entry, key, kind, input, base, tag, src)
    }
}

enum DriveResult<V> {
    Done(Option<V>),
    Pending,
}

/// Fine grain: take shared latches (coarse: register key guards) for
/// the pending requests of a session entering prepare at `version`.
fn protect_pendings<V: Pod>(
    store: &StoreInner<V>,
    pending: &mut [Pending<V>],
    version: u64,
    slot: usize,
    live: bool,
) {
    match store.grain {
        VersionGrain::Fine => {
            for op in pending.iter_mut() {
                if op.tag == version && op.latch.is_none() {
                    let b = store.index.bucket_index(key_hash(op.key));
                    // Cannot fail persistently: exclusive holders only
                    // exist in in-progress, which starts later.
                    while !store.latches[b].try_shared() {
                        std::hint::spin_loop();
                    }
                    op.latch = Some(b);
                }
            }
        }
        VersionGrain::Coarse => {
            let mut guard = store.pending_v_keys.lock();
            for op in pending.iter_mut() {
                if op.tag == version && !op.guarded {
                    guard.insert(op.key);
                    op.guarded = true;
                }
            }
        }
    }
    if live {
        // Mirror the newly-taken protections so a later watchdog
        // cancellation releases them. The lease was stamped at the top of
        // this refresh, so the watchdog cannot act on this session between
        // the acquisition above and the mirror landing here.
        let mut map = store.offline_pending.lock();
        if let Some(gs) = map.get_mut(&slot) {
            for op in pending.iter() {
                if let Some(g) = gs.iter_mut().find(|g| g.serial == op.serial) {
                    g.latch = op.latch;
                    g.guarded_key = op.guarded.then_some(op.key);
                }
            }
        }
    }
}

/// Stage 2 of the batch pipeline: find `key`'s slot (its bucket was
/// prefetched earlier) and prefetch the record it names if that record
/// is in memory. Creates no slot and follows no pointer.
#[inline]
fn prefetch_record<V: Pod>(store: &StoreInner<V>, key: u64, head: Address, tail: Address) {
    if let Some(slot) = store.index.find(key_hash(key)) {
        let addr = slot.address();
        if head <= addr && addr < tail {
            store.hlog.prefetch(addr);
        }
    }
}

impl<V: Pod> Drop for FasterSession<V> {
    fn drop(&mut self) {
        // Drain pendings so an in-flight commit is not stranded. An
        // evicted session skips the drain: its pendings were cancelled by
        // the watchdog and `refresh` clears them on the first pass.
        for _ in 0..10_000 {
            if self.st.pending.is_empty() || self.st.part.evicted {
                break;
            }
            self.refresh();
            if !self.st.pending.is_empty() {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        let store = &*self.store;
        let st = &mut self.st;
        // Force-release anything still stuck (abandoned ops). With the
        // watchdog on, the offline map arbitrates: only protections whose
        // entry is still present are ours to release.
        let ops = std::mem::take(&mut st.pending);
        if st.part.live() {
            let entries = store.offline_pending.lock().remove(&st.part.slot);
            for g in entries.unwrap_or_default() {
                release_pending(store, g.latch, g.guarded_key, g.tag);
            }
        } else {
            for op in ops {
                release_pending(store, op.latch, op.guarded.then_some(op.key), op.tag);
            }
        }
        st.part.detach(&store.core);
    }
}
