//! Log compaction: the HybridLog's footprint follows live data, not run
//! time (DESIGN.md, "Log truncation and compaction").
//!
//! A *pass* walks the oldest region `[begin, T)` of the log and copies to
//! the tail every record that is still its key's newest, then schedules
//! `T` as the new begin address. Two rules make this safe under CPR:
//!
//! * `T` is at or below the `L_he` of a commit that finished before the
//!   pass began, so the region is immutable and durable, and every
//!   record in it has a version no newer than the pass's own.
//! * `T` is published only in the manifest of a commit whose PREPARE
//!   began after the pass ended, and the log below `T` is given back
//!   ([`HybridLog::truncate`](crate::HybridLog::truncate)) only once that
//!   manifest is durable. Every copy, and every newer record that made a
//!   skipped record dead, then has a version at or below that commit and
//!   lies below its `L_he`: recovering it needs nothing below `T`, and a
//!   version-`v + 1` record that recovery rolls back has its `prev` at
//!   or above `T` (or names a deleted key).
//!
//! A record whose superseded bit is set (`header.rs`) is dead without a
//! lookup; for the others the pass looks up the key's newest record. A
//! copy is a record CASed onto the index entry that lookup observed,
//! carrying the same value: if the CAS fails a newer record may have
//! appeared, and the walk runs again. The pass runs as an internal
//! session ([`cpr_core::INTERNAL_SESSION`]): its copies carry its
//! version, and the commit state machine waits for it like for any
//! session, except that it steps out while a commit is in flight.
//!
//! The trigger ([`maybe_compact`]) is one rule: once the log span
//! exceeds [`COMPACT_SPAN_FACTOR`] times the live log bytes, compact the
//! oldest half.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::liveness::BusyState;
use cpr_core::{Entry, Participant, Phase, Pod, Refreshed, INTERNAL_SESSION};
use parking_lot::Mutex;

use crate::addr::Address;
use crate::header::{Header, SUPERSEDED_BIT};
use crate::hlog::HybridLog;
use crate::index::{key_hash, Slot};
use crate::store::StoreInner;

/// Compact once the log span (`tail - begin`) exceeds this many times the
/// live log bytes, measured as one record per index entry at or above
/// the begin address. The log then stays between about 1.5 and 3 times
/// its live size, and a pass walks each byte of the log once.
pub const COMPACT_SPAN_FACTOR: u64 = 3;

/// Records a pass checks between refreshes of its session.
const BATCH: usize = 256;

/// How often a pass that stepped out for a commit checks whether the
/// commit is done.
const COMMIT_WAIT: Duration = Duration::from_millis(1);
/// How long a pass stays out of one commit at most.
const COMMIT_STEP_OUT: Duration = Duration::from_millis(100);

/// How far ahead a pass prefetches, as `apply_batch` does: the index
/// bucket of record `i + 2 * D` and the newest record of its slot for
/// record `i + D`.
const PREFETCH_DISTANCE: usize = 8;

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records walked in `[begin, until)`.
    pub scanned: u64,
    /// Live records copied to the tail.
    pub copied: u64,
    /// The new begin address, published by the next eligible commit.
    pub until: Address,
}

/// A finished pass's truncation point, awaiting its publishing commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingTruncation {
    pub until: Address,
    /// The first commit version whose PREPARE began after the pass.
    pub from_version: u64,
}

/// Compaction state of one store.
pub(crate) struct Compactor {
    /// Live log bytes at the last measurement (0 = not measured yet).
    live_bytes: AtomicU64,
    /// `(v, L_he)` of the newest durable commit.
    committed: Mutex<(u64, Address)>,
    pending: Mutex<Option<PendingTruncation>>,
    /// One pass at a time.
    pass: Mutex<()>,
    /// Superseded bits (`header.rs`) are trusted at and above this
    /// address: the tail the store was recovered at, 0 for a new store.
    trust_superseded: Address,
}

impl Compactor {
    /// `committed` is the `(version, L_he)` of the commit the store
    /// starts from (`(0, 0)` for a fresh store), whose log it resumes at
    /// `L_he`.
    pub fn new(committed: (u64, Address)) -> Self {
        Compactor {
            live_bytes: AtomicU64::new(0),
            committed: Mutex::new(committed),
            pending: Mutex::new(None),
            pass: Mutex::new(()),
            trust_superseded: committed.1,
        }
    }

    /// Note a durable commit of version `v` whose log ends at `lhe`.
    pub fn committed(&self, v: u64, lhe: Address) {
        let mut c = self.committed.lock();
        if v > c.0 {
            *c = (v, lhe);
        }
    }

    /// The truncation point the commit of version `v` may publish.
    pub fn publishable(&self, v: u64) -> Option<Address> {
        self.pending
            .lock()
            .filter(|p| p.from_version <= v)
            .map(|p| p.until)
    }

    /// The commit that published `until` is durable: forget it.
    pub fn published(&self, until: Address) {
        let mut pending = self.pending.lock();
        if pending.is_some_and(|p| p.until == until) {
            *pending = None;
        }
    }
}

/// The background worker's rule, run after each durable commit: compact
/// the oldest half of the log once its span exceeds
/// [`COMPACT_SPAN_FACTOR`] times the live log bytes.
pub(crate) fn maybe_compact<V: Pod>(inner: &Arc<StoreInner<V>>) {
    let c = &inner.compactor;
    let hl = &inner.hlog;
    if c.pending.lock().is_some() {
        return;
    }
    let begin = hl.begin_address();
    let span = hl.tail().saturating_sub(begin);
    // Nothing to gain below two segments: a pass frees whole ones.
    if span < 2 << hl.segment_bits() {
        return;
    }
    let stale = c.live_bytes.load(Ordering::Relaxed);
    if stale != 0 && span <= COMPACT_SPAN_FACTOR * stale {
        return;
    }
    let live = live_bytes(inner, begin);
    c.live_bytes.store(live.max(1), Ordering::Relaxed);
    if span > COMPACT_SPAN_FACTOR * live {
        // A failed pass schedules nothing; the next commit retries.
        let _ = compact(inner, begin + span / 2);
    }
}

/// Live log bytes: one record per index entry at or above `begin` (an
/// entry names its slot's newest record).
fn live_bytes<V: Pod>(inner: &StoreInner<V>, begin: Address) -> u64 {
    let mut n = 0u64;
    inner.index.for_each(|addr| n += (addr >= begin) as u64);
    n * inner.hlog.rec.record_size() as u64
}

/// Run one pass over `[begin, T)` on the calling thread, where `T` is
/// `until` clamped to what may be compacted (see the module docs) and
/// rounded down to a segment boundary. Returns `None` if that leaves
/// nothing to do, if the previous pass's truncation is not published
/// yet, or if the pass's session was evicted.
pub(crate) fn compact<V: Pod>(
    inner: &Arc<StoreInner<V>>,
    until: Address,
) -> io::Result<Option<CompactionStats>> {
    let c = &inner.compactor;
    let _pass = c.pass.lock();
    if c.pending.lock().is_some() {
        return Ok(None);
    }
    let mut part = attach(inner);
    let result = run_pass(inner, &mut part, until);
    part.set_busy(&inner.core, BusyState::Idle);
    part.detach(&inner.core);
    let stats = result?;
    if let Some(stats) = stats {
        // Read after the last copy: a commit whose PREPARE follows this
        // load began after the pass ended.
        let (phase, v) = inner.core.state.load();
        let from_version = if phase == Phase::Rest { v } else { v + 1 };
        *c.pending.lock() = Some(PendingTruncation {
            until: stats.until,
            from_version,
        });
    }
    Ok(stats)
}

fn run_pass<V: Pod>(
    inner: &Arc<StoreInner<V>>,
    part: &mut Participant,
    until: Address,
) -> io::Result<Option<CompactionStats>> {
    let hl = &inner.hlog;
    let (cv, lhe) = *inner.compactor.committed.lock();
    // The commit bounding the region must be older than this session's
    // version, so no record in the region is newer than the copies.
    if cv >= part.version {
        return Ok(None);
    }
    let bits = hl.segment_bits();
    let begin = hl.begin_address();
    hl.poll_flushes();
    let limit = lhe.min(hl.safe_read_only()).min(hl.flushed_durable());
    let t = (until.min(limit) >> bits) << bits;
    if t <= begin {
        return Ok(None);
    }
    let rec = hl.rec.record_size() as u64;
    let mut stats = CompactionStats {
        until: t,
        ..CompactionStats::default()
    };
    let trust = inner.compactor.trust_superseded;
    let mut candidates: Vec<Address> = Vec::with_capacity(BATCH);
    let mut bytes = Vec::new();
    let mut walk = Vec::new();
    let mut value = vec![0u64; inner.value_words];
    let mut pace = Instant::now();
    for page in hl.layout.page(begin)..=hl.layout.page(t - 1) {
        let page_start = hl.layout.page_start(page);
        let page_end = hl.layout.page_start(page + 1).min(t);
        let mut at = page_start.max(begin);
        while at + rec <= page_end {
            if !enter(inner, part, &mut pace) {
                return Ok(None);
            }
            let batch = Batch::read(hl, at, (at + BATCH as u64 * rec).min(page_end), &mut bytes)?;
            candidates.clear();
            let mut slack = false;
            while at + rec <= batch.end {
                let header = batch.word(at);
                if header == 0 {
                    slack = true; // the page's unwritten end
                    break;
                }
                stats.scanned += 1;
                let h = Header::unpack(header);
                // A tombstone needs no copy: its key is absent either way;
                // nor does a record a newer one of its key superseded.
                let superseded = header & SUPERSEDED_BIT != 0 && at >= trust;
                if !h.invalid && !h.tombstone && !superseded {
                    candidates.push(at);
                }
                at += rec;
            }
            let fetch = Prefetch::new(inner, &batch, &candidates);
            (0..2 * PREFETCH_DISTANCE).for_each(|i| fetch.bucket(i));
            let mut ahead: [Option<(u64, Slot)>; PREFETCH_DISTANCE] =
                std::array::from_fn(|i| fetch.slot(i));
            for (i, &addr) in candidates.iter().enumerate() {
                fetch.bucket(i + 2 * PREFETCH_DISTANCE);
                let next = fetch.slot(i + PREFETCH_DISTANCE);
                let Some((key, slot)) = std::mem::replace(&mut ahead[i % PREFETCH_DISTANCE], next)
                else {
                    continue; // no slot: the record is unreachable
                };
                batch.value(addr, &mut value);
                if keep_if_newest(inner, part, &slot, addr, key, &value, &mut walk)? {
                    stats.copied += 1;
                }
            }
            if !leave(inner, part) {
                return Ok(None);
            }
            if slack {
                break;
            }
        }
    }
    Ok(Some(stats))
}

/// Records `[start, end)` of one page, copied out for one batch: a copy
/// of the frame while the page is in memory, else from the device. The
/// batch's appends may refresh the session's epoch (a page claim does),
/// after which the frame may hold another page.
struct Batch<'b> {
    start: Address,
    end: Address,
    bytes: &'b [u8],
}

impl<'b> Batch<'b> {
    fn read(
        hl: &HybridLog,
        start: Address,
        end: Address,
        bytes: &'b mut Vec<u8>,
    ) -> io::Result<Self> {
        hl.read_log_into(start, end, bytes)?;
        Ok(Batch { start, end, bytes })
    }

    fn word(&self, addr: Address) -> u64 {
        let at = (addr - self.start) as usize;
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap())
    }

    fn key(&self, addr: Address) -> u64 {
        self.word(addr + 8)
    }

    fn value(&self, addr: Address, out: &mut [u64]) {
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.word(addr + 16 + 8 * i as u64);
        }
    }
}

/// Enter a batch of the pass as an operation of its session (the
/// watchdog entry protocol). If a commit is in flight, the session first
/// steps out of the protocol until it ends, or for [`COMMIT_STEP_OUT`]
/// at most: the commit then waits for nothing of the pass, and the
/// pass's copies do not lengthen the commit's `[L_hs, L_he)`, which
/// recovery scans. Either way the batch then runs, and the session steps
/// out again only after nine times as long as it was out (`pace`), so a
/// store that commits back to back still compacts. False if the pass must stop: the
/// session was evicted, or every other handle to the store is gone (the
/// store is being dropped and must not outlive its owner by a pass).
fn enter<V: Pod>(inner: &Arc<StoreInner<V>>, part: &mut Participant, pace: &mut Instant) -> bool {
    let dropped = || Arc::strong_count(inner) == 1;
    if dropped() {
        return false;
    }
    if part.phase != Phase::Rest && Instant::now() >= *pace {
        let out = Instant::now();
        let v = part.version;
        part.set_busy(&inner.core, BusyState::Idle);
        part.detach(&inner.core);
        let deadline = Instant::now() + COMMIT_STEP_OUT;
        loop {
            let (phase, now_v) = inner.core.state.load();
            if phase == Phase::Rest || now_v != v || dropped() || Instant::now() > deadline {
                break;
            }
            // Still registered with the epoch framework: keep its drains
            // (and so the commit's trigger chain) moving.
            part.guard.refresh();
            std::thread::sleep(COMMIT_WAIT);
        }
        *part = attach(inner);
        // Out at most a tenth of the time, however often commits come.
        *pace = Instant::now() + out.elapsed() * 9;
        if dropped() {
            return false;
        }
    }
    loop {
        match part.try_begin_op(&inner.core) {
            Entry::Entered => return true,
            Entry::Resumed => {
                if part.refresh(&inner.core, |_, _| {}) == Refreshed::Evicted {
                    return false;
                }
            }
            Entry::Evicted => return false,
        }
    }
}

/// A fresh participant for the pass (see [`INTERNAL_SESSION`]).
fn attach<V: Pod>(inner: &StoreInner<V>) -> Participant {
    let clock = inner.liveness.as_ref().map(|l| Arc::clone(&l.clock));
    Participant::attach(&inner.core, &inner.epoch, INTERNAL_SESSION, 0, clock)
}

/// Leave a batch: idle, then refresh. False if the session was evicted.
fn leave<V: Pod>(inner: &StoreInner<V>, part: &mut Participant) -> bool {
    part.set_busy(&inner.core, BusyState::Idle);
    part.refresh(&inner.core, |_, _| {}) != Refreshed::Evicted
}

/// The batch pipeline, as in `apply_batch`: the index bucket of a record
/// is prefetched, then its slot found and the slot's newest record
/// prefetched, each some records ahead of the record's turn.
struct Prefetch<'a, V: Pod> {
    inner: &'a StoreInner<V>,
    batch: &'a Batch<'a>,
    candidates: &'a [Address],
    /// The in-memory range at the batch's start; both bounds only grow,
    /// so a stale range only skips hints.
    head: Address,
    tail: Address,
}

impl<'a, V: Pod> Prefetch<'a, V> {
    fn new(inner: &'a StoreInner<V>, batch: &'a Batch<'a>, candidates: &'a [Address]) -> Self {
        let (head, tail) = (inner.hlog.head(), inner.hlog.tail());
        Prefetch {
            inner,
            batch,
            candidates,
            head,
            tail,
        }
    }

    fn bucket(&self, i: usize) {
        if let Some(&addr) = self.candidates.get(i) {
            let key = self.batch.key(addr);
            self.inner.index.prefetch(key_hash(key));
        }
    }

    /// The key and slot of candidate `i`, prefetching the newest record
    /// the slot names unless that is the candidate itself.
    fn slot(&self, i: usize) -> Option<(u64, Slot<'a>)> {
        let &own = self.candidates.get(i)?;
        let key = self.batch.key(own);
        let slot = self.inner.index.find(key_hash(key))?;
        let addr = slot.address();
        if addr != own && self.head <= addr && addr < self.tail {
            self.inner.hlog.prefetch(addr);
        }
        Some((key, slot))
    }
}

/// If the record at `addr` is still `key`'s newest in the chain of
/// `slot`, copy it (`value`) to the tail. Returns whether it copied;
/// `walk` is the chain walk's reused read buffer.
fn keep_if_newest<V: Pod>(
    inner: &StoreInner<V>,
    part: &Participant,
    slot: &Slot,
    addr: Address,
    key: u64,
    value: &[u64],
    walk: &mut Vec<u8>,
) -> io::Result<bool> {
    let hl = &inner.hlog;
    loop {
        let entry = slot.address();
        if !newest_is(inner, entry, addr, key, walk)? {
            return Ok(false);
        }
        let header = Header::new(entry, part.version);
        let copy = hl.allocate(&part.guard);
        hl.write_record(copy, header, key, value);
        if slot.try_update(entry, copy) {
            return Ok(true);
        }
        // A newer record may have arrived: walk again.
        hl.set_header(copy, header.with_invalid());
    }
}

/// Whether `key`'s newest record in the chain from `entry` is at `addr`.
/// Chain addresses only fall, so the walk stops at or below `addr`;
/// records below `head` are read from the device into `buf`.
fn newest_is<V: Pod>(
    inner: &StoreInner<V>,
    entry: Address,
    addr: Address,
    key: u64,
    buf: &mut Vec<u8>,
) -> io::Result<bool> {
    let hl = &inner.hlog;
    let head = hl.head();
    let mut at = entry;
    while at > addr {
        let (h, k) = if at >= head {
            (hl.header_at(at), hl.key_at(at))
        } else {
            hl.read_log_into(at, at + 16, buf)?;
            (
                Header::unpack(u64::from_le_bytes(buf[..8].try_into().unwrap())),
                u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            )
        };
        if !h.invalid && k == key {
            return Ok(false);
        }
        at = h.prev;
    }
    Ok(at == addr)
}
