//! A concurrent hash index over a record arena, from `u64` keys to
//! [`Record`]s.
//!
//! Records live in chunks of [`CHUNK_SLOTS`] 64-byte-aligned slots that
//! never move; a `u32` slot id addresses each one. Slots are claimed in
//! order, and the insert that claims a chunk's first slot allocates it.
//! Chunks are fixed and small so that the allocator can hand a dropped
//! table's memory to the next one piece by piece (one table-sized block
//! is split by the first smaller allocation after it is freed, and the
//! next table then needs fresh memory).
//!
//! The index sits off the record lines: bucket heads hold slot ids, and
//! each chunk has a per-slot array of [`Link`]s (key and chain successor),
//! written once when the slot is claimed. A lookup reads the bucket and
//! the links, never the record lines that transactions lock and write.
//!
//! Insert claims a slot with one `fetch_add`, fills it, and publishes it
//! with one CAS on the bucket head. A racing insert of the same key
//! leaves the loser's slot a *hole*: never in any chain, skipped by
//! scans. Records are never removed while the table is alive. This
//! matches the paper's setting: data is pre-loaded, and the only runtime
//! inserts come from TPC-C order/order-line rows.
//!
//! Scans walk slot ids in memory order ([`Table::for_each_in_slots`]),
//! the order checkpoints use.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use cpr_core::Pod;

use crate::record::Record;

/// Encoded link meaning "no slot". Links and bucket heads store
/// `slot + 1`.
const NIL: u32 = 0;
/// [`Link::next`] bit: the slot is (or is being) published in a chain.
/// Scans visit exactly the slots that carry it.
const LINKED: u32 = 1 << 31;
/// log2 of the slots per chunk.
const CHUNK_BITS: u32 = 14;
/// Slots per chunk: 1.25 MiB of records and links for `V = u64`.
const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;
/// Chunk directory size; the table holds at most `MAX_SLOTS` records
/// (2^28), which keeps `slot + 1` clear of [`LINKED`].
const MAX_CHUNKS: usize = 1 << 14;
const MAX_SLOTS: usize = MAX_CHUNKS * CHUNK_SLOTS;

/// A slot's index entry: its key and the encoded next slot in its bucket
/// chain, with [`LINKED`] set once the slot is published.
#[derive(Debug)]
struct Link {
    key: AtomicU64,
    next: AtomicU32,
}

/// One chunk: [`CHUNK_SLOTS`] records from the first 64-byte boundary
/// of a zeroed word allocation, then their links.
///
/// A `Box<[Record<V>]>` cannot be allocated lazily: its 64-byte
/// alignment takes the allocator's aligned path, which writes every page.
/// A word-aligned zeroed allocation is committed page by page as slots
/// are first written (or reuses memory another chunk freed).
struct Chunk<V: Pod> {
    words: Box<[AtomicU64]>,
    /// Words skipped to reach the first 64-byte boundary.
    skip: usize,
    _records: PhantomData<Record<V>>,
}

impl<V: Pod> Chunk<V> {
    fn new() -> Self {
        let line = std::mem::align_of::<Record<V>>();
        let bytes = CHUNK_SLOTS * (std::mem::size_of::<Record<V>>() + std::mem::size_of::<Link>());
        // SAFETY: the all-zero pattern is a valid `AtomicU64`.
        let words = unsafe { zeroed_slice::<AtomicU64>((bytes + line) / 8) };
        let skip = words.as_ptr().align_offset(line);
        assert!(skip < line / 8, "no 64-byte boundary in the first line");
        Chunk {
            words,
            skip,
            _records: PhantomData,
        }
    }

    #[inline]
    fn records(&self) -> &[Record<V>] {
        // SAFETY: the records start at the 64-byte boundary `skip`, and
        // the allocation holds CHUNK_SLOTS of them, then as many links
        // (see `new`). All-zero is a valid `Record` (unlocked lock, zero
        // atomics, and any byte pattern is a valid `V: Pod`) and a valid
        // `Link` (key 0, next NIL and not linked). Both are made of
        // atomics and `UnsafeCell`s only, so shared views may alias each
        // other's writes, and the borrow ties the views to `words`.
        unsafe {
            let base = self.words.as_ptr().add(self.skip);
            std::slice::from_raw_parts(base.cast(), CHUNK_SLOTS)
        }
    }

    #[inline]
    fn links(&self) -> &[Link] {
        let records = self.records().as_ptr_range().end;
        // SAFETY: see `records`.
        unsafe { std::slice::from_raw_parts(records.cast(), CHUNK_SLOTS) }
    }
}

/// (chunk, offset) of `slot`.
#[inline]
fn locate(slot: usize) -> (usize, usize) {
    (slot >> CHUNK_BITS, slot & (CHUNK_SLOTS - 1))
}

/// A zero-filled boxed slice.
///
/// # Safety
/// The all-zero byte pattern must be a valid `T`.
unsafe fn zeroed_slice<T>(len: usize) -> Box<[T]> {
    Box::<[T]>::new_zeroed_slice(len).assume_init()
}

/// Concurrent hash index over a record arena; see module docs.
pub struct Table<V: Pod> {
    buckets: Box<[AtomicU32]>,
    mask: u64,
    /// Chunk directory: chunk `i` holds slots `i * CHUNK_SLOTS..`.
    chunks: Box<[AtomicPtr<Chunk<V>>]>,
    /// Slots claimed so far (published, holes, and in-flight inserts).
    claimed: AtomicUsize,
    /// Published records.
    len: AtomicUsize,
}

// SAFETY: chunks are only freed in Drop; links are immutable after
// publication except through atomics, and records synchronize
// themselves.
unsafe impl<V: Pod> Send for Table<V> {}
unsafe impl<V: Pod> Sync for Table<V> {}

#[inline]
fn hash(key: u64) -> u64 {
    // Fibonacci / splitmix-style mix: cheap and adequate for u64 keys.
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h
}

impl<V: Pod> Table<V> {
    /// Create a table with at least `capacity_hint` buckets (rounded up
    /// to a power of two).
    pub fn new(capacity_hint: usize) -> Self {
        let n = capacity_hint.next_power_of_two().clamp(16, MAX_SLOTS);
        // SAFETY: an all-zero AtomicU32 is NIL, an all-zero AtomicPtr null.
        let (buckets, chunks) = unsafe { (zeroed_slice(n), zeroed_slice(MAX_CHUNKS)) };
        Table {
            buckets,
            mask: (n - 1) as u64,
            chunks,
            claimed: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> &AtomicU32 {
        &self.buckets[(hash(key) & self.mask) as usize]
    }

    /// Chunk `i`, or `None` if no slot in it has been claimed yet.
    #[inline]
    fn chunk(&self, i: usize) -> Option<&Chunk<V>> {
        // SAFETY: non-null chunk pointers stay valid until Drop.
        unsafe { self.chunks[i].load(Ordering::Acquire).as_ref() }
    }

    /// (record, link) of a slot in an allocated chunk.
    #[inline]
    fn entry(&self, slot: usize) -> (&Record<V>, &Link) {
        let (i, off) = locate(slot);
        let chunk = self.chunk(i).expect("slot in an unallocated chunk");
        (&chunk.records()[off], &chunk.links()[off])
    }

    /// The record in `slot` (an id returned by
    /// [`Table::get_or_insert_slot`]).
    #[inline]
    pub(crate) fn record(&self, slot: u32) -> &Record<V> {
        self.entry(slot as usize).0
    }

    /// Chunk `i`, allocating it if this is its first claimed slot.
    fn chunk_or_alloc(&self, i: usize) -> &Chunk<V> {
        if let Some(c) = self.chunk(i) {
            return c;
        }
        let fresh = Box::into_raw(Box::new(Chunk::new()));
        match self.chunks[i].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: just published; valid until Drop.
            Ok(_) => unsafe { &*fresh },
            Err(theirs) => {
                // SAFETY: `fresh` was never published; `theirs` stays
                // valid until Drop.
                unsafe {
                    drop(Box::from_raw(fresh));
                    &*theirs
                }
            }
        }
    }

    /// The slot holding `key` in the chain starting at encoded `head`.
    #[inline]
    fn find_in_chain(&self, mut cur: u32, key: u64) -> Option<u32> {
        while cur != NIL {
            let slot = cur - 1;
            let (_, link) = self.entry(slot as usize);
            if link.key.load(Ordering::Relaxed) == key {
                return Some(slot);
            }
            cur = link.next.load(Ordering::Acquire) & !LINKED;
        }
        None
    }

    /// Find the record for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&Record<V>> {
        let head = self.bucket(key).load(Ordering::Acquire);
        self.find_in_chain(head, key).map(|s| self.record(s))
    }

    /// Get the record for `key`, inserting an *uninitialized* placeholder
    /// (at `version`) if absent — the record becomes visible to reads and
    /// checkpoints only once a committed write sets its birth version.
    /// Returns (record, inserted).
    pub fn get_or_insert(&self, key: u64, version: u64, default: V) -> (&Record<V>, bool) {
        let (slot, inserted) = self.get_or_insert_slot(key, version, default);
        (self.record(slot), inserted)
    }

    /// [`Table::get_or_insert`], returning the record's slot id instead
    /// (see [`Table::record`]).
    #[inline]
    pub(crate) fn get_or_insert_slot(&self, key: u64, version: u64, default: V) -> (u32, bool) {
        self.find_or_insert(key, version, 0, default)
    }

    fn find_or_insert(&self, key: u64, version: u64, birth: u64, value: V) -> (u32, bool) {
        let bucket = self.bucket(key);
        let mut head = bucket.load(Ordering::Acquire);
        if let Some(slot) = self.find_in_chain(head, key) {
            return (slot, false);
        }
        let slot = self.claimed.fetch_add(1, Ordering::Relaxed);
        assert!(slot < MAX_SLOTS, "memdb table full ({MAX_SLOTS} slots)");
        let (i, off) = locate(slot);
        let chunk = self.chunk_or_alloc(i);
        let (rec, link) = (&chunk.records()[off], &chunk.links()[off]);
        // SAFETY: this thread claimed the slot, so it is zeroed (unlocked)
        // and unreachable: no chain holds it, and scans skip it until
        // LINKED is set below.
        unsafe { rec.init(version, birth, value) };
        // Relaxed: published with the slot by the Release store of `next`.
        link.key.store(key, Ordering::Relaxed);
        let enc = slot as u32 + 1;
        loop {
            // Release: a scan that sees LINKED sees the filled slot.
            link.next.store(LINKED | head, Ordering::Release);
            match bucket.compare_exchange(head, enc, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    return (slot as u32, true);
                }
                Err(now) => {
                    // Re-scan in case a racing insert added our key.
                    if let Some(theirs) = self.find_in_chain(now, key) {
                        // Lost the race: our slot becomes a hole.
                        link.next.store(NIL, Ordering::Release);
                        return (theirs, false);
                    }
                    head = now;
                }
            }
        }
    }

    /// Claim `n` consecutive slots for a bulk load and count them as
    /// records; returns the first slot id. Each slot must then be filled
    /// with [`Table::publish_unique`] before the table is shared.
    pub(crate) fn claim_block(&self, n: usize) -> usize {
        let first = self.claimed.fetch_add(n, Ordering::Relaxed);
        assert!(
            first.checked_add(n).is_some_and(|end| end <= MAX_SLOTS),
            "memdb table full ({MAX_SLOTS} slots)"
        );
        if n > 0 {
            let (lo, _) = locate(first);
            let (hi, _) = locate(first + n - 1);
            for i in lo..=hi {
                self.chunk_or_alloc(i);
            }
        }
        self.len.fetch_add(n, Ordering::Relaxed);
        first
    }

    /// Fill `slot` with a record for `key` born at `version`, and publish
    /// it without looking `key` up.
    ///
    /// # Safety
    /// `slot` comes from a [`Table::claim_block`] and is filled only
    /// once. No record for `key` may exist or be inserted concurrently
    /// (else the key would be in the table twice).
    pub(crate) unsafe fn publish_unique(
        &self,
        slot: usize,
        key: u64,
        version: u64,
        value: V,
        dead: bool,
    ) {
        let (rec, link) = self.entry(slot);
        // SAFETY: a claimed, unfilled slot is zeroed (unlocked) and in no
        // chain, and scans skip it until LINKED is set below.
        unsafe { rec.init(version, version, value) };
        rec.set_dead(dead);
        link.key.store(key, Ordering::Relaxed);
        let bucket = self.bucket(key);
        let mut head = bucket.load(Ordering::Relaxed);
        loop {
            link.next.store(LINKED | head, Ordering::Release);
            match bucket.compare_exchange_weak(
                head,
                slot as u32 + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }

    /// Insert a fully initialized record (pre-load / recovery); panics on
    /// duplicate key.
    pub fn insert(&self, key: u64, version: u64, value: V) {
        let (_, inserted) = self.find_or_insert(key, version, version, value);
        assert!(inserted, "duplicate key {key}");
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots claimed so far: slot scans cover sub-ranges of
    /// `0..slot_count()` (see [`Table::for_each_in_slots`]).
    pub(crate) fn slot_count(&self) -> usize {
        self.claimed.load(Ordering::Acquire).min(MAX_SLOTS)
    }

    /// Visit every published (key, record) whose slot id is in `range`,
    /// in slot order — memory order. Disjoint ranges visit disjoint
    /// records, and concatenating `0..k`, `k..n` visits in the order of
    /// `0..n`. A slot whose insert is racing a scan may be visited while
    /// it is still a placeholder (birth 0).
    pub(crate) fn for_each_in_slots(
        &self,
        range: Range<usize>,
        mut f: impl FnMut(u64, &Record<V>),
    ) {
        let mut slot = range.start;
        while slot < range.end {
            let (i, off) = locate(slot);
            let n = (range.end - slot).min(CHUNK_SLOTS - off);
            if let Some(chunk) = self.chunk(i) {
                let records = &chunk.records()[off..off + n];
                let links = &chunk.links()[off..off + n];
                for (rec, link) in records.iter().zip(links) {
                    if link.next.load(Ordering::Acquire) & LINKED != 0 {
                        f(link.key.load(Ordering::Relaxed), rec);
                    }
                }
            }
            slot += n;
        }
    }
}

impl<V: Pod> Drop for Table<V> {
    fn drop(&mut self) {
        for c in self.chunks.iter_mut() {
            let p = *c.get_mut();
            if !p.is_null() {
                // SAFETY: exclusive access in Drop; each chunk freed once.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_then_get() {
        let t: Table<u64> = Table::new(8);
        t.insert(1, 1, 10);
        t.insert(2, 1, 20);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).map(|r| r.version()), Some(1));
        assert!(t.get(3).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_insert_panics() {
        let t: Table<u64> = Table::new(8);
        t.insert(1, 1, 10);
        t.insert(1, 1, 11);
    }

    #[test]
    fn get_or_insert_returns_existing() {
        let t: Table<u64> = Table::new(8);
        t.insert(5, 1, 50);
        let (r, inserted) = t.get_or_insert(5, 9, 99);
        assert!(!inserted);
        assert_eq!(r.version(), 1, "existing record untouched");
    }

    #[test]
    fn colliding_keys_chain() {
        // Keys mapping to the same bucket (mask 15): craft via same low
        // hash bits by brute force.
        let t: Table<u64> = Table::new(16);
        for k in 0..1000u64 {
            t.insert(k, 1, k);
        }
        assert_eq!(t.len(), 1000);
        for k in 0..1000u64 {
            assert!(t.get(k).is_some(), "missing key {k}");
        }
    }

    #[test]
    fn concurrent_get_or_insert_single_winner() {
        let t: Arc<Table<u64>> = Arc::new(Table::new(4));
        let inserted: usize = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.get_or_insert(42, 1, 0).1 as usize)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(inserted, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let t: Arc<Table<u64>> = Arc::new(Table::new(16));
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        t.insert(tid * 1000 + i, 1, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 2000);
        for tid in 0..4u64 {
            for i in 0..500u64 {
                assert!(t.get(tid * 1000 + i).is_some());
            }
        }
    }

    #[test]
    fn slot_scan_is_insert_order_across_chunks() {
        let t: Table<u64> = Table::new(16);
        let rows = 2 * CHUNK_SLOTS as u64 + 100;
        for k in 0..rows {
            t.insert(k * 7, 1, k);
        }
        let n = t.slot_count();
        assert_eq!(n, rows as usize);
        for shards in [1usize, 3, 8] {
            let mut keys = Vec::new();
            for w in 0..shards {
                t.for_each_in_slots(n * w / shards..n * (w + 1) / shards, |k, r| {
                    assert_eq!(r.read_live() * 7, k);
                    keys.push(k);
                });
            }
            let expect: Vec<u64> = (0..rows).map(|k| k * 7).collect();
            assert_eq!(keys, expect, "{shards} shards");
        }
    }

    #[test]
    fn slot_scans_skip_holes() {
        let t: Table<u64> = Table::new(16);
        t.insert(1, 1, 10);
        // What an insert of key 1 that lost its race leaves behind: a
        // filled slot whose link never kept LINKED.
        let slot = t.claimed.fetch_add(1, Ordering::Relaxed);
        t.chunk_or_alloc(locate(slot).0);
        let (rec, link) = t.entry(slot);
        // SAFETY: the slot was just claimed and is in no chain.
        unsafe { rec.init(1, 1, 99) };
        link.key.store(1, Ordering::Relaxed);
        link.next.store(NIL, Ordering::Release);
        t.insert(2, 1, 20);
        let mut seen = Vec::new();
        t.for_each_in_slots(0..t.slot_count(), |k, r| seen.push((k, r.read_live())));
        assert_eq!(seen, vec![(1, 10), (2, 20)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn racing_inserts_leave_holes_that_scans_skip() {
        let t: Arc<Table<u64>> = Arc::new(Table::new(16));
        let handles: Vec<_> = (0..4u64)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for k in 0..300u64 {
                        t.get_or_insert(k, 1, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 300);
        assert!(t.slot_count() >= 300);
        let mut seen = std::collections::HashSet::new();
        t.for_each_in_slots(0..t.slot_count(), |k, r| {
            assert!(seen.insert(k), "key {k} visited twice");
            assert!(std::ptr::eq(r, t.get(k).unwrap()), "hole visited for {k}");
        });
        assert_eq!(seen.len(), 300);
    }
}
