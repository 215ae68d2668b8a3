//! Database records: a 2PL lock word, a version, and *live*/*stable*
//! value slots (paper Sec. 4.1).
//!
//! The CPR and CALC backends both keep two values per record. An optimal
//! CPR implementation needs only one (paper Sec. 7.1 keeps two for a
//! head-to-head comparison with CALC, and so do we).
//!
//! A record is cache-line aligned and holds only what transactions and
//! the capture pass touch: with `V = u64` it is exactly one 64-byte line.
//! The key and the hash-chain link live in the table's index arrays
//! instead (see [`Table`](crate::Table)).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use cpr_core::{NoWaitLock, Pod};

/// `flags` bit: `live` is a tombstone.
const DEAD: u64 = 1;
/// `flags` bit: `stable` is a tombstone (`DEAD` as of the version shift).
const STABLE_DEAD: u64 = 2;

/// One database record.
///
/// # Safety discipline
/// `live` is read under a shared or exclusive lock and written only under
/// the exclusive lock. `stable` is written only under the exclusive lock
/// (during the version shift or a CALC pre-image copy) and read either
/// under any lock or — by the capture thread — under a shared lock after
/// re-checking `version`. Records are never deallocated while the table is
/// alive.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct Record<V: Pod> {
    pub lock: NoWaitLock,
    /// CPR database version of the record (paper: the integer stored with
    /// each record). For CALC this doubles as the "stable diverged at
    /// checkpoint epoch" mark.
    pub version: AtomicU64,
    /// Database version of the record's first committed write; 0 means
    /// "never written". Lets the capture pass exclude records inserted by
    /// post-CPR-point transactions (and ghosts left by aborted inserting
    /// transactions) from the version-`v` checkpoint. Written under the
    /// exclusive lock; read under any lock.
    birth: AtomicU64,
    /// Version of the most recent write to `live` (incremental
    /// checkpoints capture only records modified during the committing
    /// cycle). Written under the exclusive lock.
    modified: AtomicU64,
    /// `modified` as of the version shift — pairs with `stable` exactly
    /// as `modified` pairs with `live`.
    stable_modified: AtomicU64,
    /// Tombstone bits, [`DEAD`] for `live` and [`STABLE_DEAD`] for
    /// `stable`. Deleted records keep their slot — the version-shift
    /// machinery needs the record to exist so deletes cross the
    /// live/stable path like writes do. Written under the exclusive lock.
    flags: AtomicU64,
    live: UnsafeCell<V>,
    stable: UnsafeCell<V>,
}

// SAFETY: access to the UnsafeCells follows the lock discipline documented
// on the struct; V: Pod implies V: Send + Sync + Copy.
unsafe impl<V: Pod> Sync for Record<V> {}
unsafe impl<V: Pod> Send for Record<V> {}

impl<V: Pod> Record<V> {
    /// A record whose content is already valid (pre-load / recovery):
    /// `birth` is set to `version`.
    pub fn new(version: u64, value: V) -> Self {
        Self::with_birth(version, version, value)
    }

    /// A placeholder created by a running transaction; it becomes visible
    /// to checkpoints and reads only after its first committed write sets
    /// `birth`.
    pub fn uninitialized(version: u64, value: V) -> Self {
        Self::with_birth(version, 0, value)
    }

    fn with_birth(version: u64, birth: u64, value: V) -> Self {
        Record {
            lock: NoWaitLock::new(),
            version: AtomicU64::new(version),
            birth: AtomicU64::new(birth),
            modified: AtomicU64::new(birth),
            stable_modified: AtomicU64::new(birth),
            flags: AtomicU64::new(0),
            live: UnsafeCell::new(value),
            stable: UnsafeCell::new(value),
        }
    }

    /// Fill a slot the table has claimed but not yet published — the
    /// in-place form of [`Record::new`] (`birth = version`) or
    /// [`Record::uninitialized`] (`birth = 0`).
    ///
    /// # Safety
    /// The record must be unlocked, and no other thread may access it
    /// until it is published.
    pub(crate) unsafe fn init(&self, version: u64, birth: u64, value: V) {
        self.version.store(version, Ordering::Relaxed);
        self.birth.store(birth, Ordering::Relaxed);
        self.modified.store(birth, Ordering::Relaxed);
        self.stable_modified.store(birth, Ordering::Relaxed);
        self.flags.store(0, Ordering::Relaxed);
        // SAFETY: no other thread accesses the record (caller contract).
        unsafe {
            *self.live.get() = value;
            *self.stable.get() = value;
        }
    }

    /// Version of the first write (0 = never written).
    #[inline]
    pub fn birth(&self) -> u64 {
        self.birth.load(Ordering::Acquire)
    }

    /// Record the first-write version if not yet set. Caller must hold the
    /// exclusive lock.
    #[inline]
    pub fn set_birth_if_unset(&self, version: u64) {
        if self.birth.load(Ordering::Relaxed) == 0 {
            self.birth.store(version, Ordering::Release);
        }
    }

    /// Read the live value. Caller must hold the lock (shared or
    /// exclusive).
    #[inline]
    pub fn read_live(&self) -> V {
        // SAFETY: lock held per the struct discipline.
        unsafe { *self.live.get() }
    }

    /// Write the live value. Caller must hold the exclusive lock.
    #[inline]
    pub fn write_live(&self, v: V) {
        // SAFETY: exclusive lock held.
        unsafe { *self.live.get() = v }
    }

    /// Copy live → stable (the version-shift copy of Alg. 1 / CALC's
    /// pre-image materialization), along with its modified-version and
    /// tombstone tags. Caller must hold the exclusive lock.
    #[inline]
    pub fn copy_live_to_stable(&self) {
        // SAFETY: exclusive lock held.
        unsafe { *self.stable.get() = *self.live.get() }
        self.stable_modified
            .store(self.modified.load(Ordering::Relaxed), Ordering::Release);
        let f = self.flags.load(Ordering::Relaxed);
        let stable = if f & DEAD != 0 { STABLE_DEAD } else { 0 };
        self.flags
            .store((f & !STABLE_DEAD) | stable, Ordering::Release);
    }

    /// Tombstone state of `live`. Read under any lock.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.flags.load(Ordering::Acquire) & DEAD != 0
    }

    /// Set/clear the live tombstone. Caller must hold the exclusive lock.
    #[inline]
    pub fn set_dead(&self, dead: bool) {
        let f = self.flags.load(Ordering::Relaxed);
        let f = if dead { f | DEAD } else { f & !DEAD };
        self.flags.store(f, Ordering::Release);
    }

    /// Tombstone state as captured at the last version shift.
    #[inline]
    pub fn stable_dead(&self) -> bool {
        self.flags.load(Ordering::Acquire) & STABLE_DEAD != 0
    }

    /// Version of the most recent write to `live`.
    #[inline]
    pub fn modified(&self) -> u64 {
        self.modified.load(Ordering::Acquire)
    }

    /// `modified` as captured at the last version shift.
    #[inline]
    pub fn stable_modified(&self) -> u64 {
        self.stable_modified.load(Ordering::Acquire)
    }

    /// Tag a write to `live` with the transaction version. Caller must
    /// hold the exclusive lock.
    #[inline]
    pub fn set_modified(&self, version: u64) {
        self.modified.store(version, Ordering::Release);
    }

    /// Read the stable value. Caller must hold a lock and have verified
    /// `version` indicates the stable slot is the one to capture.
    #[inline]
    pub fn read_stable(&self) -> V {
        // SAFETY: see struct discipline.
        unsafe { *self.stable.get() }
    }

    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    #[inline]
    pub fn set_version(&self, v: u64) {
        self.version.store(v, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn u64_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Record<u64>>(), 64);
        assert_eq!(std::mem::align_of::<Record<u64>>(), 64);
        // Wider values round up to whole lines.
        assert_eq!(std::mem::size_of::<Record<[u64; 4]>>(), 128);
    }

    #[test]
    fn tombstones_cross_the_version_shift() {
        let r = Record::new(1, 7u64);
        assert!(r.lock.try_exclusive());
        r.set_dead(true);
        assert!(r.is_dead());
        assert!(!r.stable_dead(), "stable keeps its pre-shift tombstone");
        r.copy_live_to_stable();
        assert!(r.stable_dead());
        r.set_dead(false);
        assert!(!r.is_dead());
        assert!(r.stable_dead(), "live writes leave stable alone");
        r.copy_live_to_stable();
        assert!(!r.stable_dead());
        r.lock.release_exclusive();
    }

    #[test]
    fn shared_locks_stack() {
        let l = NoWaitLock::new();
        assert!(l.try_shared());
        assert!(l.try_shared());
        assert_eq!(l.shared_count(), 2);
        assert!(!l.try_exclusive(), "exclusive blocked by readers");
        l.release_shared();
        l.release_shared();
        assert!(l.try_exclusive());
    }

    #[test]
    fn exclusive_blocks_everything() {
        let l = NoWaitLock::new();
        assert!(l.try_exclusive());
        assert!(!l.try_shared());
        assert!(!l.try_exclusive());
        l.release_exclusive();
        assert!(l.try_shared());
    }

    #[test]
    fn record_value_roundtrip() {
        let r = Record::new(1, 7u64);
        assert!(r.lock.try_exclusive());
        r.write_live(99);
        assert_eq!(r.read_live(), 99);
        assert_eq!(r.read_stable(), 7, "stable untouched by live write");
        r.copy_live_to_stable();
        assert_eq!(r.read_stable(), 99);
        r.lock.release_exclusive();
    }

    #[test]
    fn version_updates() {
        let r = Record::new(3, 0u64);
        assert_eq!(r.version(), 3);
        r.set_version(4);
        assert_eq!(r.version(), 4);
    }

    #[test]
    fn lock_under_contention_grants_one_exclusive() {
        let l = Arc::new(NoWaitLock::new());
        let wins: usize = (0..8)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || l.try_exclusive() as usize)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(wins, 1);
    }
}
