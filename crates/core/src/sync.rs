//! Shared synchronization primitives.

use std::sync::atomic::{AtomicU64, Ordering};

/// Exclusive bit of the lock word; lower bits count shared holders.
const EXCLUSIVE: u64 = 1 << 63;

/// A reader/writer latch with *No-Wait* semantics: acquisition never
/// blocks, it either succeeds immediately or fails.
///
/// Used as the record lock of the transactional database (strict 2PL
/// No-Wait — a failed acquisition aborts the transaction) and as the
/// per-hash-bucket latch of FASTER's fine-grained CPR variant (paper
/// Sec. 6.2: prepare threads take it shared, in-progress threads take it
/// exclusive to hand records over to the next version).
#[derive(Debug, Default)]
pub struct NoWaitLock {
    word: AtomicU64,
}

impl NoWaitLock {
    pub fn new() -> Self {
        NoWaitLock {
            word: AtomicU64::new(0),
        }
    }

    /// Try to acquire in shared (read) mode.
    #[inline]
    pub fn try_shared(&self) -> bool {
        let mut cur = self.word.load(Ordering::Relaxed);
        loop {
            if cur & EXCLUSIVE != 0 {
                return false;
            }
            match self.word.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(v) => cur = v,
            }
        }
    }

    /// Try to acquire in exclusive (write) mode.
    #[inline]
    pub fn try_exclusive(&self) -> bool {
        self.word
            .compare_exchange(0, EXCLUSIVE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Try to upgrade a shared lock (held by the caller) to exclusive.
    /// Succeeds only if the caller is the sole shared holder. On success
    /// the caller holds the exclusive lock; on failure it still holds its
    /// shared lock.
    #[inline]
    pub fn try_upgrade(&self) -> bool {
        self.word
            .compare_exchange(1, EXCLUSIVE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Downgrade an exclusive lock (held by the caller) to shared.
    #[inline]
    pub fn downgrade(&self) {
        debug_assert_eq!(self.word.load(Ordering::Relaxed), EXCLUSIVE);
        self.word.store(1, Ordering::Release);
    }

    /// Release the shared lock.
    #[inline]
    pub fn release_shared(&self) {
        let prev = self.word.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & EXCLUSIVE == 0 && prev > 0, "unbalanced release");
    }

    #[inline]
    pub fn release_exclusive(&self) {
        debug_assert_eq!(self.word.load(Ordering::Relaxed), EXCLUSIVE);
        self.word.store(0, Ordering::Release);
    }

    /// Current number of shared holders (0 if exclusively held).
    pub fn shared_count(&self) -> u64 {
        let w = self.word.load(Ordering::Acquire);
        if w & EXCLUSIVE != 0 {
            0
        } else {
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn upgrade_only_for_sole_holder() {
        let l = NoWaitLock::new();
        assert!(l.try_shared());
        assert!(l.try_upgrade());
        l.downgrade();
        assert!(l.try_shared());
        assert!(!l.try_upgrade(), "two holders: no upgrade");
        l.release_shared();
        l.release_shared();
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
