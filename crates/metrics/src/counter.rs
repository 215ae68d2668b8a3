//! Sharded lock-free counter: one cache-padded cell per shard, relaxed
//! increments, exact totals on merge.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::{shard_id, SHARDS};

/// A monotone counter whose hot path is a relaxed `fetch_add` on a
/// thread-affine cache-padded cell. [`ShardedCounter::sum`] is exact once
/// the writers' increments have happened-before the read (e.g. after a
/// `join`); while writers are live it is a consistent lower bound.
pub struct ShardedCounter {
    cells: Box<[CachePadded<AtomicU64>]>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    pub fn new() -> Self {
        let cells = (0..SHARDS)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedCounter { cells }
    }

    /// Add `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[shard_id()].fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to this thread's shard.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Merge every shard into an exact total.
    pub fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardedCounter({})", self.sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_sum_is_exact() {
        let c = ShardedCounter::new();
        for _ in 0..100 {
            c.incr();
        }
        c.add(17);
        assert_eq!(c.sum(), 117);
    }
}
