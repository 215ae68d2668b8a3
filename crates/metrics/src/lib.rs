//! # cpr-metrics — low-overhead observability for the CPR engines
//!
//! The paper's evaluation (Sec. 7, Appendix E) is a story about *where
//! time goes*: commit-latency distributions, per-phase checkpoint
//! durations, epoch-drain stalls, I/O flush tails. This crate provides
//! the shared instrumentation plumbing that makes those measurable
//! without perturbing the hot paths being measured:
//!
//! * [`ShardedCounter`] — cache-padded per-shard cells with relaxed
//!   increments; exact totals on [`ShardedCounter::sum`].
//! * [`LatencyHistogram`] — log-bucketed (4 sub-buckets per power of
//!   two), sharded the same way; merged into percentile estimates on
//!   snapshot.
//! * [`PhaseTracer`] — records each checkpoint's timestamped walk
//!   through REST→PREPARE→IN-PROGRESS→(WAIT-PENDING)→WAIT-FLUSH→REST and
//!   emits per-checkpoint [`CheckpointTimeline`]s (time-in-phase,
//!   slowest observed session, proxy-advance / eviction counts from the
//!   watchdog).
//! * [`Registry`] — one fixed-layout bundle of the above, shared via
//!   `Arc` by every layer of an engine (epoch manager, storage device,
//!   session hot path, checkpoint coordinator). [`Registry::snapshot`]
//!   merges everything into one serializable [`MetricsReport`].
//!
//! ## Overhead discipline
//!
//! Engines default to [`Registry::noop`]: every record method
//! early-returns on a single predictable branch (`enabled == false`),
//! and — by convention — callers gate their `Instant::now()` reads on
//! [`Registry::is_enabled`] so a disabled registry costs neither timer
//! syscalls nor shared-cache-line traffic. When enabled, writers touch
//! only their own cache-padded shard with relaxed atomics; all merging
//! cost is paid by the (rare) snapshotting reader.
//!
//! This crate deliberately depends on no other `cpr-*` crate, so every
//! layer (including `cpr-epoch`, which `cpr-core` itself depends on) can
//! take an `Arc<Registry>` without a dependency cycle. Phase names cross
//! the boundary as plain strings.

mod counter;
mod hist;
mod registry;
mod tracer;

pub use counter::ShardedCounter;
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use registry::{EpochReport, MetricsReport, OpsReport, PhaseTiming, Registry, StorageReport};
pub use tracer::{CheckpointTimeline, PhaseSpan, PhaseTracer};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of cache-padded shards used by counters and histograms. A
/// power of two so the thread-id fold is a mask, sized to cover typical
/// laptop/server core counts without wasting cache on idle shards.
pub(crate) const SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_ID: usize =
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

/// This thread's stable shard index in `[0, SHARDS)`.
#[inline]
pub(crate) fn shard_id() -> usize {
    SHARD_ID.with(|s| *s)
}
