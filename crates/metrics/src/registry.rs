//! The metrics registry: one fixed-layout bundle of counters,
//! histograms, and the phase tracer, shared by every layer of an engine.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::counter::ShardedCounter;
use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::tracer::{CheckpointTimeline, PhaseTracer};

/// Session/operation metrics.
struct OpMetrics {
    committed: ShardedCounter,
    aborted: ShardedCounter,
    reads: ShardedCounter,
    writes: ShardedCounter,
    /// Latency of successfully committed operations / transactions.
    commit_latency: LatencyHistogram,
}

/// Epoch-subsystem metrics.
struct EpochMetrics {
    bumps: ShardedCounter,
    drained: ShardedCounter,
    /// Latency from `bump_epoch` to the trigger action firing.
    bump_to_drain: LatencyHistogram,
    max_drain_depth: AtomicU64,
}

/// Storage-subsystem metrics.
struct StorageMetrics {
    bytes_written: ShardedCounter,
    writes: ShardedCounter,
    syncs: ShardedCounter,
    /// Latency from write issue to durable completion (and sync calls).
    flush_latency: LatencyHistogram,
    queue_depth: AtomicI64,
    max_queue_depth: AtomicU64,
}

/// The shared metrics sink. Engines hold one `Arc<Registry>` and pass
/// clones to their epoch manager, storage device, sessions, and
/// checkpoint coordinator. A [`Registry::noop`] instance (the default)
/// turns every record method into a single-branch no-op.
pub struct Registry {
    enabled: bool,
    ops: OpMetrics,
    /// Checkpoint phase tracer (public: engines drive begin/mark/end).
    pub checkpoints: PhaseTracer,
    epoch: EpochMetrics,
    storage: StorageMetrics,
    /// One-shot named phase durations (recovery stages, bulk flushes).
    phase_timings: Mutex<Vec<PhaseTiming>>,
}

impl Registry {
    fn build(enabled: bool) -> Arc<Registry> {
        Arc::new(Registry {
            enabled,
            ops: OpMetrics {
                committed: ShardedCounter::new(),
                aborted: ShardedCounter::new(),
                reads: ShardedCounter::new(),
                writes: ShardedCounter::new(),
                commit_latency: LatencyHistogram::new(),
            },
            checkpoints: PhaseTracer::new(enabled),
            epoch: EpochMetrics {
                bumps: ShardedCounter::new(),
                drained: ShardedCounter::new(),
                bump_to_drain: LatencyHistogram::new(),
                max_drain_depth: AtomicU64::new(0),
            },
            storage: StorageMetrics {
                bytes_written: ShardedCounter::new(),
                writes: ShardedCounter::new(),
                syncs: ShardedCounter::new(),
                flush_latency: LatencyHistogram::new(),
                queue_depth: AtomicI64::new(0),
                max_queue_depth: AtomicU64::new(0),
            },
            phase_timings: Mutex::new(Vec::new()),
        })
    }

    /// A collecting registry.
    pub fn new() -> Arc<Registry> {
        Registry::build(true)
    }

    /// A disabled registry: every record method is a single-branch
    /// no-op. This is what engines default to.
    pub fn noop() -> Arc<Registry> {
        Registry::build(false)
    }

    /// Whether collection is on. Callers should gate `Instant::now()`
    /// reads on this so a disabled registry costs no timer syscalls.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    // ---- operation hot path -------------------------------------------------

    /// A transaction / operation committed, with its observed latency.
    #[inline]
    pub fn record_commit(&self, latency: Duration, reads: u64, writes: u64) {
        if !self.enabled {
            return;
        }
        self.ops.committed.incr();
        self.ops.reads.add(reads);
        self.ops.writes.add(writes);
        self.ops.commit_latency.record(latency);
    }

    /// A transaction / operation aborted.
    #[inline]
    pub fn record_abort(&self) {
        if self.enabled {
            self.ops.aborted.incr();
        }
    }

    // ---- epoch subsystem ----------------------------------------------------

    /// An epoch bump scheduled a trigger action; `depth` is the drain
    /// list's length after the push.
    #[inline]
    pub fn epoch_bump(&self, depth: u64) {
        if !self.enabled {
            return;
        }
        self.epoch.bumps.incr();
        self.epoch
            .max_drain_depth
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// A trigger action fired `latency` after its bump.
    #[inline]
    pub fn epoch_drained(&self, latency: Duration) {
        if !self.enabled {
            return;
        }
        self.epoch.drained.incr();
        self.epoch.bump_to_drain.record(latency);
    }

    // ---- storage subsystem --------------------------------------------------

    /// A write of `bytes` was issued to the device.
    #[inline]
    pub fn storage_write_issued(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.storage.writes.incr();
        self.storage.bytes_written.add(bytes);
        let depth = self.storage.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.storage
            .max_queue_depth
            .fetch_max(depth.max(0) as u64, Ordering::Relaxed);
    }

    /// A previously issued write completed (durably or with an error)
    /// `latency` after issue.
    #[inline]
    pub fn storage_write_done(&self, latency: Duration) {
        if !self.enabled {
            return;
        }
        self.storage.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.storage.flush_latency.record(latency);
    }

    /// A device sync completed in `latency`.
    #[inline]
    pub fn storage_sync(&self, latency: Duration) {
        if !self.enabled {
            return;
        }
        self.storage.syncs.incr();
        self.storage.flush_latency.record(latency);
    }

    // ---- one-shot phase timings ---------------------------------------------

    /// Record one named coarse-grained phase (e.g. `recovery.scan`,
    /// `flush.fold-over`) with the worker parallelism it ran at.
    /// Cold-path only: recovery and checkpoint-flush stages, never
    /// per-operation.
    #[inline]
    pub fn record_phase(&self, name: &str, threads: usize, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        self.phase_timings.lock().push(PhaseTiming {
            name: name.to_string(),
            threads,
            millis: elapsed.as_secs_f64() * 1e3,
        });
    }

    // ---- snapshot -----------------------------------------------------------

    /// Merge everything into a serializable report. Cheap enough to call
    /// periodically; exact once writers have quiesced.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            enabled: self.enabled,
            ops: OpsReport {
                committed: self.ops.committed.sum(),
                aborted: self.ops.aborted.sum(),
                reads: self.ops.reads.sum(),
                writes: self.ops.writes.sum(),
                commit_latency: self.ops.commit_latency.snapshot(),
            },
            checkpoints: self.checkpoints.timelines(),
            epoch: EpochReport {
                bumps: self.epoch.bumps.sum(),
                drained: self.epoch.drained.sum(),
                max_drain_depth: self.epoch.max_drain_depth.load(Ordering::Relaxed),
                bump_to_drain: self.epoch.bump_to_drain.snapshot(),
            },
            storage: StorageReport {
                bytes_written: self.storage.bytes_written.sum(),
                writes: self.storage.writes.sum(),
                syncs: self.storage.syncs.sum(),
                max_queue_depth: self.storage.max_queue_depth.load(Ordering::Relaxed),
                flush_latency: self.storage.flush_latency.snapshot(),
                faults_injected: 0,
            },
            phase_timings: self.phase_timings.lock().clone(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// Serializable merge of a [`Registry`] — what
/// `MemDb::metrics_snapshot()` / `FasterKv::metrics_snapshot()` return
/// and what `cpr-bench --metrics-out` writes to disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReport {
    pub enabled: bool,
    pub ops: OpsReport,
    /// Recent checkpoint timelines, oldest first (bounded ring).
    pub checkpoints: Vec<CheckpointTimeline>,
    pub epoch: EpochReport,
    pub storage: StorageReport,
    /// Coarse recovery/flush stage durations, in record order.
    pub phase_timings: Vec<PhaseTiming>,
}

/// One named recovery/flush stage: how long it took and at what worker
/// parallelism it ran.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTiming {
    pub name: String,
    pub threads: usize,
    pub millis: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpsReport {
    pub committed: u64,
    pub aborted: u64,
    pub reads: u64,
    pub writes: u64,
    pub commit_latency: HistogramSnapshot,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    pub bumps: u64,
    pub drained: u64,
    pub max_drain_depth: u64,
    pub bump_to_drain: HistogramSnapshot,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageReport {
    pub bytes_written: u64,
    pub writes: u64,
    pub syncs: u64,
    pub max_queue_depth: u64,
    pub flush_latency: HistogramSnapshot,
    /// Filled in by engines that share a fault injector with the store.
    pub faults_injected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_registry_stays_empty() {
        let r = Registry::noop();
        r.record_commit(Duration::from_micros(5), 3, 1);
        r.record_abort();
        r.epoch_bump(4);
        r.epoch_drained(Duration::from_micros(1));
        r.storage_write_issued(4096);
        r.storage_write_done(Duration::from_micros(9));
        let s = r.snapshot();
        assert!(!s.enabled);
        assert_eq!(s.ops.committed, 0);
        assert_eq!(s.epoch.bumps, 0);
        assert_eq!(s.storage.bytes_written, 0);
    }

    #[test]
    fn report_serializes_to_json() {
        let r = Registry::new();
        r.record_commit(Duration::from_micros(5), 3, 1);
        r.checkpoints.begin(1, "cpr");
        r.checkpoints.mark(1, "in-progress");
        r.checkpoints.end(1, true, 1, 0, 0);
        r.record_phase("recovery.scan", 4, Duration::from_millis(12));
        let json = serde_json::to_string_pretty(&r.snapshot()).unwrap();
        assert!(json.contains("\"commit_latency\""), "{json}");
        assert!(json.contains("\"in-progress\""), "{json}");
        assert!(json.contains("\"recovery.scan\""), "{json}");
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ops.committed, 1);
        assert_eq!(back.checkpoints.len(), 1);
        assert_eq!(back.phase_timings.len(), 1);
        assert_eq!(back.phase_timings[0].threads, 4);
    }

    #[test]
    fn phase_timings_round_trip() {
        let r = Registry::new();
        r.record_phase("flush.snapshot", 2, Duration::from_millis(7));
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.phase_timings.len(), 1);
        assert_eq!(back.phase_timings[0].name, "flush.snapshot");
        assert!(back.phase_timings[0].millis >= 7.0);
    }
}
