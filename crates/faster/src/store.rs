//! The FASTER key-value store with CPR durability (paper Secs. 5–6).

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::commit::{advance_when_all_at, always};
use cpr_core::liveness::{CommitOutcome, LivenessConfig};
use cpr_core::watchdog::Remedies;
use cpr_core::{
    CheckpointManifest, CheckpointVersion, CommitCore, CprEngine, NoWaitLock, Phase, Pod, SessionId,
};
use cpr_epoch::EpochManager;
use cpr_metrics::{MetricsReport, Registry};
use cpr_storage::{
    CheckpointStore, Device, FaultDevice, FaultInjector, FileDevice, IoProfile, MeteredDevice,
};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::compact::{CompactionStats, Compactor};
use crate::hlog::{segment_bits, HlogConfig, HybridLog};
use crate::index::HashIndex;
use crate::io::IoPool;
use crate::session::FasterSession;

/// How the volatile version-`v` records are captured (paper Appx. D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointVariant {
    /// Advance the read-only offset to the tail: the log file itself is
    /// the (incremental) checkpoint. Post-commit updates pay a
    /// read-copy-update until the working set migrates back.
    FoldOver,
    /// Write the volatile region to a separate snapshot file; the mutable
    /// region reopens for in-place updates right after the commit.
    Snapshot,
}

/// How threads hand records over to the next version (paper Appx. C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionGrain {
    /// Per-hash-bucket latches (lower latency, prepare-phase latch cost).
    Fine,
    /// Use the safe-read-only offset as a coarse marker; contended
    /// requests go pending instead.
    Coarse,
}

/// Threads of the background I/O completion pool.
const IO_THREADS: usize = 2;

/// Store configuration, set (and documented) through [`FasterBuilder`].
pub(crate) struct FasterOptions<V: Pod> {
    pub index_buckets: usize,
    pub hlog: HlogConfig,
    pub dir: PathBuf,
    pub refresh_every: u64,
    pub grain: VersionGrain,
    pub max_sessions: usize,
    pub io_threads: usize,
    pub io_profile: IoProfile,
    pub rmw: fn(V, V) -> V,
    pub fault: Option<Arc<FaultInjector>>,
    pub liveness: Option<LivenessConfig>,
    pub metrics: Arc<Registry>,
}

impl<V: Pod> FasterOptions<V> {
    /// Baseline configuration shared by every entry point. The default
    /// `rmw` is last-writer-wins (`new = input`); the default `hlog`
    /// sizes `value_size` for `V`.
    pub(crate) fn defaults(dir: PathBuf) -> Self {
        let mut hlog = HlogConfig::small_for_tests();
        hlog.value_size = std::mem::size_of::<V>();
        FasterOptions {
            index_buckets: 1 << 12,
            hlog,
            dir,
            refresh_every: 64,
            grain: VersionGrain::Fine,
            max_sessions: 64,
            io_threads: cpr_storage::env_io_threads(),
            io_profile: IoProfile::NONE,
            rmw: |_old, input| input,
            fault: None,
            liveness: None,
            metrics: Registry::noop(),
        }
    }
}

/// Fluent builder for a [`FasterKv`] store; obtained from
/// [`FasterKv::builder`]. Terminal methods are [`open`](Self::open)
/// (fresh store, truncates any existing log) and
/// [`recover`](Self::recover) (Alg. 3 recovery from the newest committed
/// checkpoint).
///
/// Defaults: `index_buckets = 4096`, a small test-sized hybrid log with
/// `value_size = size_of::<V>()`, `refresh_every = 64`,
/// `grain = VersionGrain::Fine`, `max_sessions = 64`,
/// last-writer-wins RMW (`new = input`), no fault injection, no liveness
/// watchdog, and a disabled metrics registry. Use
/// [`FasterBuilder::u64_sums`] for the paper's summing YCSB workload.
///
/// ```
/// use cpr_faster::{FasterKv, Status};
///
/// let dir = tempfile::tempdir().unwrap();
/// let kv: FasterKv<u64> = FasterKv::builder(dir.path())
///     .refresh_every(16)
///     .open()
///     .unwrap();
/// let mut session = kv.start_session(1);
/// assert_eq!(session.upsert(1, 42), Status::Ok);
/// ```
pub struct FasterBuilder<V: Pod> {
    opts: FasterOptions<V>,
}

impl<V: Pod> std::fmt::Debug for FasterBuilder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FasterBuilder")
            .field("dir", &self.opts.dir)
            .field("index_buckets", &self.opts.index_buckets)
            .field("grain", &self.opts.grain)
            .finish_non_exhaustive()
    }
}

impl FasterBuilder<u64> {
    /// The paper's YCSB RMW workload preset: a running per-key sum.
    pub fn u64_sums(dir: impl Into<PathBuf>) -> Self {
        FasterBuilder::new(dir).rmw(|old, input| old.wrapping_add(input))
    }
}

impl<V: Pod> FasterBuilder<V> {
    /// Start from the documented defaults, rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FasterBuilder {
            opts: FasterOptions::defaults(dir.into()),
        }
    }

    /// Number of hash-index buckets (8 entries each).
    pub fn index_buckets(mut self, n: usize) -> Self {
        self.opts.index_buckets = n;
        self
    }
    /// Hybrid-log geometry; `value_size` must equal `size_of::<V>()`.
    pub fn hlog(mut self, hlog: HlogConfig) -> Self {
        self.opts.hlog = hlog;
        self
    }
    /// Ops between automatic session refreshes.
    pub fn refresh_every(mut self, k: u64) -> Self {
        self.opts.refresh_every = k;
        self
    }
    /// Version-shift granularity (paper Appx. C).
    pub fn grain(mut self, g: VersionGrain) -> Self {
        self.opts.grain = g;
        self
    }
    /// Maximum number of concurrently live sessions.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.opts.max_sessions = n;
        self
    }
    /// Threads for large I/O passes (default: [`cpr_storage::env_io_threads`],
    /// 1 unless `CPR_IO_THREADS` says otherwise): the log device's writer
    /// queues, which checkpoint flushes stripe their chunks across, the
    /// striped checkpoint file writes, and the recovery scan of `[S, E)`.
    /// Checkpoint and recovered bytes are identical at any count.
    pub fn io_threads(mut self, n: usize) -> Self {
        self.opts.io_threads = n.max(1);
        self
    }
    /// Simulated device speed profile for the log device (benchmarks).
    pub fn io_profile(mut self, profile: IoProfile) -> Self {
        self.opts.io_profile = profile;
        self
    }
    /// RMW semantics: `new = rmw(old, input)`; a missing key starts from
    /// `input`.
    pub fn rmw(mut self, f: fn(V, V) -> V) -> Self {
        self.opts.rmw = f;
        self
    }
    /// Decorate the log device and checkpoint store with a scriptable
    /// fault injector (crash-recovery testing).
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.opts.fault = Some(injector);
        self
    }
    /// Enable the session liveness watchdog: lease-based straggler
    /// detection, checkpoint abort + backoff, dead-session reclamation.
    pub fn liveness(mut self, cfg: LivenessConfig) -> Self {
        self.opts.liveness = Some(cfg);
        self
    }
    /// Attach a metrics registry (see [`cpr_metrics::Registry::new`]).
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.opts.metrics = registry;
        self
    }
    /// Open a fresh store (truncates any existing log).
    pub fn open(self) -> io::Result<FasterKv<V>> {
        FasterKv::open_inner(self.opts)
    }

    /// Recover from the newest committed checkpoint (paper Sec. 6.4 /
    /// Alg. 3). Returns the manifest used, if any.
    pub fn recover(self) -> io::Result<(FasterKv<V>, Option<CheckpointManifest>)> {
        crate::recovery::recover(self.opts)
    }
}

/// A checkpoint in flight.
pub(crate) struct CkptCtx {
    pub token: u64,
    pub variant: CheckpointVariant,
    pub log_only: bool,
    pub lhs: u64,
    /// Log-only fold-over: the log end (`L_he`) fixed, and the read-only
    /// shift to it started, at the wait-pending → wait-flush transition.
    pub fold_end: Option<u64>,
    pub started: Instant,
    pub phase_marks: Vec<(Phase, Duration)>,
}

/// Mirror of the protections held by one pending operation, kept in a
/// shared registry (`StoreInner::offline_pending`) so the liveness
/// watchdog can cancel a dead session's pendings: release its shared
/// bucket latches and key guards and decrement the pending counters that
/// gate wait-pending → wait-flush. The map entry is the *ownership token*
/// for those releases — whoever removes it (owner on completion, watchdog
/// on eviction) performs them, so they can never happen twice.
pub(crate) struct OfflineGuard {
    pub serial: u64,
    /// Version the op was accepted under (indexes `pending_count`).
    pub tag: u64,
    pub latch: Option<usize>,
    pub guarded_key: Option<u64>,
}

pub(crate) struct StoreInner<V: Pod> {
    /// The CPR protocol core: state machine, sessions, commit publication.
    /// First, so that dropping the store joins its worker threads before
    /// any other field is freed.
    pub(crate) core: CommitCore,
    pub(crate) index: HashIndex,
    pub(crate) latches: Box<[NoWaitLock]>,
    pub(crate) hlog: Arc<HybridLog>,
    pub(crate) epoch: Arc<EpochManager>,
    pub(crate) store: CheckpointStore,
    /// Outstanding pending operations per version parity (gates the
    /// wait-pending → wait-flush transition).
    pub(crate) pending_count: [CachePadded<AtomicU64>; 2],
    /// Coarse grain: keys with outstanding pre-point (version v) pending
    /// ops; post-point writers must not overtake them.
    pub(crate) pending_v_keys: Mutex<HashSet<u64>>,
    pub(crate) io: IoPool,
    pub(crate) ckpt: Mutex<Option<CkptCtx>>,
    /// Liveness configuration (None = no watchdog, zero overhead).
    pub(crate) liveness: Option<LivenessConfig>,
    /// Per-session-slot mirror of pending-op protections (see
    /// [`OfflineGuard`]). Populated only when liveness is on.
    pub(crate) offline_pending: Mutex<HashMap<usize, Vec<OfflineGuard>>>,
    pub(crate) last_phase_marks: Mutex<Vec<(Phase, Duration)>>,
    pub(crate) refresh_every: u64,
    pub(crate) grain: VersionGrain,
    /// I/O threads: log-device writer queues (for flush phase-timing
    /// attribution).
    pub(crate) io_threads: usize,
    pub(crate) rmw: fn(V, V) -> V,
    pub(crate) value_words: usize,
    /// Observability sink (no-op unless enabled at open time).
    pub(crate) metrics: Arc<Registry>,
    /// Cached `metrics.is_enabled()` so hot paths skip clock reads.
    pub(crate) metrics_on: bool,
    /// Fault injector handle, kept so snapshots can report fault hits.
    pub(crate) fault: Option<Arc<FaultInjector>>,
    /// Log compaction state (see `compact.rs`).
    pub(crate) compactor: Compactor,
    /// The index checkpoint buffer, reused by every commit.
    pub(crate) index_buf: Mutex<Vec<u8>>,
}

/// Handle to a FASTER store; cheap to clone.
pub struct FasterKv<V: Pod> {
    pub(crate) inner: Arc<StoreInner<V>>,
}

/// Store-centric alias for [`FasterKv`], matching the builder-first API
/// surface (`FasterStore::builder(dir)...open()`).
pub type FasterStore<V> = FasterKv<V>;

impl<V: Pod> Clone for FasterKv<V> {
    fn clone(&self) -> Self {
        FasterKv {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: Pod> FasterKv<V> {
    /// Fluent configuration starting from the documented defaults; see
    /// [`FasterBuilder`].
    pub fn builder(dir: impl Into<PathBuf>) -> FasterBuilder<V> {
        FasterBuilder::new(dir)
    }

    pub(crate) fn open_inner(opts: FasterOptions<V>) -> io::Result<Self> {
        std::fs::create_dir_all(&opts.dir)?;
        let base: Arc<dyn Device> = Arc::new(FileDevice::create_segmented(
            opts.dir.join("log.dat"),
            segment_bits(opts.hlog.page_bits),
            opts.io_threads,
            opts.io_profile,
        )?);
        let device: Arc<dyn Device> = match &opts.fault {
            Some(inj) => Arc::new(FaultDevice::new(base, Arc::clone(inj))),
            None => base,
        };
        Self::build(opts, device, None)
    }

    /// Assemble a store over `device`; `recovered` is what recovery
    /// rebuilt: the index, the version to resume at, the sessions'
    /// commit points, and the recovered commit's `L_he`.
    pub(crate) fn build(
        opts: FasterOptions<V>,
        device: Arc<dyn Device>,
        recovered: Option<(HashIndex, u64, HashMap<u64, u64>, u64)>,
    ) -> io::Result<Self> {
        let epoch = Arc::new(EpochManager::new(opts.max_sessions + 8));
        assert_eq!(
            opts.hlog.value_size,
            std::mem::size_of::<V>(),
            "hlog value_size must match size_of::<V>()"
        );
        let metrics_on = opts.metrics.is_enabled();
        let device: Arc<dyn Device> = if metrics_on {
            epoch.set_metrics(Arc::clone(&opts.metrics));
            Arc::new(MeteredDevice::new(device, Arc::clone(&opts.metrics)))
        } else {
            device
        };
        let hlog = HybridLog::new(opts.hlog, Arc::clone(&device), Arc::clone(&epoch));
        let (index, version, sessions, lhe) = match recovered {
            Some(r) => r,
            None => (HashIndex::new(opts.index_buckets), 1, HashMap::new(), 0),
        };
        let latch_count = index.bucket_count();
        let store = CheckpointStore::open_with(opts.dir.join("checkpoints"), opts.fault.clone())?
            .with_metrics(Arc::clone(&opts.metrics))
            .with_io_threads(opts.io_threads);
        let io = IoPool::new(device, IO_THREADS);
        let inner = Arc::new(StoreInner {
            latches: (0..latch_count).map(|_| NoWaitLock::new()).collect(),
            index,
            hlog,
            epoch,
            core: CommitCore::new(opts.max_sessions, version, sessions),
            store,
            pending_count: [
                CachePadded::new(AtomicU64::new(0)),
                CachePadded::new(AtomicU64::new(0)),
            ],
            pending_v_keys: Mutex::new(HashSet::new()),
            io,
            ckpt: Mutex::new(None),
            liveness: opts.liveness.clone(),
            offline_pending: Mutex::new(HashMap::new()),
            last_phase_marks: Mutex::new(Vec::new()),
            refresh_every: opts.refresh_every,
            grain: opts.grain,
            io_threads: opts.io_threads,
            rmw: opts.rmw,
            value_words: crate::header::RecordLayout::new(opts.hlog.value_size).value_words(),
            metrics: opts.metrics,
            metrics_on,
            fault: opts.fault,
            compactor: Compactor::new((version - 1, lhe)),
            index_buf: Mutex::new(Vec::new()),
        });
        CommitCore::start_flush_worker(
            &inner,
            "cpr-faster-checkpoint",
            crate::checkpoint::run_wait_flush,
        );
        CommitCore::start_background_worker(
            &inner,
            "cpr-faster-compactor",
            crate::compact::maybe_compact,
        );
        if let Some(cfg) = inner.liveness.clone() {
            cpr_core::watchdog::start(&inner, cfg, "cpr-faster-watchdog");
        }
        Ok(FasterKv { inner })
    }

    /// Start a session (paper Sec. 5.2). `guid` identifies it across
    /// crashes.
    pub fn start_session(&self, guid: u64) -> FasterSession<V> {
        FasterSession::new(Arc::clone(&self.inner), guid, 0)
    }

    /// Re-establish a session by guid: returns the session and the serial
    /// it should resume from. If the guid detached while this store stayed
    /// up (client reconnect, no crash), that is its last *accepted* serial
    /// — nothing was lost, so nothing needs replay. Otherwise it is the
    /// guid's commit point from the recovery manifest: every later serial
    /// must be re-issued (the CPR resume contract, paper Sec. 2).
    pub fn continue_session(&self, guid: u64) -> (FasterSession<V>, u64) {
        let serial = self.inner.core.resume_serial(guid);
        (
            FasterSession::new(Arc::clone(&self.inner), guid, serial),
            serial,
        )
    }

    /// The guid's durable commit point: the serial below which every op
    /// is guaranteed recovered after a crash right now.
    pub fn durable_point(&self, guid: u64) -> u64 {
        self.inner.core.durable_point(guid)
    }

    /// Request a CPR commit (paper Fig. 9a). Returns `false` if one is
    /// already in flight. `log_only = true` skips the fuzzy index
    /// checkpoint (paper Sec. 6.3: the index can be checkpointed far less
    /// frequently).
    pub fn request_checkpoint(&self, variant: CheckpointVariant, log_only: bool) -> bool {
        if !start_checkpoint(&self.inner, variant, log_only) {
            return false;
        }
        self.inner.core.begin_outcome();
        true
    }

    /// Run one log compaction pass now, on this thread: copy every live
    /// record below `until` (clamped to the region a pass may take and
    /// rounded down to a device segment) to the tail. The next commit
    /// that begins after this call publishes the new begin address, and
    /// once it is durable the log below it is given back. A background
    /// worker already does this by the rule in [`crate::COMPACT_SPAN_FACTOR`];
    /// returns `None` if there was nothing to do or an earlier pass still
    /// awaits its commit. Like a commit, a pass needs the store's sessions
    /// to keep refreshing (its appends may wait for an epoch drain), so
    /// call it from a thread that owns no session.
    pub fn compact_log(&self, until: u64) -> io::Result<Option<CompactionStats>> {
        crate::compact::compact(&self.inner, until)
    }

    /// Fuzzy checkpoint of the hash index alone (paper Sec. 6.3).
    pub fn checkpoint_index(&self) -> io::Result<u64> {
        crate::checkpoint::index_checkpoint(&self.inner)
    }

    /// Register a commit observer (paper Sec. 5.2): called with the
    /// committed version and every session's CPR point after each durable
    /// commit, before [`FasterKv::committed_version`] reports it. Runs
    /// on the checkpoint thread — keep it brief.
    pub fn on_commit(
        &self,
        callback: impl Fn(u64, &[cpr_core::SessionCpr]) + Send + Sync + 'static,
    ) {
        self.inner.core.on_commit(Box::new(callback));
    }

    /// Version of the newest durable commit
    /// ([`CheckpointVersion::NONE`] = none).
    pub fn committed_version(&self) -> CheckpointVersion {
        self.inner.core.committed_version()
    }

    /// Snapshot of every metric the store has recorded: op latencies,
    /// per-checkpoint phase timelines, epoch drain behaviour and storage
    /// traffic. Cheap when metrics are disabled (returns an empty,
    /// `enabled: false` report).
    pub fn metrics_snapshot(&self) -> MetricsReport {
        let mut report = self.inner.metrics.snapshot();
        if let Some(inj) = &self.inner.fault {
            report.storage.faults_injected = inj.fault_hits();
        }
        report
    }

    /// Number of checkpoint attempts that failed on I/O and were aborted
    /// (no manifest committed; sessions returned to rest).
    pub fn checkpoint_failures(&self) -> u64 {
        self.inner.core.checkpoint_failures()
    }

    /// Watchdog book-keeping for the in-flight (or most recent) commit:
    /// attempts, proxy-advanced and evicted sessions, aborts.
    pub fn last_commit_outcome(&self) -> CommitOutcome {
        self.inner.core.last_commit_outcome()
    }

    /// Current (phase, version) of the commit state machine.
    pub fn state(&self) -> (Phase, u64) {
        self.inner.core.state.load()
    }

    /// Block until the commit of `version` is durable (sessions must keep
    /// refreshing). Returns `false` on timeout.
    pub fn wait_for_version(
        &self,
        version: impl Into<CheckpointVersion>,
        timeout: Duration,
    ) -> bool {
        self.inner
            .core
            .wait_for_version(&self.inner.epoch, version.into(), timeout)
    }

    /// Per-phase durations of the last completed checkpoint (the §7.3.1
    /// profile).
    pub fn last_checkpoint_phases(&self) -> Vec<(Phase, Duration)> {
        self.inner.last_phase_marks.lock().clone()
    }

    /// HybridLog tail (log growth metric of Fig. 12d / 18d).
    pub fn log_tail(&self) -> u64 {
        self.inner.hlog.tail()
    }

    /// FNV-1a digest of the serialized hash index. Two stores whose
    /// recovered indexes are byte-identical have equal digests, so this is
    /// the cheap cross-check that recovery lands on the same state no
    /// matter how many threads scanned the log.
    pub fn index_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.inner.index.dump() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    pub fn hlog(&self) -> &Arc<HybridLog> {
        &self.inner.hlog
    }

    /// Full scan: the live `(key, value)` pairs reachable from the log,
    /// sorted by key, by a log walk over `[begin_address, tail)`. The newest
    /// valid record of a key decides: tombstones delete, invalid records
    /// are skipped. Pages are fetched from memory when resident, from the
    /// device otherwise. Intended for quiescent use (verification and
    /// serving scans after recovery): concurrent writers may or may not be
    /// observed. A scan that a log truncation overtook (it may have read
    /// records given back meanwhile) starts over.
    pub fn scan_all(&self) -> io::Result<Vec<(u64, V)>> {
        loop {
            let begin = self.inner.hlog.begin_address();
            let out = self.scan_from(begin)?;
            if self.inner.hlog.begin_address() == begin {
                return Ok(out);
            }
        }
    }

    fn scan_from(&self, begin: u64) -> io::Result<Vec<(u64, V)>> {
        let hl = &self.inner.hlog;
        let rec = hl.rec.record_size();
        let end = hl.tail();
        if end <= begin {
            return Ok(Vec::new());
        }
        // One index entry per key with a record, bar tag collisions.
        let mut entries = 0;
        self.inner.index.for_each(|_| entries += 1);
        // Walking the log backwards, the first valid record met for a key
        // is its newest: a set of decided keys replaces a map of values,
        // and the output is built once, at its final size.
        let mut decided: HashSet<u64> = HashSet::with_capacity(entries);
        let mut out: Vec<(u64, V)> = Vec::with_capacity(entries);
        let mut words = vec![0u64; self.inner.value_words];
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
        let mut buf = Vec::new();
        for page in (hl.layout.page(begin)..=hl.layout.page(end - 1)).rev() {
            let start = hl.layout.page_start(page).max(begin);
            let page_end = hl.layout.page_start(page + 1).min(end);
            hl.read_log_into(start, page_end, &mut buf)?;
            // Records never straddle pages, and the first zero header
            // starts the page's unwritten slack.
            let records = buf.chunks_exact(rec);
            let written = records.clone().take_while(|r| word(&r[..8]) != 0).count();
            for r in records.take(written).rev() {
                let h = crate::header::Header::unpack(word(&r[..8]));
                if h.invalid {
                    continue;
                }
                let key = word(&r[8..16]);
                if !decided.insert(key) || h.tombstone {
                    continue;
                }
                for (w, b) in words.iter_mut().zip(r[16..].chunks_exact(8)) {
                    *w = word(b);
                }
                out.push((key, value_from_words(&words)));
            }
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }
}

/// Begin a CPR commit: `rest → prepare` plus the epoch trigger chain
/// through in-progress and wait-pending to wait-flush, which hands the
/// version to the checkpoint thread. Shared by
/// [`FasterKv::request_checkpoint`] and the watchdog's backed-off retries
/// (which must re-begin a fresh store token).
pub(crate) fn start_checkpoint<V: Pod>(
    inner: &Arc<StoreInner<V>>,
    variant: CheckpointVariant,
    log_only: bool,
) -> bool {
    let state = &inner.core.state;
    let v = state.version();
    if !state.transition((Phase::Rest, v), (Phase::Prepare, v)) {
        return false;
    }
    let token = match inner.store.begin() {
        Ok(t) => t,
        Err(_) => {
            // Can't even create the checkpoint directory (e.g. the
            // simulated device crashed): roll back to rest at the same
            // version and report the failure.
            let ok = state.transition((Phase::Prepare, v), (Phase::Rest, v));
            debug_assert!(ok, "prepare rollback must succeed");
            inner.core.note_failure();
            return false;
        }
    };
    *inner.ckpt.lock() = Some(CkptCtx {
        token,
        variant,
        log_only,
        lhs: inner.hlog.tail(),
        fold_end: None,
        started: Instant::now(),
        phase_marks: vec![(Phase::Prepare, Duration::ZERO)],
    });
    inner
        .metrics
        .checkpoints
        .begin(v, ckpt_kind_label(variant, log_only));
    advance_when_all_at(
        inner,
        v,
        Phase::Prepare,
        Phase::InProgress,
        always,
        |inner, v| {
            mark_phase(&inner, Phase::InProgress);
            advance_when_all_at(
                &inner,
                v,
                Phase::InProgress,
                Phase::WaitPending,
                always,
                |inner, v| {
                    mark_phase(&inner, Phase::WaitPending);
                    advance_when_all_at(
                        &inner,
                        v,
                        Phase::WaitPending,
                        Phase::WaitFlush,
                        |inner, v| {
                            inner.pending_count[(v & 1) as usize].load(Ordering::Acquire) == 0
                        },
                        enter_wait_flush,
                    );
                },
            );
        },
    );
    true
}

/// Human-readable checkpoint-kind label for the phase tracer.
pub(crate) fn ckpt_kind_label(variant: CheckpointVariant, log_only: bool) -> &'static str {
    match (variant, log_only) {
        (CheckpointVariant::FoldOver, false) => "fold-over",
        (CheckpointVariant::FoldOver, true) => "fold-over-log-only",
        (CheckpointVariant::Snapshot, false) => "snapshot",
        (CheckpointVariant::Snapshot, true) => "snapshot-log-only",
    }
}

fn enter_wait_flush<V: Pod>(inner: Arc<StoreInner<V>>, v: u64) {
    mark_phase(&inner, Phase::WaitFlush);
    // Every version-v record exists now. A log-only fold-over captures
    // nothing before its log flush, so start the read-only shift here, on
    // the refreshing session's thread: the flush then needs one more
    // refresh per session, whenever the checkpoint thread gets to run. (A
    // full commit must dump the index first; its shift stays there.)
    let fold_end = inner.ckpt.lock().as_mut().and_then(|ctx| {
        (ctx.variant == CheckpointVariant::FoldOver && ctx.log_only).then(|| {
            let end = inner.hlog.tail();
            ctx.fold_end = Some(end);
            end
        })
    });
    if let Some(end) = fold_end {
        inner.hlog.shift_read_only_to(end);
    }
    inner.core.hand_off(v);
}

/// Record the entry into `phase` on the in-flight checkpoint's profile.
fn mark_phase<V: Pod>(inner: &StoreInner<V>, phase: Phase) {
    if let Some(ctx) = inner.ckpt.lock().as_mut() {
        ctx.phase_marks.push((phase, ctx.started.elapsed()));
    }
}

/// Release the protections one pending operation holds: its shared bucket
/// latch, its key guard, and its count in the wait-pending gate.
pub(crate) fn release_pending<V: Pod>(
    store: &StoreInner<V>,
    latch: Option<usize>,
    guarded_key: Option<u64>,
    tag: u64,
) {
    if let Some(b) = latch {
        store.latches[b].release_shared();
    }
    if let Some(k) = guarded_key {
        store.pending_v_keys.lock().remove(&k);
    }
    store.pending_count[(tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
}

impl<V: Pod> CprEngine for StoreInner<V> {
    fn core(&self) -> &CommitCore {
        &self.core
    }
    fn epoch(&self) -> &EpochManager {
        &self.epoch
    }
    fn tracing(&self) -> bool {
        self.metrics_on
    }
    fn trace_blocker(&self, guid: SessionId) {
        self.metrics.checkpoints.note_blocker(guid);
    }
    fn trace_phase(&self, v: u64, phase: Phase) {
        self.metrics.checkpoints.mark(v, phase.name());
    }
    fn trace_end(&self, v: u64, committed: bool, out: &CommitOutcome) {
        self.metrics.checkpoints.end(
            v,
            committed,
            out.attempts as u64,
            out.proxy_advanced.len() as u64,
            out.evicted.len() as u64,
        );
    }
}

/// The watchdog's remedies. Pending operations keep a commit waiting at
/// wait-pending, so a stale session with pendings is evicted and its
/// pendings cancelled through the offline registry (see [`OfflineGuard`]).
/// An abort returns the state machine to rest and discards the store
/// token; wait-flush is never aborted — the checkpoint thread owns that
/// exit and its work is I/O-bound, not straggler-bound.
impl<V: Pod> Remedies for StoreInner<V> {
    const GATED: &'static [Phase] = &[Phase::Prepare, Phase::InProgress, Phase::WaitPending];
    /// The aborted attempt's `(variant, log_only)` shape.
    type Attempt = Option<(CheckpointVariant, bool)>;

    fn retry(self: &Arc<Self>, attempt: Self::Attempt) -> bool {
        attempt.is_some_and(|(variant, log_only)| start_checkpoint(self, variant, log_only))
    }

    fn has_pendings(&self, slot: usize) -> bool {
        self.offline_pending
            .lock()
            .get(&slot)
            .is_some_and(|gs| !gs.is_empty())
    }

    /// Remove and release every offline-pending entry of the slot. The
    /// map entry is the ownership token: the owner's `finish_pending`
    /// finds it gone and releases nothing, so no protection is dropped
    /// twice.
    fn evict(&self, slot: usize) -> Option<u64> {
        let entries = self.offline_pending.lock().remove(&slot)?;
        for g in &entries {
            release_pending(self, g.latch, g.guarded_key, g.tag);
        }
        entries.iter().map(|g| g.serial).min()
    }

    fn abort(&self, phase: Phase, v: u64) -> Option<Self::Attempt> {
        if !Self::GATED.contains(&phase)
            || !self.core.state.transition((phase, v), (Phase::Rest, v + 1))
        {
            return None;
        }
        let attempt = self.ckpt.lock().take().map(|ctx| {
            let _ = self.store.abort(ctx.token);
            self.core.note_failure();
            (ctx.variant, ctx.log_only)
        });
        Some(attempt)
    }
}

// ---- value <-> word conversion --------------------------------------------

/// Copy a value's bytes into `n` little-endian words (zero padded).
pub(crate) fn value_to_words<V: Pod>(v: &V, out: &mut Vec<u64>, n: usize) {
    out.clear();
    out.resize(n, 0);
    // SAFETY: Pod guarantees V is readable as bytes.
    let src =
        unsafe { std::slice::from_raw_parts(v as *const V as *const u8, std::mem::size_of::<V>()) };
    // SAFETY: out has n*8 writable bytes.
    let dst = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, n * 8) };
    dst[..src.len()].copy_from_slice(src);
}

/// Rebuild a value from its words.
pub(crate) fn value_from_words<V: Pod>(words: &[u64]) -> V {
    debug_assert!(words.len() * 8 >= std::mem::size_of::<V>());
    // SAFETY: Pod guarantees any bit pattern of the right length is valid.
    unsafe { std::ptr::read_unaligned(words.as_ptr() as *const V) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_word_roundtrip_u64() {
        let mut w = Vec::new();
        value_to_words(&0xDEADBEEFu64, &mut w, 1);
        assert_eq!(w, vec![0xDEADBEEF]);
        assert_eq!(value_from_words::<u64>(&w), 0xDEADBEEF);
    }

    #[test]
    fn value_word_roundtrip_odd_size() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        #[repr(C)]
        struct V100([u8; 100]);
        unsafe impl Pod for V100 {}
        let v = V100(std::array::from_fn(|i| i as u8));
        let mut w = Vec::new();
        value_to_words(&v, &mut w, 13);
        assert_eq!(w.len(), 13);
        assert_eq!(value_from_words::<V100>(&w), v);
    }
}
