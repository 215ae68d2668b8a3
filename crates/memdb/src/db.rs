//! The in-memory transactional database (paper Sec. 4).
//!
//! Shared-everything architecture: any thread can access any record;
//! concurrency control is strict 2PL with No-Wait deadlock avoidance.
//! Durability is pluggable: **CPR** (this paper), **CALC** (atomic commit
//! log baseline), **WAL** (group-commit redo log baseline), or none.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::commit::{advance_when_all_at, always};
use cpr_core::liveness::{CommitOutcome, LivenessConfig, SessionStatus};
use cpr_core::watchdog::Remedies;
use cpr_core::{
    CheckpointKind, CheckpointManifest, CheckpointVersion, CommitCore, CprEngine, Phase, SessionId,
};
use cpr_epoch::EpochManager;
use cpr_metrics::{MetricsReport, Registry};
use cpr_storage::{CheckpointStore, FaultInjector};
use parking_lot::Mutex;

use crate::calc::CommitLog;
use crate::checkpoint;
use crate::client::Session;
use crate::error::CommitError;
use crate::stats::ClientStats;
use crate::table::Table;
use crate::value::DbValue;
use crate::wal::Wal;

/// Durability backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No durability: pure in-memory execution.
    None,
    /// Concurrent Prefix Recovery (paper Sec. 4).
    Cpr,
    /// CALC baseline: CPR capture mechanics plus an atomic commit-log
    /// append on every transaction commit (the measured serial
    /// bottleneck).
    Calc,
    /// Traditional WAL with group commit.
    Wal,
}

/// WAL ring capacity in bytes (power of two): 64 MiB.
const WAL_CAPACITY: u64 = 1 << 26;
/// CALC commit-log ring capacity in entries.
const COMMIT_LOG_CAPACITY: usize = 1 << 20;

/// Database options, set (and documented) through [`MemDbBuilder`].
#[derive(Debug, Clone)]
pub(crate) struct MemDbOptions {
    pub durability: Durability,
    pub capacity: usize,
    pub dir: Option<PathBuf>,
    pub max_sessions: usize,
    pub refresh_every: u64,
    pub profile: bool,
    pub group_commit: Duration,
    pub incremental: bool,
    pub fault: Option<Arc<FaultInjector>>,
    pub liveness: Option<LivenessConfig>,
    pub metrics: Arc<Registry>,
    pub io_threads: usize,
}

impl MemDbOptions {
    fn defaults(durability: Durability) -> Self {
        MemDbOptions {
            durability,
            capacity: 1 << 16,
            dir: None,
            max_sessions: 64,
            refresh_every: 64,
            profile: false,
            group_commit: Duration::from_millis(5),
            incremental: false,
            fault: None,
            liveness: None,
            metrics: Registry::noop(),
            io_threads: cpr_storage::env_io_threads(),
        }
    }
}

/// Fluent constructor for [`MemDb`] — the blessed way to open a database.
///
/// Every setter documents its default; omitted settings keep them. The
/// terminal calls are [`open`](MemDbBuilder::open) (fresh database) and
/// [`recover`](MemDbBuilder::recover) (resume from the newest durable
/// checkpoint or WAL).
///
/// ```
/// use cpr_memdb::{Durability, MemDb};
///
/// let db: MemDb<u64> = MemDb::builder(Durability::None)
///     .capacity(1 << 10)
///     .refresh_every(32)
///     .open()
///     .unwrap();
/// db.load(1, 7);
/// assert_eq!(db.read(1), Some(7));
/// ```
pub struct MemDbBuilder<V: DbValue> {
    opts: MemDbOptions,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V: DbValue> std::fmt::Debug for MemDbBuilder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDbBuilder")
            .field("opts", &self.opts)
            .finish()
    }
}

impl<V: DbValue> Clone for MemDbBuilder<V> {
    fn clone(&self) -> Self {
        MemDbBuilder {
            opts: self.opts.clone(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<V: DbValue> MemDbBuilder<V> {
    /// Expected number of records — sizes the hash index and the first
    /// chunk of record slots; inserts past it add chunks (default 2^16).
    pub fn capacity(mut self, c: usize) -> Self {
        self.opts.capacity = c;
        self
    }
    /// Checkpoint / log directory. Required for every durability mode but
    /// [`Durability::None`] (no default).
    pub fn dir(mut self, d: impl Into<PathBuf>) -> Self {
        self.opts.dir = Some(d.into());
        self
    }
    /// Maximum concurrently open sessions (default 64).
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.opts.max_sessions = n;
        self
    }
    /// Ops between epoch refreshes — the `k` of paper Alg. 1 (default 64).
    pub fn refresh_every(mut self, k: u64) -> Self {
        self.opts.refresh_every = k;
        self
    }
    /// Collect the Fig. 10e time breakdown (default off; adds two
    /// `Instant` reads per transaction segment).
    pub fn profile(mut self, on: bool) -> Self {
        self.opts.profile = on;
        self
    }
    /// WAL group-commit window (default 5 ms).
    pub fn group_commit(mut self, d: Duration) -> Self {
        self.opts.group_commit = d;
        self
    }
    /// Incremental CPR checkpoints — capture only records modified since
    /// the previous commit (default off). Recovery applies the delta chain
    /// oldest → newest; the first commit is always full, and so is the
    /// one after a chain of eight checkpoints.
    pub fn incremental(mut self, on: bool) -> Self {
        self.opts.incremental = on;
        self
    }
    /// Fault injector applied to checkpoint-store writes (CPR/CALC) and
    /// WAL flushes (default none).
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.opts.fault = Some(injector);
        self
    }
    /// Enable the session liveness watchdog (default off; CPR/CALC only):
    /// sessions carry heartbeat leases, and a background thread unwedges
    /// commits blocked by stragglers — proxy-advancing idle ones, evicting
    /// those parked mid-transaction, and timing the checkpoint out when a
    /// straggler holds 2PL locks.
    pub fn liveness(mut self, cfg: LivenessConfig) -> Self {
        self.opts.liveness = Some(cfg);
        self
    }
    /// Metrics registry (default: the no-op sink, which keeps hot paths
    /// free of timing calls). Pass [`cpr_metrics::Registry::new`] to
    /// collect counters, latency histograms, and checkpoint timelines.
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.opts.metrics = registry;
        self
    }
    /// Threads for large I/O passes (default: [`cpr_storage::env_io_threads`],
    /// 1 unless `CPR_IO_THREADS` says otherwise): checkpoint capture
    /// serialization, the striped checkpoint file write, and checkpoint
    /// load during recovery. Checkpoint bytes and recovered state are
    /// identical at any count.
    pub fn io_threads(mut self, n: usize) -> Self {
        self.opts.io_threads = n.max(1);
        self
    }
    /// Open a fresh database.
    pub fn open(self) -> io::Result<MemDb<V>> {
        MemDb::open_at_version(self.opts, 1)
    }
    /// Recover from the newest committed checkpoint (CPR/CALC) or by
    /// replaying the redo log (WAL). Returns the manifest used, if any.
    pub fn recover(self) -> io::Result<(MemDb<V>, Option<CheckpointManifest>)> {
        MemDb::recover_inner(self.opts)
    }
}

pub(crate) struct DbInner<V: DbValue> {
    /// The CPR protocol core: state machine, sessions, commit publication.
    /// First, so that dropping the database joins its worker threads
    /// before any other field is freed.
    pub(crate) core: CommitCore,
    pub(crate) opts: MemDbOptions,
    pub(crate) table: Table<V>,
    pub(crate) epoch: Arc<EpochManager>,
    pub(crate) store: Option<CheckpointStore>,
    pub(crate) commit_log: Option<CommitLog>,
    pub(crate) wal: Option<Wal>,
    /// Set by the watchdog to time out a capture stuck behind a straggler's
    /// record latches; the capture pass polls it and takes the abort path.
    pub(crate) capture_abort: AtomicBool,
    pub(crate) merged_stats: Mutex<ClientStats>,
    /// Wall-clock duration of the last completed capture pass.
    pub(crate) last_capture: Mutex<Option<Duration>>,
    /// What recovery reads for the newest Database checkpoint: its token
    /// first (the next delta's base), then its delta base chain back to a
    /// full checkpoint. Retention keeps exactly these directories.
    pub(crate) checkpoint_chain: Mutex<Vec<u64>>,
}

/// Handle to a database; cheap to clone.
pub struct MemDb<V: DbValue> {
    pub(crate) inner: Arc<DbInner<V>>,
}

impl<V: DbValue> Clone for MemDb<V> {
    fn clone(&self) -> Self {
        MemDb {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: DbValue> MemDb<V> {
    /// Start building a database with the given durability backend.
    ///
    /// See [`MemDbBuilder`] for the available settings and defaults.
    pub fn builder(durability: Durability) -> MemDbBuilder<V> {
        MemDbBuilder {
            opts: MemDbOptions::defaults(durability),
            _marker: std::marker::PhantomData,
        }
    }

    fn open_at_version(opts: MemDbOptions, version: u64) -> io::Result<Self> {
        let store = match (&opts.durability, &opts.dir) {
            (Durability::Cpr | Durability::Calc, Some(dir)) => {
                let store = CheckpointStore::open_with(dir, opts.fault.clone())?
                    .with_metrics(Arc::clone(&opts.metrics))
                    .with_io_threads(opts.io_threads);
                Some(store)
            }
            (Durability::Cpr | Durability::Calc, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "CPR/CALC durability requires a directory",
                ));
            }
            _ => None,
        };
        let wal = match (&opts.durability, &opts.dir) {
            (Durability::Wal, Some(dir)) => {
                std::fs::create_dir_all(dir)?;
                let gen = next_wal_generation(dir)?;
                Some(Wal::create_with(
                    dir.join(format!("wal.{gen}.log")),
                    WAL_CAPACITY,
                    opts.group_commit,
                    opts.fault.clone(),
                )?)
            }
            (Durability::Wal, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "WAL durability requires a directory",
                ));
            }
            _ => None,
        };
        let commit_log = matches!(opts.durability, Durability::Calc)
            .then(|| CommitLog::new(COMMIT_LOG_CAPACITY));

        let inner = Arc::new(DbInner {
            table: Table::new(opts.capacity),
            core: CommitCore::new(opts.max_sessions, version, HashMap::new()),
            epoch: Arc::new(EpochManager::new(opts.max_sessions + 8)),
            store,
            commit_log,
            wal,
            capture_abort: AtomicBool::new(false),
            merged_stats: Mutex::new(ClientStats::default()),
            last_capture: Mutex::new(None),
            checkpoint_chain: Mutex::new(Vec::new()),
            opts,
        });

        if inner.opts.metrics.is_enabled() {
            inner.epoch.set_metrics(Arc::clone(&inner.opts.metrics));
        }

        if inner.store.is_some() {
            CommitCore::start_flush_worker(&inner, "cpr-memdb-capture", |inner, v| {
                checkpoint::capture(inner, v)
            });
            if let Some(cfg) = inner.opts.liveness.clone() {
                cpr_core::watchdog::start(&inner, cfg, "cpr-memdb-watchdog");
            }
        }
        Ok(MemDb { inner })
    }

    fn recover_inner(opts: MemDbOptions) -> io::Result<(Self, Option<CheckpointManifest>)> {
        match opts.durability {
            Durability::Cpr | Durability::Calc => {
                let dir = opts.dir.clone().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "recover requires dir")
                })?;
                // Route recovery reads through the fault injector (when
                // set) so crash-schedule tests can kill recovery itself.
                let store = CheckpointStore::open_with(&dir, opts.fault.clone())?;
                let Some(manifest) =
                    store.latest_matching(|m| m.kind == CheckpointKind::Database)?
                else {
                    return Ok((Self::open_at_version(opts, 1)?, None));
                };
                // Collect the delta chain back to its full base, then
                // apply it oldest → newest.
                let mut chain = vec![manifest.clone()];
                while let Some(base) = chain.last().unwrap().base {
                    chain.push(store.manifest(base)?);
                }
                let db = Self::open_at_version(opts, manifest.version + 1)?;
                for m in chain.iter().rev() {
                    checkpoint::load(&db.inner, &store, m)?;
                }
                *db.inner.checkpoint_chain.lock() = chain.iter().map(|m| m.token).collect();
                // Seed the durable commit points so resumed sessions learn
                // their recovered prefix (paper Sec. 2's per-session
                // contract).
                db.inner.core.seed_durable_points(
                    manifest
                        .sessions
                        .iter()
                        .map(|s| (s.guid, s.cpr_point))
                        .collect(),
                );
                Ok((db, Some(manifest)))
            }
            Durability::Wal => {
                let dir = opts.dir.clone().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "recover requires dir")
                })?;
                // Collect existing generations *before* opening (which
                // creates the next generation's file).
                let gens = wal_generations(&dir)?;
                let db = Self::open_at_version(opts, 1)?;
                for gen in gens {
                    checkpoint::replay_wal(&db.inner, &dir.join(format!("wal.{gen}.log")))?;
                }
                Ok((db, None))
            }
            Durability::None => Ok((Self::open_at_version(opts, 1)?, None)),
        }
    }

    /// Pre-load a record (panics on duplicate key).
    pub fn load(&self, key: u64, value: V) {
        self.inner
            .table
            .insert(key, self.inner.core.state.version(), value);
    }

    /// Number of records (including uninitialized placeholders).
    pub fn len(&self) -> usize {
        self.inner.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a client session. `guid` identifies the session across crashes
    /// (paper Sec. 5.2).
    pub fn session(&self, guid: u64) -> Session<V> {
        Session::new(Arc::clone(&self.inner), guid, 0)
    }

    /// Re-establish a session by guid: returns the session and the serial
    /// it should resume from. If the guid detached while this database
    /// stayed up (client reconnect, no crash), that is its last accepted
    /// serial — nothing was lost. Otherwise it is the guid's commit point
    /// from the recovery manifest: every later serial must be re-issued
    /// (the CPR resume contract, paper Sec. 2).
    pub fn continue_session(&self, guid: u64) -> (Session<V>, u64) {
        let serial = self.inner.core.resume_serial(guid);
        (Session::new(Arc::clone(&self.inner), guid, serial), serial)
    }

    /// The guid's durable commit point: the serial below which every op is
    /// guaranteed recovered after a crash right now.
    pub fn durable_point(&self, guid: u64) -> u64 {
        self.inner.core.durable_point(guid)
    }

    /// Register a commit observer: called with the committed version and
    /// every session's CPR point after each durable commit, before
    /// [`MemDb::committed_version`] reports it. Runs on the capture
    /// thread — keep it brief.
    pub fn on_commit(
        &self,
        callback: impl Fn(u64, &[cpr_core::SessionCpr]) + Send + Sync + 'static,
    ) {
        self.inner.core.on_commit(Box::new(callback));
    }

    /// Full scan: every live `(key, value)` pair, sorted by key. Takes
    /// each record's shared lock briefly; intended for quiescent use
    /// (verification and serving scans), not the transaction hot path.
    pub fn scan_all(&self) -> Vec<(u64, V)> {
        let table = &self.inner.table;
        let mut out = Vec::with_capacity(self.len());
        table.for_each_in_slots(0..table.slot_count(), |key, rec| {
            loop {
                if rec.lock.try_shared() {
                    break;
                }
                std::hint::spin_loop();
            }
            if rec.birth() != 0 && !rec.is_dead() {
                out.push((key, rec.read_live()));
            }
            rec.lock.release_shared();
        });
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Read a record's live value (spins briefly for a shared lock).
    /// Returns `None` for absent or never-written keys.
    pub fn read(&self, key: u64) -> Option<V> {
        let rec = self.inner.table.get(key)?;
        loop {
            if rec.lock.try_shared() {
                break;
            }
            std::hint::spin_loop();
        }
        let out = (rec.birth() != 0 && !rec.is_dead()).then(|| rec.read_live());
        rec.lock.release_shared();
        out
    }

    /// Request a CPR/CALC commit (returns `false` if one is already in
    /// flight) or force a WAL group-commit flush.
    ///
    /// The commit proceeds asynchronously: worker threads realize the
    /// phase transitions as they refresh their epochs, and the version-`v`
    /// snapshot is captured and persisted in the background. Use
    /// [`MemDb::wait_for_version`] to await completion.
    pub fn request_commit(&self) -> bool {
        match self.inner.opts.durability {
            Durability::None => false,
            Durability::Wal => {
                self.inner.wal.as_ref().expect("wal").sync();
                self.inner.core.notify();
                true
            }
            Durability::Cpr | Durability::Calc => {
                if !start_commit(&self.inner) {
                    return false;
                }
                self.inner.core.begin_outcome();
                true
            }
        }
    }

    /// Version of the newest durable checkpoint
    /// ([`CheckpointVersion::NONE`] = none yet).
    pub fn committed_version(&self) -> CheckpointVersion {
        self.inner.core.committed_version()
    }

    /// Number of checkpoint attempts that failed on I/O and were aborted
    /// (no manifest committed; sessions returned to rest).
    pub fn checkpoint_failures(&self) -> u64 {
        self.inner.core.checkpoint_failures()
    }

    /// Current (phase, version) of the commit state machine.
    pub fn state(&self) -> (Phase, u64) {
        self.inner.core.state.load()
    }

    /// Block until the checkpoint of `version` is durable. Requires
    /// worker sessions to keep refreshing (or none to be registered).
    /// Returns `false` on timeout.
    pub fn wait_for_version(
        &self,
        version: impl Into<CheckpointVersion>,
        timeout: Duration,
    ) -> bool {
        self.inner
            .core
            .wait_for_version(&self.inner.epoch, version.into(), timeout)
    }

    /// Request a commit and wait for its outcome.
    ///
    /// Succeeds once *a* checkpoint covering version `v` (the version at
    /// request time) is durable — if the watchdog aborted and retried, the
    /// durable version may be higher, and its checkpoint includes `v`'s
    /// prefix. Fails with [`CommitError::TimedOut`] when the deadline
    /// passes or the watchdog exhausts its retry budget; the error names
    /// the sessions blocking the commit at that moment.
    pub fn commit_and_wait(&self, timeout: Duration) -> Result<CommitOutcome, CommitError> {
        if !matches!(
            self.inner.opts.durability,
            Durability::Cpr | Durability::Calc
        ) {
            self.request_commit();
            return Ok(CommitOutcome {
                attempts: 1,
                ..CommitOutcome::default()
            });
        }
        let core = &self.inner.core;
        let v = core.state.version();
        if !self.request_commit() {
            return Err(CommitError::NotStarted);
        }
        let deadline = Instant::now() + timeout;
        core.wait_until(&self.inner.epoch, deadline, |c| {
            c.committed_version() >= v || c.outcome().gave_up
        });
        if self.committed_version() >= v {
            let mut out = core.outcome();
            out.committed_version = Some(self.committed_version());
            return Ok(out.clone());
        }
        Err(CommitError::TimedOut {
            version: v.into(),
            phase: core.state.phase(),
            blockers: self.straggler_guids(),
        })
    }

    /// Outcome of the in-flight (or most recent) supervised commit.
    pub fn last_commit_outcome(&self) -> CommitOutcome {
        self.inner.core.last_commit_outcome()
    }

    /// The sessions currently holding a commit back: phase blockers while
    /// sessions gate the transition, expired leases otherwise (capture
    /// wedged behind a straggler's latches, or the watchdog gave up).
    fn straggler_guids(&self) -> Vec<SessionId> {
        let reg = &self.inner.core.registry;
        let (phase, v) = self.inner.core.state.load();
        if matches!(phase, Phase::Prepare | Phase::InProgress) {
            return reg
                .blockers(phase, v)
                .into_iter()
                .map(|(_, guid)| guid)
                .collect();
        }
        let Some(cfg) = &self.inner.opts.liveness else {
            return Vec::new();
        };
        let now = cfg.clock.now();
        (0..reg.capacity())
            .filter_map(|i| {
                let guid = reg.guid(i)?;
                (now.saturating_sub(reg.last_heartbeat(i)) > cfg.grace_ticks
                    && reg.status(i) != SessionStatus::Evicted)
                    .then_some(guid)
            })
            .collect()
    }

    /// Aggregated statistics from dropped sessions.
    pub fn stats(&self) -> ClientStats {
        self.inner.merged_stats.lock().clone()
    }

    /// Wall-clock duration of the most recent capture pass.
    pub fn last_capture_duration(&self) -> Option<Duration> {
        *self.inner.last_capture.lock()
    }

    /// Snapshot of the metrics registry this database reports into:
    /// operation counters and commit-latency percentiles, checkpoint
    /// phase timelines, epoch drain latencies, and storage totals.
    ///
    /// Meaningful only when the database was built with an enabled
    /// [`cpr_metrics::Registry`]; with the default no-op sink the report
    /// is empty and flagged `enabled: false`.
    pub fn metrics_snapshot(&self) -> MetricsReport {
        let mut report = self.inner.opts.metrics.snapshot();
        if let Some(injector) = &self.inner.opts.fault {
            report.storage.faults_injected = injector.fault_hits();
        }
        report
    }
}

/// Checkpoint-kind label used by the metrics phase tracer.
pub(crate) fn ckpt_kind_label<V: DbValue>(inner: &DbInner<V>) -> &'static str {
    match (inner.opts.durability, inner.opts.incremental) {
        (Durability::Cpr, true) => "cpr-incremental",
        (Durability::Cpr, false) => "cpr",
        (Durability::Calc, _) => "calc",
        _ => "wal",
    }
}

/// Kick off the CPR/CALC commit state machine at the current version:
/// `rest → prepare`, then the epoch triggers through in-progress to
/// wait-flush, which hands the version to the capture thread. Shared by
/// [`MemDb::request_commit`] and the watchdog's retries.
pub(crate) fn start_commit<V: DbValue>(inner: &Arc<DbInner<V>>) -> bool {
    let v = inner.core.state.version();
    if !inner
        .core
        .state
        .transition((Phase::Rest, v), (Phase::Prepare, v))
    {
        return false;
    }
    inner
        .opts
        .metrics
        .checkpoints
        .begin(v, ckpt_kind_label(inner));
    advance_when_all_at(
        inner,
        v,
        Phase::Prepare,
        Phase::InProgress,
        always,
        |inner, v| {
            advance_when_all_at(
                &inner,
                v,
                Phase::InProgress,
                Phase::WaitFlush,
                always,
                |inner, v| inner.core.hand_off(v),
            )
        },
    );
    true
}

impl<V: DbValue> CprEngine for DbInner<V> {
    fn core(&self) -> &CommitCore {
        &self.core
    }
    fn epoch(&self) -> &EpochManager {
        &self.epoch
    }
    fn tracing(&self) -> bool {
        self.opts.metrics.is_enabled()
    }
    fn trace_blocker(&self, guid: SessionId) {
        self.opts.metrics.checkpoints.note_blocker(guid);
    }
    fn trace_phase(&self, v: u64, phase: Phase) {
        self.opts.metrics.checkpoints.mark(v, phase.name());
    }
    fn trace_end(&self, v: u64, committed: bool, out: &CommitOutcome) {
        self.opts.metrics.checkpoints.end(
            v,
            committed,
            out.attempts as u64,
            out.proxy_advanced.len() as u64,
            out.evicted.len() as u64,
        );
    }
}

/// The watchdog's remedies: proxy-advance and eviction need nothing from
/// the database (a session parked before its locks holds nothing), a
/// retry restarts the state machine, and an abort returns it to rest —
/// through the capture thread's failure path once capture owns the
/// transition.
impl<V: DbValue> Remedies for DbInner<V> {
    const GATED: &'static [Phase] = &[Phase::Prepare, Phase::InProgress];
    type Attempt = ();

    fn retry(self: &Arc<Self>, _: ()) -> bool {
        start_commit(self)
    }

    fn abort(&self, phase: Phase, v: u64) -> Option<()> {
        let aborted = match phase {
            Phase::Prepare | Phase::InProgress => {
                self.core.state.transition((phase, v), (Phase::Rest, v + 1))
            }
            // The capture thread owns the WaitFlush → Rest transition:
            // request an abort and let its failure path complete it.
            // `swap` keeps a still-pending request from counting twice.
            Phase::WaitFlush => !self.capture_abort.swap(true, Ordering::AcqRel),
            _ => false,
        };
        aborted.then_some(())
    }
}

fn wal_generations(dir: &std::path::Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    if dir.exists() {
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str().map(str::to_owned) else {
                continue;
            };
            if let Some(rest) = name.strip_prefix("wal.") {
                if let Some(gen) = rest.strip_suffix(".log") {
                    if let Ok(g) = gen.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

fn next_wal_generation(dir: &std::path::Path) -> io::Result<u64> {
    Ok(wal_generations(dir)?.last().map_or(0, |g| g + 1))
}
