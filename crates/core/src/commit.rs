//! The store side of the protocol core: the commit bookkeeping both
//! engines share.
//!
//! The paper describes CPR once — a global (phase, version) state machine
//! whose transitions fire from epoch triggers once every session has
//! refreshed into the current phase — and the in-memory database (Sec. 4)
//! and FASTER (Secs. 5–6) are two instances of it. [`CommitCore`] is that
//! one instance's state, embedded by value in each engine's shared inner
//! struct: the [`SystemState`], the [`SessionRegistry`], the committed
//! version and its waiters, the supervised commit's [`CommitOutcome`], the
//! per-guid durable points, the detached sessions, the failure count, the
//! commit observers, and the background threads (the flush worker that
//! runs each wait-flush phase, and the watchdog).
//!
//! What the engines do differently — capture vs. fold-over/snapshot
//! flush, FASTER's wait-pending gate — stays in the engines; they reach
//! the core through the [`CprEngine`] trait.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpr_epoch::EpochManager;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::liveness::CommitOutcome;
use crate::manifest::{CheckpointManifest, SessionCpr};
use crate::resume::DetachedSessions;
use crate::sessions::{SessionId, SessionRegistry};
use crate::state::SystemState;
use crate::{CheckpointVersion, Phase};

/// Commit observer: `(committed version, per-session CPR points)`.
pub type CommitCallback = Box<dyn Fn(u64, &[SessionCpr]) + Send + Sync>;

/// An engine that embeds a [`CommitCore`]: what the shared trigger chain
/// and the watchdog ([`crate::watchdog`]) need to reach.
///
/// The `trace_*` hooks feed the engine's checkpoint-timeline tracer; they
/// are no-ops unless the engine overrides them, and are called only while
/// [`CprEngine::tracing`] is on.
pub trait CprEngine: Send + Sync + 'static {
    fn core(&self) -> &CommitCore;
    fn epoch(&self) -> &EpochManager;

    /// Whether the tracer is on.
    fn tracing(&self) -> bool {
        false
    }
    /// A session holds the transition of the attempt in flight back.
    fn trace_blocker(&self, _guid: SessionId) {}
    /// Attempt `v` entered `phase`.
    fn trace_phase(&self, _v: u64, _phase: Phase) {}
    /// Attempt `v` ended, durably or not.
    fn trace_end(&self, _v: u64, _committed: bool, _outcome: &CommitOutcome) {}
}

/// Close the tracer's timeline of attempt `v`.
pub fn end_trace<E: CprEngine>(engine: &E, v: u64, committed: bool) {
    if engine.tracing() {
        engine.trace_end(v, committed, &engine.core().outcome());
    }
}

/// Complete attempt `v` once its wait-flush work is done: the state
/// machine returns to rest at `v + 1` either way; then a durable
/// `committed` manifest is published, or the failure is counted.
pub fn finish_flush<E: CprEngine>(engine: &E, v: u64, committed: Option<&CheckpointManifest>) {
    let core = engine.core();
    if committed.is_none() {
        core.note_failure();
    }
    let ok = core
        .state
        .transition((Phase::WaitFlush, v), (Phase::Rest, v + 1));
    debug_assert!(ok, "state machine out of sync at flush completion");
    end_trace(engine, v, committed.is_some());
    match committed {
        Some(manifest) => core.publish(v, manifest),
        None => core.notify(),
    }
}

/// The commit bookkeeping of one store (see the module docs).
pub struct CommitCore {
    /// The global (phase, version).
    pub state: SystemState,
    /// Per-session published state.
    pub registry: SessionRegistry,
    /// Commit points (and live-resume serials) of sessions that detached
    /// since the store opened.
    pub detached: DetachedSessions,
    /// Highest version whose checkpoint is durable (0 = none).
    committed_version: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    /// Outcome of the in-flight (or most recent) supervised commit.
    outcome: Mutex<CommitOutcome>,
    /// Per-guid commit points of the newest durable manifest, seeded from
    /// the recovery manifest and carried into each new manifest so
    /// sessions absent at commit time keep their recovery contract.
    durable_points: Mutex<HashMap<SessionId, u64>>,
    /// Checkpoints that failed on I/O and were aborted (no manifest).
    checkpoint_failures: AtomicU64,
    /// Called with (version, CPR points) after every durable commit.
    observers: Mutex<Vec<CommitCallback>>,
    /// Queue of the flush worker (see [`CommitCore::start_flush_worker`]).
    flush_tx: Mutex<Option<mpsc::Sender<u64>>>,
    /// Wake-ups of the background worker (see
    /// [`CommitCore::start_background_worker`]).
    background_tx: Mutex<Option<mpsc::SyncSender<()>>>,
    /// Background threads, joined on drop.
    pub(crate) threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for CommitCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitCore")
            .field("state", &self.state.load())
            .field("committed_version", &self.committed())
            .finish_non_exhaustive()
    }
}

impl CommitCore {
    /// A core resuming at `version` (1 for a fresh store): everything
    /// below it is committed, and `durable_points` are the recovered
    /// manifest's per-guid commit points.
    pub fn new(max_sessions: usize, version: u64, durable_points: HashMap<SessionId, u64>) -> Self {
        CommitCore {
            state: SystemState::at_version(version),
            registry: SessionRegistry::new(max_sessions),
            detached: DetachedSessions::new(),
            committed_version: AtomicU64::new(version.saturating_sub(1)),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            outcome: Mutex::new(CommitOutcome::default()),
            durable_points: Mutex::new(durable_points),
            checkpoint_failures: AtomicU64::new(0),
            observers: Mutex::new(Vec::new()),
            flush_tx: Mutex::new(None),
            background_tx: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Start the engine's flush worker thread: it runs `flush(engine, v)`
    /// for every version passed to [`CommitCore::hand_off`], off the
    /// sessions' threads. It holds only a `Weak` reference, so it never
    /// keeps the engine alive.
    pub fn start_flush_worker<E: CprEngine>(engine: &Arc<E>, name: &str, flush: fn(&Arc<E>, u64)) {
        let (tx, rx) = mpsc::channel::<u64>();
        let weak = Arc::downgrade(engine);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                for v in rx {
                    let Some(engine) = weak.upgrade() else { break };
                    flush(&engine, v);
                }
            })
            .expect("spawn flush worker");
        let core = engine.core();
        *core.flush_tx.lock() = Some(tx);
        core.threads.lock().push(handle);
    }

    /// Start the engine's background worker thread: it runs
    /// `work(engine)` after each [`CommitCore::wake_background`]. Wake-ups
    /// that arrive while it works coalesce into one more run. Like the
    /// flush worker it holds only a `Weak` reference.
    pub fn start_background_worker<E: CprEngine>(engine: &Arc<E>, name: &str, work: fn(&Arc<E>)) {
        let (tx, rx) = mpsc::sync_channel::<()>(1);
        let weak = Arc::downgrade(engine);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                for () in rx {
                    let Some(engine) = weak.upgrade() else { break };
                    work(&engine);
                }
            })
            .expect("spawn background worker");
        let core = engine.core();
        *core.background_tx.lock() = Some(tx);
        core.threads.lock().push(handle);
    }

    /// Ask the background worker for one more run (no-op without one).
    pub fn wake_background(&self) {
        if let Some(tx) = self.background_tx.lock().as_ref() {
            let _ = tx.try_send(());
        }
    }

    /// Hand the wait-flush work of version `v` to the flush worker.
    pub fn hand_off(&self, v: u64) {
        if let Some(tx) = self.flush_tx.lock().as_ref() {
            tx.send(v).expect("flush worker alive");
        }
    }

    /// Replace the durable points (recovery that loads after open).
    pub fn seed_durable_points(&self, points: HashMap<SessionId, u64>) {
        *self.durable_points.lock() = points;
    }

    /// Highest committed version, as a raw word.
    #[inline]
    pub fn committed(&self) -> u64 {
        self.committed_version.load(Ordering::Acquire)
    }

    pub fn committed_version(&self) -> CheckpointVersion {
        CheckpointVersion(self.committed())
    }

    /// Publish the durable commit of version `v`, described by `manifest`.
    /// The one place the order is fixed: the manifest's points become the
    /// durable baseline, detached entries it subsumes are pruned, the
    /// observers run, and only then is `v` published and waiters woken —
    /// so a caller that sees `committed_version() >= v` knows every
    /// observer has seen `v`.
    pub fn publish(&self, v: u64, manifest: &CheckpointManifest) {
        {
            let mut durable = self.durable_points.lock();
            for s in &manifest.sessions {
                let e = durable.entry(s.guid).or_insert(0);
                *e = (*e).max(s.cpr_point);
            }
        }
        self.detached.prune_committed(v);
        for cb in self.observers.lock().iter() {
            cb(v, &manifest.sessions);
        }
        self.committed_version.store(v, Ordering::Release);
        self.notify();
    }

    /// Wake every waiter on the commit condition variable.
    pub fn notify(&self) {
        let _g = self.lock.lock();
        self.cv.notify_all();
    }

    /// Count a checkpoint that failed and was aborted.
    pub fn note_failure(&self) {
        self.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
    }

    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures.load(Ordering::Acquire)
    }

    /// Register a commit observer.
    pub fn on_commit(&self, callback: CommitCallback) {
        self.observers.lock().push(callback);
    }

    /// Per-session commit points for the manifest of version `v`: the
    /// newest durable points carried forward, detached sessions' deposited
    /// points, and the live registry snapshot, merged by max. Serials only
    /// grow per guid, so max picks the newest claim each source can
    /// justify (and a session that re-attached mid-checkpoint — registry
    /// point still 0 — keeps the point it deposited when it detached).
    pub fn session_points(&self, v: u64) -> Vec<SessionCpr> {
        let mut points = self.durable_points.lock().clone();
        for (guid, p) in self
            .detached
            .points_for(v)
            .into_iter()
            .chain(self.registry.cpr_points())
        {
            let e = points.entry(guid).or_insert(0);
            *e = (*e).max(p);
        }
        let mut out: Vec<SessionCpr> = points
            .into_iter()
            .map(|(guid, cpr_point)| SessionCpr { guid, cpr_point })
            .collect();
        out.sort_unstable_by_key(|s| s.guid);
        out
    }

    /// The serial a re-attaching `guid` resumes from: its last accepted
    /// serial if it detached while the store stayed up, else its durable
    /// commit point (every later serial must be re-issued), else 0.
    pub fn resume_serial(&self, guid: SessionId) -> u64 {
        self.detached
            .last_serial(guid)
            .unwrap_or_else(|| self.durable_point(guid))
    }

    /// The guid's durable commit point: the serial below which every op
    /// is guaranteed recovered after a crash right now.
    pub fn durable_point(&self, guid: SessionId) -> u64 {
        self.durable_points.lock().get(&guid).copied().unwrap_or(0)
    }

    /// Block until the checkpoint of `version` is durable, nudging the
    /// epoch drain list in case no session is refreshing. Returns `false`
    /// on timeout.
    pub fn wait_for_version(
        &self,
        epoch: &EpochManager,
        version: CheckpointVersion,
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        self.wait_until(epoch, deadline, |core| core.committed_version() >= version)
    }

    /// Block until `done` holds or `deadline` passes, re-checking at least
    /// every millisecond and nudging the drain list in between. Returns
    /// the last value of `done`.
    pub fn wait_until(
        &self,
        epoch: &EpochManager,
        deadline: Instant,
        mut done: impl FnMut(&Self) -> bool,
    ) -> bool {
        let mut g = self.lock.lock();
        loop {
            if done(self) {
                return true;
            }
            epoch.try_drain();
            if Instant::now() >= deadline {
                return false;
            }
            self.cv.wait_for(&mut g, Duration::from_millis(1));
        }
    }

    /// Start the outcome record of a freshly requested commit.
    pub fn begin_outcome(&self) {
        *self.outcome.lock() = CommitOutcome {
            attempts: 1,
            ..CommitOutcome::default()
        };
    }

    /// The in-flight (or most recent) supervised commit's outcome.
    pub fn outcome(&self) -> MutexGuard<'_, CommitOutcome> {
        self.outcome.lock()
    }

    pub fn last_commit_outcome(&self) -> CommitOutcome {
        self.outcome.lock().clone()
    }
}

impl Drop for CommitCore {
    fn drop(&mut self) {
        // Close the flush queue, then join the workers. The final Arc may
        // be dropped *by a worker itself* (each upgrades its Weak per
        // job); never join our own thread.
        self.flush_tx.get_mut().take();
        self.background_tx.get_mut().take();
        for h in self.threads.get_mut().drain(..) {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

/// Bump the epoch with a trigger that fires once every session has
/// reached `(from, v)` and `extra` holds; it then moves the state machine
/// `(from, v) → (to, v)`, traces the entry into `to`, and runs `then`.
/// While the trigger waits, the first blocking session is traced. A failed transition means the watchdog timed the
/// attempt out meanwhile: the stale trigger does nothing.
pub fn advance_when_all_at<E: CprEngine>(
    engine: &Arc<E>,
    v: u64,
    from: Phase,
    to: Phase,
    extra: fn(&E, u64) -> bool,
    then: fn(Arc<E>, u64),
) {
    let cond_engine = Arc::clone(engine);
    let action_engine = Arc::clone(engine);
    engine.epoch().bump_epoch(
        Some(Box::new(move || {
            let e = &*cond_engine;
            let registry = &e.core().registry;
            let ready = registry.all_at_least(from, v) && extra(e, v);
            if !ready && e.tracing() {
                if let Some((_, guid)) = registry.first_blocker(from, v) {
                    e.trace_blocker(guid);
                }
            }
            ready
        })),
        Box::new(move || {
            let e = action_engine;
            if !e.core().state.transition((from, v), (to, v)) {
                return;
            }
            if e.tracing() {
                e.trace_phase(v, to);
            }
            then(e, v);
        }),
    );
}

/// No extra trigger condition.
pub fn always<E>(_: &E, _: u64) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckpointKind;
    use std::sync::atomic::AtomicBool;

    fn manifest(v: u64, points: &[(u64, u64)]) -> CheckpointManifest {
        let mut m = CheckpointManifest::new(v, CheckpointKind::Database, v);
        m.sessions = points
            .iter()
            .map(|&(guid, cpr_point)| SessionCpr { guid, cpr_point })
            .collect();
        m
    }

    #[test]
    fn publish_runs_observers_before_the_version() {
        let core = Arc::new(CommitCore::new(4, 1, HashMap::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let durable_seen = Arc::new(AtomicU64::new(u64::MAX));
        {
            let core = Arc::clone(&core);
            let seen = Arc::clone(&seen);
            let durable_seen = Arc::clone(&durable_seen);
            // A weak handle, so the observer does not keep its core alive.
            let observer_core = Arc::downgrade(&core);
            core.on_commit(Box::new(move |v, points| {
                let c = observer_core.upgrade().unwrap();
                // The version is not yet published while observers run…
                assert!(c.committed() < v);
                // …but the durable points already are.
                durable_seen.store(c.durable_point(7), Ordering::SeqCst);
                assert_eq!(
                    points,
                    &[SessionCpr {
                        guid: 7,
                        cpr_point: 3
                    }]
                );
                seen.store(v, Ordering::SeqCst);
            }));
        }
        core.detached.record(7, vec![(1, 3)], (2, 5));
        core.publish(1, &manifest(1, &[(7, 3)]));
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        assert_eq!(durable_seen.load(Ordering::SeqCst), 3);
        assert_eq!(core.committed(), 1);
        // The detached entry at v=1 was subsumed; the v=2 one remains.
        assert_eq!(core.detached.points_for(1), vec![]);
        assert_eq!(core.detached.points_for(2), vec![(7, 5)]);
    }

    #[test]
    fn publish_merges_durable_points_by_max() {
        let core = CommitCore::new(4, 3, HashMap::from([(1, 10), (2, 4)]));
        assert_eq!(core.committed(), 2, "resumed at v=3: v=2 is durable");
        core.publish(3, &manifest(3, &[(1, 8), (2, 6), (3, 1)]));
        assert_eq!(core.durable_point(1), 10, "a lower claim never regresses");
        assert_eq!(core.durable_point(2), 6);
        assert_eq!(core.durable_point(3), 1);
        assert_eq!(core.durable_point(4), 0);
    }

    #[test]
    fn session_points_merge_durable_detached_and_live_by_max() {
        let core = CommitCore::new(4, 5, HashMap::from([(1, 10), (2, 20), (3, 30)]));
        // guid 2 detached at v=5 with a newer point; guid 4 only detached.
        core.detached.record(2, vec![], (5, 25));
        core.detached.record(4, vec![], (5, 7));
        // A detached point from a later version is not claimed yet.
        core.detached.record(5, vec![], (6, 99));
        // guid 3 is live with an older point than its durable one; guid
        // 1 is live with a newer one; guid 6 is live and new.
        let a = core.registry.acquire(3, Phase::Rest, 5);
        core.registry.set_serial(a, 12);
        core.registry.mark_cpr_point(a);
        let b = core.registry.acquire(1, Phase::Rest, 5);
        core.registry.set_serial(b, 11);
        core.registry.mark_cpr_point(b);
        let c = core.registry.acquire(6, Phase::Rest, 5);
        core.registry.set_serial(c, 2);
        core.registry.mark_cpr_point(c);
        let points: Vec<(u64, u64)> = core
            .session_points(5)
            .into_iter()
            .map(|s| (s.guid, s.cpr_point))
            .collect();
        assert_eq!(points, vec![(1, 11), (2, 25), (3, 30), (4, 7), (6, 2)]);
    }

    #[test]
    fn resume_serial_prefers_live_detach_over_durable_point() {
        let core = CommitCore::new(2, 2, HashMap::from([(1, 4), (2, 9)]));
        core.detached.record(1, vec![], (2, 6));
        assert_eq!(core.resume_serial(1), 6);
        assert_eq!(core.resume_serial(2), 9);
        assert_eq!(core.resume_serial(3), 0);
    }

    #[test]
    fn wait_for_version_wakes_on_publish_and_times_out() {
        let core = Arc::new(CommitCore::new(1, 1, HashMap::new()));
        let epoch = EpochManager::new(2);
        assert!(!core.wait_for_version(&epoch, 1.into(), Duration::from_millis(5)));
        let done = Arc::new(AtomicBool::new(false));
        let t = {
            let core = Arc::clone(&core);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let epoch = EpochManager::new(2);
                let ok = core.wait_for_version(&epoch, 1.into(), Duration::from_secs(10));
                done.store(true, Ordering::SeqCst);
                ok
            })
        };
        core.publish(1, &manifest(1, &[]));
        assert!(t.join().unwrap());
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn begin_outcome_resets_the_record() {
        let core = CommitCore::new(1, 1, HashMap::new());
        core.outcome().aborted = 3;
        core.outcome().gave_up = true;
        core.begin_outcome();
        let out = core.last_commit_outcome();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.aborted, 0);
        assert!(!out.gave_up);
    }
}
