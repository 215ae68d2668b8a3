//! The session liveness watchdog (paper Sec. 3's "all threads must
//! participate" assumption, made safe against threads that don't).
//!
//! CPR's group commit advances only when every registered session has
//! refreshed into the current phase, so one preempted, parked, or dead
//! client thread wedges the checkpoint forever. While a commit is in
//! flight, the watchdog scans session leases and acts on stragglers whose
//! heartbeat has gone stale for longer than the grace period. The
//! decision table is one; each engine supplies the remedies through
//! [`Remedies`]:
//!
//! | straggler is…                        | action                         |
//! |--------------------------------------|--------------------------------|
//! | idle, blocking, no pending ops       | proxy-advance: publish its     |
//! |                                      | phase state (and CPR point)    |
//! | idle with pending ops, or inside an  | evict: [`Remedies::evict`]     |
//! | operation while blocking or with     | cancels its in-flight work and |
//! | pending ops                          | its CPR point rolls back below |
//! |                                      | the earliest cancelled serial  |
//! | `Locking` (holding locks/latches)    | abort the attempt, back off,   |
//! |                                      | retry (bounded by              |
//! |                                      | `max_attempts`)                |
//!
//! **Two-scan rule.** A stale session is first *suspended* (scan N) and
//! only acted upon at a later scan if its lease is still stale — a session
//! merely observed mid-transition gets a full poll interval to show life.
//!
//! **Why eviction is only safe outside `Locking`.** The owner publishes
//! its busy state with sequentially consistent stores and re-checks its
//! status (also SeqCst) before applying any write. If the watchdog evicts
//! while `busy == InTxn`, the owner's next status check observes the
//! eviction and abandons the operation, so an evicted session never
//! grows the store past its published CPR point. A session seen
//! `Locking` may already be past that check, mid-apply; the only safe
//! remedy is timing the whole checkpoint out.
//!
//! Every scan also releases the epoch-table slots of stale sessions
//! ([`cpr_epoch::EpochManager::release_stale`]): a parked thread pins the
//! safe epoch, which blocks the drain-list triggers that drive the phase
//! transitions even when no session blocks the phase logically.

use std::sync::Arc;

use crate::commit::{end_trace, CprEngine};
use crate::liveness::{BusyState, LivenessConfig, SessionStatus};
use crate::sessions::{at_least, SessionId};
use crate::Phase;

/// An engine's remedies for the watchdog's decisions.
pub trait Remedies: CprEngine {
    /// The phases in which sessions gate the next transition (so a stale
    /// session can block the commit, and the attempt can be timed out by
    /// returning the state machine to rest).
    const GATED: &'static [Phase];

    /// What an aborted attempt needs to be retried with.
    type Attempt: Copy + Send;

    /// Start a fresh commit attempt; `true` if it started.
    fn retry(self: &Arc<Self>, attempt: Self::Attempt) -> bool;

    /// True iff the session in `slot` has operations in flight that the
    /// commit waits for.
    fn has_pendings(&self, _slot: usize) -> bool {
        false
    }

    /// Cancel the in-flight work of the just-evicted session in `slot`
    /// and return the smallest serial cancelled, if any.
    fn evict(&self, _slot: usize) -> Option<u64> {
        None
    }

    /// Time the in-flight attempt of version `v`, observed in `phase`,
    /// out. Returns what a retry needs iff this call aborted it.
    fn abort(&self, phase: Phase, v: u64) -> Option<Self::Attempt>;
}

/// Start the watchdog on its own thread, joined when the engine's core
/// drops. It holds only a `Weak` reference, so it never keeps the engine
/// alive, and exits once the engine is gone.
pub fn start<E: Remedies>(engine: &Arc<E>, cfg: LivenessConfig, name: &str) {
    let weak = Arc::downgrade(engine);
    let handle = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let mut dog = Watchdog::new(cfg);
            loop {
                std::thread::sleep(dog.cfg.poll_interval);
                let Some(engine) = weak.upgrade() else { return };
                dog.scan(&engine);
            }
        })
        .expect("spawn watchdog thread");
    engine.core().threads.lock().push(handle);
}

/// The watchdog's state between scans.
struct Watchdog<E: Remedies> {
    cfg: LivenessConfig,
    rng: u64,
    /// Clock tick at which an aborted attempt's retry may be issued, and
    /// what it needs.
    retry: Option<(u64, E::Attempt)>,
}

impl<E: Remedies> Watchdog<E> {
    fn new(cfg: LivenessConfig) -> Self {
        Watchdog {
            rng: cfg.seed | 1,
            cfg,
            retry: None,
        }
    }

    /// One scan: issue a due retry at rest, otherwise act on stale leases.
    fn scan(&mut self, engine: &Arc<E>) {
        let now = self.cfg.clock.now();
        let core = engine.core();
        let (phase, v) = core.state.load();

        if phase == Phase::Rest {
            if let Some((at, attempt)) = self.retry {
                if now >= at {
                    self.retry = None;
                    if engine.retry(attempt) {
                        core.outcome().attempts += 1;
                    }
                }
            }
            return;
        }

        // A commit is in flight: nudge the drain list and examine leases.
        engine.epoch().try_drain();

        let reg = &core.registry;
        let gated = E::GATED.contains(&phase);
        let blockers: Vec<usize> = if gated {
            reg.blockers(phase, v).into_iter().map(|(i, _)| i).collect()
        } else {
            Vec::new()
        };

        let mut abort_wanted = false;
        for idx in 0..reg.capacity() {
            let Some(guid) = reg.guid(idx) else { continue };
            if now.saturating_sub(reg.last_heartbeat(idx)) <= self.cfg.grace_ticks {
                continue; // lease is fresh
            }
            match reg.status(idx) {
                SessionStatus::Active => {
                    // Scan N: suspend only (two-scan rule).
                    reg.try_suspend(idx);
                }
                SessionStatus::Evicted | SessionStatus::Proxying => {}
                SessionStatus::Suspended => {
                    // Scan N+1: still stale — act. Whatever we decide,
                    // unpin the straggler's epoch slot so triggers fire.
                    if let Some(slot) = reg.epoch_slot(idx) {
                        engine.epoch().release_stale(slot);
                    }
                    let blocking = blockers.contains(&idx);
                    let pendings = engine.has_pendings(idx);
                    match reg.busy(idx) {
                        BusyState::Idle if pendings => evict(&**engine, idx, guid, v),
                        BusyState::Idle if blocking => proxy_advance(&**engine, idx, guid, v),
                        BusyState::InTxn if blocking || pendings => evict(&**engine, idx, guid, v),
                        BusyState::Locking => abort_wanted = true,
                        _ => {}
                    }
                }
            }
        }

        if abort_wanted {
            self.abort(engine, phase, v, now);
        }
        engine.epoch().try_drain();
    }

    /// Time the in-flight attempt out and schedule a backed-off retry, or
    /// give up once `max_attempts` are spent.
    fn abort(&mut self, engine: &Arc<E>, phase: Phase, v: u64, now: u64) {
        let Some(attempt) = engine.abort(phase, v) else {
            return;
        };
        let core = engine.core();
        core.outcome().aborted += 1;
        if E::GATED.contains(&phase) {
            // No flush runs for this attempt, so the tracer's timeline is
            // closed here (later aborts end through the flush's failure
            // path).
            end_trace(&**engine, v, false);
        }
        let mut out = core.outcome();
        if out.attempts >= self.cfg.max_attempts {
            out.gave_up = true;
            self.retry = None;
        } else {
            let at = now + self.cfg.backoff_ticks(out.attempts, &mut self.rng);
            self.retry = Some((at, attempt));
        }
        drop(out);
        core.notify();
    }
}

/// Publish phase state on behalf of an idle, suspended straggler. The
/// Suspended → Proxying CAS is the publish lock: the owner cannot
/// reactivate (and thus cannot run operations or re-publish) until
/// `end_proxy`, so the state and CPR point published cannot be stale by
/// the time they land.
fn proxy_advance<E: Remedies>(engine: &E, idx: usize, guid: SessionId, v: u64) {
    let core = engine.core();
    let reg = &core.registry;
    if !reg.try_begin_proxy(idx) {
        return; // owner resumed (or another decision won) meanwhile
    }
    // Re-sample everything under the proxy lock.
    let (phase, cur_v) = core.state.load();
    if cur_v == v && E::GATED.contains(&phase) {
        let view = reg.view(idx);
        if !at_least(view, phase, v) {
            // Mark the CPR point iff this publish crosses the session
            // over prepare → in-progress for version v.
            let mark = phase >= Phase::InProgress && !at_least(view, Phase::InProgress, v);
            reg.proxy_advance(idx, phase, v, mark);
            let mut out = core.outcome();
            if !out.proxy_advanced.contains(&guid) {
                out.proxy_advanced.push(guid);
            }
        }
    }
    reg.end_proxy(idx);
}

/// Evict a dead session: cancel its in-flight work and claim exactly its
/// applied prefix. A session that crossed its CPR point keeps the marked
/// point; one that did not (a blocker) claims its last serial. The claim
/// then rolls back below the earliest cancelled serial it covers, so the
/// manifest never claims an operation that was not applied.
fn evict<E: Remedies>(engine: &E, idx: usize, guid: SessionId, v: u64) {
    let reg = &engine.core().registry;
    if !reg.try_evict(idx) {
        return;
    }
    let base = if at_least(reg.view(idx), Phase::InProgress, v) {
        reg.cpr_point(idx)
    } else {
        reg.serial(idx)
    };
    let point = match engine.evict(idx) {
        Some(first) if first <= base => first.saturating_sub(1),
        _ => base,
    };
    reg.set_cpr_point(idx, point);
    engine.core().outcome().evicted.push(guid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommitCore;
    use crate::liveness::VirtualClock;
    use cpr_epoch::EpochManager;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::time::Duration;

    /// A fake engine: one commit state machine, scripted pending ops, and
    /// a log of the remedies the watchdog asked for.
    struct Fake {
        core: CommitCore,
        epoch: Arc<EpochManager>,
        pendings: Mutex<HashMap<usize, u64>>,
        log: Mutex<Vec<String>>,
    }

    impl CprEngine for Fake {
        fn core(&self) -> &CommitCore {
            &self.core
        }
        fn epoch(&self) -> &EpochManager {
            &self.epoch
        }
    }

    impl Remedies for Fake {
        const GATED: &'static [Phase] = &[Phase::Prepare, Phase::InProgress];
        type Attempt = u64;

        fn retry(self: &Arc<Self>, attempt: u64) -> bool {
            self.log.lock().push(format!("retry {attempt}"));
            let v = self.core.state.version();
            self.core
                .state
                .transition((Phase::Rest, v), (Phase::Prepare, v))
        }
        fn has_pendings(&self, slot: usize) -> bool {
            self.pendings.lock().contains_key(&slot)
        }
        fn evict(&self, slot: usize) -> Option<u64> {
            self.log.lock().push(format!("evict {slot}"));
            self.pendings.lock().remove(&slot)
        }
        fn abort(&self, phase: Phase, v: u64) -> Option<u64> {
            self.log.lock().push(format!("abort {phase} {v}"));
            self.core
                .state
                .transition((phase, v), (Phase::Rest, v + 1))
                .then_some(v)
        }
    }

    fn fake() -> (Arc<Fake>, Arc<VirtualClock>, Watchdog<Fake>) {
        let clock = Arc::new(VirtualClock::new());
        let cfg = LivenessConfig::with_clock(clock.clone())
            .grace_ticks(10)
            .poll_interval(Duration::from_millis(1))
            .max_attempts(3)
            .backoff_base_ticks(5)
            .backoff_jitter_ticks(0);
        let engine = Arc::new(Fake {
            core: CommitCore::new(4, 1, HashMap::new()),
            epoch: Arc::new(EpochManager::new(8)),
            pendings: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        });
        (engine, clock, Watchdog::new(cfg))
    }

    /// Attach a session at the current state with `serial` accepted.
    fn attach(e: &Fake, guid: u64, serial: u64) -> usize {
        let (p, v) = e.core.state.load();
        let idx = e.core.registry.acquire(guid, p, v);
        e.core.registry.set_serial(idx, serial);
        idx
    }

    fn start(e: &Fake) {
        e.core.begin_outcome();
        let v = e.core.state.version();
        assert!(e
            .core
            .state
            .transition((Phase::Rest, v), (Phase::Prepare, v)));
    }

    #[test]
    fn stale_idle_blocker_is_suspended_then_proxy_advanced() {
        let (e, clock, mut dog) = fake();
        let idx = attach(&e, 7, 4);
        start(&e);
        clock.advance(11);
        dog.scan(&e);
        assert_eq!(e.core.registry.status(idx), SessionStatus::Suspended);
        assert_eq!(
            e.core.registry.view(idx),
            (Phase::Rest, 1),
            "scan N only suspends"
        );
        dog.scan(&e);
        assert_eq!(e.core.registry.view(idx), (Phase::Prepare, 1));
        assert_eq!(e.core.last_commit_outcome().proxy_advanced, vec![7]);
        // Into in-progress: the proxy publish marks the CPR point.
        assert!(e
            .core
            .state
            .transition((Phase::Prepare, 1), (Phase::InProgress, 1)));
        dog.scan(&e);
        assert_eq!(e.core.registry.view(idx), (Phase::InProgress, 1));
        assert_eq!(e.core.registry.cpr_point(idx), 4);
        assert_eq!(e.core.last_commit_outcome().proxy_advanced, vec![7]);
    }

    #[test]
    fn fresh_leases_and_rest_are_left_alone() {
        let (e, clock, mut dog) = fake();
        let idx = attach(&e, 1, 0);
        clock.advance(100);
        dog.scan(&e);
        assert_eq!(
            e.core.registry.status(idx),
            SessionStatus::Active,
            "no commit"
        );
        start(&e);
        e.core.registry.heartbeat(idx, 95);
        dog.scan(&e);
        assert_eq!(e.core.registry.status(idx), SessionStatus::Active, "fresh");
    }

    #[test]
    fn blocker_inside_an_operation_is_evicted_at_its_serial() {
        let (e, clock, mut dog) = fake();
        let idx = attach(&e, 3, 9);
        e.core.registry.set_busy(idx, BusyState::InTxn);
        start(&e);
        clock.advance(11);
        dog.scan(&e);
        dog.scan(&e);
        assert_eq!(e.core.registry.status(idx), SessionStatus::Evicted);
        assert_eq!(e.core.registry.cpr_point(idx), 9);
        assert_eq!(e.core.last_commit_outcome().evicted, vec![3]);
        assert!(e.core.registry.all_at_least(Phase::Prepare, 1));
    }

    #[test]
    fn eviction_rolls_the_point_below_the_first_cancelled_serial() {
        let (e, clock, mut dog) = fake();
        let idx = attach(&e, 4, 12);
        start(&e);
        // Crossed already (point 10), with ops from serial 8 pending.
        e.core.registry.mark_cpr_point(idx);
        e.core.registry.set_cpr_point(idx, 10);
        e.core.registry.publish(idx, Phase::InProgress, 1);
        e.pendings.lock().insert(idx, 8);
        clock.advance(11);
        dog.scan(&e);
        dog.scan(&e);
        assert_eq!(e.core.registry.status(idx), SessionStatus::Evicted);
        assert_eq!(e.core.registry.cpr_point(idx), 7);
        assert_eq!(*e.log.lock(), vec![format!("evict {idx}")]);
    }

    #[test]
    fn idle_non_blocker_without_pendings_is_only_suspended() {
        let (e, clock, mut dog) = fake();
        let idx = attach(&e, 5, 1);
        start(&e);
        e.core.registry.publish(idx, Phase::Prepare, 1);
        clock.advance(11);
        dog.scan(&e);
        dog.scan(&e);
        assert_eq!(e.core.registry.status(idx), SessionStatus::Suspended);
        assert!(e.log.lock().is_empty());
        let out = e.core.last_commit_outcome();
        assert!(out.proxy_advanced.is_empty() && out.evicted.is_empty());
        assert_eq!(out.aborted, 0);
    }

    #[test]
    fn locking_straggler_aborts_and_backs_off_until_gave_up() {
        let (e, clock, mut dog) = fake();
        let idx = attach(&e, 2, 0);
        e.core.registry.set_busy(idx, BusyState::Locking);
        start(&e);
        for attempt in 1..=3u32 {
            let v = e.core.state.version();
            assert_eq!(e.core.state.phase(), Phase::Prepare);
            clock.advance(11);
            dog.scan(&e); // suspend (only on the first attempt)
            dog.scan(&e); // abort
            assert_eq!(
                e.core.state.load(),
                (Phase::Rest, v + 1),
                "attempt {attempt}"
            );
            let out = e.core.last_commit_outcome();
            assert_eq!(out.aborted, attempt);
            if attempt == 3 {
                assert!(out.gave_up);
                break;
            }
            assert!(!out.gave_up);
            // No retry before the backoff (5 << attempt ticks) elapses.
            dog.scan(&e);
            assert_eq!(e.core.state.phase(), Phase::Rest);
            clock.advance(5 << attempt);
            dog.scan(&e);
            assert_eq!(e.core.state.phase(), Phase::Prepare, "retried");
            assert_eq!(e.core.last_commit_outcome().attempts, attempt + 1);
        }
        // Gave up: no further retry, however long we wait.
        clock.advance(1_000);
        dog.scan(&e);
        assert_eq!(e.core.state.phase(), Phase::Rest);
        let retries = e
            .log
            .lock()
            .iter()
            .filter(|l| l.starts_with("retry"))
            .count();
        assert_eq!(retries, 2);
    }
}
