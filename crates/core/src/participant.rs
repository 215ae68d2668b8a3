//! The session side of the protocol core: one session's part in CPR.
//!
//! A [`Participant`] is what both engines' sessions embed: the registry
//! slot and identity, the thread-local (phase, version) view and the
//! serial, the epoch guard, the lease clock, and the CPR points awaiting
//! durability. It owns the steps the paper defines per session — attach,
//! the refresh that adopts the global state and marks the CPR point at
//! the prepare → in-progress crossing, the durable-serial computation,
//! the watchdog entry protocol, and the drop-time deposit of commit
//! points into the detached-session table.

use std::collections::VecDeque;
use std::sync::Arc;

use cpr_epoch::{EpochManager, Guard};

use crate::commit::CommitCore;
use crate::liveness::{BusyState, Clock, SessionStatus};
use crate::sessions::{at_least, SessionId, SessionInfo};
use crate::Phase;

/// What a [`Participant::refresh`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refreshed {
    /// The watchdog evicted the session; nothing was adopted.
    Evicted,
    /// The global state equals the session's view.
    Unchanged,
    /// The session adopted and published a new global state.
    Changed,
}

/// Result of one attempt of the watchdog entry protocol
/// ([`Participant::try_begin_op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// The session is inside an operation and may accept it.
    Entered,
    /// The watchdog had suspended the session; it is active again but may
    /// have been proxy-advanced. The caller must refresh and retry.
    Resumed,
    /// The session is evicted (sticky).
    Evicted,
}

/// One session's part in the CPR protocol (see the module docs).
pub struct Participant {
    pub guard: Guard,
    /// Registry slot.
    pub slot: usize,
    pub guid: SessionId,
    /// Thread-local view of the global state machine.
    pub phase: Phase,
    pub version: u64,
    /// Serial of the session's last operation (its meaning — accepted or
    /// committed — is the engine's).
    pub serial: u64,
    pub ops_since_refresh: u64,
    /// Lease clock, present iff the store runs a liveness watchdog.
    pub clock: Option<Arc<dyn Clock>>,
    /// Cached "this session has been evicted" flag (set once, sticky).
    pub evicted: bool,
    /// CPR points awaiting durability: (version, serial at point).
    pending_points: VecDeque<(u64, u64)>,
    durable_serial: u64,
}

impl Participant {
    /// Attach session `guid` at `start_serial`: claim a registry slot at
    /// the current global state, publish the resumed serial (a checkpoint
    /// racing the attach must see the session's true position, not a
    /// fresh 0), and register with the epoch framework. With a lease
    /// `clock`, also publish the epoch slot (so the watchdog can reclaim
    /// it), stamp the lease, and arm the thread-exit sentinel.
    pub fn attach(
        core: &CommitCore,
        epoch: &Arc<EpochManager>,
        guid: SessionId,
        start_serial: u64,
        clock: Option<Arc<dyn Clock>>,
    ) -> Self {
        let (phase, version) = core.state.load();
        let slot = core.registry.acquire(guid, phase, version);
        core.registry.set_serial(slot, start_serial);
        let mut guard = epoch.register();
        if let Some(c) = &clock {
            core.registry.set_epoch_slot(slot, guard.slot());
            core.registry.heartbeat(slot, c.now());
            guard.arm_exit_sentinel();
        }
        Participant {
            guard,
            slot,
            guid,
            phase,
            version,
            serial: start_serial,
            ops_since_refresh: 0,
            clock,
            evicted: false,
            pending_points: VecDeque::new(),
            durable_serial: start_serial,
        }
    }

    /// True iff the store runs a liveness watchdog.
    #[inline]
    pub fn live(&self) -> bool {
        self.clock.is_some()
    }

    /// Publish the local epoch, renew the lease, and adopt any global
    /// state change: mark the CPR point when crossing prepare →
    /// in-progress (paper Alg. 1), then publish the new view.
    /// `before_publish(old, new)` runs before the publish, while the
    /// registry still shows the old view (FASTER protects its pending
    /// operations there on entering prepare).
    #[inline]
    pub fn refresh(
        &mut self,
        core: &CommitCore,
        before_publish: impl FnOnce((Phase, u64), (Phase, u64)),
    ) -> Refreshed {
        self.guard.refresh();
        self.ops_since_refresh = 0;
        if let Some(c) = &self.clock {
            // Lease renewal: one relaxed store (plus one relaxed probe of
            // the sticky eviction flag) — the whole hot-path liveness cost.
            core.registry.heartbeat(self.slot, c.now());
            if self.evicted || core.registry.is_evicted(self.slot) {
                self.evicted = true;
                return Refreshed::Evicted;
            }
        }
        let (gp, gv) = core.state.load();
        if (gp, gv) == (self.phase, self.version) {
            return Refreshed::Unchanged;
        }
        before_publish((self.phase, self.version), (gp, gv));
        let crossed =
            self.phase <= Phase::Prepare && at_least((gp, gv), Phase::InProgress, self.version);
        if crossed {
            let point = core.registry.mark_cpr_point(self.slot);
            self.pending_points.push_back((self.version, point));
        }
        self.phase = gp;
        self.version = gv;
        core.registry.publish(self.slot, gp, gv);
        Refreshed::Changed
    }

    /// The version this session's new operations belong to: `v + 1` once
    /// it has crossed its CPR point of the commit of `v`.
    #[inline]
    pub fn txn_version(&self) -> u64 {
        if self.phase >= Phase::InProgress {
            self.version + 1
        } else {
            self.version
        }
    }

    /// Publish the session's serial to the registry.
    #[inline]
    pub fn publish_serial(&self, core: &CommitCore) {
        core.registry.set_serial(self.slot, self.serial);
    }

    /// Publish a busy-state change iff the liveness watchdog is running.
    #[inline]
    pub fn set_busy(&self, core: &CommitCore, b: BusyState) {
        if self.live() {
            core.registry.set_busy(self.slot, b);
        }
    }

    /// Largest serial known durable: every operation with a serial at or
    /// below it survives any crash (the session's committed CPR prefix).
    pub fn durable_serial(&mut self, core: &CommitCore) -> u64 {
        let cv = core.committed();
        while let Some(&(v, s)) = self.pending_points.front() {
            if v > cv {
                break;
            }
            self.durable_serial = self.durable_serial.max(s);
            self.pending_points.pop_front();
        }
        self.durable_serial
    }

    /// Everything up to the current serial is durable by other means
    /// (a WAL sync).
    pub fn note_durable(&mut self) {
        self.durable_serial = self.serial;
    }

    /// One attempt of the Dekker-style entry protocol against the
    /// watchdog: publish `busy = InTxn` (SeqCst), then load the status
    /// (SeqCst). If the status read observes `Active`, the watchdog's
    /// suspend CAS had not happened before it in the SeqCst total order,
    /// so no eviction (which needs a prior suspend plus a later scan) can
    /// be in flight and the operation may be accepted. Otherwise the
    /// session steps back out and waits out any in-flight proxy publish.
    pub fn try_begin_op(&mut self, core: &CommitCore) -> Entry {
        if self.evicted {
            return Entry::Evicted;
        }
        core.registry.set_busy(self.slot, BusyState::InTxn);
        if core.registry.status(self.slot) == SessionStatus::Active {
            return Entry::Entered;
        }
        core.registry.set_busy(self.slot, BusyState::Idle);
        if core.registry.await_reactivate(self.slot) {
            Entry::Resumed
        } else {
            self.evicted = true;
            Entry::Evicted
        }
    }

    /// True once the watchdog has evicted this session.
    pub fn is_evicted(&self, core: &CommitCore) -> bool {
        self.evicted || (self.live() && core.registry.status(self.slot) == SessionStatus::Evicted)
    }

    /// Snapshot of the session's identity and thread-local view.
    pub fn info(&self) -> SessionInfo {
        SessionInfo {
            guid: self.guid,
            serial: self.serial,
            phase: self.phase,
            version: self.version.into(),
        }
    }

    /// Deposit this session's commit points in the detached-session table
    /// and free its slot: once released the registry forgets the guid,
    /// but a later checkpoint (or a reconnecting client) still needs
    /// them. An evicted session deposits its rolled-back point: eviction
    /// cancelled everything after it, so the pre-eviction serial must
    /// never be reported.
    pub fn detach(&self, core: &CommitCore) {
        if self.guid == crate::INTERNAL_SESSION {
            // Nothing to resume and no commit point to report.
        } else if self.evicted || core.registry.is_evicted(self.slot) {
            let point = core.registry.cpr_point(self.slot);
            core.detached.record_evicted(self.guid, self.version, point);
        } else {
            let points: Vec<(u64, u64)> = self.pending_points.iter().copied().collect();
            core.detached
                .record(self.guid, points, (self.txn_version(), self.serial));
        }
        core.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn setup() -> (CommitCore, Arc<EpochManager>) {
        (
            CommitCore::new(4, 1, HashMap::new()),
            Arc::new(EpochManager::new(8)),
        )
    }

    #[test]
    fn refresh_marks_the_point_at_the_crossing_and_hooks_before_publish() {
        let (core, epoch) = setup();
        let mut p = Participant::attach(&core, &epoch, 5, 0, None);
        assert_eq!(
            p.refresh(&core, |_, _| panic!("no change")),
            Refreshed::Unchanged
        );
        p.serial = 3;
        p.publish_serial(&core);
        assert!(core.state.transition((Phase::Rest, 1), (Phase::Prepare, 1)));
        let mut seen = None;
        let slot = p.slot;
        let r = p.refresh(&core, |old, new| {
            // Runs while the registry still shows the old view.
            assert_eq!(core.registry.view(slot), old);
            seen = Some((old, new));
        });
        assert_eq!(r, Refreshed::Changed);
        assert_eq!(seen, Some(((Phase::Rest, 1), (Phase::Prepare, 1))));
        assert_eq!(core.registry.cpr_point(p.slot), 0, "no crossing yet");
        p.serial = 4;
        p.publish_serial(&core);
        assert!(core
            .state
            .transition((Phase::Prepare, 1), (Phase::InProgress, 1)));
        p.refresh(&core, |_, _| {});
        assert_eq!(core.registry.cpr_point(p.slot), 4);
        assert_eq!(p.txn_version(), 2);
        // Durable once version 1 commits.
        assert_eq!(p.durable_serial(&core), 0);
        core.publish(
            1,
            &crate::CheckpointManifest::new(1, crate::CheckpointKind::Database, 1),
        );
        assert_eq!(p.durable_serial(&core), 4);
    }

    #[test]
    fn refresh_skipping_a_whole_commit_still_marks_the_point() {
        let (core, epoch) = setup();
        let mut p = Participant::attach(&core, &epoch, 1, 7, None);
        core.state.store(Phase::Rest, 2);
        p.refresh(&core, |_, _| {});
        assert_eq!(core.registry.cpr_point(p.slot), 7);
        assert_eq!(p.info().version, 2);
    }

    #[test]
    fn entry_protocol_follows_the_lease_status() {
        let (core, epoch) = setup();
        let clock = Arc::new(crate::VirtualClock::new());
        let mut p = Participant::attach(&core, &epoch, 1, 0, Some(clock));
        assert_eq!(p.try_begin_op(&core), Entry::Entered);
        p.set_busy(&core, BusyState::Idle);
        assert!(core.registry.try_suspend(p.slot));
        assert_eq!(p.try_begin_op(&core), Entry::Resumed);
        assert_eq!(core.registry.status(p.slot), SessionStatus::Active);
        assert!(core.registry.try_suspend(p.slot));
        assert!(core.registry.try_evict(p.slot));
        assert!(p.is_evicted(&core));
        assert_eq!(p.try_begin_op(&core), Entry::Evicted);
        assert_eq!(p.refresh(&core, |_, _| {}), Refreshed::Evicted);
    }

    #[test]
    fn detach_deposits_points_and_frees_the_slot() {
        let (core, epoch) = setup();
        let mut p = Participant::attach(&core, &epoch, 9, 0, None);
        p.serial = 2;
        p.publish_serial(&core);
        core.state.store(Phase::InProgress, 1);
        p.refresh(&core, |_, _| {});
        p.serial = 5;
        p.detach(&core);
        assert_eq!(core.registry.active(), 0);
        assert_eq!(core.detached.points_for(1), vec![(9, 2)]);
        assert_eq!(core.detached.points_for(2), vec![(9, 5)]);
        assert_eq!(core.resume_serial(9), 5);
    }

    #[test]
    fn internal_sessions_report_no_points() {
        let (core, epoch) = setup();
        let p = Participant::attach(&core, &epoch, crate::INTERNAL_SESSION, 0, None);
        let q = Participant::attach(&core, &epoch, 4, 0, None);
        let guids = |v| -> Vec<u64> { core.session_points(v).iter().map(|s| s.guid).collect() };
        assert_eq!(guids(1), vec![4]);
        p.detach(&core);
        q.detach(&core);
        assert_eq!(guids(1), vec![4]);
        assert_eq!(core.resume_serial(crate::INTERNAL_SESSION), 0);
        assert_eq!(core.registry.active(), 0);
    }
}
