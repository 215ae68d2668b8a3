//! The session liveness watchdog (paper Sec. 3's "all threads must
//! participate" assumption, made safe against threads that don't).
//!
//! CPR's group commit advances only when every registered session has
//! refreshed into the current phase, so one preempted, parked, or dead
//! client thread wedges the checkpoint forever. While a commit is in
//! flight, this thread scans session leases and acts on stragglers whose
//! heartbeat has gone stale for longer than the grace period:
//!
//! | straggler is…                  | action                              |
//! |--------------------------------|-------------------------------------|
//! | idle between transactions      | proxy-advance: publish its phase    |
//! |                                | state (and CPR point) on its behalf |
//! | parked inside a transaction,   | evict: the session dies, its        |
//! | before acquiring locks         | committed prefix stays exact        |
//! | holding 2PL locks              | abort the checkpoint, back off,     |
//! |                                | retry (bounded by `max_attempts`)   |
//!
//! **Two-scan rule.** A stale session is first *suspended* (scan N) and
//! only acted upon at a later scan if its lease is still stale — a session
//! merely observed mid-transition gets a full poll interval to show life.
//!
//! **Why eviction is only safe pre-lock.** The owner publishes its busy
//! state with sequentially consistent stores and re-checks its status
//! (also SeqCst) *after* acquiring locks and *before* applying any write
//! (`client.rs`). If this watchdog evicts while `busy == InTxn`, the
//! owner's next status check — which precedes its first write — observes
//! the eviction and abandons the transaction, so an evicted session can
//! never grow the database past its published CPR point. A session seen
//! `Locking` may already be past that check, mid-apply; the only safe
//! remedy is timing the whole checkpoint out.
//!
//! Every scan also releases the epoch-table slots of stale sessions
//! ([`cpr_epoch::EpochManager::release_stale`]): a parked thread pins the
//! safe epoch, which blocks the drain-list triggers that drive the phase
//! transitions even when no session blocks the phase logically.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use cpr_core::liveness::{BusyState, LivenessConfig, SessionStatus};
use cpr_core::Phase;

use crate::db::{start_commit, DbInner};
use crate::value::DbValue;

pub(crate) fn run<V: DbValue>(weak: Weak<DbInner<V>>, cfg: LivenessConfig) {
    let mut rng = cfg.seed | 1;
    // Clock tick at which an abort's scheduled retry may be issued.
    let mut retry_at: Option<u64> = None;
    loop {
        std::thread::sleep(cfg.poll_interval);
        let Some(db) = weak.upgrade() else { return };
        scan(&db, &cfg, &mut rng, &mut retry_at);
    }
}

fn scan<V: DbValue>(
    db: &Arc<DbInner<V>>,
    cfg: &LivenessConfig,
    rng: &mut u64,
    retry_at: &mut Option<u64>,
) {
    let now = cfg.clock.now();
    let (phase, v) = db.state.load();

    if phase == Phase::Rest {
        if let Some(at) = *retry_at {
            if now >= at {
                *retry_at = None;
                if start_commit(db) {
                    db.outcome.lock().attempts += 1;
                }
            }
        }
        return;
    }

    // A commit is in flight: nudge the drain list and examine leases.
    db.epoch.try_drain();

    let reg = &db.registry;
    let blockers: Vec<usize> = if matches!(phase, Phase::Prepare | Phase::InProgress) {
        reg.blockers(phase, v).into_iter().map(|(i, _)| i).collect()
    } else {
        Vec::new()
    };

    let mut abort_wanted = false;
    for idx in 0..reg.capacity() {
        let Some(guid) = reg.guid(idx) else { continue };
        if now.saturating_sub(reg.last_heartbeat(idx)) <= cfg.grace_ticks {
            continue; // lease is fresh
        }
        match reg.status(idx) {
            SessionStatus::Active => {
                // Scan N: suspend only (two-scan rule).
                reg.try_suspend(idx);
            }
            SessionStatus::Evicted | SessionStatus::Proxying => {}
            SessionStatus::Suspended => {
                // Scan N+1: still stale — act. Whatever we decide, unpin
                // the straggler's epoch slot so triggers can fire.
                if let Some(slot) = reg.epoch_slot(idx) {
                    db.epoch.release_stale(slot);
                }
                let is_blocker = blockers.contains(&idx);
                match reg.busy(idx) {
                    BusyState::Idle if is_blocker => proxy_advance(db, idx, guid, v),
                    BusyState::InTxn if is_blocker && reg.try_evict(idx) => {
                        // Claim exactly the straggler's completed
                        // transactions: its serial bumps only on
                        // success, and — being a blocker — it has not
                        // crossed into in-progress, so every completed
                        // operation is a version-v (or older) write
                        // that the capture will persist.
                        reg.set_cpr_point(idx, reg.serial(idx));
                        db.outcome.lock().evicted.push(guid);
                    }
                    BusyState::Locking => {
                        // Stalled while holding locks: no per-session
                        // remedy is safe — time the checkpoint out.
                        abort_wanted = true;
                    }
                    _ => {}
                }
            }
        }
    }

    if abort_wanted {
        abort_checkpoint(db, cfg, rng, retry_at, phase, v, now);
    }
    db.epoch.try_drain();
}

/// Publish phase state on behalf of an idle, suspended straggler. The
/// Suspended → Proxying CAS is the publish lock: the owner cannot
/// reactivate (and thus cannot run transactions or re-publish) until
/// `end_proxy`, so the state and CPR point we publish cannot be stale by
/// the time they land.
fn proxy_advance<V: DbValue>(db: &Arc<DbInner<V>>, idx: usize, guid: u64, v: u64) {
    let reg = &db.registry;
    if !reg.try_begin_proxy(idx) {
        return; // owner resumed (or another decision won) meanwhile
    }
    // Re-sample everything under the proxy lock.
    let (phase, cur_v) = db.state.load();
    if cur_v == v && matches!(phase, Phase::Prepare | Phase::InProgress) {
        let (ps, vs) = reg.view(idx);
        let reached = vs > v || (vs == v && ps >= phase);
        if !reached {
            // Mark the CPR point iff this publish crosses the session
            // over prepare → in-progress for version v.
            let mark = phase >= Phase::InProgress && (vs < v || ps <= Phase::Prepare);
            reg.proxy_advance(idx, phase, v, mark);
            let mut out = db.outcome.lock();
            if !out.proxy_advanced.contains(&guid) {
                out.proxy_advanced.push(guid);
            }
        }
    }
    reg.end_proxy(idx);
}

/// Time the in-flight checkpoint out: return the state machine to rest at
/// `v + 1` (directly, or via the capture thread's abort path when the
/// capture owns the transition) and schedule a backed-off retry.
fn abort_checkpoint<V: DbValue>(
    db: &Arc<DbInner<V>>,
    cfg: &LivenessConfig,
    rng: &mut u64,
    retry_at: &mut Option<u64>,
    phase: Phase,
    v: u64,
    now: u64,
) {
    let aborted = match phase {
        Phase::Prepare | Phase::InProgress => db.state.transition((phase, v), (Phase::Rest, v + 1)),
        // The capture thread owns the WaitFlush → Rest transition: request
        // an abort and let its failure path complete it. `swap` keeps a
        // still-pending request from being counted twice.
        Phase::WaitFlush => !db.capture_abort.swap(true, Ordering::AcqRel),
        _ => false,
    };
    if !aborted {
        return;
    }
    let mut out = db.outcome.lock();
    out.aborted += 1;
    if matches!(phase, Phase::Prepare | Phase::InProgress) && db.opts.metrics.is_enabled() {
        // The capture thread never runs for this attempt, so close the
        // tracer's timeline here (WaitFlush aborts end via the capture
        // thread's failure path).
        db.opts.metrics.checkpoints.end(
            v,
            false,
            out.attempts as u64,
            out.proxy_advanced.len() as u64,
            out.evicted.len() as u64,
        );
    }
    if out.attempts >= cfg.max_attempts {
        out.gave_up = true;
        *retry_at = None;
    } else {
        *retry_at = Some(now + cfg.backoff_ticks(out.attempts, rng));
    }
    drop(out);
    db.commit_cv.notify_all();
}
