//! Session liveness watchdog for the FASTER store (the memdb twin lives
//! in `cpr-memdb`; the decision table is shared, the remedies differ).
//!
//! A CPR commit advances only when every registered session has refreshed
//! into the current phase *and* — at wait-pending — every pre-point
//! pending operation has completed, so one parked client thread wedges
//! the checkpoint forever. While a commit is in flight this thread scans
//! session leases and acts on stragglers whose heartbeat has gone stale
//! for longer than the grace period:
//!
//! | straggler is…                   | action                             |
//! |---------------------------------|------------------------------------|
//! | idle, no pending ops            | proxy-advance: publish its phase   |
//! |                                 | state (and CPR point) on its behalf|
//! | idle with pending ops, or       | evict: cancel its pendings via the |
//! | parked inside an operation      | offline registry (release latches  |
//! |                                 | and guards, decrement the pending  |
//! |                                 | gate) and roll its CPR point below |
//! |                                 | the earliest cancelled claimed op  |
//! | inside an exclusive-latch       | abort the checkpoint, back off,    |
//! | hand-off window (`Locking`)     | retry (bounded by `max_attempts`)  |
//!
//! **Two-scan rule.** A stale session is first *suspended* (scan N) and
//! only acted upon at a later scan if its lease is still stale.
//!
//! **CPR-point rollback.** FASTER serials bump at *acceptance*, before
//! the op runs, so a session's serial (and a crossed session's marked
//! point) may claim operations that only exist as pending entries.
//! Cancelling those entries makes the claim a lie; the point is therefore
//! rolled back below the earliest cancelled serial it covered. Completed
//! operations between the rolled-back point and the old point stay
//! applied but unclaimed — recovery under-reports the dead session's
//! prefix rather than fabricating unapplied operations (see DESIGN.md).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use cpr_core::liveness::{BusyState, LivenessConfig, SessionStatus};
use cpr_core::{Phase, Pod};

use crate::store::{start_checkpoint, CheckpointVariant, OfflineGuard, StoreInner};

pub(crate) fn run<V: Pod>(weak: Weak<StoreInner<V>>, cfg: LivenessConfig) {
    let mut rng = cfg.seed | 1;
    // Clock tick at which an abort's scheduled retry may be issued, and
    // the (variant, log_only) shape of the attempt being retried.
    let mut retry_at: Option<u64> = None;
    let mut retry_req: Option<(CheckpointVariant, bool)> = None;
    loop {
        std::thread::sleep(cfg.poll_interval);
        let Some(db) = weak.upgrade() else { return };
        scan(&db, &cfg, &mut rng, &mut retry_at, &mut retry_req);
    }
}

fn scan<V: Pod>(
    db: &Arc<StoreInner<V>>,
    cfg: &LivenessConfig,
    rng: &mut u64,
    retry_at: &mut Option<u64>,
    retry_req: &mut Option<(CheckpointVariant, bool)>,
) {
    let now = cfg.clock.now();
    let (phase, v) = db.state.load();

    if phase == Phase::Rest {
        if let (Some(at), Some((variant, log_only))) = (*retry_at, *retry_req) {
            if now >= at {
                *retry_at = None;
                if start_checkpoint(db, variant, log_only) {
                    db.outcome.lock().attempts += 1;
                }
            }
        }
        return;
    }

    // A commit is in flight: nudge the drain list and examine leases.
    db.epoch.try_drain();

    let reg = &db.registry;
    let blockers: Vec<usize> = if matches!(
        phase,
        Phase::Prepare | Phase::InProgress | Phase::WaitPending
    ) {
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
                // the straggler's epoch slot so drain triggers can fire.
                if let Some(slot) = reg.epoch_slot(idx) {
                    db.epoch.release_stale(slot);
                }
                let is_blocker = blockers.contains(&idx);
                let has_pendings = db
                    .offline_pending
                    .lock()
                    .get(&idx)
                    .is_some_and(|gs| !gs.is_empty());
                match reg.busy(idx) {
                    BusyState::Idle if is_blocker && !has_pendings => {
                        proxy_advance(db, idx, guid, v)
                    }
                    BusyState::Idle if has_pendings => evict(db, idx, guid, v),
                    BusyState::InTxn if is_blocker || has_pendings => evict(db, idx, guid, v),
                    BusyState::Locking => {
                        // Stalled under an exclusive hand-off latch: no
                        // per-session remedy is safe — time the whole
                        // checkpoint out.
                        abort_wanted = true;
                    }
                    _ => {}
                }
            }
        }
    }

    if abort_wanted {
        abort_checkpoint(db, cfg, rng, retry_at, retry_req, phase, v, now);
    }
    db.epoch.try_drain();
}

/// Publish phase state on behalf of an idle, suspended straggler with no
/// outstanding pendings. The Suspended → Proxying CAS is the publish
/// lock: the owner cannot reactivate until `end_proxy`, so the state and
/// CPR point published here cannot be stale by the time they land.
fn proxy_advance<V: Pod>(db: &Arc<StoreInner<V>>, idx: usize, guid: u64, v: u64) {
    let reg = &db.registry;
    if !reg.try_begin_proxy(idx) {
        return; // owner resumed (or another decision won) meanwhile
    }
    let (phase, cur_v) = db.state.load();
    if cur_v == v
        && matches!(
            phase,
            Phase::Prepare | Phase::InProgress | Phase::WaitPending
        )
    {
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

/// Evict a dead session: cancel its pending operations (releasing the
/// shared latches, key guards, and pending-gate counts they hold) and
/// roll its CPR point below the earliest cancelled serial it claimed.
fn evict<V: Pod>(db: &Arc<StoreInner<V>>, idx: usize, guid: u64, v: u64) {
    let reg = &db.registry;
    if !reg.try_evict(idx) {
        return;
    }
    // Base claim: a crossed session keeps its marked point; a blocker has
    // not crossed, so its last *accepted* serial is the starting claim.
    let (ps, vs) = reg.view(idx);
    let crossed = vs > v || (vs == v && ps >= Phase::InProgress);
    let base = if crossed {
        reg.cpr_point(idx)
    } else {
        reg.serial(idx)
    };
    let cancelled = cancel_pendings(db, idx);
    let mut point = base;
    for g in &cancelled {
        if g.serial <= point {
            point = point.min(g.serial.saturating_sub(1));
        }
    }
    reg.set_cpr_point(idx, point);
    db.outcome.lock().evicted.push(guid);
}

/// Remove and release every offline-pending entry of a session slot. The
/// map entry is the ownership token: the owner's `finish_pending` finds
/// it gone and releases nothing, so no protection is dropped twice.
fn cancel_pendings<V: Pod>(db: &Arc<StoreInner<V>>, idx: usize) -> Vec<OfflineGuard> {
    let entries = db.offline_pending.lock().remove(&idx).unwrap_or_default();
    for g in &entries {
        if let Some(b) = g.latch {
            db.latches[b].release_shared();
        }
        if let Some(k) = g.guarded_key {
            db.pending_v_keys.lock().remove(&k);
        }
        db.pending_count[(g.tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
    }
    entries
}

/// Time the in-flight checkpoint out: return the state machine to rest
/// at `v + 1`, abort the store token, and schedule a backed-off retry.
/// Wait-flush is never aborted — the checkpoint thread owns that exit and
/// its work is I/O-bound, not straggler-bound.
#[allow(clippy::too_many_arguments)]
fn abort_checkpoint<V: Pod>(
    db: &Arc<StoreInner<V>>,
    cfg: &LivenessConfig,
    rng: &mut u64,
    retry_at: &mut Option<u64>,
    retry_req: &mut Option<(CheckpointVariant, bool)>,
    phase: Phase,
    v: u64,
    now: u64,
) {
    let aborted = match phase {
        Phase::Prepare | Phase::InProgress | Phase::WaitPending => {
            db.state.transition((phase, v), (Phase::Rest, v + 1))
        }
        _ => false,
    };
    if !aborted {
        return;
    }
    if let Some(ctx) = db.ckpt.lock().take() {
        let _ = db.store.abort(ctx.token);
        *retry_req = Some((ctx.variant, ctx.log_only));
        db.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
    }
    let mut out = db.outcome.lock();
    out.aborted += 1;
    if db.metrics_on {
        // The wait-flush worker never runs for this attempt, so the
        // tracer's timeline must be finalized here.
        db.metrics.checkpoints.end(
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
