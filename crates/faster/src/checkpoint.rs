//! The wait-flush work of a CPR commit, and fuzzy index checkpoints
//! (paper Secs. 6.2.4, 6.3).
//!
//! Runs on a dedicated checkpoint thread so user sessions never block:
//! they keep processing version-`v + 1` requests while the version-`v`
//! state is written out.
//!
//! After a commit is published, the checkpoints it superseded are
//! deleted (see `drop_superseded`), so the checkpoint directory holds
//! what recovery can use, not one directory per commit ever made.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cpr_core::{CheckpointKind, CheckpointManifest, Phase, Pod, SessionCpr};

use crate::store::{mark_phase, CheckpointVariant, StoreInner};

/// Complete the commit of version `v`: capture the volatile log (and
/// optionally the index), persist the manifest, and return to `rest` at
/// `v + 1`.
///
/// Any I/O failure (including injected faults) aborts the checkpoint
/// instead of panicking: the uncommitted directory is discarded, no
/// manifest is written, `committed_version` stays put, and the state
/// machine still returns to `rest` at `v + 1` so sessions proceed and a
/// later checkpoint can succeed.
pub(crate) fn run_wait_flush<V: Pod>(inner: &Arc<StoreInner<V>>, v: u64) {
    let ctx = inner.ckpt.lock().take().expect("checkpoint context set");
    let token = ctx.token;
    let started = ctx.started;
    let mut marks = ctx.phase_marks.clone();

    let committed = try_wait_flush(inner, v, ctx);
    if committed.is_none() {
        // Failed attempt: remove the partial checkpoint (no-op if the
        // fault was a simulated crash — the torn state must survive for
        // recovery) and count the failure so callers can observe it.
        let _ = inner.store.abort(token);
        inner.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
    }

    // Back to rest at v + 1 either way; only success publishes v.
    marks.push((Phase::Rest, started.elapsed()));
    *inner.last_phase_marks.lock() = marks;
    let ok = inner
        .state
        .transition((Phase::WaitFlush, v), (Phase::Rest, v + 1));
    debug_assert!(ok, "state machine out of sync at commit completion");
    let _ = mark_phase::<V>; // (phase marks already pushed above)
    if inner.metrics_on {
        let out = inner.outcome.lock();
        inner.metrics.checkpoints.end(
            v,
            committed.is_some(),
            out.attempts as u64,
            out.proxy_advanced.len() as u64,
            out.evicted.len() as u64,
        );
    }
    if let Some(manifest) = &committed {
        // The manifest's points are now the durable baseline; detached
        // entries it subsumes can be dropped.
        {
            let mut durable = inner.durable_points.lock();
            for s in &manifest.sessions {
                let e = durable.entry(s.guid).or_insert(0);
                *e = (*e).max(s.cpr_point);
            }
        }
        inner.detached.prune_committed(v);
        // Observers run before the version is published, so a caller that
        // sees `committed_version() >= v` knows they have seen `v`.
        for cb in inner.commit_callbacks.lock().iter() {
            cb(v, &manifest.sessions);
        }
        inner.committed_version.store(v, Ordering::Release);
    }
    {
        let _g = inner.commit_lock.lock();
        inner.commit_cv.notify_all();
    }
    if let Some(manifest) = committed {
        drop_superseded(inner, &manifest);
    }
}

/// Delete the checkpoints that commit `m` superseded. Recovery reads only
/// the newest log checkpoint and the newest index checkpoint at or before
/// it (`recovery::recover`), so every older directory goes except that
/// index checkpoint. Best effort: a failure leaves the directories for
/// the next commit's pass, and a crash mid-delete leaves a directory
/// without its manifest, which recovery ignores.
fn drop_superseded<V: Pod>(inner: &StoreInner<V>, m: &CheckpointManifest) {
    let keep = if m.index_begin.is_some() {
        None
    } else {
        match inner
            .store
            .latest_matching(|o| o.token < m.token && o.index_begin.is_some())
        {
            Ok(found) => found.map(|o| o.token),
            // Not knowing which index recovery needs, delete nothing.
            Err(_) => return,
        }
    };
    let _ = inner.store.remove_older(m.token, keep.as_slice());
}

/// The fallible body of the wait-flush phase. Returns the committed
/// manifest, or `None` if any step failed (checkpoint must abort).
fn try_wait_flush<V: Pod>(
    inner: &Arc<StoreInner<V>>,
    v: u64,
    ctx: crate::store::CkptCtx,
) -> Option<CheckpointManifest> {
    let hl = &inner.hlog;

    // Fuzzy index checkpoint first (full commits only), so that every
    // address the dumped index references is ≤ L_ie ≤ L_he and therefore
    // durable once the log flush below completes (see DESIGN.md).
    let (mut lis, mut lie) = (None, None);
    if !ctx.log_only {
        lis = Some(hl.tail());
        let dump = inner.index.dump();
        inner.store.write_file(ctx.token, "index.dat", &dump).ok()?;
        lie = Some(hl.tail());
    }

    let lhe = ctx.fold_end.unwrap_or_else(|| hl.tail());
    let flush_t0 = inner.metrics_on.then(std::time::Instant::now);
    let mut snapshot_start = None;
    match ctx.variant {
        CheckpointVariant::FoldOver => {
            // Advance the read-only offset to the tail: every version-v
            // record becomes immutable and is flushed to the main log
            // (chunked across the device's writer queues).
            hl.shift_read_only_to(lhe);
            hl.wait_flushed(lhe).ok()?;
        }
        CheckpointVariant::Snapshot => {
            // Capture the volatile region into a separate file; offsets
            // (and in-place updatability) are untouched.
            let start = hl.flushed_durable();
            let bytes = hl.read_range(start, lhe).ok()?;
            inner
                .store
                .write_file(ctx.token, "snapshot.dat", &bytes)
                .ok()?;
            snapshot_start = Some(start);
        }
    }
    hl.device().sync().ok()?;
    if let Some(t0) = flush_t0 {
        let name = match ctx.variant {
            CheckpointVariant::FoldOver => "flush.fold-over",
            CheckpointVariant::Snapshot => "flush.snapshot",
        };
        inner
            .metrics
            .record_phase(name, inner.write_queues, t0.elapsed());
    }

    let kind = match ctx.variant {
        CheckpointVariant::FoldOver => CheckpointKind::FoldOver,
        CheckpointVariant::Snapshot => CheckpointKind::Snapshot,
    };
    let mut manifest = CheckpointManifest::new(ctx.token, kind, v);
    manifest.log_begin = Some(ctx.lhs);
    manifest.log_end = Some(lhe);
    manifest.index_begin = lis;
    manifest.index_end = lie;
    manifest.snapshot_start = snapshot_start;
    manifest.sessions = session_points(inner, v);
    inner.store.commit(&manifest).ok()?;
    Some(manifest)
}

/// Per-session commit points for the manifest of version `v`: the newest
/// durable points carried forward, detached sessions' deposited points,
/// and the live registry snapshot, merged by max. Serials only grow per
/// guid, so max picks the newest claim each source can justify (and a
/// session that re-attached mid-checkpoint — registry point still 0 —
/// keeps the point it deposited when it detached).
pub(crate) fn session_points<V: Pod>(inner: &Arc<StoreInner<V>>, v: u64) -> Vec<SessionCpr> {
    let mut points: HashMap<u64, u64> = inner.durable_points.lock().clone();
    for (guid, p) in inner
        .detached
        .points_for(v)
        .into_iter()
        .chain(inner.registry.cpr_points())
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

/// Standalone fuzzy index checkpoint (paper Sec. 6.3): the index is
/// physically consistent at all times, so a dump of atomically read words
/// suffices; recovery replays the log suffix `[L_is, …)` over it.
pub(crate) fn index_checkpoint<V: Pod>(inner: &Arc<StoreInner<V>>) -> io::Result<u64> {
    let token = inner.store.begin()?;
    let result = (|| {
        let lis = inner.hlog.tail();
        let dump = inner.index.dump();
        inner.store.write_file(token, "index.dat", &dump)?;
        let lie = inner.hlog.tail();
        let mut manifest =
            CheckpointManifest::new(token, CheckpointKind::Index, inner.state.version());
        manifest.index_begin = Some(lis);
        manifest.index_end = Some(lie);
        inner.store.commit(&manifest)?;
        Ok(token)
    })();
    if result.is_err() {
        let _ = inner.store.abort(token);
        inner.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
    }
    result
}
