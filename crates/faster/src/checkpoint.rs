//! The wait-flush work of a CPR commit, and fuzzy index checkpoints
//! (paper Secs. 6.2.4, 6.3).
//!
//! Runs on a dedicated checkpoint thread so user sessions never block:
//! they keep processing version-`v + 1` requests while the version-`v`
//! state is written out.
//!
//! After a commit is published, the checkpoints it superseded are
//! deleted (see `drop_superseded`), so the checkpoint directory holds
//! what recovery can use, not one directory per commit ever made. Every
//! manifest carries the log's begin address; a commit that publishes a
//! compaction pass's new begin truncates the log once it is durable.

use std::io;
use std::sync::Arc;

use cpr_core::commit::finish_flush;
use cpr_core::{CheckpointKind, CheckpointManifest, Phase, Pod};

use crate::store::{CheckpointVariant, StoreInner};

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
    match &committed {
        Some(m) => {
            inner
                .compactor
                .committed(v, m.log_end.expect("log commit has log_end"));
            let begin = m.begin_address.expect("log commit has begin_address");
            if begin > inner.hlog.begin_address() {
                // Durable now: the begin moves before the commit is
                // reported.
                inner.hlog.truncate(begin);
                inner.compactor.published(begin);
            }
        }
        // Failed attempt: remove the partial checkpoint (no-op if the
        // fault was a simulated crash — the torn state must survive for
        // recovery).
        None => {
            let _ = inner.store.abort(token);
        }
    }
    marks.push((Phase::Rest, started.elapsed()));
    *inner.last_phase_marks.lock() = marks;
    finish_flush(&**inner, v, committed.as_ref());
    if let Some(manifest) = committed {
        // Off the commit's path: unlinking a segment takes milliseconds.
        // A failed unlink is retried by the next commit (or recovery).
        let _ = inner.hlog.unlink_below_begin();
        drop_superseded(inner, &manifest);
        inner.core.wake_background();
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
        write_index(inner, ctx.token).ok()?;
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
            let mut bytes = Vec::new();
            hl.read_log_into(start, lhe, &mut bytes).ok()?;
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
            .record_phase(name, inner.io_threads, t0.elapsed());
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
    // A finished compaction pass's begin, if this commit began after it.
    manifest.begin_address = Some(
        inner
            .compactor
            .publishable(v)
            .unwrap_or_else(|| hl.begin_address()),
    );
    manifest.sessions = inner.core.session_points(v);
    inner.store.commit(&manifest).ok()?;
    Some(manifest)
}

/// Standalone fuzzy index checkpoint (paper Sec. 6.3): the index is
/// physically consistent at all times, so a dump of atomically read words
/// suffices; recovery replays the log suffix `[L_is, …)` over it.
pub(crate) fn index_checkpoint<V: Pod>(inner: &Arc<StoreInner<V>>) -> io::Result<u64> {
    let token = inner.store.begin()?;
    let result = (|| {
        let lis = inner.hlog.tail();
        write_index(inner, token)?;
        let lie = inner.hlog.tail();
        let mut manifest =
            CheckpointManifest::new(token, CheckpointKind::Index, inner.core.state.version());
        manifest.index_begin = Some(lis);
        manifest.index_end = Some(lie);
        inner.store.commit(&manifest)?;
        Ok(token)
    })();
    if result.is_err() {
        let _ = inner.store.abort(token);
        inner.core.note_failure();
    }
    result
}

/// Dump the index into the store's reused buffer and write it as
/// `index.dat` of checkpoint `token`.
fn write_index<V: Pod>(inner: &StoreInner<V>, token: u64) -> io::Result<()> {
    let mut buf = inner.index_buf.lock();
    inner.index.dump_into(&mut buf);
    inner.store.write_file(token, "index.dat", &buf)
}
