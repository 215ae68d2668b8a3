//! Checkpoint capture, load, and WAL replay.
//!
//! Capture implements the wait-flush pass of paper Alg. 2: for every
//! record that existed in version `v`, persist its version-`v` value —
//! `stable` if the record has already been shifted to `v + 1` by a
//! concurrent post-CPR-point transaction, `live` otherwise. The pass runs
//! on a background thread while version-`v + 1` transactions execute.
//!
//! File format (`db.dat`): `[count u64][(key u64, flags u64, value)*]`,
//! little endian, values `size_of::<V>()` bytes each. Flags bit 0 marks a
//! tombstone (full checkpoints omit dead records; deltas persist the
//! tombstone so it overrides the base chain).
//!
//! Any I/O failure during capture — including injected faults — aborts
//! the checkpoint instead of panicking: the uncommitted directory is
//! discarded, no manifest is written, `committed_version` stays put, and
//! sessions return to `rest` at `v + 1` so a later commit can succeed.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;

use cpr_core::commit::finish_flush;
use cpr_core::{CheckpointKind, CheckpointManifest};
use cpr_storage::{fan_out, CheckpointStore};

use crate::db::DbInner;
use crate::error::RecoveryError;
use crate::value::DbValue;

const FLAG_TOMBSTONE: u64 = 1;

/// Longest incremental chain (a full checkpoint plus its deltas) before
/// the next capture is full again.
pub(crate) const MAX_CHAIN_LEN: usize = 8;

/// Capture version `v` and complete the commit (runs on the capture
/// worker thread).
pub(crate) fn capture<V: DbValue>(inner: &DbInner<V>, v: u64) {
    let started = std::time::Instant::now();
    // Drop any abort request left over from a race with the previous
    // capture's completion; the watchdog re-raises if it still wants one.
    inner.capture_abort.store(false, Ordering::Release);
    let committed = try_capture(inner, v);
    // Only success moves the delta base and publishes the version.
    if let Some(manifest) = &committed {
        let mut chain = inner.checkpoint_chain.lock();
        if manifest.base.is_none() {
            chain.clear();
        }
        chain.insert(0, manifest.token);
        *inner.last_capture.lock() = Some(started.elapsed());
    }
    finish_flush(inner, v, committed.as_ref());
    if let Some(manifest) = committed {
        drop_superseded(inner, manifest.token);
    }
}

/// Delete the checkpoints that commit `token` superseded: recovery reads
/// only the newest Database checkpoint and its delta base chain, so every
/// older directory outside that chain goes. Best effort: a failure
/// leaves the directories for the next commit's pass, and a crash
/// mid-delete leaves a directory without its manifest, which recovery
/// ignores.
fn drop_superseded<V: DbValue>(inner: &DbInner<V>, token: u64) {
    let store = inner.store.as_ref().expect("capture requires a store");
    let keep = inner.checkpoint_chain.lock().clone();
    let _ = store.remove_older(token, &keep);
}

/// The fallible body of capture. Returns the committed manifest, or
/// `None` if any I/O step failed (the partial checkpoint is aborted).
fn try_capture<V: DbValue>(inner: &DbInner<V>, v: u64) -> Option<CheckpointManifest> {
    let store = inner.store.as_ref().expect("capture requires a store");
    let token = store.begin().ok()?;
    // Delta checkpoints capture only records whose version-v image was
    // produced by a version-v write; everything else is already covered
    // by the base chain. The first commit is always full, and so is the
    // one after a chain of `MAX_CHAIN_LEN` checkpoints: retention can
    // then drop the old chain, and recovery reads a bounded one.
    let base = if inner.opts.incremental {
        let chain = inner.checkpoint_chain.lock();
        chain
            .first()
            .copied()
            .filter(|_| chain.len() < MAX_CHAIN_LEN)
    } else {
        None
    };

    let t0 = inner
        .opts
        .metrics
        .is_enabled()
        .then(std::time::Instant::now);
    let shards = serialize(inner, v, base, inner.opts.io_threads).ok();
    let Some(shards) = shards.filter(|_| !inner.capture_abort.swap(false, Ordering::AcqRel)) else {
        let _ = store.abort(token);
        return None;
    };
    let count: u64 = shards.iter().map(|s| s.count).sum();
    if let Some(t0) = t0 {
        inner
            .opts
            .metrics
            .record_phase("capture.serialize", shards.len(), t0.elapsed());
    }

    let header = count.to_le_bytes();
    let parts: Vec<&[u8]> = std::iter::once(&header[..])
        .chain(shards.iter().map(|s| &s.bytes[..]))
        .collect();
    let mut manifest = CheckpointManifest::new(token, CheckpointKind::Database, v);
    manifest.records = Some(count);
    manifest.base = base;
    manifest.sessions = inner.core.session_points(v);
    let result = store
        .write_file_parts(token, "db.dat", &parts)
        .and_then(|()| store.commit(&manifest));
    if result.is_err() {
        // No-op after a simulated crash: the frozen (possibly torn) state
        // is exactly what recovery must cope with.
        let _ = store.abort(token);
        return None;
    }
    Some(manifest)
}

/// One capture worker's share of `db.dat`: serialized record entries and
/// their count.
struct Shard {
    bytes: Vec<u8>,
    count: u64,
}

/// Serialize the version-`v` images across up to `threads` workers, each
/// taking one contiguous slot range. The shards, written in order after
/// the count, are the record entries of `db.dat` in slot order, so the
/// checkpoint bytes are identical at any thread count. An `Interrupted`
/// error if the watchdog aborted the pass.
fn serialize<V: DbValue>(
    inner: &DbInner<V>,
    v: u64,
    base: Option<u64>,
    threads: usize,
) -> io::Result<Vec<Shard>> {
    let slots = inner.table.slot_count();
    fan_out(threads, slots, |w, n| {
        capture_shard(inner, v, base, slots * w / n..slots * (w + 1) / n)
    })
}

/// Serialize the version-`v` images of the records in slots `range`
/// into a buffer sized for every slot in it. An `Interrupted` error if
/// the watchdog aborted the pass.
fn capture_shard<V: DbValue>(
    inner: &DbInner<V>,
    v: u64,
    base: Option<u64>,
    range: std::ops::Range<usize>,
) -> io::Result<Shard> {
    let mut bytes: Vec<u8> = Vec::with_capacity(range.len() * (16 + std::mem::size_of::<V>()));
    let mut count = 0u64;
    let mut aborted = false;
    inner.table.for_each_in_slots(range, |key, rec| {
        if aborted {
            return;
        }
        // Spin for a shared latch; lock holders are try-lock based, so
        // this cannot deadlock — but a *parked* lock holder stalls it
        // indefinitely, which is why the watchdog can abort the pass.
        loop {
            if rec.lock.try_shared() {
                break;
            }
            if inner.capture_abort.load(Ordering::Acquire) {
                aborted = true;
                return;
            }
            std::hint::spin_loop();
        }
        let birth = rec.birth();
        if birth == 0 || birth > v {
            // Never written, or born after the commit point: not part of
            // version v.
            rec.lock.release_shared();
            return;
        }
        let (value, image_version, dead) = if rec.version() == v + 1 {
            (rec.read_stable(), rec.stable_modified(), rec.stable_dead())
        } else {
            (rec.read_live(), rec.modified(), rec.is_dead())
        };
        rec.lock.release_shared();
        if base.is_some() && image_version != v {
            // Unchanged during cycle v: covered by the base chain.
            return;
        }
        if dead && base.is_none() {
            // Full checkpoint: deleted records are simply absent.
            return;
        }
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&if dead { FLAG_TOMBSTONE } else { 0 }.to_le_bytes());
        cpr_core::pod_write(&value, &mut bytes);
        count += 1;
    });
    if aborted {
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "capture aborted",
        ));
    }
    Ok(Shard { bytes, count })
}

/// Load a checkpoint produced by [`capture`] into a fresh database.
///
/// The record entries are split across the I/O threads: every
/// key appears at most once per checkpoint file, so workers touch
/// disjoint records and the result is independent of thread count. A
/// record found locked surfaces as [`RecoveryError::RecordLocked`]
/// instead of a panic — recovery must be the table's only writer.
///
/// The first file of a recovery goes into an empty table. Its entries
/// then take one block of slots in file order, and each record is
/// published without a lookup or a lock: the table's layout, and so the
/// next checkpoint's bytes, do not depend on the thread count either.
pub(crate) fn load<V: DbValue>(
    inner: &DbInner<V>,
    store: &CheckpointStore,
    manifest: &CheckpointManifest,
) -> io::Result<()> {
    let data = store.read_file(manifest.token, "db.dat")?;
    let rec_size = 16 + std::mem::size_of::<V>();
    if data.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint truncated",
        ));
    }
    let count = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
    let needed = count.checked_mul(rec_size).and_then(|n| n.checked_add(8));
    if needed.is_none_or(|n| data.len() < n) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint expects {count} records, file too short"),
        ));
    }

    let block = inner
        .table
        .is_empty()
        .then(|| inner.table.claim_block(count));
    let load_range = |lo: usize, hi: usize| -> io::Result<()> {
        let mut off = 8 + lo * rec_size;
        for i in lo..hi {
            let key = u64::from_le_bytes(data[off..off + 8].try_into().unwrap());
            let flags = u64::from_le_bytes(data[off + 8..off + 16].try_into().unwrap());
            let value: V = cpr_core::pod_read(&data[off + 16..off + rec_size]);
            let dead = flags & FLAG_TOMBSTONE != 0;
            off += rec_size;
            if let Some(first) = block {
                // SAFETY: the table was empty when the block was claimed,
                // each worker fills only its own entries' slots, and a
                // checkpoint file holds each key at most once.
                unsafe {
                    inner
                        .table
                        .publish_unique(first + i, key, manifest.version, value, dead)
                };
                continue;
            }
            // Delta chains re-load keys: later (newer) checkpoints
            // overwrite.
            let (rec, _inserted) = inner.table.get_or_insert(key, manifest.version, value);
            if !rec.lock.try_exclusive() {
                return Err(RecoveryError::RecordLocked { key }.into());
            }
            rec.write_live(value);
            rec.set_dead(dead);
            rec.set_birth_if_unset(manifest.version);
            rec.set_modified(manifest.version);
            rec.set_version(manifest.version);
            rec.lock.release_exclusive();
        }
        Ok(())
    };

    let t0 = inner
        .opts
        .metrics
        .is_enabled()
        .then(std::time::Instant::now);
    let result = fan_out(inner.opts.io_threads, count, |w, n| {
        load_range(count * w / n, count * (w + 1) / n)
    });
    if let Some(t0) = t0 {
        inner
            .opts
            .metrics
            .record_phase("recovery.load", inner.opts.io_threads, t0.elapsed());
    }
    result.map(|_| ())
}

/// Replay a WAL generation file: apply every redo record in append order
/// (replay stays sequential — later records overwrite earlier ones, so
/// the order is semantic). A record found locked surfaces as
/// [`RecoveryError::RecordLocked`] instead of a panic.
pub(crate) fn replay_wal<V: DbValue>(inner: &DbInner<V>, path: &Path) -> io::Result<()> {
    if !path.exists() {
        return Ok(());
    }
    let version = inner.core.state.version();
    // `Wal::replay`'s visitor cannot return errors; park the first one
    // here and surface it after the walk.
    let mut failed: Option<io::Error> = None;
    crate::wal::Wal::replay(path, |payload| {
        if failed.is_some() || payload.len() < 8 {
            return;
        }
        let n = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
        let rec_size = 16 + std::mem::size_of::<V>();
        let mut off = 8;
        for _ in 0..n {
            if off + rec_size > payload.len() {
                return; // torn record: stop applying this payload
            }
            let key = u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
            let flags = u64::from_le_bytes(payload[off + 8..off + 16].try_into().unwrap());
            let value: V = cpr_core::pod_read(&payload[off + 16..off + rec_size]);
            let (rec, _) = inner.table.get_or_insert(key, version, V::from_seed(0));
            if !rec.lock.try_exclusive() {
                failed = Some(RecoveryError::RecordLocked { key }.into());
                return;
            }
            rec.write_live(value);
            rec.set_dead(flags & FLAG_TOMBSTONE != 0);
            rec.set_birth_if_unset(version);
            rec.lock.release_exclusive();
            off += rec_size;
        }
    })?;
    match failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Durability, MemDb};

    /// A record held exclusively while recovery loads must surface as
    /// [`RecoveryError::RecordLocked`], not a panic; releasing the lock
    /// lets the same load succeed.
    #[test]
    fn load_surfaces_locked_record_as_error() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path().join("checkpoints")).unwrap();
        let token = store.begin().unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes()); // count
        buf.extend_from_slice(&7u64.to_le_bytes()); // key
        buf.extend_from_slice(&0u64.to_le_bytes()); // flags
        buf.extend_from_slice(&42u64.to_le_bytes()); // value
        store.write_file(token, "db.dat", &buf).unwrap();
        let mut manifest = CheckpointManifest::new(token, CheckpointKind::Database, 1);
        manifest.records = Some(1);
        store.commit(&manifest).unwrap();

        let db: MemDb<u64> = MemDb::builder(Durability::None).open().unwrap();
        let (rec, _) = db.inner.table.get_or_insert(7, 1, 0);
        assert!(rec.lock.try_exclusive());
        let err = load(&db.inner, &store, &manifest).unwrap_err();
        assert!(err.to_string().contains("locked"), "{err}");
        rec.lock.release_exclusive();
        load(&db.inner, &store, &manifest).unwrap();
        assert_eq!(db.read(7), Some(42));
    }

    /// A record count whose byte size overflows is a short file, not a
    /// wrapped size check.
    #[test]
    fn load_rejects_overflowing_record_count() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let token = store.begin().unwrap();
        let mut buf = (1u64 << 62).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 24]);
        store.write_file(token, "db.dat", &buf).unwrap();
        let manifest = CheckpointManifest::new(token, CheckpointKind::Database, 1);
        store.commit(&manifest).unwrap();
        let db: MemDb<u64> = MemDb::builder(Durability::None).open().unwrap();
        let err = load(&db.inner, &store, &manifest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(db.is_empty());
    }

    /// A table grown far past its capacity hint by racing runtime inserts
    /// (holes included, across a chunk boundary) serializes to the same
    /// bytes at any capture thread count, and those are the committed
    /// `db.dat`.
    #[test]
    fn capture_bytes_identical_at_any_thread_count() {
        use crate::client::{Access, TxnRequest};
        const ROWS: u64 = 20_000;
        let dir = tempfile::tempdir().unwrap();
        let db: MemDb<u64> = MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(64)
            .io_threads(1)
            .open()
            .unwrap();
        std::thread::scope(|sc| {
            for (t, stride) in [1u64, 3, 7, 9].into_iter().enumerate() {
                let db = db.clone();
                sc.spawn(move || {
                    let mut s = db.session(t as u64 + 1);
                    let mut reads = Vec::new();
                    for i in 0..ROWS {
                        let accesses = [(i * stride % ROWS, Access::Merge)];
                        let req = TxnRequest {
                            accesses: &accesses,
                            write_seeds: &[1],
                        };
                        while s.execute(&req, &mut reads).is_err() {}
                    }
                });
            }
        });
        assert_eq!(db.len(), ROWS as usize);
        assert!(db.inner.table.slot_count() > 16_384, "spans two chunks");
        assert!(db.request_commit());
        assert!(db.wait_for_version(1, std::time::Duration::from_secs(20)));

        let store = CheckpointStore::open(dir.path()).unwrap();
        let token = store.latest().unwrap().unwrap().token;
        let file = store.read_file(token, "db.dat").unwrap();
        assert_eq!(file.len(), 8 + ROWS as usize * 24);
        for threads in [1usize, 2, 4] {
            let shards = serialize(&db.inner, 1, None, threads).unwrap();
            assert_eq!(shards.len(), threads);
            let count: u64 = shards.iter().map(|s| s.count).sum();
            let mut bytes = count.to_le_bytes().to_vec();
            for s in &shards {
                bytes.extend_from_slice(&s.bytes);
            }
            assert!(bytes == file, "{threads} capture threads");
        }
    }

    /// With incremental checkpoints, every `MAX_CHAIN_LEN`-th capture
    /// after a full one is full again: retention then deletes the old
    /// chain, so the directory stays bounded, and recovery still returns
    /// the exact state.
    #[test]
    fn incremental_chain_restarts_full_at_max_len() {
        use crate::client::{Access, TxnRequest};
        use std::collections::BTreeMap;
        use std::time::{Duration, Instant};

        let dir = tempfile::tempdir().unwrap();
        let mk = || {
            MemDb::<u64>::builder(Durability::Cpr)
                .dir(dir.path())
                .capacity(64)
                .incremental(true)
        };
        let settled = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while std::fs::read_dir(dir.path()).unwrap().count() != n {
                assert!(Instant::now() < deadline, "never {n} checkpoints");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let db = mk().open().unwrap();
        let mut expected = BTreeMap::new();
        let rounds = 2 * MAX_CHAIN_LEN as u64 + 3;
        for round in 1..=rounds {
            let mut s = db.session(1);
            let mut reads = Vec::new();
            for k in [round % 16, (round * 7 + 3) % 16] {
                let accesses = [(k, Access::Write)];
                let txn = TxnRequest {
                    accesses: &accesses,
                    write_seeds: &[round],
                };
                while s.execute(&txn, &mut reads).is_err() {}
                expected.insert(k, round);
            }
            drop(s);
            db.commit_and_wait(Duration::from_secs(20)).unwrap();
            let len = db.inner.checkpoint_chain.lock().len();
            assert_eq!(
                len,
                (round as usize - 1) % MAX_CHAIN_LEN + 1,
                "round {round}"
            );
            if round == MAX_CHAIN_LEN as u64 + 1 {
                // The first full capture after a whole chain: the chain
                // before it is deleted.
                settled(1);
            }
        }
        drop(db);
        settled((rounds as usize - 1) % MAX_CHAIN_LEN + 1);

        let (db, manifest) = mk().recover().unwrap();
        assert_eq!(manifest.unwrap().version, rounds);
        let expected: Vec<(u64, u64)> = expected.into_iter().collect();
        assert_eq!(db.scan_all(), expected);
    }
}
