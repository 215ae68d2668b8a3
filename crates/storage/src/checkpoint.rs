//! Checkpoint directory layout and manifest persistence.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/cpt.<token>/manifest.json   -- committed last (temp + rename)
//! <root>/cpt.<token>/<data files>    -- db.dat / log.dat / index.dat / ...
//! ```
//!
//! A checkpoint is *committed* iff its `manifest.json` exists **and
//! parses**; recovery scans for the largest committed token. Crashes
//! mid-checkpoint therefore leave only ignorable garbage — including a
//! torn (truncated) manifest, which reads as "uncommitted", never as a
//! parse panic.
//!
//! [`CheckpointStore::remove_older`] deletes superseded checkpoints
//! manifest first, so a crash mid-delete also leaves only an uncommitted
//! directory, which the next deletion pass removes.
//!
//! When opened with [`CheckpointStore::open_with`], every file write is
//! routed through a shared [`FaultInjector`], drawing from the same
//! operation sequence as any [`FaultDevice`](crate::FaultDevice) holding
//! that injector — so a test can say "crash on the 2nd storage write from
//! now" and hit the manifest commit precisely.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_core::CheckpointManifest;
use parking_lot::Mutex;

use crate::fault::{FaultInjector, IoVerdict};
use crate::{fan_out, IO_CHUNK_BYTES};

/// Smallest file body, in I/O chunks, that is striped across writers.
const STRIPE_MIN_CHUNKS: u64 = 8;

/// A directory of committed checkpoints.
pub struct CheckpointStore {
    root: PathBuf,
    next_token: AtomicU64,
    /// Tokens begun and neither committed nor aborted yet: directories
    /// still being written, which [`CheckpointStore::remove_older`] must
    /// not touch.
    open: Mutex<BTreeSet<u64>>,
    injector: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<cpr_metrics::Registry>>,
    /// Writers a large file body is striped over (see `write_body`).
    io_threads: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(root, None)
    }

    /// Open with an optional fault injector applied to every file write
    /// (checkpoint data files and manifest commits).
    pub fn open_with(
        root: impl AsRef<Path>,
        injector: Option<Arc<FaultInjector>>,
    ) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let max = Self::scan_tokens(&root)?.into_iter().max().unwrap_or(0);
        Ok(CheckpointStore {
            root,
            next_token: AtomicU64::new(max + 1),
            open: Mutex::new(BTreeSet::new()),
            injector,
            metrics: None,
            io_threads: 1,
        })
    }

    /// Stripe file bodies of at least 8 I/O chunks (8 MiB) across `n`
    /// positioned writers (default 1: every write is serial). The store
    /// that opens the checkpoint store passes its I/O thread setting.
    pub fn with_io_threads(mut self, n: usize) -> Self {
        self.io_threads = n.max(1);
        self
    }

    /// Attach a metrics registry: every checkpoint file write records
    /// its byte count and write-to-durable latency. A disabled registry
    /// keeps the write path unchanged.
    pub fn with_metrics(mut self, metrics: Arc<cpr_metrics::Registry>) -> Self {
        if metrics.is_enabled() {
            self.metrics = Some(metrics);
        }
        self
    }

    /// Write one file's bytes, subject to fault injection. A `Torn`
    /// verdict persists a truncated file at the *final* path (modelling a
    /// crash mid-write) and still reports failure; `Fail`/`Crashed`
    /// verdicts leave no trace. Fault-free writes are atomic
    /// (temp + rename) and synced.
    fn write_injected(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let issued = self.metrics.as_ref().map(|m| {
            m.storage_write_issued(len as u64);
            (m, std::time::Instant::now())
        });
        let res = self.write_injected_inner(path, parts, len);
        if let Some((m, t0)) = issued {
            m.storage_write_done(t0.elapsed());
        }
        res
    }

    fn write_injected_inner(&self, path: &Path, parts: &[&[u8]], len: usize) -> io::Result<()> {
        if let Some(inj) = &self.injector {
            match inj.next_io() {
                IoVerdict::Ok => {}
                IoVerdict::Fail | IoVerdict::Crashed => return Err(inj.error()),
                IoVerdict::Torn { keep } => {
                    self.write_body(path, parts, keep.min(len))?;
                    return Err(inj.error());
                }
                IoVerdict::Delay { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
        }
        let tmp = path.with_extension("tmp");
        self.write_body(&tmp, parts, len)?;
        fs::File::open(&tmp)?.sync_data()?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Write the first `len` bytes of the concatenated `parts` as the
    /// file body, striping large payloads across the store's I/O
    /// threads. The fault verdict was already drawn by the caller —
    /// whole-file atomicity (temp + rename) and one-op accounting are
    /// unchanged; only the copy is parallel.
    fn write_body(&self, path: &Path, parts: &[&[u8]], len: usize) -> io::Result<()> {
        let file = fs::File::create(path)?;
        if self.io_threads <= 1 || (len as u64) < STRIPE_MIN_CHUNKS * IO_CHUNK_BYTES {
            return write_range(&file, parts, 0..len);
        }
        file.set_len(len as u64)?;
        let chunks = len.div_ceil(IO_CHUNK_BYTES as usize);
        fan_out(self.io_threads, chunks, |w, n| {
            write_range(&file, parts, len * w / n..len * (w + 1) / n)
        })?;
        Ok(())
    }

    /// Committed tokens under `root`, unordered.
    fn scan_tokens(root: &Path) -> io::Result<Vec<u64>> {
        let mut tokens = Self::dir_tokens(root)?;
        // Committed only if the manifest exists.
        tokens.retain(|t| root.join(format!("cpt.{t}")).join("manifest.json").exists());
        Ok(tokens)
    }

    /// Tokens of every `cpt.<token>` directory under `root`, committed or
    /// not, unordered.
    fn dir_tokens(root: &Path) -> io::Result<Vec<u64>> {
        let mut tokens = Vec::new();
        for entry in fs::read_dir(root)? {
            let name = entry?.file_name();
            let tok = name.to_str().and_then(|n| n.strip_prefix("cpt."));
            if let Some(Ok(tok)) = tok.map(str::parse::<u64>) {
                tokens.push(tok);
            }
        }
        Ok(tokens)
    }

    /// Allocate a fresh token and create its (uncommitted) directory.
    pub fn begin(&self) -> io::Result<u64> {
        if let Some(inj) = &self.injector {
            if inj.crashed() {
                return Err(inj.error());
            }
        }
        // Allocated under the lock, so a token below any later one is
        // already in `open` when that later one is allocated.
        let token = {
            let mut open = self.open.lock();
            let token = self.next_token.fetch_add(1, Ordering::AcqRel);
            open.insert(token);
            token
        };
        fs::create_dir_all(self.dir(token))?;
        Ok(token)
    }

    /// Discard an uncommitted checkpoint: delete `token`'s directory so a
    /// failed attempt leaves no on-disk garbage. After a simulated crash
    /// this is a no-op — the frozen filesystem keeps whatever (possibly
    /// torn) state the crash left, exactly as a real power cut would.
    pub fn abort(&self, token: u64) -> io::Result<()> {
        self.open.lock().remove(&token);
        if let Some(inj) = &self.injector {
            if inj.crashed() {
                return Ok(());
            }
        }
        match fs::remove_dir_all(self.dir(token)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Write a named data file inside `token`'s directory, subject to
    /// fault injection (one storage operation).
    pub fn write_file(&self, token: u64, name: &str, data: &[u8]) -> io::Result<()> {
        self.write_injected(&self.file(token, name), &[data])
    }

    /// Write a named data file whose bytes are the concatenation of
    /// `parts`, without concatenating them in memory. Exactly like
    /// [`CheckpointStore::write_file`] of the joined bytes: one storage
    /// operation under fault injection, and a torn verdict keeps a prefix
    /// of the joined bytes.
    pub fn write_file_parts(&self, token: u64, name: &str, parts: &[&[u8]]) -> io::Result<()> {
        self.write_injected(&self.file(token, name), parts)
    }

    /// Read a named data file from `token`'s directory, subject to read
    /// fault injection (one *read* operation — see
    /// [`FaultInjector::next_read_io`]). Recovery goes through this so a
    /// test can kill recovery itself on a chosen checkpoint read.
    pub fn read_file(&self, token: u64, name: &str) -> io::Result<Vec<u8>> {
        if let Some(inj) = &self.injector {
            match inj.next_read_io() {
                IoVerdict::Ok => {}
                IoVerdict::Delay { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                IoVerdict::Fail | IoVerdict::Crashed | IoVerdict::Torn { .. } => {
                    return Err(inj.error());
                }
            }
        }
        fs::read(self.file(token, name))
    }

    /// Directory for `token`'s files.
    pub fn dir(&self, token: u64) -> PathBuf {
        self.root.join(format!("cpt.{token}"))
    }

    /// Path of a named data file inside `token`'s directory.
    pub fn file(&self, token: u64, name: &str) -> PathBuf {
        self.dir(token).join(name)
    }

    /// Commit `token` by atomically writing its manifest (one storage
    /// operation under fault injection; a torn verdict leaves a truncated
    /// `manifest.json` that recovery must treat as uncommitted).
    pub fn commit(&self, manifest: &CheckpointManifest) -> io::Result<()> {
        let path = self.dir(manifest.token).join("manifest.json");
        self.write_injected(&path, &[manifest.to_json().as_bytes()])?;
        self.open.lock().remove(&manifest.token);
        Ok(())
    }

    /// Delete every checkpoint directory whose token is below `below`,
    /// except the tokens in `keep` and checkpoints still being written.
    /// Uncommitted leftovers (an earlier crash) go too. Returns how many
    /// were deleted.
    ///
    /// Each directory loses its `manifest.json` first, so one that a
    /// crash leaves half-deleted reads as uncommitted. Under fault
    /// injection each of the two steps is one *delete* operation (see
    /// [`FaultInjector::next_delete_io`]); a crash stops the pass and
    /// freezes the directory as it is.
    pub fn remove_older(&self, below: u64, keep: &[u64]) -> io::Result<usize> {
        let mut doomed = Self::dir_tokens(&self.root)?;
        doomed.retain(|t| *t < below && !keep.contains(t));
        doomed.sort_unstable();
        let mut removed = 0;
        for tok in doomed {
            if self.open.lock().contains(&tok) {
                continue;
            }
            self.delete_step()?;
            ignore_missing(fs::remove_file(self.file(tok, "manifest.json")))?;
            self.delete_step()?;
            ignore_missing(fs::remove_dir_all(self.dir(tok)))?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Draw one delete operation's verdict from the fault injector.
    fn delete_step(&self) -> io::Result<()> {
        match &self.injector {
            Some(inj) if inj.next_delete_io() != IoVerdict::Ok => Err(inj.error()),
            _ => Ok(()),
        }
    }

    /// Load the manifest of `token`, if committed.
    pub fn manifest(&self, token: u64) -> io::Result<CheckpointManifest> {
        let raw = fs::read_to_string(self.file(token, "manifest.json"))?;
        CheckpointManifest::from_json(&raw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// All committed tokens, ascending.
    pub fn tokens(&self) -> io::Result<Vec<u64>> {
        let mut t = Self::scan_tokens(&self.root)?;
        t.sort_unstable();
        Ok(t)
    }

    /// The newest committed checkpoint, if any. A checkpoint whose
    /// manifest exists but does not parse (torn write at crash time) is
    /// skipped, not an error.
    pub fn latest(&self) -> io::Result<Option<CheckpointManifest>> {
        self.latest_matching(|_| true)
    }

    /// The newest committed checkpoint satisfying `pred` (e.g. "is a full
    /// checkpoint", "kind == Index"). Unreadable or torn manifests are
    /// treated as uncommitted and skipped.
    pub fn latest_matching(
        &self,
        pred: impl Fn(&CheckpointManifest) -> bool,
    ) -> io::Result<Option<CheckpointManifest>> {
        for tok in self.tokens()?.into_iter().rev() {
            let Ok(m) = self.manifest(tok) else { continue };
            if pred(&m) {
                return Ok(Some(m));
            }
        }
        Ok(None)
    }

    /// Remove every checkpoint directory (testing / GC).
    pub fn clear(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.root)? {
            let p = entry?.path();
            if p.is_dir() {
                fs::remove_dir_all(p)?;
            }
        }
        Ok(())
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// Write the bytes `range` of the concatenated `parts` at the same
/// offsets in `file`.
fn write_range(file: &fs::File, parts: &[&[u8]], range: std::ops::Range<usize>) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    let mut start = 0;
    for part in parts {
        let end = start + part.len();
        let (lo, hi) = (range.start.max(start), range.end.min(end));
        if lo < hi {
            file.write_all_at(&part[lo - start..hi - start], lo as u64)?;
        }
        start = end;
    }
    Ok(())
}

fn ignore_missing(r: io::Result<()>) -> io::Result<()> {
    match r {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        r => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_core::{CheckpointKind, SessionCpr};

    fn manifest(token: u64, version: u64, kind: CheckpointKind) -> CheckpointManifest {
        let mut m = CheckpointManifest::new(token, kind, version);
        m.sessions.push(SessionCpr {
            guid: 1,
            cpr_point: 42,
        });
        m
    }

    #[test]
    fn begin_commit_latest_cycle() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        assert!(store.latest().unwrap().is_none());

        let t1 = store.begin().unwrap();
        store
            .commit(&manifest(t1, 1, CheckpointKind::Database))
            .unwrap();
        let t2 = store.begin().unwrap();
        assert!(t2 > t1);
        store
            .commit(&manifest(t2, 2, CheckpointKind::Database))
            .unwrap();

        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.token, t2);
        assert_eq!(latest.version, 2);
        assert_eq!(latest.cpr_point(1), Some(42));
    }

    #[test]
    fn uncommitted_checkpoints_are_invisible() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t1 = store.begin().unwrap();
        store
            .commit(&manifest(t1, 1, CheckpointKind::Database))
            .unwrap();
        let _t2 = store.begin().unwrap(); // crash before manifest write
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.token, t1, "uncommitted t2 must be ignored");
    }

    #[test]
    fn reopen_resumes_token_sequence() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = CheckpointStore::open(dir.path()).unwrap();
            let t = store.begin().unwrap();
            store
                .commit(&manifest(t, 1, CheckpointKind::Database))
                .unwrap();
        }
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t = store.begin().unwrap();
        assert!(t >= 2, "token sequence must not repeat: got {t}");
    }

    #[test]
    fn latest_matching_filters_by_kind() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t1 = store.begin().unwrap();
        store
            .commit(&manifest(t1, 1, CheckpointKind::Index))
            .unwrap();
        let t2 = store.begin().unwrap();
        store
            .commit(&manifest(t2, 1, CheckpointKind::FoldOver))
            .unwrap();
        let idx = store
            .latest_matching(|m| m.kind == CheckpointKind::Index)
            .unwrap()
            .unwrap();
        assert_eq!(idx.token, t1);
    }

    #[test]
    fn data_files_live_inside_checkpoint_dir() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t = store.begin().unwrap();
        std::fs::write(store.file(t, "db.dat"), b"payload").unwrap();
        store
            .commit(&manifest(t, 1, CheckpointKind::Database))
            .unwrap();
        let bytes = std::fs::read(store.file(t, "db.dat")).unwrap();
        assert_eq!(bytes, b"payload");
    }

    #[test]
    fn abort_deletes_uncommitted_checkpoint_dir() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t = store.begin().unwrap();
        std::fs::write(store.file(t, "db.dat"), b"partial").unwrap();
        assert!(store.dir(t).exists());
        store.abort(t).unwrap();
        assert!(
            !store.dir(t).exists(),
            "aborted checkpoint dir must be gone"
        );
        // Idempotent: aborting again (or a never-begun token) is fine.
        store.abort(t).unwrap();
        store.abort(9999).unwrap();
        // The store remains usable for a subsequent successful checkpoint.
        let t2 = store.begin().unwrap();
        assert!(t2 > t);
        store
            .commit(&manifest(t2, 1, CheckpointKind::Database))
            .unwrap();
        assert_eq!(store.latest().unwrap().unwrap().token, t2);
    }

    #[test]
    fn torn_manifest_reads_as_uncommitted() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t1 = store.begin().unwrap();
        store
            .commit(&manifest(t1, 1, CheckpointKind::Database))
            .unwrap();
        // Simulate a crash that tore the next manifest mid-write.
        let t2 = store.begin().unwrap();
        let full = manifest(t2, 2, CheckpointKind::Database).to_json();
        std::fs::write(
            store.file(t2, "manifest.json"),
            &full.as_bytes()[..full.len() / 2],
        )
        .unwrap();
        // Strict single-token load still errors...
        assert!(store.manifest(t2).is_err());
        // ...but recovery-facing scans skip it instead of failing.
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.token, t1, "torn t2 manifest must be skipped");
    }

    #[test]
    fn injected_commit_failure_leaves_no_manifest() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dir = tempfile::tempdir().unwrap();
        let inj = std::sync::Arc::new(FaultInjector::new(FaultPlan::new()));
        let store =
            CheckpointStore::open_with(dir.path(), Some(std::sync::Arc::clone(&inj))).unwrap();
        let t = store.begin().unwrap();
        store.write_file(t, "db.dat", b"data").unwrap();
        inj.fail_after(0);
        assert!(store
            .commit(&manifest(t, 1, CheckpointKind::Database))
            .is_err());
        assert!(!store.file(t, "manifest.json").exists());
        // Transient failure: a retried commit (new op) succeeds.
        store
            .commit(&manifest(t, 1, CheckpointKind::Database))
            .unwrap();
        assert_eq!(store.latest().unwrap().unwrap().token, t);
    }

    #[test]
    fn abort_after_crash_preserves_torn_state() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dir = tempfile::tempdir().unwrap();
        let inj = std::sync::Arc::new(FaultInjector::new(FaultPlan::new()));
        let store =
            CheckpointStore::open_with(dir.path(), Some(std::sync::Arc::clone(&inj))).unwrap();
        let t = store.begin().unwrap();
        inj.torn_after(0, 10);
        inj.crash_after(1);
        assert!(store
            .commit(&manifest(t, 1, CheckpointKind::Database))
            .is_err());
        assert!(inj.crashed() || store.file(t, "manifest.json").exists());
        // Post-crash abort must NOT clean up: the torn manifest is what a
        // real crash would leave for recovery to tolerate.
        inj.crash_now();
        store.abort(t).unwrap();
        assert!(store.file(t, "manifest.json").exists());
        assert!(
            store.begin().is_err(),
            "new checkpoints impossible after crash"
        );
    }

    #[test]
    fn remove_older_keeps_newer_kept_and_open_checkpoints() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let open = store.begin().unwrap(); // still being written
        let mut tokens = Vec::new();
        for v in 1..=4 {
            let t = store.begin().unwrap();
            store.write_file(t, "index.dat", b"idx").unwrap();
            store
                .commit(&manifest(t, v, CheckpointKind::FoldOver))
                .unwrap();
            tokens.push(t);
        }
        // A leftover from a crash: data but no manifest.
        std::fs::create_dir_all(store.dir(0)).unwrap();
        std::fs::write(store.file(0, "index.dat"), b"junk").unwrap();
        let removed = store.remove_older(tokens[3], &[tokens[1]]).unwrap();
        assert_eq!(removed, 3, "tokens 0, {} and {}", tokens[0], tokens[2]);
        assert!(!store.dir(0).exists());
        assert!(
            store.dir(open).exists(),
            "open checkpoints are never deleted"
        );
        assert!(!store.dir(tokens[0]).exists());
        assert!(store.dir(tokens[1]).exists(), "kept");
        assert!(!store.dir(tokens[2]).exists());
        assert_eq!(store.tokens().unwrap(), vec![tokens[1], tokens[3]]);
        // Once aborted, the open checkpoint goes too.
        store.abort(open).unwrap();
        std::fs::create_dir_all(store.dir(open)).unwrap();
        assert_eq!(store.remove_older(tokens[3], &[tokens[1]]).unwrap(), 1);
        assert!(!store.dir(open).exists());
    }

    #[test]
    fn crash_mid_delete_leaves_an_uncommitted_directory() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dir = tempfile::tempdir().unwrap();
        let inj = std::sync::Arc::new(FaultInjector::new(FaultPlan::new()));
        let store =
            CheckpointStore::open_with(dir.path(), Some(std::sync::Arc::clone(&inj))).unwrap();
        let t1 = store.begin().unwrap();
        store.write_file(t1, "index.dat", b"idx").unwrap();
        store
            .commit(&manifest(t1, 1, CheckpointKind::FoldOver))
            .unwrap();
        let t2 = store.begin().unwrap();
        store
            .commit(&manifest(t2, 2, CheckpointKind::FoldOver))
            .unwrap();
        let writes = inj.op_count();
        // Delete op 0 removes t1's manifest; crash at op 1, its directory.
        inj.crash_delete_after(1);
        assert!(store.remove_older(t2, &[]).is_err());
        assert!(inj.crashed());
        assert_eq!(inj.op_count(), writes, "deletes draw no write-op numbers");
        assert!(store.file(t1, "index.dat").exists(), "frozen mid-delete");
        assert!(!store.file(t1, "manifest.json").exists());
        assert_eq!(store.latest().unwrap().unwrap().token, t2);
        assert_eq!(store.tokens().unwrap(), vec![t2]);
        // A fault-free pass later removes the leftover.
        let store = CheckpointStore::open(dir.path()).unwrap();
        assert_eq!(store.remove_older(t2, &[]).unwrap(), 1);
        assert!(!store.dir(t1).exists());
    }

    #[test]
    fn parts_write_like_their_concatenation() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dir = tempfile::tempdir().unwrap();
        let inj = std::sync::Arc::new(FaultInjector::new(FaultPlan::new()));
        let store =
            CheckpointStore::open_with(dir.path(), Some(std::sync::Arc::clone(&inj))).unwrap();
        let t = store.begin().unwrap();
        let parts: [&[u8]; 4] = [b"head", b"", b"-middle-", b"tail"];
        store.write_file_parts(t, "db.dat", &parts).unwrap();
        assert_eq!(inj.op_count(), 1, "one storage op for all parts");
        assert_eq!(
            std::fs::read(store.file(t, "db.dat")).unwrap(),
            b"head-middle-tail"
        );
        // A torn write keeps a prefix of the joined bytes.
        inj.torn_after(0, 7);
        assert!(store.write_file_parts(t, "torn.dat", &parts).is_err());
        assert_eq!(
            std::fs::read(store.file(t, "torn.dat")).unwrap(),
            b"head-mi"
        );
    }

    #[test]
    fn striped_write_is_byte_identical_and_one_op() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dir = tempfile::tempdir().unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let store = CheckpointStore::open_with(dir.path(), Some(Arc::clone(&inj)))
            .unwrap()
            .with_io_threads(4);
        let t = store.begin().unwrap();
        // 8 MiB and a bit, in uneven parts, so stripes cross part edges.
        let len = (STRIPE_MIN_CHUNKS * IO_CHUNK_BYTES) as usize + 4097;
        let joined: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let parts: Vec<&[u8]> = vec![&joined[..3], &joined[3..5_000_000], &joined[5_000_000..]];
        store.write_file_parts(t, "db.dat", &parts).unwrap();
        assert_eq!(inj.op_count(), 1, "a striped write is one storage op");
        assert!(std::fs::read(store.file(t, "db.dat")).unwrap() == joined);
    }

    #[test]
    fn clear_removes_everything() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path()).unwrap();
        let t = store.begin().unwrap();
        store
            .commit(&manifest(t, 1, CheckpointKind::Database))
            .unwrap();
        store.clear().unwrap();
        assert!(store.latest().unwrap().is_none());
    }
}
