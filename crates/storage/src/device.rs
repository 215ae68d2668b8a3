//! Asynchronous block devices.
//!
//! Writes are queued to background writer threads. [`FileDevice`] can run
//! a *pool* of writer queues (see [`FileDevice::create_segmented`]): writes
//! are routed to a queue by the 1 MiB stripe of their starting offset, so
//! overlapping writes to the same region stay on one queue in issue
//! order, while bulk flushes that span many stripes fan out across all
//! queues. [`Device::sync`] is a completion barrier across every queue.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::IO_CHUNK_BYTES;

/// Simulated device speed: per-operation latencies. Used by benchmarks
/// to model disk-like storage on hosts whose page cache would otherwise
/// absorb everything.
#[derive(Clone, Copy, Debug)]
pub struct IoProfile {
    /// Added to every write job, on the writer thread that executes it.
    pub write_latency: Duration,
    /// Added to every `read_at`, on the calling thread.
    pub read_latency: Duration,
}

impl IoProfile {
    pub const NONE: IoProfile = IoProfile {
        write_latency: Duration::ZERO,
        read_latency: Duration::ZERO,
    };

    fn throttle_write(&self) {
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
    }
}

impl Default for IoProfile {
    fn default() -> Self {
        IoProfile::NONE
    }
}

/// Completion handle for an asynchronous device operation.
///
/// Cloning shares the same completion state. `wait()` blocks until the
/// operation completes and returns its result; `is_done()` polls.
#[derive(Clone)]
pub struct IoHandle {
    inner: Arc<IoInner>,
}

/// Completion observer: receives the operation's success flag.
type CompletionCallback = Box<dyn FnOnce(bool) + Send>;

struct IoInner {
    state: Mutex<IoState>,
    cv: Condvar,
    /// Callbacks fired (with the success flag) exactly once when the
    /// operation completes. Registered via [`IoHandle::on_complete`];
    /// used by metering decorators to observe completion latency.
    callbacks: Mutex<Vec<CompletionCallback>>,
}

enum IoState {
    Pending,
    Done(Option<String>), // None = ok, Some = error message
    /// `Done` after the result has been taken by `wait`.
    Consumed(bool),
}

impl IoHandle {
    /// A fresh, not-yet-completed handle (for custom async operations).
    pub fn pending() -> Self {
        IoHandle {
            inner: Arc::new(IoInner {
                state: Mutex::new(IoState::Pending),
                cv: Condvar::new(),
                callbacks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An already-completed successful handle (for synchronous devices).
    pub fn ready() -> Self {
        let h = Self::pending();
        h.complete(Ok(()));
        h
    }

    /// A handle that completes when every handle in `handles` has —
    /// successfully only if all succeeded (the first error message wins).
    /// Scatter-gather writes return one of these.
    pub fn join(handles: Vec<IoHandle>) -> Self {
        if handles.is_empty() {
            return Self::ready();
        }
        let out = Self::pending();
        let remaining = Arc::new(AtomicUsize::new(handles.len()));
        let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        for h in handles {
            let out = out.clone();
            let remaining = Arc::clone(&remaining);
            let failure = Arc::clone(&failure);
            let err_probe = h.clone();
            h.on_complete(move |ok| {
                if !ok {
                    // The child already completed, so this does not block.
                    let msg = err_probe
                        .wait()
                        .err()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "io failed".into());
                    failure.lock().get_or_insert(msg);
                }
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    out.complete(match failure.lock().take() {
                        None => Ok(()),
                        Some(msg) => Err(io::Error::other(msg)),
                    });
                }
            });
        }
        out
    }

    /// Complete the operation (wakes all waiters, fires callbacks).
    pub fn complete(&self, result: io::Result<()>) {
        let ok = result.is_ok();
        let mut st = self.inner.state.lock();
        *st = IoState::Done(result.err().map(|e| e.to_string()));
        self.inner.cv.notify_all();
        drop(st);
        for cb in self.inner.callbacks.lock().drain(..) {
            cb(ok);
        }
    }

    /// Run `f(success)` when the operation completes — immediately if it
    /// already has. Used by metering decorators to observe completion
    /// latency and queue depth without wrapping the handle type.
    pub fn on_complete(&self, f: impl FnOnce(bool) + Send + 'static) {
        {
            let st = self.inner.state.lock();
            if matches!(*st, IoState::Pending) {
                self.inner.callbacks.lock().push(Box::new(f));
                return;
            }
        }
        let ok = match &*self.inner.state.lock() {
            IoState::Done(err) => err.is_none(),
            IoState::Consumed(ok) => *ok,
            IoState::Pending => unreachable!("pending handled above"),
        };
        f(ok);
    }

    /// True once the operation has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        !matches!(*self.inner.state.lock(), IoState::Pending)
    }

    /// Block until completion; returns the operation result.
    pub fn wait(&self) -> io::Result<()> {
        let mut st = self.inner.state.lock();
        loop {
            match &*st {
                IoState::Pending => self.inner.cv.wait(&mut st),
                IoState::Done(err) => {
                    let res = match err {
                        None => Ok(()),
                        Some(msg) => Err(io::Error::other(msg.clone())),
                    };
                    let ok = res.is_ok();
                    *st = IoState::Consumed(ok);
                    return res;
                }
                IoState::Consumed(ok) => {
                    return if *ok {
                        Ok(())
                    } else {
                        Err(io::Error::other("io previously failed"))
                    };
                }
            }
        }
    }
}

/// A durable device addressed by byte offset.
///
/// Writes are asynchronous: they may be issued from hot paths and complete
/// in the background. Reads are synchronous at this layer — asynchronous
/// read scheduling for disk-resident records is built on top by the I/O
/// pool in `cpr-faster`.
pub trait Device: Send + Sync + 'static {
    /// Queue `data` to be written at `offset`. The handle completes when
    /// the data is durable.
    fn write_at(&self, offset: u64, data: Vec<u8>) -> IoHandle;

    /// Queue `bufs` as one logical scatter-gather write: the buffers land
    /// back to back starting at `offset`. The default concatenates into a
    /// single [`Device::write_at`] — exactly one underlying write, which
    /// is what the fault-injecting and metering decorators count as one
    /// I/O. Pooled devices override this to fan the buffers out across
    /// writer queues.
    fn write_vectored_at(&self, offset: u64, bufs: Vec<Vec<u8>>) -> IoHandle {
        let total = bufs.iter().map(Vec::len).sum();
        let mut data = Vec::with_capacity(total);
        for b in bufs {
            data.extend_from_slice(&b);
        }
        self.write_at(offset, data)
    }

    /// Fill `buf` from `offset`. Reads past the physical end of the
    /// device **zero-fill** the remainder rather than erroring — a
    /// freshly truncated or sparse log reads as zeroes, which the
    /// recovery scan treats as "no record". Every implementation (and
    /// decorator) must preserve this.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Wait for all previously queued writes (on every queue) to be
    /// durable.
    fn sync(&self) -> io::Result<()>;

    /// One past the largest byte ever written.
    fn len(&self) -> u64;

    /// Give back the bytes below `offset`, at the device's granularity: a
    /// segmented [`FileDevice`] unlinks every segment that lies wholly
    /// below it. Reads there zero-fill afterwards. The default keeps
    /// everything; every decorator must forward the call.
    fn truncate_below(&self, offset: u64) -> io::Result<()> {
        let _ = offset;
        Ok(())
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

enum Job {
    Write {
        file: Arc<File>,
        /// Offset within `file`.
        offset: u64,
        data: Vec<u8>,
        handle: IoHandle,
    },
    Barrier(IoHandle),
    Shutdown,
}

/// The files behind a [`FileDevice`]: fixed-size segments `<path>.0`,
/// `<path>.1`, ... holding `2^bits` bytes of the address space each.
/// Segments are created on first write; a segment that was never
/// written, or was dropped by [`Device::truncate_below`], reads as
/// zeroes.
struct Files {
    path: PathBuf,
    /// log2 of the segment size.
    segment_bits: u32,
    open: RwLock<BTreeMap<u64, Arc<File>>>,
    /// Segments below this index are gone.
    first: AtomicU64,
    /// Segments written since the last sync.
    dirty: Mutex<BTreeSet<u64>>,
    /// A segment was created since the last sync, so the directory entry
    /// must be made durable too.
    created: AtomicBool,
}

impl Files {
    fn new(path: &Path, bits: u32, open: BTreeMap<u64, Arc<File>>) -> Self {
        let first = open.keys().next().copied().unwrap_or(0);
        Files {
            path: path.to_path_buf(),
            segment_bits: bits,
            open: RwLock::new(open),
            first: AtomicU64::new(first),
            dirty: Mutex::new(BTreeSet::new()),
            created: AtomicBool::new(false),
        }
    }

    fn segment_path(path: &Path, seg: u64) -> PathBuf {
        let mut name = path.as_os_str().to_owned();
        name.push(format!(".{seg}"));
        PathBuf::from(name)
    }

    /// The directory holding the segments of `path`.
    fn dir(path: &Path) -> &Path {
        match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        }
    }

    /// The segment files already in `path`'s directory, by index.
    fn existing_segments(path: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let dir = Self::dir(path);
        let prefix = format!(
            "{}.",
            path.file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| io::Error::other("segment path has no file name"))?
        );
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let seg = name
                .to_str()
                .and_then(|n| n.strip_prefix(&prefix))
                .and_then(|n| n.parse::<u64>().ok());
            if let Some(seg) = seg {
                out.push((seg, entry.path()));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Split `[offset, offset + len)` into `(segment, offset in segment,
    /// length)` pieces.
    fn pieces(&self, offset: u64, len: u64) -> Vec<(u64, u64, u64)> {
        let bits = self.segment_bits;
        let size = 1u64 << bits;
        let mut out = Vec::new();
        let mut at = offset;
        let end = offset + len;
        while at < end {
            let seg = at >> bits;
            let n = (size - (at & (size - 1))).min(end - at);
            out.push((seg, at & (size - 1), n));
            at += n;
        }
        out
    }

    fn get(&self, seg: u64) -> Option<Arc<File>> {
        self.open.read().get(&seg).cloned()
    }

    /// The file of `seg`, created if it does not exist yet.
    fn get_or_create(&self, seg: u64) -> io::Result<Arc<File>> {
        if seg < self.first.load(Ordering::Acquire) {
            return Err(io::Error::other(format!(
                "write to segment {seg}, below the truncation point"
            )));
        }
        if let Some(f) = self.get(seg) {
            return Ok(f);
        }
        let mut open = self.open.write();
        if let Some(f) = open.get(&seg) {
            return Ok(Arc::clone(f));
        }
        let file = Arc::new(
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(Self::segment_path(&self.path, seg))?,
        );
        open.insert(seg, Arc::clone(&file));
        self.created.store(true, Ordering::Release);
        Ok(file)
    }
}

/// File-backed device with a pool of dedicated writer threads, stored as
/// a run of fixed-size segment files so that dropping the front of a log
/// ([`Device::truncate_below`]) is an `unlink` per segment.
///
/// With one queue every write applies in issue order. With `n > 1`
/// queues, writes are routed by offset stripe ([`IO_CHUNK_BYTES`]),
/// keeping same-region writes ordered while striped bulk flushes proceed
/// in parallel; [`FileDevice::sync`] barriers all queues and then issues
/// one `fdatasync` per written segment.
pub struct FileDevice {
    files: Files,
    txs: Vec<Sender<Job>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    high_water: AtomicU64,
    profile: IoProfile,
}

impl FileDevice {
    /// A fresh segmented device: segment `n` is the file `<path>.<n>` and
    /// holds bytes `[n << segment_bits, (n + 1) << segment_bits)`. Any
    /// segment files already there are deleted.
    pub fn create_segmented(
        path: impl AsRef<Path>,
        segment_bits: u32,
        queues: usize,
        profile: IoProfile,
    ) -> io::Result<Self> {
        let path = path.as_ref();
        for (_, p) in Files::existing_segments(path)? {
            std::fs::remove_file(p)?;
        }
        let files = Files::new(path, segment_bits, BTreeMap::new());
        Ok(Self::from_parts(files, 0, queues, profile))
    }

    /// Open the segments a [`FileDevice::create_segmented`] device left
    /// at `path` (none is an empty device). Reads below the lowest
    /// segment found zero-fill, as after [`Device::truncate_below`].
    pub fn open_segmented(
        path: impl AsRef<Path>,
        segment_bits: u32,
        queues: usize,
        profile: IoProfile,
    ) -> io::Result<Self> {
        let path = path.as_ref();
        let mut open = BTreeMap::new();
        let mut len = 0;
        for (seg, p) in Files::existing_segments(path)? {
            let file = std::fs::OpenOptions::new().read(true).write(true).open(p)?;
            let end = (seg << segment_bits) + file.metadata()?.len();
            len = len.max(end);
            open.insert(seg, Arc::new(file));
        }
        let files = Files::new(path, segment_bits, open);
        Ok(Self::from_parts(files, len, queues, profile))
    }

    fn from_parts(files: Files, len: u64, queues: usize, profile: IoProfile) -> Self {
        let queues = queues.max(1);
        let mut txs = Vec::with_capacity(queues);
        let mut writers = Vec::with_capacity(queues);
        for q in 0..queues {
            let (tx, rx) = unbounded::<Job>();
            let writer = std::thread::Builder::new()
                .name(format!("cpr-file-writer-{q}"))
                .spawn(move || {
                    use std::os::unix::fs::FileExt;
                    for job in rx {
                        match job {
                            Job::Write {
                                file,
                                offset,
                                data,
                                handle,
                            } => {
                                profile.throttle_write();
                                let res = file.write_all_at(&data, offset);
                                handle.complete(res);
                            }
                            // Queue-drain marker only; the caller issues
                            // the fdatasyncs after *all* queues drain.
                            Job::Barrier(handle) => handle.complete(Ok(())),
                            Job::Shutdown => break,
                        }
                    }
                })
                .expect("spawn writer thread");
            txs.push(tx);
            writers.push(writer);
        }
        FileDevice {
            files,
            txs,
            writers: Mutex::new(writers),
            high_water: AtomicU64::new(len),
            profile,
        }
    }

    /// Number of writer queues.
    pub fn queues(&self) -> usize {
        self.txs.len()
    }

    /// Indexes of the segment files currently present, ascending.
    pub fn segments(&self) -> Vec<u64> {
        self.files.open.read().keys().copied().collect()
    }

    fn queue_for(&self, offset: u64) -> usize {
        if self.txs.len() == 1 {
            0
        } else {
            ((offset / IO_CHUNK_BYTES) as usize) % self.txs.len()
        }
    }

    fn enqueue(&self, offset: u64, data: Vec<u8>) -> IoHandle {
        self.high_water
            .fetch_max(offset + data.len() as u64, Ordering::AcqRel);
        let pieces = self.files.pieces(offset, data.len() as u64);
        if pieces.len() == 1 {
            let (seg, at, _) = pieces[0];
            return self.enqueue_piece(offset, seg, at, data);
        }
        let mut handles = Vec::with_capacity(pieces.len());
        let mut from = 0usize;
        for (seg, at, n) in pieces {
            let piece = data[from..from + n as usize].to_vec();
            handles.push(self.enqueue_piece(offset + from as u64, seg, at, piece));
            from += n as usize;
        }
        IoHandle::join(handles)
    }

    /// Queue one write that lies inside segment `seg` (at `at` within
    /// it); `offset` is its device address, which picks the queue.
    fn enqueue_piece(&self, offset: u64, seg: u64, at: u64, data: Vec<u8>) -> IoHandle {
        let handle = IoHandle::pending();
        let file = match self.files.get_or_create(seg) {
            Ok(f) => f,
            Err(e) => {
                handle.complete(Err(e));
                return handle;
            }
        };
        self.files.dirty.lock().insert(seg);
        self.txs[self.queue_for(offset)]
            .send(Job::Write {
                file,
                offset: at,
                data,
                handle: handle.clone(),
            })
            .expect("writer thread alive");
        handle
    }
}

impl Device for FileDevice {
    fn write_at(&self, offset: u64, data: Vec<u8>) -> IoHandle {
        self.enqueue(offset, data)
    }

    fn write_vectored_at(&self, offset: u64, bufs: Vec<Vec<u8>>) -> IoHandle {
        let mut handles = Vec::with_capacity(bufs.len());
        let mut at = offset;
        for data in bufs {
            let next = at + data.len() as u64;
            handles.push(self.enqueue(at, data));
            at = next;
        }
        IoHandle::join(handles)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        if !self.profile.read_latency.is_zero() {
            std::thread::sleep(self.profile.read_latency);
        }
        let mut from = 0usize;
        for (seg, at, n) in self.files.pieces(offset, buf.len() as u64) {
            let out = &mut buf[from..from + n as usize];
            from += n as usize;
            let Some(file) = self.files.get(seg) else {
                // Never written, or truncated away.
                out.fill(0);
                continue;
            };
            let mut done = 0usize;
            while done < out.len() {
                match file.read_at(&mut out[done..], at + done as u64) {
                    Ok(0) => {
                        // Past the physical end: the rest reads as zeroes.
                        out[done..].fill(0);
                        break;
                    }
                    Ok(n) => done += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let mut barriers = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            let handle = IoHandle::pending();
            tx.send(Job::Barrier(handle.clone()))
                .expect("writer thread alive");
            barriers.push(handle);
        }
        IoHandle::join(barriers).wait()?;
        let dirty = std::mem::take(&mut *self.files.dirty.lock());
        for seg in dirty {
            if let Some(file) = self.files.get(seg) {
                file.sync_data()?;
            }
        }
        if self.files.created.swap(false, Ordering::AcqRel) {
            // New segment files: make their directory entries durable.
            File::open(Files::dir(&self.files.path))?.sync_all()?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }

    /// Unlink every segment that lies wholly below `offset`, lowest
    /// first.
    fn truncate_below(&self, offset: u64) -> io::Result<()> {
        let end = offset >> self.files.segment_bits;
        let first = self.files.first.load(Ordering::Acquire);
        for seg in first..end {
            self.files.first.fetch_max(seg + 1, Ordering::AcqRel);
            self.files.open.write().remove(&seg);
            self.files.dirty.lock().remove(&seg);
            match std::fs::remove_file(Files::segment_path(&self.files.path, seg)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

impl Drop for FileDevice {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(Job::Shutdown);
        }
        for w in self.writers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

enum MemJob {
    Write {
        offset: u64,
        data: Vec<u8>,
        handle: IoHandle,
    },
    Barrier(IoHandle),
    Shutdown,
}

/// In-memory device with optional simulated write latency.
pub struct MemDevice {
    data: RwLock<Vec<u8>>,
    tx: Sender<MemJob>,
    writer: Mutex<Option<JoinHandle<()>>>,
    high_water: AtomicU64,
}

impl MemDevice {
    pub fn new() -> Arc<Self> {
        Self::with_profile(Duration::ZERO)
    }

    /// `latency` is added per write job, approximating an SSD for
    /// experiments that care about flush duration.
    pub fn with_profile(latency: Duration) -> Arc<Self> {
        let profile = IoProfile {
            write_latency: latency,
            read_latency: Duration::ZERO,
        };
        let (tx, rx) = unbounded::<MemJob>();
        let dev = Arc::new(MemDevice {
            data: RwLock::new(Vec::new()),
            tx,
            writer: Mutex::new(None),
            high_water: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&dev);
        let writer = std::thread::Builder::new()
            .name("cpr-mem-writer".into())
            .spawn(move || {
                for job in rx {
                    match job {
                        MemJob::Write {
                            offset,
                            data,
                            handle,
                        } => {
                            profile.throttle_write();
                            let Some(dev) = weak.upgrade() else { break };
                            let end = offset as usize + data.len();
                            let mut store = dev.data.write();
                            if store.len() < end {
                                store.resize(end, 0);
                            }
                            store[offset as usize..end].copy_from_slice(&data);
                            drop(store);
                            handle.complete(Ok(()));
                        }
                        MemJob::Barrier(handle) => handle.complete(Ok(())),
                        MemJob::Shutdown => break,
                    }
                }
            })
            .expect("spawn writer thread");
        *dev.writer.lock() = Some(writer);
        dev
    }
}

impl Device for MemDevice {
    fn write_at(&self, offset: u64, data: Vec<u8>) -> IoHandle {
        let handle = IoHandle::pending();
        self.high_water
            .fetch_max(offset + data.len() as u64, Ordering::AcqRel);
        self.tx
            .send(MemJob::Write {
                offset,
                data,
                handle: handle.clone(),
            })
            .expect("writer thread alive");
        handle
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let store = self.data.read();
        let start = (offset as usize).min(store.len());
        let n = (store.len() - start).min(buf.len());
        buf[..n].copy_from_slice(&store[start..start + n]);
        buf[n..].fill(0);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let handle = IoHandle::pending();
        self.tx
            .send(MemJob::Barrier(handle.clone()))
            .expect("writer thread alive");
        handle.wait()
    }

    fn len(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }
}

impl Drop for MemDevice {
    fn drop(&mut self) {
        let _ = self.tx.send(MemJob::Shutdown);
        if let Some(w) = self.writer.lock().take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A device whose segments (1 GiB) no test fills.
    fn file_device(path: impl AsRef<Path>, queues: usize) -> FileDevice {
        FileDevice::create_segmented(path, 30, queues, IoProfile::NONE).unwrap()
    }

    fn roundtrip(dev: &dyn Device) {
        let h = dev.write_at(10, vec![1, 2, 3, 4]);
        h.wait().unwrap();
        let mut buf = [0u8; 4];
        dev.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(dev.len(), 14);
    }

    #[test]
    fn mem_device_roundtrip() {
        let dev = MemDevice::new();
        roundtrip(&*dev);
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let dev = file_device(dir.path().join("log.dat"), 1);
        roundtrip(&dev);
    }

    #[test]
    fn pooled_file_device_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let dev = file_device(dir.path().join("log.dat"), 4);
        assert_eq!(dev.queues(), 4);
        roundtrip(&dev);
    }

    #[test]
    fn file_device_reopen_preserves_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("log.dat");
        {
            let dev = file_device(&path, 1);
            dev.write_at(0, b"hello world".to_vec()).wait().unwrap();
            dev.sync().unwrap();
        }
        let dev = FileDevice::open_segmented(&path, 30, 1, IoProfile::NONE).unwrap();
        assert_eq!(dev.len(), 11);
        let mut buf = [0u8; 11];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn writes_are_ordered_per_offset() {
        let dev = MemDevice::new();
        for i in 0..100u8 {
            dev.write_at(0, vec![i]);
        }
        dev.sync().unwrap();
        let mut b = [0u8; 1];
        dev.read_at(0, &mut b).unwrap();
        assert_eq!(b[0], 99, "last queued write wins");
    }

    #[test]
    fn pooled_writes_same_stripe_stay_ordered() {
        let dir = tempfile::tempdir().unwrap();
        let dev = file_device(dir.path().join("log.dat"), 4);
        for i in 0..100u8 {
            dev.write_at(0, vec![i]);
        }
        dev.sync().unwrap();
        let mut b = [0u8; 1];
        dev.read_at(0, &mut b).unwrap();
        assert_eq!(b[0], 99, "same-stripe writes route to one queue, in order");
    }

    #[test]
    fn pooled_sync_barriers_every_queue() {
        let dir = tempfile::tempdir().unwrap();
        let dev = FileDevice::create_segmented(
            dir.path().join("log.dat"),
            30,
            4,
            IoProfile {
                write_latency: Duration::from_millis(3),
                ..IoProfile::NONE
            },
        )
        .unwrap();
        let stripe = IO_CHUNK_BYTES;
        let handles: Vec<IoHandle> = (0..8)
            .map(|i| dev.write_at(i * stripe, vec![i as u8; 16]))
            .collect();
        dev.sync().unwrap();
        for h in &handles {
            assert!(h.is_done(), "sync must drain every queue");
        }
    }

    #[test]
    fn write_vectored_matches_concatenated_write() {
        let dir = tempfile::tempdir().unwrap();
        let pooled = file_device(dir.path().join("a.dat"), 4);
        let mem = MemDevice::new();
        let bufs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 100_000]).collect();
        let flat: Vec<u8> = bufs.iter().flatten().copied().collect();
        pooled.write_vectored_at(8, bufs.clone()).wait().unwrap();
        mem.write_vectored_at(8, bufs).wait().unwrap();
        for dev in [&pooled as &dyn Device, &*mem] {
            let mut got = vec![0u8; flat.len()];
            dev.read_at(8, &mut got).unwrap();
            assert_eq!(got, flat);
            assert_eq!(dev.len(), 8 + flat.len() as u64);
        }
    }

    #[test]
    fn sync_waits_for_queued_writes() {
        let dev = MemDevice::with_profile(Duration::from_millis(5));
        let h = dev.write_at(0, vec![7; 64]);
        dev.sync().unwrap();
        assert!(h.is_done(), "barrier must drain earlier writes");
    }

    #[test]
    fn read_past_end_zero_fills() {
        let dir = tempfile::tempdir().unwrap();
        let file = file_device(dir.path().join("log.dat"), 1);
        let mem = MemDevice::new();
        for dev in [&file as &dyn Device, &*mem] {
            dev.write_at(0, vec![7]).wait().unwrap();
            // For the file device the byte must be on disk before the
            // short read; the mem device applies it at write completion.
            dev.sync().unwrap();
            let mut buf = [0xffu8; 8];
            dev.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, [7, 0, 0, 0, 0, 0, 0, 0], "tail zero-fills");
            let mut past = [0xffu8; 4];
            dev.read_at(100, &mut past).unwrap();
            assert_eq!(past, [0; 4], "fully past-end read is all zeroes");
        }
    }

    /// 4 KiB segments: small enough that a test crosses several.
    const SEG_BITS: u32 = 12;

    fn segmented(dir: &Path) -> FileDevice {
        FileDevice::create_segmented(dir.join("log.dat"), SEG_BITS, 2, IoProfile::NONE).unwrap()
    }

    fn pattern(offset: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((offset + i) % 251) as u8)
            .collect()
    }

    #[test]
    fn segmented_reads_and_writes_cross_segment_boundaries() {
        let dir = tempfile::tempdir().unwrap();
        let dev = segmented(dir.path());
        // Straddles segments 0..=3; a vectored write straddles 4..=6.
        let data = pattern(4000, 9000);
        dev.write_at(4000, data.clone()).wait().unwrap();
        let (a, b) = (pattern(20_000, 3000), pattern(23_000, 2000));
        dev.write_vectored_at(20_000, vec![a.clone(), b.clone()])
            .wait()
            .unwrap();
        dev.sync().unwrap();
        assert_eq!(dev.segments(), vec![0, 1, 2, 3, 4, 5, 6]);
        let mut got = vec![0u8; 9000];
        dev.read_at(4000, &mut got).unwrap();
        assert_eq!(got, data);
        let mut got = vec![0u8; 5000];
        dev.read_at(20_000, &mut got).unwrap();
        assert_eq!(got, [a, b].concat());
        assert_eq!(dev.len(), 25_000);
        // Each segment file holds exactly its share of the address space.
        let seg1 = std::fs::metadata(dir.path().join("log.dat.1")).unwrap();
        assert_eq!(seg1.len(), 1 << SEG_BITS);
    }

    #[test]
    fn truncate_below_unlinks_exactly_the_whole_segments() {
        let dir = tempfile::tempdir().unwrap();
        let dev = segmented(dir.path());
        let seg = 1u64 << SEG_BITS;
        dev.write_at(0, pattern(0, 5 * seg as usize))
            .wait()
            .unwrap();
        dev.sync().unwrap();
        // Segment 2 holds 2.5*seg, so it stays.
        dev.truncate_below(2 * seg + seg / 2).unwrap();
        assert_eq!(dev.segments(), vec![2, 3, 4]);
        for gone in 0..2 {
            assert!(!dir.path().join(format!("log.dat.{gone}")).exists());
        }
        let mut got = vec![0xffu8; 16];
        dev.read_at(seg, &mut got).unwrap();
        assert_eq!(got, [0; 16], "a dropped segment reads as zeroes");
        let mut got = vec![0u8; 16];
        dev.read_at(2 * seg, &mut got).unwrap();
        assert_eq!(got, pattern(2 * seg, 16));
        assert!(dev.write_at(seg, vec![1; 8]).wait().is_err());
        // Truncation never moves back.
        dev.truncate_below(seg).unwrap();
        assert_eq!(dev.segments(), vec![2, 3, 4]);
    }

    #[test]
    fn reopen_finds_the_segments() {
        let dir = tempfile::tempdir().unwrap();
        let seg = 1u64 << SEG_BITS;
        {
            let dev = segmented(dir.path());
            dev.write_at(seg / 2, pattern(seg / 2, 3 * seg as usize))
                .wait()
                .unwrap();
            dev.sync().unwrap();
            dev.truncate_below(seg).unwrap();
        }
        let path = dir.path().join("log.dat");
        let dev = FileDevice::open_segmented(&path, SEG_BITS, 1, IoProfile::NONE).unwrap();
        assert_eq!(dev.segments(), vec![1, 2, 3]);
        assert_eq!(dev.len(), seg / 2 + 3 * seg);
        let mut got = vec![0u8; 2 * seg as usize];
        dev.read_at(seg, &mut got).unwrap();
        assert_eq!(got, pattern(seg, 2 * seg as usize));
        // A fresh device at the same path starts empty.
        drop(dev);
        let dev = segmented(dir.path());
        assert!(dev.segments().is_empty());
        assert_eq!(Files::existing_segments(&path).unwrap().len(), 0);
    }

    #[test]
    fn join_handle_aggregates_errors() {
        let ok = IoHandle::ready();
        let bad = IoHandle::pending();
        let joined = IoHandle::join(vec![ok, bad.clone()]);
        assert!(!joined.is_done());
        bad.complete(Err(io::Error::other("queue 3 exploded")));
        let err = joined.wait().unwrap_err();
        assert!(err.to_string().contains("queue 3 exploded"), "{err}");
        assert!(IoHandle::join(Vec::new()).wait().is_ok());
    }

    #[test]
    fn handle_wait_is_idempotent() {
        let dev = MemDevice::new();
        let h = dev.write_at(0, vec![1, 2]);
        h.wait().unwrap();
        h.wait().unwrap();
        assert!(h.is_done());
    }
}
