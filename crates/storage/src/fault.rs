//! Scriptable storage fault injection for crash-recovery testing.
//!
//! A [`FaultInjector`] holds a schedule of faults indexed by a global
//! *operation counter*: every write issued through a [`FaultDevice`] (and
//! every checkpoint-store file write — see
//! [`CheckpointStore::open_with`](crate::CheckpointStore::open_with))
//! consumes one operation number and is matched against the schedule.
//! Supported faults:
//!
//! * **fail** — the operation returns an injected I/O error and nothing
//!   reaches the inner device. The counter still advances, so a retry (a
//!   new operation) succeeds: this models transient errors.
//! * **torn** — only a prefix of the data is persisted, then the
//!   operation reports failure: a torn page/manifest write.
//! * **delay** — completion is withheld for a fixed duration.
//! * **crash** — from that operation on, *every* I/O fails and the
//!   on-disk state freezes (even cleanup like
//!   [`CheckpointStore::abort`](crate::CheckpointStore::abort) becomes a
//!   no-op), exactly as if the process had died at that instant. The
//!   surviving directory can then be reopened by a fresh, fault-free
//!   store to exercise recovery.
//!
//! Schedules are either built explicitly ([`FaultPlan`] builder methods),
//! armed dynamically relative to the current counter ([`FaultInjector::
//! crash_after`] and friends — useful when a test wants "the 2nd write
//! from *now*"), or generated from a single `u64` seed
//! ([`FaultPlan::from_seed`]) so any failing torture case is replayable
//! from one printed number.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::device::{Device, IoHandle};

/// One scheduled fault, keyed by the injector's operation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Operation `op` fails with an injected error (transient: later
    /// operations succeed).
    Fail { op: u64 },
    /// Operation `op` persists only its first `keep` bytes, then fails.
    Torn { op: u64, keep: usize },
    /// Operation `op` completes only after `millis` milliseconds.
    Delay { op: u64, millis: u64 },
    /// From operation `op` on, all I/O fails and on-disk state freezes.
    Crash { op: u64 },
}

impl Fault {
    fn op(&self) -> u64 {
        match *self {
            Fault::Fail { op }
            | Fault::Torn { op, .. }
            | Fault::Delay { op, .. }
            | Fault::Crash { op } => op,
        }
    }
}

/// A replayable fault schedule. `seed` is carried along purely for
/// diagnostics (it is printed inside every injected error message).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan (faults can still be armed dynamically later).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    pub fn fail_op(mut self, op: u64) -> Self {
        self.faults.push(Fault::Fail { op });
        self
    }

    pub fn torn_op(mut self, op: u64, keep: usize) -> Self {
        self.faults.push(Fault::Torn { op, keep });
        self
    }

    pub fn delay_op(mut self, op: u64, millis: u64) -> Self {
        self.faults.push(Fault::Delay { op, millis });
        self
    }

    pub fn crash_at(mut self, op: u64) -> Self {
        self.faults.push(Fault::Crash { op });
        self
    }

    /// Derive a random schedule from `seed`: one to three faults at
    /// operations in `[0, horizon)`, with a crash as the final fault
    /// roughly half the time. Identical seeds produce identical plans.
    pub fn from_seed(seed: u64, horizon: u64) -> Self {
        let horizon = horizon.max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan {
            faults: Vec::new(),
            seed,
        };
        let n = rng.gen_range(1u32..=3);
        for _ in 0..n {
            let op = rng.gen_range(0..horizon);
            plan.faults.push(match rng.gen_range(0u32..3) {
                0 => Fault::Fail { op },
                1 => Fault::Torn {
                    op,
                    keep: rng.gen_range(0u64..256) as usize,
                },
                _ => Fault::Delay {
                    op,
                    millis: rng.gen_range(1u64..5),
                },
            });
        }
        if rng.gen_bool(0.5) {
            plan.faults.push(Fault::Crash {
                op: rng.gen_range(0..horizon),
            });
        }
        plan
    }
}

/// What the injector decided for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoVerdict {
    Ok,
    Fail,
    Torn { keep: usize },
    Delay { millis: u64 },
    Crashed,
}

/// Shared fault state consulted by every decorated I/O path. Cheap to
/// clone via `Arc`; one injector is typically shared between a
/// [`FaultDevice`] and a [`CheckpointStore`](crate::CheckpointStore) so
/// their writes draw from a single operation sequence.
pub struct FaultInjector {
    ops: AtomicU64,
    crashed: AtomicBool,
    /// Operation number at which the crash fires (`u64::MAX` = disarmed).
    crash_at: AtomicU64,
    faults: Mutex<Vec<Fault>>,
    /// Read operations draw from their own counter and schedule so that
    /// arming a read fault never perturbs the write-op numbering that
    /// every crash-schedule test is written against.
    read_ops: AtomicU64,
    read_faults: Mutex<Vec<Fault>>,
    /// Read-op number at which a crash fires (`u64::MAX` = disarmed).
    read_crash_at: AtomicU64,
    /// Deletions (checkpoint retention) count separately too.
    delete_ops: AtomicU64,
    /// Delete-op number at which a crash fires (`u64::MAX` = disarmed).
    delete_crash_at: AtomicU64,
    seed: u64,
    /// Operations that drew a non-[`IoVerdict::Ok`] verdict — surfaced
    /// as `faults_injected` in metrics reports.
    hits: AtomicU64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("ops", &self.op_count())
            .field("crashed", &self.crashed())
            .field("seed", &self.seed)
            .finish()
    }
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let crash_at = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::Crash { op } => Some(*op),
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX);
        let faults = plan
            .faults
            .into_iter()
            .filter(|f| !matches!(f, Fault::Crash { .. }))
            .collect();
        FaultInjector {
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            crash_at: AtomicU64::new(crash_at),
            faults: Mutex::new(faults),
            read_ops: AtomicU64::new(0),
            read_faults: Mutex::new(Vec::new()),
            read_crash_at: AtomicU64::new(u64::MAX),
            delete_ops: AtomicU64::new(0),
            delete_crash_at: AtomicU64::new(u64::MAX),
            seed: plan.seed,
            hits: AtomicU64::new(0),
        }
    }

    /// Injector with a seed-derived schedule over the first `horizon`
    /// operations (see [`FaultPlan::from_seed`]).
    pub fn from_seed(seed: u64, horizon: u64) -> Self {
        Self::new(FaultPlan::from_seed(seed, horizon))
    }

    /// Operations consumed so far.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// True once the simulated crash has fired (or was forced).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Crash immediately: all subsequent I/O fails, disk state freezes.
    pub fn crash_now(&self) {
        self.crashed.store(true, Ordering::Release);
    }

    /// Crash at the `n`-th operation from now (0 = the very next one).
    pub fn crash_after(&self, n: u64) {
        let at = self.op_count() + n;
        // Keep the earliest armed crash.
        self.crash_at.fetch_min(at, Ordering::AcqRel);
    }

    /// Fail (transiently) the `n`-th operation from now.
    pub fn fail_after(&self, n: u64) {
        self.arm(Fault::Fail {
            op: self.op_count() + n,
        });
    }

    /// Tear the `n`-th operation from now, keeping its first `keep` bytes.
    pub fn torn_after(&self, n: u64, keep: usize) {
        self.arm(Fault::Torn {
            op: self.op_count() + n,
            keep,
        });
    }

    /// Arm an absolute-indexed fault.
    pub fn arm(&self, fault: Fault) {
        if let Fault::Crash { op } = fault {
            self.crash_at.fetch_min(op, Ordering::AcqRel);
            return;
        }
        self.faults.lock().push(fault);
    }

    /// Consume one operation number and return its verdict. Public so
    /// out-of-crate write paths (e.g. the memdb WAL flusher) can draw
    /// from the same fault sequence as the storage layer.
    pub fn next_io(&self) -> IoVerdict {
        let op = self.ops.fetch_add(1, Ordering::AcqRel);
        if self.crashed() || op >= self.crash_at.load(Ordering::Acquire) {
            self.crashed.store(true, Ordering::Release);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return IoVerdict::Crashed;
        }
        let mut faults = self.faults.lock();
        if let Some(i) = faults.iter().position(|f| f.op() == op) {
            let f = faults.remove(i);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return match f {
                Fault::Fail { .. } => IoVerdict::Fail,
                Fault::Torn { keep, .. } => IoVerdict::Torn { keep },
                Fault::Delay { millis, .. } => IoVerdict::Delay { millis },
                Fault::Crash { .. } => unreachable!("crashes live in crash_at"),
            };
        }
        IoVerdict::Ok
    }

    /// Fail (transiently) the `n`-th *read* operation from now. Reads
    /// have their own counter ([`FaultInjector::next_read_io`]); arming
    /// read faults never shifts write-op numbering. Used to kill the
    /// recovery scan mid-flight.
    pub fn fail_read_after(&self, n: u64) {
        self.read_faults.lock().push(Fault::Fail {
            op: self.read_ops.load(Ordering::Acquire) + n,
        });
    }

    /// Crash at the `n`-th *read* operation from now: every subsequent
    /// I/O (reads and writes) fails and the on-disk state freezes.
    pub fn crash_read_after(&self, n: u64) {
        let at = self.read_ops.load(Ordering::Acquire) + n;
        self.read_crash_at.fetch_min(at, Ordering::AcqRel);
    }

    /// Consume one *read* operation number and return its verdict.
    /// Without armed read faults this only checks the crashed flag, so
    /// the default behaviour ("reads fail only after a crash") is
    /// unchanged.
    pub fn next_read_io(&self) -> IoVerdict {
        let op = self.read_ops.fetch_add(1, Ordering::AcqRel);
        if self.crashed() || op >= self.read_crash_at.load(Ordering::Acquire) {
            self.crashed.store(true, Ordering::Release);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return IoVerdict::Crashed;
        }
        let mut faults = self.read_faults.lock();
        if let Some(i) = faults.iter().position(|f| f.op() == op) {
            let f = faults.remove(i);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return match f {
                Fault::Fail { .. } => IoVerdict::Fail,
                Fault::Torn { keep, .. } => IoVerdict::Torn { keep },
                Fault::Delay { millis, .. } => IoVerdict::Delay { millis },
                Fault::Crash { .. } => IoVerdict::Crashed,
            };
        }
        IoVerdict::Ok
    }

    /// Crash at the `n`-th *delete* operation from now (0 = the next
    /// one): every subsequent I/O fails and the on-disk state freezes.
    /// Deletions have their own counter ([`FaultInjector::next_delete_io`]),
    /// so arming one never shifts write-op numbering.
    pub fn crash_delete_after(&self, n: u64) {
        let at = self.delete_ops.load(Ordering::Acquire) + n;
        self.delete_crash_at.fetch_min(at, Ordering::AcqRel);
    }

    /// Consume one *delete* operation number: `Crashed` once the
    /// simulated crash has fired (or fires here), `Ok` otherwise.
    pub fn next_delete_io(&self) -> IoVerdict {
        let op = self.delete_ops.fetch_add(1, Ordering::AcqRel);
        if self.crashed() || op >= self.delete_crash_at.load(Ordering::Acquire) {
            self.crashed.store(true, Ordering::Release);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return IoVerdict::Crashed;
        }
        IoVerdict::Ok
    }

    /// Operations that drew a fault verdict so far (fail, torn, delay,
    /// or crashed).
    pub fn fault_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The typed injected-error value for the current state (includes
    /// the seed so a failing run can be replayed from its message).
    pub fn storage_error(&self) -> crate::StorageError {
        let op = self.op_count().saturating_sub(1);
        if self.crashed() {
            crate::StorageError::Crashed {
                op,
                seed: self.seed,
            }
        } else {
            crate::StorageError::Injected {
                op,
                seed: self.seed,
            }
        }
    }

    /// [`FaultInjector::storage_error`] converted for `io::Result`
    /// plumbing.
    pub fn error(&self) -> io::Error {
        self.storage_error().into()
    }
}

/// A [`Device`] decorator applying a [`FaultInjector`]'s schedule to
/// every write. Reads draw from a *separate* read-op sequence
/// ([`FaultInjector::next_read_io`]) that is fault-free unless read
/// faults are explicitly armed, so by default reads and syncs fail only
/// after a crash and never shift the "fail the Nth *write*" numbering.
/// Each [`Device::truncate_below`] call is one *delete* operation.
pub struct FaultDevice {
    inner: Arc<dyn Device>,
    injector: Arc<FaultInjector>,
}

impl FaultDevice {
    pub fn new(inner: Arc<dyn Device>, injector: Arc<FaultInjector>) -> Self {
        FaultDevice { inner, injector }
    }

    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    fn failed_handle(&self) -> IoHandle {
        let h = IoHandle::pending();
        h.complete(Err(self.injector.error()));
        h
    }
}

impl Device for FaultDevice {
    fn write_at(&self, offset: u64, data: Vec<u8>) -> IoHandle {
        match self.injector.next_io() {
            IoVerdict::Ok => self.inner.write_at(offset, data),
            IoVerdict::Crashed | IoVerdict::Fail => self.failed_handle(),
            IoVerdict::Torn { keep } => {
                // Persist the prefix, then report failure once it lands —
                // the caller sees an error while the device holds torn
                // bytes, like a page write interrupted by power loss.
                let keep = keep.min(data.len());
                let inner_handle = self.inner.write_at(offset, data[..keep].to_vec());
                let handle = IoHandle::pending();
                let relay = handle.clone();
                let err = self.injector.error();
                std::thread::spawn(move || {
                    let _ = inner_handle.wait();
                    relay.complete(Err(err));
                });
                handle
            }
            IoVerdict::Delay { millis } => {
                let inner = Arc::clone(&self.inner);
                let handle = IoHandle::pending();
                let relay = handle.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(millis));
                    relay.complete(inner.write_at(offset, data).wait());
                });
                handle
            }
        }
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match self.injector.next_read_io() {
            IoVerdict::Ok => self.inner.read_at(offset, buf),
            IoVerdict::Delay { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.read_at(offset, buf)
            }
            IoVerdict::Fail | IoVerdict::Crashed | IoVerdict::Torn { .. } => {
                Err(self.injector.error())
            }
        }
    }

    fn sync(&self) -> io::Result<()> {
        if self.injector.crashed() {
            return Err(self.injector.error());
        }
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    /// One *delete* operation ([`FaultInjector::next_delete_io`]): a
    /// crash verdict unlinks nothing and freezes the device.
    fn truncate_below(&self, offset: u64) -> io::Result<()> {
        match self.injector.next_delete_io() {
            IoVerdict::Ok => self.inner.truncate_below(offset),
            _ => Err(self.injector.error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn faulty(plan: FaultPlan) -> (FaultDevice, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(plan));
        let inner: Arc<dyn Device> = MemDevice::new();
        (FaultDevice::new(inner, Arc::clone(&injector)), injector)
    }

    #[test]
    fn nth_write_fails_and_retry_succeeds() {
        let (dev, _inj) = faulty(FaultPlan::new().fail_op(1));
        assert!(dev.write_at(0, vec![1; 8]).wait().is_ok());
        let err = dev.write_at(8, vec![2; 8]).wait().unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // Retry is a new operation: it succeeds (transient semantics).
        assert!(dev.write_at(8, vec![2; 8]).wait().is_ok());
        let mut buf = [0u8; 8];
        dev.read_at(8, &mut buf).unwrap();
        assert_eq!(buf, [2; 8]);
    }

    #[test]
    fn torn_write_persists_prefix_then_errors() {
        let (dev, _inj) = faulty(FaultPlan::new().torn_op(1, 3));
        assert!(dev.write_at(0, vec![1; 8]).wait().is_ok());
        assert!(dev.write_at(0, vec![7; 8]).wait().is_err());
        dev.sync().unwrap();
        let mut buf = [0u8; 8];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..3], &[7, 7, 7], "torn prefix must be durable");
        assert_eq!(&buf[3..], &[1; 5], "suffix must not have landed");
    }

    #[test]
    fn crash_freezes_all_io() {
        let (dev, inj) = faulty(FaultPlan::new().crash_at(1));
        assert!(dev.write_at(0, vec![1; 8]).wait().is_ok());
        assert!(dev.write_at(8, vec![2; 8]).wait().is_err());
        assert!(inj.crashed());
        // Everything after the crash fails: writes, reads, syncs.
        assert!(dev.write_at(16, vec![3; 8]).wait().is_err());
        assert!(dev.read_at(0, &mut [0u8; 8]).is_err());
        assert!(dev.sync().is_err());
    }

    #[test]
    fn delayed_write_completes_later() {
        let (dev, _inj) = faulty(FaultPlan::new().delay_op(0, 10));
        let start = std::time::Instant::now();
        let h = dev.write_at(0, vec![9; 8]);
        assert!(h.wait().is_ok());
        assert!(start.elapsed() >= Duration::from_millis(10));
        let mut buf = [0u8; 8];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn dynamic_arming_is_relative_to_current_op() {
        let (dev, inj) = faulty(FaultPlan::new());
        assert!(dev.write_at(0, vec![0; 8]).wait().is_ok());
        inj.fail_after(1); // not the next write — the one after
        assert!(dev.write_at(8, vec![0; 8]).wait().is_ok());
        assert!(dev.write_at(16, vec![0; 8]).wait().is_err());
        inj.crash_after(0);
        assert!(dev.write_at(24, vec![0; 8]).wait().is_err());
        assert!(inj.crashed());
    }

    #[test]
    fn read_faults_have_their_own_op_sequence() {
        let (dev, inj) = faulty(FaultPlan::new());
        dev.write_at(0, vec![1; 8]).wait().unwrap();
        dev.sync().unwrap();
        let mut buf = [0u8; 8];
        inj.fail_read_after(1);
        dev.read_at(0, &mut buf).unwrap();
        assert!(dev.read_at(0, &mut buf).is_err(), "2nd read from now fails");
        dev.read_at(0, &mut buf).unwrap();
        // Arming and consuming read faults must not have consumed any
        // write ops: the very next write is op 1 (after the one above).
        inj.fail_after(0);
        assert!(dev.write_at(8, vec![2; 8]).wait().is_err());
        // A read-op crash freezes everything, like a write-op crash.
        inj.crash_read_after(0);
        assert!(dev.read_at(0, &mut buf).is_err());
        assert!(inj.crashed());
        assert!(dev.write_at(0, vec![3; 8]).wait().is_err());
    }

    #[test]
    fn truncation_draws_delete_ops_and_a_crash_unlinks_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let inner: Arc<dyn Device> = Arc::new(
            crate::FileDevice::create_segmented(
                dir.path().join("log.dat"),
                12,
                1,
                crate::IoProfile::NONE,
            )
            .unwrap(),
        );
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let dev = FaultDevice::new(inner, Arc::clone(&inj));
        dev.write_at(0, vec![5; 4 << 12]).wait().unwrap();
        dev.sync().unwrap();
        let seg = |n: u64| dir.path().join(format!("log.dat.{n}")).exists();
        dev.truncate_below(1 << 12).unwrap();
        assert!(!seg(0) && seg(1));
        // The next delete op crashes: segment 1 survives, as does the
        // write-op numbering (truncations drew no write ops).
        inj.crash_delete_after(0);
        assert!(dev.truncate_below(2 << 12).is_err());
        assert!(inj.crashed());
        assert!(seg(1) && seg(2) && seg(3));
        assert_eq!(inj.op_count(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::from_seed(0xDEAD_BEEF, 100);
        let b = FaultPlan::from_seed(0xDEAD_BEEF, 100);
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.is_empty());
        let c = FaultPlan::from_seed(0xDEAD_BEF0, 100);
        // Different seeds *may* collide, but not for these two.
        assert_ne!(a.faults, c.faults);
    }
}
