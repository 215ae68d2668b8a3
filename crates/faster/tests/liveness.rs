//! Liveness watchdog tests for the FASTER store, driven by a virtual
//! clock, for **both** checkpoint flavors: an idle straggler is
//! proxy-advanced through fold-over and snapshot commits; a session
//! parked *inside* an operation is evicted (subsequent ops fail with the
//! retryable `Evicted` status, and recovery excludes the late op); and a
//! session parked with outstanding *pending I/O* is evicted through the
//! offline registry — its pendings cancelled, the wait-pending gate
//! released, its CPR point rolled back below the cancelled serials.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use cpr_faster::{
    CheckpointVariant, Clock, FasterBuilder, FasterKv, FasterSession, HlogConfig, LivenessConfig,
    ReadResult, Status, VirtualClock,
};

const GRACE: u64 = 100;

fn liveness_opts(dir: &std::path::Path, clock: &Arc<VirtualClock>) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir).refresh_every(4).liveness(
        LivenessConfig::with_clock(Arc::clone(clock) as Arc<dyn Clock>)
            .grace_ticks(GRACE)
            .backoff_base_ticks(10)
            .backoff_jitter_ticks(5)
            .seed(42),
    )
}

/// Same, but with a log small enough that early pages leave memory and
/// reads of cold keys go down the asynchronous pending path.
fn small_liveness_opts(dir: &std::path::Path, clock: &Arc<VirtualClock>) -> FasterBuilder<u64> {
    liveness_opts(dir, clock).hlog(HlogConfig {
        page_bits: 12,
        memory_pages: 8,
        mutable_pages: 4,
        value_size: 8,
    })
}

/// Drive session `a` and the virtual clock until the commit lands. The
/// driver heartbeats on every refresh so only parked sessions go stale.
fn drive_until_committed(kv: &FasterKv<u64>, a: &mut FasterSession<u64>, clock: &VirtualClock) {
    let mut iters = 0u64;
    while kv.committed_version() < 1 {
        let _ = a.rmw(iters % 10, 1);
        a.refresh();
        clock.advance(GRACE / 2);
        std::thread::sleep(Duration::from_millis(1));
        iters += 1;
        assert!(iters < 10_000, "commit never completed despite watchdog");
    }
}

/// Read a key on a possibly larger-than-memory store, following the
/// pending path to completion if needed.
fn read_eventually(s: &mut FasterSession<u64>, key: u64) -> Option<u64> {
    match s.read(key) {
        ReadResult::Found(v) => return Some(v),
        ReadResult::NotFound => return None,
        ReadResult::Pending => {}
        ReadResult::Evicted => panic!("session evicted"),
    }
    let mut out = Vec::new();
    for _ in 0..10_000 {
        s.refresh();
        s.drain_completions(&mut out);
        if let Some(c) = out.iter().find(|c| c.key == key) {
            return c.value;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("pending read of key {key} never completed");
}

fn run_idle_straggler(variant: CheckpointVariant) {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let kv = liveness_opts(dir.path(), &clock).open().unwrap();

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let kv_b = kv.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = kv_b.start_session(7);
        for k in 100..110u64 {
            assert_eq!(b.upsert(k, 1000 + k), Status::Ok);
        }
        b.refresh();
        done_tx.send(()).unwrap();
        unpark_rx.recv().unwrap(); // park: no ops, no refreshes
        b.refresh();
        b.is_evicted()
    });
    done_rx.recv().unwrap();

    let mut a = kv.start_session(1);
    assert!(kv.request_checkpoint(variant, false));
    drive_until_committed(&kv, &mut a, &clock);

    let out = kv.last_commit_outcome();
    assert!(
        out.proxy_advanced.contains(&7),
        "idle straggler should be proxy-advanced, got {out:?}"
    );
    assert!(out.evicted.is_empty(), "idle straggler must not be evicted");
    assert_eq!(out.attempts, 1);

    unpark_tx.send(()).unwrap();
    assert!(
        !straggler.join().unwrap(),
        "a proxy-advanced session must stay alive"
    );

    drop(a);
    drop(kv);
    let (kv2, manifest) = liveness_opts(dir.path(), &clock).recover().unwrap();
    assert!(manifest.is_some());
    let mut s = kv2.start_session(2);
    for k in 100..110u64 {
        assert_eq!(
            read_eventually(&mut s, k),
            Some(1000 + k),
            "straggler prefix lost"
        );
    }
}

#[test]
fn idle_straggler_is_proxy_advanced_fold_over() {
    run_idle_straggler(CheckpointVariant::FoldOver);
}

#[test]
fn idle_straggler_is_proxy_advanced_snapshot() {
    run_idle_straggler(CheckpointVariant::Snapshot);
}

fn run_mid_op_eviction(variant: CheckpointVariant) {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let kv = liveness_opts(dir.path(), &clock).open().unwrap();

    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let kv_b = kv.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = kv_b.start_session(7);
        for k in 200..205u64 {
            assert_eq!(b.upsert(k, 2000 + k), Status::Ok);
        }
        b.refresh();
        // Hook installed after the warm-up ops: only the next op parks.
        b.set_pause_in_op(move || {
            let _ = parked_tx.send(());
            let _ = unpark_rx.recv();
        });
        // Parks inside; resumes after eviction. The op was accepted
        // before the park, so it still applies to the live store — but
        // past the capture boundary, outside the committed prefix.
        let late = b.upsert(299, 9999);
        let next = b.upsert(300, 1);
        (late, next, b.is_evicted())
    });
    parked_rx.recv().unwrap(); // B is inside an op, lease going stale

    let mut a = kv.start_session(1);
    assert!(kv.request_checkpoint(variant, false));
    drive_until_committed(&kv, &mut a, &clock);

    let out = kv.last_commit_outcome();
    assert!(
        out.evicted.contains(&7),
        "mid-op straggler should be evicted, got {out:?}"
    );

    unpark_tx.send(()).unwrap();
    let (late, next, evicted) = straggler.join().unwrap();
    assert_eq!(late, Status::Ok, "the parked op was accepted pre-eviction");
    assert_eq!(next, Status::Evicted, "post-eviction ops must fail fast");
    assert!(evicted);

    drop(a);
    drop(kv);
    let (kv2, _) = liveness_opts(dir.path(), &clock).recover().unwrap();
    let mut s = kv2.start_session(2);
    for k in 200..205u64 {
        assert_eq!(
            read_eventually(&mut s, k),
            Some(2000 + k),
            "committed prefix lost"
        );
    }
    assert_eq!(
        read_eventually(&mut s, 299),
        None,
        "late op leaked into the recovered prefix"
    );
}

#[test]
fn mid_op_straggler_is_evicted_fold_over() {
    run_mid_op_eviction(CheckpointVariant::FoldOver);
}

#[test]
fn mid_op_straggler_is_evicted_snapshot() {
    run_mid_op_eviction(CheckpointVariant::Snapshot);
}

/// A parked session with outstanding pending I/O wedges the wait-pending
/// gate (its pre-point pendings can never complete). The watchdog evicts
/// it through the offline registry: the pendings are cancelled, their
/// latches/guards/gate counts released, and the session's CPR point is
/// rolled back below the earliest cancelled serial — so recovery claims
/// exactly its completed ops.
#[test]
fn parked_session_with_pending_io_is_evicted_and_cancelled() {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let kv = small_liveness_opts(dir.path(), &clock).open().unwrap();

    // Fill enough pages that the early keys are disk-resident.
    {
        let mut loader = kv.start_session(3);
        for k in 0..2000u64 {
            loader.upsert(k, k);
        }
        for _ in 0..10_000 {
            if loader.pending_len() == 0 {
                break;
            }
            loader.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(loader.pending_len(), 0, "preload pendings never drained");
    }

    let (parked_tx, parked_rx) = mpsc::channel::<usize>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let kv_b = kv.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = kv_b.start_session(7);
        // Completed ops: these are B's committed prefix.
        for k in 3000..3005u64 {
            assert_eq!(b.upsert(k, 3000 + k), Status::Ok);
        }
        b.refresh();
        // Now issue cold reads until some go pending, then park without
        // ever completing them.
        let mut pendings = 0;
        for k in 0..2000u64 {
            if matches!(b.read(k), ReadResult::Pending) {
                pendings = b.pending_len();
                if pendings >= 2 {
                    break;
                }
            }
        }
        parked_tx.send(pendings).unwrap();
        unpark_rx.recv().unwrap(); // park with pendings outstanding
        b.refresh();
        (b.is_evicted(), b.pending_len())
    });
    let pendings = parked_rx.recv().unwrap();
    assert!(pendings > 0, "test setup: no read went pending");

    let mut a = kv.start_session(1);
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
    drive_until_committed(&kv, &mut a, &clock);

    let out = kv.last_commit_outcome();
    assert!(
        out.evicted.contains(&7),
        "pending-holding straggler should be evicted, got {out:?}"
    );

    unpark_tx.send(()).unwrap();
    let (evicted, left) = straggler.join().unwrap();
    assert!(evicted);
    assert_eq!(left, 0, "cancelled pendings must be dropped on refresh");

    drop(a);
    drop(kv);
    let (kv2, _) = small_liveness_opts(dir.path(), &clock).recover().unwrap();
    let mut s = kv2.start_session(2);
    for k in 3000..3005u64 {
        assert_eq!(
            read_eventually(&mut s, k),
            Some(3000 + k),
            "straggler's completed prefix lost"
        );
    }
}
