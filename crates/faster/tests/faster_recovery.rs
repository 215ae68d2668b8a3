//! CPR checkpoint → crash → recovery tests for FASTER, across all four
//! design-variant combinations (fold-over/snapshot × fine/coarse), plus
//! log-only checkpoints and session continuation (paper Secs. 6.2–6.5).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_faster::{CheckpointVariant, FasterBuilder, HlogConfig, ReadResult, VersionGrain};

fn opts(dir: &std::path::Path, grain: VersionGrain) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 16,
            mutable_pages: 8,
            value_size: 8,
        })
        .grain(grain)
        .refresh_every(8)
}

fn read_now(s: &mut cpr_faster::FasterSession<u64>, key: u64) -> Option<u64> {
    match s.read(key) {
        ReadResult::Found(v) => Some(v),
        ReadResult::NotFound => None,
        ReadResult::Evicted => panic!("session evicted"),
        ReadResult::Pending => {
            let mut out = Vec::new();
            for _ in 0..2000 {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out
                    .iter()
                    .find(|c| c.key == key && c.kind == cpr_faster::OpKind::Read)
                {
                    return c.value;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("pending read of {key} never completed");
        }
    }
}

/// Single session: commit after 100 upserts, write 100 more, crash,
/// recover — exactly the first 100 must be visible and the session's
/// recovered CPR point must say so.
fn single_session_prefix(variant: CheckpointVariant, grain: VersionGrain, log_only: bool) {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(42);
        for k in 0..100u64 {
            s.upsert(k, k + 1);
        }
        assert!(kv.request_checkpoint(variant, log_only));
        while kv.committed_version() < 1 {
            s.refresh();
        }
        assert_eq!(s.durable_serial(), 100);
        for k in 100..200u64 {
            s.upsert(k, k + 1);
        }
        // crash without another commit
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.expect("one commit");
    assert_eq!(manifest.version, 1);
    let (mut s, point) = kv.continue_session(42);
    assert_eq!(point, 100, "recovered CPR point");
    for k in 0..100u64 {
        assert_eq!(read_now(&mut s, k), Some(k + 1), "pre-point key {k} lost");
    }
    for k in 100..200u64 {
        assert_eq!(read_now(&mut s, k), None, "post-point key {k} leaked");
    }
}

#[test]
fn foldover_fine_prefix() {
    single_session_prefix(CheckpointVariant::FoldOver, VersionGrain::Fine, false);
}
#[test]
fn foldover_coarse_prefix() {
    single_session_prefix(CheckpointVariant::FoldOver, VersionGrain::Coarse, false);
}
#[test]
fn snapshot_fine_prefix() {
    single_session_prefix(CheckpointVariant::Snapshot, VersionGrain::Fine, false);
}
#[test]
fn snapshot_coarse_prefix() {
    single_session_prefix(CheckpointVariant::Snapshot, VersionGrain::Coarse, false);
}
#[test]
fn foldover_fine_log_only_prefix() {
    // No index checkpoint: recovery replays the log from the beginning.
    single_session_prefix(CheckpointVariant::FoldOver, VersionGrain::Fine, true);
}
#[test]
fn snapshot_coarse_log_only_prefix() {
    single_session_prefix(CheckpointVariant::Snapshot, VersionGrain::Coarse, true);
}

/// Concurrent sessions on disjoint key ranges: after recovery each
/// session sees exactly its prefix up to its own CPR point.
fn concurrent_prefix(variant: CheckpointVariant, grain: VersionGrain) {
    const SESSIONS: u64 = 4;
    const KEYS: u64 = 32;
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..SESSIONS)
            .map(|g| {
                let kv = kv.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut s = kv.start_session(g);
                    let mut serial = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        serial += 1;
                        let key = g * KEYS + (serial % KEYS);
                        // value encodes the writing serial
                        s.upsert(key, serial);
                    }
                    while kv.committed_version() < 1 {
                        s.refresh();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // Drain pendings before dropping.
                    for _ in 0..1000 {
                        if s.pending_len() == 0 {
                            break;
                        }
                        s.refresh();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert!(kv.request_checkpoint(variant, false));
        assert!(kv.wait_for_version(1, Duration::from_secs(20)));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.unwrap();
    for g in 0..SESSIONS {
        let (mut s, point) = kv.continue_session(g);
        assert_eq!(point, manifest.cpr_point(g).unwrap());
        for k in 0..KEYS {
            let key = g * KEYS + k;
            let got = read_now(&mut s, key);
            // Expected: largest serial ≤ point with serial % KEYS == k.
            let expected = if point == 0 {
                None
            } else {
                let cand = point - ((point % KEYS + KEYS - k) % KEYS);
                (cand >= 1 && cand <= point).then_some(cand)
            };
            assert_eq!(
                got, expected,
                "session {g} key {key}: point {point}, got {got:?}"
            );
        }
    }
}

#[test]
fn concurrent_foldover_fine() {
    concurrent_prefix(CheckpointVariant::FoldOver, VersionGrain::Fine);
}
#[test]
fn concurrent_foldover_coarse() {
    concurrent_prefix(CheckpointVariant::FoldOver, VersionGrain::Coarse);
}
#[test]
fn concurrent_snapshot_fine() {
    concurrent_prefix(CheckpointVariant::Snapshot, VersionGrain::Fine);
}
#[test]
fn concurrent_snapshot_coarse() {
    concurrent_prefix(CheckpointVariant::Snapshot, VersionGrain::Coarse);
}

/// RMW under a concurrent checkpoint: the recovered sums must equal the
/// number of committed increments per the CPR point — i.e. the recovered
/// total equals the sum of per-session points (each op adds exactly 1).
fn rmw_checkpoint_sums(variant: CheckpointVariant, grain: VersionGrain) {
    const SESSIONS: u64 = 3;
    const KEYS: u64 = 4;
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..SESSIONS)
            .map(|g| {
                let kv = kv.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut s = kv.start_session(g);
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        s.rmw(n % KEYS, 1);
                        n += 1;
                    }
                    while kv.committed_version() < 1 || s.pending_len() > 0 {
                        s.refresh();
                        std::thread::sleep(Duration::from_millis(1));
                        if kv.committed_version() >= 1 && s.pending_len() == 0 {
                            break;
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(40));
        assert!(kv.request_checkpoint(variant, false));
        assert!(kv.wait_for_version(1, Duration::from_secs(20)));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.unwrap();
    let committed_ops: u64 = (0..SESSIONS)
        .map(|g| manifest.cpr_point(g).unwrap_or(0))
        .sum();
    let mut s = kv.start_session(99);
    let mut total = 0u64;
    for k in 0..KEYS {
        total += read_now(&mut s, k).unwrap_or(0);
    }
    assert_eq!(
        total, committed_ops,
        "recovered sums must match committed prefix exactly (all-before, none-after)"
    );
}

#[test]
fn rmw_sums_foldover_fine() {
    rmw_checkpoint_sums(CheckpointVariant::FoldOver, VersionGrain::Fine);
}
#[test]
fn rmw_sums_foldover_coarse() {
    rmw_checkpoint_sums(CheckpointVariant::FoldOver, VersionGrain::Coarse);
}
#[test]
fn rmw_sums_snapshot_fine() {
    rmw_checkpoint_sums(CheckpointVariant::Snapshot, VersionGrain::Fine);
}
#[test]
fn rmw_sums_snapshot_coarse() {
    rmw_checkpoint_sums(CheckpointVariant::Snapshot, VersionGrain::Coarse);
}

/// Two commits in sequence; recovery uses the newest.
#[test]
fn second_commit_supersedes_first() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 100);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
        s.upsert(1, 200);
        s.upsert(2, 300);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
        while kv.committed_version() < 2 {
            s.refresh();
        }
        s.upsert(3, 999); // lost
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    assert_eq!(manifest.unwrap().version, 2);
    let (mut s, point) = kv.continue_session(1);
    assert_eq!(point, 3);
    assert_eq!(read_now(&mut s, 1), Some(200));
    assert_eq!(read_now(&mut s, 2), Some(300));
    assert_eq!(read_now(&mut s, 3), None);
}

/// Deletes before the CPR point stay deleted after recovery.
#[test]
fn committed_deletes_survive_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 10);
        s.upsert(2, 20);
        s.delete(1);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let (kv, _) = opts(dir.path(), grain).recover().unwrap();
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 1), None, "committed delete lost");
    assert_eq!(read_now(&mut s, 2), Some(20));
}

/// Recovery with an evicted (disk-resident) working set: the index scan
/// must stitch records that were already on disk before the commit.
#[test]
fn recovery_with_large_log_and_eviction() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Coarse;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(5);
        for k in 0..20_000u64 {
            s.upsert(k % 5000, k);
        }
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
        for _ in 0..1000 {
            if s.pending_len() == 0 {
                break;
            }
            s.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (kv, _) = opts(dir.path(), grain).recover().unwrap();
    let (mut s, point) = kv.continue_session(5);
    assert_eq!(point, 20_000);
    // Spot-check: last writer of key k was upsert with value
    // 15_000 + k (the final round 15000..20000 covered keys 0..5000).
    for k in (0..5000u64).step_by(500) {
        assert_eq!(read_now(&mut s, k), Some(15_000 + k), "key {k}");
    }
}

/// An uncommitted checkpoint directory (crash mid-flush) is ignored.
#[test]
fn crash_during_checkpoint_falls_back_to_previous() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 111);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    // Fake a torn second checkpoint: directory without manifest.
    std::fs::create_dir_all(dir.path().join("checkpoints/cpt.99")).unwrap();
    std::fs::write(dir.path().join("checkpoints/cpt.99/index.dat"), b"junk").unwrap();
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    assert_eq!(manifest.unwrap().version, 1);
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 1), Some(111));
}

/// A manifest torn mid-write (truncated JSON) reads as *uncommitted*:
/// recovery must skip it and fall back to the previous checkpoint
/// rather than panicking on the parse.
#[test]
fn torn_manifest_reads_as_uncommitted() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 111);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    // Fake a torn later checkpoint: a manifest cut off mid-JSON, as a
    // power failure during the (non-atomic) write would leave it.
    let good = std::fs::read(dir.path().join("checkpoints/cpt.1/manifest.json")).unwrap();
    std::fs::create_dir_all(dir.path().join("checkpoints/cpt.99")).unwrap();
    std::fs::write(
        dir.path().join("checkpoints/cpt.99/manifest.json"),
        &good[..good.len() / 2],
    )
    .unwrap();
    std::fs::write(dir.path().join("checkpoints/cpt.99/index.dat"), b"junk").unwrap();
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    assert_eq!(manifest.unwrap().version, 1);
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 1), Some(111));
}

/// continue_session for an unknown guid starts from serial 0.
#[test]
fn continue_unknown_session_starts_fresh() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 1);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let (kv, _) = opts(dir.path(), grain).recover().unwrap();
    let (s, point) = kv.continue_session(777);
    assert_eq!(point, 0);
    assert_eq!(s.serial(), 0);
}

/// The recovery scan runs no more workers than its suffix has 1 MiB
/// chunks: eight I/O threads over a one- or two-chunk suffix recover the
/// same index as one.
#[test]
fn io_threads_beyond_the_suffix_chunks_recover_the_same_index() {
    let grain = VersionGrain::Fine;
    for (keys, chunks) in [(100u64, 1u64), (50_000, 2)] {
        let dir = tempfile::tempdir().unwrap();
        let mk = || opts(dir.path(), grain).index_buckets(1 << 14);
        {
            let kv = mk().open().unwrap();
            let mut s = kv.start_session(1);
            // A full commit whose index checkpoint the suffix starts at...
            s.upsert(u64::MAX, 0);
            assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
            while kv.committed_version() < 1 {
                s.refresh();
            }
            // ...then `keys` appended records and a log-only commit.
            for k in 0..keys {
                s.upsert(k, k + 1);
            }
            assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
            while kv.committed_version() < 2 {
                s.refresh();
            }
        }
        let mut digests = Vec::new();
        for threads in [1, 8] {
            let (kv, m) = mk().io_threads(threads).recover().unwrap();
            digests.push(kv.index_digest());
            let m = m.expect("committed");
            assert!(m.index_begin.is_none(), "log-only commit");
            // The suffix starts on page 0, so it spans `chunks` chunks.
            assert_eq!(m.log_end.unwrap().div_ceil(1 << 20), chunks);
            let (mut s, point) = kv.continue_session(1);
            assert_eq!(point, keys + 1);
            for k in [0, keys / 2, keys - 1] {
                assert_eq!(
                    read_now(&mut s, k),
                    Some(k + 1),
                    "key {k}, {threads} threads"
                );
            }
        }
        assert_eq!(digests[0], digests[1], "{keys} keys");
    }
}
