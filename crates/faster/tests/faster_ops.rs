//! Operational tests for the FASTER store: regional behaviour, pending
//! I/O for disk-resident records, deletes, sessions.

use std::time::{Duration, Instant};

use cpr_faster::{
    CheckpointVariant, FasterBuilder, FasterKv, FasterSession, HlogConfig, OpKind, ReadResult,
    Status,
};

fn small_opts(dir: &std::path::Path) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir).hlog(HlogConfig {
        page_bits: 12,
        memory_pages: 8,
        mutable_pages: 4,
        value_size: 8,
    })
}

#[test]
fn upsert_read_roundtrip() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    for k in 0..100u64 {
        assert_eq!(s.upsert(k, k * 10), Status::Ok);
    }
    for k in 0..100u64 {
        assert_eq!(s.read(k), ReadResult::Found(k * 10));
    }
    assert_eq!(s.read(12345), ReadResult::NotFound);
}

#[test]
fn rmw_accumulates_sums() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    for _ in 0..10 {
        assert_eq!(s.rmw(7, 5), Status::Ok);
    }
    assert_eq!(s.read(7), ReadResult::Found(50), "rmw initializes to input");
}

#[test]
fn delete_hides_key_and_reinsert_works() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    s.upsert(9, 99);
    assert_eq!(s.delete(9), Status::Ok);
    assert_eq!(s.read(9), ReadResult::NotFound);
    s.upsert(9, 100);
    assert_eq!(s.read(9), ReadResult::Found(100));
}

#[test]
fn updates_in_readonly_region_copy_to_tail() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    // Fill several pages so early keys fall below the read-only offset.
    for k in 0..1000u64 {
        s.upsert(k, k);
    }
    s.refresh();
    // Key 0 is deep in the read-only (or evicted) region now; an update
    // must still land.
    let st = s.upsert(0, 4242);
    if st == Status::Pending {
        // Disk-resident: wait for the IO to complete.
        for _ in 0..1000 {
            s.refresh();
            if s.pending_len() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(s.pending_len(), 0, "pending upsert never completed");
    }
    match s.read(0) {
        ReadResult::Found(v) => assert_eq!(v, 4242),
        ReadResult::Pending => {
            let mut out = Vec::new();
            for _ in 0..1000 {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out.iter().find(|c| c.kind == OpKind::Read && c.key == 0) {
                    assert_eq!(c.value, Some(4242));
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("pending read never completed");
        }
        ReadResult::NotFound => panic!("key 0 lost"),
        ReadResult::Evicted => panic!("session evicted"),
    }
}

#[test]
fn disk_resident_reads_complete_via_pending_path() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    // Push enough data that early pages are evicted (8 frames of 4 KiB,
    // 24-byte records → ~170/page; 10k records ≈ 60 pages).
    for k in 0..10_000u64 {
        s.upsert(k, k + 1);
    }
    s.refresh();
    assert!(kv.hlog().head() > 0, "eviction should have happened");

    // Early keys are on disk: reads go pending and complete with the
    // right values.
    let mut pending_keys = Vec::new();
    for k in 0..50u64 {
        match s.read(k) {
            ReadResult::Found(v) => assert_eq!(v, k + 1),
            ReadResult::NotFound => panic!("key {k} lost"),
            ReadResult::Pending => pending_keys.push(k),
            ReadResult::Evicted => panic!("session evicted"),
        }
    }
    assert!(
        !pending_keys.is_empty(),
        "expected some disk-resident reads (head {})",
        kv.hlog().head()
    );
    let mut out = Vec::new();
    for _ in 0..2000 {
        s.refresh();
        s.drain_completions(&mut out);
        if s.pending_len() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(s.pending_len(), 0, "pending reads stuck");
    for c in &out {
        if c.kind == OpKind::Read {
            assert_eq!(c.value, Some(c.key + 1), "key {}", c.key);
        }
    }
    let done: std::collections::HashSet<u64> = out
        .iter()
        .filter(|c| c.kind == OpKind::Read)
        .map(|c| c.key)
        .collect();
    for k in pending_keys {
        assert!(done.contains(&k), "read of key {k} never completed");
    }
}

#[test]
fn rmw_on_disk_resident_key_uses_fetched_base() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    s.upsert(5, 1000);
    for k in 100..10_000u64 {
        s.upsert(k, k); // push key 5 to disk
    }
    s.refresh();
    let st = s.rmw(5, 7);
    if st == Status::Pending {
        for _ in 0..2000 {
            s.refresh();
            if s.pending_len() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(s.pending_len(), 0);
    }
    // Now the updated record is at the tail: read is immediate.
    assert_eq!(s.read(5), ReadResult::Found(1007));
}

#[test]
fn two_sessions_see_each_others_writes() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut a = kv.start_session(1);
    let mut b = kv.start_session(2);
    a.upsert(1, 11);
    assert_eq!(b.read(1), ReadResult::Found(11));
    b.upsert(1, 22);
    assert_eq!(a.read(1), ReadResult::Found(22));
}

#[test]
fn serial_numbers_are_monotone_per_session() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    assert_eq!(s.serial(), 0);
    s.upsert(1, 1);
    s.read(1);
    s.rmw(1, 1);
    assert_eq!(s.serial(), 3);
}

#[test]
fn concurrent_rmw_sums_are_exact() {
    // The canonical atomicity test: N threads × M increments on shared
    // keys must sum exactly.
    let dir = tempfile::tempdir().unwrap();
    let opts = small_opts(dir.path()).refresh_every(16);
    let kv = opts.open().unwrap();
    const THREADS: u64 = 4;
    const INCR: u64 = 2000;
    const KEYS: u64 = 8;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let kv = kv.clone();
            std::thread::spawn(move || {
                let mut s = kv.start_session(t);
                for i in 0..INCR {
                    s.rmw(i % KEYS, 1);
                }
                // Drain anything pending before the session drops.
                for _ in 0..1000 {
                    if s.pending_len() == 0 {
                        break;
                    }
                    s.refresh();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                assert_eq!(s.pending_len(), 0);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut s = kv.start_session(99);
    let mut total = 0u64;
    for k in 0..KEYS {
        match s.read(k) {
            ReadResult::Found(v) => total += v,
            other => panic!("key {k}: {other:?}"),
        }
    }
    assert_eq!(total, THREADS * INCR, "lost or duplicated increments");
}

/// Two keys that share a bucket and a 14-bit tag in the default
/// 4096-bucket index, so both hang off one index slot.
const SLOT_MATES: (u64, u64) = (1_001_859, 1_003_366);

/// Upsert `SLOT_MATES.0`, then `SLOT_MATES.1`, then enough filler to push
/// both to disk: the slot's chain then starts on disk at the second key's
/// record, and the first key's record lies one hop further down.
fn slot_mates_on_disk(s: &mut FasterSession<u64>, kv: &FasterKv<u64>) {
    let (first, second) = SLOT_MATES;
    assert_eq!(s.upsert(first, 11), Status::Ok);
    assert_eq!(s.upsert(second, 22), Status::Ok);
    for k in 0..10_000u64 {
        s.upsert(k, k);
    }
    s.refresh();
    assert!(kv.hlog().head() > 0, "eviction should have happened");
}

/// Refresh until a pending op of `kind` on `key` completes or `deadline`
/// passes; returns its completion value. Filler upserts can also complete
/// through the pending path, so completions are matched by key.
fn await_completion(
    s: &mut FasterSession<u64>,
    kind: OpKind,
    key: u64,
    deadline: Instant,
) -> Option<Option<u64>> {
    let mut out = Vec::new();
    while Instant::now() < deadline {
        s.refresh();
        s.drain_completions(&mut out);
        if let Some(c) = out.iter().find(|c| c.kind == kind && c.key == key) {
            return Some(c.value);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

#[test]
fn cold_read_past_another_keys_disk_record_completes() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    slot_mates_on_disk(&mut s, &kv);
    let (first, second) = SLOT_MATES;
    let deadline = || Instant::now() + Duration::from_secs(3);

    assert_eq!(s.read(first), ReadResult::Pending, "record must be on disk");
    let got = await_completion(&mut s, OpKind::Read, first, deadline());
    assert_eq!(got, Some(Some(11)), "cold read stuck or wrong");

    // An RMW resolving the same deeper record must apply exactly once.
    assert_eq!(s.rmw(first, 5), Status::Pending);
    assert!(
        await_completion(&mut s, OpKind::Rmw, first, deadline()).is_some(),
        "cold rmw stuck"
    );
    assert_eq!(s.read(first), ReadResult::Found(16));
    // The slot mate's record, first on disk, still reads back.
    let got = match s.read(second) {
        ReadResult::Found(v) => Some(Some(v)),
        ReadResult::Pending => await_completion(&mut s, OpKind::Read, second, deadline()),
        other => panic!("slot mate: {other:?}"),
    };
    assert_eq!(got, Some(Some(22)));
}

#[test]
fn checkpoint_completes_while_cold_read_is_pending() {
    let dir = tempfile::tempdir().unwrap();
    let kv = small_opts(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    slot_mates_on_disk(&mut s, &kv);
    let (first, _) = SLOT_MATES;

    assert_eq!(s.read(first), ReadResult::Pending, "record must be on disk");
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
    let deadline = Instant::now() + Duration::from_secs(5);
    while kv.committed_version() < 1 && Instant::now() < deadline {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        kv.committed_version() >= 1,
        "checkpoint stuck behind a pending cold read (phase {:?})",
        kv.state()
    );
}

#[test]
fn cold_rmw_restarts_when_newer_records_are_evicted_meanwhile() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = tempfile::tempdir().unwrap();
    // No automatic refresh: the pending RMW is retried only when the
    // test says so.
    let kv = small_opts(dir.path())
        .refresh_every(u64::MAX)
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    slot_mates_on_disk(&mut s, &kv);
    let (first, _) = SLOT_MATES;
    let deadline = Instant::now() + Duration::from_secs(5);
    while s.pending_len() > 0 && Instant::now() < deadline {
        s.refresh();
    }
    assert_eq!(s.rmw(first, 5), Status::Pending, "record must be on disk");

    // Another session upserts a newer record of the key while this one
    // keeps appending (which keeps its epoch moving) but never retries
    // the RMW; the appends then push the newer record to disk as well.
    let upserted = AtomicBool::new(false);
    let mut filler = 20_000u64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut b = kv.start_session(2);
            let _ = b.upsert(first, 100);
            while b.pending_len() > 0 && Instant::now() < deadline {
                b.refresh();
            }
            upserted.store(true, Ordering::SeqCst);
        });
        while !upserted.load(Ordering::SeqCst) {
            s.upsert(filler, filler);
            filler += 1;
            // Leave the CPU to the other session and the I/O threads.
            std::thread::sleep(Duration::from_micros(50));
        }
    });
    for _ in 0..10_000 {
        s.upsert(filler, filler);
        filler += 1;
    }

    assert!(
        await_completion(&mut s, OpKind::Rmw, first, deadline).is_some(),
        "cold rmw stuck"
    );
    // The chain now enters the disk above the RMW's first fetch: the RMW
    // must restart there and build on the upsert, not on the older record.
    let got = match s.read(first) {
        ReadResult::Found(v) => Some(Some(v)),
        ReadResult::Pending => await_completion(&mut s, OpKind::Read, first, deadline),
        other => panic!("{other:?}"),
    };
    assert_eq!(got, Some(Some(105)));
}
