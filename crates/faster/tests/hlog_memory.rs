//! Hybrid-log frame and hash-index memory is committed lazily: opening a
//! store must not touch frames the log has not reached, nor index
//! buckets no key has reached. Kept in its own test binary so the
//! process's resident set is not shared with other tests.

#![cfg(target_os = "linux")]

use cpr_faster::{FasterBuilder, HlogConfig, ReadResult, Status};

/// The tests of this binary measure the one process's resident set, so
/// they take turns.
static RSS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Resident set size of this process, in KiB (`VmRSS` in
/// `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn opening_a_store_does_not_commit_its_frames() {
    let _turn = RSS.lock().unwrap();
    let dir = tempfile::tempdir().unwrap();
    let before = vm_rss_kib();
    // 256 frames of 4 MiB: 1 GiB of hybrid-log memory; 2^18 main and
    // 2^20 overflow buckets: 80 MiB of index.
    let kv = FasterBuilder::u64_sums(dir.path())
        .index_buckets(1 << 18)
        .hlog(HlogConfig {
            page_bits: 22,
            memory_pages: 256,
            mutable_pages: 230,
            value_size: 8,
        })
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    for k in 0..1000u64 {
        assert_eq!(s.upsert(k, k), Status::Ok);
    }
    assert_eq!(s.read(999), ReadResult::Found(999));
    let grown_mib = vm_rss_kib().saturating_sub(before) / 1024;
    assert!(
        grown_mib < 64,
        "opening a 1 GiB log and an 80 MiB index grew RSS by {grown_mib} MiB"
    );
}

/// Truncating the log hands the frames below the new begin address back
/// to the OS: the resident set drops by about the released frames.
#[test]
fn truncation_releases_frames() {
    let _turn = RSS.lock().unwrap();
    use cpr_faster::CheckpointVariant;
    use std::time::Duration;

    const KEYS: u64 = 1 << 19; // 12 MiB of records per round
    let dir = tempfile::tempdir().unwrap();
    let kv = FasterBuilder::u64_sums(dir.path())
        .index_buckets(1 << 17)
        .hlog(HlogConfig {
            page_bits: 22,
            memory_pages: 64,
            mutable_pages: 8,
            value_size: 8,
        })
        .refresh_every(1 << 12)
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    let commit = |s: &mut cpr_faster::FasterSession<u64>| {
        let v = kv.committed_version().0 + 1;
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
        while kv.committed_version().0 < v {
            s.refresh();
            std::thread::sleep(Duration::from_micros(100));
        }
    };
    // Two rounds over the hot keys, then as many cold keys, then a third
    // hot round: 48 MiB of log, the first 24 MiB dead. The live half
    // keeps the background rule (span above 3x live) from compacting.
    let round = |s: &mut cpr_faster::FasterSession<u64>, keys: std::ops::Range<u64>, v| {
        for k in keys {
            assert_eq!(s.upsert(k, v), Status::Ok);
        }
        commit(s);
    };
    round(&mut s, 0..KEYS, 1);
    round(&mut s, 0..KEYS, 2);
    round(&mut s, KEYS..2 * KEYS, 7);
    round(&mut s, 0..KEYS, 3);
    // One 16 MiB segment: four 4 MiB frames.
    let until = 16 << 20;
    assert!(kv.hlog().tail() > 2 * until);
    let before = vm_rss_kib();
    let stats = std::thread::scope(|sc| {
        let pass = sc.spawn(|| kv.compact_log(until).unwrap());
        while !pass.is_finished() {
            s.refresh();
        }
        pass.join().unwrap()
    });
    let stats = stats.expect("a pass over dead rounds");
    assert_eq!(stats.until, until);
    assert_eq!(stats.copied, 0, "every record below 16 MiB is superseded");
    commit(&mut s);
    assert_eq!(kv.hlog().begin_address(), until);
    // The frames go back once every session has refreshed.
    s.refresh();
    s.refresh();
    let released_mib = before.saturating_sub(vm_rss_kib()) / 1024;
    assert!(
        released_mib >= 12,
        "truncating 16 MiB released only {released_mib} MiB"
    );
    assert_eq!(s.read(KEYS - 1), ReadResult::Found(3));
    assert_eq!(s.read(KEYS), ReadResult::Found(7));
}
