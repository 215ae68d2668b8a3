//! Hybrid-log frame and hash-index memory is committed lazily: opening a
//! store must not touch frames the log has not reached, nor index
//! buckets no key has reached. Kept in its own test binary so the
//! process's resident set is not shared with other tests.

#![cfg(target_os = "linux")]

use cpr_faster::{FasterBuilder, HlogConfig, ReadResult, Status};

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
