//! Log compaction and truncation: a pass copies the live records of the
//! oldest region to the tail, a later commit publishes the new begin
//! address, and the log below it is gone — while reads, scans and
//! recovery see exactly the same data.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cpr_faster::{
    CheckpointVariant, FasterBuilder, FasterKv, FasterSession, HlogConfig, ReadResult, Status,
    VersionGrain,
};

const KEYS: u64 = 300;

fn opts(dir: &Path, grain: VersionGrain) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12, // 4 KiB pages, 16 KiB segments
            memory_pages: 64,
            // Small, so snapshot commits (which leave the mutable region
            // updatable in place) also leave dead records behind.
            mutable_pages: 1,
            value_size: 8,
        })
        .grain(grain)
        .refresh_every(8)
}

fn commit(kv: &FasterKv<u64>, s: &mut FasterSession<u64>, variant: CheckpointVariant) {
    let target = kv.committed_version().0 + 1;
    let deadline = Instant::now() + Duration::from_secs(20);
    while !kv.request_checkpoint(variant, false) {
        s.refresh();
        assert!(Instant::now() < deadline, "checkpoint never started");
    }
    while kv.committed_version().0 < target {
        s.refresh();
        assert!(Instant::now() < deadline, "commit never landed");
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// RMW every key `rounds` times, committing between rounds, so most of
/// the log is dead copies.
fn churn(
    kv: &FasterKv<u64>,
    s: &mut FasterSession<u64>,
    model: &mut BTreeMap<u64, u64>,
    rounds: u64,
    variant: CheckpointVariant,
) {
    for r in 0..rounds {
        for k in 0..KEYS {
            // Leave a third of the keys cold: their only records sit in
            // the oldest segments, so a pass must copy them.
            if r > 0 && k % 3 == 0 {
                continue;
            }
            assert_ne!(s.rmw(k, k + r), Status::Evicted);
            *model.entry(k).or_default() += k + r;
        }
        if r % 4 == 3 {
            // Delete a few keys, then bring some back.
            s.delete(r);
            model.remove(&r);
        }
        commit(kv, s, variant);
    }
    while s.pending_len() > 0 {
        s.refresh();
    }
}

fn read(s: &mut FasterSession<u64>, key: u64) -> Option<u64> {
    match s.read(key) {
        ReadResult::Found(v) => Some(v),
        ReadResult::NotFound => None,
        ReadResult::Evicted => panic!("evicted"),
        ReadResult::Pending => {
            let mut out = Vec::new();
            for _ in 0..20_000 {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out.iter().find(|c| c.key == key) {
                    return c.value;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            panic!("read of {key} never completed");
        }
    }
}

fn segments(dir: &Path) -> Vec<u64> {
    let mut segs: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("log.dat.").and_then(|n| n.parse().ok())
        })
        .collect();
    segs.sort_unstable();
    segs
}

/// Compact everything a pass may take, then commit until the new begin
/// address is published and the log below it is given back.
fn compact_and_publish(
    kv: &FasterKv<u64>,
    s: &mut FasterSession<u64>,
    variant: CheckpointVariant,
) -> u64 {
    let before = kv.hlog().begin_address();
    let stats = kv.compact_log(u64::MAX).unwrap();
    // `None` if a background pass got there first; its begin is then
    // published by the commit below all the same.
    if let Some(st) = stats {
        assert!(st.until > before, "{st:?}");
    }
    commit(kv, s, variant);
    let after = kv.hlog().begin_address();
    assert!(after > before, "begin stayed at {before}");
    after
}

fn compaction_keeps_the_data(variant: CheckpointVariant, grain: VersionGrain) {
    let dir = tempfile::tempdir().unwrap();
    let mut model = BTreeMap::new();
    let expect: Vec<(u64, u64)>;
    let begin;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        churn(&kv, &mut s, &mut model, 30, variant);
        expect = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(kv.scan_all().unwrap(), expect, "before compaction");
        begin = compact_and_publish(&kv, &mut s, variant);
        let bits = kv.hlog().segment_bits();
        assert_eq!(kv.scan_all().unwrap(), expect, "after truncation");
        for k in 0..KEYS {
            assert_eq!(read(&mut s, k), model.get(&k).copied(), "key {k}");
        }
        // The segments below it go right after the commit is reported.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut segs = segments(dir.path());
        assert!(!segs.is_empty());
        while segs.iter().any(|&seg| seg < begin >> bits) {
            assert!(Instant::now() < deadline, "{segs:?} below {begin}");
            std::thread::sleep(Duration::from_millis(1));
            segs = segments(dir.path());
        }
        // Writes keep working on top of the compacted log.
        for k in 0..KEYS {
            assert_ne!(s.rmw(k, 1), Status::Evicted);
            *model.entry(k).or_default() += 1;
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
        commit(&kv, &mut s, variant);
    }
    let mut digests = Vec::new();
    for threads in [1, 2, 4] {
        let (kv, m) = opts(dir.path(), grain)
            .io_threads(threads)
            .recover()
            .unwrap();
        let m = m.expect("committed");
        assert!(m.begin_address.unwrap() >= begin, "{m:?}");
        assert_eq!(kv.hlog().begin_address(), m.begin_address.unwrap());
        let got = kv.scan_all().unwrap();
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "recovered at {threads} threads");
        let mut s = kv.start_session(2);
        for k in 0..KEYS {
            assert_eq!(read(&mut s, k), model.get(&k).copied(), "key {k}");
        }
        drop(s);
        digests.push(kv.index_digest());
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:x?}");
}

#[test]
fn foldover_compaction_keeps_the_data() {
    compaction_keeps_the_data(CheckpointVariant::FoldOver, VersionGrain::Fine);
}

#[test]
fn snapshot_compaction_keeps_the_data() {
    compaction_keeps_the_data(CheckpointVariant::Snapshot, VersionGrain::Coarse);
}

/// Without explicit passes, the background rule keeps the log span
/// within a few segments (here 16 KiB each, twice the live bytes) however
/// long the store runs: 100 rounds write about 30 segments.
#[test]
fn background_compaction_bounds_the_log() {
    let dir = tempfile::tempdir().unwrap();
    let kv = opts(dir.path(), VersionGrain::Fine).open().unwrap();
    let mut s = kv.start_session(1);
    let mut model = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    for _ in 0..100 {
        churn(&kv, &mut s, &mut model, 1, CheckpointVariant::FoldOver);
        assert!(Instant::now() < deadline, "too slow");
    }
    let segment = 1 << kv.hlog().segment_bits();
    assert!(kv.hlog().tail() > 25 * segment, "{}", kv.hlog().tail());
    let span = kv.hlog().tail() - kv.hlog().begin_address();
    // A pass starts past 3x the live bytes (or two segments), frees
    // whole segments, and its begin takes effect one commit later.
    assert!(span <= 8 * segment, "span {span}");
    let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(kv.scan_all().unwrap(), expect);
}
