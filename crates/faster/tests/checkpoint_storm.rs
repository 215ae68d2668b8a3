//! Checkpoint storm: many back-to-back commits under concurrent load,
//! alternating variants, with recovery at the end. Exercises state
//! machine re-arming, incremental fold-overs, pending hand-off across
//! consecutive version shifts, and monotone CPR points.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_faster::{CheckpointVariant, FasterBuilder, HlogConfig, ReadResult, VersionGrain};

fn opts(dir: &std::path::Path, grain: VersionGrain) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 32,
            mutable_pages: 16,
            value_size: 8,
        })
        .grain(grain)
        .refresh_every(8)
}

fn storm(grain: VersionGrain) {
    const SESSIONS: u64 = 3;
    const COMMITS: u64 = 8;
    const KEYS: u64 = 64;
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
                    let mut last_durable = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Mix of ops sharing keys across sessions.
                        match n % 3 {
                            0 => {
                                s.rmw(n % KEYS, 1);
                            }
                            1 => {
                                s.upsert(KEYS + (n % KEYS), (g << 32) | n);
                            }
                            _ => {
                                let _ = s.read(n % (2 * KEYS));
                            }
                        }
                        n += 1;
                        // CPR points must be monotone throughout.
                        let d = s.durable_serial();
                        assert!(d >= last_durable, "durable prefix regressed");
                        assert!(d <= s.serial());
                        last_durable = d;
                    }
                    // Drain before exit.
                    for _ in 0..10_000 {
                        if s.pending_len() == 0 && kv.state().0 == cpr_core::Phase::Rest {
                            break;
                        }
                        s.refresh();
                        std::thread::sleep(Duration::from_micros(200));
                    }
                })
            })
            .collect();

        // Fire commits back to back, alternating every knob.
        for round in 1..=COMMITS {
            let variant = if round % 2 == 0 {
                CheckpointVariant::Snapshot
            } else {
                CheckpointVariant::FoldOver
            };
            let log_only = round % 3 == 0;
            // The state machine may still be mid-commit: spin until the
            // request is accepted.
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while !kv.request_checkpoint(variant, log_only) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "previous commit never completed (round {round}, state {:?})",
                    kv.state()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                kv.wait_for_version(round, Duration::from_secs(30)),
                "commit {round} stalled in {:?}",
                kv.state()
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(kv.committed_version(), COMMITS);
    }

    // Recovery lands on the last commit and the store is fully usable.
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.version, COMMITS);
    assert_eq!(manifest.sessions.len() as u64, SESSIONS);
    let (mut s, point) = kv.continue_session(0);
    assert_eq!(point, manifest.cpr_point(0).unwrap());
    // The store accepts new work and a fresh commit after recovery.
    s.upsert(1, 424242);
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
    while kv.committed_version() < COMMITS + 1 {
        s.refresh();
    }
    match s.read(1) {
        ReadResult::Found(v) => assert_eq!(v, 424242),
        ReadResult::Pending => {
            let mut out = Vec::new();
            loop {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out.iter().find(|c| c.key == 1) {
                    assert_eq!(c.value, Some(424242));
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        ReadResult::NotFound => panic!("post-recovery write lost"),
        ReadResult::Evicted => panic!("session evicted"),
    }
}

#[test]
fn checkpoint_storm_fine_grain() {
    storm(VersionGrain::Fine);
}

#[test]
fn checkpoint_storm_coarse_grain() {
    storm(VersionGrain::Coarse);
}
