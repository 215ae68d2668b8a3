use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use crate::EpochManager;

#[test]
fn register_release_reuses_slots() {
    let mgr = Arc::new(EpochManager::new(2));
    let g1 = mgr.register();
    let g2 = mgr.register();
    assert_eq!(mgr.registered(), 2);
    let s1 = g1.slot();
    drop(g1);
    assert_eq!(mgr.registered(), 1);
    let g3 = mgr.register();
    assert_eq!(g3.slot(), s1, "freed slot should be reused");
    drop(g2);
    drop(g3);
    assert_eq!(mgr.registered(), 0);
}

#[test]
#[should_panic(expected = "epoch table exhausted")]
fn register_panics_when_full() {
    let mgr = Arc::new(EpochManager::new(1));
    let _g = mgr.register();
    let _g2 = mgr.register();
}

#[test]
fn current_epoch_starts_at_one_and_bumps() {
    let mgr = Arc::new(EpochManager::new(4));
    assert_eq!(mgr.current(), 1);
    let g = mgr.register();
    assert_eq!(g.bump_epoch(|| {}), 2);
    assert_eq!(mgr.current(), 2);
}

#[test]
fn safe_epoch_tracks_slowest_thread() {
    let mgr = Arc::new(EpochManager::new(4));
    let g1 = mgr.register();
    let g2 = mgr.register();
    g1.bump_epoch(|| {});
    g1.refresh(); // g1 at 2, g2 still at 1
    assert_eq!(mgr.compute_safe(), 0, "g2 pins epoch 1");
    g2.refresh();
    assert_eq!(mgr.compute_safe(), 1, "both past epoch 1 now");
    drop(g1);
    drop(g2);
}

#[test]
fn action_fires_exactly_once_when_safe() {
    let mgr = Arc::new(EpochManager::new(4));
    let g1 = mgr.register();
    let g2 = mgr.register();
    let count = Arc::new(AtomicUsize::new(0));
    let c = count.clone();
    g1.bump_epoch(move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    g1.refresh();
    assert_eq!(count.load(Ordering::SeqCst), 0, "g2 has not refreshed");
    g2.refresh();
    assert_eq!(count.load(Ordering::SeqCst), 1);
    g1.refresh();
    g2.refresh();
    assert_eq!(count.load(Ordering::SeqCst), 1, "must not re-fire");
}

#[test]
fn conditional_action_waits_for_condition() {
    let mgr = Arc::new(EpochManager::new(4));
    let g = mgr.register();
    let flag = Arc::new(AtomicBool::new(false));
    let fired = Arc::new(AtomicBool::new(false));
    let (fl, fi) = (flag.clone(), fired.clone());
    g.bump_epoch_with(
        move || fl.load(Ordering::SeqCst),
        move || fi.store(true, Ordering::SeqCst),
    );
    g.refresh();
    assert!(!fired.load(Ordering::SeqCst), "epoch safe but cond false");
    flag.store(true, Ordering::SeqCst);
    g.refresh();
    assert!(fired.load(Ordering::SeqCst));
}

#[test]
fn dropping_last_guard_drains_pending_actions() {
    let mgr = Arc::new(EpochManager::new(4));
    let g = mgr.register();
    let fired = Arc::new(AtomicBool::new(false));
    let f = fired.clone();
    g.bump_epoch(move || f.store(true, Ordering::SeqCst));
    assert_eq!(mgr.pending_actions(), 1);
    drop(g); // release must not strand the action
    assert!(fired.load(Ordering::SeqCst));
    assert_eq!(mgr.pending_actions(), 0);
}

#[test]
fn action_can_bump_again_reentrantly() {
    let mgr = Arc::new(EpochManager::new(4));
    let g = mgr.register();
    let stage = Arc::new(AtomicUsize::new(0));
    let s1 = stage.clone();
    let mgr2 = Arc::clone(&mgr);
    g.bump_epoch(move || {
        s1.store(1, Ordering::SeqCst);
        let s2 = s1.clone();
        mgr2.bump_epoch(
            None,
            Box::new(move || {
                s2.store(2, Ordering::SeqCst);
            }),
        );
    });
    g.refresh();
    assert_eq!(stage.load(Ordering::SeqCst), 1);
    g.refresh();
    assert_eq!(stage.load(Ordering::SeqCst), 2);
}

#[test]
fn chained_actions_fire_in_epoch_order() {
    let mgr = Arc::new(EpochManager::new(4));
    let g = mgr.register();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..4u64 {
        let o = order.clone();
        g.bump_epoch(move || o.lock().push(i));
        g.refresh();
    }
    assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
}

#[test]
fn concurrent_refresh_fires_every_action_once() {
    const THREADS: usize = 8;
    const BUMPS: usize = 50;
    let mgr = Arc::new(EpochManager::new(THREADS + 1));
    let fired = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let mgr = Arc::clone(&mgr);
            let stop = stop.clone();
            thread::spawn(move || {
                let g = mgr.register();
                while !stop.load(Ordering::Relaxed) {
                    g.refresh();
                    std::hint::spin_loop();
                }
            })
        })
        .collect();

    let g = mgr.register();
    for _ in 0..BUMPS {
        let f = fired.clone();
        g.bump_epoch(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        g.refresh();
        // Give workers a chance to publish.
        while mgr.pending_actions() > 2 {
            g.refresh();
            thread::yield_now();
        }
    }
    // Drain the tail.
    while mgr.pending_actions() > 0 {
        g.refresh();
        thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(fired.load(Ordering::SeqCst), BUMPS);
}

#[test]
fn safe_epoch_is_monotone_under_concurrency() {
    const THREADS: usize = 4;
    let mgr = Arc::new(EpochManager::new(THREADS));
    let stop = Arc::new(AtomicBool::new(false));
    let max_seen = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let mgr = Arc::clone(&mgr);
            let stop = stop.clone();
            let max_seen = max_seen.clone();
            thread::spawn(move || {
                let g = mgr.register();
                for _ in 0..2000 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    g.bump_epoch(|| {});
                    g.refresh();
                    let s = mgr.safe();
                    let prev = max_seen.fetch_max(s, Ordering::SeqCst);
                    assert!(
                        s >= prev.min(s),
                        "safe epoch regressed: saw {s} after {prev}"
                    );
                    let cur = mgr.current();
                    assert!(s < cur, "invariant Es < E violated: {s} >= {cur}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
}

#[test]
fn release_stale_unpins_safe_epoch() {
    let mgr = Arc::new(EpochManager::new(4));
    let g1 = mgr.register();
    let g2 = mgr.register(); // the "parked" thread: never refreshes again
    g2.refresh();
    g1.bump_epoch(|| {});
    g1.refresh();
    assert_eq!(mgr.compute_safe(), 0, "g2 pins epoch 1");
    assert!(mgr.release_stale(g2.slot()));
    assert!(mgr.release_stale(g2.slot()), "idempotent on stale");
    assert_eq!(mgr.compute_safe(), 1, "stale slot no longer pins");
    assert_eq!(mgr.stale(), 1);
    drop(g2);
    assert_eq!(mgr.stale(), 0, "owner drop frees a stale slot");
    drop(g1);
}

#[test]
fn release_stale_fires_blocked_actions() {
    let mgr = Arc::new(EpochManager::new(4));
    let g1 = mgr.register();
    let parked = mgr.register();
    let fired = Arc::new(AtomicBool::new(false));
    let f = fired.clone();
    g1.bump_epoch(move || f.store(true, Ordering::SeqCst));
    g1.refresh();
    assert!(
        !fired.load(Ordering::SeqCst),
        "parked guard blocks the drain"
    );
    mgr.release_stale(parked.slot());
    g1.refresh();
    assert!(fired.load(Ordering::SeqCst));
    drop(parked);
    drop(g1);
}

#[test]
fn stale_slot_is_not_reused_and_owner_resurrects() {
    let mgr = Arc::new(EpochManager::new(2));
    let parked = mgr.register();
    mgr.release_stale(parked.slot());
    let other = mgr.register();
    assert_ne!(other.slot(), parked.slot(), "stale slot must stay claimed");
    // The owner was merely parked: its next refresh resurrects the slot.
    parked.refresh();
    assert_eq!(mgr.stale(), 0);
    assert_eq!(parked.local(), mgr.current());
    // And it pins the safe epoch again.
    other.bump_epoch(|| {});
    other.refresh();
    assert!(mgr.compute_safe() < parked.local());
    drop(parked);
    drop(other);
}

#[test]
fn release_stale_on_free_slot_is_noop() {
    let mgr = Arc::new(EpochManager::new(2));
    assert!(!mgr.release_stale(0));
    let g = mgr.register();
    let s = g.slot();
    drop(g);
    assert!(!mgr.release_stale(s));
}

#[test]
fn exit_sentinel_frees_slot_of_dead_thread() {
    let mgr = Arc::new(EpochManager::new(2));
    let g1 = mgr.register();
    let mgr2 = Arc::clone(&mgr);
    thread::spawn(move || {
        let mut g = mgr2.register();
        g.arm_exit_sentinel();
        g.refresh();
        // Simulate a client that dies without tearing down its session:
        // the guard is leaked, so only the sentinel can free the slot.
        std::mem::forget(g);
    })
    .join()
    .unwrap();
    assert_eq!(mgr.registered(), 1, "dead thread's slot was reclaimed");
    // The freed slot no longer pins the safe epoch.
    g1.bump_epoch(|| {});
    g1.refresh();
    assert_eq!(mgr.safe(), mgr.current() - 1);
    drop(g1);
}

#[test]
fn exit_sentinel_disarms_on_normal_drop() {
    let mgr = Arc::new(EpochManager::new(1));
    let mgr2 = Arc::clone(&mgr);
    thread::spawn(move || {
        let mut g = mgr2.register();
        g.arm_exit_sentinel();
        g.refresh();
        drop(g);
        // The slot is free: a new registrant (same thread) may claim it.
        // The disarmed sentinel must not stomp the new owner at exit.
        let g2 = mgr2.register();
        g2.refresh();
        std::mem::forget(g2); // intentionally leaked, but NOT armed
    })
    .join()
    .unwrap();
    // The leaked unarmed guard still holds the slot (leak = still owner).
    assert_eq!(mgr.registered(), 1);
}

#[test]
fn local_epoch_visible_after_refresh() {
    let mgr = Arc::new(EpochManager::new(2));
    let g = mgr.register();
    g.bump_epoch(|| {});
    g.bump_epoch(|| {});
    assert!(g.local() < mgr.current());
    g.refresh();
    assert_eq!(g.local(), mgr.current());
}
