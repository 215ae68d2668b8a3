//! End-to-end CPR resume over the wire: kill the server mid-checkpoint
//! (between PREPARE and WAIT-FLUSH, via the fault injector freezing
//! storage), recover, reconnect — the client learns the recovered commit
//! point `t` and replays exactly serials `t+1..=N`.
//!
//! Mirrors the paper's Sec. 2 client contract: after the crash the
//! durable state is the committed prefix (checkpoint 1 here); everything
//! the client pushed after it — applied and acked, but not yet durable —
//! must be re-issued, and nothing at or below `t` may be applied twice.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::Phase;
use cpr_faster::{FasterBuilder, HlogConfig};
use cpr_memdb::{Durability, MemDb};
use cpr_net::wire::checkpoint_variant;
use cpr_net::{NetClient, NetEngine, NetServer, ReplayBuffer};
use cpr_storage::{FaultInjector, FaultPlan};

const GUID: u64 = 7;

fn faster_builder(dir: &std::path::Path) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 16,
            mutable_pages: 8,
            value_size: 8,
        })
        .refresh_every(8)
}

fn serve<E: NetEngine>(engine: Arc<E>) -> NetServer {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    NetServer::serve(engine, listener).unwrap()
}

/// Drive phase one against a served engine: 100 durable upserts
/// (checkpoint 1), 100 acked-but-undurable upserts, then a second
/// checkpoint crashed between PREPARE and WAIT-FLUSH. Returns the
/// client's replay buffer, as carried across the "crash".
fn run_until_crash<E: NetEngine>(
    engine: &Arc<E>,
    injector: &FaultInjector,
    state: impl Fn() -> (Phase, u64),
    variant: u8,
) -> ReplayBuffer {
    let server = serve(Arc::clone(engine));
    let mut c = NetClient::connect(server.addr(), GUID).unwrap();

    // Serials 1..=100, made durable by checkpoint 1.
    for k in 0..100u64 {
        c.upsert(k, k + 1).unwrap();
    }
    c.sync().unwrap();
    assert!(c.request_checkpoint(variant, false).unwrap());
    let cp = c.wait_commit(1, Duration::from_secs(20)).unwrap();
    assert_eq!((cp.version, cp.until_serial), (1, 100));

    // Serials 101..=200: applied and acked, never durable.
    for k in 100..200u64 {
        c.upsert(k, k + 1).unwrap();
    }
    c.sync().unwrap();
    assert_eq!(c.uncommitted(), 100);

    // Checkpoint 2 — freeze storage once the CPR shift is past PREPARE
    // but the flush has not committed. Session refreshes arrive on the
    // server's idle-poll cadence (~5ms per phase transition), so the
    // window is wide; the InProgress/WaitPending observation guarantees
    // we are between the CPR point and the manifest write.
    assert!(c.request_checkpoint(variant, false).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (phase, v) = state();
        if v == 2 && matches!(phase, Phase::InProgress | Phase::WaitPending) {
            break;
        }
        assert!(
            !(phase == Phase::Rest && v >= 3),
            "checkpoint 2 committed before the crash landed"
        );
        assert!(Instant::now() < deadline, "checkpoint 2 never left prepare");
        std::hint::spin_loop();
    }
    injector.crash_now();

    // The engine must abort the checkpoint (frozen storage), not commit.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (phase, v) = state();
        if phase == Phase::Rest && v >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "crashed checkpoint never aborted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    drop(server); // kill the server: connections die, sessions detach
    c.take_buffer()
}

/// Phase two: recover from the crashed directory, serve, and verify the
/// resume contract over the wire.
fn recover_and_resume<E: NetEngine>(engine: Arc<E>, recovered_version: u64, variant: u8) {
    let server = serve(Arc::clone(&engine));
    let addr = server.addr();

    // Before replay: the wire-visible state is exactly the committed
    // prefix (keys 0..100 from checkpoint 1).
    let mut observer = NetClient::connect(addr, 999).unwrap();
    let scan = observer.scan().unwrap();
    assert_eq!(scan.len(), 100, "recovered state is the durable prefix");
    assert!(scan
        .iter()
        .enumerate()
        .all(|(i, &(k, v))| k == i as u64 && v == k + 1));

    // The resume dance: learn t = 100, replay exactly 101..=200.
    let buffer = CRASH_BUFFER.with(|b| b.borrow_mut().take().unwrap());
    assert_eq!(
        buffer.len(),
        100,
        "un-durable suffix carried across the crash"
    );
    let mut c = NetClient::connect_with(addr, GUID, buffer).unwrap();
    assert_eq!(
        (c.resume_point().version, c.resume_point().until_serial),
        (recovered_version, 100),
        "client learns the recovered commit point"
    );
    assert_eq!(c.replayed(), 100, "exactly the uncommitted suffix replays");
    assert_eq!(c.next_serial(), 201, "serial sequence continues past N");

    // After replay: the full op stream is visible.
    let scan = observer.scan().unwrap();
    assert_eq!(scan.len(), 200);
    assert!(scan
        .iter()
        .enumerate()
        .all(|(i, &(k, v))| k == i as u64 && v == k + 1));

    // And the replayed ops become durable under the next checkpoint.
    assert!(c.request_checkpoint(variant, false).unwrap());
    let cp = c
        .wait_commit(recovered_version + 1, Duration::from_secs(20))
        .unwrap();
    assert_eq!(cp.until_serial, 200);
    assert_eq!(c.uncommitted(), 0);
    c.goodbye().unwrap();
    observer.goodbye().unwrap();
}

// The buffer crosses the crash boundary through a thread-local so the
// two phases keep symmetric engine-typed signatures.
thread_local! {
    static CRASH_BUFFER: std::cell::RefCell<Option<ReplayBuffer>> =
        const { std::cell::RefCell::new(None) };
}

fn faster_crash_resume(variant: u8) {
    let dir = tempfile::tempdir().unwrap();
    let injector = Arc::new(FaultInjector::new(FaultPlan::new()));
    {
        let kv = Arc::new(
            faster_builder(dir.path())
                .fault_injector(Arc::clone(&injector))
                .open()
                .unwrap(),
        );
        let state = {
            let kv = Arc::clone(&kv);
            move || kv.state()
        };
        let buffer = run_until_crash(&kv, &injector, state, variant);
        CRASH_BUFFER.with(|b| *b.borrow_mut() = Some(buffer));
        // Engine dropped here: in-memory state gone, storage is the
        // frozen (possibly torn) crash image.
    }
    let (kv, manifest) = faster_builder(dir.path()).recover().unwrap();
    let manifest = manifest.expect("checkpoint 1 must have survived");
    assert_eq!(
        manifest.version, 1,
        "the crashed checkpoint 2 must not commit"
    );
    recover_and_resume(Arc::new(kv), 1, variant);
}

#[test]
fn faster_fold_over_crash_resume() {
    faster_crash_resume(checkpoint_variant::FOLD_OVER);
}

#[test]
fn faster_snapshot_crash_resume() {
    faster_crash_resume(checkpoint_variant::SNAPSHOT);
}

#[test]
fn memdb_crash_resume() {
    let dir = tempfile::tempdir().unwrap();
    let injector = Arc::new(FaultInjector::new(FaultPlan::new()));
    {
        let db = Arc::new(
            MemDb::<u64>::builder(Durability::Cpr)
                .dir(dir.path())
                .fault_injector(Arc::clone(&injector))
                .open()
                .unwrap(),
        );
        let state = {
            let db = Arc::clone(&db);
            move || db.state()
        };
        let buffer = run_until_crash(&db, &injector, state, checkpoint_variant::FOLD_OVER);
        CRASH_BUFFER.with(|b| *b.borrow_mut() = Some(buffer));
    }
    let (db, manifest) = MemDb::<u64>::builder(Durability::Cpr)
        .dir(dir.path())
        .recover()
        .unwrap();
    let manifest = manifest.expect("checkpoint 1 must have survived");
    assert_eq!(
        manifest.version, 1,
        "the crashed checkpoint 2 must not commit"
    );
    recover_and_resume(Arc::new(db), 1, checkpoint_variant::FOLD_OVER);
}
