//! Quickstart: open a FASTER store, run a session, take a CPR commit,
//! crash, recover, and continue the session from its CPR point.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cpr::faster::{CheckpointVariant, FasterBuilder, FasterKv, FasterSession, ReadResult};

/// Post-recovery reads may go pending (records start disk-resident);
/// resolve them synchronously for this demo.
fn read_blocking(session: &mut FasterSession<u64>, key: u64) -> Option<u64> {
    match session.read(key) {
        ReadResult::Found(v) => Some(v),
        ReadResult::NotFound => None,
        ReadResult::Evicted => panic!("session evicted"),
        ReadResult::Pending => {
            let mut out = Vec::new();
            loop {
                session.refresh();
                session.drain_completions(&mut out);
                if let Some(c) = out.iter().find(|c| c.key == key) {
                    return c.value;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }
}

fn main() {
    let dir = tempfile::tempdir().expect("tempdir");
    println!("store directory: {}", dir.path().display());

    // ---- normal operation --------------------------------------------------
    {
        let kv: FasterKv<u64> = FasterBuilder::u64_sums(dir.path())
            .open()
            .expect("open store");
        let mut session = kv.start_session(/* guid */ 7);

        for k in 0..1000u64 {
            session.upsert(k, k * 2);
        }
        // Read-modify-write: running per-key sums, as in the paper's
        // extended YCSB workload.
        for _ in 0..10 {
            session.rmw(42, 1);
        }
        assert_eq!(session.read(42), ReadResult::Found(42 * 2 + 10));

        // Request a CPR commit. It returns immediately; worker sessions
        // realize the phase transitions as they refresh their epochs.
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            session.refresh();
        }
        println!(
            "commit 1 done: session 7's CPR point = serial {}",
            session.durable_serial()
        );

        // These operations are *after* the CPR point: they will be lost.
        for k in 0..10u64 {
            session.upsert(1_000_000 + k, 1);
        }
        println!("wrote 10 post-commit keys (will not survive the crash)");
        // <- simulated crash: the store is dropped without another commit.
    }

    // ---- recovery ----------------------------------------------------------
    let (kv, manifest) = FasterBuilder::u64_sums(dir.path())
        .recover()
        .expect("recover");
    let manifest = manifest.expect("one committed checkpoint");
    println!(
        "recovered checkpoint: version {} kind {:?}",
        manifest.version, manifest.kind
    );

    // Re-establish the session: FASTER reports the serial number it
    // recovered to, so the client knows exactly which requests to replay.
    let (mut session, cpr_point) = kv.continue_session(7);
    println!("session 7 recovered to serial {cpr_point}");

    assert_eq!(read_blocking(&mut session, 42), Some(42 * 2 + 10));
    assert_eq!(read_blocking(&mut session, 1_000_000), None);
    println!("pre-point state intact; post-point writes gone — CPR semantics hold");
}
