//! End-to-end observability tests: a live `cpr_metrics::Registry` wired
//! through both engines must produce complete checkpoint timelines
//! (REST → prepare → … → REST), op-latency histograms, and epoch /
//! storage instrumentation — while a disabled registry stays empty.

use std::sync::Arc;
use std::time::Duration;

use cpr_faster::{CheckpointVariant, FasterKv, ReadResult, Status};
use cpr_memdb::{Access, Durability, MemDb, TxnRequest};
use cpr_metrics::{CheckpointTimeline, Registry};

/// The tracer's phase labels, in transition order, for one engine.
fn phase_labels(t: &CheckpointTimeline) -> Vec<&str> {
    t.phases.iter().map(|p| p.phase.as_str()).collect()
}

/// Fold-over AND snapshot checkpoints on FASTER must both yield complete
/// timelines walking prepare → in-progress → wait-pending → wait-flush.
#[test]
fn faster_phase_tracer_covers_both_checkpoint_variants() {
    let dir = tempfile::tempdir().unwrap();
    let metrics = Registry::new();
    let kv: FasterKv<u64> = FasterKv::builder(dir.path())
        .refresh_every(8)
        .metrics(Arc::clone(&metrics))
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    for k in 0..256u64 {
        assert_eq!(s.upsert(k, k), Status::Ok);
    }

    for (i, variant) in [CheckpointVariant::FoldOver, CheckpointVariant::Snapshot]
        .into_iter()
        .enumerate()
    {
        assert!(kv.request_checkpoint(variant, false));
        while kv.committed_version() < (i as u64 + 1) {
            s.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
        // Touch the store so the next checkpoint has fresh data.
        assert_eq!(s.read(0), ReadResult::Found(0));
    }

    let report = kv.metrics_snapshot();
    assert!(report.enabled);
    assert_eq!(report.checkpoints.len(), 2, "{:?}", report.checkpoints);

    for (t, kind) in report.checkpoints.iter().zip(["fold-over", "snapshot"]) {
        assert_eq!(t.kind, kind);
        assert!(t.committed, "checkpoint {kind} must commit");
        assert_eq!(
            phase_labels(t),
            vec!["prepare", "in-progress", "wait-pending", "wait-flush"],
            "timeline for {kind} incomplete"
        );
        assert!(t.total_secs > 0.0);
        // Each span starts where tracing left the previous one.
        for w in t.phases.windows(2) {
            assert!(w[1].enter_secs >= w[0].enter_secs);
        }
    }

    // Op instrumentation: 256 upserts + 2 reads landed in the histograms.
    assert_eq!(report.ops.writes, 256);
    assert_eq!(report.ops.reads, 2);
    assert_eq!(report.ops.committed, 258);
    assert!(report.ops.commit_latency.count > 0);
    // The epoch was bumped for every phase transition.
    assert!(
        report.epoch.bumps >= 6,
        "epoch bumps: {}",
        report.epoch.bumps
    );
    // Fold-over flushes the log through the metered device.
    assert!(report.storage.bytes_written > 0);
}

/// The memdb CPR backend must produce the same complete timeline shape
/// (its machine has no wait-pending phase).
#[test]
fn memdb_phase_tracer_yields_complete_timeline() {
    let dir = tempfile::tempdir().unwrap();
    let metrics = Registry::new();
    let db: MemDb<u64> = MemDb::builder(Durability::Cpr)
        .dir(dir.path())
        .refresh_every(4)
        .metrics(Arc::clone(&metrics))
        .open()
        .unwrap();
    for k in 0..64u64 {
        db.load(k, k);
    }
    let mut s = db.session(0);
    let mut reads = Vec::new();
    for k in 0..32u64 {
        let accesses = [(k, Access::Write)];
        let seeds = [k + 100];
        let txn = TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        s.execute(&txn, &mut reads).unwrap();
    }
    assert!(db.request_commit());
    while db.committed_version() < 1 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }

    let report = db.metrics_snapshot();
    assert!(report.enabled);
    assert_eq!(report.checkpoints.len(), 1);
    let t = &report.checkpoints[0];
    assert_eq!(t.kind, "cpr");
    assert!(t.committed);
    assert_eq!(
        phase_labels(t),
        vec!["prepare", "in-progress", "wait-flush"]
    );
    assert_eq!(report.ops.committed, 32);
    assert_eq!(report.ops.writes, 32);
    assert!(report.storage.bytes_written > 0, "capture must hit storage");
}

/// A store opened without a registry reports a disabled, empty snapshot
/// (the default no-op sink).
#[test]
fn disabled_registry_reports_empty() {
    let dir = tempfile::tempdir().unwrap();
    let kv: FasterKv<u64> = FasterKv::builder(dir.path()).open().unwrap();
    let mut s = kv.start_session(1);
    for k in 0..64u64 {
        s.upsert(k, k);
    }
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
    while kv.committed_version() < 1 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = kv.metrics_snapshot();
    assert!(!report.enabled);
    assert_eq!(report.ops.committed, 0);
    assert!(report.checkpoints.is_empty());
}
