//! Ablations beyond the paper's figures (DESIGN.md §5): the incremental
//! (delta) checkpoint optimization of paper Sec. 4.1, and recovery time
//! across FASTER's checkpoint variants.

use std::time::{Duration, Instant};

use cpr_faster::{CheckpointVariant, FasterBuilder, HlogConfig, VersionGrain};
use cpr_memdb::{Access, Durability, MemDb, TxnRequest};
use cpr_storage::CheckpointStore;
use cpr_workload::keys::{KeyDist, Sampler};

use crate::args::Args;
use crate::report::Report;

pub fn ablation(args: &Args) {
    incremental_vs_full(args);
    recovery_time_by_variant(args);
}

/// Incremental vs full database checkpoints on a skewed write workload:
/// captured records and capture duration per commit.
fn incremental_vs_full(args: &Args) {
    let keys = args.u64("keys", 200_000);
    let ops_per_round = (keys / 4).max(1) as usize;
    let rounds = 4u64;
    let mut r = Report::new(
        "Ablation: incremental vs full memdb checkpoints (zipf 0.9 writes)",
        &["mode", "commit#", "records_captured", "capture_ms"],
    );
    for incremental in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let db: MemDb<u64> = MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(keys as usize * 2)
            .incremental(incremental)
            .open()
            .unwrap();
        for k in 0..keys {
            db.load(k, k);
        }
        let mut s = db.session(0);
        let mut reads = Vec::new();
        let mut sampler = Sampler::new(KeyDist::Zipfian { theta: 0.9 }, keys, 7);
        for round in 1..=rounds {
            for _ in 0..ops_per_round {
                let key = sampler.next_key();
                let accesses = [(key, Access::Write)];
                let seeds = [round];
                let req = TxnRequest {
                    accesses: &accesses,
                    write_seeds: &seeds,
                };
                while s.execute(&req, &mut reads).is_err() {}
            }
            db.request_commit();
            while db.committed_version() < round {
                s.refresh();
                std::thread::sleep(Duration::from_micros(200));
            }
            let store = CheckpointStore::open(dir.path()).unwrap();
            let m = store.latest().unwrap().unwrap();
            r.row(vec![
                if incremental { "incremental" } else { "full" }.into(),
                round.to_string(),
                m.records.unwrap_or(0).to_string(),
                format!(
                    "{:.2}",
                    db.last_capture_duration().unwrap_or_default().as_secs_f64() * 1000.0
                ),
            ]);
        }
    }
    r.print();
}

/// Wall-clock recovery time for FASTER by checkpoint variant and scope.
fn recovery_time_by_variant(args: &Args) {
    let keys = args.u64("keys", 200_000).min(200_000);
    let mut r = Report::new(
        "Ablation: FASTER recovery time by checkpoint variant",
        &["variant", "scope", "log_bytes", "recover_ms"],
    );
    for (variant, log_only) in [
        (CheckpointVariant::FoldOver, false),
        (CheckpointVariant::FoldOver, true),
        (CheckpointVariant::Snapshot, false),
        (CheckpointVariant::Snapshot, true),
    ] {
        let dir = tempfile::tempdir().unwrap();
        let opts = || {
            FasterBuilder::u64_sums(dir.path())
                .hlog(HlogConfig {
                    page_bits: 16,
                    memory_pages: 256,
                    mutable_pages: 230,
                    value_size: 8,
                })
                .index_buckets(1 << 14)
                .grain(VersionGrain::Fine)
        };
        let log_bytes;
        {
            let kv = opts().open().unwrap();
            let mut s = kv.start_session(1);
            for k in 0..keys {
                s.upsert(k, k);
            }
            while s.pending_len() > 0 {
                s.refresh();
            }
            assert!(kv.request_checkpoint(variant, log_only));
            while kv.committed_version() < 1 {
                s.refresh();
            }
            log_bytes = kv.log_tail();
        }
        let t0 = Instant::now();
        let (kv, manifest) = opts().recover().unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        assert!(manifest.is_some());
        drop(kv);
        r.row(vec![
            format!("{variant:?}"),
            if log_only { "log-only" } else { "full" }.into(),
            log_bytes.to_string(),
            format!("{ms:.1}"),
        ]);
    }
    r.print();
}
