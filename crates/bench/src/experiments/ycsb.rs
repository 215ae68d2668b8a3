//! `ycsb` — the observability showcase: run the YCSB mix on *both*
//! engines with a live metrics registry and print (and optionally dump
//! as JSON via `--metrics-out`) commit-latency percentiles, per-phase
//! checkpoint timings, epoch drain behaviour and storage traffic.

use std::sync::Arc;

use cpr_faster::CheckpointVariant;
use cpr_memdb::Durability;
use cpr_metrics::{MetricsReport, Registry};

use crate::args::Args;
use crate::faster_run::{run_faster, FasterRunConfig};
use crate::memdb_run::{run_memdb, MemdbRunConfig, MemdbWorkload};
use crate::report::Report;

pub fn ycsb(args: &Args) {
    let seconds = args.f64("seconds", 2.0);
    let threads = *args.list("threads", &[4]).first().unwrap_or(&4);
    let keys = args.u64("keys", 200_000);
    let metrics_out = args.str("metrics-out", "");

    // `--overhead only`: skip the showcase and run just the disabled vs
    // enabled A/B, so it can be interleaved with a baseline build under
    // identical (cold-process) conditions.
    if args.str("overhead", "") == "only" {
        overhead(seconds, threads, keys);
        return;
    }

    // ---- memdb: YCSB transactions under CPR durability -----------------
    let mem_reg = Registry::new();
    let mut mem_cfg = MemdbRunConfig::new(
        Durability::Cpr,
        threads,
        MemdbWorkload::Ycsb {
            num_keys: keys,
            txn_size: 4,
            write_pct: 50,
            theta: Some(0.9),
        },
    );
    mem_cfg.seconds = seconds;
    mem_cfg.checkpoint_at = vec![seconds * 0.35, seconds * 0.7];
    mem_cfg.metrics = Some(Arc::clone(&mem_reg));
    let mem_res = run_memdb(&mem_cfg);
    let mem_report = mem_reg.snapshot();

    // ---- faster: 50:50 read/update, fold-over + snapshot commits -------
    let kv_reg = Registry::new();
    let mut kv_cfg = FasterRunConfig::scaled(threads, 50, true);
    kv_cfg.num_keys = keys;
    kv_cfg.seconds = seconds;
    kv_cfg.variant = CheckpointVariant::FoldOver;
    kv_cfg.checkpoint_at = vec![seconds * 0.35, seconds * 0.7];
    kv_cfg.metrics = Some(Arc::clone(&kv_reg));
    let kv_res = run_faster(&kv_cfg);
    let kv_report = kv_reg.snapshot();

    let mut r = Report::new(
        "YCSB with live metrics (cpr-metrics end-to-end)",
        &[
            "engine",
            "mtps",
            "ops",
            "p50_us",
            "p90_us",
            "p99_us",
            "ckpts",
            "epoch_bumps",
            "mb_written",
        ],
    );
    for (engine, mtps, report) in [
        ("memdb/cpr", mem_res.mtps, &mem_report),
        ("faster", kv_res.mops, &kv_report),
    ] {
        let lat = &report.ops.commit_latency;
        r.row(vec![
            engine.into(),
            format!("{mtps:.3}"),
            format!("{}", report.ops.committed),
            format!("{:.1}", lat.p50_ns as f64 / 1000.0),
            format!("{:.1}", lat.p90_ns as f64 / 1000.0),
            format!("{:.1}", lat.p99_ns as f64 / 1000.0),
            format!("{}", report.checkpoints.len()),
            format!("{}", report.epoch.bumps),
            format!("{:.2}", report.storage.bytes_written as f64 / 1e6),
        ]);
    }
    r.print();

    let mut phases = Report::new(
        "Per-checkpoint phase timings (time-in-phase, ms)",
        &["engine", "version", "kind", "committed", "phase", "ms"],
    );
    for (engine, report) in [("memdb/cpr", &mem_report), ("faster", &kv_report)] {
        for t in &report.checkpoints {
            for span in &t.phases {
                phases.row(vec![
                    engine.into(),
                    format!("{}", t.version),
                    t.kind.clone(),
                    format!("{}", t.committed),
                    span.phase.clone(),
                    format!("{:.3}", span.secs * 1000.0),
                ]);
            }
        }
    }
    phases.print();

    if !metrics_out.is_empty() {
        let json = combined_json(&mem_report, &kv_report);
        std::fs::write(&metrics_out, json).expect("write --metrics-out file");
        eprintln!("[cpr-bench] metrics report written to {metrics_out}");
    }

    if args.str("overhead", "") == "true" {
        overhead(seconds, threads, keys);
    }
}

/// `--overhead true`: the same FASTER YCSB run with the registry
/// disabled vs enabled, quantifying the cost of live metrics (the
/// disabled path must stay within noise).
fn overhead(seconds: f64, threads: usize, keys: u64) {
    let mut r = Report::new(
        "Metrics overhead: identical FASTER YCSB runs",
        &["metrics", "mops", "delta_pct"],
    );
    let mut base = 0.0;
    for enabled in [false, true] {
        let mut cfg = FasterRunConfig::scaled(threads, 50, true);
        cfg.num_keys = keys;
        cfg.seconds = seconds;
        cfg.checkpoint_at = vec![seconds * 0.5];
        cfg.metrics = enabled.then(Registry::new);
        let res = run_faster(&cfg);
        if !enabled {
            base = res.mops;
        }
        r.row(vec![
            if enabled { "enabled" } else { "disabled" }.into(),
            format!("{:.3}", res.mops),
            format!("{:+.2}", (res.mops - base) / base * 100.0),
        ]);
    }
    r.print();
}

/// `{"memdb": <report>, "faster": <report>}`, pretty-printed.
fn combined_json(memdb: &MetricsReport, faster: &MetricsReport) -> String {
    use serde::Serialize;
    // A raw `Value` is not itself `Serialize`; wrap it.
    struct Combined(serde::Value);
    impl Serialize for Combined {
        fn to_value(&self) -> serde::Value {
            self.0.clone()
        }
    }
    let combined = Combined(serde::Value::Object(vec![
        ("memdb".to_string(), memdb.to_value()),
        ("faster".to_string(), faster.to_value()),
    ]));
    serde_json::to_string_pretty(&combined).expect("metrics serialize")
}
