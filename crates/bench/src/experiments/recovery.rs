//! Parallel flush & recovery scaling (ISSUE 5 acceptance run).
//!
//! Builds a FASTER store with 1 KiB values, takes an early full
//! checkpoint (index image), fills the hybrid log to `--log-mb`, takes
//! a log-only fold-over checkpoint, then recovers the store from disk —
//! once per entry in `--threads`. Recovery must scan essentially the
//! whole log suffix to catch the index up. Flush time comes
//! from the `flush.fold-over` phase timing, recovery is wall-clocked
//! around `recover()` with the partitioned-scan phase reported
//! separately. Every run must land on the same recovered state: the
//! serialized hash index and the on-disk log prefix are digested and
//! compared across thread counts.
//!
//! The host this grows on has a single core, so raw parallel speedup
//! from CPU is unavailable; like the §7 single-core notes elsewhere in
//! this repo, the device is given a simulated per-I/O latency
//! (`--write-latency-us` / `--read-latency-us`) so the benchmark
//! measures what the multi-queue writer pool and partitioned recovery
//! scan actually overlap: in-flight I/O time. Set both to 0 on a real
//! multi-core box to measure CPU scaling instead.
//!
//! Results are printed as a table and written to `--out`
//! (default `BENCH_recovery.json`).

use std::time::{Duration, Instant};

use cpr_faster::{CheckpointVariant, FasterKv, HlogConfig};
use cpr_metrics::Registry;
use cpr_storage::IoProfile;

use crate::args::Args;
use crate::report::Report;

/// 1 KiB values: with the 8-byte header and 8-byte key each record is
/// 1040 bytes, so a 1 GiB log holds ~1M records — big enough that the
/// recovery scan is I/O-bound, few enough that the per-slot fold stays
/// cheap on this host's single core. The fill uses a fresh key per
/// record: repeated keys would be updated in place while the page is
/// mutable and the log would stop growing.
type Val = [u8; 1024];

const RECORD_BYTES: u64 = 1040;

fn value_for(key: u64) -> Val {
    let mut v = [0u8; 1024];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&(!key).to_le_bytes());
    v
}

struct RunResult {
    threads: usize,
    fill_s: f64,
    flush_s: f64,
    recover_s: f64,
    scan_s: f64,
    index_digest: u64,
    log_digest: u64,
    log_bytes: u64,
}

pub fn recovery(args: &Args) {
    let threads = args.list("threads", &[1, 2, 4, 8]);
    let log_mb = args.u64("log-mb", 1024);
    let write_lat = Duration::from_micros(args.u64("write-latency-us", 10_000));
    let read_lat = Duration::from_micros(args.u64("read-latency-us", 10_000));
    let out = args.str("out", "BENCH_recovery.json");

    let mut results: Vec<RunResult> = Vec::new();
    for &t in &threads {
        let r = run_one(t, log_mb, write_lat, read_lat);
        eprintln!(
            "[cpr-bench] threads={} fill={:.2}s flush={:.2}s recover={:.2}s (scan {:.2}s)",
            t, r.fill_s, r.flush_s, r.recover_s, r.scan_s
        );
        results.push(r);
    }

    // Byte-identity across thread counts: same index image, same log
    // prefix, no matter how the flush was striped or the scan split.
    let base = &results[0];
    for r in &results[1..] {
        assert_eq!(
            r.index_digest, base.index_digest,
            "recovered index diverged between {} and {} threads",
            base.threads, r.threads
        );
        assert_eq!(
            r.log_digest, base.log_digest,
            "recovered log prefix diverged between {} and {} threads",
            base.threads, r.threads
        );
        assert_eq!(r.log_bytes, base.log_bytes);
    }

    let mut rep = Report::new(
        format!(
            "Parallel flush & recovery, {} MiB log, {}us/{}us simulated write/read latency",
            log_mb,
            write_lat.as_micros(),
            read_lat.as_micros()
        ),
        &[
            "threads",
            "flush_s",
            "flush_x",
            "recover_s",
            "recover_x",
            "scan_s",
            "scan_x",
        ],
    );
    for r in &results {
        rep.row(vec![
            r.threads.to_string(),
            format!("{:.3}", r.flush_s),
            format!("{:.2}", base.flush_s / r.flush_s),
            format!("{:.3}", r.recover_s),
            format!("{:.2}", base.recover_s / r.recover_s),
            format!("{:.3}", r.scan_s),
            format!("{:.2}", base.scan_s / r.scan_s),
        ]);
    }
    rep.print();

    let json = results_json(&results, log_mb, write_lat, read_lat);
    std::fs::write(&out, json).expect("write --out file");
    eprintln!("[cpr-bench] recovery scaling report written to {out}");
}

fn run_one(t: usize, log_mb: u64, write_lat: Duration, read_lat: Duration) -> RunResult {
    let dir = tempfile::tempdir().expect("tempdir");
    let profile = IoProfile {
        write_latency: write_lat,
        read_latency: read_lat,
    };
    let target_bytes = log_mb * (1 << 20);
    // 4 MiB pages; keep every page in memory and mutable until the
    // checkpoint so the fold-over flush (not incremental page closes)
    // writes the whole log and `flush.fold-over` times all of it.
    let pages = (((target_bytes >> 22) as usize) + 2).next_power_of_two();
    let hlog = HlogConfig {
        page_bits: 22,
        memory_pages: pages,
        mutable_pages: pages - 1,
        value_size: std::mem::size_of::<Val>(),
    };

    let metrics = Registry::new();
    let kv: FasterKv<Val> = FasterKv::builder(dir.path())
        .hlog(hlog)
        .index_buckets(1 << 16)
        .io_threads(t)
        .io_profile(profile)
        .metrics(metrics.clone())
        .refresh_every(1 << 20)
        .open()
        .expect("open store");

    let mut s = kv.start_session(1);

    // Early *full* checkpoint: dumps the (near-empty) index. The log-only
    // checkpoint after the fill skips the index dump, so recovery loads
    // this old index image and must scan essentially the whole log to
    // rebuild — the paper's model of infrequent index checkpoints plus a
    // long hybrid-log suffix, and the work the partitioned scan splits.
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
    pump_to_rest(&kv, &mut s);

    let fill_t0 = Instant::now();
    let mut key = 0u64;
    while kv.log_tail() < target_bytes {
        s.upsert(key, value_for(key));
        key += 1;
        if key.is_multiple_of(4096) {
            s.refresh();
        }
    }
    while s.pending_len() > 0 {
        s.refresh();
    }
    let fill_s = fill_t0.elapsed().as_secs_f64();

    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
    pump_to_rest(&kv, &mut s);
    drop(s);
    let flush_s = phase_seconds(&metrics, "flush.fold-over");
    let log_bytes = kv.log_tail();
    drop(kv);

    let rec_metrics = Registry::new();
    let rec_t0 = Instant::now();
    let (kv2, manifest) = FasterKv::<Val>::builder(dir.path())
        .hlog(hlog)
        .index_buckets(1 << 16)
        .io_threads(t)
        .io_profile(profile)
        .metrics(rec_metrics.clone())
        .recover()
        .expect("recover store");
    let recover_s = rec_t0.elapsed().as_secs_f64();
    assert!(manifest.is_some(), "no checkpoint manifest found");
    let scan_s = phase_seconds(&rec_metrics, "recovery.scan");

    let index_digest = kv2.index_digest();
    drop(kv2);
    let log_digest = file_digest(&dir.path().join("log.dat"), hlog.page_bits, log_bytes);

    RunResult {
        threads: t,
        fill_s,
        flush_s,
        recover_s,
        scan_s,
        index_digest,
        log_digest,
        log_bytes,
    }
}

/// Drive the commit state machine to completion from a session loop.
fn pump_to_rest(kv: &FasterKv<Val>, s: &mut cpr_faster::FasterSession<Val>) {
    let deadline = Instant::now() + Duration::from_secs(600);
    while kv.state().0 != cpr_core::Phase::Rest {
        s.refresh();
        assert!(Instant::now() < deadline, "checkpoint stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Last recorded duration for phase `name`, in seconds (0.0 if absent).
fn phase_seconds(metrics: &Registry, name: &str) -> f64 {
    metrics
        .snapshot()
        .phase_timings
        .iter()
        .rev()
        .find(|p| p.name == name)
        .map(|p| p.millis / 1000.0)
        .unwrap_or(0.0)
}

/// FNV-1a over the first `len` bytes of the segmented log at `path`,
/// read in 1 MiB chunks (past the durable watermark it reads zeroes).
fn file_digest(path: &std::path::Path, page_bits: u32, len: u64) -> u64 {
    use cpr_storage::{Device, FileDevice};
    let bits = cpr_faster::hlog::segment_bits(page_bits);
    let dev = FileDevice::open_segmented(path, bits, 1, IoProfile::NONE).expect("open log");
    let mut buf = vec![0u8; 1 << 20];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut at = 0;
    while at < len {
        let n = ((len - at) as usize).min(buf.len());
        dev.read_at(at, &mut buf[..n]).expect("read log for digest");
        for &b in &buf[..n] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        at += n as u64;
    }
    h
}

fn results_json(
    results: &[RunResult],
    log_mb: u64,
    write_lat: Duration,
    read_lat: Duration,
) -> String {
    use serde::{Serialize, Value};
    let base = &results[0];
    let runs: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("threads".into(), Value::UInt(r.threads as u64)),
                ("fill_s".into(), Value::Float(r.fill_s)),
                ("flush_s".into(), Value::Float(r.flush_s)),
                (
                    "flush_speedup".into(),
                    Value::Float(base.flush_s / r.flush_s),
                ),
                ("recover_s".into(), Value::Float(r.recover_s)),
                (
                    "recover_speedup".into(),
                    Value::Float(base.recover_s / r.recover_s),
                ),
                ("scan_s".into(), Value::Float(r.scan_s)),
                ("scan_speedup".into(), Value::Float(base.scan_s / r.scan_s)),
                (
                    "index_digest".into(),
                    Value::Str(format!("{:016x}", r.index_digest)),
                ),
                (
                    "log_digest".into(),
                    Value::Str(format!("{:016x}", r.log_digest)),
                ),
                ("log_bytes".into(), Value::UInt(r.log_bytes)),
            ])
        })
        .collect();
    struct Doc(Value);
    impl Serialize for Doc {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let doc = Doc(Value::Object(vec![
        ("experiment".into(), Value::Str("recovery".into())),
        ("log_mb".into(), Value::UInt(log_mb)),
        ("record_bytes".into(), Value::UInt(RECORD_BYTES)),
        (
            "write_latency_us".into(),
            Value::UInt(write_lat.as_micros() as u64),
        ),
        (
            "read_latency_us".into(),
            Value::UInt(read_lat.as_micros() as u64),
        ),
        ("state_identical_across_threads".into(), Value::Bool(true)),
        ("runs".into(), Value::Array(runs)),
    ]));
    serde_json::to_string_pretty(&doc).expect("serialize recovery report")
}
