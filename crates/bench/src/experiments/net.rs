//! Network sessions experiment: loopback server throughput and
//! client-observed batch RTT percentiles (DESIGN.md "Network sessions").
//!
//! An in-process `cpr-net` server wraps an engine; `T` client threads
//! connect over 127.0.0.1 and pipeline batches of `B` ops (window `W`
//! batches deep). Latency percentiles come from a shared `cpr-metrics`
//! registry fed by the clients (one `record_commit` per acked batch), so
//! the numbers are exactly what a remote CPR client would observe.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_faster::{FasterBuilder, HlogConfig};
use cpr_memdb::{Durability, MemDb};
use cpr_metrics::Registry;
use cpr_net::{NetClient, NetEngine, NetServer};

use crate::args::Args;
use crate::report::Report;

pub fn net(args: &Args) {
    let engine = args.str("engine", "faster");
    let seconds = args.f64("seconds", 2.0);
    let keys = args.u64("keys", 100_000);
    let batch = args.u64("batch", 512) as usize;
    let window = args.u64("window", 8) as usize;
    let read_pct = args.u64("read-pct", 50);
    let threads = args.list("threads", &[1, 2, 4]);

    let mut r = Report::new(
        format!(
            "Network sessions: loopback {engine}, batch {batch}, window {window}, \
             {read_pct}% reads"
        ),
        &[
            "threads",
            "ops",
            "secs",
            "mops_s",
            "batch_p50_us",
            "batch_p99_us",
        ],
    );
    for &t in &threads {
        let dir = tempfile::tempdir().unwrap();
        let row = match engine.as_str() {
            "memdb" => {
                let db: Arc<MemDb<u64>> = Arc::new(
                    MemDb::builder(Durability::Cpr)
                        .dir(dir.path())
                        .capacity(keys as usize * 2)
                        .max_sessions(t + 4)
                        .open()
                        .unwrap(),
                );
                run(db, t, seconds, keys, batch, window, read_pct)
            }
            _ => {
                let kv = Arc::new(
                    FasterBuilder::u64_sums(dir.path())
                        .hlog(HlogConfig {
                            page_bits: 22,
                            memory_pages: 64,
                            mutable_pages: 48,
                            value_size: 8,
                        })
                        .index_buckets((keys as usize * 2).next_power_of_two())
                        .max_sessions(t + 4)
                        .open()
                        .unwrap(),
                );
                run(kv, t, seconds, keys, batch, window, read_pct)
            }
        };
        r.row(row);
    }
    r.print();
}

fn run<E: NetEngine>(
    engine: Arc<E>,
    threads: usize,
    seconds: f64,
    keys: u64,
    batch: usize,
    window: usize,
    read_pct: u64,
) -> Vec<String> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::serve(engine, listener).unwrap();
    let addr = server.addr();
    let metrics = Registry::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|tid| {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut c = NetClient::connect(addr, 1000 + tid as u64).unwrap();
                c.set_batch_size(batch);
                c.set_window(window);
                c.set_metrics(metrics);
                // Cheap xorshift so the generator never bottlenecks the
                // socket path.
                let mut rng = 0x9e3779b97f4a7c15u64 ^ (tid as u64).wrapping_mul(0xa076_1d64);
                let mut ops = 0u64;
                while Instant::now() < deadline {
                    for _ in 0..batch {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let key = rng % keys;
                        if rng % 100 < read_pct {
                            c.read(key).unwrap();
                        } else {
                            c.upsert(key, rng).unwrap();
                        }
                        ops += 1;
                    }
                    c.flush().unwrap();
                    c.take_results();
                }
                c.sync().unwrap();
                c.take_results();
                c.goodbye().unwrap();
                ops
            })
        })
        .collect();
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let secs = t0.elapsed().as_secs_f64();

    let lat = metrics.snapshot().ops.commit_latency;
    vec![
        threads.to_string(),
        total.to_string(),
        format!("{secs:.2}"),
        format!("{:.3}", total as f64 / secs / 1e6),
        format!("{:.1}", lat.p50_ns as f64 / 1e3),
        format!("{:.1}", lat.p99_ns as f64 / 1e3),
    ]
}
