//! `net-loopback`: one `NetClient` on one thread against an in-process
//! `NetServer` over FASTER on 127.0.0.1, one 256-op batch outstanding,
//! and a full fold-over checkpoint requested over the wire every 500 ms.
//!
//! Fold-over, not snapshot: a snapshot copies the whole unflushed log, and
//! the copies made for updates during its flush grow that log, so snapshot
//! commit times climb through a run (80 → 340 ms in 20 s) and differ
//! between identical runs by 2x.
//!
//! The whole process runs on one CPU. With one batch outstanding the round
//! trip is a strict chain (client → server reader → writer → client), so a
//! second CPU adds no parallelism, only cross-CPU wake-ups. On a VM each
//! of those wakes a halted vCPU through the host, and that delay shows as
//! host steal: in the same minutes, unpinned net-loopback runs had 5–12 s
//! of steal while kv-resident runs, whose vCPUs never idle, had 0.2–1.2 s.
//! Pinned, the chain runs as context switches on one busy CPU.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::CommitPoint;
use cpr_faster::FasterKv;
use cpr_net::{checkpoint_variant, Frame, NetClient, NetServer, OpKind, OpStatus, WireOp};
use cpr_workload::keys::KeyDist;
use cpr_workload::ycsb::{self, YcsbConfig, YcsbGenerator};

use crate::common::*;
use crate::kv::{self, KEYS};
use crate::procfs::Snapshot;
use crate::stats;
use crate::trace::{self, Tracer};

const BATCH: usize = 256;
const GUID: u64 = 1;
/// The server's sessions refresh themselves at the store's default
/// cadence (the benchmark cannot reach them).
const STORE_REFRESH_EVERY: u64 = 64;
/// Traced runs record spans for every `BATCH_SPAN_EVERY`-th batch.
const BATCH_SPAN_EVERY: u64 = 16;

fn ycsb() -> YcsbConfig {
    YcsbConfig::read_update(KEYS, KeyDist::Uniform, 50)
}

fn serve(kv: &FasterKv<u64>) -> io::Result<NetServer> {
    NetServer::serve(Arc::new(kv.clone()), TcpListener::bind("127.0.0.1:0")?)
}

fn connect(server: &NetServer) -> io::Result<NetClient> {
    let mut c = NetClient::connect(server.addr(), GUID)?;
    // `submit` must never send on its own: the loop sends with `flush`.
    c.set_batch_size(BATCH + 1);
    Ok(c)
}

/// A commit requested over the wire and not yet seen durable.
struct InFlight {
    version: u64,
    at: Instant,
}

pub fn run(opts: &RunOpts) -> io::Result<Report> {
    let mut r = Report::new();
    let run_start = Instant::now();
    let dir = opts.dir.join("net-loopback");
    // Before any thread starts, so every thread inherits it.
    let cpu = pin_to_one_cpu()?;
    r.notes.push(format!("pinned to CPU {cpu}"));
    let ((mut client, server, kv), setup_s) = repeat_setup(&dir, || {
        let kv = kv::open_preloaded(&dir, STORE_REFRESH_EVERY)?;
        let server = serve(&kv)?;
        let client = connect(&server)?;
        // Field order drops the client first, then the server, then the store.
        Ok((client, server, kv))
    })?;

    r.stage("setup", run_start);
    let trace = opts.trace;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 1, SPAN_CAP);
    let mut model: Vec<u64> = (0..KEYS).collect();
    let mut gen = YcsbGenerator::new(ycsb(), opts.thread_seed(0));
    let mut batch: Vec<ycsb::Op> = Vec::with_capacity(BATCH);
    let mut wire: Vec<WireOp> = Vec::with_capacity(BATCH);
    let mut measured = Measured::default();
    let mut commits = Commits::default();
    let (mut failed_ops, mut gen_ns, mut batches, mut wire_bytes, mut wire_ops) = (0, 0, 0, 0, 0);
    let windows = Windows::for_seconds(opts.seconds);
    let mut rates = Rates::default();
    let mut latency = Latencies::default();
    let mut lag_ms = Vec::new();
    let mut uncommitted = Vec::new();
    let mut lag: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut inflight: Option<InFlight> = None;
    let mut committing = true;

    // Warm-up: load and commits run, nothing is recorded.
    let warm_start = Instant::now();
    let warm_end = warm_start + WARMUP;
    let mut start: Option<Instant> = None;
    let mut end = warm_end;
    let mut before = Snapshot::default();
    let (mut tail0, mut ops0, mut n) = (0, 0u64, 0u64);
    let mut tick = warm_start + COMMIT_INTERVAL;
    loop {
        let now = Instant::now();
        if start.is_none() && now >= warm_end {
            before = Snapshot::take();
            measured.disk_start = dir_bytes(&dir);
            tail0 = kv.log_tail();
            ops0 = n;
            rates.mark(n);
            start = Some(now);
            end = now + Duration::from_secs_f64(opts.seconds);
        }
        let measuring = start.is_some();
        if measuring && now >= end && inflight.is_none() {
            break;
        }

        let g0 = Instant::now();
        batch.clear();
        batch.extend((0..BATCH).map(|_| gen.next_op()));
        if measuring {
            gen_ns += ns(g0.elapsed());
        }
        let traced = trace && measuring;
        let spanned = traced && batches % BATCH_SPAN_EVERY == 0;
        let root = spanned.then(|| tracer.begin("net.batch", 0, batches));
        let root_id = root.map_or(0, |o| o.id());

        let s0 = tracer.begin("net.submit", root_id, batches);
        wire.clear();
        for op in &batch {
            let kind = match op.kind {
                ycsb::OpKind::Read => OpKind::Read,
                _ => OpKind::Upsert,
            };
            let serial = client.submit(kind, op.key, op.arg)?;
            if spanned {
                wire.push(WireOp {
                    serial,
                    kind,
                    key: op.key,
                    arg: op.arg,
                });
            }
        }
        let f0 = timed_end(&mut tracer, s0, traced, spanned, "net.submit");
        let f = tracer.begin_at("net.flush", root_id, batches, f0);
        // One blocking round trip: send the batch, wait for its ack.
        let b0 = Instant::now();
        client.flush()?;
        let w0 = timed_end(&mut tracer, f, traced, spanned, "net.flush");
        let w = tracer.begin_at("net.sync", root_id, batches, w0);
        let results = client.sync()?;
        timed_end(&mut tracer, w, traced, spanned, "net.sync");
        let batch_us = b0.elapsed().as_secs_f64() * 1e6;
        if let Some(o) = root {
            tracer.end(o);
        }
        n += BATCH as u64;
        if spanned {
            wire_bytes += Frame::OpBatch { ops: wire.clone() }.encode().len() as u64;
            wire_ops += wire.len() as u64;
        }

        // Every acked op must match the client's own model of the store.
        if results.len() != batch.len() {
            failed_ops += batch.len().abs_diff(results.len()) as u64;
        }
        for (op, res) in batch.iter().zip(&results) {
            let k = op.key as usize;
            let ok = match op.kind {
                ycsb::OpKind::Read => res.status == OpStatus::Ok && res.value == Some(model[k]),
                _ => {
                    model[k] = op.arg;
                    res.status == OpStatus::Ok
                }
            };
            if !ok {
                failed_ops += 1;
            }
        }
        let committed = client.committed().clone();
        if let Some(c) = &inflight {
            if committed.version >= c.version {
                if start.is_some_and(|s| c.at >= s) {
                    commits.ms.push(c.at.elapsed().as_secs_f64() * 1e3);
                    commits.add_faster_phases(&kv.last_checkpoint_phases());
                }
                inflight = None;
            } else if c.at.elapsed() > COMMIT_DEADLINE {
                r.notes.push(format!(
                    "commit of version {} not durable after {COMMIT_DEADLINE:?}: \
                     store state {:?}, client commit point {committed:?}",
                    c.version,
                    kv.state()
                ));
                commits.failed += 1;
                inflight = None;
                committing = false;
            }
        }
        let now = Instant::now();
        if committing && inflight.is_none() && now >= tick && tick < end {
            let version = kv.state().1;
            commits.requested += 1;
            if client.request_checkpoint(checkpoint_variant::FOLD_OVER, false)? {
                inflight = Some(InFlight { version, at: now });
            } else {
                commits.failed += 1;
                committing = false;
            }
            while tick <= Instant::now() {
                tick += COMMIT_INTERVAL;
            }
        }
        if !measuring {
            continue;
        }
        batches += 1;
        let start = start.expect("measuring");
        latency.push(windows.index(start, b0), batch_us);
        if rates.len() <= windows.count && windows.index(start, Instant::now()) >= rates.len() {
            rates.mark(n);
        }
        if traced {
            uncommitted.push(client.uncommitted() as f64);
            if n % LAG_EVERY < BATCH as u64 {
                lag.push_back((n, Instant::now()));
            }
            while lag
                .front()
                .is_some_and(|&(serial, _)| serial <= committed.until_serial)
            {
                let (_, at) = lag.pop_front().expect("front checked");
                lag_ms.push(at.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let start = start.expect("measured phase started");
    measured.ops = n - ops0;
    measured.proc = Snapshot::take().since(&before);
    measured.wall_s = start.elapsed().as_secs_f64();
    measured.disk_end = dir_bytes(&dir);
    let log_bytes = kv.log_tail() - tail0;
    let resident = kv::resident_note(&kv, &mut r);

    // Final commit over the wire, then the digest and commit point the
    // recovered server must reproduce.
    let version = kv.state().1;
    commits.requested += 1;
    let point = if client.request_checkpoint(checkpoint_variant::FOLD_OVER, false)? {
        client
            .wait_commit(version, COMMIT_DEADLINE)
            .map_err(|e| format!("final commit of version {version}: {e}"))
    } else {
        Err(format!("final commit of version {version} did not start"))
    };
    r.notes.push(format!(
        "checkpoints aborted on I/O errors: {}, last commit outcome: {:?}",
        kv.checkpoint_failures(),
        kv.last_commit_outcome()
    ));
    let mut recover_s = Vec::new();
    let mut recover_rchar = 0;
    match point {
        Err(e) => {
            commits.failed += 1;
            r.check(false, || e);
        }
        Ok(point) => {
            let scan = client.scan()?;
            if let Some(e) = scan_mismatch(&scan, &model) {
                r.check(false, || format!("state before crash: {e}"));
            }
            let last_serial = client.next_serial() - 1;
            r.check(point.until_serial == last_serial, || {
                format!("final commit point {point:?} does not cover serial {last_serial}")
            });
            let buffer = client.take_buffer();
            r.check(buffer.is_empty(), || {
                format!("{} ops left to replay", buffer.len())
            });
            // The crash: the server and the store go away with no shutdown
            // of the store and no goodbye from the client.
            drop(server);
            drop(kv);

            r.stage("check", run_start);
            (recover_s, recover_rchar) = repeat_recovery(
                || {
                    let (kv, manifest) = kv::builder(&dir, STORE_REFRESH_EVERY).recover()?;
                    let server = serve(&kv)?;
                    let client = NetClient::connect_with(server.addr(), GUID, buffer.clone())?;
                    Ok((client, server, kv, manifest.is_some()))
                },
                |i, (mut client, _server, _kv, found)| {
                    r.check(found, || "no checkpoint to recover".into());
                    let resumed = client.resume_point().clone();
                    r.check(
                        same_point(&resumed, &point) && client.replayed() == 0,
                        || format!("recovery {i}: resumed at {resumed:?}, expected {point:?}"),
                    );
                    // Reading back the whole state takes seconds; the first
                    // recovery is checked in full, every one by its resumed
                    // commit point.
                    if i == 0 {
                        r.check(client.scan()? == scan, || "recovered state differs".into());
                    }
                    client.goodbye()
                },
            )?;
        }
    }

    r.stage("recover", run_start);
    account(&mut r, n + commits.requested, failed_ops + commits.failed);
    r.check(resident, || {
        "records left memory: the store is not resident".into()
    });

    let ops = measured.ops.max(1) as f64;
    let nb = batches.max(1) as f64;
    let ctx = measured.proc.ctx_voluntary + measured.proc.ctx_involuntary;
    let mut layer = vec![
        // The server's sessions cannot be reached from outside; with every
        // record in memory and one session, no op can go pending.
        ("faster.pending_frac", if resident { 0.0 } else { 1.0 }),
        (
            "sessions.durable_lag_ms_p50",
            stats::median(&mut lag_ms).unwrap_or(0.0),
        ),
        (
            "net.encode_ns_per_op",
            tracer.tally_of("net.submit").ns as f64 / ops,
        ),
        (
            "net.send_ns_per_batch",
            tracer.tally_of("net.flush").ns as f64 / nb,
        ),
        (
            "net.wait_ns_per_batch",
            tracer.tally_of("net.sync").ns as f64 / nb,
        ),
        (
            "net.wire_bytes_per_op",
            wire_bytes as f64 / wire_ops.max(1) as f64,
        ),
        ("net.ctx_switches_per_batch", ctx as f64 / nb),
        (
            "net.replay_ops_p50",
            stats::median(&mut uncommitted).unwrap_or(0.0),
        ),
        ("bench.gen_ns_per_op", gen_ns as f64 / ops),
    ];
    layer.extend(kv::checkpoint_layers(&commits, log_bytes, &measured));
    layer.extend(storage_metrics(&measured, &commits, recover_rchar));
    r.notes.push(format!("batches: {batches} of {BATCH} ops"));
    EndToEnd {
        measured,
        windows,
        rates,
        latency,
        commits_ms: commits.ms,
        recover_s,
        setup_s,
        live_bytes: KEYS * 16,
    }
    .report(&mut r);
    if trace {
        put_per_layer(&mut r, &layer);
        finish_trace(&mut r, &tracer, opts)?;
    }
    Ok(r)
}

/// End a call span in a traced run: tally it, keep the span if the batch
/// is sampled. Returns the end time (0 when untraced).
fn timed_end(
    tracer: &mut Tracer,
    open: trace::Open,
    traced: bool,
    spanned: bool,
    name: &'static str,
) -> u64 {
    if !traced {
        return 0;
    }
    let end = tracer.now();
    let d = if spanned {
        tracer.end_at(open, end)
    } else {
        end - open.start()
    };
    tracer.tally(name, d);
    end
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU.
fn pin_to_one_cpu() -> io::Result<usize> {
    // The size of glibc's `cpu_set_t`: 1024 CPUs.
    const WORDS: usize = 1024 / 64;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is writable and exactly as large as the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly as large as the size passed.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

fn same_point(a: &CommitPoint, b: &CommitPoint) -> bool {
    a.version == b.version && a.until_serial == b.until_serial && a.exclusions == b.exclusions
}
