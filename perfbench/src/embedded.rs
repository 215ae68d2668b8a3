//! The run shared by the embedded-engine workloads (`kv-resident`,
//! `txn-contended`): repeated set-up, closed-loop load threads with one
//! session each, warm-up then measured phase with a commit every
//! [`COMMIT_INTERVAL`], the final commit and correctness gate, the crash
//! and the repeated recoveries, and the report. Each workload supplies
//! only its engine calls through [`Engine`].

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::common::*;
use crate::procfs::Snapshot;
use crate::stats;
use crate::trace::Tracer;

/// Session guids of the load threads are `GUID_BASE + thread`.
const GUID_BASE: u64 = 1;

/// What one op may record while it runs.
pub struct OpCx<'a> {
    /// The load thread's tracer: spans for sampled ops, tallies for calls.
    pub tracer: &'a mut Tracer,
    /// The measured phase is running.
    pub measuring: bool,
    /// The measured phase of a traced run is running: tally every call.
    pub traced: bool,
    /// The id of the op's span when this op is sampled for tracing.
    pub span: Option<u64>,
    /// The op's serial, the request id of its spans.
    pub req: u64,
}

/// Everything a finished run hands a workload for its per-layer metrics.
pub struct Finished<'a> {
    /// Every load thread's spans and tallies.
    pub tracer: &'a Tracer,
    pub commits: &'a Commits,
    pub measured: &'a Measured,
    /// Ops issued over the whole run, warm-up included.
    pub issued: u64,
    /// Load-thread time in the measured phase, in nanoseconds.
    pub session_ns: f64,
    /// Growth of [`Engine::log_tail`] over the measured phase.
    pub log_bytes: u64,
}

/// The engine-specific calls of one embedded workload.
pub trait Engine: Sync {
    type Store: Clone + Send + Sync;
    type Session;
    type Gen;
    type Op: Sync;

    /// The workload's name, also its store directory.
    const NAME: &'static str;
    /// Preloaded keys; key `k` starts with value `k`.
    const KEYS: u64;
    const THREADS: usize;
    /// Ops generated per batch of the load loop.
    const CHUNK: usize;
    /// Span name of one op as the client sees it.
    const OP_SPAN: &'static str;
    /// Span and tally name of a session refresh.
    const REFRESH_SPAN: &'static str;

    /// Open a fresh store in `dir` and preload it.
    fn open(&self, dir: &Path) -> io::Result<Self::Store>;
    fn session(&self, store: &Self::Store, guid: u64) -> Self::Session;
    fn generator(&self, seed: u64) -> Self::Gen;
    fn next(&self, gen: &mut Self::Gen) -> Self::Op;
    /// Run one op to completion, retries and pending completion included;
    /// false if it failed.
    fn execute(
        &self,
        store: &Self::Store,
        s: &mut Self::Session,
        op: &Self::Op,
        cx: &mut OpCx,
    ) -> bool;
    fn refresh(&self, s: &mut Self::Session);
    fn durable_serial(&self, s: &mut Self::Session) -> u64;
    /// The session's last serial.
    fn serial(&self, s: &Self::Session) -> u64;
    /// Request a commit and wait until it is durable; `trace` lets a
    /// traced run time its phases. False (and one failed op in `commits`)
    /// if it could not start or finish within [`COMMIT_DEADLINE`].
    fn commit(&self, store: &Self::Store, commits: &mut Commits, trace: bool) -> bool;
    /// Every `(key, value)`, sorted by key.
    fn scan(&self, store: &Self::Store) -> Result<Vec<(u64, u64)>, String>;
    fn durable_point(&self, store: &Self::Store, guid: u64) -> u64;
    /// Recover `dir` and continue each guid's session. Returns the store,
    /// whether a checkpoint was found, and the resumed serials.
    fn recover(&self, dir: &Path, guids: &[u64]) -> io::Result<(Self::Store, bool, Vec<u64>)>;
    /// Add to `sums` what the first `n` ops of the generator seeded with
    /// `seed` add to each key.
    fn replay(&self, seed: u64, n: u64, sums: &mut [u64]);
    /// Notes and checks on the store at the end of the measured phase.
    fn inspect(&self, _store: &Self::Store, _r: &mut Report) {}
    /// The log's tail address, for `faster.log_bytes_per_op`.
    fn log_tail(&self, _store: &Self::Store) -> u64 {
        0
    }
    /// Notes for every run, and the engine's own per-layer metrics.
    fn finish(&self, run: &Finished, r: &mut Report) -> Vec<(&'static str, f64)>;
}

/// What one load thread hands back.
struct ThreadOut {
    /// Ops issued over the whole run (= the session's last serial).
    serial: u64,
    failed: u64,
    latency: Latencies,
    gen_ns: u64,
    lag_ms: Vec<f64>,
    tracer: Tracer,
}

fn load_thread<E: Engine>(
    e: &E,
    store: E::Store,
    ctl: &Control,
    t: usize,
    opts: &RunOpts,
    windows: Windows,
    origin: Instant,
) -> ThreadOut {
    let mut s = e.session(&store, GUID_BASE + t as u64);
    let mut gen = e.generator(opts.thread_seed(t));
    let mut out = ThreadOut {
        serial: 0,
        failed: 0,
        latency: Latencies::default(),
        gen_ns: 0,
        lag_ms: Vec::new(),
        tracer: Tracer::new(origin, t as u64 + 1, SPAN_CAP),
    };
    let mut buf: Vec<E::Op> = Vec::with_capacity(E::CHUNK);
    let mut lag: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut n = 0u64;
    while ctl.phase() < STOP {
        let measuring = ctl.phase() == MEASURE;
        let traced = opts.trace && measuring;
        let g0 = Instant::now();
        buf.clear();
        buf.extend((0..E::CHUNK).map(|_| e.next(&mut gen)));
        if measuring {
            out.gen_ns += ns(g0.elapsed());
        }
        for op in &buf {
            n += 1;
            let timed = measuring && n.is_multiple_of(LATENCY_EVERY);
            let spanned = traced && n.is_multiple_of(SPAN_EVERY);
            let t0 = (timed || spanned).then(Instant::now);
            let root = spanned.then(|| out.tracer.begin(E::OP_SPAN, 0, n));
            let mut cx = OpCx {
                tracer: &mut out.tracer,
                measuring,
                traced,
                span: root.map(|o| o.id()),
                req: n,
            };
            if !e.execute(&store, &mut s, op, &mut cx) {
                out.failed += 1;
            }
            if let (true, Some(t0)) = (timed, t0) {
                let start = *ctl.start.get().expect("start set before MEASURE");
                let us = t0.elapsed().as_secs_f64() * 1e6;
                out.latency.push(windows.index(start, t0), us);
            }
            if let Some(o) = root {
                out.tracer.end(o);
            }
            if !n.is_multiple_of(REFRESH_EVERY) {
                continue;
            }
            if !traced {
                e.refresh(&mut s);
                continue;
            }
            let r0 = out.tracer.now();
            e.refresh(&mut s);
            let r1 = out.tracer.now();
            out.tracer.tally(E::REFRESH_SPAN, r1 - r0);
            if (n / REFRESH_EVERY).is_multiple_of(SPAN_EVERY) {
                let sp = out.tracer.begin_at(E::REFRESH_SPAN, 0, n, r0);
                out.tracer.end_at(sp, r1);
            }
            if n.is_multiple_of(LAG_EVERY) {
                lag.push_back((n, Instant::now()));
            }
            if !lag.is_empty() {
                let durable = e.durable_serial(&mut s);
                while lag.front().is_some_and(|&(serial, _)| serial <= durable) {
                    let (_, at) = lag.pop_front().expect("front checked");
                    out.lag_ms.push(at.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        ctl.ops[t].0.store(n, Ordering::Release);
    }
    ctl.stopped.fetch_add(1, Ordering::AcqRel);
    // Keep taking part in the CPR state machine until the final commit
    // has passed this session.
    while ctl.phase() != DONE {
        e.refresh(&mut s);
        std::thread::sleep(Duration::from_micros(100));
    }
    out.serial = e.serial(&s);
    out
}

/// One run of workload `e`.
pub fn run<E: Engine>(e: &E, opts: &RunOpts) -> io::Result<Report> {
    let mut r = Report::new();
    let run_start = Instant::now();
    let dir = opts.dir.join(E::NAME);
    let (store, setup_s) = repeat_setup(&dir, || e.open(&dir))?;
    r.stage("setup", run_start);

    let guids: Vec<u64> = (0..E::THREADS).map(|t| GUID_BASE + t as u64).collect();
    let ctl = Control::new(E::THREADS);
    let windows = Windows::for_seconds(opts.seconds);
    let mut rates = Rates::default();
    let origin = Instant::now();
    let mut measured = Measured::default();
    let mut commits = Commits::default();
    let mut log_bytes = 0;
    let mut final_scan = Vec::new();
    let mut points = Vec::new();
    let outs: Vec<ThreadOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..E::THREADS)
            .map(|t| {
                let store = store.clone();
                let ctl = &ctl;
                sc.spawn(move || load_thread(e, store, ctl, t, opts, windows, origin))
            })
            .collect();
        // Warm-up: load and commits run, nothing is recorded.
        let mut warm = Commits::default();
        let warm_start = Instant::now();
        commit_every(warm_start, warm_start + WARMUP, || {
            e.commit(&store, &mut warm, opts.trace)
        });
        commits.requested += warm.requested;
        commits.failed += warm.failed;

        let before = Snapshot::take();
        let ops0 = ctl.total_ops();
        measured.disk_start = dir_bytes(&dir);
        let tail0 = e.log_tail(&store);
        let start = Instant::now();
        ctl.start.set(start).expect("measured phase starts once");
        ctl.set(MEASURE);
        let end = start + Duration::from_secs_f64(opts.seconds);
        let sampler = {
            let ctl = &ctl;
            sc.spawn(move || sample_rates(ctl, start, &windows))
        };
        commit_every(start, end, || e.commit(&store, &mut commits, opts.trace));
        rates = sampler.join().expect("rate sampler panicked");
        measured.ops = ctl.total_ops() - ops0;
        measured.proc = Snapshot::take().since(&before);
        measured.wall_s = start.elapsed().as_secs_f64();
        measured.disk_end = dir_bytes(&dir);
        log_bytes = e.log_tail(&store) - tail0;
        e.inspect(&store, &mut r);

        // Final commit with the load stopped: it covers every op.
        ctl.set(STOP);
        let mut last = Commits::default();
        let committed =
            ctl.wait_stopped(E::THREADS, COMMIT_DEADLINE) && e.commit(&store, &mut last, false);
        commits.requested += last.requested;
        commits.failed += last.failed;
        if committed {
            match e.scan(&store) {
                Ok(scan) => final_scan = scan,
                Err(err) => r.check(false, || format!("scan before crash: {err}")),
            }
            points = guids.iter().map(|&g| e.durable_point(&store, g)).collect();
        } else {
            r.check(false, || "final commit did not complete".into());
        }
        ctl.set(DONE);
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    // The crash: the last handle goes away with no shutdown.
    drop(store);

    let serials: Vec<u64> = outs.iter().map(|o| o.serial).collect();
    r.check(points == serials, || {
        format!("durable points {points:?} != final serials {serials:?}")
    });
    r.stage("load", run_start);
    let model = expected_sums(E::KEYS, &serials, |t, n, sums| {
        e.replay(opts.thread_seed(t), n, sums)
    });
    if let Some(err) = scan_mismatch(&final_scan, &model) {
        r.check(false, || format!("state before crash: {err}"));
    }

    r.stage("check", run_start);
    let (recover_s, recover_rchar) = repeat_recovery(
        || e.recover(&dir, &guids),
        |i, (store, found, resumed)| {
            r.check(found, || "no checkpoint to recover".into());
            r.check(resumed == points, || {
                format!("recovery {i}: resumed serials {resumed:?} != durable points {points:?}")
            });
            // Reading back the whole state can take seconds; the first
            // recovery is checked in full, every one by its resumed serials.
            if i == 0 {
                let same = e.scan(&store).is_ok_and(|scan| scan == final_scan);
                r.check(same, || "recovered state differs".into());
            }
            Ok(())
        },
    )?;
    r.stage("recover", run_start);

    let issued: u64 = serials.iter().sum();
    let failed_ops: u64 = outs.iter().map(|o| o.failed).sum();
    account(
        &mut r,
        issued + commits.requested,
        failed_ops + commits.failed,
    );

    let mut tracer = Tracer::new(origin, 0, 0);
    let mut latency = Latencies::default();
    let mut lag_ms = Vec::new();
    let mut gen_ns = 0;
    for o in outs {
        latency.absorb(o.latency);
        lag_ms.extend(o.lag_ms);
        gen_ns += o.gen_ns;
        tracer.absorb(o.tracer);
    }
    let mut layer = e.finish(
        &Finished {
            tracer: &tracer,
            commits: &commits,
            measured: &measured,
            issued,
            session_ns: E::THREADS as f64 * measured.wall_s * 1e9,
            log_bytes,
        },
        &mut r,
    );
    layer.push((
        "sessions.durable_lag_ms_p50",
        stats::median(&mut lag_ms).unwrap_or(0.0),
    ));
    layer.push((
        "bench.gen_ns_per_op",
        gen_ns as f64 / measured.ops.max(1) as f64,
    ));
    layer.extend(storage_metrics(&measured, &commits, recover_rchar));
    EndToEnd {
        measured,
        windows,
        rates,
        latency,
        commits_ms: commits.ms,
        recover_s,
        setup_s,
        live_bytes: E::KEYS * 16,
    }
    .report(&mut r);
    if opts.trace {
        put_per_layer(&mut r, &layer);
        finish_trace(&mut r, &tracer, opts)?;
    }
    Ok(r)
}
