//! Pieces shared by the workloads: run options, the report, the load
//! threads' control block, commit bookkeeping and directory sizes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cpr_core::Phase;

use crate::procfs::Snapshot;
use crate::stats;
use crate::trace::Tracer;

/// Set-up (open + preload) and recovery are each repeated at least
/// `MIN_REPEATS` times and until `MIN_REPEAT_S` seconds have passed;
/// `setup_s` and `recover_s` are the medians. Short set-ups thus get many
/// samples.
pub const MIN_REPEATS: usize = 5;
pub const MIN_REPEAT_S: f64 = 2.0;
/// Load and commits run this long before the measured phase starts, so
/// the first measured commit does not flush the preload.
pub const WARMUP: Duration = Duration::from_millis(2000);
/// A commit is requested this often, in the warm-up and the measured phase.
pub const COMMIT_INTERVAL: Duration = Duration::from_millis(500);
/// A commit not durable within this long counts as a failed operation.
pub const COMMIT_DEADLINE: Duration = Duration::from_secs(20);
/// A FASTER op still pending after this long counts as failed.
pub const PENDING_DEADLINE: Duration = Duration::from_secs(5);
/// Ops (or transactions) between the session refreshes the benchmark
/// issues, as a FASTER/memdb application would.
pub const REFRESH_EVERY: u64 = 64;
/// Every `LATENCY_EVERY`-th op of a load thread is timed.
pub const LATENCY_EVERY: u64 = 16;
/// Traced runs record spans for every `SPAN_EVERY`-th op or refresh.
pub const SPAN_EVERY: u64 = 512;
/// Traced runs follow every `LAG_EVERY`-th op until it is durable.
pub const LAG_EVERY: u64 = 1 << 14;
/// Span cap per load thread (about 48 bytes each).
pub const SPAN_CAP: usize = 1 << 18;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Work directory for this run's stores (removed afterwards).
    pub dir: PathBuf,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

impl RunOpts {
    /// Per-thread generator seed derived from the run seed.
    pub fn thread_seed(&self, thread: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(thread as u64 + 1)
    }
}

/// Everything a run prints: correctness, op counts and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.errors.push(what());
        }
    }

    /// Note how far into the run a stage ended.
    pub fn stage(&mut self, name: &str, run_start: Instant) {
        let s = run_start.elapsed().as_secs_f64();
        self.notes.push(format!("stage {name} ended at {s:.2} s"));
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        let strings = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'")))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"errors\": [{}], \"notes\": [{}]}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", "),
            strings(&self.errors),
            strings(&self.notes)
        )
    }
}

/// Load-thread phases, advanced only by the coordinating thread.
pub const WARM: u8 = 0;
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;
pub const DONE: u8 = 3;

/// A counter on a cache line of its own, so the load threads' counters do
/// not share one.
#[repr(align(128))]
#[derive(Default)]
pub struct Padded(pub AtomicU64);

/// Shared between the coordinator and the load threads.
pub struct Control {
    pub phase: AtomicU8,
    /// Start of the measured phase, set before the phase changes to
    /// [`MEASURE`].
    pub start: OnceLock<Instant>,
    /// Ops completed per thread, published once per chunk.
    pub ops: Vec<Padded>,
    /// Threads that have left the load loop.
    pub stopped: AtomicUsize,
}

impl Control {
    pub fn new(threads: usize) -> Control {
        Control {
            phase: AtomicU8::new(WARM),
            start: OnceLock::new(),
            ops: (0..threads).map(|_| Padded::default()).collect(),
            stopped: AtomicUsize::new(0),
        }
    }

    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    pub fn set(&self, phase: u8) {
        self.phase.store(phase, Ordering::Release);
    }

    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|p| p.0.load(Ordering::Acquire)).sum()
    }

    /// Wait until every thread has left the load loop; false on timeout.
    pub fn wait_stopped(&self, threads: usize, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        while self.stopped.load(Ordering::Acquire) < threads {
            if Instant::now() > until {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }
}

/// The measured phase is cut into windows of about [`COMMIT_INTERVAL`], so
/// every window holds one commit. Rates and latency
/// percentiles are computed per window and reported as the median over
/// the better half of the windows ([`stats::better_half_median`]): host
/// interference only ever adds time, so it moves the worse windows, while
/// a change in the program moves every window.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub count: usize,
    pub len: Duration,
}

impl Windows {
    pub fn for_seconds(seconds: f64) -> Windows {
        let count = ((seconds / COMMIT_INTERVAL.as_secs_f64()).round() as usize).max(1);
        Windows {
            count,
            len: Duration::from_secs_f64(seconds / count as f64),
        }
    }

    /// Index of the window `at` falls in (`count` or more: past the end).
    pub fn index(&self, start: Instant, at: Instant) -> usize {
        (at.saturating_duration_since(start).as_secs_f64() / self.len.as_secs_f64()) as usize
    }
}

/// Time, op count, process CPU time and host steal at each window
/// boundary.
#[derive(Debug, Default)]
pub struct Rates {
    marks: Vec<(Instant, u64, f64, f64)>,
}

impl Rates {
    pub fn mark(&mut self, ops: u64) {
        self.marks.push((
            Instant::now(),
            ops,
            crate::procfs::process_cpu_s(),
            crate::procfs::host_steal_s(),
        ));
    }

    /// Marks taken so far.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Per window: ops per second, CPU microseconds per op, steal seconds.
    pub fn per_window(&self) -> Vec<(f64, f64, f64)> {
        self.marks
            .windows(2)
            .map(|p| {
                let secs = p[1].0.duration_since(p[0].0).as_secs_f64();
                let ops = p[1].1.saturating_sub(p[0].1).max(1) as f64;
                (ops / secs, (p[1].2 - p[0].2) * 1e6 / ops, p[1].3 - p[0].3)
            })
            .collect()
    }
}

/// Mark `rates` at the start of the measured phase and at every window
/// boundary after it (run beside the load on the coordinating thread).
pub fn sample_rates(ctl: &Control, start: Instant, w: &Windows) -> Rates {
    let mut rates = Rates::default();
    rates.mark(ctl.total_ops());
    for k in 1..=w.count {
        sleep_until(start + w.len * k as u32);
        rates.mark(ctl.total_ops());
    }
    rates
}

/// Latency samples in microseconds, by window.
#[derive(Debug, Default)]
pub struct Latencies {
    by_window: Vec<Vec<f64>>,
}

impl Latencies {
    pub fn push(&mut self, window: usize, us: f64) {
        if self.by_window.len() <= window {
            self.by_window.resize_with(window + 1, Vec::new);
        }
        self.by_window[window].push(us);
    }

    pub fn absorb(&mut self, other: Latencies) {
        for (w, v) in other.by_window.into_iter().enumerate() {
            for us in v {
                self.push(w, us);
            }
        }
    }

    /// Each measured window's exact percentiles (`None`: no samples).
    pub fn per_window(mut self, w: &Windows) -> Vec<Option<stats::Summary>> {
        self.by_window.resize_with(w.count, Vec::new);
        self.by_window
            .iter_mut()
            .map(|v| stats::summarize(v))
            .collect()
    }
}

/// What the coordinator measures around the measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    pub wall_s: f64,
    pub ops: u64,
    pub proc: Snapshot,
    /// Store directory size at the start and end of the phase.
    pub disk_start: u64,
    pub disk_end: u64,
}

/// Per-commit timings collected during the measured phase.
#[derive(Debug, Default)]
pub struct Commits {
    pub requested: u64,
    pub failed: u64,
    /// Request → durable, per commit.
    pub ms: Vec<f64>,
    /// Prepare + in-progress time, per commit (traced runs for memdb).
    pub shift_ms: Vec<f64>,
    /// Per-phase time of each FASTER commit, by phase.
    pub phase_ms: Vec<(Phase, f64)>,
    /// memdb capture-pass time, per commit.
    pub capture_ms: Vec<f64>,
}

impl Commits {
    /// Fold one FASTER commit's phase marks (`(phase entered, elapsed)`,
    /// ending with the return to rest) into per-phase durations.
    pub fn add_faster_phases(&mut self, marks: &[(Phase, Duration)]) {
        let mut shift = 0.0;
        for w in marks.windows(2) {
            let ms = (w[1].1.saturating_sub(w[0].1)).as_secs_f64() * 1e3;
            self.phase_ms.push((w[0].0, ms));
            if matches!(w[0].0, Phase::Prepare | Phase::InProgress) {
                shift += ms;
            }
        }
        self.shift_ms.push(shift);
    }

    pub fn phase_median(&self, phase: Phase) -> f64 {
        let mut v: Vec<f64> = self
            .phase_ms
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|&(_, ms)| ms)
            .collect();
        stats::median(&mut v).unwrap_or(0.0)
    }
}

/// Whether another set-up or recovery is due, given the `done` ones timed
/// so far and when the first began.
fn repeat_more(done: usize, first: Instant) -> bool {
    done < MIN_REPEATS || first.elapsed().as_secs_f64() < MIN_REPEAT_S
}

/// Set up repeatedly in a fresh `dir`, timing each `open` (open + preload),
/// and keep the last store. Returns it with every set-up time.
pub fn repeat_setup<T>(
    dir: &Path,
    mut open: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<(T, Vec<f64>)> {
    let mut secs = Vec::new();
    let mut last = None;
    let first = Instant::now();
    while repeat_more(secs.len(), first) {
        drop(last.take());
        fresh_dir(dir)?;
        let t0 = Instant::now();
        last = Some(open()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// Recover repeatedly, timing each `recover` and handing what it returned
/// to `check` with the recovery's index. Returns every recovery time and
/// the bytes the first one read (`rchar`).
pub fn repeat_recovery<T>(
    mut recover: impl FnMut() -> std::io::Result<T>,
    mut check: impl FnMut(usize, T) -> std::io::Result<()>,
) -> std::io::Result<(Vec<f64>, u64)> {
    let mut secs = Vec::new();
    let mut rchar = 0;
    let first = Instant::now();
    while repeat_more(secs.len(), first) {
        let io0 = Snapshot::take();
        let t0 = Instant::now();
        let recovered = recover()?;
        secs.push(t0.elapsed().as_secs_f64());
        if secs.len() == 1 {
            rchar = Snapshot::take().since(&io0).rchar;
        }
        check(secs.len() - 1, recovered)?;
    }
    Ok((secs, rchar))
}

/// Set the run's op counts, over the whole run with the warm-up included.
/// Any failed operation makes the run incorrect.
pub fn account(r: &mut Report, attempted: u64, failed: u64) {
    r.attempted = attempted;
    r.failed = failed;
    r.check(failed == 0, || format!("{failed} failed operations"));
}

/// The expected final value of every key `k` in `0..keys`: `k` plus the
/// sum of the deltas the load threads applied to it. `replay(t, n, sums)`
/// regenerates thread `t`'s first `n` operations and adds their deltas to
/// `sums`; threads are replayed in parallel.
pub fn expected_sums(
    keys: u64,
    serials: &[u64],
    replay: impl Fn(usize, u64, &mut [u64]) + Sync,
) -> Vec<u64> {
    let partial: Vec<Vec<u64>> = std::thread::scope(|sc| {
        let handles: Vec<_> = serials
            .iter()
            .enumerate()
            .map(|(t, &n)| {
                let replay = &replay;
                sc.spawn(move || {
                    let mut sums = vec![0u64; keys as usize];
                    replay(t, n, &mut sums);
                    sums
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    (0..keys)
        .map(|k| {
            partial
                .iter()
                .fold(k, |v, sums| v.wrapping_add(sums[k as usize]))
        })
        .collect()
}

/// Compare a scan sorted by key with the expected value of every key;
/// `None` if equal.
pub fn scan_mismatch(scan: &[(u64, u64)], model: &[u64]) -> Option<String> {
    if scan.len() != model.len() {
        return Some(format!(
            "scan has {} keys, expected {}",
            scan.len(),
            model.len()
        ));
    }
    scan.iter()
        .zip(model.iter().enumerate())
        .find(|((k, v), (i, m))| *k != *i as u64 || v != *m)
        .map(|((k, v), (i, m))| format!("key {k} = {v}, expected key {i} = {m}"))
}

/// Run `commit` every [`COMMIT_INTERVAL`] from `start` until `end`, never
/// two at once (a slow commit delays the next tick). Stops at the first
/// commit that fails; returns at `end` at the earliest.
pub fn commit_every(start: Instant, end: Instant, mut commit: impl FnMut() -> bool) {
    let mut tick = start + COMMIT_INTERVAL;
    while tick < end {
        sleep_until(tick);
        if !commit() {
            break;
        }
        while tick <= Instant::now() {
            tick += COMMIT_INTERVAL;
        }
    }
    sleep_until(end);
}

/// Sleep until `when` (no-op if it has passed).
pub fn sleep_until(when: Instant) {
    let now = Instant::now();
    if when > now {
        std::thread::sleep(when - now);
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Make `path` a fresh, empty directory.
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

/// Nanoseconds in `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    pub measured: Measured,
    pub windows: Windows,
    pub rates: Rates,
    pub latency: Latencies,
    pub commits_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub live_bytes: u64,
}

impl EndToEnd {
    pub fn report(mut self, r: &mut Report) {
        let m = &self.measured;
        let ops = m.ops.max(1) as f64;
        let rates = self.rates.per_window();
        let lat = self.latency.per_window(&self.windows);
        let mut table = Vec::new();
        for (i, (rate, cpu, steal)) in rates.iter().enumerate() {
            let s = lat.get(i).copied().flatten();
            table.push(format!(
                "{steal:.2}/{rate:.0}/{cpu:.3}/{:.2}/{:.2}",
                s.map_or(0.0, |s| s.p50),
                s.map_or(0.0, |s| s.p99)
            ));
        }
        r.notes.push(format!(
            "windows steal_s/ops_per_s/cpu_us_per_op/p50/p99: {}",
            table.join(" ")
        ));
        let (mut rate, mut cpu): (Vec<f64>, Vec<f64>) =
            rates.iter().map(|&(r, c, _)| (r, c)).unzip();
        r.put(
            "ops_per_s",
            stats::better_half_median(&mut rate, true).unwrap_or(0.0),
            "1/s",
        );
        r.put(
            "cpu_us_per_op",
            stats::better_half_median(&mut cpu, false).unwrap_or(0.0),
            "us",
        );
        r.notes.push(format!(
            "whole phase: {:.0} ops/s, {:.4} us CPU/op over {:.2} s",
            m.ops as f64 / m.wall_s,
            m.proc.cpu_s * 1e6 / ops,
            m.wall_s
        ));
        let count: usize = lat.iter().flatten().map(|s| s.count).sum();
        let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) =
            lat.iter().flatten().map(|s| (s.p50, s.p99)).unzip();
        match (
            stats::better_half_median(&mut p50s, false),
            stats::better_half_median(&mut p99s, false),
        ) {
            (Some(p50), Some(p99)) => {
                r.put("op_p50_us", p50, "us");
                r.put("op_p99_us", p99, "us");
                r.notes.push(format!(
                    "latency samples: {count} in {} windows",
                    p50s.len()
                ));
            }
            _ => r.check(false, || "no latency samples".into()),
        }
        let each: Vec<String> = self
            .commits_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect();
        r.notes.push(format!("commit ms: {}", each.join(" ")));
        let commits = self.commits_ms.len();
        match stats::median(&mut self.commits_ms) {
            Some(p50) => r.put("commit_p50_ms", p50, "ms"),
            None => r.check(false, || "no commit completed".into()),
        }
        r.notes.push(format!("commit samples: {commits}"));
        r.put(
            "recover_s",
            stats::median(&mut self.recover_s).unwrap_or(0.0),
            "s",
        );
        r.put(
            "disk_bytes_per_live_byte",
            m.disk_end as f64 / self.live_bytes.max(1) as f64,
            "ratio",
        );
        r.put("rss_peak_mb", crate::procfs::peak_rss_mib(), "MiB");
        r.put(
            "setup_s",
            stats::median(&mut self.setup_s).unwrap_or(0.0),
            "s",
        );
        r.put("proc.steal_s", m.proc.steal_s, "s");
        r.put("proc.cpu_s", m.proc.cpu_s, "s");
        r.put("proc.ctx_voluntary", m.proc.ctx_voluntary as f64, "count");
        r.put(
            "proc.ctx_involuntary",
            m.proc.ctx_involuntary as f64,
            "count",
        );
    }
}

/// Per-layer metric names, in the order a traced run prints them. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("faster.op_ns_p50", "ns"),
    ("faster.refresh_frac", "ratio"),
    ("faster.pending_frac", "ratio"),
    ("faster.log_bytes_per_op", "B"),
    ("faster.ckpt.prepare_ms", "ms"),
    ("faster.ckpt.in_progress_ms", "ms"),
    ("faster.ckpt.wait_pending_ms", "ms"),
    ("faster.ckpt.wait_flush_ms", "ms"),
    ("memdb.attempt_ns_p50", "ns"),
    ("memdb.attempts_per_txn", "ratio"),
    ("memdb.capture_ms", "ms"),
    ("memdb.refresh_frac", "ratio"),
    ("epoch.shift_ms", "ms"),
    ("sessions.durable_lag_ms_p50", "ms"),
    ("storage.bytes_per_commit", "B"),
    ("storage.write_calls_per_commit", "count"),
    ("storage.recover_read_bytes", "B"),
    ("net.encode_ns_per_op", "ns"),
    ("net.send_ns_per_batch", "ns"),
    ("net.wait_ns_per_batch", "ns"),
    ("net.wire_bytes_per_op", "B"),
    ("net.ctx_switches_per_batch", "count"),
    ("net.replay_ops_p50", "count"),
    ("bench.gen_ns_per_op", "ns"),
];

/// Put every per-layer metric: the measured ones from `values`, 0 for
/// layers this workload does not exercise.
pub fn put_per_layer(r: &mut Report, values: &[(&'static str, f64)]) {
    for &(name, unit) in PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        r.put(name, v, unit);
    }
}

/// The storage metrics every workload reports in a traced run.
pub fn storage_metrics(
    m: &Measured,
    commits: &Commits,
    recover_rchar: u64,
) -> [(&'static str, f64); 4] {
    let n = commits.ms.len().max(1) as f64;
    let mut shift = commits.shift_ms.clone();
    [
        (
            "storage.bytes_per_commit",
            m.disk_end.saturating_sub(m.disk_start) as f64 / n,
        ),
        ("storage.write_calls_per_commit", m.proc.syscw as f64 / n),
        ("storage.recover_read_bytes", recover_rchar as f64),
        ("epoch.shift_ms", stats::median(&mut shift).unwrap_or(0.0)),
    ]
}

/// Write a traced run's spans and put its self-time rollup in the notes.
pub fn finish_trace(r: &mut Report, tracer: &Tracer, opts: &RunOpts) -> std::io::Result<()> {
    if let Some(path) = &opts.spans_out {
        tracer.write_csv(path)?;
    }
    for (name, count, total, median) in crate::trace::rollup(tracer.spans()) {
        r.notes.push(format!(
            "self time {name}: spans={count} total_ns={total} median_ns={median:.0}"
        ));
    }
    r.notes.push(format!(
        "spans kept={} dropped={}",
        tracer.spans().len(),
        tracer.dropped()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_the_phase() {
        let w = Windows::for_seconds(20.0);
        assert_eq!(w.count, 40);
        let start = Instant::now();
        assert_eq!(w.index(start, start + Duration::from_millis(1250)), 2);
    }
}
