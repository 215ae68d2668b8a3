//! `kv-resident`: embedded FASTER under a Zipfian read/RMW mix with a
//! full fold-over checkpoint every 500 ms.

use std::io;
use std::path::Path;
use std::time::Instant;

use cpr_core::Phase;
use cpr_faster::{
    CheckpointVariant, Completion, FasterBuilder, FasterKv, FasterSession, HlogConfig, ReadResult,
    Status,
};
use cpr_workload::keys::KeyDist;
use cpr_workload::ycsb::{Op, OpKind, YcsbConfig, YcsbGenerator};

use crate::common::*;
use crate::embedded::{Engine, Finished, OpCx};
use crate::trace;

/// Preloaded keys (both FASTER workloads).
pub const KEYS: u64 = 1 << 20;
const PRELOAD_GUID: u64 = 1 << 40;

/// HybridLog sized so the whole run's log tail stays in memory: 4 MiB
/// pages, 1 GiB of frames, ~90% of them mutable. A 20 s run's tail is
/// 250–400 MB on the FASTER workloads; every fold-over copies each key at
/// most once (24 MiB), which leaves room for a faster engine.
pub fn hlog() -> HlogConfig {
    HlogConfig {
        page_bits: 22,
        memory_pages: 256,
        mutable_pages: 230,
        value_size: 8,
    }
}

/// Index buckets scaled from `cpr-bench`'s laptop configuration
/// (2^15 buckets for 200,000 keys), rounded up to a power of two.
pub fn index_buckets() -> usize {
    (KEYS as usize * (1 << 15) / 200_000).next_power_of_two()
}

/// The store configuration; `refresh_every` is the store's own refresh
/// cadence (`u64::MAX` when the benchmark refreshes its sessions itself).
pub fn builder(dir: &Path, refresh_every: u64) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(hlog())
        .index_buckets(index_buckets())
        .refresh_every(refresh_every)
        .max_sessions(8)
}

/// Open a fresh store in `dir` and upsert every key `k` with value `k`.
pub fn open_preloaded(dir: &Path, refresh_every: u64) -> io::Result<FasterKv<u64>> {
    let kv = builder(dir, refresh_every).open()?;
    let mut s = kv.start_session(PRELOAD_GUID);
    for k in 0..KEYS {
        if s.upsert(k, k) == Status::Pending {
            s.complete_pending();
        }
    }
    let until = Instant::now() + PENDING_DEADLINE;
    while s.pending_len() > 0 && Instant::now() < until {
        s.refresh();
    }
    if s.pending_len() > 0 {
        return Err(io::Error::other("preload upserts stayed pending"));
    }
    Ok(kv)
}

fn ycsb() -> YcsbConfig {
    YcsbConfig {
        num_keys: KEYS,
        dist: KeyDist::Zipfian { theta: 0.99 },
        read_frac: 0.5,
        upsert_frac: 0.0,
        rmw_frac: 0.5,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    Done,
    Pending,
    Failed,
}

fn apply(s: &mut FasterSession<u64>, op: &Op) -> Res {
    let status = match op.kind {
        OpKind::Read => {
            return match s.read(op.key) {
                ReadResult::Found(_) => Res::Done,
                ReadResult::Pending => Res::Pending,
                // Every key is preloaded: absent is wrong, eviction failed.
                _ => Res::Failed,
            };
        }
        OpKind::Rmw => s.rmw(op.key, op.arg),
        OpKind::Upsert => s.upsert(op.key, op.arg),
    };
    match status {
        Status::Ok => Res::Done,
        Status::Pending => Res::Pending,
        _ => Res::Failed,
    }
}

fn call_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "faster.read",
        OpKind::Rmw => "faster.rmw",
        OpKind::Upsert => "faster.upsert",
    }
}

/// Drive this session's pending ops home; false if one outlives
/// [`PENDING_DEADLINE`] or a pending read finds no value.
pub fn finish_pending(s: &mut FasterSession<u64>, done: &mut Vec<Completion<u64>>) -> bool {
    let until = Instant::now() + PENDING_DEADLINE;
    loop {
        s.complete_pending();
        if s.pending_len() == 0 {
            break;
        }
        if Instant::now() > until {
            return false;
        }
        s.refresh();
    }
    s.drain_completions(done);
    let ok = done
        .iter()
        .all(|c| c.kind != cpr_faster::OpKind::Read || c.value.is_some());
    done.clear();
    ok
}

/// The `kv-resident` workload.
pub struct KvResident;

impl Engine for KvResident {
    type Store = FasterKv<u64>;
    type Session = (FasterSession<u64>, Vec<Completion<u64>>);
    type Gen = YcsbGenerator;
    type Op = Op;

    const NAME: &'static str = "kv-resident";
    const KEYS: u64 = KEYS;
    const THREADS: usize = 2;
    const CHUNK: usize = 1024;
    const OP_SPAN: &'static str = "kv.op";
    const REFRESH_SPAN: &'static str = "faster.refresh";

    fn open(&self, dir: &Path) -> io::Result<FasterKv<u64>> {
        open_preloaded(dir, u64::MAX)
    }

    fn session(&self, kv: &FasterKv<u64>, guid: u64) -> Self::Session {
        (kv.start_session(guid), Vec::new())
    }

    fn generator(&self, seed: u64) -> YcsbGenerator {
        YcsbGenerator::new(ycsb(), seed)
    }

    fn next(&self, gen: &mut YcsbGenerator) -> Op {
        gen.next_op()
    }

    fn execute(&self, kv: &FasterKv<u64>, s: &mut Self::Session, op: &Op, cx: &mut OpCx) -> bool {
        let (s, done) = s;
        let call = cx
            .span
            .map(|root| cx.tracer.begin(call_name(op.kind), root, cx.req));
        let res = apply(s, op);
        if let Some(c) = call {
            cx.tracer.end(c);
        }
        if res != Res::Pending {
            return res == Res::Done;
        }
        cx.tracer.tally("faster.pending", 0);
        if kv.state().0 == Phase::Rest {
            cx.tracer.tally("faster.pending_at_rest", 0);
        }
        let p0 = cx.tracer.now();
        let ok = finish_pending(s, done);
        if cx.traced {
            let sp =
                cx.tracer
                    .begin_at("faster.complete_pending", cx.span.unwrap_or(0), cx.req, p0);
            let d = cx.tracer.end(sp);
            cx.tracer.tally("faster.complete_pending", d);
        }
        ok
    }

    fn refresh(&self, s: &mut Self::Session) {
        s.0.refresh();
    }

    fn durable_serial(&self, s: &mut Self::Session) -> u64 {
        s.0.durable_serial()
    }

    fn serial(&self, s: &Self::Session) -> u64 {
        s.0.serial()
    }

    /// A full fold-over checkpoint.
    fn commit(&self, kv: &FasterKv<u64>, commits: &mut Commits, _trace: bool) -> bool {
        let v = kv.state().1;
        commits.requested += 1;
        let t0 = Instant::now();
        if !kv.request_checkpoint(CheckpointVariant::FoldOver, false)
            || !kv.wait_for_version(v, COMMIT_DEADLINE)
        {
            commits.failed += 1;
            return false;
        }
        commits.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        commits.add_faster_phases(&kv.last_checkpoint_phases());
        true
    }

    fn scan(&self, kv: &FasterKv<u64>) -> Result<Vec<(u64, u64)>, String> {
        let mut scan = kv.scan_all().map_err(|e| e.to_string())?;
        scan.sort_unstable();
        Ok(scan)
    }

    fn durable_point(&self, kv: &FasterKv<u64>, guid: u64) -> u64 {
        kv.durable_point(guid)
    }

    fn recover(&self, dir: &Path, guids: &[u64]) -> io::Result<(FasterKv<u64>, bool, Vec<u64>)> {
        let (kv, manifest) = builder(dir, u64::MAX).recover()?;
        let serials = guids.iter().map(|&g| kv.continue_session(g).1).collect();
        Ok((kv, manifest.is_some(), serials))
    }

    fn replay(&self, seed: u64, n: u64, sums: &mut [u64]) {
        let mut g = YcsbGenerator::new(ycsb(), seed);
        for _ in 0..n {
            let op = g.next_op();
            if op.kind == OpKind::Rmw {
                sums[op.key as usize] = sums[op.key as usize].wrapping_add(op.arg);
            }
        }
    }

    fn inspect(&self, kv: &FasterKv<u64>, r: &mut Report) {
        let resident = resident_note(kv, r);
        r.check(resident, || {
            "records left memory: the store is not resident".into()
        });
        r.notes.push(format!(
            "checkpoints aborted on I/O errors: {}",
            kv.checkpoint_failures()
        ));
    }

    fn log_tail(&self, kv: &FasterKv<u64>) -> u64 {
        kv.log_tail()
    }

    fn finish(&self, run: &Finished, r: &mut Report) -> Vec<(&'static str, f64)> {
        let t = run.tracer;
        let pending = t.tally_of("faster.pending").count;
        let at_rest = t.tally_of("faster.pending_at_rest").count;
        r.notes.push(format!(
            "pending ops: {pending} ({at_rest} returned while no commit was in flight)"
        ));
        let refresh_ns = t.tally_of("faster.refresh").ns + t.tally_of("faster.complete_pending").ns;
        let mut layer = vec![
            (
                "faster.op_ns_p50",
                trace::median_self_ns(t.spans(), &["faster.read", "faster.rmw"]),
            ),
            ("faster.refresh_frac", refresh_ns as f64 / run.session_ns),
            (
                "faster.pending_frac",
                pending as f64 / run.issued.max(1) as f64,
            ),
        ];
        layer.extend(checkpoint_layers(run.commits, run.log_bytes, run.measured));
        layer
    }
}

/// The FASTER log and checkpoint metrics both FASTER workloads report.
pub fn checkpoint_layers(
    commits: &Commits,
    log_bytes: u64,
    measured: &Measured,
) -> [(&'static str, f64); 5] {
    [
        (
            "faster.log_bytes_per_op",
            log_bytes as f64 / measured.ops.max(1) as f64,
        ),
        (
            "faster.ckpt.prepare_ms",
            commits.phase_median(Phase::Prepare),
        ),
        (
            "faster.ckpt.in_progress_ms",
            commits.phase_median(Phase::InProgress),
        ),
        (
            "faster.ckpt.wait_pending_ms",
            commits.phase_median(Phase::WaitPending),
        ),
        (
            "faster.ckpt.wait_flush_ms",
            commits.phase_median(Phase::WaitFlush),
        ),
    ]
}

/// Whether every record is still in memory (the log's head has not moved
/// past its first record), so no op can have gone pending on a disk read.
pub fn resident_note(kv: &FasterKv<u64>, r: &mut Report) -> bool {
    let hl = kv.hlog();
    r.notes.push(format!(
        "hlog begin={} head={} tail={} memory={}",
        hl.begin_address(),
        hl.head(),
        hl.tail(),
        hlog().memory_pages << hlog().page_bits
    ));
    hl.head() <= hl.begin_address()
}
