//! Readers for the `/proc` files the benchmark measures from outside the
//! engines: process CPU time, I/O syscalls, peak RSS, context switches
//! and host steal time.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every architecture).
const TICKS_PER_S: f64 = 100.0;

/// `(utime, stime)` ticks from the text of `/proc/<pid>/stat`. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) ... utime(14) stime(15) → indexes 11, 12.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// `(total, steal)` ticks from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice, so it is not added.
    let total = ticks.iter().take(8).sum();
    let steal = *ticks.get(7)?;
    Some((total, steal))
}

/// The numeric value of `key:` in a `/proc` key-value file such as
/// `/proc/self/io` or `/proc/self/status` (units such as `kB` ignored).
pub fn parse_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.split_whitespace().next()?.parse().ok())?
    })
}

/// One reading of every process and host counter the benchmark uses.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Process user + system CPU seconds.
    pub cpu_s: f64,
    /// Host steal seconds, summed over all CPUs.
    pub steal_s: f64,
    /// Voluntary / involuntary context switches: summed over the live
    /// threads in a reading, the growth over threads in a [`since`] delta.
    ///
    /// [`since`]: Snapshot::since
    pub ctx_voluntary: u64,
    pub ctx_involuntary: u64,
    /// `/proc/self/io`: bytes read via syscalls and write syscalls.
    pub rchar: u64,
    pub syscw: u64,
    /// Per live thread: `(tid, voluntary, involuntary)`, sorted by tid.
    threads: Vec<(u64, u64, u64)>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let io = read("/proc/self/io").unwrap_or_default();
        let threads = thread_ctx_switches();
        Snapshot {
            cpu_s: process_cpu_s(),
            steal_s: host_steal_s(),
            ctx_voluntary: threads.iter().map(|t| t.1).sum(),
            ctx_involuntary: threads.iter().map(|t| t.2).sum(),
            rchar: parse_field(&io, "rchar").unwrap_or(0),
            syscw: parse_field(&io, "syscw").unwrap_or(0),
            threads,
        }
    }

    /// Counter growth from `earlier` to `self`. Context switches are
    /// differenced per thread: a thread that started in between counts in
    /// full, and one that exited in between is missing from both sides of
    /// the difference, so its switches after `earlier` are not counted.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let (ctx_voluntary, ctx_involuntary) = ctx_growth(&earlier.threads, &self.threads);
        Snapshot {
            cpu_s: self.cpu_s - earlier.cpu_s,
            steal_s: self.steal_s - earlier.steal_s,
            ctx_voluntary,
            ctx_involuntary,
            rchar: self.rchar.saturating_sub(earlier.rchar),
            syscw: self.syscw.saturating_sub(earlier.syscw),
            threads: Vec::new(),
        }
    }
}

/// Context-switch growth over the threads of `later`: each thread's count
/// less its count in `earlier` (0 if it was not alive then). Both lists
/// are sorted by tid.
fn ctx_growth(earlier: &[(u64, u64, u64)], later: &[(u64, u64, u64)]) -> (u64, u64) {
    later.iter().fold((0, 0), |(v, i), &(tid, lv, li)| {
        let (ev, ei) = earlier
            .binary_search_by_key(&tid, |t| t.0)
            .map_or((0, 0), |k| (earlier[k].1, earlier[k].2));
        (v + lv.saturating_sub(ev), i + li.saturating_sub(ei))
    })
}

/// Process user + system CPU seconds (`/proc/self/stat` only).
pub fn process_cpu_s() -> f64 {
    let (utime, stime) = read("/proc/self/stat")
        .and_then(|t| parse_stat_cpu(&t))
        .unwrap_or_default();
    (utime + stime) as f64 / TICKS_PER_S
}

/// Host steal seconds so far, summed over all CPUs (`/proc/stat`).
pub fn host_steal_s() -> f64 {
    let (_, steal) = read("/proc/stat")
        .and_then(|t| parse_host_cpu(&t))
        .unwrap_or_default();
    steal as f64 / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|t| parse_field(&t, "VmHWM"))
        .unwrap_or(0) as f64
        / 1024.0
}

/// `(tid, voluntary, involuntary)` context switches of every live thread,
/// sorted by tid. `/proc/self/status` counts only the main thread, so
/// every task is read.
fn thread_ctx_switches() -> Vec<(u64, u64, u64)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut threads: Vec<(u64, u64, u64)> = tasks
        .flatten()
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            let s = fs::read_to_string(t.path().join("status")).ok()?;
            Some((
                tid,
                parse_field(&s, "voluntary_ctxt_switches").unwrap_or(0),
                parse_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0),
            ))
        })
        .collect();
    threads.sort_unstable();
    threads
}

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_skips_a_command_name_with_spaces() {
        let line = "4242 (perf bench) (x)) R 1 2 3 4 5 6 7 8 9 10 123 45 0 0 20 0 9 0 77";
        assert_eq!(parse_stat_cpu(line), Some((123, 45)));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn host_cpu_reads_total_and_steal() {
        let text = "cpu  100 1 50 800 9 0 5 35 7 0\ncpu0 50 0 25 400 4 0 2 17 3 0\n";
        assert_eq!(parse_host_cpu(text), Some((1000, 35)));
        assert_eq!(parse_host_cpu("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn fields_parse_io_and_status_files() {
        let io = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 17\n";
        assert_eq!(parse_field(io, "syscw"), Some(17));
        assert_eq!(parse_field(io, "rchar"), Some(3980));
        let status = "Name:\tperfbench\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t12\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_field(status, "VmHWM"), Some(204800));
        assert_eq!(parse_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(parse_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(parse_field(status, "VmRSS"), None);
    }

    #[test]
    fn ctx_growth_is_per_thread() {
        let earlier = [(10, 5, 1), (11, 7, 2), (12, 100, 50)];
        // Thread 12 exited, thread 13 started: 12 neither adds nor
        // subtracts, 13 counts in full.
        let later = [(10, 8, 1), (11, 7, 4), (13, 3, 1)];
        assert_eq!(ctx_growth(&earlier, &later), (6, 3));
        assert_eq!(ctx_growth(&[], &later), (18, 6));
    }

    #[test]
    fn live_snapshot_is_monotone() {
        let a = Snapshot::take();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let d = Snapshot::take().since(&a);
        assert!(d.cpu_s >= 0.0 && d.steal_s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
