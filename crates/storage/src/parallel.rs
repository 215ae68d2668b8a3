//! How large I/O passes fan out over threads.
//!
//! Checkpoint flushes, checkpoint file writes, memdb capture and load,
//! and FASTER's recovery scan all split their work the same way: into
//! [`IO_CHUNK_BYTES`]-sized units (or record ranges) spread over up to
//! one store-wide thread count, run by [`fan_out`]. The thread count is
//! a per-store setting whose default, [`env_io_threads`], is 1: every
//! pass then runs inline on the calling thread.

use std::io;

/// The unit large I/O passes split into: one scatter-gather buffer of a
/// checkpoint flush, one writer-queue stripe of a pooled
/// [`FileDevice`](crate::FileDevice), and one device read of a recovery
/// scan. Because the flush chunk and the stripe are the same size, a
/// multi-chunk flush fans out over every writer queue.
pub const IO_CHUNK_BYTES: u64 = 1 << 20;

/// The default I/O thread count of a store: the `CPR_IO_THREADS`
/// environment variable, clamped to `1..=64`, and 1 when unset or
/// unparsable — fully serial, the behaviour every deterministic
/// fault-schedule test was written against.
pub fn env_io_threads() -> usize {
    std::env::var("CPR_IO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, 64))
        .unwrap_or(1)
}

/// Run `f(worker, workers)` for each of `workers = min(threads, units)`
/// workers (at least one) and return the results in worker order. The
/// calling thread runs worker 0 itself, so a single worker spawns no
/// thread. The first error in worker order is returned; how workers
/// split the units between them, and whether they stop early once one
/// fails, is up to `f`.
pub fn fan_out<T: Send>(
    threads: usize,
    units: usize,
    f: impl Fn(usize, usize) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    let workers = threads.min(units).max(1);
    if workers == 1 {
        return Ok(vec![f(0, 1)?]);
    }
    std::thread::scope(|sc| {
        let f = &f;
        let rest: Vec<_> = (1..workers)
            .map(|w| sc.spawn(move || f(w, workers)))
            .collect();
        let first = f(0, workers);
        let all: Vec<io::Result<T>> = std::iter::once(first)
            .chain(
                rest.into_iter()
                    .map(|h| h.join().expect("I/O worker panicked")),
            )
            .collect();
        all.into_iter().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn env_io_threads_parses_and_clamps() {
        // Process-global env: this is the only test that touches it.
        std::env::set_var("CPR_IO_THREADS", "4");
        assert_eq!(env_io_threads(), 4);
        std::env::set_var("CPR_IO_THREADS", "0");
        assert_eq!(env_io_threads(), 1, "clamped up");
        std::env::set_var("CPR_IO_THREADS", "nonsense");
        assert_eq!(env_io_threads(), 1, "unparsable falls back");
        std::env::remove_var("CPR_IO_THREADS");
        assert_eq!(env_io_threads(), 1);
    }

    #[test]
    fn one_worker_runs_inline() {
        let me = std::thread::current().id();
        for (threads, units) in [(1, 100), (8, 1), (8, 0)] {
            let seen = fan_out(threads, units, |w, n| {
                Ok((w, n, std::thread::current().id()))
            })
            .unwrap();
            assert_eq!(seen, vec![(0, 1, me)], "threads {threads}, units {units}");
        }
    }

    #[test]
    fn workers_are_clamped_to_units_and_ordered() {
        let out = fan_out(8, 3, |w, n| Ok((w, n, std::thread::current().id()))).unwrap();
        let order: Vec<(usize, usize)> = out.iter().map(|&(w, n, _)| (w, n)).collect();
        assert_eq!(order, vec![(0, 3), (1, 3), (2, 3)]);
        assert_eq!(
            out[0].2,
            std::thread::current().id(),
            "the caller takes worker 0"
        );
        let threads: HashSet<ThreadId> = out.iter().map(|&(_, _, id)| id).collect();
        assert_eq!(threads.len(), 3, "one thread per worker");
        assert_eq!(fan_out(3, 8, |w, _| Ok(w)).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn an_error_stops_the_pass_and_is_returned() {
        // Workers pull units off a shared counter and stop once any of
        // them failed; unit 3 fails.
        let run = |threads: usize| {
            let next = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let failed = AtomicBool::new(false);
            let res = fan_out(threads, 100, |_, _| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 100 || failed.load(Ordering::Acquire) {
                    return Ok(());
                }
                if i == 3 {
                    failed.store(true, Ordering::Release);
                    return Err(io::Error::other(format!("unit {i}")));
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
            (res, done.into_inner())
        };
        let (res, done) = run(1);
        assert_eq!(res.unwrap_err().to_string(), "unit 3");
        assert_eq!(done, 3, "a single worker stops at the failing unit");
        let (res, _) = run(4);
        assert_eq!(res.unwrap_err().to_string(), "unit 3");
        // Of several errors, the lowest worker's wins.
        let res = fan_out(4, 4, |w, _| match w {
            0 => Ok(()),
            w => Err(io::Error::other(format!("worker {w}"))),
        });
        assert_eq!(res.unwrap_err().to_string(), "worker 1");
    }
}
