//! Span tracing around the benchmark's calls into each layer.
//!
//! Every span has a name, start, end, parent span and request id. Each
//! load thread owns one [`Tracer`] (no sharing on the hot path); spans are
//! kept in memory up to a fixed cap, merged when the run ends and written
//! to a file. Callers sample which requests get spans; the per-name
//! [`Tally`] counts every call at the same boundaries, so ratios do not
//! depend on the sampling.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// A span that has begun but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start(&self) -> u64 {
        self.start
    }
}

/// Count and total time of every call at one boundary, sampled or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    pub ns: u64,
}

pub struct Tracer {
    origin: Instant,
    /// Span ids are `thread << 40 | seq`, unique across threads.
    thread: u64,
    seq: u64,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
    tallies: Vec<(&'static str, Tally)>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u64, cap: usize) -> Tracer {
        Tracer {
            origin,
            thread,
            seq: 0,
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
            tallies: Vec::new(),
        }
    }

    /// Nanoseconds since the run's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> Open {
        self.begin_at(name, parent, req, self.now())
    }

    pub fn begin_at(&mut self, name: &'static str, parent: u64, req: u64, start: u64) -> Open {
        self.seq += 1;
        Open {
            id: self.thread << 40 | self.seq,
            parent,
            name,
            req,
            start,
        }
    }

    /// End `open` now; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = self.now();
        self.end_at(open, end)
    }

    pub fn end_at(&mut self, open: Open, end: u64) -> u64 {
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                req: open.req,
                start: open.start,
                end,
            });
        } else {
            self.dropped += 1;
        }
        end.saturating_sub(open.start)
    }

    /// Count one call of `ns` nanoseconds at boundary `name`.
    pub fn tally(&mut self, name: &'static str, ns: u64) {
        match self.tallies.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => {
                t.count += 1;
                t.ns += ns;
            }
            None => self.tallies.push((name, Tally { count: 1, ns })),
        }
    }

    /// Fold another thread's spans and tallies into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
        for (name, t) in other.tallies {
            match self.tallies.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.count += t.count;
                    mine.ns += t.ns;
                }
                None => self.tallies.push((name, t)),
            }
        }
    }

    pub fn tally_of(&self, name: &str) -> Tally {
        self.tallies
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as CSV (`id,parent,req,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.name, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Per-name self-time rollup: `(name, count, total ns, median ns)`,
/// sorted by name.
pub fn rollup(spans: &[Span]) -> Vec<(&'static str, usize, u64, f64)> {
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (name, ns) in self_times(spans) {
        by_name.entry(name).or_default().push(ns as f64);
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(name, mut v)| {
            let total = v.iter().sum::<f64>() as u64;
            let n = v.len();
            (name, n, total, crate::stats::median(&mut v).unwrap_or(0.0))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Median self time of the spans named in `names` (0 when none).
pub fn median_self_ns(spans: &[Span], names: &[&str]) -> f64 {
    let mut v: Vec<f64> = self_times(spans)
        .into_iter()
        .filter(|(n, _)| names.contains(n))
        .map(|(_, ns)| ns as f64)
        .collect();
    crate::stats::median(&mut v).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "call", 10, 40),
            span(3, 1, "call", 30, 50),  // overlaps the first child
            span(4, 1, "wait", 90, 120), // runs past the parent's end
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], ("op", 100 - 40 - 10));
        assert_eq!(st[1], ("call", 30));
        assert_eq!(st[3], ("wait", 30));
    }

    #[test]
    fn rollup_groups_by_name() {
        let spans = [
            span(1, 0, "a", 0, 10),
            span(2, 0, "a", 0, 30),
            span(3, 0, "b", 5, 6),
        ];
        let r = rollup(&spans);
        assert_eq!(r, vec![("a", 2, 40, 20.0), ("b", 1, 1, 1.0)]);
        assert_eq!(median_self_ns(&spans, &["a"]), 20.0);
        assert_eq!(median_self_ns(&spans, &["zzz"]), 0.0);
    }

    #[test]
    fn tracer_caps_spans_and_keeps_tallies_exact() {
        let mut t = Tracer::new(Instant::now(), 1, 2);
        for _ in 0..5 {
            let o = t.begin("x", 0, 0);
            let ns = t.end(o);
            t.tally("x", ns);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.tally_of("x").count, 5);
        let mut u = Tracer::new(Instant::now(), 2, 8);
        let o = u.begin("x", 0, 0);
        u.end(o);
        u.tally("x", 7);
        assert_ne!(
            u.spans()[0].id,
            t.spans()[0].id,
            "ids unique across threads"
        );
        t.absorb(u);
        assert_eq!(t.tally_of("x").count, 6);
        assert_eq!(t.spans().len(), 3);
    }
}
