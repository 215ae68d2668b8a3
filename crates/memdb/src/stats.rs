//! Per-client execution statistics and the time breakdown of paper
//! Figs. 10e / 16e / 17e.

/// Counters and (optionally) a time breakdown collected by one client.
///
/// The breakdown buckets mirror the paper's profile: **Exec** (in-memory
/// transaction processing incl. locking), **Abort** (work discarded on
/// aborts), **Tail contention** (LSN allocation / atomic commit-log
/// append), **Log write** (building and copying WAL records).
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    pub committed: u64,
    pub reads: u64,
    pub writes: u64,
    pub aborts_conflict: u64,
    pub aborts_cpr: u64,
    /// Transactions rejected because the watchdog evicted the session.
    pub aborts_evicted: u64,
    /// Nanoseconds; populated only when profiling is enabled.
    pub exec_ns: u64,
    pub abort_ns: u64,
    pub tail_ns: u64,
    pub log_write_ns: u64,
    /// Side-channel time (tail + log write) accumulated within the current
    /// transaction, subtracted from its exec time on commit.
    pending_side_ns: u64,
}

impl ClientStats {
    /// Attribute `ns` to the tail-contention (`tail = true`) or log-write
    /// bucket, and remember it so the enclosing transaction's exec time
    /// can exclude it.
    pub fn note_side_ns(&mut self, ns: u64, tail: bool) {
        if tail {
            self.tail_ns += ns;
        } else {
            self.log_write_ns += ns;
        }
        self.pending_side_ns += ns;
    }

    /// Take (and reset) the side time accumulated by the current txn.
    pub fn take_pending_side_ns(&mut self) -> u64 {
        std::mem::take(&mut self.pending_side_ns)
    }

    pub fn merge(&mut self, other: &ClientStats) {
        self.committed += other.committed;
        self.reads += other.reads;
        self.writes += other.writes;
        self.aborts_conflict += other.aborts_conflict;
        self.aborts_cpr += other.aborts_cpr;
        self.aborts_evicted += other.aborts_evicted;
        self.exec_ns += other.exec_ns;
        self.abort_ns += other.abort_ns;
        self.tail_ns += other.tail_ns;
        self.log_write_ns += other.log_write_ns;
    }

    pub fn total_attempts(&self) -> u64 {
        self.committed + self.aborts_conflict + self.aborts_cpr + self.aborts_evicted
    }

    /// (exec, abort, tail, log-write) as fractions of profiled time.
    pub fn breakdown(&self) -> [f64; 4] {
        let total = (self.exec_ns + self.abort_ns + self.tail_ns + self.log_write_ns) as f64;
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            self.exec_ns as f64 / total,
            self.abort_ns as f64 / total,
            self.tail_ns as f64 / total,
            self.log_write_ns as f64 / total,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ClientStats {
            committed: 10,
            aborts_conflict: 1,
            exec_ns: 100,
            ..Default::default()
        };
        let b = ClientStats {
            committed: 5,
            aborts_cpr: 2,
            tail_ns: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.committed, 15);
        assert_eq!(a.aborts_conflict, 1);
        assert_eq!(a.aborts_cpr, 2);
        assert_eq!(a.total_attempts(), 18);
        assert_eq!(a.exec_ns, 100);
        assert_eq!(a.tail_ns, 50);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let s = ClientStats {
            exec_ns: 60,
            abort_ns: 10,
            tail_ns: 20,
            log_write_ns: 10,
            ..Default::default()
        };
        let b = s.breakdown();
        assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((b[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(ClientStats::default().breakdown(), [0.0; 4]);
    }
}
