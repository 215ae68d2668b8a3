//! Client library: pipelined batches, a bounded in-flight window, and
//! the CPR resume dance.
//!
//! The client assigns every op a serial and keeps it buffered until a
//! server-pushed [`CommitPoint`] covers it — a `BatchAck` means
//! *applied*, not *durable*. On reconnect the handshake returns the
//! serial to resume from: the client discards covered ops, re-issues the
//! uncommitted suffix (and any excluded serials) with a contiguous
//! serial sequence continuing from the resume point, and carries on.
//! Against a recovered server this replays exactly the ops beyond the
//! recovered commit point; against a live server the resume point is the
//! session's last accepted serial and only genuinely-lost ops (sent but
//! never received) are replayed — nothing is ever applied twice.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::CommitPoint;
use cpr_metrics::Registry;

use crate::wire::{encode_op_batch_into, Frame, FrameReader, OpKind, WireOp};

/// Socket poll granularity while waiting on the server.
const POLL: Duration = Duration::from_millis(5);
/// Default cap on sent-but-unacked batches.
const DEFAULT_WINDOW: usize = 8;
/// Default ops per batch when using [`NetClient::submit`].
const DEFAULT_BATCH: usize = 256;

/// A completed operation as reported to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    pub serial: u64,
    pub kind: OpKind,
    pub key: u64,
    pub status: crate::wire::OpStatus,
    pub value: Option<u64>,
}

/// The un-durable suffix of a client's op stream, carried across a
/// reconnect. Obtained from [`NetClient::take_buffer`] (or built empty
/// for a fresh session) and consumed by [`NetClient::connect_with`].
#[derive(Debug, Default, Clone)]
pub struct ReplayBuffer {
    /// Ops beyond the last known commit point, serial-ascending.
    ops: Vec<WireOp>,
}

impl ReplayBuffer {
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The replay set against resume point `resume`: ops not covered
    /// (beyond `until_serial`, or excluded), renumbered contiguously
    /// from `resume.until_serial + 1` in original order. Pure — the
    /// core of the resume dance, unit-tested below.
    pub fn resolve(&self, resume: &CommitPoint) -> Vec<WireOp> {
        let mut next = resume.until_serial;
        self.ops
            .iter()
            .filter(|op| !resume.covers(op.serial))
            .map(|op| {
                next += 1;
                WireOp {
                    serial: next,
                    ..*op
                }
            })
            .collect()
    }
}

/// Ops with consecutive serials, stored without them: op `i` has serial
/// `first + i`. That is 17 bytes an op where a `WireOp` takes 32, and a
/// client holds every op until a commit point covers it.
#[derive(Debug, Default)]
struct Batch {
    first: u64,
    kinds: Vec<OpKind>,
    /// `(key, arg)` per op.
    args: Vec<(u64, u64)>,
}

impl Batch {
    fn len(&self) -> usize {
        self.kinds.len()
    }

    fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Append `op`, whose serial must follow the batch's last one.
    fn push(&mut self, op: WireOp) {
        if self.is_empty() {
            self.first = op.serial;
        }
        debug_assert_eq!(op.serial, self.first + self.len() as u64);
        self.kinds.push(op.kind);
        self.args.push((op.key, op.arg));
    }

    fn clear(&mut self) {
        self.kinds.clear();
        self.args.clear();
    }

    fn ops(&self) -> impl ExactSizeIterator<Item = WireOp> + '_ {
        let ops = self.kinds.iter().zip(&self.args).enumerate();
        ops.map(|(i, (&kind, &(key, arg)))| WireOp {
            serial: self.first + i as u64,
            kind,
            key,
            arg,
        })
    }
}

/// A connection to a [`crate::server::NetServer`], bound to one session
/// guid.
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    guid: u64,
    /// Serial of the last op enqueued.
    next_serial: u64,
    /// Ops accumulated for the next batch.
    batch: Batch,
    /// Ops per batch for `submit` auto-flush.
    batch_size: usize,
    /// Sent batches not yet acked, oldest first (kinds and keys for
    /// result reporting).
    inflight: VecDeque<Batch>,
    /// Send timestamp per in-flight batch, for RTT metrics.
    sent_at: VecDeque<Instant>,
    /// Max sent-but-unacked batches before `flush` blocks on acks.
    window: usize,
    /// Acked batches, oldest first, holding every acked op that no commit
    /// point covers yet. Trimmed a whole batch at a time, so the front
    /// batch may also hold covered ops.
    retained: VecDeque<Batch>,
    /// Ops in `retained`.
    retained_ops: usize,
    /// A trimmed batch's allocation, reused for the next batch.
    spare: Batch,
    /// Encoding buffer for outgoing frames.
    out: Vec<u8>,
    /// Commit point learned at the handshake.
    resume: CommitPoint,
    /// Latest commit point (handshake or server push).
    committed: CommitPoint,
    /// Completed results not yet taken by the application.
    results: Vec<OpResult>,
    /// Ops replayed by the last `connect_with` resume.
    replayed: usize,
    /// Sink for batch round-trip latencies ([`Registry::record_commit`]
    /// per acked batch). Defaults to a no-op registry.
    metrics: Arc<Registry>,
}

impl NetClient {
    /// Connect a fresh session (nothing to replay).
    pub fn connect(addr: impl ToSocketAddrs, guid: u64) -> io::Result<NetClient> {
        Self::connect_with(addr, guid, ReplayBuffer::default())
    }

    /// Connect and run the resume dance: handshake, learn the commit
    /// point for `guid`, replay `buffer`'s uncovered suffix.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        guid: u64,
        buffer: ReplayBuffer,
    ) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        let mut client = NetClient {
            stream,
            reader: FrameReader::new(),
            guid,
            next_serial: 0,
            batch: Batch::default(),
            batch_size: DEFAULT_BATCH,
            inflight: VecDeque::new(),
            sent_at: VecDeque::new(),
            window: DEFAULT_WINDOW,
            retained: VecDeque::new(),
            retained_ops: 0,
            spare: Batch::default(),
            out: Vec::new(),
            resume: CommitPoint::prefix(0, 0),
            committed: CommitPoint::prefix(0, 0),
            results: Vec::new(),
            replayed: 0,
            metrics: Registry::noop(),
        };
        client.send(&Frame::Hello { guid })?;
        // The server registers the connection for commit pushes before it
        // queues the ack, so a commit landing in between arrives first:
        // keep the newest such point and apply it after the handshake.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut early: Option<CommitPoint> = None;
        let resume = loop {
            match client.recv_blocking_deadline(deadline)? {
                Frame::HelloAck { guid: g, resume } if g == guid => break resume,
                Frame::CommitPoint(cp) => {
                    if early.as_ref().is_none_or(|e| cp.version >= e.version) {
                        early = Some(cp);
                    }
                }
                Frame::Error { code, msg } => {
                    return Err(io::Error::other(format!(
                        "handshake refused ({code}): {msg}"
                    )))
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected HelloAck, got {other:?}"),
                    ))
                }
            }
        };
        client.next_serial = resume.until_serial;
        client.resume = resume.clone();
        client.committed = CommitPoint::prefix(resume.version, 0);
        if let Some(cp) = early.filter(|cp| cp.version >= resume.version) {
            client.absorb(Frame::CommitPoint(cp))?;
        }

        // Replay the uncovered suffix. These are ordinary batches: the
        // server skips nothing (all serials are beyond its resume point)
        // and acks them like new work.
        let replay = buffer.resolve(&resume);
        client.replayed = replay.len();
        for op in replay {
            client.next_serial = op.serial;
            client.batch.push(op);
            if client.batch.len() >= client.batch_size {
                client.flush()?;
            }
        }
        client.flush()?;
        client.wait_acks(Duration::from_secs(30))?;
        Ok(client)
    }

    /// The commit point learned at the handshake — after a server crash
    /// and recovery, the durable prefix for this guid.
    pub fn resume_point(&self) -> &CommitPoint {
        &self.resume
    }

    /// The latest commit point the server has pushed.
    pub fn committed(&self) -> &CommitPoint {
        &self.committed
    }

    /// Ops replayed during the last connect (0 for a fresh session).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    pub fn guid(&self) -> u64 {
        self.guid
    }

    /// Serial that will be assigned to the next op.
    pub fn next_serial(&self) -> u64 {
        self.next_serial + 1
    }

    /// Ops not yet covered by a commit point (would be replayed if the
    /// server crashed now).
    pub fn uncommitted(&self) -> usize {
        // Only batches starting at or below the commit point can hold
        // covered ops; trimming keeps those few at the front.
        let covered: usize = self
            .retained
            .iter()
            .take_while(|b| b.first <= self.committed.until_serial)
            .map(|b| {
                b.ops()
                    .filter(|op| self.committed.covers(op.serial))
                    .count()
            })
            .sum();
        self.retained_ops - covered
            + self.inflight.iter().map(Batch::len).sum::<usize>()
            + self.batch.len()
    }

    pub fn set_window(&mut self, batches: usize) {
        self.window = batches.max(1);
    }

    pub fn set_batch_size(&mut self, ops: usize) {
        self.batch_size = ops.max(1);
    }

    /// Record per-batch round-trip latency (and op counts) into a
    /// metrics registry; share one registry across clients to merge.
    pub fn set_metrics(&mut self, metrics: Arc<Registry>) {
        self.metrics = metrics;
    }

    // ---- op submission ------------------------------------------------------

    /// Enqueue an op; auto-flushes at the batch size. Returns the
    /// assigned serial.
    pub fn submit(&mut self, kind: OpKind, key: u64, arg: u64) -> io::Result<u64> {
        self.next_serial += 1;
        let serial = self.next_serial;
        self.batch.push(WireOp {
            serial,
            kind,
            key,
            arg,
        });
        if self.batch.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(serial)
    }

    pub fn read(&mut self, key: u64) -> io::Result<u64> {
        self.submit(OpKind::Read, key, 0)
    }

    pub fn upsert(&mut self, key: u64, value: u64) -> io::Result<u64> {
        self.submit(OpKind::Upsert, key, value)
    }

    pub fn rmw(&mut self, key: u64, delta: u64) -> io::Result<u64> {
        self.submit(OpKind::Rmw, key, delta)
    }

    pub fn delete(&mut self, key: u64) -> io::Result<u64> {
        self.submit(OpKind::Delete, key, 0)
    }

    /// Send the pending batch, then drain acks until the in-flight
    /// window has room again.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.batch.is_empty() {
            self.out.clear();
            encode_op_batch_into(self.batch.ops(), &mut self.out);
            self.stream.write_all(&self.out)?;
            let batch = std::mem::replace(&mut self.batch, std::mem::take(&mut self.spare));
            self.inflight.push_back(batch);
            self.sent_at.push_back(Instant::now());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.inflight.len() > self.window {
            self.pump_one(deadline)?;
        }
        Ok(())
    }

    /// Flush and wait until every sent batch is acked; returns all
    /// results accumulated since the last take.
    pub fn sync(&mut self) -> io::Result<Vec<OpResult>> {
        self.flush()?;
        self.wait_acks(Duration::from_secs(30))?;
        Ok(self.take_results())
    }

    /// Results accumulated since the last call (acks arrive during any
    /// pump: `flush`, `sync`, `wait_commit`, ...).
    pub fn take_results(&mut self) -> Vec<OpResult> {
        std::mem::take(&mut self.results)
    }

    fn wait_acks(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        while !self.inflight.is_empty() {
            self.pump_one(deadline)?;
        }
        Ok(())
    }

    // ---- checkpoints & scans ------------------------------------------------

    /// Ask the server to start a checkpoint. Returns whether one was
    /// started (false: another is already in flight).
    pub fn request_checkpoint(&mut self, variant: u8, log_only: bool) -> io::Result<bool> {
        self.send(&Frame::CheckpointReq { variant, log_only })?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.recv_blocking_deadline(deadline)? {
                Frame::CheckpointAck { started } => return Ok(started),
                other => self.absorb(other)?,
            }
        }
    }

    /// Wait until a pushed commit point reaches `version`. The client
    /// must keep its session refreshed server-side, which happens
    /// automatically (the server refreshes idle sessions).
    pub fn wait_commit(&mut self, version: u64, timeout: Duration) -> io::Result<CommitPoint> {
        let deadline = Instant::now() + timeout;
        while self.committed.version < version {
            let frame = self.recv_blocking_deadline(deadline)?;
            self.absorb(frame)?;
        }
        Ok(self.committed.clone())
    }

    /// Full scan of the server's live state, sorted by key.
    pub fn scan(&mut self) -> io::Result<Vec<(u64, u64)>> {
        self.send(&Frame::ScanReq)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut out = Vec::new();
        loop {
            match self.recv_blocking_deadline(deadline)? {
                Frame::ScanChunk { last, entries } => {
                    out.extend(entries);
                    if last {
                        return Ok(out);
                    }
                }
                other => self.absorb(other)?,
            }
        }
    }

    /// Close politely. For crash testing, just drop the client (after
    /// [`NetClient::take_buffer`]).
    pub fn goodbye(mut self) -> io::Result<()> {
        self.flush()?;
        self.wait_acks(Duration::from_secs(30))?;
        self.send(&Frame::Goodbye)
    }

    /// Extract the un-durable suffix for a later
    /// [`NetClient::connect_with`]. Includes acked-but-uncommitted,
    /// in-flight, and unsent ops, in serial order.
    pub fn take_buffer(self) -> ReplayBuffer {
        let committed = &self.committed;
        let mut ops: Vec<WireOp> = self
            .retained
            .iter()
            .flat_map(Batch::ops)
            .filter(|op| !committed.covers(op.serial))
            .collect();
        ops.extend(self.inflight.iter().flat_map(Batch::ops));
        ops.extend(self.batch.ops());
        ops.sort_unstable_by_key(|op| op.serial);
        ops.dedup_by_key(|op| op.serial);
        ReplayBuffer { ops }
    }

    // ---- frame plumbing -----------------------------------------------------

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.out.clear();
        frame.encode_into(&mut self.out);
        self.stream.write_all(&self.out)
    }

    /// Receive one frame and fold it into client state.
    fn pump_one(&mut self, deadline: Instant) -> io::Result<()> {
        let frame = self.recv_blocking_deadline(deadline)?;
        self.absorb(frame)
    }

    /// Fold a data frame (ack / commit point) into state; control frames
    /// reaching here are protocol errors.
    fn absorb(&mut self, frame: Frame) -> io::Result<()> {
        match frame {
            Frame::BatchAck { replies } => {
                let batch = self.inflight.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "unexpected BatchAck")
                })?;
                if let Some(t0) = self.sent_at.pop_front() {
                    if self.metrics.is_enabled() {
                        let reads =
                            batch.kinds.iter().filter(|&&k| k == OpKind::Read).count() as u64;
                        self.metrics
                            .record_commit(t0.elapsed(), reads, batch.len() as u64 - reads);
                    }
                }
                self.results
                    .extend(replies.iter().zip(batch.ops()).map(|(r, op)| OpResult {
                        serial: r.serial,
                        kind: op.kind,
                        key: op.key,
                        status: r.status,
                        value: r.value,
                    }));
                // Acked ops stay retained until a commit point covers
                // them; an ack only means applied.
                self.retained_ops += batch.len();
                self.retained.push_back(batch);
                Ok(())
            }
            Frame::CommitPoint(cp) => {
                while let Some(batch) = self.retained.front() {
                    // Batches here are never empty.
                    let last = batch.first + batch.len() as u64 - 1;
                    let excluded = cp
                        .exclusions
                        .iter()
                        .any(|s| (batch.first..=last).contains(s));
                    if last > cp.until_serial || excluded {
                        break;
                    }
                    let mut batch = self.retained.pop_front().expect("front checked");
                    self.retained_ops -= batch.len();
                    batch.clear();
                    self.spare = batch;
                }
                self.committed = cp;
                Ok(())
            }
            Frame::Error { code, msg } => {
                Err(io::Error::other(format!("server error ({code}): {msg}")))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected frame {other:?}"),
            )),
        }
    }

    fn recv_blocking_deadline(&mut self, deadline: Instant) -> io::Result<Frame> {
        loop {
            if let Some(frame) = self.reader.poll(&mut self.stream)? {
                return Ok(frame);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for server",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{OpReply, OpStatus};

    fn op(serial: u64, key: u64) -> WireOp {
        WireOp {
            serial,
            kind: OpKind::Upsert,
            key,
            arg: key,
        }
    }

    #[test]
    fn resolve_replays_exactly_the_uncovered_suffix() {
        let buf = ReplayBuffer {
            ops: (1..=10).map(|s| op(s, 100 + s)).collect(),
        };
        // Commit point at 6: replay 7..=10 with unchanged serials.
        let replay = buf.resolve(&CommitPoint::prefix(3, 6));
        assert_eq!(replay.len(), 4);
        assert_eq!(
            replay.iter().map(|o| o.serial).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(
            replay.iter().map(|o| o.key).collect::<Vec<_>>(),
            vec![107, 108, 109, 110]
        );
    }

    #[test]
    fn resolve_reissues_exclusions_with_fresh_serials() {
        let buf = ReplayBuffer {
            ops: (1..=8).map(|s| op(s, 100 + s)).collect(),
        };
        // Point at 6 excluding 2 and 5: replay {2, 5, 7, 8}, renumbered
        // 7..=10, original order preserved.
        let cp = CommitPoint {
            version: 4,
            until_serial: 6,
            exclusions: vec![2, 5],
        };
        let replay = buf.resolve(&cp);
        assert_eq!(
            replay.iter().map(|o| (o.serial, o.key)).collect::<Vec<_>>(),
            vec![(7, 102), (8, 105), (9, 107), (10, 108)]
        );
    }

    /// Accept one connection on a local listener and run `script` over
    /// it on a thread; returns the address and the thread.
    fn scripted_server(
        script: impl FnOnce(&mut TcpStream, &mut FrameReader) + Send + 'static,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(POLL)).unwrap();
            script(&mut stream, &mut FrameReader::new());
        });
        (addr, server)
    }

    fn next_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Frame {
        loop {
            if let Some(f) = reader.poll(stream).unwrap() {
                return f;
            }
        }
    }

    fn send_frames(stream: &mut TcpStream, frames: &[Frame]) {
        let mut out = Vec::new();
        for f in frames {
            f.encode_into(&mut out);
        }
        stream.write_all(&out).unwrap();
    }

    /// A commit can land between the server registering a connection and
    /// queuing its `HelloAck`, so the commit point arrives first. The
    /// client keeps it and applies it after the handshake.
    #[test]
    fn commit_point_before_hello_ack_is_absorbed() {
        let (addr, server) = scripted_server(|stream, reader| {
            assert_eq!(next_frame(stream, reader), Frame::Hello { guid: 9 });
            send_frames(
                stream,
                &[
                    Frame::CommitPoint(CommitPoint::prefix(3, 40)),
                    Frame::CommitPoint(CommitPoint::prefix(4, 50)),
                    Frame::HelloAck {
                        guid: 9,
                        resume: CommitPoint::prefix(3, 55),
                    },
                ],
            );
            assert_eq!(next_frame(stream, reader), Frame::Goodbye);
        });
        let client = NetClient::connect(addr, 9).unwrap();
        assert_eq!(client.resume_point(), &CommitPoint::prefix(3, 55));
        assert_eq!(
            client.committed(),
            &CommitPoint::prefix(4, 50),
            "newest early point"
        );
        assert_eq!(client.next_serial(), 56);
        client.goodbye().unwrap();
        server.join().unwrap();
    }

    /// Acked batches are dropped only once a commit point covers them
    /// whole; a point inside a batch keeps it, but covered ops are
    /// neither counted as uncommitted nor handed out for replay.
    #[test]
    fn commit_point_trims_whole_batches() {
        let (addr, server) = scripted_server(|stream, reader| {
            assert_eq!(next_frame(stream, reader), Frame::Hello { guid: 4 });
            send_frames(
                stream,
                &[Frame::HelloAck {
                    guid: 4,
                    resume: CommitPoint::prefix(0, 0),
                }],
            );
            for _ in 0..2 {
                let Frame::OpBatch { ops } = next_frame(stream, reader) else {
                    panic!("expected a batch");
                };
                let replies = ops
                    .iter()
                    .map(|op| OpReply {
                        serial: op.serial,
                        status: OpStatus::Ok,
                        value: None,
                    })
                    .collect();
                send_frames(stream, &[Frame::BatchAck { replies }]);
            }
            send_frames(stream, &[Frame::CommitPoint(CommitPoint::prefix(1, 5))]);
            assert_eq!(next_frame(stream, reader), Frame::ScanReq);
            send_frames(
                stream,
                &[Frame::ScanChunk {
                    last: true,
                    entries: Vec::new(),
                }],
            );
        });
        let mut client = NetClient::connect(addr, 4).unwrap();
        client.set_batch_size(4);
        for k in 0..8 {
            client.upsert(k, k).unwrap();
        }
        assert_eq!(client.sync().unwrap().len(), 8);
        assert_eq!(client.uncommitted(), 8);
        // The scan's reply comes after the commit point.
        assert!(client.scan().unwrap().is_empty());
        assert_eq!(client.committed(), &CommitPoint::prefix(1, 5));
        assert_eq!(client.uncommitted(), 3);
        let buffer = client.take_buffer();
        let serials: Vec<u64> = buffer.ops.iter().map(|op| op.serial).collect();
        assert_eq!(serials, vec![6, 7, 8]);
        server.join().unwrap();
    }

    #[test]
    fn resolve_empty_when_fully_covered() {
        let buf = ReplayBuffer {
            ops: (1..=5).map(|s| op(s, s)).collect(),
        };
        assert!(buf.resolve(&CommitPoint::prefix(1, 5)).is_empty());
        assert!(ReplayBuffer::default()
            .resolve(&CommitPoint::prefix(0, 0))
            .is_empty());
    }
}
