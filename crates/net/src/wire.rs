//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[len: u32 le][tag: u8][body]`, where `len` counts the
//! tag plus body. Integers are little-endian fixed width; values are
//! `u64` (both engines are served as `u64` stores). Client-to-server
//! tags occupy `0x01..=0x7f`, server-to-client tags `0x80..=0xff`.
//!
//! | tag  | frame            | body |
//! |------|------------------|------|
//! | 0x01 | `Hello`          | `guid u64` |
//! | 0x02 | `OpBatch`        | `count u32, (serial u64, kind u8, key u64, arg u64)*` |
//! | 0x03 | `CheckpointReq`  | `variant u8, log_only u8` |
//! | 0x04 | `ScanReq`        | — |
//! | 0x05 | `Goodbye`        | — |
//! | 0x81 | `HelloAck`       | `guid u64, commit-point` |
//! | 0x82 | `BatchAck`       | `count u32, (serial u64, status u8, has_value u8, value u64)*` |
//! | 0x83 | `CommitPoint`    | `commit-point` |
//! | 0x84 | `CheckpointAck`  | `started u8` |
//! | 0x85 | `ScanChunk`      | `last u8, count u32, (key u64, value u64)*` |
//! | 0x86 | `Error`          | `code u8, msg_len u32, msg utf-8` |
//!
//! where `commit-point` is `version u64, until_serial u64,
//! excl_count u32, (serial u64)*` — the [`CommitPoint`] a server pushes
//! after every durable checkpoint and returns during the resume
//! handshake.

use std::io::{self, Read};

use cpr_core::CommitPoint;

/// Upper bound on a frame body; a peer announcing more is corrupt (or
/// hostile) and the connection is dropped.
pub const MAX_FRAME: usize = 64 << 20;

/// Kind of one client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Upsert,
    /// Read-modify-write; for the `u64` stores served here the merge is a
    /// wrapping add of `arg`.
    Rmw,
    Delete,
}

impl OpKind {
    fn to_u8(self) -> u8 {
        match self {
            OpKind::Read => 0,
            OpKind::Upsert => 1,
            OpKind::Rmw => 2,
            OpKind::Delete => 3,
        }
    }

    fn from_u8(b: u8) -> io::Result<OpKind> {
        Ok(match b {
            0 => OpKind::Read,
            1 => OpKind::Upsert,
            2 => OpKind::Rmw,
            3 => OpKind::Delete,
            _ => return Err(bad(format!("unknown op kind {b}"))),
        })
    }
}

/// One operation in a batch, tagged with its client-assigned serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOp {
    pub serial: u64,
    pub kind: OpKind,
    pub key: u64,
    /// Upsert value / RMW delta; ignored for reads and deletes.
    pub arg: u64,
}

/// Per-op outcome in a [`Frame::BatchAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    Ok,
    /// Read of an absent key.
    NotFound,
    /// The engine session was evicted; the op was NOT applied. The server
    /// closes the connection after the ack — reconnect and replay.
    Evicted,
    /// The op's serial was at or below the session's resume point: it was
    /// already applied in a previous incarnation and was skipped.
    Skipped,
}

impl OpStatus {
    fn to_u8(self) -> u8 {
        match self {
            OpStatus::Ok => 0,
            OpStatus::NotFound => 1,
            OpStatus::Evicted => 2,
            OpStatus::Skipped => 3,
        }
    }

    fn from_u8(b: u8) -> io::Result<OpStatus> {
        Ok(match b {
            0 => OpStatus::Ok,
            1 => OpStatus::NotFound,
            2 => OpStatus::Evicted,
            3 => OpStatus::Skipped,
            _ => return Err(bad(format!("unknown op status {b}"))),
        })
    }
}

/// Per-op reply carried by a [`Frame::BatchAck`], in batch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpReply {
    pub serial: u64,
    pub status: OpStatus,
    /// Read result; `None` for updates and read misses.
    pub value: Option<u64>,
}

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Malformed or out-of-order request; the connection is closed.
    pub const PROTOCOL: u8 = 1;
    /// The engine session was evicted by the liveness watchdog.
    pub const EVICTED: u8 = 2;
    /// A session for this guid is already connected.
    pub const GUID_IN_USE: u8 = 3;
    /// Server-side I/O failure (e.g. scan against a crashed device).
    pub const IO: u8 = 4;
}

/// A protocol frame. See the module docs for the byte layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Hello {
        guid: u64,
    },
    OpBatch {
        ops: Vec<WireOp>,
    },
    CheckpointReq {
        variant: u8,
        log_only: bool,
    },
    ScanReq,
    Goodbye,
    HelloAck {
        guid: u64,
        resume: CommitPoint,
    },
    BatchAck {
        replies: Vec<OpReply>,
    },
    CommitPoint(CommitPoint),
    CheckpointAck {
        started: bool,
    },
    ScanChunk {
        last: bool,
        entries: Vec<(u64, u64)>,
    },
    Error {
        code: u8,
        msg: String,
    },
}

/// Checkpoint variants over the wire (`CheckpointReq.variant`).
pub mod checkpoint_variant {
    pub const FOLD_OVER: u8 = 0;
    pub const SNAPSHOT: u8 = 1;
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_commit_point(buf: &mut Vec<u8>, cp: &CommitPoint) {
    buf.extend_from_slice(&cp.version.to_le_bytes());
    buf.extend_from_slice(&cp.until_serial.to_le_bytes());
    buf.extend_from_slice(&(cp.exclusions.len() as u32).to_le_bytes());
    for s in &cp.exclusions {
        buf.extend_from_slice(&s.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(bad("frame truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn commit_point(&mut self) -> io::Result<CommitPoint> {
        let version = self.u64()?;
        let until_serial = self.u64()?;
        let n = self.u32()? as usize;
        let mut exclusions = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            exclusions.push(self.u64()?);
        }
        Ok(CommitPoint {
            version,
            until_serial,
            exclusions,
        })
    }

    fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad(format!(
                "{} trailing bytes in frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Append an `OpBatch` frame carrying `ops` to `buf`: the bytes of
/// `Frame::OpBatch { ops }.encode()`, without building the frame.
pub fn encode_op_batch_into(ops: impl ExactSizeIterator<Item = WireOp>, buf: &mut Vec<u8>) {
    let start = begin_frame(buf, 0x02);
    buf.reserve(4 + ops.len() * 25);
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        buf.extend_from_slice(&op.serial.to_le_bytes());
        buf.push(op.kind.to_u8());
        buf.extend_from_slice(&op.key.to_le_bytes());
        buf.extend_from_slice(&op.arg.to_le_bytes());
    }
    end_frame(buf, start);
}

/// Append a `ScanChunk` frame carrying `entries` to `buf`: the bytes of
/// `Frame::ScanChunk { last, entries }.encode()`, without building the
/// frame.
pub fn encode_scan_chunk_into(last: bool, entries: &[(u64, u64)], buf: &mut Vec<u8>) {
    let start = begin_frame(buf, 0x85);
    buf.reserve(5 + entries.len() * 16);
    buf.push(u8::from(last));
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        buf.extend_from_slice(&k.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
    end_frame(buf, start);
}

/// Push a placeholder length prefix and `tag`; returns where the frame
/// starts, for [`end_frame`].
fn begin_frame(buf: &mut Vec<u8>, tag: u8) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.push(tag);
    start
}

/// Patch the length prefix of the frame that starts at `start`.
fn end_frame(buf: &mut [u8], start: usize) {
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

impl Frame {
    /// Encode into `[len][tag][body]` bytes ready for the socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoded frame to `buf`, so a sender can reuse one
    /// buffer and write several frames with one call.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::OpBatch { ops } => return encode_op_batch_into(ops.iter().copied(), buf),
            Frame::ScanChunk { last, entries } => {
                return encode_scan_chunk_into(*last, entries, buf)
            }
            _ => {}
        }
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]); // len patched at the end
        match self {
            Frame::Hello { guid } => {
                buf.push(0x01);
                buf.extend_from_slice(&guid.to_le_bytes());
            }
            Frame::CheckpointReq { variant, log_only } => {
                buf.push(0x03);
                buf.push(*variant);
                buf.push(u8::from(*log_only));
            }
            Frame::ScanReq => buf.push(0x04),
            Frame::Goodbye => buf.push(0x05),
            Frame::HelloAck { guid, resume } => {
                buf.push(0x81);
                buf.extend_from_slice(&guid.to_le_bytes());
                put_commit_point(buf, resume);
            }
            Frame::BatchAck { replies } => {
                buf.push(0x82);
                buf.reserve(4 + replies.len() * 18);
                buf.extend_from_slice(&(replies.len() as u32).to_le_bytes());
                for r in replies {
                    buf.extend_from_slice(&r.serial.to_le_bytes());
                    buf.push(r.status.to_u8());
                    buf.push(u8::from(r.value.is_some()));
                    buf.extend_from_slice(&r.value.unwrap_or(0).to_le_bytes());
                }
            }
            Frame::CommitPoint(cp) => {
                buf.push(0x83);
                put_commit_point(buf, cp);
            }
            Frame::CheckpointAck { started } => {
                buf.push(0x84);
                buf.push(u8::from(*started));
            }
            Frame::OpBatch { .. } | Frame::ScanChunk { .. } => unreachable!("encoded above"),
            Frame::Error { code, msg } => {
                buf.push(0x86);
                buf.push(*code);
                buf.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                buf.extend_from_slice(msg.as_bytes());
            }
        }
        end_frame(buf, start);
    }

    /// Decode a frame body (`[tag][body]`, without the length prefix).
    pub fn decode(body: &[u8]) -> io::Result<Frame> {
        let mut c = Cursor { buf: body, pos: 0 };
        let tag = c.u8()?;
        let frame = match tag {
            0x01 => Frame::Hello { guid: c.u64()? },
            0x02 => {
                let n = c.u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    ops.push(WireOp {
                        serial: c.u64()?,
                        kind: OpKind::from_u8(c.u8()?)?,
                        key: c.u64()?,
                        arg: c.u64()?,
                    });
                }
                Frame::OpBatch { ops }
            }
            0x03 => Frame::CheckpointReq {
                variant: c.u8()?,
                log_only: c.u8()? != 0,
            },
            0x04 => Frame::ScanReq,
            0x05 => Frame::Goodbye,
            0x81 => Frame::HelloAck {
                guid: c.u64()?,
                resume: c.commit_point()?,
            },
            0x82 => {
                let n = c.u32()? as usize;
                let mut replies = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let serial = c.u64()?;
                    let status = OpStatus::from_u8(c.u8()?)?;
                    let has_value = c.u8()? != 0;
                    let value = c.u64()?;
                    replies.push(OpReply {
                        serial,
                        status,
                        value: has_value.then_some(value),
                    });
                }
                Frame::BatchAck { replies }
            }
            0x83 => Frame::CommitPoint(c.commit_point()?),
            0x84 => Frame::CheckpointAck {
                started: c.u8()? != 0,
            },
            0x85 => {
                let last = c.u8()? != 0;
                let n = c.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    entries.push((c.u64()?, c.u64()?));
                }
                Frame::ScanChunk { last, entries }
            }
            0x86 => {
                let code = c.u8()?;
                let n = c.u32()? as usize;
                let msg = String::from_utf8_lossy(c.take(n)?).into_owned();
                Frame::Error { code, msg }
            }
            _ => return Err(bad(format!("unknown frame tag {tag:#x}"))),
        };
        c.done()?;
        Ok(frame)
    }
}

/// Initial size of a [`FrameReader`]'s buffer; it grows to fit a larger
/// frame.
const READ_BUF: usize = 64 * 1024;

/// Incremental frame reader that tolerates read timeouts.
///
/// Sockets in this crate carry a short read timeout so server threads
/// can refresh their engine session (and notice shutdown) while idle. A
/// timeout can land mid-frame, so the reader keeps partial progress
/// across calls: [`FrameReader::poll`] returns `Ok(None)` on timeout and
/// a complete frame once all its bytes arrived. A clean EOF at a frame
/// boundary reads as `ErrorKind::ConnectionAborted`.
///
/// The reader owns one buffer. Each read takes as many bytes as the
/// socket has ready, so a burst of frames costs one system call, and
/// frames are parsed straight out of the buffer.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes; `buf[start..end]` are not parsed yet. Always fully
    /// initialised (`len` is the capacity in use).
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// The next complete frame in the buffer, if any.
    fn parse(&mut self) -> io::Result<Option<Frame>> {
        let ready = &self.buf[self.start..self.end];
        let Some(prefix) = ready.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte prefix")) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(bad(format!("bad frame length {len}")));
        }
        let Some(body) = ready.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = Frame::decode(body)?;
        self.start += 4 + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }

    /// Bytes the frame at `start` needs in all (4 until its length
    /// prefix is in).
    fn needed(&self) -> usize {
        match self.buf.get(self.start..self.start + 4) {
            Some(p) if self.end - self.start >= 4 => {
                4 + u32::from_le_bytes(p.try_into().expect("4-byte prefix")) as usize
            }
            _ => 4,
        }
    }

    /// Pull bytes until a frame completes, the read would block, or the
    /// peer hangs up.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.parse()? {
                return Ok(Some(frame));
            }
            // Make room for the whole pending frame: move the partial
            // frame to the front, and grow only for a frame larger than
            // the buffer (`parse` bounded its length).
            let need = self.needed().max(READ_BUF);
            if self.buf.len() - self.start < need {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
                if self.buf.len() < need {
                    self.buf.resize(need, 0);
                }
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "peer closed connection",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, bytes.len());
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello { guid: 42 });
        roundtrip(Frame::OpBatch {
            ops: vec![
                WireOp {
                    serial: 1,
                    kind: OpKind::Upsert,
                    key: 7,
                    arg: 99,
                },
                WireOp {
                    serial: 2,
                    kind: OpKind::Read,
                    key: 7,
                    arg: 0,
                },
                WireOp {
                    serial: 3,
                    kind: OpKind::Rmw,
                    key: 8,
                    arg: 5,
                },
                WireOp {
                    serial: 4,
                    kind: OpKind::Delete,
                    key: 9,
                    arg: 0,
                },
            ],
        });
        roundtrip(Frame::CheckpointReq {
            variant: checkpoint_variant::SNAPSHOT,
            log_only: true,
        });
        roundtrip(Frame::ScanReq);
        roundtrip(Frame::Goodbye);
        roundtrip(Frame::HelloAck {
            guid: 42,
            resume: CommitPoint {
                version: 3,
                until_serial: 17,
                exclusions: vec![12, 15],
            },
        });
        roundtrip(Frame::BatchAck {
            replies: vec![
                OpReply {
                    serial: 1,
                    status: OpStatus::Ok,
                    value: Some(99),
                },
                OpReply {
                    serial: 2,
                    status: OpStatus::NotFound,
                    value: None,
                },
            ],
        });
        roundtrip(Frame::CommitPoint(CommitPoint::prefix(5, 1000)));
        roundtrip(Frame::CheckpointAck { started: true });
        roundtrip(Frame::ScanChunk {
            last: false,
            entries: vec![(1, 2), (3, 4)],
        });
        roundtrip(Frame::Error {
            code: error_code::GUID_IN_USE,
            msg: "guid 42 already connected".into(),
        });
    }

    #[test]
    fn reader_handles_split_frames() {
        let a = Frame::Hello { guid: 7 }.encode();
        let b = Frame::CommitPoint(CommitPoint::prefix(1, 9)).encode();
        let mut bytes = a;
        bytes.extend_from_slice(&b);

        // Feed one byte at a time through a reader that sees WouldBlock
        // between each byte.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            ready: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
                }
                self.ready = false;
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                out[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut r = Trickle {
            data: &bytes,
            pos: 0,
            ready: false,
        };
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match fr.poll(&mut r) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => continue,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionAborted);
                    break;
                }
            }
        }
        assert_eq!(
            frames,
            vec![
                Frame::Hello { guid: 7 },
                Frame::CommitPoint(CommitPoint::prefix(1, 9)),
            ]
        );
    }

    /// A reader that hands out scripted chunks, one per `read` call, with
    /// `WouldBlock` between chunks.
    struct Chunks {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
        ready: bool,
    }

    impl Chunks {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            Chunks {
                chunks: chunks.into(),
                reads: 0,
                ready: true,
            }
        }
    }

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.ready, true) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            self.ready = false;
            let Some(mut chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            self.reads += 1;
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.chunks.push_front(chunk.split_off(n));
                self.ready = true;
            }
            Ok(n)
        }
    }

    /// Poll until EOF; every frame read along the way.
    fn drain(fr: &mut FrameReader, r: &mut Chunks) -> Vec<Frame> {
        let mut frames = Vec::new();
        loop {
            match fr.poll(r) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => {}
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionAborted);
                    return frames;
                }
            }
        }
    }

    #[test]
    fn reader_parses_several_frames_from_one_read() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::CommitPoint(CommitPoint::prefix(i, 10 * i)))
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let mut r = Chunks::new(vec![bytes]);
        let mut fr = FrameReader::new();
        assert_eq!(drain(&mut fr, &mut r), frames);
        assert_eq!(r.reads, 1, "one read delivered all five frames");
    }

    #[test]
    fn reader_grows_for_a_frame_larger_than_its_buffer() {
        let big = Frame::ScanChunk {
            last: true,
            entries: (0..2 * READ_BUF as u64).map(|k| (k, k * 3)).collect(),
        };
        let bytes = big.encode();
        assert!(bytes.len() > 4 * READ_BUF);
        let small = Frame::Hello { guid: 3 };
        let mut tail = bytes[bytes.len() - 100..].to_vec();
        small.encode_into(&mut tail);
        let mut r = Chunks::new(vec![bytes[..bytes.len() - 100].to_vec(), tail]);
        let mut fr = FrameReader::new();
        assert_eq!(drain(&mut fr, &mut r), vec![big, small]);
    }

    #[test]
    fn reader_joins_a_length_prefix_split_across_reads() {
        let a = Frame::Hello { guid: 7 };
        let b = Frame::CheckpointAck { started: true };
        let mut bytes = a.encode();
        b.encode_into(&mut bytes);
        let cut = a.encode().len() + 2; // two bytes into b's prefix
        let mut r = Chunks::new(vec![
            bytes[..1].to_vec(),
            bytes[1..cut].to_vec(),
            bytes[cut..].to_vec(),
        ]);
        let mut fr = FrameReader::new();
        assert_eq!(drain(&mut fr, &mut r), vec![a, b]);
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let ops: Vec<WireOp> = (1..=3)
            .map(|s| WireOp {
                serial: s,
                kind: OpKind::Rmw,
                key: s * 2,
                arg: s * 3,
            })
            .collect();
        let mut buf = vec![0xAA];
        encode_op_batch_into(ops.iter().copied(), &mut buf);
        Frame::Goodbye.encode_into(&mut buf);
        let mut want = vec![0xAA];
        want.extend(Frame::OpBatch { ops }.encode());
        want.extend(Frame::Goodbye.encode());
        assert_eq!(buf, want);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bytes.push(0x04);
        let mut fr = FrameReader::new();
        let err = fr.poll(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
