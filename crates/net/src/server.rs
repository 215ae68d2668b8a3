//! Thread-per-connection server mapping TCP connections onto engine
//! sessions.
//!
//! Each accepted connection gets two threads: a **reader** that owns the
//! engine session (sessions are thread-affine) and a **writer** that
//! drains a channel of outbound frames. Commit-point pushes originate on
//! the engine's checkpoint thread; routing them through the writer
//! channel means a slow client socket can never block a checkpoint, and
//! a client that pipelines many batches cannot deadlock the reader on a
//! full socket while it is not reading acks.
//!
//! The reader polls its socket with a short timeout so an idle
//! connection still refreshes its session — an unrefreshed session would
//! stall the CPR state machine for everyone (the paper's cooperative
//! epoch protocol), and refreshing from the read loop keeps the
//! no-dedicated-threads spirit: the connection thread *is* the session
//! thread.
//!
//! **Batch path.** The reader's [`FrameReader`] takes as many bytes as
//! the socket has ready into one buffer and parses each frame from it.
//! An `OpBatch` goes to the engine as one [`NetSession::apply_batch`]
//! call (for FASTER, the prefetch-pipelined
//! [`cpr_faster::FasterSession::apply_batch`]), which appends one reply
//! per op to the ack being built. The writer encodes the frames queued
//! at the time, up to 64 KiB of them, into one reused buffer and writes
//! them with one call; a scan result is handed to it whole and streamed
//! as chunk frames encoded straight from it.
//!
//! Per-connection protocol state: serials are validated here, not in the
//! engine. A batch may overlap the session's resume point after a
//! reconnect — ops at or below the current serial were already applied
//! by a previous incarnation and are acked `Skipped` without touching
//! the engine (idempotent replay). Serials ascend within a batch, so
//! those ops are always a leading run; the remainder must continue the
//! serial sequence contiguously.
//!
//! The connection is registered for commit pushes before its `HelloAck`
//! is queued, so a commit landing in between reaches the client first;
//! the client absorbs such early commit points.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpr_core::CommitPoint;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::engine::{NetEngine, NetSession};
use crate::wire::{
    encode_scan_chunk_into, error_code, Frame, FrameReader, OpReply, OpStatus, WireOp,
};

/// How often an idle reader wakes to refresh its session.
const POLL: Duration = Duration::from_millis(5);
/// How long a fresh connection may take to say Hello.
const HELLO_DEADLINE: Duration = Duration::from_secs(10);
/// How long a connection for a guid waits for the previous connection of
/// that guid to be torn down before it is refused.
const TEARDOWN_GRACE: Duration = Duration::from_secs(1);
/// Scan results are streamed in chunks of this many entries.
const SCAN_CHUNK: usize = 64 * 1024;
/// The writer stops adding queued frames to one write at this many
/// bytes.
const WRITE_BATCH: usize = 64 * 1024;

type Conns = Arc<Mutex<HashMap<u64, Sender<Outbound>>>>;

/// What a connection's writer thread sends.
enum Outbound {
    Frame(Frame),
    /// A whole scan result, streamed as `ScanChunk` frames encoded
    /// straight from it: the scan is never copied into chunk frames.
    Scan(Vec<(u64, u64)>),
}

impl From<Frame> for Outbound {
    fn from(frame: Frame) -> Self {
        Outbound::Frame(frame)
    }
}

/// A running server; dropping it (or calling [`NetServer::shutdown`])
/// stops the accept loop and disconnects every client.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Serve `engine` on `listener` until shutdown. The engine is shared:
    /// callers keep their own handle (e.g. to inject faults or inspect
    /// state) while the server runs.
    pub fn serve<E: NetEngine>(engine: Arc<E>, listener: TcpListener) -> io::Result<NetServer> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        // Push a commit point to every connected session named in the
        // manifest. Runs on the checkpoint thread; sends are unbounded
        // channel writes, never socket writes.
        {
            let conns = Arc::clone(&conns);
            engine.on_commit(Box::new(move |version, sessions| {
                let conns = conns.lock();
                for s in sessions {
                    if let Some(tx) = conns.get(&s.guid) {
                        let point = CommitPoint::prefix(version, s.cpr_point);
                        let _ = tx.send(Frame::CommitPoint(point).into());
                    }
                }
            }));
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("cpr-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let engine = Arc::clone(&engine);
                        let conns = Arc::clone(&conns);
                        let stop = Arc::clone(&stop);
                        let handle = std::thread::Builder::new()
                            .name("cpr-net-conn".into())
                            .spawn(move || {
                                let _ = Connection::run(engine, stream, conns, stop);
                            })
                            .expect("spawn connection thread");
                        // Drop the handles of connections that ended, so
                        // the server holds one per live connection, not one
                        // per connection it ever accepted.
                        let mut workers = workers.lock();
                        workers.retain(|h| !h.is_finished());
                        workers.push(handle);
                    }
                })?
        };

        Ok(NetServer {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, disconnect clients, join all threads.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Connection<E: NetEngine> {
    session: E::Session,
    guid: u64,
    tx: Sender<Outbound>,
}

impl<E: NetEngine> Connection<E> {
    fn run(
        engine: Arc<E>,
        stream: TcpStream,
        conns: Conns,
        stop: Arc<AtomicBool>,
    ) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        let mut reader = FrameReader::new();
        let mut stream = stream;

        // Handshake: the first frame must be Hello.
        let deadline = Instant::now() + HELLO_DEADLINE;
        let guid = loop {
            if stop.load(Ordering::Acquire) || Instant::now() > deadline {
                return Ok(());
            }
            match reader.poll(&mut stream)? {
                Some(Frame::Hello { guid }) => break guid,
                Some(_) => {
                    send_now(
                        &mut stream,
                        &Frame::Error {
                            code: error_code::PROTOCOL,
                            msg: "expected Hello".into(),
                        },
                    );
                    return Ok(());
                }
                None => {}
            }
        };

        // One connection per guid: a session is single-threaded state. A
        // client that reconnects right after dropping its socket can beat
        // the teardown of its old connection, whose reader notices the
        // hang-up within one poll: give that teardown a grace period.
        let (tx, rx) = unbounded::<Outbound>();
        let grace = Instant::now() + TEARDOWN_GRACE;
        loop {
            if let Entry::Vacant(e) = conns.lock().entry(guid) {
                e.insert(tx.clone());
                break;
            }
            if Instant::now() >= grace {
                send_now(
                    &mut stream,
                    &Frame::Error {
                        code: error_code::GUID_IN_USE,
                        msg: format!("guid {guid} already connected"),
                    },
                );
                return Ok(());
            }
            std::thread::sleep(POLL);
        }

        // Writer thread: owns the write half, drains the channel.
        let writer = {
            let stream = stream.try_clone()?;
            std::thread::Builder::new()
                .name("cpr-net-writer".into())
                .spawn(move || writer_loop(stream, rx))
                .expect("spawn writer thread")
        };

        let (session, resume_from) = engine.continue_session(guid);
        let mut conn = Connection { session, guid, tx };
        conn.send(Frame::HelloAck {
            guid,
            resume: CommitPoint::prefix(engine.committed_version(), resume_from),
        });

        let result = conn.serve_loop(&engine, &mut stream, &mut reader, &stop);

        conns.lock().remove(&guid);
        // Dropping the sender (and the conns entry) closes the channel;
        // the writer flushes what's queued and exits.
        drop(conn);
        let _ = writer.join();
        result
    }

    fn serve_loop(
        &mut self,
        engine: &Arc<E>,
        stream: &mut TcpStream,
        reader: &mut FrameReader,
        stop: &AtomicBool,
    ) -> io::Result<()> {
        loop {
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let frame = match reader.poll(stream) {
                Ok(Some(f)) => f,
                Ok(None) => {
                    // Idle: keep the CPR state machine moving.
                    self.session.refresh();
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => return Ok(()),
                Err(e) => return Err(e),
            };
            match frame {
                Frame::OpBatch { ops } => {
                    if !self.handle_batch(ops)? {
                        return Ok(());
                    }
                }
                Frame::CheckpointReq { variant, log_only } => {
                    let started = engine.request_checkpoint(variant, log_only);
                    self.send(Frame::CheckpointAck { started });
                }
                Frame::ScanReq => match engine.scan() {
                    Ok(entries) => {
                        let _ = self.tx.send(Outbound::Scan(entries));
                    }
                    Err(e) => {
                        self.send(Frame::Error {
                            code: error_code::IO,
                            msg: format!("scan failed: {e}"),
                        });
                    }
                },
                Frame::Goodbye => return Ok(()),
                other => {
                    self.send(Frame::Error {
                        code: error_code::PROTOCOL,
                        msg: format!("unexpected frame {other:?}"),
                    });
                    return Ok(());
                }
            }
        }
    }

    /// Queue `frame` for the writer. A closed channel means the writer
    /// has exited (the socket failed); the read loop notices on its own.
    fn send(&self, frame: Frame) {
        let _ = self.tx.send(frame.into());
    }

    /// Apply one batch; returns `false` if the connection must close
    /// (protocol violation or session eviction).
    fn handle_batch(&mut self, ops: Vec<WireOp>) -> io::Result<bool> {
        // Serials in a batch ascend, so the replayed overlap (ops already
        // applied before a reconnect) is a prefix: ack it `Skipped`
        // without touching the engine. The rest must continue the
        // session's serial sequence contiguously; replies then come out
        // in the order the ops arrived.
        let current = self.session.serial();
        let skipped = ops.iter().take_while(|op| op.serial <= current).count();
        let (replayed, fresh) = ops.split_at(skipped);
        if let Some((i, op)) = fresh
            .iter()
            .enumerate()
            .find(|&(i, op)| op.serial != current + 1 + i as u64)
        {
            self.send(Frame::Error {
                code: error_code::PROTOCOL,
                msg: format!(
                    "serial gap: got {}, expected {} (guid {})",
                    op.serial,
                    current + 1 + i as u64,
                    self.guid
                ),
            });
            return Ok(false);
        }
        let mut replies: Vec<OpReply> = Vec::with_capacity(ops.len());
        replies.extend(replayed.iter().map(|op| OpReply {
            serial: op.serial,
            status: OpStatus::Skipped,
            value: None,
        }));
        self.session.apply_batch(fresh, &mut replies);
        let evicted = replies[skipped..]
            .iter()
            .any(|r| r.status == OpStatus::Evicted);
        self.send(Frame::BatchAck { replies });
        if evicted {
            // The engine rolled this session back to its CPR point; the
            // client must reconnect and replay from there.
            self.send(Frame::Error {
                code: error_code::EVICTED,
                msg: format!("session {} evicted during checkpoint", self.guid),
            });
            return Ok(false);
        }
        Ok(true)
    }
}

/// Drain the channel into the socket. Frames queued together are encoded
/// into one reused buffer, up to about `WRITE_BATCH` bytes, and written
/// with one call; a scan is encoded and written one chunk at a time.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Outbound>) {
    let mut buf = Vec::with_capacity(WRITE_BATCH);
    let mut next = rx.recv().ok();
    while let Some(out) = next.take() {
        buf.clear();
        match out {
            Outbound::Frame(frame) => {
                frame.encode_into(&mut buf);
                while buf.len() < WRITE_BATCH {
                    match rx.try_recv() {
                        Ok(Outbound::Frame(more)) => more.encode_into(&mut buf),
                        Ok(scan) => {
                            next = Some(scan);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                if stream.write_all(&buf).is_err() {
                    return;
                }
            }
            Outbound::Scan(entries) => {
                // An empty scan is one empty last chunk.
                let chunks: Vec<&[(u64, u64)]> = if entries.is_empty() {
                    vec![&[]]
                } else {
                    entries.chunks(SCAN_CHUNK).collect()
                };
                for (i, chunk) in chunks.iter().enumerate() {
                    buf.clear();
                    encode_scan_chunk_into(i + 1 == chunks.len(), chunk, &mut buf);
                    if stream.write_all(&buf).is_err() {
                        return;
                    }
                }
                // Do not keep a chunk-sized buffer for the connection's
                // lifetime.
                buf.shrink_to(WRITE_BATCH);
            }
        }
        if next.is_none() {
            next = rx.recv().ok();
        }
    }
    let _ = stream.flush();
}

fn send_now(stream: &mut TcpStream, frame: &Frame) {
    let _ = stream.write_all(&frame.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;
    use cpr_memdb::{Durability, MemDb};

    #[test]
    fn finished_connection_threads_are_released() {
        let dir = tempfile::tempdir().unwrap();
        let db = MemDb::<u64>::builder(Durability::Cpr)
            .dir(dir.path())
            .open()
            .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = NetServer::serve(Arc::new(db), listener).unwrap();
        for guid in 0..64 {
            NetClient::connect(server.addr(), guid)
                .unwrap()
                .goodbye()
                .unwrap();
        }
        let held = server.workers.lock().len();
        assert!(held < 8, "{held} connection handles held after 64 goodbyes");
    }
}
