//! A Kafka-style message pipeline (paper Sec. 2, footnote 1): clients
//! consume messages from a replayable input log, apply them to a FASTER
//! store, and *prune their in-flight buffers at CPR points*. After a
//! crash, each client resumes from exactly the first unacknowledged
//! message — no message is lost, none is applied twice.
//!
//! ```sh
//! cargo run --release --example message_pipeline
//! ```

use std::collections::VecDeque;

use cpr::faster::{CheckpointVariant, FasterBuilder, FasterKv, ReadResult};

/// A message: increment `key`'s counter by `delta`.
#[derive(Debug, Clone, Copy)]
struct Message {
    key: u64,
    delta: u64,
}

/// A replayable input source (stand-in for a Kafka partition): retains
/// messages until the consumer acknowledges a prefix.
struct InputLog {
    messages: Vec<Message>,
    /// Index of the first unacknowledged message.
    acked: usize,
}

impl InputLog {
    fn synthetic(n: usize, seed: u64) -> Self {
        let mut rng = seed | 1;
        let messages = (0..n)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                Message {
                    key: rng % 100,
                    delta: 1 + (rng >> 32) % 9,
                }
            })
            .collect();
        InputLog { messages, acked: 0 }
    }

    /// Prune everything before `upto` (CPR point = message count).
    fn ack(&mut self, upto: usize) {
        self.acked = self.acked.max(upto);
    }

    /// Replay from the first unacknowledged message.
    fn replay_from(&self, serial: usize) -> &[Message] {
        &self.messages[serial..]
    }
}

fn expected_totals(msgs: &[Message]) -> std::collections::HashMap<u64, u64> {
    let mut m = std::collections::HashMap::new();
    for msg in msgs {
        *m.entry(msg.key).or_insert(0) += msg.delta;
    }
    m
}

fn main() {
    let dir = tempfile::tempdir().expect("tempdir");
    let mut input = InputLog::synthetic(50_000, 0xCAFE);
    let mut in_flight: VecDeque<usize> = VecDeque::new();

    // Phase 1: consume 30k messages, committing twice along the way.
    let crash_after = 30_000usize;
    {
        let kv: FasterKv<u64> = FasterBuilder::u64_sums(dir.path()).open().expect("open");
        let mut session = kv.start_session(1);
        let batch: Vec<Message> = input.messages[..crash_after].to_vec();
        for (i, msg) in batch.iter().enumerate() {
            session.rmw(msg.key, msg.delta);
            in_flight.push_back(i + 1); // serial of this message
            if (i + 1) % 12_000 == 0 {
                kv.request_checkpoint(CheckpointVariant::FoldOver, true);
            }
            // Prune the client buffer at the session's durable prefix.
            let durable = session.durable_serial() as usize;
            while in_flight.front().is_some_and(|&s| s <= durable) {
                in_flight.pop_front();
            }
            input.ack(durable);
        }
        println!(
            "consumed {crash_after} messages; input log acked through {} \
             ({} still in flight)",
            input.acked,
            in_flight.len()
        );
        // <- crash: everything after the last CPR point is lost in the
        //    store but still present in the input log.
    }

    // Phase 2: recover and resume from the CPR point.
    let (kv, _) = FasterBuilder::u64_sums(dir.path())
        .recover()
        .expect("recover");
    let (mut session, cpr_point) = kv.continue_session(1);
    println!("recovered session to serial {cpr_point}; replaying the rest");
    assert!(
        (cpr_point as usize) <= crash_after,
        "CPR point beyond what we consumed"
    );
    assert!(
        cpr_point as usize >= input.acked,
        "acked messages must be durable — CPR guarantee violated"
    );

    // Replay from the recovered serial: exactly-once resumes.
    for msg in input.replay_from(cpr_point as usize) {
        session.rmw(msg.key, msg.delta);
    }
    while session.pending_len() > 0 {
        session.refresh();
    }

    // Verify: totals equal a clean single pass over all messages.
    let expect = expected_totals(&input.messages);
    for (key, total) in expect {
        match session.read(key) {
            ReadResult::Found(v) => assert_eq!(
                v, total,
                "key {key}: got {v}, want {total} — lost or duplicated message"
            ),
            other => panic!("key {key}: {other:?}"),
        }
    }
    println!(
        "all {} messages applied exactly once across the crash ✔",
        input.messages.len()
    );
}
