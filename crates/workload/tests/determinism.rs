//! Seeded-determinism contract for every workload generator.
//!
//! The crash harness and the network resume tests both rely on replaying a
//! workload from a seed and getting byte-identical op streams: after a
//! crash the client re-generates its input deterministically, so any
//! divergence would masquerade as a CPR recovery bug. These tests pin that
//! contract: same seed → identical stream, cloned generator → identical
//! continuation, different seed or thread id → different stream.

use cpr_workload::tpcc::{TpccConfig, TpccGenerator};
use cpr_workload::{KeyDist, Op, Sampler, Txn, TxnConfig, TxnGenerator, YcsbConfig, YcsbGenerator};

const N: usize = 10_000;

fn ycsb_stream(cfg: YcsbConfig, seed: u64, n: usize) -> Vec<Op> {
    let mut g = YcsbGenerator::new(cfg, seed);
    (0..n).map(|_| g.next_op()).collect()
}

fn txn_stream(cfg: TxnConfig, seed: u64, n: usize) -> Vec<Txn> {
    let mut g = TxnGenerator::new(cfg, seed);
    (0..n).map(|_| g.next_txn()).collect()
}

fn tpcc_stream(cfg: TpccConfig, thread: u64, seed: u64, n: usize) -> Vec<Txn> {
    let mut g = TpccGenerator::new(cfg, thread, seed);
    (0..n).map(|_| g.next_txn().1).collect()
}

#[test]
fn sampler_streams_are_seed_deterministic() {
    for dist in [
        KeyDist::Uniform,
        KeyDist::Zipfian { theta: 0.1 },
        KeyDist::Zipfian { theta: 0.99 },
    ] {
        let keys = |seed| {
            let mut s = Sampler::new(dist, 1 << 20, seed);
            (0..N).map(|_| s.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(keys(42), keys(42), "{dist:?}: same seed must replay");
        assert_ne!(keys(42), keys(43), "{dist:?}: different seed must diverge");
    }
}

#[test]
fn ycsb_streams_are_seed_deterministic() {
    for cfg in [
        YcsbConfig::read_update(1 << 20, KeyDist::Uniform, 50),
        YcsbConfig::read_update(1 << 20, KeyDist::Zipfian { theta: 0.99 }, 90),
        YcsbConfig::rmw_only(1 << 20, KeyDist::Zipfian { theta: 0.1 }),
    ] {
        assert_eq!(ycsb_stream(cfg, 7, N), ycsb_stream(cfg, 7, N));
        assert_ne!(ycsb_stream(cfg, 7, N), ycsb_stream(cfg, 8, N));
    }
}

#[test]
fn ycsb_clone_resumes_mid_stream() {
    // A cloned generator must continue exactly where the original was —
    // this is what lets a crashed client regenerate only its suffix.
    let cfg = YcsbConfig::read_update(1 << 16, KeyDist::Zipfian { theta: 0.99 }, 50);
    let mut g = YcsbGenerator::new(cfg, 99);
    for _ in 0..N / 2 {
        g.next_op();
    }
    let mut replica = g.clone();
    let tail: Vec<Op> = (0..N).map(|_| g.next_op()).collect();
    let replayed: Vec<Op> = (0..N).map(|_| replica.next_op()).collect();
    assert_eq!(tail, replayed);
}

#[test]
fn txn_streams_are_seed_deterministic() {
    for (size, write_pct, theta) in [(1, 100, 0.1), (5, 50, 0.99), (10, 0, 0.99)] {
        let cfg = TxnConfig::mix(1 << 16, KeyDist::Zipfian { theta }, size, write_pct);
        let a = txn_stream(cfg, 11, N / 4);
        assert_eq!(a, txn_stream(cfg, 11, N / 4));
        assert_ne!(a, txn_stream(cfg, 12, N / 4));
        // Determinism must extend to intra-txn ordering: the 2PL executor
        // replays accesses in generated order.
        assert!(a.iter().all(|t| t.accesses.len() == size));
    }
}

#[test]
fn tpcc_streams_are_seed_and_thread_deterministic() {
    let cfg = TpccConfig::mix(4, 50);
    let a = tpcc_stream(cfg, 0, 5, N / 4);
    assert_eq!(
        a,
        tpcc_stream(cfg, 0, 5, N / 4),
        "same (thread, seed) replays"
    );
    assert_ne!(
        a,
        tpcc_stream(cfg, 1, 5, N / 4),
        "thread id perturbs the stream"
    );
    assert_ne!(a, tpcc_stream(cfg, 0, 6, N / 4), "seed perturbs the stream");
}
