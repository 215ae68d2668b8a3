//! End-to-end server-crash smoke test, driven as a real multi-process
//! scenario (CI runs this via `scripts/net_smoke.sh`):
//!
//! 1. spawn `cpr-net-server` on a scratch directory;
//! 2. push 100 durable ops (checkpoint 1), then 100 acked-but-undurable
//!    ops, then request checkpoint 2 and `SIGKILL` the server the moment
//!    the checkpoint is acked as started — i.e. mid-checkpoint, between
//!    PREPARE and WAIT-FLUSH;
//! 3. restart the server (it recovers the last durable checkpoint),
//!    verify the wire-visible state is exactly the committed prefix;
//! 4. reconnect with the surviving replay buffer: the client learns the
//!    recovered commit point `t`, replays exactly serials `t+1..=200`,
//!    and a final checkpoint makes the whole stream durable.
//!
//! The kill races the commit on purpose — that is the scenario. If the
//! checkpoint wins, the recovered point is 200 and nothing replays; if
//! the kill wins (the common case: the commit needs several session
//! refresh cycles), the point is 100 and the suffix replays. Both sides
//! of the race must satisfy the CPR contract, and the test asserts the
//! full scan equals the 200-op stream either way.
//!
//! ```text
//! cpr-net-smoke --server target/release/cpr-net-server --dir /tmp/db \
//!     [--engine faster|memdb] [--variant fold-over|snapshot]
//! ```

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cpr_net::wire::checkpoint_variant;
use cpr_net::{NetClient, ReplayBuffer};

const GUID: u64 = 7;
const OPS: u64 = 200;
const DURABLE: u64 = 100;

struct Opts {
    server: String,
    dir: String,
    engine: String,
    variant: &'static str,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        server: String::new(),
        dir: String::new(),
        engine: "faster".into(),
        variant: "fold-over",
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--server" => opts.server = value("--server"),
            "--dir" => opts.dir = value("--dir"),
            "--engine" => opts.engine = value("--engine"),
            "--variant" => {
                opts.variant = match value("--variant").as_str() {
                    "fold-over" => "fold-over",
                    "snapshot" => "snapshot",
                    v => die(&format!("unknown variant {v}")),
                }
            }
            f => die(&format!("unknown flag {f}")),
        }
    }
    if opts.server.is_empty() {
        // Default: the server binary sitting next to this one.
        let mut exe = std::env::current_exe().expect("current_exe");
        exe.set_file_name("cpr-net-server");
        opts.server = exe.to_string_lossy().into_owned();
    }
    if opts.dir.is_empty() {
        die("--dir is required");
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("cpr-net-smoke: {msg}");
    std::process::exit(2);
}

/// Spawn the server and block until its `READY <addr> version=<v>` line.
fn spawn_server(opts: &Opts) -> (Child, String, u64) {
    let mut child = Command::new(&opts.server)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--engine",
            &opts.engine,
            "--dir",
            &opts.dir,
            "--variant",
            opts.variant,
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| die(&format!("spawn {}: {e}", opts.server)));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .unwrap_or_else(|e| die(&format!("reading READY line: {e}")));
    let mut parts = line.split_whitespace();
    let (ready, addr, version) = (parts.next(), parts.next(), parts.next());
    if ready != Some("READY") {
        let _ = child.kill();
        die(&format!("expected READY line, got {line:?}"));
    }
    let addr = addr.expect("READY addr").to_string();
    let version: u64 = version
        .and_then(|v| v.strip_prefix("version="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("malformed READY line {line:?}")));
    (child, addr, version)
}

fn variant_byte(v: &str) -> u8 {
    match v {
        "snapshot" => checkpoint_variant::SNAPSHOT,
        _ => checkpoint_variant::FOLD_OVER,
    }
}

/// Phase one: durable prefix, undurable suffix, SIGKILL mid-checkpoint.
fn run_until_kill(opts: &Opts) -> ReplayBuffer {
    let (mut server, addr, version) = spawn_server(opts);
    assert_eq!(version, 0, "fresh directory must start at version 0");
    let mut c = NetClient::connect(&addr, GUID).expect("connect");

    for k in 0..DURABLE {
        c.upsert(k, k + 1).expect("upsert");
    }
    c.sync().expect("sync");
    assert!(c
        .request_checkpoint(variant_byte(opts.variant), false)
        .expect("checkpoint 1"));
    let cp = c.wait_commit(1, Duration::from_secs(30)).expect("commit 1");
    assert_eq!(
        (cp.version, cp.until_serial),
        (1, DURABLE),
        "checkpoint 1 must cover the first {DURABLE} serials"
    );

    for k in DURABLE..OPS {
        c.upsert(k, k + 1).expect("upsert");
    }
    c.sync().expect("sync");
    assert_eq!(c.uncommitted() as u64, OPS - DURABLE);

    // The ack means the checkpoint started (PREPARE is underway); the
    // commit still needs every session to cross InProgress and the flush
    // to land, so SIGKILLing now lands mid-checkpoint.
    assert!(c
        .request_checkpoint(variant_byte(opts.variant), false)
        .expect("checkpoint 2"));
    server.kill().expect("SIGKILL server");
    server.wait().expect("reap server");
    eprintln!(
        "[smoke] server killed mid-checkpoint, {} ops in flight",
        c.uncommitted()
    );
    c.take_buffer()
}

/// Phase two: restart, verify the recovered prefix, resume, verify all.
fn recover_and_verify(opts: &Opts, buffer: ReplayBuffer) {
    let (mut server, addr, recovered) = spawn_server(opts);
    assert!(
        recovered == 1 || recovered == 2,
        "recovered version must be checkpoint 1 or (if the commit won the \
         race) checkpoint 2, got {recovered}"
    );
    let durable_serials = if recovered == 1 { DURABLE } else { OPS };

    // The wire-visible state after recovery is exactly the committed
    // prefix: serials 1..=durable_serials, i.e. keys 0..durable_serials.
    let mut observer = NetClient::connect(&addr, 999).expect("observer connect");
    let scan = observer.scan().expect("scan");
    assert_eq!(scan.len() as u64, durable_serials, "recovered prefix");
    assert!(
        scan.iter()
            .enumerate()
            .all(|(i, &(k, v))| k == i as u64 && v == k + 1),
        "recovered prefix content"
    );

    // Resume: learn t, replay exactly t+1..=200.
    let mut c = NetClient::connect_with(&addr, GUID, buffer).expect("resume");
    assert_eq!(c.resume_point().version, recovered);
    assert_eq!(
        c.resume_point().until_serial,
        durable_serials,
        "commit point t"
    );
    assert_eq!(
        c.replayed() as u64,
        OPS - durable_serials,
        "replay = suffix only"
    );
    assert_eq!(c.next_serial(), OPS + 1, "serials continue past N");

    let scan = observer.scan().expect("scan after replay");
    assert_eq!(scan.len() as u64, OPS, "full stream visible after replay");
    assert!(scan
        .iter()
        .enumerate()
        .all(|(i, &(k, v))| k == i as u64 && v == k + 1));

    // The replayed suffix becomes durable under the next checkpoint.
    assert!(c
        .request_checkpoint(variant_byte(opts.variant), false)
        .expect("checkpoint 3"));
    let cp = c
        .wait_commit(recovered + 1, Duration::from_secs(30))
        .expect("commit after resume");
    assert_eq!(cp.until_serial, OPS);
    assert_eq!(c.uncommitted(), 0);
    println!(
        "SMOKE OK engine={} variant={} recovered_version={recovered} replayed={}",
        opts.engine,
        opts.variant,
        OPS - durable_serials
    );

    let _ = observer.goodbye();
    let _ = c.goodbye();
    let _ = server.kill();
    let _ = server.wait();
}

fn main() {
    let opts = parse_args();
    let buffer = run_until_kill(&opts);
    assert!(
        !buffer.is_empty(),
        "the undurable suffix must survive in the replay buffer"
    );
    recover_and_verify(&opts, buffer);
}
