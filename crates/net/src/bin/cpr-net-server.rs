//! Standalone CPR server: serve an engine over TCP.
//!
//! ```text
//! cpr-net-server --addr 127.0.0.1:7171 --engine faster --dir /tmp/db \
//!     [--variant fold-over|snapshot] [--checkpoint-every-ms 200]
//! ```
//!
//! Always opens the store in recovery mode: on a fresh directory that is
//! an empty store; after a crash it recovers the last durable checkpoint
//! and reconnecting clients learn their commit points through the
//! resume handshake. Prints `READY <addr> version=<v>` on stdout once
//! serving (the smoke script waits for it), then blocks until killed.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use cpr_faster::FasterBuilder;
use cpr_memdb::{Durability, MemDb};
use cpr_net::wire::checkpoint_variant;
use cpr_net::{NetEngine, NetServer};

struct Opts {
    addr: String,
    engine: String,
    dir: String,
    variant: u8,
    checkpoint_every: Option<Duration>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:7171".into(),
        engine: "faster".into(),
        dir: String::new(),
        variant: checkpoint_variant::FOLD_OVER,
        checkpoint_every: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--engine" => opts.engine = value("--engine"),
            "--dir" => opts.dir = value("--dir"),
            "--variant" => {
                opts.variant = match value("--variant").as_str() {
                    "fold-over" => checkpoint_variant::FOLD_OVER,
                    "snapshot" => checkpoint_variant::SNAPSHOT,
                    v => die(&format!("unknown variant {v}")),
                }
            }
            "--checkpoint-every-ms" => {
                let ms: u64 = value("--checkpoint-every-ms")
                    .parse()
                    .unwrap_or_else(|_| die("--checkpoint-every-ms needs a number"));
                opts.checkpoint_every = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => {
                println!(
                    "usage: cpr-net-server --dir PATH [--addr HOST:PORT] \
                     [--engine faster|memdb] [--variant fold-over|snapshot] \
                     [--checkpoint-every-ms N]"
                );
                std::process::exit(0);
            }
            f => die(&format!("unknown flag {f}")),
        }
    }
    if opts.dir.is_empty() {
        die("--dir is required");
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("cpr-net-server: {msg}");
    std::process::exit(2);
}

fn serve<E: NetEngine>(engine: Arc<E>, opts: &Opts) {
    let listener =
        TcpListener::bind(&opts.addr).unwrap_or_else(|e| die(&format!("bind {}: {e}", opts.addr)));
    let server = NetServer::serve(Arc::clone(&engine), listener)
        .unwrap_or_else(|e| die(&format!("serve: {e}")));
    println!(
        "READY {} version={}",
        server.addr(),
        engine.committed_version()
    );
    // Line-buffered stdout may sit on READY forever under a pipe.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if let Some(every) = opts.checkpoint_every {
        let variant = opts.variant;
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            engine.request_checkpoint(variant, false);
        });
    }
    // Serve until killed (the smoke test SIGKILLs mid-checkpoint).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() {
    let opts = parse_args();
    match opts.engine.as_str() {
        "faster" => {
            let (kv, manifest) = FasterBuilder::u64_sums(&opts.dir)
                .recover()
                .unwrap_or_else(|e| die(&format!("recover {}: {e}", opts.dir)));
            eprintln!(
                "recovered: {}",
                manifest
                    .as_ref()
                    .map(|m| format!("version {} (token {})", m.version, m.token))
                    .unwrap_or_else(|| "fresh store".into())
            );
            serve(Arc::new(kv), &opts);
        }
        "memdb" => {
            let (db, manifest) = MemDb::<u64>::builder(Durability::Cpr)
                .dir(&opts.dir)
                .recover()
                .unwrap_or_else(|e| die(&format!("recover {}: {e}", opts.dir)));
            eprintln!(
                "recovered: {}",
                manifest
                    .as_ref()
                    .map(|m| format!("version {} (token {})", m.version, m.token))
                    .unwrap_or_else(|| "fresh store".into())
            );
            serve(Arc::new(db), &opts);
        }
        e => die(&format!("unknown engine {e} (faster|memdb)")),
    }
}
