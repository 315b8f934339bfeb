//! `pcb-daemon`: one causal-broadcast node as a standalone OS process.
//!
//! ```text
//! pcb-daemon --state-dir DIR --listen ADDR --mode live
//!            [--resume] [--rpc ADDR] [--metrics ADDR]
//!            [--peer IDX=ADDR]... [--rto-max-us N]
//! ```
//!
//! The state directory must contain `spec.bin` (written with
//! `pcb_runtime::daemon::save_spec`) describing the node's identity,
//! key set, protocol config, and recovery timing. `--resume` rebuilds
//! from `snapshot.bin` + `wal.bin` after a crash; without it the node
//! starts from genesis. Every `--peer` is a member: peer traffic from any
//! other address is dropped, and the RPC socket takes the ops `publish`,
//! `subscribe`, `status`, `restore` and `shutdown`. `live` is the only
//! mode.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use pcb_runtime::daemon::{run, DaemonOptions};

fn usage(error: &str) -> ExitCode {
    eprintln!("pcb-daemon: {error}");
    eprintln!(
        "usage: pcb-daemon --state-dir DIR --listen ADDR --mode live \
         [--resume] [--rpc ADDR] [--metrics ADDR] \
         [--peer IDX=ADDR]... [--rto-max-us N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut state_dir: Option<PathBuf> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut live = false;
    let mut opts_resume = false;
    let mut rpc = None;
    let mut metrics = None;
    let mut peers = Vec::new();
    let mut udp = pcb_runtime::UdpConfig::default();

    macro_rules! next_value {
        ($flag:expr) => {
            match args.next() {
                Some(v) => v,
                None => return usage(&format!("{} needs a value", $flag)),
            }
        };
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => state_dir = Some(PathBuf::from(next_value!("--state-dir"))),
            "--listen" => match next_value!("--listen").parse() {
                Ok(addr) => listen = Some(addr),
                Err(e) => return usage(&format!("bad --listen address: {e}")),
            },
            "--mode" => match next_value!("--mode").as_str() {
                "live" => live = true,
                other => return usage(&format!("bad --mode {other:?}")),
            },
            "--resume" => opts_resume = true,
            "--rto-max-us" => match next_value!("--rto-max-us").parse() {
                Ok(v) => udp.rto_max_us = v,
                Err(e) => return usage(&format!("bad --rto-max-us: {e}")),
            },
            "--rpc" => match next_value!("--rpc").parse() {
                Ok(addr) => rpc = Some(addr),
                Err(e) => return usage(&format!("bad --rpc address: {e}")),
            },
            "--metrics" => match next_value!("--metrics").parse() {
                Ok(addr) => metrics = Some(addr),
                Err(e) => return usage(&format!("bad --metrics address: {e}")),
            },
            "--peer" => {
                let spec = next_value!("--peer");
                let Some((idx, addr)) = spec.split_once('=') else {
                    return usage(&format!("bad --peer {spec:?}, want IDX=ADDR"));
                };
                match (idx.parse(), addr.parse()) {
                    (Ok(idx), Ok(addr)) => peers.push((idx, addr)),
                    _ => return usage(&format!("bad --peer {spec:?}")),
                }
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    let (Some(state_dir), Some(listen), true) = (state_dir, listen, live) else {
        return usage("--state-dir, --listen and --mode live are required");
    };
    let mut opts = DaemonOptions::new(state_dir, listen);
    opts.resume = opts_resume;
    opts.udp = udp;
    opts.rpc = rpc;
    opts.metrics = metrics;
    opts.peers = peers;

    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pcb-daemon: {e}");
            ExitCode::FAILURE
        }
    }
}
