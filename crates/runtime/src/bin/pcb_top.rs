//! `pcb-top`: a live terminal dashboard for a pcb-daemon cluster.
//!
//! Polls each daemon's line-JSON RPC socket (`{"op":"status"}`) on a
//! refresh loop and renders one row per node: the endpoint incarnation
//! (crash/restore count), the config epoch and member count from the
//! membership plane, the pending-queue depth, the causal-health
//! estimators (sliding-window X̂,
//! the model's predicted `P_error(R, K, X̂)` next to the observed
//! Algorithm-4 alert rate, and the `K_opt` recommendation), the
//! anti-entropy store (messages retained, and how many seen messages the
//! stability frontier does not cover yet), transport health
//! (retransmits, unreachable peers, datagram bytes per frame sent, deltas
//! dropped for a missing base), and a clock-entry occupancy sparkline
//! from the collision heatmap.
//!
//! ```text
//! pcb-top --rpc 127.0.0.1:9001 --rpc 127.0.0.1:9002 [--interval-ms N] [--once]
//! ```
//!
//! `--once` renders a single frame without clearing the screen — the CI
//! smoke mode (`scripts/verify.sh --obs`) and a quick health check.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

use pcb_telemetry::json::{self, Value};

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn usage(error: &str) -> ExitCode {
    eprintln!("pcb-top: {error}");
    eprintln!("usage: pcb-top --rpc ADDR [--rpc ADDR ...] [--interval-ms N] [--once]");
    ExitCode::from(2)
}

/// One status poll: line-JSON request/response over a fresh connection.
fn poll_status(addr: SocketAddr) -> Result<Value, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
        .map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_millis(500))).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(b"{\"op\":\"status\"}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
    json::parse(line.trim()).map_err(|e| format!("bad status json: {e:?}"))
}

fn u64_field(status: &Value, key: &str) -> u64 {
    status.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn f64_field(status: &Value, key: &str) -> f64 {
    status.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Compresses the heatmap slot hits into a 16-char occupancy sparkline.
fn heatmap_spark(status: &Value) -> String {
    let Some(Value::Array(slots)) = status.get("heatmap_hits") else {
        return "-".repeat(16);
    };
    let hits: Vec<u64> = slots.iter().filter_map(Value::as_u64).collect();
    if hits.is_empty() {
        return "-".repeat(16);
    }
    let bucket = hits.len().div_ceil(16);
    let sums: Vec<u64> = hits.chunks(bucket).map(|c| c.iter().sum()).collect();
    let max = sums.iter().copied().max().unwrap_or(0);
    sums.iter()
        .map(|&s| {
            if max == 0 {
                SPARK[0]
            } else {
                SPARK[((s * 7).div_ceil(max.max(1)) as usize).min(7)]
            }
        })
        .collect()
}

fn render(targets: &[SocketAddr], clear: bool) -> u32 {
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    out.push_str(&format!(
        "{:<21} {:>3} {:>3} {:>3} {:>5} {:>9} {:>7} {:>9} {:>9} {:>5} {:>7} {:>7} {:>6} {:>5} \
         {:>5} {:>5} {:>6}  {}\n",
        "node (rpc)",
        "inc",
        "cfg",
        "mem",
        "pend",
        "delivered",
        "x_hat",
        "p_err",
        "alerts/d",
        "k_rec",
        "store",
        "f_lag",
        "rexmit",
        "down",
        "rstrt",
        "B/frm",
        "nobase",
        "entry heat",
    ));
    let mut unreachable = 0;
    for addr in targets {
        match poll_status(*addr) {
            Ok(s) => {
                let crashed = s.get("crashed").and_then(Value::as_bool).unwrap_or(false);
                let left = s.get("left").and_then(Value::as_bool).unwrap_or(false);
                out.push_str(&format!(
                    "{:<21} {:>3} {:>3} {:>3} {:>5} {:>9} {:>7.2} {:>9.2e} {:>9.2e} {:>5} {:>7} \
                     {:>7} {:>6} {:>5} {:>5} {:>5} {:>6}  {}{}\n",
                    format!("{} ({addr})", u64_field(&s, "node")),
                    u64_field(&s, "endpoint_incarnation"),
                    u64_field(&s, "config_epoch"),
                    u64_field(&s, "members"),
                    u64_field(&s, "pending"),
                    u64_field(&s, "delivered"),
                    f64_field(&s, "x_hat"),
                    f64_field(&s, "predicted_p_error"),
                    f64_field(&s, "observed_alert_rate"),
                    u64_field(&s, "recommended_k"),
                    u64_field(&s, "store_retained"),
                    u64_field(&s, "frontier_lag"),
                    u64_field(&s, "udp_retransmits"),
                    u64_field(&s, "udp_peer_down")
                        - u64_field(&s, "udp_peer_up").min(u64_field(&s, "udp_peer_down")),
                    u64_field(&s, "udp_peer_restarts"),
                    u64_field(&s, "udp_bytes_sent") / u64_field(&s, "udp_frames_sent").max(1),
                    u64_field(&s, "delta_missing_base"),
                    heatmap_spark(&s),
                    if left {
                        "  [LEFT]"
                    } else if crashed {
                        "  [CRASHED]"
                    } else {
                        ""
                    },
                ));
            }
            Err(e) => {
                unreachable += 1;
                out.push_str(&format!("{:<21} unreachable: {e}\n", addr.to_string()));
            }
        }
    }
    print!("{out}");
    let _ = std::io::stdout().flush();
    unreachable
}

fn main() -> ExitCode {
    let mut targets: Vec<SocketAddr> = Vec::new();
    let mut interval = Duration::from_millis(1000);
    let mut once = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rpc" => match args.next().map(|v| v.parse()) {
                Some(Ok(addr)) => targets.push(addr),
                _ => return usage("--rpc needs host:port"),
            },
            "--interval-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => interval = Duration::from_millis(ms.max(50)),
                _ => return usage("--interval-ms needs a number"),
            },
            "--once" => once = true,
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    if targets.is_empty() {
        return usage("no --rpc targets");
    }

    if once {
        let unreachable = render(&targets, false);
        return if unreachable == targets.len() as u32 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    loop {
        render(&targets, true);
        std::thread::sleep(interval);
    }
}
