//! A cluster of real `pcb-daemon` processes on loopback, and the
//! line-JSON RPC connections the load generator drives them through.
//!
//! Harness hygiene, each item a failure seen while sizing the workloads:
//! UDP + TCP port pairs are reserved before anything spawns; every run
//! gets its own work directory; children are killed and reaped on every
//! exit path (`Drop`); `--rto-max-us 50000` because the default 800 ms
//! cap quantises a restarted node's catch-up into 1.5 / 2.3 / 3.1 s
//! steps; the store window is the caller's choice, because an outage
//! longer than the window leaves the restarted node waiting forever on
//! messages nobody can serve any more.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pcb_broadcast::{PcbConfig, RecoveryTimingUs};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace};
use pcb_runtime::daemon::save_spec;
use pcb_runtime::json::{self, Value};
use pcb_sim::export::NodeSpec;

use crate::util;

pub const N: usize = 3;
const RTO_MAX_US: u64 = 50_000;

/// One RPC connection: non-blocking, line-framed both ways.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    pub closed: bool,
}

impl Conn {
    /// Connects, retrying until the daemon's listener is up.
    pub fn connect(addr: SocketAddr, deadline: Instant) -> Result<Conn, String> {
        loop {
            match Conn::try_connect(addr) {
                Some(conn) => return Ok(conn),
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                None => return Err(format!("rpc socket {addr} never came up")),
            }
        }
    }

    /// One connection attempt; `None` while nothing listens yet.
    pub fn try_connect(addr: SocketAddr) -> Option<Conn> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Conn { stream, inbuf: Vec::new(), outbuf: Vec::new(), closed: false })
    }

    /// Queues one request line and pushes out what the socket accepts.
    pub fn send(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
        self.flush();
    }

    fn flush(&mut self) {
        while !self.outbuf.is_empty() && !self.closed {
            match self.stream.write(&self.outbuf) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
    }

    /// Reads whatever has arrived and returns each complete line, parsed.
    /// A peer that went away marks the connection closed.
    pub fn poll(&mut self) -> Vec<Value> {
        self.flush();
        let mut buf = [0u8; 16 * 1024];
        while !self.closed {
            match self.stream.read(&mut buf) {
                Ok(0) => self.closed = true,
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(len) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.inbuf[start..start + len]);
            if let Ok(value) = json::parse(line.trim()) {
                lines.push(value);
            }
            start += len + 1;
        }
        self.inbuf.drain(..start);
        lines
    }

    /// Sends `request` and waits for its answer — the first line that is
    /// not a `deliver` event. For set-up and tear-down only, never the
    /// timed window: events read on the way are dropped.
    pub fn call(&mut self, request: &str, timeout: Duration) -> Result<Value, String> {
        self.send(request);
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(answer) = self.poll().into_iter().find(|line| !is_event(line)) {
                return Ok(answer);
            }
            if self.closed {
                return Err(format!("connection closed while waiting for {request}"));
            }
            if Instant::now() > deadline {
                return Err(format!("no answer to {request} within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

pub fn is_event(line: &Value) -> bool {
    line.get("event").is_some()
}

pub fn is_ok(line: &Value) -> bool {
    line.get("ok").and_then(Value::as_bool) == Some(true)
}

/// `(sender, seq, payload)` of a `deliver` event line.
pub fn parse_deliver(line: &Value) -> Option<(u64, u64, u64)> {
    if line.get("event").and_then(Value::as_str) != Some("deliver") {
        return None;
    }
    Some((
        line.get("sender")?.as_u64()?,
        line.get("seq")?.as_u64()?,
        line.get("payload")?.as_u64()?,
    ))
}

/// One daemon process and where it lives.
pub struct Node {
    child: Option<Child>,
    pub state_dir: PathBuf,
    pub udp: SocketAddr,
    pub rpc: SocketAddr,
}

impl Node {
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// SIGKILL and reap. No shutdown RPC, no flush: the crash the
    /// WAL-before-send discipline has to survive.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

pub struct Cluster {
    daemon_bin: PathBuf,
    state_root: PathBuf,
    work_dir: PathBuf,
    pub nodes: Vec<Node>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            node.kill();
        }
        let _ = std::fs::remove_dir_all(&self.work_dir);
        // Leave nothing behind: drops the root too once the last run's
        // directory is gone (fails, harmlessly, while another run uses it).
        let _ = std::fs::remove_dir(&self.state_root);
    }
}

/// Reserves `n` distinct UDP/TCP port pairs on loopback: all sockets are
/// held until every pair is bound, so the kernel cannot hand one port
/// out twice, then released together just before the daemons bind them.
fn reserve_ports(n: usize) -> std::io::Result<Vec<(SocketAddr, SocketAddr)>> {
    let mut held = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        addrs.push((udp.local_addr()?, tcp.local_addr()?));
        held.push((udp, tcp));
    }
    Ok(addrs)
}

impl Cluster {
    /// Writes the three node specs and spawns the daemons. Returns once
    /// every process exists; [`Cluster::wait_ready`] waits for them to
    /// answer.
    pub fn spawn(
        daemon_bin: &Path,
        state_root: &Path,
        seed: u64,
        store_window_us: u64,
    ) -> Result<Cluster, String> {
        static NONCE: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let nonce = NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let work_dir = state_root.join(format!("run-{}-{seed}-{nonce}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work_dir);
        let io = |e: std::io::Error| format!("cluster set-up: {e}");

        let space = KeySpace::new(100, 4).expect("the paper's (100, 4) space");
        let mut assigner =
            KeyAssigner::new(space, AssignmentPolicy::UniformRandom, util::sub_seed(seed, 0xC1));
        let keys = assigner.assign_n(N).map_err(|e| format!("key assignment: {e}"))?;
        let timing = RecoveryTimingUs { store_window_us, ..RecoveryTimingUs::default() };
        let addrs = reserve_ports(N).map_err(io)?;

        let mut cluster = Cluster {
            daemon_bin: daemon_bin.to_path_buf(),
            state_root: state_root.to_path_buf(),
            work_dir,
            nodes: Vec::new(),
        };
        for (node, keys) in keys.into_iter().enumerate() {
            let state_dir = cluster.work_dir.join(format!("node-{node}"));
            std::fs::create_dir_all(&state_dir).map_err(io)?;
            let spec = NodeSpec {
                node: node as u32,
                n: N as u32,
                keys,
                pcb_config: PcbConfig::default(),
                timing,
            };
            save_spec(&state_dir, &spec).map_err(io)?;
            cluster.nodes.push(Node {
                child: None,
                state_dir,
                udp: addrs[node].0,
                rpc: addrs[node].1,
            });
        }
        for node in 0..N {
            cluster.start(node, false)?;
        }
        Ok(cluster)
    }

    /// Starts (or, with `resume`, restarts from disk) daemon `node`.
    pub fn start(&mut self, node: usize, resume: bool) -> Result<(), String> {
        let me = &self.nodes[node];
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(me.state_dir.join("stderr.log"))
            .map_err(|e| format!("stderr log: {e}"))?;
        let mut cmd = Command::new(&self.daemon_bin);
        cmd.arg("--state-dir")
            .arg(&me.state_dir)
            .arg("--listen")
            .arg(me.udp.to_string())
            .arg("--mode")
            .arg("live")
            .arg("--rpc")
            .arg(me.rpc.to_string())
            .arg("--rto-max-us")
            .arg(RTO_MAX_US.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(stderr));
        for (peer, other) in self.nodes.iter().enumerate() {
            if peer != node {
                cmd.arg("--peer").arg(format!("{peer}={}", other.udp));
            }
        }
        if resume {
            cmd.arg("--resume");
        }
        let child =
            cmd.spawn().map_err(|e| format!("cannot spawn {}: {e}", self.daemon_bin.display()))?;
        self.nodes[node].child = Some(child);
        Ok(())
    }

    /// One control connection per daemon, each proven live by a `status`
    /// round trip.
    pub fn wait_ready(&self) -> Result<Vec<Conn>, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut conns = Vec::new();
        for node in &self.nodes {
            let mut conn = Conn::connect(node.rpc, deadline)?;
            let status = conn.call(STATUS, Duration::from_secs(10))?;
            if !is_ok(&status) {
                return Err(format!("daemon status not ok: {}", status.to_json()));
            }
            conns.push(conn);
        }
        Ok(conns)
    }

    /// Largest `VmHWM` over the live daemons, in kB.
    pub fn peak_rss_kb(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(Node::pid)
            .filter_map(|pid| util::proc_status_kb(pid, "VmHWM"))
            .max()
            .unwrap_or(0)
    }

    /// Asks every live daemon to exit and reaps it (SIGKILL after 2 s).
    pub fn shutdown(&mut self, control: &mut [Conn]) {
        for conn in control.iter_mut() {
            conn.send(SHUTDOWN);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for node in &mut self.nodes {
            while let Some(child) = node.child.as_mut() {
                match child.try_wait() {
                    Ok(Some(_)) => node.child = None,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    _ => node.kill(),
                }
            }
        }
    }
}

pub const STATUS: &str = r#"{"op":"status"}"#;
pub const SUBSCRIBE: &str = r#"{"op":"subscribe"}"#;
pub const RESTORE: &str = r#"{"op":"restore"}"#;
const SHUTDOWN: &str = r#"{"op":"shutdown"}"#;

pub fn publish_line(payload: u32) -> String {
    format!(r#"{{"op":"publish","payload":{payload}}}"#)
}
