//! Live-mode daemon integration: a 3-process localhost cluster pushing
//! 1000 messages through real UDP sockets and the line-JSON RPC plane,
//! with one node `SIGKILL`ed mid-stream and restarted from its on-disk
//! snapshot + WAL.
//!
//! Asserts the restarted node reports exactly one snapshot restore and a
//! non-zero anti-entropy refetch count, that broadcasts travelled as
//! delta frames with a bounded number dropped for a missing base across
//! the kill, and that the [`StreamOracle`]
//! certifies every delivery stream complete (zero lost messages) with
//! exactly-once delivery per incarnation. The converged cluster then
//! doubles as the observability smoke: every node's `/metrics` page must
//! parse and agree with its `status` reply, and `pcb-top --once` must
//! render one row per node.
//!
//! Smaller clusters pin the daemon's capacity path and its loop: a
//! closed loop of publishes must not stall on delayed ACKs, the message
//! store must follow the durable stability frontier while every member
//! reports and fall back to its time window once one is killed, a
//! publish acknowledged just before a `SIGKILL` must still reach the
//! survivors, a member that is down must be probed rather than flooded
//! by the survivors, whose loops must still sleep meanwhile, and an idle
//! daemon must wait rather than spin.
//!
//! Single daemons of a two- or three-member cluster pin what a live
//! daemon accepts: peer traffic only from a member's address, and from
//! it only anti-entropy and that member's own chain; five RPC ops;
//! `/metrics` connections, and an RPC client holding half a request
//! line, that never hold the loop; a failed WAL write that stops the
//! daemon before a publish's frame or ack leaves. The other members are
//! either down or sockets of the test itself.
//!
//! Skips (with a visible marker) when the environment forbids spawning
//! subprocesses or binding sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bytes::Bytes;
use pcb_broadcast::endpoint::{Input, Output};
use pcb_broadcast::{wire, DeltaEncoder, Endpoint, Message, NodeSpec, PcbConfig, RecoveryTimingUs};
use pcb_clock::{KeySet, KeySpace, ProcessId};
use pcb_runtime::daemon::{
    decode_msg, encode_frame_msg, encode_probe_msg, encode_row_msg, save_spec, DaemonMsg,
};
use pcb_runtime::{UdpConfig, UdpEvent, UdpTransport};
use pcb_sim::export::{encode_join_grant, encode_step};
use pcb_sim::StreamOracle;
use pcb_telemetry::json::{self, Value};

const N: usize = 3;
/// Messages published per node; 1000 total.
const PUBLISHES: [u64; N] = [400, 400, 200];

fn daemon_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pcb-daemon"))
}

/// One daemon's `(udp, rpc, metrics)` addresses.
type Ports = (SocketAddr, SocketAddr, SocketAddr);

/// Reserves `n` distinct free localhost port triples. All sockets are
/// held until every triple is bound (so the kernel cannot hand the same
/// port out twice), then released together; the tiny window before the
/// daemons re-bind is an accepted test-only race.
fn free_ports(n: usize) -> std::io::Result<Vec<Ports>> {
    let mut hold = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        let rpc = TcpListener::bind("127.0.0.1:0")?;
        let metrics = TcpListener::bind("127.0.0.1:0")?;
        addrs.push((udp.local_addr()?, rpc.local_addr()?, metrics.local_addr()?));
        hold.push((udp, rpc, metrics));
    }
    Ok(addrs)
}

/// One scrape of a daemon's Prometheus endpoint: the page body.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics endpoint accepts");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout set");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request sent");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    let (head, body) = response.split_once("\r\n\r\n").expect("http header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape failed: {head}");
    body.to_owned()
}

/// One line-JSON RPC exchange on a fresh connection.
fn rpc(addr: SocketAddr, request: &Value) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match try_rpc(addr, request) {
            Some(v) => return v,
            None if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            None => panic!("rpc to {addr} kept failing: {}", request.to_json()),
        }
    }
}

fn try_rpc(addr: SocketAddr, request: &Value) -> Option<Value> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream.write_all(format!("{}\n", request.to_json()).as_bytes()).ok()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    json::parse(line.trim()).ok()
}

fn status(addr: SocketAddr) -> Value {
    let v = rpc(addr, &Value::object([("op", Value::from("status"))]));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "status failed: {}", v.to_json());
    v
}

fn publish(addr: SocketAddr, payload: u32) {
    let v = rpc(
        addr,
        &Value::object([("op", Value::from("publish")), ("payload", Value::from(payload))]),
    );
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "publish failed: {}", v.to_json());
}

/// Opens a subscription, returning the connection positioned past the
/// op response plus any delivery events read on the way there. The
/// daemon replays the node's backlog *before* the op response, so the
/// handshake must collect events until the `ok` line shows up.
fn subscribe(addr: SocketAddr) -> Subscription {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(sub) = try_subscribe(addr) {
            return sub;
        }
        assert!(Instant::now() < deadline, "subscribe to {addr} kept failing");
        std::thread::sleep(Duration::from_millis(10));
    }
}

type Subscription = (BufReader<TcpStream>, Vec<(usize, u64)>);

fn try_subscribe(addr: SocketAddr) -> Option<Subscription> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_millis(500))).ok()?;
    stream
        .write_all(
            format!("{}\n", Value::object([("op", Value::from("subscribe"))]).to_json()).as_bytes(),
        )
        .ok()?;
    let mut reader = BufReader::new(stream);
    let mut events = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let v = json::parse(line.trim()).ok()?;
        if let Some(event) = parse_event(&v) {
            events.push(event);
        } else if v.get("ok").and_then(Value::as_bool) == Some(true) {
            return Some((reader, events));
        } else {
            return None;
        }
    }
}

fn parse_event(v: &Value) -> Option<(usize, u64)> {
    (v.get("event").and_then(Value::as_str) == Some("deliver")).then(|| {
        let sender = v.get("sender").and_then(Value::as_u64).expect("sender") as usize;
        let seq = v.get("seq").and_then(Value::as_u64).expect("seq");
        (sender, seq)
    })
}

/// Drains `(sender, seq)` delivery events until reads stay quiet for a
/// full timeout window (or the peer hangs up).
fn drain_events(reader: &mut BufReader<TcpStream>) -> Vec<(usize, u64)> {
    let mut events = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: peer gone
            Ok(_) => {
                let v = json::parse(line.trim()).expect("event line parses");
                let event = parse_event(&v).expect("only deliver events after the handshake");
                events.push(event);
            }
            Err(_) => break, // read timeout: stream quiet
        }
    }
    events
}

struct DaemonProc {
    child: Child,
    state_dir: PathBuf,
    listen: SocketAddr,
    rpc: SocketAddr,
    metrics: SocketAddr,
}

impl Drop for DaemonProc {
    /// A failing assertion must not leak daemon processes: an orphan
    /// from one test run would keep writing snapshots into the shared
    /// state path and poison the next run's resume.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_live(
    state_dir: &Path,
    listen: SocketAddr,
    rpc_addr: SocketAddr,
    metrics_addr: SocketAddr,
    peers: &[(usize, SocketAddr)],
    resume: bool,
) -> std::io::Result<Child> {
    let mut cmd = live_command(state_dir, listen, rpc_addr, metrics_addr, peers)?;
    if resume {
        cmd.arg("--resume");
    }
    cmd.spawn()
}

/// The `pcb-daemon` command line of one live member, stderr appended to
/// `stderr.log` in its state directory.
fn live_command(
    state_dir: &Path,
    listen: SocketAddr,
    rpc_addr: SocketAddr,
    metrics_addr: SocketAddr,
    peers: &[(usize, SocketAddr)],
) -> std::io::Result<Command> {
    let stderr =
        std::fs::OpenOptions::new().create(true).append(true).open(state_dir.join("stderr.log"))?;
    let mut cmd = Command::new(daemon_bin());
    cmd.arg("--state-dir")
        .arg(state_dir)
        .arg("--listen")
        .arg(listen.to_string())
        .arg("--mode")
        .arg("live")
        .arg("--rpc")
        .arg(rpc_addr.to_string())
        .arg("--metrics")
        .arg(metrics_addr.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr));
    for (idx, addr) in peers {
        cmd.arg("--peer").arg(format!("{idx}={addr}"));
    }
    Ok(cmd)
}

/// Recovery timing of every test cluster. The store window outlasts any
/// test, so whatever leaves the store left it below the stability
/// frontier.
const TIMING: RecoveryTimingUs = RecoveryTimingUs {
    stale_after_us: 60_000,
    poll_every_us: 25_000,
    store_window_us: u64::MAX / 2,
    snapshot_every_us: 150_000,
    sync_timeout_us: 150_000,
};

/// `n` free port triples and a fresh work directory named after `tag`;
/// `None`, with the SKIPPED marker printed, where this environment
/// cannot spawn processes or bind sockets.
fn prepare(tag: &str, n: usize) -> Option<(PathBuf, Vec<Ports>)> {
    if Command::new(daemon_bin()).arg("--help").output().is_err() {
        eprintln!("SKIPPED: cannot spawn pcb-daemon in this environment");
        return None;
    }
    let Ok(addrs) = free_ports(n) else {
        eprintln!("SKIPPED: cannot bind localhost sockets in this environment");
        return None;
    };
    // Unique per run: a stale directory must never be shared with a
    // daemon that survived an earlier aborted run.
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    Some((work_dir, addrs))
}

/// Spawns member `node` of an `n`-member cluster on `ports`, with a
/// fresh state directory under `work_dir`. Exact vector clocks: delivery
/// completeness is deterministic, so stream certification is a hard
/// assertion.
fn spawn_member(
    work_dir: &Path,
    node: usize,
    n: usize,
    (listen, rpc, metrics): Ports,
    peers: &[(usize, SocketAddr)],
) -> DaemonProc {
    let state_dir = member_state_dir(work_dir, node, n);
    let child = spawn_live(&state_dir, listen, rpc, metrics, peers, false).expect("daemon spawns");
    DaemonProc { child, state_dir, listen, rpc, metrics }
}

/// A fresh state directory under `work_dir` holding member `node`'s spec.
fn member_state_dir(work_dir: &Path, node: usize, n: usize) -> PathBuf {
    let space = KeySpace::vector(n).expect("vector space");
    let state_dir = work_dir.join(format!("node-{node}"));
    std::fs::create_dir_all(&state_dir).expect("state dir");
    let spec = NodeSpec {
        node: node as u32,
        n: n as u32,
        keys: KeySet::from_entries(space, &[node]).expect("vector key"),
        pcb_config: PcbConfig::default(),
        timing: TIMING,
    };
    save_spec(&state_dir, &spec).expect("spec written");
    state_dir
}

/// Spawns an `N`-daemon live cluster (see [`prepare`]).
fn spawn_cluster(tag: &str) -> Option<(Vec<Ports>, Vec<DaemonProc>)> {
    let (work_dir, addrs) = prepare(tag, N)?;
    let procs = (0..N)
        .map(|node| {
            let peers: Vec<(usize, SocketAddr)> =
                (0..N).filter(|j| *j != node).map(|j| (j, addrs[j].0)).collect();
            spawn_member(&work_dir, node, N, addrs[node], &peers)
        })
        .collect();
    Some((addrs, procs))
}

/// Spawns member 0 of a two-member cluster whose member 1 is at
/// `member`, or, given `None`, at an address nobody listens on: a member
/// that is down.
fn spawn_half_pair(tag: &str, member: Option<SocketAddr>) -> Option<DaemonProc> {
    let (work_dir, addrs) = prepare(tag, 2)?;
    let member = member.unwrap_or(addrs[1].0);
    Some(spawn_member(&work_dir, 0, 2, addrs[0], &[(1, member)]))
}

/// Asks every daemon to exit, SIGKILLing any that is still up after 5 s.
fn shutdown(procs: &mut [DaemonProc]) {
    for proc in procs {
        let _ = rpc(proc.rpc, &Value::object([("op", Value::from("shutdown"))]));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match proc.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = proc.child.kill();
                    let _ = proc.child.wait();
                    break;
                }
            }
        }
    }
}

fn u64_of(status: &Value, key: &str) -> u64 {
    status.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("{key}: {}", status.to_json()))
}

/// A non-blocking line-JSON connection, polled the way a load generator
/// polls it.
struct LineConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl LineConn {
    fn new(stream: TcpStream) -> Self {
        stream.set_nonblocking(true).expect("non-blocking");
        LineConn { stream, inbuf: Vec::new() }
    }

    fn send(&mut self, request: &Value) {
        // A request line is far below the socket buffer: one write.
        self.stream.write_all(format!("{}\n", request.to_json()).as_bytes()).expect("sent");
    }

    /// The complete lines that have arrived.
    fn poll(&mut self) -> Vec<Value> {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("daemon hung up"),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        let mut lines = Vec::new();
        while let Some(end) = self.inbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbuf.drain(..=end).collect();
            lines.push(json::parse(String::from_utf8_lossy(&line).trim()).expect("line parses"));
        }
        lines
    }
}

fn publish_request(payload: u32) -> Value {
    Value::object([("op", Value::from("publish")), ("payload", Value::from(payload))])
}

/// A closed loop through two daemons: publish on daemon 0, read the
/// `deliver` event on daemon 1's subscription, repeat. That subscriber
/// also keeps one publish of its own outstanding, as the benchmark's
/// client does, so its connection carries small replies and small
/// events. A daemon that wrote such a socket twice in one loop turn left
/// the second write behind Nagle until the client's delayed ACK
/// (≈ 40 ms, while the client waited for that very write): 200 round
/// trips took ≈ 4.5 s on a 2-core host, against ≈ 0.4 s with one write
/// per turn. The 2 s bound, measured in 20 debug runs on 2 cores: a
/// median of 225 ms and a maximum of 281 ms on a quiet host, 506 ms and
/// 738 ms during a concurrent `cargo build --release`.
#[test]
fn round_trips_do_not_wait_on_delayed_acks() {
    const ROUNDS: u64 = 200;
    let Some((_, mut procs)) = spawn_cluster("nagle") else { return };
    let (sub, _) = subscribe(procs[1].rpc);
    let mut subscriber = LineConn::new(sub.into_inner());
    status(procs[0].rpc); // daemon 0 is up
    let mut publisher = LineConn::new(TcpStream::connect(procs[0].rpc).expect("rpc connects"));
    subscriber.send(&publish_request(0));

    let started = Instant::now();
    let deadline = started + Duration::from_secs(30);
    for round in 1..=ROUNDS {
        publisher.send(&publish_request(round as u32));
        let mut delivered = false;
        while !delivered {
            assert!(Instant::now() < deadline, "stuck in round {round}");
            for line in publisher.poll() {
                assert_eq!(line.get("ok").and_then(Value::as_bool), Some(true), "{line:?}");
            }
            for line in subscriber.poll() {
                match parse_event(&line) {
                    Some(event) => delivered |= event == (0, round),
                    None => subscriber.send(&publish_request(0)),
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let elapsed = started.elapsed();
    shutdown(&mut procs);
    assert!(elapsed < Duration::from_secs(2), "{ROUNDS} round trips took {elapsed:?}");
}

/// While every member reports its durable row, the store empties behind
/// the stability frontier; once one member dies, the frontier stops at
/// its last row and the store's time window — which here outlasts the
/// test — keeps everything published after.
#[test]
fn store_follows_the_frontier_and_falls_back_to_its_window_when_a_member_dies() {
    const BURST: u32 = 300;
    let Some((_, mut procs)) = spawn_cluster("frontier") else { return };
    let field = |proc: &DaemonProc, key: &str| u64_of(&status(proc.rpc), key);
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "never: {what}");
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    for k in 0..BURST {
        publish(procs[0].rpc, k);
    }
    wait_for("every store empties behind the frontier", &|| {
        procs.iter().all(|p| field(p, "store_retained") == 0 && field(p, "frontier_lag") == 0)
    });
    assert_eq!(field(&procs[2], "delivered"), u64::from(BURST));

    let victim = procs.pop().expect("three daemons");
    drop(victim); // SIGKILL, reaped

    // A row counts for the member at the address that sent it. One from
    // an address that is no member's — claiming everything stable, with
    // one entry per member — counts for nobody, the dead member included.
    let any: SocketAddr = "127.0.0.1:0".parse().expect("address");
    let mut stranger = UdpTransport::bind(any, 1, UdpConfig::default(), 0).expect("bind");
    for proc in &procs {
        stranger.send(proc.listen, encode_row_msg(&[u64::MAX; N]), 0);
    }
    let sent_at = Instant::now();
    // Each survivor acknowledges the row once its loop has read it.
    while stranger.stats().0.datagrams_received < procs.len() as u64 {
        assert!(sent_at.elapsed() < Duration::from_secs(10), "the forged rows were never read");
        let now_us = sent_at.elapsed().as_micros() as u64;
        stranger.flush(now_us);
        let _ = stranger.poll(now_us);
        std::thread::sleep(Duration::from_millis(1));
    }

    for k in BURST..2 * BURST {
        publish(procs[0].rpc, k);
    }
    wait_for("the survivor delivers the second burst", &|| {
        field(&procs[1], "delivered") == u64::from(2 * BURST)
    });
    // Several snapshot rounds later, nothing past the dead member's last
    // row has left either survivor's store.
    std::thread::sleep(Duration::from_millis(4 * TIMING.snapshot_every_us / 1_000));
    for proc in &procs {
        let s = status(proc.rpc);
        assert!(u64_of(&s, "store_retained") >= u64::from(BURST), "{}", s.to_json());
        assert!(u64_of(&s, "frontier_lag") >= u64::from(BURST), "{}", s.to_json());
    }
    shutdown(&mut procs);
}

/// A publish is acknowledged only once its frames have left the daemon.
/// When the reply left first, the frame waited for the next loop turn;
/// a SIGKILL in between lost a message whose height was already in the
/// WAL. The restarted daemon numbers on past it, no store anywhere holds
/// it, and the survivors hold everything the victim sends afterwards
/// pending forever, waiting for it.
#[test]
fn a_publish_acknowledged_before_a_sigkill_reaches_the_survivors() {
    const BEFORE: u32 = 50;
    const AFTER: u32 = 100;
    let Some((addrs, mut procs)) = spawn_cluster("ackkill") else { return };
    let victim = 2usize;
    for k in 0..BEFORE {
        publish(procs[victim].rpc, k);
    }
    // Restart from a real snapshot, as in the SIGKILL test below.
    let deadline = Instant::now() + Duration::from_secs(20);
    while u64_of(&status(procs[victim].rpc), "snapshots_taken") == 0 {
        assert!(Instant::now() < deadline, "victim never cut a snapshot");
        std::thread::sleep(Duration::from_millis(20));
    }

    // One more, and the kill as soon as its reply is read.
    publish(procs[victim].rpc, BEFORE);
    procs[victim].child.kill().expect("SIGKILL");
    let _ = procs[victim].child.wait();

    let peers: Vec<(usize, SocketAddr)> =
        (0..N).filter(|j| *j != victim).map(|j| (j, addrs[j].0)).collect();
    let v = &procs[victim];
    procs[victim].child = spawn_live(&v.state_dir, v.listen, v.rpc, v.metrics, &peers, true)
        .expect("daemon respawns");
    let v = rpc(procs[victim].rpc, &Value::object([("op", Value::from("restore"))]));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "restore failed: {}", v.to_json());
    for k in BEFORE + 1..=BEFORE + AFTER {
        publish(procs[victim].rpc, k);
    }

    let want = u64::from(BEFORE + 1 + AFTER);
    let deadline = Instant::now() + Duration::from_secs(20);
    for proc in &procs[..2] {
        loop {
            let s = status(proc.rpc);
            if u64_of(&s, "delivered") == want {
                assert_eq!(u64_of(&s, "pending"), 0, "{}", s.to_json());
                break;
            }
            assert!(Instant::now() < deadline, "survivor never converged: {}", s.to_json());
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    shutdown(&mut procs);
}

/// `/proc/<pid>/status`'s count of voluntary context switches.
fn voluntary_switches(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// An idle daemon sleeps until a socket or a timer needs it. Polling
/// with a 500 µs sleep per loop turn woke each of these ≈ 1 700 times a
/// second with nothing to do; the protocol's own timers (a tick every
/// 12.5 ms here, probes, their replies) need about a hundred. The bound
/// of 400 a second, measured in 20 debug runs on 2 cores (60 daemons): a
/// median of 131 and a maximum of 136 on a quiet host, 127 and 134
/// during a concurrent `cargo build --release`.
#[test]
fn an_idle_daemon_waits_instead_of_spinning() {
    let Some((_, mut procs)) = spawn_cluster("idle") else { return };
    for proc in &procs {
        status(proc.rpc); // up and serving
    }
    let Some(before) =
        procs.iter().map(|p| voluntary_switches(p.child.id())).collect::<Option<Vec<_>>>()
    else {
        eprintln!("SKIPPED: no /proc/<pid>/status in this environment");
        return;
    };
    let window = Duration::from_secs(1);
    let started = Instant::now();
    std::thread::sleep(window);
    let after: Vec<u64> =
        procs.iter().map(|p| voluntary_switches(p.child.id()).expect("still running")).collect();
    let secs = started.elapsed().as_secs_f64();
    for (node, (b, a)) in before.iter().zip(&after).enumerate() {
        let rate = (a - b) as f64 / secs;
        eprintln!("node {node}: {rate:.0} voluntary context switches per second while idle");
        assert!(rate < 400.0, "node {node} woke {rate:.0} times a second while idle");
    }
    shutdown(&mut procs);
}

/// `/proc/<pid>/stat`'s user plus system CPU time, in clock ticks
/// (`USER_HZ`: 100 a second on Linux).
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // After the command name, which is parenthesised and may hold
    // spaces: the state is the first field, utime the twelfth, stime the
    // thirteenth.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Publishes `payloads` on `conn`, one every `period` on an open-loop
/// schedule, and returns once every publish is acknowledged.
fn publish_paced(conn: &mut LineConn, payloads: std::ops::Range<u32>, period: Duration) {
    let total = payloads.len();
    let started = Instant::now();
    let deadline = started + period * total as u32 + Duration::from_secs(10);
    let mut acked = 0;
    let mut take_acks = |conn: &mut LineConn| {
        for reply in conn.poll() {
            assert_eq!(reply.get("ok"), Some(&Value::from(true)), "{reply:?}");
            acked += 1;
        }
        acked
    };
    for (i, payload) in payloads.enumerate() {
        while Instant::now() < started + period * i as u32 {
            take_acks(conn);
            std::thread::sleep(Duration::from_micros(500));
        }
        conn.send(&publish_request(payload));
    }
    while take_acks(conn) < total {
        assert!(Instant::now() < deadline, "publishes never acknowledged");
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// A member that is down is probed, not flooded. A survivor retransmits
/// only the oldest frame it holds for that member, and sends it nothing
/// else until it answers: at most `max_retries` retransmits a give-up
/// cycle, where retransmitting every frame in flight on that frame's own
/// timer cost up to `window × max_retries`. The frames it holds meanwhile
/// have timers that ran out, and its loop must still sleep: a wait with
/// a deadline in the past never blocks, so a spin shows in CPU time, not
/// in voluntary context switches. Restarted from disk, the member then
/// delivers every message, each once in its incarnation.
#[test]
fn a_dead_member_is_probed_not_flooded() {
    // The benchmark's crash workload runs with this cap: a give-up cycle
    // is 25 ms + 8 × 50 ms = 425 ms.
    const RTO_MAX_US: u64 = 50_000;
    // 200 publishes a second: 0.5 s with every member up, a 2 s outage,
    // 0.5 s after the restart.
    const PERIOD: Duration = Duration::from_millis(5);
    const BEFORE: u32 = 100;
    const DURING: u32 = 400;
    const AFTER: u32 = 100;
    // The publishing survivor's CPU time over the outage, ms: three times
    // what it takes with every member up. Debug daemons on 2 cores, 2 s
    // at this rate: 130–140 ms with every member up (six runs),
    // 140–170 ms over the outage (16 runs); a wait handed a deadline in
    // the past read 1 800 ms.
    const CPU_MS_MAX: u64 = 400;
    let Some((work_dir, addrs)) = prepare("outage", N) else { return };
    let start = |node: usize, state_dir: &Path, resume: bool| {
        let (listen, rpc, metrics) = addrs[node];
        let peers: Vec<_> = (0..N).filter(|j| *j != node).map(|j| (j, addrs[j].0)).collect();
        let mut cmd = live_command(state_dir, listen, rpc, metrics, &peers).expect("command");
        cmd.arg("--rto-max-us").arg(RTO_MAX_US.to_string());
        if resume {
            cmd.arg("--resume");
        }
        cmd.spawn().expect("daemon spawns")
    };
    let mut procs: Vec<DaemonProc> = (0..N)
        .map(|node| {
            let state_dir = member_state_dir(&work_dir, node, N);
            let child = start(node, &state_dir, false);
            let (listen, rpc, metrics) = addrs[node];
            DaemonProc { child, state_dir, listen, rpc, metrics }
        })
        .collect();
    let (publisher_node, victim) = (0usize, 2usize);
    let (mut victim_sub, mut victim_before) = subscribe(procs[victim].rpc);
    status(procs[1].rpc);
    let stream = TcpStream::connect(procs[publisher_node].rpc).expect("rpc connects");
    let mut publisher = LineConn::new(stream);
    publish_paced(&mut publisher, 0..BEFORE, PERIOD);
    // The restart must come from a real snapshot (cadence 150 ms).
    let deadline = Instant::now() + Duration::from_secs(20);
    while u64_of(&status(procs[victim].rpc), "snapshots_taken") == 0 {
        assert!(Instant::now() < deadline, "victim never cut a snapshot");
        std::thread::sleep(Duration::from_millis(20));
    }

    let Some(cpu_before) = cpu_ticks(procs[publisher_node].child.id()) else {
        eprintln!("SKIPPED: no /proc/<pid>/stat in this environment");
        return;
    };
    procs[victim].child.kill().expect("SIGKILL");
    let _ = procs[victim].child.wait();
    victim_before.extend(drain_events(&mut victim_sub));
    let retransmits = |procs: &[DaemonProc]| -> Vec<u64> {
        procs[..2].iter().map(|p| u64_of(&status(p.rpc), "udp_retransmits")).collect()
    };
    let (before, killed_at) = (retransmits(&procs), Instant::now());
    publish_paced(&mut publisher, BEFORE..BEFORE + DURING, PERIOD);
    let (after, outage) = (retransmits(&procs), killed_at.elapsed());
    let cpu_ms = 10 * (cpu_ticks(procs[publisher_node].child.id()).expect("running") - cpu_before);

    let cfg = UdpConfig { rto_max_us: RTO_MAX_US, ..UdpConfig::default() };
    let mut rto_us = cfg.rto_initial_us;
    let mut horizon_us = rto_us;
    for _ in 0..cfg.max_retries {
        rto_us = (2 * rto_us).min(cfg.rto_max_us);
        horizon_us += rto_us;
    }
    let cycles = outage.as_micros() as f64 / horizon_us as f64 + 2.0;
    let bound = f64::from(cfg.max_retries) * cycles;
    for (node, (b, a)) in before.iter().zip(&after).enumerate() {
        let sent = a - b;
        eprintln!("node {node}: {sent} retransmits over a {outage:?} outage (bound {bound:.0})");
        assert!(sent as f64 <= bound, "node {node} retransmitted {sent} times in {outage:?}");
    }
    eprintln!("node {publisher_node}: {cpu_ms} ms of CPU over the outage (bound {CPU_MS_MAX})");
    assert!(cpu_ms < CPU_MS_MAX, "node {publisher_node} burned {cpu_ms} ms in {outage:?}");

    let v = &procs[victim];
    procs[victim].child = start(victim, &v.state_dir, true);
    let v = rpc(procs[victim].rpc, &Value::object([("op", Value::from("restore"))]));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "restore failed: {}", v.to_json());
    publish_paced(&mut publisher, BEFORE + DURING..BEFORE + DURING + AFTER, PERIOD);

    // Every message, at both receivers; at the victim across its two
    // incarnations, each once in either.
    let published = [u64::from(BEFORE + DURING + AFTER), 0, 0];
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut oracle = StreamOracle::new(N);
        for (sender, seq) in subscribe(procs[1].rpc).1 {
            oracle.record_delivery(1, sender, seq).expect("survivor stream clean");
        }
        for &(sender, seq) in &victim_before {
            oracle.record_delivery(victim, sender, seq).expect("victim pre-kill stream clean");
        }
        oracle.mark_crash(victim);
        for (sender, seq) in subscribe(procs[victim].rpc).1 {
            oracle.record_delivery(victim, sender, seq).expect("victim post-restore stream clean");
        }
        match oracle.certify(&published) {
            Ok(()) => break,
            Err(hole) => assert!(Instant::now() < deadline, "never converged: {hole:?}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    shutdown(&mut procs);
}

/// A test socket that speaks the daemons' transport: a stranger, or the
/// member that a daemon's `--peer` names.
struct Speaker {
    transport: UdpTransport,
    clock: Instant,
}

impl Speaker {
    fn bind() -> Self {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("address");
        let transport = UdpTransport::bind(any, 1, UdpConfig::default(), 0).expect("bind");
        Speaker { transport, clock: Instant::now() }
    }

    fn addr(&self) -> SocketAddr {
        self.transport.local_addr().expect("bound")
    }

    /// Sends `msg` to `daemon` and returns the daemon's status once its
    /// loop has taken the frame. A turn applies the frames it reads
    /// before it answers RPCs, so the status already shows their effect.
    fn say(&mut self, daemon: &DaemonProc, msg: Bytes) -> Value {
        let taken = |s: &Value| u64_of(s, "udp_frames_received");
        let want = taken(&status(daemon.rpc)) + 1;
        let now_us = || self.clock.elapsed().as_micros() as u64;
        self.transport.send(daemon.listen, msg, now_us());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            self.transport.flush(now_us());
            let _ = self.transport.poll(now_us());
            let s = status(daemon.rpc);
            if taken(&s) >= want {
                return s;
            }
            assert!(Instant::now() < deadline, "the daemon never read the datagram");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Member 1's endpoint in the two-member clusters below, and its next
/// broadcast.
fn member_one() -> Endpoint<u32> {
    let keys = KeySet::from_entries(KeySpace::vector(2).expect("space"), &[1]).expect("key");
    Endpoint::new(ProcessId::new(1), keys, PcbConfig::default(), None)
}

fn broadcast(endpoint: &mut Endpoint<u32>, payload: u32) -> Message<u32> {
    let outputs = endpoint.handle(Input::Broadcast(payload), 1_000);
    outputs
        .into_iter()
        .find_map(|o| match o {
            Output::SendFrame(message) => Some(message),
            _ => None,
        })
        .expect("a broadcast sends a frame")
}

/// `input` as daemons once sent it to each other: kind byte 0, then a
/// step of the simulator's replay codec. The kind is retired, so a
/// daemon refuses every one of these, whoever sends it.
fn old_step(input: &Input<u32>) -> Bytes {
    let mut msg = vec![0];
    msg.extend_from_slice(&encode_step(0, input));
    Bytes::from(msg)
}

/// The payloads of every delivery the daemon has logged, in order: the
/// backlog a `subscribe` replays before its reply.
fn delivered_payloads(addr: SocketAddr) -> Vec<u64> {
    let request = format!("{}\n", Value::object([("op", Value::from("subscribe"))]).to_json());
    let mut stream = TcpStream::connect(addr).expect("rpc connects");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout set");
    stream.write_all(request.as_bytes()).expect("sent");
    let mut payloads = Vec::new();
    for line in BufReader::new(stream).lines() {
        let v = json::parse(line.expect("backlog line").trim()).expect("line parses");
        match v.get("payload").and_then(Value::as_u64) {
            Some(payload) => payloads.push(payload),
            None => return payloads, // the op's reply closes the backlog
        }
    }
    panic!("the daemon hung up during the backlog")
}

/// One datagram from any address carrying `Input::Leave` as a kind-0
/// step used to retire a live daemon for good.
#[test]
fn a_strangers_leave_does_not_retire_the_daemon() {
    let Some(daemon) = spawn_half_pair("leave", None) else { return };
    publish(daemon.rpc, 1);
    let after = Speaker::bind().say(&daemon, old_step(&Input::Leave));
    assert_eq!(after.get("left"), Some(&Value::from(false)), "a stranger's Leave retired it");
    publish(daemon.rpc, 2);
    assert_eq!(u64_of(&status(daemon.rpc), "sent"), 2, "the daemon still publishes");
}

/// A stranger's `StableFrontier` used to empty the store while member 1
/// was down, so that member could not be served on its return.
#[test]
fn a_strangers_frontier_leaves_the_store_alone_while_a_member_is_down() {
    let Some(daemon) = spawn_half_pair("frontier-forged", None) else { return };
    for k in 0..5 {
        publish(daemon.rpc, k);
    }
    assert_eq!(u64_of(&status(daemon.rpc), "store_retained"), 5);
    let forged = old_step(&Input::StableFrontier(vec![u64::MAX; 2]));
    let after = Speaker::bind().say(&daemon, forged);
    assert_eq!(u64_of(&after, "store_retained"), 5, "a stranger's frontier pruned the store");
    publish(daemon.rpc, 5);
    assert_eq!(u64_of(&status(daemon.rpc), "store_retained"), 6);
}

/// A `join` RPC with a well-formed grant for id `u32::MAX - 1` used to
/// grow the peer table to that many slots and abort the daemon on the
/// allocation.
#[test]
fn the_join_rpc_is_an_unknown_op() {
    let Some(daemon) = spawn_half_pair("join", None) else { return };
    let keys = KeySet::from_entries(KeySpace::vector(2).expect("space"), &[1]).expect("key");
    let grant = member_one().join_grant(ProcessId::new(u32::MAX as usize - 1), keys);
    let hex: String = encode_join_grant(&grant).iter().map(|b| format!("{b:02x}")).collect();
    let request =
        Value::object([("op", Value::from("join")), ("grant", Value::from(hex.as_str()))]);
    let reply = rpc(daemon.rpc, &request);
    assert_eq!(reply.get("ok"), Some(&Value::from(false)), "{}", reply.to_json());
    let why = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(why.starts_with("unknown op"), "{}", reply.to_json());
    status(daemon.rpc);
}

/// A WAL write that fails stops the daemon before the publish's frame
/// leaves or its ack is sent: the height it stamped is durable nowhere,
/// so it must never have left the process. The daemon used to print a
/// warning and send the frame anyway.
#[test]
fn a_failed_wal_write_stops_the_daemon_before_its_frames_leave() {
    let mut member = Speaker::bind();
    let Some(mut daemon) = spawn_half_pair("wal-fails", Some(member.addr())) else { return };
    status(daemon.rpc); // booted: a fresh boot clears any `wal.bin`
    std::fs::create_dir(daemon.state_dir.join("wal.bin")).expect("a directory in its place");

    let mut stream = TcpStream::connect(daemon.rpc).expect("rpc connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    stream.write_all(format!("{}\n", publish_request(1).to_json()).as_bytes()).expect("sent");
    let mut reply = String::new();
    let _ = BufReader::new(stream).read_line(&mut reply);
    assert_eq!(reply, "", "the publish was acknowledged");

    let deadline = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = daemon.child.try_wait().expect("wait") {
            break exit;
        }
        assert!(Instant::now() < deadline, "the daemon kept running");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(!exit.success(), "{exit:?}");
    let stderr = std::fs::read_to_string(daemon.state_dir.join("stderr.log")).expect("stderr");
    assert!(stderr.contains("wal.bin"), "{stderr}");

    // Whatever the daemon sent its member before it stopped, no frame of
    // its chain was among it.
    let mut frames = 0;
    for _ in 0..50 {
        let now_us = member.clock.elapsed().as_micros() as u64;
        for event in member.transport.poll(now_us) {
            if let UdpEvent::Frame { frame, .. } = event {
                frames += u32::from(matches!(decode_msg(&frame), Ok(DaemonMsg::Frame(_))));
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(frames, 0, "a frame left before its height was durable");
}

/// A turn reads only the connections its wait named. One that holds half
/// a request line is not named again until more of it arrives; the other
/// clients are served meanwhile, and it is answered once its line is in.
#[test]
fn a_half_sent_request_holds_no_other_client() {
    const PUBLISHES: u32 = 200;
    let Some(daemon) = spawn_half_pair("half-line", None) else { return };
    status(daemon.rpc);
    let line = format!("{}\n", publish_request(0).to_json());
    let (head, tail) = line.split_at(line.len() / 2);
    let mut a = LineConn::new(TcpStream::connect(daemon.rpc).expect("rpc connects"));
    a.stream.write_all(head.as_bytes()).expect("half a line sent");
    let mut b = LineConn::new(TcpStream::connect(daemon.rpc).expect("rpc connects"));

    // Liveness, not latency: the deadline is generous. From this line to
    // the completed line's reply, 25 debug runs on 2 cores read a median
    // of 63 ms and a maximum of 100 ms.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut acked = 0;
    for payload in 1..=PUBLISHES {
        b.send(&publish_request(payload));
        loop {
            let lines = b.poll();
            assert!(lines.len() <= 1, "one request, one reply: {lines:?}");
            if let Some(reply) = lines.first() {
                assert_eq!(reply.get("ok"), Some(&Value::from(true)), "{reply:?}");
                acked += 1;
                break;
            }
            assert!(Instant::now() < deadline, "publish {payload} never acknowledged");
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(a.poll().is_empty(), "half a line answered");
    }
    assert_eq!(acked, PUBLISHES);

    a.stream.write_all(tail.as_bytes()).expect("the rest of the line");
    let reply = loop {
        if let Some(reply) = a.poll().pop() {
            break reply;
        }
        assert!(Instant::now() < deadline, "the completed line was never answered");
        std::thread::sleep(Duration::from_micros(100));
    };
    assert_eq!(reply.get("ok"), Some(&Value::from(true)), "{reply:?}");
    assert_eq!(u64_of(&status(daemon.rpc), "sent"), u64::from(PUBLISHES) + 1);
}

/// Every accepted `/metrics` socket used to be read blocking with a
/// 300 ms timeout inside the loop: five that sent nothing held a publish
/// for ≈ 1.5 s, and UDP acks and retransmits with it.
#[test]
fn idle_metrics_connections_do_not_stall_the_loop() {
    let Some(daemon) = spawn_half_pair("metrics-idle", None) else { return };
    status(daemon.rpc);
    let idle: Vec<TcpStream> =
        (0..5).map(|_| TcpStream::connect(daemon.metrics).expect("metrics accepts")).collect();
    // The loop wakes for them before the publish below arrives.
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    publish(daemon.rpc, 1);
    let elapsed = started.elapsed();
    // 25 debug runs on 2 cores read a median of 1.2 ms and a maximum of
    // 1.8 ms; five idle sockets read blocking used to cost ≈ 1.5 s.
    assert!(elapsed < Duration::from_millis(100), "a publish round trip took {elapsed:?}");
    // A scrape that does send its request is answered while they idle.
    pcb_telemetry::validate(&scrape(daemon.metrics)).expect("the page parses");
    drop(idle);
}

/// Every `Input` variant as a kind-0 step, from a stranger and then from
/// the member's own address: the kind is retired, so nothing an operator
/// watches moves and nothing is served. Then probes of today's kind: only
/// the member's probe in its own name reaches the endpoint, which serves
/// it.
#[test]
fn only_a_members_own_probes_and_replies_reach_the_endpoint() {
    let mut member = Speaker::bind();
    let Some(daemon) = spawn_half_pair("msg-pcb", Some(member.addr())) else { return };
    for k in 0..5 {
        publish(daemon.rpc, k); // the store holds them: member 1 never reports
    }
    let mut sponsor = member_one();
    let config = sponsor.cluster();
    let keys = KeySet::from_entries(config.space, &[0]).expect("key");
    let grant = sponsor.join_grant(ProcessId::new(0), keys);
    let probe = |from| Input::SyncRequest { from: ProcessId::new(from), windows: Vec::new() };
    let inputs = [
        ("Crash", Input::Crash),
        ("Restore", Input::Restore),
        ("Tick", Input::Tick),
        ("Broadcast", Input::Broadcast(7)),
        ("Reconfigure", Input::Reconfigure(config.reconfigured(config.space))),
        ("Leave", Input::Leave),
        ("Join", Input::Join(Box::new(grant))),
        ("StableFrontier", Input::StableFrontier(vec![u64::MAX; 2])),
        ("FrameReceived", Input::FrameReceived(broadcast(&mut sponsor, 9))),
        ("SyncRequest in its own name", probe(1)),
        ("SyncRequest in member 0's name", probe(0)),
        ("SyncResponse", Input::SyncResponse { messages: Vec::new(), config }),
    ];
    let watched = [
        "left",
        "crashed",
        "sent",
        "delivered",
        "config_epoch",
        "endpoint_incarnation",
        "store_retained",
    ];
    let mut stranger = Speaker::bind();
    let mut before = status(daemon.rpc);
    for (who, speaker) in [("stranger", &mut stranger), ("member", &mut member)] {
        for (name, input) in &inputs {
            let after = speaker.say(&daemon, old_step(input));
            for key in watched {
                assert_eq!(after.get(key), before.get(key), "{who}'s {name} moved {key}");
            }
            let served = u64_of(&after, "sync_served") - u64_of(&before, "sync_served");
            assert_eq!(served, 0, "{who}'s {name} as a step: sync_served");
            before = after;
        }
    }
    let probes = [(false, 0, false), (false, 1, false), (true, 0, false), (true, 1, true)];
    for (member_speaks, from, serves) in probes {
        let speaker = if member_speaks { &mut member } else { &mut stranger };
        let who = if member_speaks { "member" } else { "stranger" };
        let after = speaker.say(&daemon, encode_probe_msg(ProcessId::new(from), &[]));
        for key in watched {
            assert_eq!(after.get(key), before.get(key), "{who}'s probe as {from} moved {key}");
        }
        let served = u64_of(&after, "sync_served") - u64_of(&before, "sync_served");
        assert_eq!(served, u64::from(serves), "{who}'s probe in member {from}'s name");
        before = after;
    }
}

/// A stranger's full frame that claims member 1's next message used to
/// be delivered and to become the base for member 1's next delta, which
/// then missed its own base and was dropped.
#[test]
fn a_strangers_frame_in_a_members_name_leaves_its_chain_alone() {
    let mut member = Speaker::bind();
    let Some(daemon) = spawn_half_pair("chain-forged", Some(member.addr())) else { return };
    let (mut real, mut forger) = (member_one(), member_one());
    let mut chain = DeltaEncoder::default();
    let mut next = |speaker: &mut Speaker, payload| {
        let frame = chain.encode(&broadcast(&mut real, payload));
        speaker.say(&daemon, encode_frame_msg(&frame))
    };
    next(&mut member, 10);
    next(&mut member, 11);
    // The forger's third message has member 1's next sequence number and
    // stamp, and a payload of its own.
    for payload in [90, 91] {
        broadcast(&mut forger, payload);
    }
    let forged = wire::encode_full(&broadcast(&mut forger, 99));
    Speaker::bind().say(&daemon, encode_frame_msg(&forged));
    next(&mut member, 12);
    let after = next(&mut member, 13);
    assert_eq!(u64_of(&after, "delta_missing_base"), 0, "a member's delta lost its base");
    assert_eq!(delivered_payloads(daemon.rpc), [10, 11, 12, 13]);
}

/// The same forgery from a member: every member's chain used to feed one
/// decoder, and nothing compared a frame's sender with the member whose
/// link carried it, so member 2 could deliver a message in member 1's
/// name.
#[test]
fn a_members_frame_in_another_members_name_leaves_its_chain_alone() {
    let (mut one, mut two) = (Speaker::bind(), Speaker::bind());
    let Some((work_dir, addrs)) = prepare("chain-impostor", 3) else { return };
    let daemon = spawn_member(&work_dir, 0, 3, addrs[0], &[(1, one.addr()), (2, two.addr())]);
    let keys = KeySet::from_entries(KeySpace::vector(3).expect("space"), &[1]).expect("key");
    let member_one = || Endpoint::new(ProcessId::new(1), keys.clone(), PcbConfig::default(), None);
    let (mut real, mut forger) = (member_one(), member_one());
    let mut chain = DeltaEncoder::default();
    let mut next = |payload| {
        let frame = chain.encode(&broadcast(&mut real, payload));
        one.say(&daemon, encode_frame_msg(&frame))
    };
    next(10);
    next(11);
    for payload in [90, 91] {
        broadcast(&mut forger, payload);
    }
    let forged = wire::encode_full(&broadcast(&mut forger, 99));
    two.say(&daemon, encode_frame_msg(&forged));
    next(12);
    let after = next(13);
    assert_eq!(u64_of(&after, "delta_missing_base"), 0, "member 1's delta lost its base");
    assert_eq!(delivered_payloads(daemon.rpc), [10, 11, 12, 13]);
}

#[test]
fn live_cluster_survives_sigkill_and_recovers_from_disk() {
    let Some((addrs, mut procs)) = spawn_cluster("live") else { return };

    // The victim's delivery log dies with its process; keep a live
    // subscription so the pre-kill stream is still observable.
    let victim = 2usize;
    let (mut victim_sub, victim_backlog) = subscribe(procs[victim].rpc);

    // Phase A: everyone publishes with all three nodes up.
    for k in 0..100u32 {
        for proc in &procs {
            publish(proc.rpc, k);
        }
    }

    // The restore path below must come from a real snapshot: wait for
    // the victim to cut one (cadence is 150ms).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s = status(procs[victim].rpc);
        if s.get("snapshots_taken").and_then(Value::as_u64).unwrap_or(0) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "victim never cut a snapshot");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Phase A interleaved every node's sends with its receives, so acks
    // rode on frames. The victim's counters die with its process, and its
    // next life only receives while it catches up and sends after, so
    // whether one of its acks then finds a frame to ride on is timing.
    let s = status(procs[victim].rpc);
    assert!(u64_of(&s, "udp_acks_piggybacked") > 0, "victim: {}", s.to_json());

    // Mid-stream SIGKILL: no shutdown RPC, no flush — the WAL-before-ack
    // discipline is what must make this survivable.
    procs[victim].child.kill().expect("SIGKILL");
    let _ = procs[victim].child.wait();
    let mut victim_events_before = victim_backlog;
    victim_events_before.extend(drain_events(&mut victim_sub));
    assert!(!victim_events_before.is_empty(), "victim delivered nothing before the kill");

    // Phase B: the survivors keep publishing into the dead node's gap,
    // one burst each. Between two sends of a burst the sender delivers
    // nothing, so only its own stamp entry moves and the second frame is
    // a delta; interleaved publishes move two of the three entries, and
    // the encoder sends those frames full.
    for proc in &procs[..2] {
        for k in 100..250u32 {
            publish(proc.rpc, k);
        }
    }

    // Restart from disk: same sockets, --resume, then the restore RPC
    // (the daemon comes back crashed-deaf, like a booting process).
    let _ = std::fs::remove_file(procs[victim].state_dir.join("listen.txt"));
    let peers: Vec<(usize, SocketAddr)> =
        (0..N).filter(|j| *j != victim).map(|j| (j, addrs[j].0)).collect();
    let v = &procs[victim];
    procs[victim].child = spawn_live(&v.state_dir, v.listen, v.rpc, v.metrics, &peers, true)
        .expect("daemon respawns");
    let v = rpc(procs[victim].rpc, &Value::object([("op", Value::from("restore"))]));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "restore failed: {}", v.to_json());

    // Phase C: everyone publishes again, topping each node up to its
    // quota (1000 messages total); the victim's share is its burst.
    for k in 250..400u32 {
        publish(procs[0].rpc, k);
        publish(procs[1].rpc, k);
    }
    for k in 100..200u32 {
        publish(procs[victim].rpc, k);
    }

    // Convergence: every node must deliver both other streams in full.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = (0..N).all(|node| {
            let want: u64 = (0..N).filter(|j| *j != node).map(|j| PUBLISHES[j]).sum();
            status(procs[node].rpc).get("delivered").and_then(Value::as_u64).unwrap_or(0) >= want
        });
        if done {
            break;
        }
        assert!(Instant::now() < deadline, "cluster never converged after the restart");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The restart must have gone through the snapshot + anti-entropy
    // path, not a silent fresh start.
    let s = status(procs[victim].rpc);
    assert_eq!(
        s.get("snapshot_restores").and_then(Value::as_u64),
        Some(1),
        "victim status: {}",
        s.to_json()
    );
    assert!(
        s.get("refetched").and_then(Value::as_u64).unwrap_or(0) > 0,
        "victim refetched nothing via anti-entropy: {}",
        s.to_json()
    );
    assert_eq!(s.get("incarnation").and_then(Value::as_u64), Some(2), "victim incarnation");
    // Each survivor saw the victim's incarnation rise and renumbered its
    // send side once — a fence is not answered with a fence, so the count
    // stays at one however much traffic followed; the victim, which only
    // ever met first-incarnation peers, never did.
    for (node, proc) in procs.iter().enumerate() {
        let restarts = status(proc.rpc).get("udp_peer_restarts").and_then(Value::as_u64);
        assert_eq!(restarts, Some(u64::from(node != victim)), "node {node}");
    }
    // What the restart cost, printed to compare builds.
    let row = |node: usize, name: &str| u64_of(&status(procs[node].rpc), name);
    eprintln!(
        "restart bill: victim refetched {}, delta_missing_base {}; survivors udp_bytes_sent {} + {}",
        row(victim, "refetched"),
        row(victim, "delta_missing_base"),
        row(0, "udp_bytes_sent"),
        row(1, "udp_bytes_sent"),
    );
    // Broadcasts travelled as a delta chain, and the kill did not leave
    // it broken: a delta whose base is missing can only be one that was
    // in flight when a link was fenced — sent by the victim before it
    // noticed a survivor's give-up — and each fence is followed by a full
    // frame, so the count is bounded by what one window holds, not by how
    // long the cluster ran afterwards (the last burst, below). What the
    // survivors held for the victim went with the old epoch at its
    // restart: their chain continued frames its previous life had taken.
    for (node, proc) in procs.iter().enumerate() {
        let s = status(proc.rpc);
        let field = |name: &str| s.get(name).and_then(Value::as_u64).expect(name);
        // Every node published one burst (phase B or C), whose frames
        // after the first are deltas.
        assert!(field("frames_delta_sent") > 0, "node {node}: {}", s.to_json());
        assert!(field("delta_missing_base") <= 64, "node {node}: {}", s.to_json());
        if node != victim {
            assert!(field("udp_acks_piggybacked") > 0, "node {node}: {}", s.to_json());
        }
    }

    // Stream certification. Fresh subscriptions replay each process's
    // full in-memory delivery log; the victim's pre-kill stream comes
    // from the long-lived subscription drained above.
    let mut oracle = StreamOracle::new(N);
    for node in [0usize, 1] {
        let (mut sub, mut events) = subscribe(procs[node].rpc);
        events.extend(drain_events(&mut sub));
        for (sender, seq) in events {
            oracle.record_delivery(node, sender, seq).expect("survivor stream clean");
        }
    }
    for (sender, seq) in victim_events_before {
        oracle.record_delivery(victim, sender, seq).expect("victim pre-kill stream clean");
    }
    oracle.mark_crash(victim);
    let (mut sub, mut events) = subscribe(procs[victim].rpc);
    events.extend(drain_events(&mut sub));
    for (sender, seq) in events {
        oracle.record_delivery(victim, sender, seq).expect("victim post-restore stream clean");
    }
    oracle.certify(&PUBLISHES).expect("a delivery stream has holes");
    // Cross-incarnation redeliveries happen whenever the kill landed
    // after post-snapshot deliveries; that's timing-dependent, so it's
    // reported rather than asserted.
    eprintln!("victim redelivered {} messages across the restart", oracle.redelivered(victim));

    // Observability smoke on the converged cluster: each `/metrics` page
    // parses, agrees with the `status` reply, and both sinks carry the
    // counters that used to reach neither.
    for (node, proc) in procs.iter().enumerate() {
        let before = status(proc.rpc);
        let page = scrape(proc.metrics);
        let after = status(proc.rpc);
        pcb_telemetry::validate(&page).expect("daemon /metrics page parses");
        let sample = format!("pcb_daemon_delivered_total{{node=\"{node}\"}} ");
        let line = page.lines().find(|l| l.starts_with(&sample)).expect("delivered sample");
        let delivered: u64 = line[sample.len()..].parse().expect("integral sample");
        let bounds = [&before, &after].map(|s| s.get("delivered").and_then(Value::as_u64).unwrap());
        assert!((bounds[0]..=bounds[1]).contains(&delivered), "{line} vs status {bounds:?}");
        for key in [
            "geometry_refused",
            "left",
            "peer_unreachable",
            "sync_timeouts",
            "backoff_resets",
            "sync_served",
            "recovered",
            "gap_checks",
            "wakeups",
            "max_wake_fanout",
            "max_pending",
            "udp_decode_errors",
            "udp_coalesced_sent",
            "udp_coalesced_received",
            "udp_peer_restarts",
            "udp_oversize_refused",
            "udp_bytes_sent",
            "udp_acks_piggybacked",
            "frames_delta_sent",
            "frames_full_sent",
            "delta_missing_base",
            "store_retained",
            "frontier_lag",
        ] {
            assert!(after.get(key).is_some(), "status lacks {key}: {}", after.to_json());
            let family = format!("# TYPE pcb_daemon_{key}");
            let on_page =
                [" ", "_total "].iter().any(|end| page.contains(&format!("{family}{end}")));
            assert!(on_page, "page lacks {key}:\n{page}");
        }
    }
    let mut top = Command::new(env!("CARGO_BIN_EXE_pcb-top"));
    top.arg("--once");
    for proc in &procs {
        top.arg("--rpc").arg(proc.rpc.to_string());
    }
    let top = top.output().expect("pcb-top runs");
    let frame = String::from_utf8_lossy(&top.stdout);
    assert!(top.status.success(), "pcb-top --once failed:\n{frame}");
    for (node, proc) in procs.iter().enumerate() {
        assert!(frame.contains(&format!("{node} ({})", proc.rpc)), "no row for {node}:\n{frame}");
    }

    // The last burst: the fences re-primed both chains into the victim,
    // so every frame of it decodes there and no base goes missing again.
    let before = status(procs[victim].rpc);
    for k in 400..410u32 {
        publish(procs[0].rpc, k);
        publish(procs[1].rpc, k);
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while u64_of(&status(procs[victim].rpc), "delivered") < u64_of(&before, "delivered") + 20 {
        assert!(Instant::now() < deadline, "the victim never delivered the last burst");
        std::thread::sleep(Duration::from_millis(20));
    }
    let missing = u64_of(&status(procs[victim].rpc), "delta_missing_base");
    assert_eq!(missing, u64_of(&before, "delta_missing_base"), "a base went missing again");

    shutdown(&mut procs);
}
