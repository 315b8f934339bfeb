//! The `pcb-daemon` process shell: one protocol endpoint per OS process.
//!
//! The simulator runs the protocol inside one address space. The daemon
//! is the live shell: a standalone process owning an
//! [`Endpoint`](pcb_broadcast::Endpoint), a real [`UdpTransport`] to its
//! peers, crash-durable state on disk, and an operator surface. N
//! daemons form a localhost cluster. A broadcast leaves as the next
//! frame of this daemon's delta chain (`LiveFrames`), anti-entropy
//! probes and replies in their own byte forms
//! ([`pcb_broadcast::encode_probe`], [`pcb_broadcast::encode_reply`]),
//! both over the reliable UDP channel; applications publish and subscribe
//! over a line-delimited JSON RPC socket; Prometheus text metrics are
//! served over HTTP. `kill -9` at any moment loses nothing durable: the
//! send WAL is persisted before a broadcast's frames leave the process,
//! the snapshot on every [`Output::SnapshotReady`], and a restart with
//! `--resume` rebuilds from disk and catches up via anti-entropy.
//!
//! A daemon accepts only what its callers send. Peer traffic counts only
//! from a *member* (an address given with `--peer`; a daemon sends from
//! its `--listen` address), and a member can send four kinds of message:
//! a chain frame in its own name, a stability row, an anti-entropy probe
//! in its own name, and a reply. Anything else from anyone is dropped
//! before it is decoded or applied. The RPC plane has five ops:
//! `publish`, `subscribe`, `status`, `restore`, `shutdown`.
//!
//! Booting from the state directory ([`start_node`]) and persisting what
//! one input changed ([`persist_changes`]) are functions of their own:
//! the certification harness (`tests/equivalence.rs`) replays recorded
//! simulator runs through them, each recorded crash a restart from disk.
//!
//! The event loop is deliberately single-threaded, which keeps the
//! endpoint free of locks. The loop blocks in one `poll(2)`
//! ([`crate::ready::wait`]) until a socket is ready or the next timer is
//! due. The turn that follows reads only the sockets that wait named —
//! the UDP socket, a listener, an RPC or metrics connection — each until
//! it would block, plus any connection it accepts; the timers, and the
//! transport's retransmits, acks and deadlines, run every turn.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::Bytes;
use pcb_broadcast::endpoint::{Input, Output, RecoveryTimingUs};
use pcb_broadcast::wire::{self, checksum64};
use pcb_broadcast::{
    decode_probe, decode_reply, decode_snapshot, encode_probe, encode_reply, encode_snapshot,
    DeltaDecoder, DeltaEncoder, Endpoint, Message, MessageId, NodeSpec, PcbConfig, ProcessSnapshot,
    SeenWindows, WireError,
};
use pcb_clock::{ClusterConfig, KeySet, KeySpace, ProcessId};
use pcb_telemetry::json::{self, Value};
use pcb_telemetry::prom::{PromWriter, Row, RowKind};
use pcb_telemetry::EntryHeatmap;

use crate::ready;
use crate::udp::{UdpConfig, UdpEvent, UdpTransport};

/// Everything the binary parses from its command line.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Crash-durable state directory (`spec.bin`, `snapshot.bin`,
    /// `wal.bin`, `incarnation.bin`).
    pub state_dir: PathBuf,
    /// UDP bind address for protocol traffic.
    pub listen: SocketAddr,
    /// Rebuild from on-disk snapshot + WAL instead of starting fresh.
    pub resume: bool,
    /// Transport tuning.
    pub udp: UdpConfig,
    /// TCP address for the line-JSON RPC socket.
    pub rpc: Option<SocketAddr>,
    /// TCP address for the Prometheus text endpoint.
    pub metrics: Option<SocketAddr>,
    /// `(node index, udp address)` for every peer.
    pub peers: Vec<(u32, SocketAddr)>,
}

impl DaemonOptions {
    /// Options with everything defaulted except the two required paths.
    #[must_use]
    pub fn new(state_dir: PathBuf, listen: SocketAddr) -> Self {
        DaemonOptions {
            state_dir,
            listen,
            resume: false,
            udp: UdpConfig::default(),
            rpc: None,
            metrics: None,
            peers: Vec::new(),
        }
    }
}

// ---- transport message envelope ---------------------------------------

// A message between members is one kind byte, then its body. Kinds 0
// to 3 are retired (0 carried a step of the simulator's replay codec)
// and refuse like any other unknown kind.

/// A broadcast: one wire frame of the sender's delta chain, full or
/// delta, for the receiver's [`DeltaDecoder`].
const MSG_FRAME: u8 = 4;
/// The sender's row of the stability matrix ([`StabilityRows`]),
/// `uvar n | n × uvar`. The row names no member: it counts for whoever
/// the transport says sent it.
const MSG_ROW: u8 = 5;
/// An anti-entropy probe ([`encode_probe`]).
const MSG_PROBE: u8 = 6;
/// A reply to a probe ([`encode_reply`]).
const MSG_REPLY: u8 = 7;

/// A decoded transport frame.
#[derive(Debug)]
pub enum DaemonMsg {
    /// A broadcast: a wire frame, still encoded — a delta only means
    /// something to the decoder that holds its base.
    Frame(Bytes),
    /// A peer's row of the stability matrix, per sender index.
    Row(Vec<u64>),
    /// An anti-entropy probe: the member it claims to come from, and
    /// that member's dedup windows.
    Probe(ProcessId, SeenWindows),
    /// A reply to a probe: the replier's configuration, and the messages
    /// the prober was missing, oldest first.
    Reply(ClusterConfig, Vec<Message<u32>>),
}

/// Encodes this member's anti-entropy probe.
#[must_use]
pub fn encode_probe_msg(from: ProcessId, windows: &[(ProcessId, u64, Vec<u64>)]) -> Bytes {
    let mut out = vec![MSG_PROBE];
    encode_probe(&mut out, from, windows);
    Bytes::from(out)
}

/// Encodes a reply to a probe.
#[must_use]
fn encode_reply_msg(config: &ClusterConfig, messages: &[Message<u32>]) -> Bytes {
    let mut out = vec![MSG_REPLY];
    encode_reply(&mut out, config, messages);
    Bytes::from(out)
}

/// The message a member sends for `input`: a received frame as a full
/// chain frame, a probe, or a reply. Kept for the benchmark (`ledger/`),
/// which sizes the frames it makes.
///
/// # Panics
///
/// On any other input: no member ever sends one.
#[must_use]
pub fn encode_pcb_msg(input: &Input<u32>) -> Bytes {
    match input {
        Input::FrameReceived(message) => encode_frame_msg(&wire::encode_full(message)),
        Input::SyncRequest { from, windows } => encode_probe_msg(*from, windows),
        Input::SyncResponse { messages, config } => encode_reply_msg(config, messages),
        other => panic!("no member sends {other:?}"),
    }
}

/// Wraps one wire frame of a delta chain: the kind byte, nothing
/// else — the frame carries its own checksum.
#[must_use]
pub fn encode_frame_msg(wire: &Bytes) -> Bytes {
    let mut out = Vec::with_capacity(1 + wire.len());
    out.push(MSG_FRAME);
    out.extend_from_slice(wire);
    Bytes::from(out)
}

/// Encodes this member's row of the stability matrix.
#[must_use]
pub fn encode_row_msg(row: &[u64]) -> Bytes {
    let mut out = Vec::with_capacity(2 + 3 * row.len());
    out.push(MSG_ROW);
    wire::put_uvar(&mut out, row.len() as u64);
    for &seq in row {
        wire::put_uvar(&mut out, seq);
    }
    Bytes::from(out)
}

/// `uvar n | n × uvar` and nothing after: a count the bytes cannot hold
/// (every entry takes at least one) is refused before anything is
/// allocated for it.
fn decode_row(mut cur: &[u8]) -> Result<Vec<u64>, WireError> {
    let len = wire::take_uvar(&mut cur)?;
    if len > cur.len() as u64 {
        return Err(WireError::Truncated);
    }
    let row = (0..len).map(|_| wire::take_uvar(&mut cur)).collect::<Result<Vec<u64>, _>>()?;
    wire::finish(cur).map(|()| row)
}

/// Decodes a message from a member: a chain frame, a row, a probe or a
/// reply.
///
/// # Errors
///
/// [`WireError`] on malformed bytes, and [`WireError::BadVersion`]
/// naming any other kind byte; never panics.
pub fn decode_msg(frame: &Bytes) -> Result<DaemonMsg, WireError> {
    let (&kind, rest) = frame.split_first().ok_or(WireError::Truncated)?;
    match kind {
        MSG_FRAME => Ok(DaemonMsg::Frame(frame.slice(1..))),
        MSG_ROW => decode_row(rest).map(DaemonMsg::Row),
        MSG_PROBE => decode_probe(rest).map(|(from, windows)| DaemonMsg::Probe(from, windows)),
        MSG_REPLY => decode_reply(&frame.slice(1..))
            .map(|(config, messages)| DaemonMsg::Reply(config, messages)),
        other => Err(WireError::BadVersion(other)),
    }
}

// ---- live delta chain --------------------------------------------------

/// Counters of the live frame path, rows of the daemon's report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChainStats {
    /// Broadcast frames sent to a peer as a delta against the one before.
    deltas_sent: u64,
    /// Broadcast frames sent to a peer standing alone.
    fulls_sent: u64,
    /// Received deltas dropped because their base never arrived here.
    missing_base: u64,
}

/// Live broadcasts on the wire: this daemon's own delta chain going out,
/// every peer's coming in.
///
/// The transport's per-peer channel is reliable and in order, which is
/// exactly what a chain needs: the base of a delta is the frame sent
/// just before it. That holds until the transport fences a link
/// ([`UdpEvent::Fenced`]) — frames were abandoned, at a give-up or
/// because a restarted peer lost their base — so the next frame to that
/// peer stands alone; the one encoder never has to know, because a full
/// frame of message `n` seeds the same base the delta of `n` would have
/// left. Nothing else restarts a chain: a link that is never fenced
/// carries one full frame, its first. A delta that arrives without its
/// base is dropped and counted; anti-entropy, whose replies are
/// self-contained lists, fetches the message.
///
/// Each member's chain has a decoder of its own, and a frame counts only
/// in its sender's name: a daemon's chain carries nothing but its own
/// broadcasts, so a member's frame naming another sender is forged.
///
/// The decoders are these, not the endpoint's own
/// ([`Endpoint::handle_wire`]), because that one would change what a
/// frame does. A crashed endpoint drops a frame there before the codec
/// sees it, and a `--resume`d daemon stays crashed until its `restore`
/// RPC, so the full frame a survivor sends after the fence could be lost
/// and every delta behind it would miss its base. And `handle_wire`
/// stores a frame from its arrival, where the daemon stores it on
/// delivery.
#[derive(Debug, Default)]
struct LiveFrames {
    encoder: DeltaEncoder,
    /// Per member index, the decoder of that member's chain.
    decoders: Vec<DeltaDecoder<u32>>,
    /// Peers whose link was fenced since the last broadcast.
    restart: Vec<SocketAddr>,
    stats: ChainStats,
}

impl LiveFrames {
    /// Hands `send` the frame that carries `message` to each of `peers`
    /// (every peer this daemon broadcasts to): the chain's next frame,
    /// or a full frame for a peer whose link was fenced.
    fn outgoing(
        &mut self,
        message: &Message<u32>,
        peers: impl Iterator<Item = SocketAddr>,
        mut send: impl FnMut(SocketAddr, Bytes),
    ) {
        let deltas_before = self.encoder.deltas_emitted();
        let chained = encode_frame_msg(&self.encoder.encode(message));
        let is_delta = self.encoder.deltas_emitted() > deltas_before;
        let mut full = None;
        for peer in peers {
            if is_delta && self.restart.contains(&peer) {
                self.stats.fulls_sent += 1;
                let full = full
                    .get_or_insert_with(|| encode_frame_msg(&wire::encode_full(message)))
                    .clone();
                send(peer, full);
            } else {
                if is_delta {
                    self.stats.deltas_sent += 1;
                } else {
                    self.stats.fulls_sent += 1;
                }
                send(peer, chained.clone());
            }
        }
        self.restart.clear();
    }

    /// Decodes a frame of `member`'s chain; `None` for one that cannot be
    /// used, or that claims another sender.
    fn incoming(&mut self, member: usize, frame: Bytes) -> Option<Message<u32>> {
        if self.decoders.len() <= member {
            self.decoders.resize_with(member + 1, DeltaDecoder::default);
        }
        match self.decoders[member].decode(frame) {
            Ok(message) if message.id().sender().index() == member => Some(message),
            Ok(_) => None,
            Err(WireError::MissingDeltaBase { .. }) => {
                self.stats.missing_base += 1;
                None
            }
            Err(_) => None,
        }
    }

    /// The transport fenced the link to `peer`.
    fn fenced(&mut self, peer: SocketAddr) {
        if !self.restart.contains(&peer) {
            self.restart.push(peer);
        }
    }
}

// ---- durable stability frontier ---------------------------------------

/// What every member has made durable, as an `n × n` matrix: row `m`,
/// entry `s` is the prefix of sender `s`'s messages that member `m`'s
/// last *persisted* snapshot holds as delivered — Drummond & Barbosa's
/// matrix clock, restricted to durable state. A member restarts from a
/// snapshot at least as new as any row it sent, so a message at or below
/// [`StabilityRows::frontier`] is one no member can ever ask for again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilityRows {
    rows: Vec<Vec<u64>>,
}

impl StabilityRows {
    /// All zeros for an `n`-member cluster: nothing is stable until
    /// every member has reported.
    #[must_use]
    pub fn new(n: usize) -> Self {
        StabilityRows { rows: vec![vec![0; n]; n] }
    }

    /// Raises `member`'s row entry by entry to `row` — rows only ever
    /// rise, so a reordered or replayed report cannot lower one. Returns
    /// whether any entry rose: only then can [`Self::frontier`] have
    /// moved. Refused (`false`, nothing changes) unless `member` is a
    /// member and `row` has one entry per member.
    pub fn merge(&mut self, member: usize, row: &[u64]) -> bool {
        let n = self.rows.len();
        match self.rows.get_mut(member) {
            Some(held) if row.len() == n => {
                let mut rose = false;
                for (held, &offered) in held.iter_mut().zip(row) {
                    rose |= offered > *held;
                    *held = (*held).max(offered);
                }
                rose
            }
            _ => false,
        }
    }

    /// `member`'s row as held here.
    #[must_use]
    pub fn row(&self, member: usize) -> Option<&[u64]> {
        self.rows.get(member).map(Vec::as_slice)
    }

    /// Per sender, the least entry over every member's row; a member not
    /// heard from yet holds it at 0.
    #[must_use]
    pub fn frontier(&self) -> Vec<u64> {
        (0..self.rows.len())
            .map(|sender| self.rows.iter().map(|row| row[sender]).min().unwrap_or(0))
            .collect()
    }
}

/// A snapshot's row: per sender index below `n`, the contiguous prefix of
/// its seen windows, own sends included. A snapshot takes still-pending
/// messages out of `seen`, so the row claims deliveries only.
fn snapshot_row(snapshot: &ProcessSnapshot<u32>, n: usize) -> Vec<u64> {
    let mut row = vec![0; n];
    for (sender, prefix, _) in &snapshot.seen {
        if let Some(slot) = row.get_mut(sender.index()) {
            *slot = *prefix;
        }
    }
    row
}

// ---- the incarnation's delivery stream ---------------------------------

/// One delivery as the `subscribe` stream reports it: id, the two alert
/// flags, payload.
type Digest = (MessageId, bool, bool, u32);

/// Bytes of one [`DeliveredLog`] record: sender `u32`, seq `u64`, payload
/// `u32`, flags `u8`, little endian.
const DIGEST_BYTES: usize = 17;

/// This incarnation's delivery stream, paged to `delivered.bin` in the
/// state directory rather than held in memory, for `subscribe` to replay
/// in full. The file is truncated at boot: a stream spans one
/// incarnation, and the one before it died with its process.
#[derive(Debug)]
struct DeliveredLog {
    path: PathBuf,
    file: BufWriter<File>,
    records: u64,
    /// A write failed: the log stops there, and says so once.
    broken: bool,
}

impl DeliveredLog {
    fn create(dir: &Path) -> std::io::Result<Self> {
        let path = dir.join("delivered.bin");
        let file = BufWriter::new(File::create(&path)?);
        Ok(DeliveredLog { path, file, records: 0, broken: false })
    }

    fn push(&mut self, (id, instant, recent, payload): Digest) {
        if self.broken {
            return;
        }
        let mut record = [0u8; DIGEST_BYTES];
        record[..4].copy_from_slice(&id.sender().index_u32().to_le_bytes());
        record[4..12].copy_from_slice(&id.seq().to_le_bytes());
        record[12..16].copy_from_slice(&payload.to_le_bytes());
        record[16] = u8::from(instant) | u8::from(recent) << 1;
        match self.file.write_all(&record) {
            Ok(()) => self.records += 1,
            Err(e) => {
                eprintln!(
                    "pcb-daemon: delivery log write failed, later deliveries not replayed: {e}"
                );
                self.broken = true;
            }
        }
    }

    /// Hands `each` every delivery this incarnation logged, in order.
    fn replay(&mut self, mut each: impl FnMut(Digest)) -> std::io::Result<()> {
        self.file.flush()?;
        let mut reader = BufReader::new(File::open(&self.path)?);
        let mut record = [0u8; DIGEST_BYTES];
        for _ in 0..self.records {
            reader.read_exact(&mut record)?;
            let sender = u32::from_le_bytes(record[..4].try_into().expect("4 bytes"));
            let seq = u64::from_le_bytes(record[4..12].try_into().expect("8 bytes"));
            let payload = u32::from_le_bytes(record[12..16].try_into().expect("4 bytes"));
            let id = MessageId::new(ProcessId::new(sender as usize), seq);
            each((id, record[16] & 1 != 0, record[16] & 2 != 0, payload));
        }
        Ok(())
    }
}

// ---- crash-durable state directory ------------------------------------

/// Writes `bytes` to `path` atomically (temp file + rename), fsyncing
/// the data file and then the directory that holds the new name, so a
/// crash right after the ack can lose neither the bytes nor the rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let parent = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(parent.unwrap_or(Path::new(".")))?.sync_all()
}

/// The `wal.bin` layout: `u8 2 | u64 durable_seq | u64 checksum`, the
/// checksum over the first nine bytes. Version 1 was the same record
/// without the version byte (16 bytes); it refuses by name.
const WAL_VERSION: u8 = 2;
const WAL_LEN: usize = 17;

/// Persists the send-WAL high-water mark (versioned, checksummed `u64`)
/// by rewriting `wal.bin` in place: one write of the whole record at
/// offset 0, then `fdatasync`. The record never changes length, so that
/// flushes the one data block and no metadata; only the call that
/// creates the file also syncs the directory that names it. A SIGKILL
/// cannot tear the page cache, so a crash leaves the old mark or the new
/// one; a power loss that tears the one sector-sized write anyway leaves
/// a record whose checksum refuses by name on `--resume`, never a mark
/// silently lower than a height that left.
///
/// # Errors
///
/// Filesystem errors, naming the file.
pub fn save_wal(dir: &Path, durable_seq: u64) -> std::io::Result<()> {
    let mut out = [0u8; WAL_LEN];
    out[0] = WAL_VERSION;
    out[1..9].copy_from_slice(&durable_seq.to_le_bytes());
    let sum = checksum64(&out[..9]);
    out[9..].copy_from_slice(&sum.to_le_bytes());
    let path = dir.join("wal.bin");
    let named = |e| at_path(&path, e);
    let (file, created) = match File::options().write(true).open(&path) {
        Ok(file) => (file, false),
        Err(e) if e.kind() == ErrorKind::NotFound => {
            (File::options().write(true).create_new(true).open(&path).map_err(named)?, true)
        }
        Err(e) => return Err(named(e)),
    };
    file.write_all_at(&out, 0).and_then(|()| file.sync_data()).map_err(named)?;
    if created {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        File::open(dir).and_then(|d| d.sync_all()).map_err(named)?;
    }
    Ok(())
}

/// Reads a state file; `Ok(None)` only if it does not exist.
fn read_state(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// `e`, naming the state file it happened to.
fn at_path(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// The error for a state file that exists but does not hold what this
/// daemon wrote: booting past it would restart from genesis and reissue
/// stamp heights, so every loader refuses instead.
fn corrupt(path: &Path, why: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, format!("{}: {why}", path.display()))
}

/// Loads the send-WAL high-water mark; `Ok(None)` if there is none yet.
///
/// # Errors
///
/// Filesystem errors, or `InvalidData` naming the file when it holds
/// another WAL version, has the wrong length or a bad checksum.
fn load_wal(dir: &Path) -> std::io::Result<Option<u64>> {
    let path = dir.join("wal.bin");
    let Some(bytes) = read_state(&path)? else { return Ok(None) };
    let version = match bytes.len() {
        16 => 1,
        WAL_LEN => bytes[0],
        len => return Err(corrupt(&path, format!("{len} bytes is no WAL record"))),
    };
    if version != WAL_VERSION {
        return Err(corrupt(&path, format!("unsupported WAL version {version}")));
    }
    let value = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
    let sum = u64::from_le_bytes(bytes[9..].try_into().expect("8 bytes"));
    if checksum64(&bytes[..9]) != sum {
        return Err(corrupt(&path, "checksum mismatch"));
    }
    Ok(Some(value))
}

/// Persists the endpoint's stable snapshot.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_snapshot(dir: &Path, snapshot: &ProcessSnapshot<u32>) -> std::io::Result<()> {
    let blob = encode_snapshot(snapshot);
    write_atomic(&dir.join("snapshot.bin"), &blob)
}

/// Loads the stable snapshot; `Ok(None)` if none was ever cut (the node
/// then starts from genesis + WAL replay + anti-entropy).
///
/// # Errors
///
/// Filesystem errors, or `InvalidData` naming the file when the
/// checksummed snapshot codec refuses it.
pub fn load_snapshot(dir: &Path) -> std::io::Result<Option<ProcessSnapshot<u32>>> {
    let path = dir.join("snapshot.bin");
    let Some(bytes) = read_state(&path)? else { return Ok(None) };
    decode_snapshot(Bytes::from(bytes)).map(Some).map_err(|e| corrupt(&path, e))
}

/// Reads, increments, and persists the boot counter. The incarnation
/// feeds the transport's epoch base, so a restarted daemon's datagrams
/// are never confused with its previous life's.
///
/// # Errors
///
/// Filesystem errors, or `InvalidData` naming the file when an existing
/// counter is not 8 bytes.
fn bump_incarnation(dir: &Path) -> std::io::Result<u64> {
    let path = dir.join("incarnation.bin");
    let prev = match read_state(&path)? {
        None => 0,
        Some(bytes) => u64::from_le_bytes(
            bytes.try_into().map_err(|_| corrupt(&path, "not an 8-byte counter"))?,
        ),
    };
    let next = prev + 1;
    write_atomic(&path, &next.to_le_bytes())?;
    Ok(next)
}

/// Writes the node spec the daemon will construct its endpoint from, as
/// `spec.bin`: little-endian `u32 node | u32 n | u32 R | u32 K | u128
/// set_id | u8 1 | u8 has_recent | u64 recent_window | u8 1 | u64
/// trace_capacity | u8 estimators | 5 × u64 timing`. The two `1` bytes
/// are reserved: they once carried `detect_instant` and `dedup`, and are
/// ignored on read.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_spec(dir: &Path, spec: &NodeSpec) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(104);
    let (space, config, timing) = (spec.keys.space(), &spec.pcb_config, &spec.timing);
    for word in [spec.node, spec.n, space.r() as u32, space.k() as u32] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&spec.keys.set_id().to_le_bytes());
    out.extend_from_slice(&[1, u8::from(config.recent_window.is_some())]);
    out.extend_from_slice(&config.recent_window.unwrap_or(0).to_le_bytes());
    out.push(1);
    out.extend_from_slice(&(config.trace_capacity as u64).to_le_bytes());
    out.push(u8::from(config.estimators));
    for v in [
        timing.stale_after_us,
        timing.poll_every_us,
        timing.store_window_us,
        timing.snapshot_every_us,
        timing.sync_timeout_us,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    write_atomic(&dir.join("spec.bin"), &out)
}

/// Loads the node spec [`save_spec`] wrote.
///
/// # Errors
///
/// IO errors, or `InvalidData` naming the file when it does not hold a
/// spec with a valid key set.
fn load_spec(dir: &Path) -> std::io::Result<NodeSpec> {
    let path = dir.join("spec.bin");
    decode_spec(&std::fs::read(&path)?).map_err(|e| corrupt(&path, e))
}

fn decode_spec(mut cur: &[u8]) -> Result<NodeSpec, WireError> {
    let cur = &mut cur;
    let u8_at = |cur: &mut &[u8]| wire::take_array(cur).map(u8::from_le_bytes);
    let u32_at = |cur: &mut &[u8]| wire::take_array(cur).map(u32::from_le_bytes);
    let u64_at = |cur: &mut &[u8]| wire::take_array(cur).map(u64::from_le_bytes);
    let (node, n, r, k) = (u32_at(cur)?, u32_at(cur)?, u32_at(cur)?, u32_at(cur)?);
    let set_id = u128::from_le_bytes(wire::take_array(cur)?);
    let bad_keys = |e: pcb_clock::KeyError| WireError::BadKeys(e.to_string());
    let space = KeySpace::new(r as usize, k as usize).map_err(bad_keys)?;
    let keys = KeySet::from_set_id(space, set_id).map_err(bad_keys)?;
    u8_at(cur)?; // reserved
    let has_recent = u8_at(cur)? != 0;
    let recent_window = u64_at(cur)?;
    u8_at(cur)?; // reserved
    let trace_capacity = u64_at(cur)? as usize;
    let estimators = u8_at(cur)? != 0;
    let timing = RecoveryTimingUs {
        stale_after_us: u64_at(cur)?,
        poll_every_us: u64_at(cur)?,
        store_window_us: u64_at(cur)?,
        snapshot_every_us: u64_at(cur)?,
        sync_timeout_us: u64_at(cur)?,
    };
    wire::finish(cur)?;
    let recent_window = has_recent.then_some(recent_window);
    let pcb_config = PcbConfig { recent_window, trace_capacity, estimators };
    Ok(NodeSpec { node, n, keys, pcb_config, timing })
}

// ---- the shared start-up and persist steps ------------------------------

/// Boots a node from its state directory: the spec in `spec.bin`, the
/// next boot counter, and an endpoint. Without `resume` the endpoint is
/// fresh, and a `wal.bin` left by an earlier life is removed: the fresh
/// node's first publish creates its own, of the one length
/// [`save_wal`] rewrites in place. With `resume` the endpoint is
/// rebuilt from `snapshot.bin` + `wal.bin` and
/// starts crashed, recovering when it is fed [`Input::Restore`]. Every
/// boot after the first is such a restore, so a resumed endpoint counts
/// one restore fewer than the lives before this boot: the pending
/// `Restore` adds it, exactly as an in-process restore does.
///
/// # Errors
///
/// Filesystem errors; with `resume`, `InvalidData` naming a state file
/// that exists but is corrupt — booting past it would restart from
/// genesis and reissue stamp heights.
pub fn start_node(dir: &Path, resume: bool) -> std::io::Result<(NodeSpec, u64, Endpoint<u32>)> {
    let spec = load_spec(dir)?;
    let incarnation = bump_incarnation(dir)?;
    let (id, keys, config) =
        (ProcessId::new(spec.node as usize), spec.keys.clone(), spec.pcb_config.clone());
    let endpoint = if resume {
        let stable = load_snapshot(dir)?;
        let durable = load_wal(dir)?.unwrap_or(0);
        let mut endpoint = Endpoint::resume(id, keys, config, Some(spec.timing), stable, durable);
        endpoint.set_incarnation(incarnation.saturating_sub(2));
        endpoint
    } else {
        let wal = dir.join("wal.bin");
        match std::fs::remove_file(&wal) {
            Err(e) if e.kind() != ErrorKind::NotFound => return Err(at_path(&wal, e)),
            _ => {}
        }
        Endpoint::new(id, keys, config, Some(spec.timing))
    };
    Ok((spec, incarnation, endpoint))
}

/// Persists what one `handle` call changed: the send-WAL mark once it
/// moved past `*last_durable`, the stable snapshot when `outputs`
/// announce a new one. A shell runs this before it routes any send
/// effect: that order is what makes a SIGKILL at any point equivalent to
/// the simulator's crash model. Returns whether a new snapshot reached
/// the disk. A failed snapshot write is a warning — no send waits on it.
///
/// # Errors
///
/// A failed WAL write, naming `wal.bin`. The shell must then stop
/// before any of `outputs` leaves: a height it stamped is durable
/// nowhere, and only while it never left the process may a `--resume`
/// issue it again.
pub fn persist_changes(
    dir: &Path,
    endpoint: &Endpoint<u32>,
    last_durable: &mut u64,
    outputs: &[Output<u32>],
) -> std::io::Result<bool> {
    if endpoint.durable_seq() != *last_durable {
        save_wal(dir, endpoint.durable_seq())?;
        *last_durable = endpoint.durable_seq();
    }
    if !outputs.iter().any(|o| matches!(o, Output::SnapshotReady { .. })) {
        return Ok(false);
    }
    let Some(snapshot) = endpoint.stable_snapshot() else { return Ok(false) };
    match save_snapshot(dir, snapshot) {
        Ok(()) => Ok(true),
        Err(e) => {
            eprintln!("pcb-daemon: snapshot write failed: {e}");
            Ok(false)
        }
    }
}

// ---- the daemon itself ------------------------------------------------

/// One running daemon: endpoint + transport + durable state + operators.
struct Daemon {
    opts: DaemonOptions,
    spec: NodeSpec,
    incarnation: u64,
    endpoint: Endpoint<u32>,
    transport: UdpTransport,
    frames: LiveFrames,
    /// Index → address for routing.
    peer_addrs: Vec<Option<SocketAddr>>,
    /// Every member's durable row, this daemon's own included.
    rows: StabilityRows,
    /// A row rose since the frontier was last computed.
    rows_rose: bool,
    /// The frontier last handed to the endpoint.
    frontier: Vec<u64>,
    sync_round: u64,
    last_durable: u64,
    next_tick_us: u64,
    started: Instant,
    delivered_log: DeliveredLog,
    /// Delivery event lines awaiting fan-out to subscribers.
    event_queue: Vec<String>,
    rpc: RpcTotals,
    shutdown: bool,
}

/// Runs a daemon until the `shutdown` RPC or a kill.
///
/// # Errors
///
/// Propagates startup IO failures (bad state dir, bind failures); with
/// `resume`, a state file that exists but is corrupt refuses the start
/// before any socket is bound. A failed WAL write stops the daemon
/// before the turn's frames leave ([`persist_changes`]). Loop errors on
/// individual connections are absorbed, not fatal.
pub fn run(opts: DaemonOptions) -> std::io::Result<()> {
    let (spec, incarnation, endpoint) = start_node(&opts.state_dir, opts.resume)?;
    let transport = UdpTransport::bind(opts.listen, incarnation, opts.udp.clone(), 0)?;
    // Publish the bound address (port 0 resolves at bind time) so
    // whoever spawned us can find the socket.
    let bound = transport.local_addr()?;
    write_atomic(&opts.state_dir.join("listen.txt"), bound.to_string().as_bytes())?;
    let mut peer_addrs = vec![None; spec.n as usize];
    for (idx, addr) in &opts.peers {
        if let Some(slot) = peer_addrs.get_mut(*idx as usize) {
            *slot = Some(*addr);
        }
    }
    let delivered_log = DeliveredLog::create(&opts.state_dir)?;
    let mut daemon = Daemon {
        opts,
        rows: StabilityRows::new(spec.n as usize),
        rows_rose: true,
        spec,
        incarnation,
        last_durable: endpoint.durable_seq(),
        endpoint,
        transport,
        frames: LiveFrames::default(),
        peer_addrs,
        frontier: Vec::new(),
        sync_round: 0,
        next_tick_us: 0,
        started: Instant::now(),
        delivered_log,
        event_queue: Vec::new(),
        rpc: RpcTotals::default(),
        shutdown: false,
    };
    daemon.run_live()
}

impl Daemon {
    fn wall_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Cluster members this daemon can route to: peers with a known
    /// address, plus itself.
    fn members(&self) -> usize {
        self.peer_addrs.iter().flatten().count() + 1
    }

    /// Microseconds on a clock that survives restarts and is shared by
    /// every daemon on the host — the cluster's protocol clock.
    fn live_now_us() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    fn run_live(&mut self) -> std::io::Result<()> {
        let rpc_listener = match self.opts.rpc {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_listener = match self.opts.metrics {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let mut conns: Vec<RpcConn> = Vec::new();
        let mut scrapes: Vec<RpcConn> = Vec::new();
        let mut events = Vec::new();
        // What the last wait named: the UDP socket, then each listener.
        // The first turn reads everything.
        let mut readable = [true; 3];

        // Kick the protocol timers: the first Tick arms the endpoint's
        // own schedule; afterwards we obey its ScheduleTick outputs with
        // a poll-cadence floor as a backstop.
        self.apply_live(Input::Tick)?;

        while !self.shutdown {
            let wall = self.wall_us();
            let now = Self::live_now_us();

            self.transport.poll_ready_into(wall, readable[0], &mut events);
            for event in events.drain(..) {
                match event {
                    UdpEvent::Frame { from, frame } => {
                        // Peer traffic counts only from a member's
                        // address; a stranger's is not even decoded.
                        let Some(member) = self.member_at(from) else { continue };
                        match decode_msg(&frame) {
                            // A probe counts only in its sender's own name.
                            Ok(DaemonMsg::Probe(from, windows)) if from.index() == member => {
                                self.apply_live(Input::SyncRequest { from, windows })?;
                            }
                            Ok(DaemonMsg::Reply(config, messages)) => {
                                self.apply_live(Input::SyncResponse { messages, config })?;
                            }
                            Ok(DaemonMsg::Frame(wire)) => {
                                if let Some(message) = self.frames.incoming(member, wire) {
                                    self.apply_live(Input::FrameReceived(message))?;
                                }
                            }
                            Ok(DaemonMsg::Row(row)) => {
                                self.rows_rose |= self.rows.merge(member, &row);
                            }
                            Ok(DaemonMsg::Probe(..)) | Err(_) => {}
                        }
                    }
                    UdpEvent::Fenced(peer) if self.member_at(peer).is_some() => {
                        self.frames.fenced(peer);
                        // The peer may have restarted and forgotten every
                        // row; ours may not change again for a long while.
                        self.send_row(peer);
                    }
                    UdpEvent::Fenced(_) => {}
                }
            }

            if now >= self.next_tick_us {
                self.apply_live(Input::Tick)?;
            }
            if std::mem::take(&mut self.rows_rose) {
                let frontier = self.rows.frontier();
                if frontier != self.frontier {
                    self.frontier.clone_from(&frontier);
                    self.apply_live(Input::StableFrontier(frontier))?;
                }
            }

            if let Some(listener) = rpc_listener.as_ref().filter(|_| readable[1]) {
                while let Ok((stream, _)) = listener.accept() {
                    // Turns follow each other as fast as traffic comes, so
                    // two writes to one connection inside the client's
                    // delayed-ACK interval are the normal case; under
                    // Nagle the second would wait for that ACK.
                    if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                        conns.push(RpcConn::new(stream));
                    }
                }
            }
            self.pump_rpc(&mut conns)?;

            // Fan delivery events out to subscribers (deliveries can
            // originate from UDP traffic, ticks, or RPC publishes alike).
            for line in std::mem::take(&mut self.event_queue) {
                for conn in conns.iter_mut().filter(|c| c.subscribed) {
                    conn.push_line(&line);
                }
            }
            // Frames before replies: a publish is acknowledged only once
            // its frames have left the process, so a SIGKILL after the
            // ack cannot strand a WAL'd height no peer ever received.
            self.transport.flush(self.wall_us());
            // One write per connection per turn, replies and events
            // together: one segment where there would be several.
            conns.retain_mut(|conn| conn.flush(&mut self.rpc));

            // A scrape is a connection of the same non-blocking kind,
            // answered once its request line is in and closed once the
            // answer is out: a client that sends nothing holds no turn.
            if let Some(listener) = metrics_listener.as_ref().filter(|_| readable[2]) {
                while let Ok((stream, _)) = listener.accept() {
                    if stream.set_nonblocking(true).is_ok() {
                        scrapes.push(RpcConn::new(stream));
                    }
                }
            }
            // Scrapes are not the RPC plane: their bytes are not counted.
            let mut uncounted = RpcTotals::default();
            for scrape in scrapes.iter_mut().filter(|s| s.readable) {
                scrape.fill(&mut uncounted);
                if !scrape.closing && scrape.inbuf.contains(&b'\n') {
                    scrape.outbuf.extend(http_page(&self.metrics_text()).as_bytes());
                    scrape.closing = true;
                }
            }
            scrapes.retain_mut(|scrape| scrape.flush(&mut uncounted));

            readable =
                self.wait_for_work([&rpc_listener, &metrics_listener], &mut conns, &mut scrapes)?;
        }
        Ok(())
    }

    /// Blocks until a socket needs the loop — a datagram, a connection
    /// to accept, a request line, room to write a connection's pending
    /// output — or the next protocol tick or transport deadline is due.
    /// Marks each connection readable or not, and returns whether the
    /// UDP socket and each listener are.
    fn wait_for_work(
        &self,
        listeners: [&Option<TcpListener>; 2],
        conns: &mut [RpcConn],
        scrapes: &mut [RpcConn],
    ) -> std::io::Result<[bool; 3]> {
        let tick_in = self.next_tick_us.saturating_sub(Self::live_now_us());
        let wall = self.wall_us();
        let udp_in =
            self.transport.next_deadline_us().map_or(u64::MAX, |at| at.saturating_sub(wall));
        // An absent listener keeps its slot with a descriptor `poll` skips.
        let fds = std::iter::once((self.transport.as_raw_fd(), false))
            .chain(listeners.map(|l| (l.as_ref().map_or(-1, AsRawFd::as_raw_fd), false)))
            .chain(
                conns.iter().chain(&*scrapes).map(|c| (c.stream.as_raw_fd(), !c.outbuf.is_empty())),
            );
        let readable = ready::wait(fds, Some(Duration::from_micros(tick_in.min(udp_in))))?;
        for (conn, &named) in conns.iter_mut().chain(scrapes).zip(&readable[3..]) {
            conn.readable = named;
        }
        Ok([readable[0], readable[1], readable[2]])
    }

    /// Feeds one input to the endpoint at live time and routes every
    /// output: WAL before wire, frames to peers, deliveries to
    /// subscribers, snapshots to disk, ticks to the timer. A failed WAL
    /// write returns before anything is routed.
    fn apply_live(&mut self, input: Input<u32>) -> std::io::Result<()> {
        let now = Self::live_now_us();
        let outputs = self.endpoint.handle(input, now);
        if persist_changes(&self.opts.state_dir, &self.endpoint, &mut self.last_durable, &outputs)?
        {
            self.report_row();
        }
        // Backstop cadence: never sleep past half a poll interval.
        self.next_tick_us = now + self.spec.timing.poll_every_us.max(2) / 2;
        for output in outputs {
            match output {
                Output::Deliver(d) => {
                    let payload = *d.message.payload();
                    let digest = (d.message.id(), d.instant_alert, d.recent_alert, payload);
                    self.delivered_log.push(digest);
                    self.event_queue.push(deliver_event(digest).to_json());
                }
                Output::SendFrame(message) => {
                    let wall = self.wall_us();
                    let peers = self.peer_addrs.iter().flatten().copied();
                    self.frames.outgoing(&message, peers, |to, frame| {
                        self.transport.send(to, frame, wall)
                    });
                }
                Output::RequestSync { windows } => {
                    let n = self.spec.n as usize;
                    if n > 1 {
                        // Same deterministic rotation the simulator uses.
                        let offset = 1 + (self.sync_round as usize % (n - 1));
                        self.sync_round += 1;
                        let target = (self.spec.node as usize + offset) % n;
                        if let Some(addr) = self.peer_addrs[target] {
                            let from = ProcessId::new(self.spec.node as usize);
                            let msg = encode_probe_msg(from, &windows);
                            let wall = self.wall_us();
                            self.transport.send(addr, msg, wall);
                        }
                    }
                }
                Output::SyncReply { to, messages, config } => {
                    if let Some(addr) = self.peer_addrs.get(to.index()).copied().flatten() {
                        let msg = encode_reply_msg(&config, &messages);
                        let wall = self.wall_us();
                        self.transport.send(addr, msg, wall);
                    }
                }
                Output::ScheduleTick { at_us } => {
                    self.next_tick_us = self.next_tick_us.min(at_us);
                }
                Output::Alert { .. } | Output::SnapshotReady { .. } => {}
            }
        }
        Ok(())
    }

    /// A snapshot just reached the disk: its row becomes this member's,
    /// and every peer hears it if it rose. Only now — a restart resumes
    /// from that snapshot or a later one, never from less than it claims.
    fn report_row(&mut self) {
        let Some(snapshot) = self.endpoint.stable_snapshot() else { return };
        let row = snapshot_row(snapshot, self.spec.n as usize);
        if !self.rows.merge(self.spec.node as usize, &row) {
            return;
        }
        self.rows_rose = true;
        for peer in self.peer_addrs.clone().into_iter().flatten() {
            self.send_row(peer);
        }
    }

    /// Sends this member's row to `peer` over the reliable link.
    fn send_row(&mut self, peer: SocketAddr) {
        let Some(row) = self.rows.row(self.spec.node as usize) else { return };
        let msg = encode_row_msg(row);
        let wall = self.wall_us();
        self.transport.send(peer, msg, wall);
    }

    /// The member whose transport address is `addr`.
    fn member_at(&self, addr: SocketAddr) -> Option<usize> {
        self.peer_addrs.iter().position(|peer| *peer == Some(addr))
    }

    /// Reads every readable connection and queues the answer to each
    /// complete request line; the turn's single flush sends them.
    fn pump_rpc(&mut self, conns: &mut [RpcConn]) -> std::io::Result<()> {
        for conn in conns.iter_mut().filter(|c| c.readable) {
            conn.fill(&mut self.rpc);
            for line in conn.take_lines() {
                let response = self.handle_rpc(&line, conn)?;
                conn.push_line(&response.to_json());
            }
        }
        Ok(())
    }

    /// The answer to one request line; `Err` only where the daemon must
    /// stop ([`Self::apply_live`]).
    fn handle_rpc(&mut self, line: &str, conn: &mut RpcConn) -> std::io::Result<Value> {
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return Ok(rpc_error(&e.to_string())),
        };
        let op = request.get("op").and_then(Value::as_str).unwrap_or("");
        let reply = match op {
            "publish" => {
                let Some(payload) = request.get("payload").and_then(Value::as_u64) else {
                    return Ok(rpc_error("publish needs a numeric payload"));
                };
                let Ok(payload) = u32::try_from(payload) else {
                    return Ok(rpc_error("payload out of u32 range"));
                };
                // Route through the normal live path so WAL-before-wire
                // ordering holds for RPC-driven sends too.
                self.apply_live(Input::Broadcast(payload))?;
                // The bare ack: `status` reports the `sent` counter.
                Value::object([("ok", Value::from(true))])
            }
            "subscribe" => {
                conn.subscribed = true;
                // Replay the backlog so late subscribers still see the
                // node's full delivery stream.
                let replayed = self
                    .delivered_log
                    .replay(|digest| conn.push_line(&deliver_event(digest).to_json()));
                if let Err(e) = replayed {
                    return Ok(rpc_error(&format!("delivery log unreadable: {e}")));
                }
                Value::object([("ok", Value::from(true)), ("subscribed", Value::from(true))])
            }
            "status" => {
                let (rows, heatmap) = self.report();
                status_reply(self.spec.node, self.spec.n, &rows, heatmap.as_ref())
            }
            "restore" => {
                self.apply_live(Input::Restore)?;
                Value::object([("ok", Value::from(true)), ("crashed", Value::from(false))])
            }
            "shutdown" => {
                self.shutdown = true;
                Value::object([("ok", Value::from(true)), ("bye", Value::from(true))])
            }
            other => rpc_error(&format!("unknown op {other:?}")),
        };
        Ok(reply)
    }

    /// Everything this daemon reports, declared once for both sinks (the
    /// `status` RPC and `/metrics`): the rows that are truly the daemon's
    /// own, then the endpoint's and the transport's row lists, plus the
    /// heatmap each sink renders as an array.
    #[allow(clippy::cast_precision_loss)] // levels are far below 2^52
    fn report(&self) -> (Vec<Row>, Option<EntryHeatmap>) {
        let status = self.endpoint.status();
        let (udp,) = self.transport.stats();
        let ChainStats { deltas_sent, fulls_sent, missing_base } = self.frames.stats;
        let mut rows = vec![
            Row::gauge(
                "incarnation",
                "Boot counter of this state directory.",
                self.incarnation as f64,
            ),
            Row::gauge(
                "members",
                "Members this daemon routes to (peers + itself).",
                self.members() as f64,
            ),
            Row::gauge(
                "durable_seq",
                "Send-WAL high-water mark.",
                self.endpoint.durable_seq() as f64,
            ),
            Row::counter(
                "frames_delta_sent",
                "Broadcast frames sent as a delta against the one before.",
                deltas_sent,
            ),
            Row::counter("frames_full_sent", "Broadcast frames sent standing alone.", fulls_sent),
            Row::counter(
                "delta_missing_base",
                "Received deltas dropped because their base never arrived.",
                missing_base,
            ),
        ];
        rows.extend(status.rows());
        rows.extend(udp.rows());
        let RpcTotals { writes, bytes_written, bytes_read } = self.rpc;
        rows.extend([
            Row::counter("rpc_writes", "Writes to RPC connections.", writes),
            Row::counter("rpc_bytes_written", "Bytes written to RPC connections.", bytes_written),
            Row::counter("rpc_bytes_read", "Bytes read from RPC connections.", bytes_read),
        ]);
        (rows, status.heatmap)
    }

    #[allow(clippy::cast_precision_loss)]
    fn metrics_text(&self) -> String {
        let (rows, heatmap) = self.report();
        let node = self.spec.node.to_string();
        let mut w = PromWriter::new();
        w.rows("pcb_daemon_", &[(node.clone(), rows)]);
        if let Some(heatmap) = &heatmap {
            let name = "pcb_daemon_heatmap_hits";
            w.header(name, "gauge", "per-slot clock-entry occupancy (entries hash to slots)");
            for (slot, &hits) in heatmap.hits().iter().enumerate() {
                w.sample(name, &[("node", &node), ("slot", &slot.to_string())], hits as f64);
            }
        }
        w.into_text()
    }
}

/// One line of the `subscribe` stream. An alert flag is there only when
/// it is raised — absent means false — which keeps the line that almost
/// every delivery sends short.
fn deliver_event((id, instant, recent, payload): Digest) -> Value {
    let mut fields = vec![
        ("event", Value::from("deliver")),
        ("sender", Value::from(id.sender().index() as u64)),
        ("seq", Value::from(id.seq())),
        ("payload", Value::from(payload)),
    ];
    for (flag, raised) in [("instant", instant), ("recent", recent)] {
        if raised {
            fields.push((flag, Value::from(true)));
        }
    }
    Value::object(fields)
}

/// The `status` reply: one key per report row, plus the heatmap.
fn status_reply(node: u32, n: u32, rows: &[Row], heatmap: Option<&EntryHeatmap>) -> Value {
    let mut fields =
        vec![("ok", Value::from(true)), ("node", Value::from(node)), ("n", Value::from(n))];
    fields.extend(rows.iter().map(|row| match row.kind {
        RowKind::Flag => (row.name, Value::from(row.value != 0.0)),
        RowKind::Counter | RowKind::Gauge => (row.name, Value::Number(row.value)),
    }));
    if let Some(heatmap) = heatmap {
        fields.push(("heatmap_r", Value::from(heatmap.r())));
        fields.push((
            "heatmap_hits",
            Value::Array(heatmap.hits().iter().map(|&h| Value::from(h)).collect()),
        ));
    }
    Value::object(fields)
}

fn rpc_error(message: &str) -> Value {
    Value::object([("ok", Value::from(false)), ("error", Value::from(message))])
}

/// What the RPC plane cost on its sockets, over every connection it
/// served: beside `udp_bytes_sent`, the rest of a publish's bytes.
#[derive(Debug, Default, Clone, Copy)]
struct RpcTotals {
    writes: u64,
    bytes_written: u64,
    bytes_read: u64,
}

/// One client connection, RPC or `/metrics` scrape: buffered reads, line
/// framing, buffered writes that tolerate partial non-blocking progress.
struct RpcConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: VecDeque<u8>,
    subscribed: bool,
    dead: bool,
    /// The last bytes are queued: the connection closes once they leave.
    closing: bool,
    /// The last wait named it, or it was accepted this turn: a read may
    /// find bytes. Any other read would only meet `EAGAIN`.
    readable: bool,
}

impl RpcConn {
    fn new(stream: TcpStream) -> Self {
        RpcConn {
            stream,
            inbuf: Vec::new(),
            outbuf: VecDeque::new(),
            subscribed: false,
            dead: false,
            closing: false,
            readable: true,
        }
    }

    /// Reads whatever is available, counting it into `totals`; marks the
    /// connection dead once the peer is gone.
    fn fill(&mut self, totals: &mut RpcTotals) {
        let mut buf = [0u8; 4096];
        while !self.dead {
            match self.stream.read(&mut buf) {
                // Bound rogue clients: a "line" beyond 1 MiB is abuse.
                Ok(n) if n > 0 && self.inbuf.len() + n <= 1 << 20 => {
                    totals.bytes_read += n as u64;
                    self.inbuf.extend_from_slice(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Ok(_) | Err(_) => self.dead = true,
            }
        }
    }

    fn take_lines(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        while let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if !text.is_empty() {
                lines.push(text.to_string());
            }
        }
        lines
    }

    fn push_line(&mut self, line: &str) {
        self.outbuf.extend(line.as_bytes());
        self.outbuf.push_back(b'\n');
    }

    /// Writes as much buffered output as the socket accepts, straight
    /// from the ring buffer's two halves, counting it into `totals`;
    /// `false` once the peer is gone, or the last bytes of a closing
    /// connection have left.
    fn flush(&mut self, totals: &mut RpcTotals) -> bool {
        if self.dead {
            return false;
        }
        while !self.outbuf.is_empty() {
            let (front, back) = self.outbuf.as_slices();
            match self.stream.write_vectored(&[IoSlice::new(front), IoSlice::new(back)]) {
                Ok(0) => return false,
                Ok(n) => {
                    totals.writes += 1;
                    totals.bytes_written += n as u64;
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
        !self.closing
    }
}

/// The whole answer to one Prometheus scrape, whatever it asked for.
fn http_page(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::link::net::{Net, Weather, A, B};
    use crate::link::Event;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pcb-daemon-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_spec() -> NodeSpec {
        let space = KeySpace::new(16, 2).unwrap();
        NodeSpec {
            node: 2,
            n: 5,
            keys: KeySet::from_entries(space, &[3, 9]).unwrap(),
            pcb_config: PcbConfig::default(),
            timing: RecoveryTimingUs::default(),
        }
    }

    #[test]
    fn state_dir_round_trips_spec_wal_and_incarnation() {
        let dir = temp_dir("state");
        let spec = sample_spec();
        save_spec(&dir, &spec).unwrap();
        let back = load_spec(&dir).unwrap();
        assert_eq!(back.node, spec.node);
        assert_eq!(back.keys, spec.keys);

        // Absent is a fresh node; anything else on disk must be intact.
        assert_eq!(load_wal(&dir).unwrap(), None);
        assert!(load_snapshot(&dir).unwrap().is_none());
        save_wal(&dir, 41).unwrap();
        assert_eq!(load_wal(&dir).unwrap(), Some(41));
        let mut wal = std::fs::read(dir.join("wal.bin")).unwrap();
        wal[3] ^= 1;
        std::fs::write(dir.join("wal.bin"), &wal).unwrap();
        let refused = load_wal(&dir).unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::InvalidData);
        assert!(refused.to_string().contains("wal.bin"), "{refused}");
        std::fs::write(dir.join("wal.bin"), [1, 2, 3]).unwrap();
        assert_eq!(load_wal(&dir).unwrap_err().kind(), ErrorKind::InvalidData);

        assert_eq!(bump_incarnation(&dir).unwrap(), 1);
        assert_eq!(bump_incarnation(&dir).unwrap(), 2);
        std::fs::write(dir.join("incarnation.bin"), [0u8; 7]).unwrap();
        let refused = bump_incarnation(&dir).unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::InvalidData);
        assert!(refused.to_string().contains("incarnation.bin"), "{refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_is_rewritten_in_place() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("wal-in-place");
        save_wal(&dir, 1).unwrap();
        let inode = std::fs::metadata(dir.join("wal.bin")).unwrap().ino();
        for seq in [2, 3, u64::MAX] {
            save_wal(&dir, seq).unwrap();
            let meta = std::fs::metadata(dir.join("wal.bin")).unwrap();
            assert_eq!((meta.ino(), meta.len()), (inode, WAL_LEN as u64), "seq {seq}");
            assert_eq!(load_wal(&dir).unwrap(), Some(seq));
        }
        assert!(!dir.join("wal.tmp").exists(), "no temp file, no rename");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_boot_over_a_version_one_wal_leaves_a_readable_record() {
        let dir = temp_dir("wal-fresh-over-v1");
        save_spec(&dir, &sample_spec()).unwrap();
        let mut old = 41u64.to_le_bytes().to_vec();
        old.extend_from_slice(&checksum64(&old).to_le_bytes());
        std::fs::write(dir.join("wal.bin"), &old).unwrap();
        let (_, _, mut node) = start_node(&dir, false).unwrap();
        let mut durable = node.durable_seq();
        let outputs = node.handle(Input::Broadcast(7), 1_000);
        assert!(!persist_changes(&dir, &node, &mut durable, &outputs).unwrap());
        assert_eq!(load_wal(&dir).unwrap(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_wal_write_is_an_error_naming_the_file() {
        let dir = temp_dir("wal-fails");
        save_spec(&dir, &sample_spec()).unwrap();
        let (_, _, mut node) = start_node(&dir, false).unwrap();
        std::fs::create_dir(dir.join("wal.bin")).unwrap();
        let mut durable = node.durable_seq();
        let outputs = node.handle(Input::Broadcast(7), 1_000);
        assert!(outputs.iter().any(|o| matches!(o, Output::SendFrame(_))));
        let failed = persist_changes(&dir, &node, &mut durable, &outputs)
            .expect_err("a directory takes no WAL record");
        assert!(failed.to_string().contains("wal.bin"), "{failed}");
        assert_eq!(durable, 0, "the mark moves only once it is on disk");
        // A fresh boot over it refuses too, naming it.
        let refused = start_node(&dir, false).expect_err("a directory is no leftover record");
        assert!(refused.to_string().contains("wal.bin"), "{refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_snapshot_write_is_only_a_warning() {
        let dir = temp_dir("snapshot-fails");
        let spec = sample_spec();
        save_spec(&dir, &spec).unwrap();
        // `snapshot.tmp` cannot be renamed over a directory that holds a file.
        std::fs::create_dir_all(dir.join("snapshot.bin/occupied")).unwrap();
        let (_, _, mut node) = start_node(&dir, false).unwrap();
        let mut durable = 0;
        let outputs = node.handle(Input::Broadcast(7), 1_000);
        assert!(!persist_changes(&dir, &node, &mut durable, &outputs).unwrap());
        let outputs = node.handle(Input::Tick, spec.timing.snapshot_every_us);
        assert!(outputs.iter().any(|o| matches!(o, Output::SnapshotReady { .. })));
        assert!(!persist_changes(&dir, &node, &mut durable, &outputs).unwrap());
        assert_eq!(load_wal(&dir).unwrap(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_corrupt_wal_before_binding() {
        let dir = temp_dir("resume");
        save_spec(&dir, &sample_spec()).unwrap();
        save_wal(&dir, 41).unwrap();
        let mut wal = std::fs::read(dir.join("wal.bin")).unwrap();
        wal[1] ^= 1;
        std::fs::write(dir.join("wal.bin"), &wal).unwrap();
        let mut opts = DaemonOptions::new(dir.clone(), "127.0.0.1:0".parse().unwrap());
        opts.resume = true;
        let refused = run(opts).expect_err("a flipped WAL byte must not boot from genesis");
        assert_eq!(refused.kind(), ErrorKind::InvalidData);
        assert!(refused.to_string().contains("wal.bin: checksum mismatch"), "{refused}");
        // `listen.txt` is written right after the UDP bind.
        assert!(!dir.join("listen.txt").exists(), "refused before any socket was bound");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-1 snapshot blob (wire-v2 frames, no cluster tail), as the
    /// codec before the single blob format wrote it.
    const SNAPSHOT_V1: &str = "010308020a00000000000000000000000000000007fa010308000300ac02000300010201020204060303000304010002058827020a2702030108020a00000000000000000000000000000000010000000100000161af7b6f21319db860142a02030208020a000000000000000000000000000000000200ac020002000003706362e4e85834eab27d314c031551c9ff287d";
    /// A version-3 snapshot blob (wire-v3 frames in the store), as the
    /// codec before the one-byte delta change list wrote it.
    const SNAPSHOT_V3: &str = "03030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280300030108020a00000000000000000000000000000000010000000100000161c40f3b1f4c47ad03142b0302030208020a000000000000000000000000000000000200ac0200020000037063628085e2f16e4a56a40100010008020a00000000000000000000000000000008000300ac0200030001b3c8059049f1d8f7";
    /// A version-4 snapshot blob (wire-v5 frames in the store), as the
    /// codec before the Rice-coded delta change list wrote it.
    const SNAPSHOT_V4: &str = "04030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280500030108020a00000000000000000000000000000000010000000100000161109f4a78cb635d69142b0502030208020a000000000000000000000000000000000200ac0200020000037063625fd2991e5bbf4cdb0100010008020a00000000000000000000000000000008000300ac0200030001fe8c4002bcb2d3c7";

    /// A version-5 snapshot blob (every stored message a full wire-v6
    /// frame), as the codec before chained stores wrote it.
    const SNAPSHOT_V5: &str = "05030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280600030108020a000000000000000000000000000000000100000001000001611ab54987a0dcd264142b0602030208020a000000000000000000000000000000000200ac020002000003706362e44c37e1b1001b1f0100010008020a00000000000000000000000000000008000300ac02000300011501c9f7504b93fa";

    /// Runs a resuming daemon on `dir`: it must refuse with the same
    /// error `load` gave, naming `file` and `version`, before binding.
    fn refuses_before_binding(dir: &Path, load: std::io::Error, file: &str, version: u8) {
        assert_eq!(load.kind(), ErrorKind::InvalidData);
        let why = load.to_string();
        assert!(why.contains(file) && why.contains(&format!("version {version}")), "{why}");
        let mut opts = DaemonOptions::new(dir.to_path_buf(), "127.0.0.1:0".parse().unwrap());
        opts.resume = true;
        let refused = run(opts).expect_err("an old-format state file must not boot from genesis");
        assert_eq!(refused.to_string(), why);
        assert!(!dir.join("listen.txt").exists(), "refused before any socket was bound");
    }

    #[test]
    fn resume_refuses_an_old_format_snapshot_by_name() {
        for (version, hex) in
            [(1, SNAPSHOT_V1), (3, SNAPSHOT_V3), (4, SNAPSHOT_V4), (5, SNAPSHOT_V5)]
        {
            let dir = temp_dir(&format!("snapshot-v{version}"));
            save_spec(&dir, &sample_spec()).unwrap();
            let blob: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap())
                .collect();
            std::fs::write(dir.join("snapshot.bin"), blob).unwrap();
            refuses_before_binding(&dir, load_snapshot(&dir).unwrap_err(), "snapshot.bin", version);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_refuses_an_unversioned_wal_by_name() {
        // The 16-byte record written before `wal.bin` had a version byte:
        // `u64 durable_seq | u64 checksum`, intact.
        let dir = temp_dir("wal-v1");
        save_spec(&dir, &sample_spec()).unwrap();
        let mut old = 41u64.to_le_bytes().to_vec();
        old.extend_from_slice(&checksum64(&old).to_le_bytes());
        std::fs::write(dir.join("wal.bin"), &old).unwrap();
        refuses_before_binding(&dir, load_wal(&dir).unwrap_err(), "wal.bin", 1);
        // A record of today's length with another version byte, too.
        save_wal(&dir, 41).unwrap();
        let mut wal = std::fs::read(dir.join("wal.bin")).unwrap();
        assert_eq!((wal.len(), wal[0]), (17, 2));
        wal[0] = 3;
        std::fs::write(dir.join("wal.bin"), &wal).unwrap();
        refuses_before_binding(&dir, load_wal(&dir).unwrap_err(), "wal.bin", 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_line_the_daemon_emits_is_json() {
        let spec = sample_spec();
        let config = PcbConfig { estimators: true, ..spec.pcb_config.clone() };
        let mut ep = Endpoint::new(ProcessId::new(2), spec.keys.clone(), config, Some(spec.timing));
        let _ = ep.handle(Input::Broadcast(7), 1_000);
        let status = ep.status();
        let mut rows = status.rows();
        rows.extend(crate::udp::UdpStats::default().rows());
        let heatmap = status.heatmap.as_ref();
        assert!(heatmap.is_some(), "estimators on: the reply carries the heatmap");
        let id = MessageId::new(ProcessId::new(u32::MAX as usize), 1 << 53);
        let replies = [
            status_reply(2, 5, &rows, heatmap),
            deliver_event((id, true, false, u32::MAX)),
            rpc_error("unknown op \"\\u+041\"\n\u{1}"),
        ];
        for reply in replies {
            let line = reply.to_json();
            assert_eq!(json::parse(&line).as_ref(), Ok(&reply), "{line}");
        }
        // A flag that is not raised is not on the line at all.
        let quiet = deliver_event((id, false, false, 7)).to_json();
        assert!(!quiet.contains("instant") && !quiet.contains("recent"), "{quiet}");
    }

    #[test]
    fn snapshot_persistence_round_trips_through_the_wire_codec() {
        let dir = temp_dir("snap");
        let spec = sample_spec();
        let mut ep = Endpoint::new(
            ProcessId::new(spec.node as usize),
            spec.keys.clone(),
            spec.pcb_config.clone(),
            Some(spec.timing),
        );
        for payload in 0..5u32 {
            let _ = ep.handle(Input::Broadcast(payload), 1_000 + u64::from(payload));
        }
        // Force a snapshot through the endpoint's own schedule.
        let mut snapshotted = false;
        for tick in 1..200u64 {
            let outs = ep.handle(Input::Tick, tick * spec.timing.snapshot_every_us.max(1));
            if outs.iter().any(|o| matches!(o, Output::SnapshotReady { .. })) {
                snapshotted = true;
                break;
            }
        }
        assert!(snapshotted, "endpoint never cut a snapshot");
        let snapshot = ep.stable_snapshot().cloned().expect("stable snapshot");
        save_snapshot(&dir, &snapshot).unwrap();
        let back = load_snapshot(&dir).expect("load").expect("present");
        assert_eq!(back.seq, snapshot.seq);
        assert_eq!(back.clock, snapshot.clock);
        assert_eq!(back.store.len(), snapshot.store.len());
        // The dedup windows a restarted node probes with and rows report.
        assert!(!snapshot.seen.is_empty(), "own sends are seen");
        assert_eq!(back.seen, snapshot.seen);
        // A truncated blob is refused, naming the file.
        let blob = std::fs::read(dir.join("snapshot.bin")).unwrap();
        std::fs::write(dir.join("snapshot.bin"), &blob[..blob.len() - 1]).unwrap();
        let refused = load_snapshot(&dir).unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::InvalidData);
        assert!(refused.to_string().contains("snapshot.bin"), "{refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_codec_round_trips_and_rejects_garbage() {
        let wire = Bytes::from_static(b"any bytes: the decoder judges them");
        match decode_msg(&encode_frame_msg(&wire)).unwrap() {
            DaemonMsg::Frame(back) => assert_eq!(back, wire),
            other => panic!("wrong decode: {other:?}"),
        }
        let windows = vec![(ProcessId::new(0), 4, vec![6])];
        match decode_msg(&encode_probe_msg(ProcessId::new(1), &windows)).unwrap() {
            DaemonMsg::Probe(from, back) => {
                assert_eq!((from, back), (ProcessId::new(1), windows));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let spec = sample_spec();
        let mut ep = Endpoint::new(ProcessId::new(2), spec.keys, spec.pcb_config, None);
        let sent: Vec<Message<u32>> = (0..3)
            .flat_map(|payload| ep.handle(Input::Broadcast(payload), 1_000))
            .filter_map(|o| if let Output::SendFrame(m) = o { Some(m) } else { None })
            .collect();
        let config = ep.cluster();
        match decode_msg(&encode_reply_msg(&config, &sent)).unwrap() {
            DaemonMsg::Reply(back, messages) => {
                assert_eq!(back, config);
                let ids: Vec<_> = messages.iter().map(|m| (m.id(), *m.payload())).collect();
                assert_eq!(ids, sent.iter().map(|m| (m.id(), *m.payload())).collect::<Vec<_>>());
            }
            other => panic!("wrong decode: {other:?}"),
        }

        assert!(decode_msg(&Bytes::new()).is_err());
        // Kinds 0 to 3 are retired: 0 carried a replay step.
        for kind in [0u8, 1, 2, 3, 99] {
            assert_eq!(
                decode_msg(&Bytes::from(vec![kind, 0])).err(),
                Some(WireError::BadVersion(kind))
            );
        }
        let mut trailing = encode_probe_msg(ProcessId::new(1), &[]).to_vec();
        trailing.push(0);
        assert!(decode_msg(&Bytes::from(trailing)).is_err());
    }

    /// State files as the daemon before payload-generic codecs wrote
    /// them: `spec.bin` for [`parent_spec`], and the `snapshot.bin` of
    /// node 2 after three deliveries from node 1 (payloads `0xA0..=0xA2`)
    /// and three publishes (`7`, `0x0102_0304`, `u32::MAX`).
    const SPEC_PARENT: &str = "020000000500000010000000020000002f0000000000000000000000000000000101393000000000000001400000000000000001a086010000000000a861000000000000404b4c000000000090d0030000000000801a060000000000";
    const SNAPSHOT_PARENT: &str = "060210022f0000000000000000000000000000000003100003000303000000000300000000000002010300020300030300000001c096b10206d80433060001011002110000000000000000000000000000000001000001000000000000000000000004000000a04276d569df74698dd804150601010201029b0104000000a198c7c817d052c4abd804150601010301029b0104000000a2c235bf49e8994e93e807330600020110022f0000000000000000000000000000000003000103000000000100000000000004000000078487f0f129efdcc9e807150601020201027c1b04010203042cb86b870031dc2fe807150601020301027c1b04ffffffff1424fd9e503f5afd000000665529e90aed1149";

    fn parent_spec() -> NodeSpec {
        let pcb_config =
            PcbConfig { recent_window: Some(12_345), trace_capacity: 64, estimators: true };
        NodeSpec { pcb_config, ..sample_spec() }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn state_files_the_earlier_daemon_wrote_load_and_are_written_the_same() {
        let dir = temp_dir("parent-files");
        std::fs::write(dir.join("spec.bin"), unhex(SPEC_PARENT)).unwrap();
        let spec = load_spec(&dir).unwrap();
        let want = parent_spec();
        assert_eq!((spec.node, spec.n, &spec.keys), (want.node, want.n, &want.keys));
        assert_eq!((&spec.pcb_config, spec.timing), (&want.pcb_config, want.timing));
        std::fs::write(dir.join("snapshot.bin"), unhex(SNAPSHOT_PARENT)).unwrap();
        let snapshot = load_snapshot(&dir).unwrap().expect("present");
        let payloads: Vec<u32> = snapshot.store.iter().map(|(_, m)| *m.payload()).collect();
        assert_eq!(payloads, [0xA0, 0xA1, 0xA2, 7, 0x0102_0304, u32::MAX]);
        assert_eq!(snapshot.seq, 3);

        save_spec(&dir, &spec).unwrap();
        save_snapshot(&dir, &snapshot).unwrap();
        assert_eq!(std::fs::read(dir.join("spec.bin")).unwrap(), unhex(SPEC_PARENT));
        assert_eq!(std::fs::read(dir.join("snapshot.bin")).unwrap(), unhex(SNAPSHOT_PARENT));
        let spec_bin = unhex(SPEC_PARENT);
        for cut in 0..spec_bin.len() {
            std::fs::write(dir.join("spec.bin"), &spec_bin[..cut]).unwrap();
            let refused = load_spec(&dir).unwrap_err();
            assert_eq!(refused.kind(), ErrorKind::InvalidData, "cut {cut}");
            assert!(refused.to_string().contains("spec.bin"), "{refused}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_only_rise_need_one_entry_per_member_and_set_the_frontier() {
        let mut rows = StabilityRows::new(3);
        assert_eq!(rows.frontier(), [0, 0, 0]);
        assert!(rows.merge(0, &[5, 2, 1]));
        assert!(rows.merge(1, &[4, 3, 1]));
        assert_eq!(rows.frontier(), [0, 0, 0], "member 2 has not reported: nothing is stable");
        assert!(rows.merge(2, &[6, 1, 2]));
        assert_eq!(rows.frontier(), [4, 1, 1]);
        assert!(rows.merge(1, &[0, 9, 0]), "a partly lower row raises only what rose");
        assert_eq!(rows.row(1), Some(&[4, 9, 1][..]));
        assert!(!rows.merge(1, &[9, 9]), "one entry per member");
        assert!(!rows.merge(1, &[9, 9, 9, 9]), "one entry per member");
        assert!(!rows.merge(3, &[9, 9, 9]), "not a member");
        assert_eq!(rows.frontier(), [4, 1, 1]);
        // Accepted, but nothing rose: the frontier cannot have moved.
        assert!(!rows.merge(1, &[4, 9, 1]), "a replayed row");
        assert!(!rows.merge(2, &[0, 0, 0]), "a lower row");
        assert_eq!(rows.row(2), Some(&[6, 1, 2][..]));

        // A snapshot's row: its own sends included, senders past `n` not.
        let spec = sample_spec();
        let mut ep =
            Endpoint::new(ProcessId::new(2), spec.keys, spec.pcb_config, Some(spec.timing));
        for payload in 0..3 {
            let _ = ep.handle(Input::Broadcast(payload), 1_000);
        }
        let _ = ep.handle(Input::Tick, spec.timing.snapshot_every_us);
        let snapshot = ep.stable_snapshot().expect("snapshot cut");
        assert_eq!(snapshot_row(snapshot, 5), [0, 0, 3, 0, 0]);
        assert_eq!(snapshot_row(snapshot, 2), [0, 0]);
    }

    #[test]
    fn row_messages_round_trip_and_refuse_what_their_bytes_cannot_hold() {
        for row in [vec![], vec![0, 1, u64::MAX]] {
            match decode_msg(&encode_row_msg(&row)).unwrap() {
                DaemonMsg::Row(back) => assert_eq!(back, row),
                other => panic!("wrong decode: {other:?}"),
            }
        }
        let mut forged = vec![MSG_ROW];
        wire::put_uvar(&mut forged, u64::MAX); // and not one entry behind it
        assert_eq!(decode_msg(&Bytes::from(forged)).unwrap_err(), WireError::Truncated);
        let mut trailing = encode_row_msg(&[1]).to_vec();
        trailing.push(0);
        assert!(decode_msg(&Bytes::from(trailing)).is_err());
        let mut cut = encode_row_msg(&[300]).to_vec();
        cut.pop();
        assert!(decode_msg(&Bytes::from(cut)).is_err());
    }

    #[test]
    fn delivered_log_replays_the_incarnation_in_order_and_starts_empty_at_boot() {
        let dir = temp_dir("delivered");
        let mut log = DeliveredLog::create(&dir).unwrap();
        let digests = [
            (MessageId::new(ProcessId::new(3), 9), true, false, 7),
            (MessageId::new(ProcessId::new(u32::MAX as usize), u64::MAX), false, true, u32::MAX),
        ];
        let replayed = |log: &mut DeliveredLog| {
            let mut back = Vec::new();
            log.replay(|digest| back.push(digest)).unwrap();
            back
        };
        log.push(digests[0]);
        assert_eq!(replayed(&mut log), digests[..1]);
        log.push(digests[1]);
        assert_eq!(replayed(&mut log), digests, "a replay leaves the log appendable");
        let mut next_boot = DeliveredLog::create(&dir).unwrap();
        assert_eq!(replayed(&mut next_boot), []);
        assert_eq!(std::fs::metadata(dir.join("delivered.bin")).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One directed link of a live cluster on a synthetic clock: a
    /// publishing endpoint and its chain at end `A` of the test network,
    /// a receiving chain at `B`. `pump` is `run_live`'s event handling,
    /// nothing more.
    struct Chain {
        net: Net,
        publisher: Endpoint<u32>,
        out: LiveFrames,
        into: LiveFrames,
    }

    /// The address `A`'s chain knows `B` by.
    fn addr_b() -> SocketAddr {
        "127.0.0.1:9002".parse().unwrap()
    }

    impl Chain {
        fn new() -> Self {
            let net = Net::new(UdpConfig {
                rto_initial_us: 1_000,
                rto_max_us: 1_000,
                max_retries: 2,
                ..UdpConfig::default()
            });
            let spec = sample_spec();
            let publisher = Endpoint::new(
                ProcessId::new(spec.node as usize),
                spec.keys.clone(),
                spec.pcb_config.clone(),
                None,
            );
            Chain { net, publisher, out: LiveFrames::default(), into: LiveFrames::default() }
        }

        fn publish(&mut self, payload: u32) {
            for output in self.publisher.handle(Input::Broadcast(payload), self.net.now_us) {
                if let Output::SendFrame(message) = output {
                    let net = &mut self.net;
                    self.out.outgoing(&message, [addr_b()].into_iter(), |_, frame| {
                        net.send(A, frame);
                    });
                }
            }
            self.net.flush(A);
        }

        /// Both ends take turns until nothing is in flight; returns the
        /// payloads `B`'s chain decoded, in order.
        fn pump(&mut self) -> Vec<u32> {
            self.net.settle();
            for event in std::mem::take(&mut self.net.ends[A].events) {
                if event == Event::Fenced {
                    self.out.fenced(addr_b());
                }
            }
            let mut delivered = Vec::new();
            for event in std::mem::take(&mut self.net.ends[B].events) {
                let Event::Frame(frame) = event else { continue };
                let Ok(DaemonMsg::Frame(wire)) = decode_msg(&frame) else {
                    panic!("only chain frames travel here");
                };
                delivered.extend(self.into.incoming(2, wire).map(|m| *m.payload()));
            }
            delivered
        }
    }

    #[test]
    fn chain_restarts_with_a_full_frame_after_a_give_up() {
        let mut chain = Chain::new();
        for payload in 0..3 {
            chain.publish(payload);
        }
        assert_eq!(chain.pump(), [0, 1, 2]);
        assert_eq!(chain.out.stats, ChainStats { deltas_sent: 2, fulls_sent: 1, missing_base: 0 });

        // Two deltas leave into a dead link and exhaust their retries:
        // the transport abandons them and says so.
        chain.net.weather[B] = Weather::Cut;
        chain.publish(3);
        chain.publish(4);
        while chain.net.stats(A).give_ups == 0 {
            chain.net.now_us += 1_000;
            assert!(chain.net.now_us < 100_000, "no give-up");
            let _ = chain.pump();
        }
        chain.net.weather[B] = Weather::Clear;
        assert_eq!(chain.out.restart, [addr_b()]);

        // The encoder would chain message 5 to message 4, which `B` never
        // saw; the link's flag makes this one frame stand alone, and the
        // chain goes on from it.
        for payload in 5..8 {
            chain.publish(payload);
        }
        assert_eq!(chain.pump(), [5, 6, 7]);
        assert_eq!(chain.out.encoder.fulls_emitted(), 1, "the encoder itself never restarted");
        assert_eq!(chain.out.stats, ChainStats { deltas_sent: 6, fulls_sent: 2, missing_base: 0 });
        assert_eq!(chain.into.stats.missing_base, 0);
    }

    #[test]
    fn a_healthy_link_carries_one_full_frame_its_first() {
        let mut frames = LiveFrames::default();
        let peers: [SocketAddr; 2] =
            ["127.0.0.1:9001".parse().unwrap(), "127.0.0.1:9002".parse().unwrap()];
        let spec = sample_spec();
        let mut publisher = Endpoint::new(
            ProcessId::new(spec.node as usize),
            spec.keys.clone(),
            spec.pcb_config.clone(),
            None,
        );
        let mut fulls = [0u32; 2];
        for payload in 0..200 {
            for output in publisher.handle(Input::Broadcast(payload), u64::from(payload)) {
                if let Output::SendFrame(message) = output {
                    frames.outgoing(&message, peers.into_iter(), |to, frame| {
                        // The envelope byte, then the frame's version and tag.
                        if frame[2] & 1 == 0 {
                            fulls[peers.iter().position(|p| *p == to).unwrap()] += 1;
                        }
                    });
                }
            }
        }
        assert_eq!(fulls, [1, 1], "one chain start per peer");
        assert_eq!(frames.stats, ChainStats { deltas_sent: 398, fulls_sent: 2, missing_base: 0 });
    }

    #[test]
    fn a_members_chain_counts_only_in_its_own_name() {
        let spec = sample_spec();
        let mut publisher = Endpoint::new(ProcessId::new(2), spec.keys, spec.pcb_config, None);
        let outputs = publisher.handle(Input::Broadcast(7), 1_000);
        let Some(Output::SendFrame(message)) = outputs.into_iter().next() else {
            panic!("a broadcast sends a frame first");
        };
        let frame = wire::encode_full(&message);
        let mut frames = LiveFrames::default();
        assert!(frames.incoming(1, frame.clone()).is_none(), "member 1 sent member 2's frame");
        assert_eq!(frames.incoming(2, frame).map(|m| *m.payload()), Some(7));
    }

    #[test]
    fn chain_restarts_with_a_full_frame_after_a_peer_restart() {
        let mut chain = Chain::new();
        for payload in 0..3 {
            chain.publish(payload);
        }
        assert_eq!(chain.pump(), [0, 1, 2]);

        // `B` dies with two deltas in flight and comes back, next
        // incarnation, empty decoder. Its first word fences the link, and
        // the two deltas — against a base only the dead process held — go
        // with the old epoch instead of to the new one.
        chain.net.weather[B] = Weather::Cut;
        chain.publish(3);
        chain.publish(4);
        chain.net.restart(B);
        chain.net.weather[B] = Weather::Clear;
        chain.into = LiveFrames::default();
        chain.net.send(B, encode_row_msg(&[]));
        chain.net.flush(B);
        assert_eq!(chain.pump(), [] as [u32; 0]);
        assert_eq!(chain.net.stats(A).peer_restarts, 1, "the restart went unnoticed");
        assert_eq!(chain.out.restart, [addr_b()]);

        // The first frame of the link's new life stands alone; nothing
        // after it is dropped for a missing base.
        for payload in 5..8 {
            chain.publish(payload);
        }
        assert_eq!(chain.pump(), [5, 6, 7]);
        assert_eq!(chain.into.stats.missing_base, 0, "no frame of the old chain reached b");
        assert_eq!(chain.out.stats.fulls_sent, 2);
        assert_eq!(chain.net.stats(A).give_ups, 0);
    }

    #[test]
    fn rpc_totals_count_every_read_and_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let (mut conn, mut totals) = (RpcConn::new(stream), RpcTotals::default());
        client.write_all(b"{\"op\":\"status\"}\n").unwrap();
        for _ in 0..100_000 {
            conn.fill(&mut totals);
            if totals.bytes_read == 16 {
                break;
            }
        }
        assert_eq!(conn.take_lines(), [r#"{"op":"status"}"#]);
        conn.push_line("ok");
        assert!(conn.flush(&mut totals));
        assert_eq!((totals.writes, totals.bytes_written, totals.bytes_read), (1, 3, 16));
    }
}
