//! A live node: one thread routing IO for a sans-IO
//! [`Endpoint`](pcb_broadcast::endpoint::Endpoint).
//!
//! All protocol behaviour — delivery, dedup, the §4.2 anti-entropy
//! driver, snapshot/restore — lives in `pcb-broadcast::endpoint`. This
//! module only translates: commands and router traffic become
//! [`Input`]s stamped with microseconds since the cluster epoch, and the
//! resulting [`Output`]s become channel sends. The same state machine is
//! driven by the deterministic simulator, so the chaos oracles certify
//! exactly the code running here.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use pcb_broadcast::endpoint::{Endpoint, EndpointStatus, Input, Output, RecoveryTimingUs};
use pcb_broadcast::{Delivery, Message, PcbConfig, SeenWindows};
use pcb_clock::{ClusterConfig, KeySet, ProcessId};
use pcb_telemetry::TraceRecord;

use crate::transport::RouterMsg;

/// Anti-entropy settings for a live node (paper §4.2: the detectors tell
/// *when* recovery is needed; this layer performs it).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// A pending message older than this triggers a sync request — use a
    /// few propagation delays.
    pub stale_after: Duration,
    /// How often the node checks for staleness when idle.
    pub poll_every: Duration,
    /// How long delivered/own messages are retained for peers.
    pub store_window: Duration,
    /// Period of the durable process snapshot. A crash loses at most this
    /// much local progress; a recovering node restores the last snapshot
    /// and refetches the rest through anti-entropy.
    pub snapshot_every: Duration,
    /// How long an issued sync request may stay unanswered before it is
    /// considered lost (crashed peer, partition) and a new one may go
    /// out. Without this, one dropped response deadlocks anti-entropy.
    pub sync_timeout: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            stale_after: Duration::from_millis(100),
            poll_every: Duration::from_millis(25),
            store_window: Duration::from_secs(5),
            snapshot_every: Duration::from_millis(250),
            sync_timeout: Duration::from_millis(400),
        }
    }
}

impl RecoveryConfig {
    /// The endpoint-facing microsecond view of these durations — the one
    /// place the live shell converts wall-clock units.
    fn timing(self) -> RecoveryTimingUs {
        RecoveryTimingUs {
            stale_after_us: self.stale_after.as_micros() as u64,
            poll_every_us: self.poll_every.as_micros() as u64,
            store_window_us: self.store_window.as_micros() as u64,
            snapshot_every_us: self.snapshot_every.as_micros() as u64,
            sync_timeout_us: self.sync_timeout.as_micros() as u64,
        }
    }
}

/// Commands accepted by a node's event loop.
pub(crate) enum Command<P> {
    /// A message arriving from the transport.
    Incoming(Message<P>),
    /// Application request to broadcast a payload.
    Broadcast(P),
    /// A peer asks for messages it is missing.
    SyncRequest {
        /// The requesting node.
        from: ProcessId,
        /// The requester's dedup windows.
        windows: SeenWindows,
    },
    /// Missing messages arriving from a peer's store, together with the
    /// cluster configuration the replier was running — a replier in a
    /// newer config epoch pulls the requester forward before the
    /// messages are routed.
    SyncResponse {
        /// The refetched messages.
        messages: Vec<Message<P>>,
        /// The replier's cluster configuration.
        config: ClusterConfig,
    },
    /// Snapshot request.
    Query(Sender<EndpointStatus>),
    /// Drain the node's lifecycle trace ring (allowed while crashed —
    /// the ring is diagnostic state, and a crash is exactly when the
    /// operator wants it).
    DrainTrace(Sender<Vec<TraceRecord>>),
    /// Fault injection: halt the process, losing all volatile state
    /// (pending queue, anything delivered since the last snapshot).
    Crash,
    /// Fault injection: restart from the last durable snapshot, replay
    /// the own-send WAL, and catch up through anti-entropy.
    Recover,
    /// Graceful departure: retire this node's clock entries and go
    /// permanently silent (the endpoint refuses all further input).
    Leave,
    /// Online `(R, K)` reconfiguration: bump the config epoch to a new
    /// key space. The node derives the successor config from its own
    /// current epoch, so concurrent announcements converge.
    Reconfigure {
        /// New key-space size.
        r: usize,
        /// New keys-per-process count.
        k: usize,
    },
    /// Stop the event loop.
    Shutdown,
}

/// Handle to a running node: broadcast payloads, consume deliveries,
/// query state. Dropping the handle shuts the node down.
#[derive(Debug)]
pub struct NodeHandle<P> {
    id: ProcessId,
    cmd_tx: Sender<Command<P>>,
    deliveries: Receiver<Delivery<P>>,
    join: Option<JoinHandle<()>>,
}

impl<P: Send + 'static> NodeHandle<P> {
    /// This node's process id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Requests a causal broadcast of `payload`.
    ///
    /// # Errors
    ///
    /// Returns the payload back if the node has already shut down.
    pub fn broadcast(&self, payload: P) -> Result<(), P> {
        self.cmd_tx.send(Command::Broadcast(payload)).map_err(|e| match e.into_inner() {
            Command::Broadcast(p) => p,
            _ => unreachable!("we sent a Broadcast"),
        })
    }

    /// Stream of deliveries in causal (protocol) order.
    #[must_use]
    pub fn deliveries(&self) -> &Receiver<Delivery<P>> {
        &self.deliveries
    }

    /// Snapshot of protocol state (blocks for the node's next loop turn).
    #[must_use]
    pub fn status(&self) -> Option<EndpointStatus> {
        let (tx, rx) = bounded(1);
        self.cmd_tx.send(Command::Query(tx)).ok()?;
        rx.recv().ok()
    }

    /// Fault injection: crashes the node. Volatile state (pending queue,
    /// progress since the last snapshot) is lost; the node ignores all
    /// traffic until [`NodeHandle::recover`].
    pub fn crash(&self) {
        let _ = self.cmd_tx.send(Command::Crash);
    }

    /// Fault injection: restarts a crashed node from its last durable
    /// snapshot; it then catches up through anti-entropy.
    pub fn recover(&self) {
        let _ = self.cmd_tx.send(Command::Recover);
    }

    /// Graceful departure: the node retires its clock entries and goes
    /// permanently silent. The thread stays up (so status queries and
    /// trace drains still answer) but the protocol is done.
    pub fn leave(&self) {
        let _ = self.cmd_tx.send(Command::Leave);
    }

    /// Online `(R, K)` reconfiguration: the node bumps its config epoch
    /// to a `(r, k)` key space; peers follow via the sync-carried config
    /// piggyback. Degenerate spaces are ignored by the event loop.
    pub fn reconfigure(&self, r: usize, k: usize) {
        let _ = self.cmd_tx.send(Command::Reconfigure { r, k });
    }

    /// Drains the node's lifecycle trace ring (blocks for the node's next
    /// loop turn; empty when `PcbConfig::trace_capacity` is 0). Works on
    /// crashed nodes too.
    #[must_use]
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        let (tx, rx) = bounded(1);
        if self.cmd_tx.send(Command::DrainTrace(tx)).is_err() {
            return Vec::new();
        }
        rx.recv().unwrap_or_default()
    }

    /// Stops the node and joins its thread.
    pub fn shutdown(&mut self) {
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl<P> Drop for NodeHandle<P> {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The IO shell: owns the channels and the clock, delegates every
/// protocol decision to the [`Endpoint`].
struct NodeLoop<P> {
    id: ProcessId,
    endpoint: Endpoint<P>,
    epoch: Instant,
    router_tx: Sender<RouterMsg<P>>,
    delivery_tx: Sender<Delivery<P>>,
}

impl<P: Send + Clone + 'static> NodeLoop<P> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Carries out the endpoint's effects. Returns `false` when the
    /// router is gone (cluster shutting down) and the loop should stop.
    fn route(&mut self, outputs: Vec<Output<P>>) -> bool {
        for output in outputs {
            match output {
                Output::Deliver(delivery) => {
                    // The application may have dropped its stream; keep
                    // going. The endpoint already stored the message.
                    let _ = self.delivery_tx.send(delivery);
                }
                Output::SendFrame(message) => {
                    if self.router_tx.send(RouterMsg::Broadcast { from: self.id, message }).is_err()
                    {
                        return false;
                    }
                }
                Output::RequestSync { windows } => {
                    let _ = self.router_tx.send(RouterMsg::SyncRequest { from: self.id, windows });
                }
                Output::SyncReply { to, messages, config } => {
                    let _ = self.router_tx.send(RouterMsg::SyncResponse {
                        from: self.id,
                        to,
                        messages,
                        config,
                    });
                }
                // The recv_timeout loop *is* the tick source, alerts ride
                // on each Delivery's flags, and snapshots stay in-process
                // (the endpoint holds the stable slot).
                Output::ScheduleTick { .. }
                | Output::Alert { .. }
                | Output::SnapshotReady { .. } => {}
            }
        }
        true
    }

    fn run(mut self, cmd_rx: &Receiver<Command<P>>, poll_every: Duration) {
        loop {
            let cmd = match cmd_rx.recv_timeout(poll_every) {
                Ok(cmd) => cmd,
                Err(RecvTimeoutError::Timeout) => {
                    let now = self.now_us();
                    let outputs = self.endpoint.handle(Input::Tick, now);
                    if !self.route(outputs) {
                        break;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let now = self.now_us();
            let outputs = match cmd {
                Command::Incoming(message) => {
                    self.endpoint.handle(Input::FrameReceived(message), now)
                }
                Command::Broadcast(payload) => self.endpoint.handle(Input::Broadcast(payload), now),
                Command::SyncRequest { from, windows } => {
                    self.endpoint.handle(Input::SyncRequest { from, windows }, now)
                }
                Command::SyncResponse { messages, config } => {
                    self.endpoint.handle(Input::SyncResponse { messages, config }, now)
                }
                Command::Crash => self.endpoint.handle(Input::Crash, now),
                Command::Recover => self.endpoint.handle(Input::Restore, now),
                Command::Leave => self.endpoint.handle(Input::Leave, now),
                Command::Reconfigure { r, k } => match pcb_clock::KeySpace::new(r, k) {
                    Ok(space) => {
                        let next = self.endpoint.cluster().reconfigured(space);
                        self.endpoint.handle(Input::Reconfigure(next), now)
                    }
                    // A degenerate space cannot be adopted; drop the
                    // request rather than poison the node.
                    Err(_) => Vec::new(),
                },
                Command::Query(reply) => {
                    // Tick first so a busy inbox (frequent status queries)
                    // cannot suppress snapshots or recovery probes.
                    let outputs = self.endpoint.handle(Input::Tick, now);
                    let _ = reply.send(self.endpoint.status());
                    outputs
                }
                Command::DrainTrace(reply) => {
                    let outputs = self.endpoint.handle(Input::Tick, now);
                    let _ = reply.send(self.endpoint.drain_trace());
                    outputs
                }
                Command::Shutdown => break,
            };
            if !self.route(outputs) {
                break;
            }
        }
    }
}

/// Spawns a node thread; `epoch` anchors the microsecond clock used for
/// the Algorithm 5 recent-list window and the recovery timers.
pub(crate) fn spawn_node<P: Send + Clone + 'static>(
    id: ProcessId,
    keys: KeySet,
    config: PcbConfig,
    recovery: Option<RecoveryConfig>,
    epoch: Instant,
    router_tx: Sender<RouterMsg<P>>,
) -> (NodeHandle<P>, Sender<Command<P>>) {
    let (cmd_tx, cmd_rx) = unbounded::<Command<P>>();
    let (delivery_tx, delivery_rx) = unbounded::<Delivery<P>>();
    let poll_every = recovery.map_or(Duration::from_secs(3600), |r| r.poll_every);
    let thread_name = format!("pcb-node-{}", id.index());
    let join = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            let endpoint = Endpoint::new(id, keys, config, recovery.map(RecoveryConfig::timing));
            let node = NodeLoop { id, endpoint, epoch, router_tx, delivery_tx };
            node.run(&cmd_rx, poll_every);
        })
        .expect("spawn node thread");

    let handle =
        NodeHandle { id, cmd_tx: cmd_tx.clone(), deliveries: delivery_rx, join: Some(join) };
    (handle, cmd_tx)
}
