//! Cluster orchestration: spawn `N` live nodes plus the latency router,
//! with a fault-controller interface for chaos runs.

use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, Sender};
use pcb_broadcast::{Counters, EndpointStatus, PcbConfig};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace, ProcessId};
use pcb_sim::{FaultKind, FaultPlan, LinkFaults};
use pcb_telemetry::{PromWriter, TraceRecord};

use crate::node::{spawn_node, Command, NodeHandle, RecoveryConfig};
use crate::transport::{spawn_router, LatencyModel, RouterMsg};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// The `(R, K)` clock configuration.
    pub space: KeySpace,
    /// Key assignment policy.
    pub policy: AssignmentPolicy,
    /// Transport delay model.
    pub latency: LatencyModel,
    /// Per-endpoint protocol options.
    pub process: PcbConfig,
    /// Anti-entropy recovery; `None` disables it (lossless transports
    /// don't need it).
    pub recovery: Option<RecoveryConfig>,
    /// Seed for key assignment and transport randomness.
    pub seed: u64,
}

impl ClusterConfig {
    /// A small cluster with the paper's clock shape scaled down and the
    /// fast latency model — convenient for demos and tests.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn quick(n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        Self {
            n,
            space: KeySpace::new(16, 2).expect("static space is valid"),
            policy: AssignmentPolicy::UniformRandom,
            latency: LatencyModel::fast(),
            process: PcbConfig::default(),
            recovery: None,
            seed: 1,
        }
    }

    /// A lossy cluster with anti-entropy recovery enabled — demonstrates
    /// the §4.2 recovery story end to end.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `loss` is outside `[0, 1)`.
    #[must_use]
    pub fn lossy_with_recovery(n: usize, loss: f64) -> Self {
        Self {
            latency: LatencyModel::lossy(loss),
            recovery: Some(RecoveryConfig::default()),
            ..Self::quick(n)
        }
    }

    /// Exact configuration: `(N, 1)` space with one distinct entry per
    /// node — vector-clock behaviour, zero causal violations.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn exact(n: usize) -> Self {
        Self {
            space: KeySpace::vector(n).expect("n >= 1"),
            policy: AssignmentPolicy::RoundRobin,
            ..Self::quick(n)
        }
    }
}

/// Errors starting a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// Key assignment failed.
    Assignment(pcb_clock::AssignmentError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Assignment(e) => write!(f, "cluster key assignment failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Assignment(e) => Some(e),
        }
    }
}

/// A running cluster of live nodes connected by the in-memory transport.
///
/// ```no_run
/// use pcb_runtime::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::<String>::start(ClusterConfig::quick(4))?;
/// cluster.node(0).broadcast("hello".to_string()).unwrap();
/// let delivery = cluster.node(1).deliveries().recv()?;
/// assert_eq!(delivery.message.payload(), "hello");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Cluster<P: Send + Clone + 'static> {
    nodes: Vec<NodeHandle<P>>,
    inboxes: Vec<Sender<Command<P>>>,
    router_tx: crossbeam::channel::Sender<RouterMsg<P>>,
    router_join: Option<std::thread::JoinHandle<()>>,
}

impl<P: Send + Clone + 'static> Cluster<P> {
    /// Spawns `config.n` node threads and the router.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Assignment`] if key assignment fails (e.g. the
    /// distinct policy over a too-small space).
    pub fn start(config: ClusterConfig) -> Result<Self, ClusterError> {
        let mut assigner = KeyAssigner::new(config.space, config.policy, config.seed);
        let keys = assigner.assign_n(config.n).map_err(ClusterError::Assignment)?;

        let (router_tx, router_rx) = unbounded::<RouterMsg<P>>();
        let epoch = Instant::now();

        let mut nodes = Vec::with_capacity(config.n);
        let mut inbox_senders = Vec::with_capacity(config.n);
        for (i, key_set) in keys.into_iter().enumerate() {
            let (handle, cmd_tx) = spawn_node(
                ProcessId::new(i),
                key_set,
                config.process.clone(),
                config.recovery,
                epoch,
                router_tx.clone(),
            );
            nodes.push(handle);
            inbox_senders.push(cmd_tx);
        }

        // The router feeds node command queues directly.
        let router_join = spawn_router(
            router_rx,
            inbox_senders.clone(),
            config.latency,
            config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        );

        Ok(Self { nodes, inboxes: inbox_senders, router_tx, router_join: Some(router_join) })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Handle to node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &NodeHandle<P> {
        &self.nodes[i]
    }

    /// Iterates over all node handles.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeHandle<P>> {
        self.nodes.iter()
    }

    /// Fault injection: crashes node `i` (see [`NodeHandle::crash`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crash(&self, i: usize) {
        self.nodes[i].crash();
    }

    /// Fault injection: recovers node `i` from its last durable snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn recover(&self, i: usize) {
        self.nodes[i].recover();
    }

    /// Fault injection: partitions the network into the given groups.
    /// Traffic — broadcasts and anti-entropy sync alike — no longer
    /// crosses group boundaries. Nodes in no group form an implicit
    /// extra group.
    pub fn set_partition(&self, groups: Vec<Vec<usize>>) {
        let _ = self.router_tx.send(RouterMsg::SetPartition { groups });
    }

    /// Fault injection: heals any active partition.
    pub fn heal(&self) {
        let _ = self.router_tx.send(RouterMsg::Heal);
    }

    /// Fault injection: opens (`Some`) or closes (`None`) a window of
    /// link-level misbehaviour — burst loss, duplication, reordering,
    /// corruption (≡ loss on this in-memory transport) — on every
    /// broadcast link.
    pub fn set_link_faults(&self, faults: Option<LinkFaults>) {
        let _ = self.router_tx.send(RouterMsg::SetLinkFaults(faults));
    }

    /// Replays a [`FaultPlan`] against this live cluster: a
    /// fault-controller thread walks the plan's events in wall-clock
    /// time (anchored at the moment of this call) and drives the
    /// transport router and node event loops. The same plan interpreted
    /// by the simulator produces the equivalent fault schedule in
    /// virtual time.
    ///
    /// Returns the controller thread's handle; join it to know the plan
    /// has fully fired. Shutting the cluster down early is safe — the
    /// controller's sends to dead channels are ignored.
    pub fn run_plan(&self, plan: &FaultPlan) -> std::thread::JoinHandle<()> {
        let events = plan.events.clone();
        let router_tx = self.router_tx.clone();
        let inboxes = self.inboxes.clone();
        let epoch = Instant::now();
        std::thread::Builder::new()
            .name("pcb-chaos".into())
            .spawn(move || {
                for event in events {
                    let due = epoch + Duration::from_secs_f64(event.at_ms.max(0.0) / 1000.0);
                    let wait = due.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    match event.kind {
                        FaultKind::Crash { node } => {
                            if let Some(inbox) = inboxes.get(node) {
                                let _ = inbox.send(Command::Crash);
                            }
                        }
                        FaultKind::Recover { node } => {
                            if let Some(inbox) = inboxes.get(node) {
                                let _ = inbox.send(Command::Recover);
                            }
                        }
                        FaultKind::PartitionStart { groups } => {
                            let _ = router_tx.send(RouterMsg::SetPartition { groups });
                        }
                        FaultKind::PartitionEnd => {
                            let _ = router_tx.send(RouterMsg::Heal);
                        }
                        FaultKind::LinkFaultStart { faults } => {
                            let _ = router_tx.send(RouterMsg::SetLinkFaults(Some(faults)));
                        }
                        FaultKind::LinkFaultEnd => {
                            let _ = router_tx.send(RouterMsg::SetLinkFaults(None));
                        }
                        FaultKind::Leave { node } => {
                            if let Some(inbox) = inboxes.get(node) {
                                let _ = inbox.send(Command::Leave);
                            }
                        }
                        FaultKind::Reconfigure { r, k } => {
                            // Announce to every node, mirroring the
                            // simulator; laggards converge through the
                            // sync-carried config piggyback anyway.
                            for inbox in &inboxes {
                                let _ = inbox.send(Command::Reconfigure { r, k });
                            }
                        }
                        // The in-memory cluster's node set is fixed at
                        // spawn; join plans run on the simulator and the
                        // daemon planes, which can mint endpoints.
                        FaultKind::Join { .. } => {}
                    }
                }
            })
            .expect("spawn chaos controller thread")
    }

    /// One Prometheus-text exposition page covering every node: each row
    /// of [`EndpointStatus::rows`] as a `pcb_node_*` family, one sample
    /// per node labelled `node="i"`. Blocks for one loop turn per node;
    /// crashed nodes still answer. The page passes
    /// [`pcb_telemetry::validate`].
    #[must_use]
    pub fn metrics_text(&self) -> String {
        render_metrics(&gather_statuses(&self.inboxes))
    }

    /// Drains every node's lifecycle trace ring and merges the records
    /// into one wall-clock-ordered stream (stable on ties, so each
    /// node's emission order is preserved). Empty unless
    /// `ClusterConfig::process.trace_capacity` is non-zero.
    #[must_use]
    pub fn drain_traces(&self) -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for node in &self.nodes {
            records.extend(node.drain_trace());
        }
        records.sort_by_key(|r| r.time);
        records
    }

    /// Cluster-wide recovery-health totals (syncs, re-fetches,
    /// snapshots) — the sum of every node's [`EndpointStatus::recovery`].
    #[must_use]
    pub fn recovery_totals(&self) -> Counters {
        let mut totals = Counters::default();
        for (_, status) in gather_statuses(&self.inboxes) {
            totals.merge(&status.recovery);
        }
        totals
    }

    /// Spawns a thread that renders [`Cluster::metrics_text`] every
    /// `every` and hands the page to `sink` (write it to a file, a
    /// socket, stdout…). The dump stops when the returned handle is
    /// dropped or [`MetricsDump::stop`] is called; it also exits on its
    /// own once the cluster shuts down.
    pub fn spawn_metrics_dump<F>(&self, every: Duration, mut sink: F) -> MetricsDump
    where
        F: FnMut(String) + Send + 'static,
    {
        let inboxes = self.inboxes.clone();
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let join = std::thread::Builder::new()
            .name("pcb-metrics-dump".into())
            .spawn(move || loop {
                match stop_rx.recv_timeout(every) {
                    Err(RecvTimeoutError::Timeout) => {
                        let statuses = gather_statuses(&inboxes);
                        if statuses.is_empty() {
                            return; // every node gone: cluster shut down
                        }
                        sink(render_metrics(&statuses));
                    }
                    _ => return, // stop requested or handle dropped
                }
            })
            .expect("spawn metrics dump thread");
        MetricsDump { stop_tx, join: Some(join) }
    }

    /// Stops every node and the router, joining all threads.
    pub fn shutdown(mut self) {
        for node in &mut self.nodes {
            node.shutdown();
        }
        let _ = self.router_tx.send(RouterMsg::Shutdown);
        if let Some(join) = self.router_join.take() {
            let _ = join.join();
        }
    }
}

impl<P: Send + Clone + 'static> Drop for Cluster<P> {
    fn drop(&mut self) {
        let _ = self.router_tx.send(RouterMsg::Shutdown);
        if let Some(join) = self.router_join.take() {
            let _ = join.join();
        }
        // NodeHandle::drop shuts each node down.
    }
}

/// Handle to a periodic metrics-dump thread
/// ([`Cluster::spawn_metrics_dump`]). Dropping it stops the dump.
#[derive(Debug)]
pub struct MetricsDump {
    stop_tx: Sender<()>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl MetricsDump {
    /// Stops the dump thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let _ = self.stop_tx.send(());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MetricsDump {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Queries every node that still answers, in node order.
fn gather_statuses<P: Send + Clone + 'static>(
    inboxes: &[Sender<Command<P>>],
) -> Vec<(usize, EndpointStatus)> {
    let mut statuses = Vec::with_capacity(inboxes.len());
    for (i, inbox) in inboxes.iter().enumerate() {
        let (tx, rx) = bounded(1);
        if inbox.send(Command::Query(tx)).is_ok() {
            if let Ok(status) = rx.recv() {
                statuses.push((i, status));
            }
        }
    }
    statuses
}

/// Renders gathered statuses as one Prometheus exposition page.
fn render_metrics(statuses: &[(usize, EndpointStatus)]) -> String {
    let series: Vec<_> = statuses.iter().map(|(i, s)| (i.to_string(), s.rows())).collect();
    let mut w = PromWriter::new();
    w.rows("pcb_node_", &series);
    w.into_text()
}
