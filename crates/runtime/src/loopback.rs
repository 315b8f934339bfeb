//! Deterministic in-process loopback cluster for differential testing.
//!
//! A [`LoopbackCluster`] hosts one production
//! [`Endpoint`](pcb_broadcast::Endpoint) per node — the same sans-IO
//! state machine [`crate::daemon`] wraps with sockets and a disk — but
//! drives them synchronously from an explicit input log instead of live
//! IO. Feeding it the `(time, node, input)` log captured by a simulator
//! chaos run (`pcb_sim::record_endpoint_chaos`) replays the exact same
//! protocol history through the runtime's construction path, so the two
//! shells can be diffed bit-for-bit: same delivery order, same alert
//! flags, same recovery counters. Any divergence means a shell leaked
//! policy into the protocol (or vice versa) and fails the equivalence
//! suite.

use pcb_broadcast::endpoint::{Input, Output};
use pcb_broadcast::{Counters, Endpoint, MessageId, PcbConfig, RecoveryTimingUs};
use pcb_clock::{KeySet, ProcessId};

/// A synchronous cluster of production endpoints, driven entirely by
/// [`LoopbackCluster::apply`] calls with caller-supplied timestamps.
pub struct LoopbackCluster {
    nodes: Vec<Endpoint<u32>>,
    deliveries: Vec<Vec<(MessageId, bool, bool)>>,
}

impl LoopbackCluster {
    /// Builds one endpoint per entry of `keys`, all sharing `config` and
    /// `timing` — the same constructor arguments the daemon and the
    /// simulator's chaos driver use.
    #[must_use]
    pub fn new(keys: &[KeySet], config: &PcbConfig, timing: RecoveryTimingUs) -> Self {
        let nodes: Vec<Endpoint<u32>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Endpoint::new(ProcessId::new(i), k.clone(), config.clone(), Some(timing)))
            .collect();
        let deliveries = vec![Vec::new(); nodes.len()];
        Self { nodes, deliveries }
    }

    /// Feeds `input` to `node` at virtual time `now_us`, recording every
    /// resulting delivery. Wire-bound outputs (frames, sync traffic,
    /// tick re-arms) are dropped: a replayed log already contains
    /// everything that reached each node.
    pub fn apply(&mut self, node: u32, input: Input<u32>, now_us: u64) {
        for output in self.nodes[node as usize].handle(input, now_us) {
            if let Output::Deliver(d) = output {
                self.deliveries[node as usize].push((
                    d.message.id(),
                    d.instant_alert,
                    d.recent_alert,
                ));
            }
        }
    }

    /// Replays a whole `(now_us, node, input)` log in order.
    pub fn replay(&mut self, log: impl IntoIterator<Item = (u64, u32, Input<u32>)>) {
        for (now, node, input) in log {
            self.apply(node, input, now);
        }
    }

    /// Per-node delivery digests in delivery order:
    /// `(id, instant_alert, recent_alert)`.
    #[must_use]
    pub fn deliveries(&self) -> &[Vec<(MessageId, bool, bool)>] {
        &self.deliveries
    }

    /// Per-node recovery counters.
    #[must_use]
    pub fn counters(&self) -> Vec<Counters> {
        self.nodes.iter().map(Endpoint::recovery_counters).collect()
    }
}
