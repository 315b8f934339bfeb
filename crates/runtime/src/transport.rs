//! In-memory latency-injecting transport.
//!
//! A router thread receives every broadcast and forwards it to each other
//! node after a randomized delay following the paper's network model: a
//! per-message Gaussian base delay plus per-receiver Gaussian skew. This
//! gives the live runtime the same arrival-order statistics as the
//! simulator, over real threads and channels. The router can also drop
//! deliveries (lossy links) and carries the anti-entropy sync traffic
//! between nodes.

use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pcb_broadcast::{Message, SeenWindows};
use pcb_clock::{ClusterConfig, ProcessId};
use pcb_sim::LinkFaults;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::node::Command;

/// Randomized delay model (all durations wall-clock).
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Mean propagation delay `μ`.
    pub mean: Duration,
    /// Per-message deviation `σ`.
    pub sigma: Duration,
    /// Per-receiver skew deviation `σ_m`.
    pub skew_sigma: Duration,
    /// Minimum effective delay.
    pub floor: Duration,
    /// Probability that a delivery is silently dropped (no retransmit —
    /// recovery is the anti-entropy layer's job).
    pub loss_probability: f64,
}

impl LatencyModel {
    /// The paper's model scaled down 10× for fast live runs:
    /// `d ~ N(10ms, 2ms)`, skew `N(d, 2ms)`, no loss.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            mean: Duration::from_millis(10),
            sigma: Duration::from_millis(2),
            skew_sigma: Duration::from_millis(2),
            floor: Duration::from_micros(100),
            loss_probability: 0.0,
        }
    }

    /// Zero-ish latency (floor only) — maximal throughput stress.
    #[must_use]
    pub fn instant() -> Self {
        Self {
            mean: Duration::from_micros(100),
            sigma: Duration::ZERO,
            skew_sigma: Duration::ZERO,
            floor: Duration::from_micros(10),
            loss_probability: 0.0,
        }
    }

    /// [`LatencyModel::fast`] with the given delivery-loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `loss` is in `[0, 1)`.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss probability must be in [0, 1)");
        Self { loss_probability: loss, ..Self::fast() }
    }

    fn sample_base(&self, rng: &mut StdRng) -> Duration {
        sample_normal(rng, self.mean, self.sigma, self.floor)
    }

    fn sample_skewed(&self, rng: &mut StdRng, base: Duration) -> Duration {
        sample_normal(rng, base, self.skew_sigma, self.floor)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::fast()
    }
}

fn sample_normal(rng: &mut StdRng, mu: Duration, sigma: Duration, floor: Duration) -> Duration {
    // Box-Muller without spare caching (transport rates are modest).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let secs = mu.as_secs_f64() + sigma.as_secs_f64() * z;
    Duration::from_secs_f64(secs.max(floor.as_secs_f64()))
}

/// Messages accepted by the router thread.
pub(crate) enum RouterMsg<P> {
    /// Fan this broadcast out to every node except the sender.
    Broadcast {
        /// Originating node.
        from: ProcessId,
        /// The stamped message.
        message: Message<P>,
    },
    /// Anti-entropy: forward this sync request to one random other node.
    SyncRequest {
        /// The node asking for its missing messages.
        from: ProcessId,
        /// The requester's dedup windows.
        windows: SeenWindows,
    },
    /// Anti-entropy: deliver these missing messages to `to`.
    SyncResponse {
        /// The peer serving the response (partition rules apply to it).
        from: ProcessId,
        /// The original requester.
        to: ProcessId,
        /// The messages it was missing.
        messages: Vec<Message<P>>,
        /// The replier's cluster configuration (config-epoch catch-up).
        config: ClusterConfig,
    },
    /// Fault controller: split the network. Nodes in different groups can
    /// no longer exchange anything — broadcasts *or* anti-entropy sync.
    /// Nodes not listed in any group form one implicit extra group.
    SetPartition {
        /// Disjoint groups of node indices that can still talk internally.
        groups: Vec<Vec<usize>>,
    },
    /// Fault controller: the partition heals; all links work again.
    Heal,
    /// Fault controller: open (`Some`) or close (`None`) a window of
    /// link-level misbehaviour on every broadcast link. Corrupted frames
    /// would be rejected by the wire checksum on a real network, so the
    /// in-memory transport treats corruption as loss.
    SetLinkFaults(Option<LinkFaults>),
    /// Stop the router (in-flight messages are dropped).
    Shutdown,
}

/// Group id per node under the active partition; ungrouped nodes share
/// one implicit extra group.
fn group_map(groups: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut map = vec![groups.len(); n];
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            if m < n {
                map[m] = g;
            }
        }
    }
    map
}

struct Scheduled<P> {
    due: Instant,
    seq: u64,
    target: usize,
    command: Command<P>,
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<P> Eq for Scheduled<P> {}

impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap pops the earliest deadline first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Spawns the router thread, delivering into each node's command queue.
pub(crate) fn spawn_router<P: Clone + Send + 'static>(
    rx: Receiver<RouterMsg<P>>,
    inboxes: Vec<Sender<Command<P>>>,
    latency: LatencyModel,
    seed: u64,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("pcb-router".into())
        .spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut heap: BinaryHeap<Scheduled<P>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut sync_rotation = 0usize;
            // Chaos state, driven by the fault-controller messages.
            let mut partition: Option<Vec<usize>> = None;
            let mut link: Option<LinkFaults> = None;
            let severed = |partition: &Option<Vec<usize>>, a: usize, b: usize| {
                partition.as_ref().is_some_and(|map| map[a] != map[b])
            };
            loop {
                // Flush everything due.
                let now = Instant::now();
                while heap.peek().is_some_and(|s| s.due <= now) {
                    let s = heap.pop().expect("peeked");
                    // A closed inbox just means that node shut down first.
                    let _ = inboxes[s.target].send(s.command);
                }
                let wait = heap.peek().map(|s| s.due.saturating_duration_since(Instant::now()));
                let incoming = match wait {
                    Some(w) => match rx.recv_timeout(w) {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => None,
                    },
                    None => rx.recv().ok(),
                };
                let now = Instant::now();
                match incoming {
                    Some(RouterMsg::Broadcast { from, message }) => {
                        // Fan-out shares, never copies: `message.clone()`
                        // below bumps refcounts — the R-entry stamp lives
                        // behind `Timestamp`'s copy-on-write `Arc` and a
                        // `Bytes` payload is a slice handle — so one
                        // broadcast materializes one stamp and one payload
                        // no matter how many receivers it reaches (the
                        // cluster test `fanout_shares_one_stamp_and_payload`
                        // pins this down by pointer identity).
                        let base = latency.sample_base(&mut rng);
                        for (target, _) in inboxes.iter().enumerate() {
                            if target == from.index() {
                                continue;
                            }
                            if severed(&partition, from.index(), target) {
                                continue; // partitioned away
                            }
                            if latency.loss_probability > 0.0
                                && rng.random::<f64>() < latency.loss_probability
                            {
                                continue; // dropped on the wire
                            }
                            let mut delay = latency.sample_skewed(&mut rng, base);
                            if let Some(faults) = link {
                                // Corruption is detected by the wire
                                // checksum and discarded, so it degrades
                                // to loss on this in-memory transport.
                                if rng.random::<f64>() < faults.drop
                                    || rng.random::<f64>() < faults.corrupt
                                {
                                    continue;
                                }
                                if rng.random::<f64>() < faults.reorder {
                                    delay += Duration::from_secs_f64(
                                        faults.reorder_extra_ms.max(0.0) / 1000.0,
                                    );
                                }
                                if rng.random::<f64>() < faults.dup {
                                    let extra = Duration::from_secs_f64(
                                        faults.reorder_extra_ms.max(1.0) / 1000.0,
                                    );
                                    seq += 1;
                                    heap.push(Scheduled {
                                        due: now + delay + extra,
                                        seq,
                                        target,
                                        command: Command::Incoming(message.clone()),
                                    });
                                }
                            }
                            seq += 1;
                            heap.push(Scheduled {
                                due: now + delay,
                                seq,
                                target,
                                command: Command::Incoming(message.clone()),
                            });
                        }
                    }
                    Some(RouterMsg::SyncRequest { from, windows }) => {
                        // Sync traffic is unicast and assumed reliable
                        // (e.g. TCP). Targets rotate so a retrying
                        // requester reaches every peer within n-1 rounds
                        // — a random pick can starve the one peer that
                        // still holds a trailing loss. Under a partition
                        // only same-group peers are reachable; with none,
                        // the request is dropped and the requester's
                        // in-flight timeout re-arms it.
                        let reachable: Vec<usize> = (0..inboxes.len())
                            .filter(|&t| t != from.index() && !severed(&partition, from.index(), t))
                            .collect();
                        if !reachable.is_empty() {
                            sync_rotation += 1;
                            let target = reachable[sync_rotation % reachable.len()];
                            let delay = latency.sample_base(&mut rng);
                            seq += 1;
                            heap.push(Scheduled {
                                due: now + delay,
                                seq,
                                target,
                                command: Command::SyncRequest { from, windows },
                            });
                        }
                    }
                    Some(RouterMsg::SyncResponse { from, to, messages, config }) => {
                        // A response crossing a partition boundary (the
                        // split landed between request and reply) is lost;
                        // the requester's timeout recovers.
                        if !severed(&partition, from.index(), to.index()) {
                            let delay = latency.sample_base(&mut rng);
                            seq += 1;
                            heap.push(Scheduled {
                                due: now + delay,
                                seq,
                                target: to.index(),
                                command: Command::SyncResponse { messages, config },
                            });
                        }
                    }
                    Some(RouterMsg::SetPartition { groups }) => {
                        partition = Some(group_map(&groups, inboxes.len()));
                    }
                    Some(RouterMsg::Heal) => partition = None,
                    Some(RouterMsg::SetLinkFaults(faults)) => link = faults,
                    Some(RouterMsg::Shutdown) | None => break,
                }
            }
        })
        .expect("spawn router thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_samples_respect_floor() {
        let model = LatencyModel {
            mean: Duration::from_millis(1),
            sigma: Duration::from_millis(5),
            skew_sigma: Duration::from_millis(5),
            floor: Duration::from_micros(500),
            loss_probability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let base = model.sample_base(&mut rng);
            assert!(base >= model.floor);
            assert!(model.sample_skewed(&mut rng, base) >= model.floor);
        }
    }

    #[test]
    fn latency_mean_roughly_matches() {
        let model = LatencyModel::fast();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| model.sample_base(&mut rng).as_secs_f64()).sum();
        let mean_ms = total / n as f64 * 1000.0;
        assert!((mean_ms - 10.0).abs() < 0.5, "mean {mean_ms} ms");
    }

    #[test]
    fn presets_are_sane() {
        assert!(LatencyModel::default().mean > LatencyModel::instant().mean);
        assert!((LatencyModel::lossy(0.25).loss_probability - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn lossy_rejects_out_of_range() {
        let _ = LatencyModel::lossy(1.0);
    }
}
