//! Deterministic fault plans for chaos runs.
//!
//! A [`FaultPlan`] is a seedable schedule of fault events — crashes,
//! recoveries, network partitions, link-level misbehaviour (burst loss,
//! duplication, reordering, corruption) and membership churn. The
//! simulation engine interprets the plan inside its event loop; the
//! daemon certification harness replays a recorded run of it against
//! real processes. Plans generate deterministically from a seed, so any
//! failing chaos run replays bit-identically from its seed alone
//! (`scripts/replay.sh`); [`FaultPlan::to_text`] renders one for people
//! to read.

use crate::rng::{derive_seed, SimRng};

/// Link-level fault rates, applied per transmission while a
/// [`FaultKind::LinkFaultStart`] window is open. All probabilities are
/// independent per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is dropped outright (burst loss).
    pub drop: f64,
    /// Probability a frame is duplicated (the copy arrives later; the
    /// receiver's dedup layer must suppress it).
    pub dup: f64,
    /// Probability a frame is delayed by [`Self::reorder_extra_ms`],
    /// overtaking later traffic.
    pub reorder: f64,
    /// Extra delay applied to reordered (and duplicated) frames, ms.
    pub reorder_extra_ms: f64,
    /// Probability a frame is corrupted in flight. The wire checksum
    /// detects this and the frame is discarded, so corruption behaves
    /// like loss — but it exercises the decode-hardening path.
    pub corrupt: f64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self { drop: 0.0, dup: 0.0, reorder: 0.0, reorder_extra_ms: 50.0, corrupt: 0.0 }
    }
}

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The node halts: it loses its in-memory state (pending queue,
    /// anything past its last snapshot) and stops receiving.
    Crash {
        /// Index of the crashing node.
        node: usize,
    },
    /// The node restarts from its last durable snapshot and catches up
    /// through anti-entropy.
    Recover {
        /// Index of the recovering node.
        node: usize,
    },
    /// The network splits: traffic crosses group boundaries no more
    /// (including anti-entropy sync). Nodes not listed in any group form
    /// one implicit extra group.
    PartitionStart {
        /// Disjoint groups of node indices that can still talk internally.
        groups: Vec<Vec<usize>>,
    },
    /// The partition heals; all links work again.
    PartitionEnd,
    /// A window of link-level misbehaviour opens on every link.
    LinkFaultStart {
        /// The rates in force until the matching [`FaultKind::LinkFaultEnd`].
        faults: LinkFaults,
    },
    /// The link-fault window closes.
    LinkFaultEnd,
    /// A newcomer enters the cluster via a snapshot-assisted join: the
    /// sponsor cuts a `JoinGrant` (state-transfer snapshot, keys drawn in
    /// the current epoch's space, config in force) and the newcomer's
    /// endpoint is built from it. `node` may exceed the run's initial `n`
    /// — joins are how a plan grows the cluster.
    Join {
        /// Index of the joining node (must not already be a member).
        node: usize,
        /// The live member that sponsors the join (cuts the grant).
        sponsor: usize,
    },
    /// A member departs gracefully: its endpoint goes terminally silent
    /// (`Input::Leave`) and the config plane retires it. Unlike a crash
    /// there is no recovery — but the streams it sent while a member must
    /// still converge everywhere.
    Leave {
        /// Index of the departing node.
        node: usize,
    },
    /// The config plane announces a new `(R, K)` key space: every live
    /// member migrates its clock into the new geometry and fences sends
    /// on the new config epoch. Crashed members miss the announcement and
    /// must catch up through the sync-carried config.
    Reconfigure {
        /// New clock-vector length `R`.
        r: usize,
        /// New keys-per-process `K`.
        k: usize,
    },
}

/// A fault at a point in virtual (sim) or wall-clock (runtime) time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, in milliseconds from run start.
    pub at_ms: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A full, deterministic schedule of faults for one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The fault events, sorted by [`FaultEvent::at_ms`].
    pub events: Vec<FaultEvent>,
    /// Period of the durable snapshots every node takes (ms). A
    /// recovering node resumes from its last snapshot, so this bounds how
    /// much state a crash can lose.
    pub snapshot_every_ms: f64,
    /// Period of each node's anti-entropy sync probe (ms). Convergence
    /// after a partition heals takes a bounded number of these rounds.
    pub sync_interval_ms: f64,
}

impl FaultPlan {
    /// An empty plan with the given snapshot and sync periods.
    #[must_use]
    pub fn new(snapshot_every_ms: f64, sync_interval_ms: f64) -> Self {
        Self { events: Vec::new(), snapshot_every_ms, sync_interval_ms }
    }

    /// Appends an event (builder style). Events must be appended in
    /// non-decreasing `at_ms` order; [`Self::validate`] enforces it.
    #[must_use]
    pub fn with_event(mut self, at_ms: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_ms, kind });
        self
    }

    /// Splits `0..n` into `ways` contiguous groups — a convenient
    /// partition shape for tests and generated plans.
    #[must_use]
    pub fn split_groups(n: usize, ways: usize) -> Vec<Vec<usize>> {
        let ways = ways.clamp(1, n.max(1));
        (0..ways)
            .map(|g| (n * g / ways..n * (g + 1) / ways).collect())
            .filter(|v: &Vec<usize>| !v.is_empty())
            .collect()
    }

    /// Generates a deterministic random plan from `seed`: one
    /// crash/recover pair, one multi-way partition window, and one
    /// link-fault window, all inside `[start_ms, end_ms)`. Same seed,
    /// same plan — this is the contract `scripts/replay.sh` relies on.
    #[must_use]
    pub fn random(seed: u64, n: usize, start_ms: f64, end_ms: f64) -> Self {
        let mut rng = SimRng::new(derive_seed(seed, 0xFA17));
        let span = (end_ms - start_ms).max(1.0);
        let cap = |t: f64| t.min(end_ms - span * 0.02);
        let mut events = Vec::new();

        // A link-fault window early on, so loss/dup/reorder stress the
        // steady state before the structural faults hit.
        let lf_start = start_ms + span * (0.02 + 0.08 * rng.uniform_open());
        let lf_end = cap(lf_start + span * (0.2 + 0.2 * rng.uniform_open()));
        let faults = LinkFaults {
            drop: 0.05 + 0.10 * rng.uniform_open(),
            dup: 0.05 + 0.10 * rng.uniform_open(),
            reorder: 0.05 + 0.10 * rng.uniform_open(),
            reorder_extra_ms: 30.0 + 50.0 * rng.uniform_open(),
            corrupt: 0.02 + 0.05 * rng.uniform_open(),
        };
        events.push(FaultEvent { at_ms: lf_start, kind: FaultKind::LinkFaultStart { faults } });
        events.push(FaultEvent { at_ms: lf_end, kind: FaultKind::LinkFaultEnd });

        // One crash/recover pair.
        let node = rng.index(n);
        let t_crash = start_ms + span * (0.15 + 0.15 * rng.uniform_open());
        let t_recover = cap(t_crash + span * (0.15 + 0.15 * rng.uniform_open()));
        events.push(FaultEvent { at_ms: t_crash, kind: FaultKind::Crash { node } });
        events.push(FaultEvent { at_ms: t_recover, kind: FaultKind::Recover { node } });

        // One partition window (3-way when the cluster is big enough).
        let ways = if n >= 6 { 3 } else { 2 };
        let t_split = start_ms + span * (0.45 + 0.1 * rng.uniform_open());
        let t_heal = cap(t_split + span * (0.15 + 0.15 * rng.uniform_open()));
        let groups = Self::split_groups(n, ways);
        events.push(FaultEvent { at_ms: t_split, kind: FaultKind::PartitionStart { groups } });
        events.push(FaultEvent { at_ms: t_heal, kind: FaultKind::PartitionEnd });

        events.sort_by(|a, b| a.at_ms.partial_cmp(&b.at_ms).expect("finite times"));
        Self { events, snapshot_every_ms: 250.0, sync_interval_ms: 200.0 }
    }

    /// Generates a deterministic churn storm: joins and leaves arriving
    /// uniformly over `[start_ms, end_ms)` at a combined rate of
    /// `churn_pct_per_min` percent of the initial membership per minute
    /// (the EXPERIMENTS.md recipe sweeps 10–50). Joiners take fresh ids
    /// `n, n+1, ...`; leavers are drawn from the current membership,
    /// never dropping it below `max(2, n/2)` so traffic keeps flowing.
    /// Same seed, same plan.
    #[must_use]
    pub fn churn_storm(
        seed: u64,
        n: usize,
        churn_pct_per_min: f64,
        start_ms: f64,
        end_ms: f64,
    ) -> Self {
        let mut rng = SimRng::new(derive_seed(seed, 0xC4A2));
        let span = (end_ms - start_ms).max(1.0);
        let events_total =
            (n as f64 * churn_pct_per_min / 100.0 * span / 60_000.0).round().max(2.0) as usize;
        let floor = (n / 2).max(2);
        let mut present: Vec<usize> = (0..n).collect();
        let mut next_id = n;
        let mut plan = Self::new(250.0, 200.0);
        for i in 0..events_total {
            let at = start_ms + span * (i as f64 + 0.5) / events_total as f64;
            let join = present.len() <= floor || rng.uniform_open() < 0.5;
            if join {
                let sponsor = present[rng.index(present.len())];
                plan = plan.with_event(at, FaultKind::Join { node: next_id, sponsor });
                present.push(next_id);
                next_id += 1;
            } else {
                let victim = present.swap_remove(rng.index(present.len()));
                plan = plan.with_event(at, FaultKind::Leave { node: victim });
            }
        }
        plan
    }

    /// Generates a flash crowd: `joiners` newcomers (ids `n..n+joiners`)
    /// joining over `[at_ms, at_ms + spread_ms)`, sponsored round-robin
    /// by the initial members. Deterministic without a seed.
    #[must_use]
    pub fn flash_crowd(n: usize, joiners: usize, at_ms: f64, spread_ms: f64) -> Self {
        let mut plan = Self::new(250.0, 200.0);
        for i in 0..joiners {
            let at = at_ms + spread_ms * i as f64 / joiners.max(1) as f64;
            plan = plan.with_event(at, FaultKind::Join { node: n + i, sponsor: i % n });
        }
        plan
    }

    /// The total number of node slots an `n`-node run of this plan needs:
    /// `n` grown to cover the highest [`FaultKind::Join`] target. Equal to
    /// `n` for plans without joins.
    #[must_use]
    pub fn n_total(&self, n: usize) -> usize {
        self.events.iter().fold(n, |acc, ev| match ev.kind {
            FaultKind::Join { node, .. } => acc.max(node + 1),
            _ => acc,
        })
    }

    /// Checks the plan is well-formed for an `n`-node run of
    /// `duration_ms`: events sorted and in range, crash/recover and
    /// partition/heal properly paired, joins targeting non-members with
    /// live sponsors, leaves and crashes keeping at least two members
    /// alive, partition groups disjoint, rates in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self, n: usize, duration_ms: f64) -> Result<(), String> {
        let bad = |v: f64| v.is_nan() || v <= 0.0;
        if bad(self.snapshot_every_ms) {
            return Err("snapshot_every_ms must be positive".into());
        }
        if bad(self.sync_interval_ms) {
            return Err("sync_interval_ms must be positive".into());
        }
        let n_total = self.n_total(n);
        // Membership state machine: a slot is a member from run start
        // (index < n) or its Join until its Leave; crashes only suspend.
        let mut member: Vec<bool> = (0..n_total).map(|i| i < n).collect();
        let mut crashed = vec![false; n_total];
        let mut alive = n; // members not currently crashed
        let mut partitioned = false;
        let mut link_faulted = false;
        let mut prev = 0.0f64;
        for ev in &self.events {
            if ev.at_ms.is_nan() || ev.at_ms < 0.0 || ev.at_ms >= duration_ms {
                return Err(format!("event time {} outside [0, {duration_ms})", ev.at_ms));
            }
            if ev.at_ms < prev {
                return Err("events must be sorted by at_ms".into());
            }
            prev = ev.at_ms;
            match &ev.kind {
                FaultKind::Crash { node } => {
                    if *node >= n_total || !member[*node] {
                        return Err(format!("crash of node {node} which is not a member"));
                    }
                    if crashed[*node] {
                        return Err(format!("node {node} crashed twice without recovering"));
                    }
                    crashed[*node] = true;
                    alive -= 1;
                    if alive < 2 {
                        return Err("a crash may not leave fewer than 2 nodes alive".into());
                    }
                }
                FaultKind::Recover { node } => {
                    if *node >= n_total || !crashed[*node] {
                        return Err(format!("recover of node {node} which is not crashed"));
                    }
                    crashed[*node] = false;
                    alive += 1;
                }
                FaultKind::Join { node, sponsor } => {
                    if member[*node] {
                        return Err(format!("join of node {node} which is already a member"));
                    }
                    if *sponsor >= n_total || !member[*sponsor] || crashed[*sponsor] {
                        return Err(format!("join of node {node} sponsored by {sponsor}, which is not a live member"));
                    }
                    member[*node] = true;
                    alive += 1;
                }
                FaultKind::Leave { node } => {
                    if *node >= n_total || !member[*node] {
                        return Err(format!("leave of node {node} which is not a member"));
                    }
                    if crashed[*node] {
                        return Err(format!("leave of node {node} while it is crashed"));
                    }
                    member[*node] = false;
                    alive -= 1;
                    if alive < 2 {
                        return Err("a leave may not leave fewer than 2 nodes alive".into());
                    }
                }
                FaultKind::Reconfigure { r, k } => {
                    if *r == 0 || *k == 0 || k > r {
                        return Err(format!(
                            "reconfigure to invalid space ({r}, {k}): need 1 <= k <= r"
                        ));
                    }
                }
                FaultKind::PartitionStart { groups } => {
                    if partitioned {
                        return Err("nested partitions are not supported".into());
                    }
                    partitioned = true;
                    if groups.len() < 2 {
                        return Err("a partition needs at least 2 groups".into());
                    }
                    let mut seen = vec![false; n_total];
                    for g in groups {
                        if g.is_empty() {
                            return Err("partition groups must be non-empty".into());
                        }
                        for &m in g {
                            if m >= n_total {
                                return Err(format!("partition member {m} out of range"));
                            }
                            if seen[m] {
                                return Err(format!("node {m} appears in two partition groups"));
                            }
                            seen[m] = true;
                        }
                    }
                }
                FaultKind::PartitionEnd => {
                    if !partitioned {
                        return Err("partition heal without an open partition".into());
                    }
                    partitioned = false;
                }
                FaultKind::LinkFaultStart { faults } => {
                    if link_faulted {
                        return Err("nested link-fault windows are not supported".into());
                    }
                    link_faulted = true;
                    let rate_ok = |r: f64| (0.0..1.0).contains(&r);
                    if !rate_ok(faults.drop)
                        || !rate_ok(faults.dup)
                        || !rate_ok(faults.reorder)
                        || !rate_ok(faults.corrupt)
                    {
                        return Err("link-fault rates must be in [0, 1)".into());
                    }
                    if faults.reorder_extra_ms.is_nan() || faults.reorder_extra_ms < 0.0 {
                        return Err("reorder_extra_ms must be non-negative".into());
                    }
                }
                FaultKind::LinkFaultEnd => {
                    if !link_faulted {
                        return Err("link-fault end without an open window".into());
                    }
                    link_faulted = false;
                }
            }
        }
        Ok(())
    }

    /// Renders the plan as one line per event, for logs: the chaos soak
    /// prints it beside each seed. Replay is by seed, not by this text.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("faultplan v1\n");
        let _ = writeln!(out, "snapshot_every_ms {}", self.snapshot_every_ms);
        let _ = writeln!(out, "sync_interval_ms {}", self.sync_interval_ms);
        for ev in &self.events {
            match &ev.kind {
                FaultKind::Crash { node } => {
                    let _ = writeln!(out, "crash {node} @ {}", ev.at_ms);
                }
                FaultKind::Recover { node } => {
                    let _ = writeln!(out, "recover {node} @ {}", ev.at_ms);
                }
                FaultKind::PartitionStart { groups } => {
                    let rendered: Vec<String> = groups
                        .iter()
                        .map(|g| g.iter().map(ToString::to_string).collect::<Vec<_>>().join(","))
                        .collect();
                    let _ = writeln!(out, "partition {} @ {}", rendered.join("|"), ev.at_ms);
                }
                FaultKind::PartitionEnd => {
                    let _ = writeln!(out, "heal @ {}", ev.at_ms);
                }
                FaultKind::LinkFaultStart { faults } => {
                    let _ = writeln!(
                        out,
                        "linkfault drop={} dup={} reorder={} reorder_ms={} corrupt={} @ {}",
                        faults.drop,
                        faults.dup,
                        faults.reorder,
                        faults.reorder_extra_ms,
                        faults.corrupt,
                        ev.at_ms
                    );
                }
                FaultKind::LinkFaultEnd => {
                    let _ = writeln!(out, "linkclear @ {}", ev.at_ms);
                }
                FaultKind::Join { node, sponsor } => {
                    let _ = writeln!(out, "join {node} {sponsor} @ {}", ev.at_ms);
                }
                FaultKind::Leave { node } => {
                    let _ = writeln!(out, "leave {node} @ {}", ev.at_ms);
                }
                FaultKind::Reconfigure { r, k } => {
                    let _ = writeln!(out, "reconfigure {r} {k} @ {}", ev.at_ms);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::new(250.0, 200.0)
            .with_event(
                500.0,
                FaultKind::LinkFaultStart {
                    faults: LinkFaults { drop: 0.1, dup: 0.05, ..LinkFaults::default() },
                },
            )
            .with_event(900.0, FaultKind::LinkFaultEnd)
            .with_event(1000.0, FaultKind::Crash { node: 3 })
            .with_event(
                2000.0,
                FaultKind::PartitionStart {
                    groups: vec![vec![0, 1, 2], vec![4, 5], vec![6, 7, 8]],
                },
            )
            .with_event(2500.0, FaultKind::Recover { node: 3 })
            .with_event(3000.0, FaultKind::PartitionEnd)
    }

    #[test]
    fn to_text_renders_one_line_per_event() {
        let plan = sample()
            .with_event(3100.0, FaultKind::Join { node: 9, sponsor: 1 })
            .with_event(3200.0, FaultKind::Reconfigure { r: 64, k: 3 })
            .with_event(3300.0, FaultKind::Leave { node: 0 });
        assert_eq!(
            plan.to_text(),
            "faultplan v1\nsnapshot_every_ms 250\nsync_interval_ms 200\n\
             linkfault drop=0.1 dup=0.05 reorder=0 reorder_ms=50 corrupt=0 @ 500\n\
             linkclear @ 900\ncrash 3 @ 1000\npartition 0,1,2|4,5|6,7,8 @ 2000\n\
             recover 3 @ 2500\nheal @ 3000\njoin 9 1 @ 3100\nreconfigure 64 3 @ 3200\n\
             leave 0 @ 3300\n"
        );
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        for seed in [1u64, 2, 0xC0FFEE] {
            let a = FaultPlan::random(seed, 9, 500.0, 8000.0);
            let b = FaultPlan::random(seed, 9, 500.0, 8000.0);
            assert_eq!(a, b, "seed {seed} must reproduce the plan");
            a.validate(9, 8000.0).unwrap();
        }
        assert_ne!(FaultPlan::random(1, 9, 500.0, 8000.0), FaultPlan::random(2, 9, 500.0, 8000.0));
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let ok = sample();
        assert!(ok.validate(9, 5000.0).is_ok());
        assert!(ok.validate(4, 5000.0).is_err(), "partition member out of range");
        assert!(ok.validate(9, 2000.0).is_err(), "event past duration");
        let double_crash = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::Crash { node: 0 })
            .with_event(2.0, FaultKind::Crash { node: 0 });
        assert!(double_crash.validate(4, 10.0).is_err());
        let too_many_down = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::Crash { node: 0 })
            .with_event(2.0, FaultKind::Crash { node: 1 });
        assert!(too_many_down.validate(3, 10.0).is_err());
        let unsorted = FaultPlan::new(100.0, 100.0)
            .with_event(5.0, FaultKind::Crash { node: 0 })
            .with_event(1.0, FaultKind::Recover { node: 0 });
        assert!(unsorted.validate(4, 10.0).is_err());
        let overlap = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::PartitionStart { groups: vec![vec![0, 1], vec![1, 2]] });
        assert!(overlap.validate(4, 10.0).is_err());
        let stray_heal = FaultPlan::new(100.0, 100.0).with_event(1.0, FaultKind::PartitionEnd);
        assert!(stray_heal.validate(4, 10.0).is_err());
    }

    #[test]
    fn churn_verbs_validate_and_grow_the_run() {
        let plan = FaultPlan::new(250.0, 200.0)
            .with_event(100.0, FaultKind::Join { node: 4, sponsor: 1 })
            .with_event(200.0, FaultKind::Reconfigure { r: 64, k: 3 })
            .with_event(300.0, FaultKind::Leave { node: 0 })
            .with_event(400.0, FaultKind::Crash { node: 4 })
            .with_event(500.0, FaultKind::Recover { node: 4 });
        assert_eq!(plan.n_total(4), 5, "the join grows the run by one slot");
        plan.validate(4, 1000.0).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_churn() {
        let double_join = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::Join { node: 4, sponsor: 0 })
            .with_event(2.0, FaultKind::Join { node: 4, sponsor: 0 });
        assert!(double_join.validate(4, 10.0).is_err(), "already a member");
        let dead_sponsor = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::Crash { node: 0 })
            .with_event(2.0, FaultKind::Join { node: 4, sponsor: 0 });
        assert!(dead_sponsor.validate(4, 10.0).is_err(), "sponsor is crashed");
        let phantom_sponsor =
            FaultPlan::new(100.0, 100.0).with_event(1.0, FaultKind::Join { node: 4, sponsor: 5 });
        assert!(phantom_sponsor.validate(4, 10.0).is_err(), "sponsor never joined");
        let too_few = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::Leave { node: 0 })
            .with_event(2.0, FaultKind::Leave { node: 1 });
        assert!(too_few.validate(3, 10.0).is_err(), "membership floor");
        let crash_after_leave = FaultPlan::new(100.0, 100.0)
            .with_event(1.0, FaultKind::Leave { node: 0 })
            .with_event(2.0, FaultKind::Crash { node: 0 });
        assert!(crash_after_leave.validate(4, 10.0).is_err(), "left nodes cannot crash");
        let bad_space =
            FaultPlan::new(100.0, 100.0).with_event(1.0, FaultKind::Reconfigure { r: 2, k: 3 });
        assert!(bad_space.validate(4, 10.0).is_err(), "k > r");
    }

    #[test]
    fn churn_builders_are_deterministic_and_valid() {
        let a = FaultPlan::churn_storm(7, 10, 40.0, 500.0, 9_500.0);
        assert_eq!(a, FaultPlan::churn_storm(7, 10, 40.0, 500.0, 9_500.0));
        a.validate(10, 10_000.0).unwrap();
        assert!(a.events.iter().any(|e| matches!(e.kind, FaultKind::Join { .. })));

        let fc = FaultPlan::flash_crowd(5, 100, 1_000.0, 2_000.0);
        fc.validate(5, 10_000.0).unwrap();
        assert_eq!(fc.n_total(5), 105);
        assert_eq!(
            fc.events.iter().filter(|e| matches!(e.kind, FaultKind::Join { .. })).count(),
            100
        );
    }

    #[test]
    fn split_groups_covers_everyone_disjointly() {
        let groups = FaultPlan::split_groups(9, 3);
        assert_eq!(groups.len(), 3);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        assert_eq!(FaultPlan::split_groups(5, 2).concat().len(), 5);
    }
}
