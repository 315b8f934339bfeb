//! The one list of workloads and metrics. `BENCHMARK.json`, the README
//! tables, the `layers` output and the result line all come from here,
//! so a name cannot exist in one and not the others.

/// A workload: its name and the one sentence of why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "daemon-steady",
        why: "3 real daemons, open loop at 400 publishes/s: nominal-load latency; loop sleeps, UDP coalescing, step codec and WAL do the work, the ordering core idles",
    },
    Workload {
        name: "daemon-saturate",
        why: "3 real daemons, closed loop, one outstanding publish per connection: capacity of the RPC + fsync-per-publish + event-loop path, bypassing the open-loop schedule",
    },
    Workload {
        name: "daemon-crash",
        why: "SIGKILL and --resume one of 3 daemons under 200 publishes/s: exercises load/replay/serve-sync, the side of persistence and store the other daemon workloads bypass",
    },
    Workload {
        name: "endpoint-mesh",
        why: "16 in-process endpoints meshed through the delta wire codec with seeded reordering: ordering core, codec, store and dedup do all the work, no IO or daemons",
    },
    Workload {
        name: "sim-paper",
        why: "simulate_prob on the paper's model at (100,4), X=20, N=200: the sim kernel that figure regeneration pays for does the work, Endpoint and the wire codec are bypassed",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Bounds come from measured spread, not from what one would like to
/// gate: on this 2-core shared host one binary's ten-seed interquartile
/// spread reached 9 % of the median for `deliver_p50_ms` (on
/// `daemon-crash`, where the median sits on the shoulder of the
/// non-outage latencies) and 10 % for `deliveries_per_s` (on
/// `endpoint-mesh`; memory-bound passes run at the speed of a cache shared
/// with the host's other tenants). A bound has to clear the spread of the noisiest
/// workload, because it is one bound per metric: `wire_bytes_per_msg`
/// repeats to 0.1 % on the daemons but moves 4–6 % with the seed's key
/// sets on `endpoint-mesh`, and `deliver_p90_ms` spreads 5 % on
/// `daemon-steady` and under 1 % elsewhere. `setup_s` is mostly a
/// fixed-duration warm-up and repeats to a fraction of a percent; it gets
/// the largest bound because the contract asks for that.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "deliver_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "deliver_p90_ms", unit: "ms", better: "lower", bound: 0.15 },
    EndToEnd { name: "deliveries_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "wire_bytes_per_msg", unit: "B", better: "lower", bound: 0.20 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15 },
];

/// A per-layer metric, the module it measures and the end-to-end metric
/// (and workload) it is predicted to move. Everywhere else the
/// prediction is *no change*.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const MESH_SIM: &str = "deliveries_per_s on endpoint-mesh and sim-paper";
const MESH_RATE: &str = "deliveries_per_s on endpoint-mesh";
const MESH_RATE_WIRE: &str = "deliveries_per_s and wire_bytes_per_msg on endpoint-mesh";
const MESH_RATE_P90: &str = "deliveries_per_s and virtual deliver_p90_ms on endpoint-mesh";
const CRASH_P90: &str = "deliver_p90_ms on daemon-crash";
const DAEMON_WIRE: &str =
    "wire_bytes_per_msg on the daemon workloads; deliveries_per_s on daemon-saturate";
const STEADY_P50: &str = "deliver_p50_ms on daemon-steady";
const SATURATE: &str =
    "deliveries_per_s and deliver_p50_ms on daemon-saturate; deliver_p90_ms on daemon-crash";
const SIM_RATE: &str = "deliveries_per_s on sim-paper";
const NONE: &str = "nothing end to end (harness self-cost)";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

pub const PER_LAYER: &[PerLayer] = &[
    // clock
    layer("clock.stamp_send_ns", "ns", "lower", MESH_SIM),
    layer("clock.gap_check_ns", "ns", "lower", MESH_SIM),
    layer("clock.record_delivery_ns", "ns", "lower", MESH_SIM),
    layer("clock.assign_keys_us", "us", "lower", MESH_SIM),
    // broadcast::wire
    layer("wire.encode_full_ns", "ns", "lower", MESH_RATE_WIRE),
    layer("wire.encode_delta_ns", "ns", "lower", MESH_RATE_WIRE),
    layer("wire.decode_full_ns", "ns", "lower", MESH_RATE_WIRE),
    layer("wire.decode_delta_ns", "ns", "lower", MESH_RATE_WIRE),
    layer("wire.full_bytes_per_msg", "B", "lower", MESH_RATE_WIRE),
    layer("wire.delta_bytes_per_msg", "B", "lower", MESH_RATE_WIRE),
    // broadcast::pending
    layer("pending.insert_ready_ns", "ns", "lower", MESH_RATE_P90),
    layer("pending.park_wake_ns", "ns", "lower", MESH_RATE_P90),
    layer("pending.wakeups_per_delivery", "count", "lower", MESH_RATE_P90),
    layer("pending.gap_checks_per_delivery", "count", "lower", MESH_RATE_P90),
    layer("pending.max_pending", "count", "lower", MESH_RATE_P90),
    // broadcast::endpoint
    layer("endpoint.broadcast_ns", "ns", "lower", MESH_RATE),
    layer("endpoint.handle_wire_inorder_ns", "ns", "lower", MESH_RATE),
    layer("endpoint.handle_wire_reorder_ns", "ns", "lower", MESH_RATE),
    layer("endpoint.batch_t1_ns", "ns", "lower", MESH_RATE),
    layer("endpoint.batch_tn_ns", "ns", "lower", MESH_RATE),
    layer("endpoint.tick_ns", "ns", "lower", MESH_RATE),
    layer("endpoint.parked_share", "%", "lower", MESH_RATE),
    layer("endpoint.allocs_per_delivery", "count", "lower", MESH_RATE),
    layer("endpoint.undetected_violations", "count", "lower", MESH_RATE),
    layer("endpoint.residual_pct", "%", "lower", MESH_RATE),
    // broadcast::recovery / snapshot / fragment
    layer("recovery.store_insert_ns", "ns", "lower", CRASH_P90),
    layer("recovery.handle_sync_us", "us", "lower", CRASH_P90),
    layer("recovery.sync_reply_msgs", "count", "lower", CRASH_P90),
    layer("snapshot.encode_us", "us", "lower", CRASH_P90),
    layer("snapshot.decode_us", "us", "lower", CRASH_P90),
    layer("snapshot.bytes", "B", "lower", CRASH_P90),
    layer("fragment.split_ns", "ns", "lower", CRASH_P90),
    layer("fragment.reassemble_ns", "ns", "lower", CRASH_P90),
    // sim::export (the daemon's wire codec) and runtime::json
    layer("export.encode_step_ns", "ns", "lower", DAEMON_WIRE),
    layer("export.decode_step_ns", "ns", "lower", DAEMON_WIRE),
    layer("export.frame_bytes_per_msg", "B", "lower", DAEMON_WIRE),
    layer("json.parse_publish_ns", "ns", "lower", DAEMON_WIRE),
    layer("json.render_event_ns", "ns", "lower", DAEMON_WIRE),
    // runtime::udp
    layer("udp.rtt_us", "us", "lower", STEADY_P50),
    layer("udp.frames_per_s", "1/s", "higher", STEADY_P50),
    layer("udp.datagrams_per_frame", "count", "lower", STEADY_P50),
    // runtime::daemon persistence
    layer("persist.save_wal_us", "us", "lower", SATURATE),
    layer("persist.save_wal_disk_us", "us", "lower", "nothing end to end (real-disk cost line)"),
    layer("persist.save_snapshot_us", "us", "lower", SATURATE),
    layer("persist.load_snapshot_us", "us", "lower", SATURATE),
    // runtime::daemon process, from the traced daemon run
    layer("daemon.spawn_ready_ms", "ms", "lower", "setup_s on the daemon workloads"),
    layer("daemon.publish_ack_p50_ms", "ms", "lower", "deliveries_per_s on daemon-saturate"),
    layer("daemon.restart_catchup_ms", "ms", "lower", CRASH_P90),
    layer(
        "daemon.datagrams_per_msg",
        "count",
        "lower",
        "wire_bytes_per_msg on the daemon workloads",
    ),
    layer("daemon.retransmits", "count", "lower", "wire_bytes_per_msg on the daemon workloads"),
    layer("daemon.sync_requests", "count", "lower", "wire_bytes_per_msg on the daemon workloads"),
    layer("daemon.refetched", "count", "lower", "wire_bytes_per_msg on the daemon workloads"),
    layer("daemon.rss_kb_per_kmsg", "kB", "lower", "peak_rss_mb on the daemon workloads"),
    layer("daemon.cpu_ms_per_s", "ms/s", "lower", "deliveries_per_s on daemon-saturate"),
    layer("daemon.cpu_us_per_delivery", "us", "lower", "deliveries_per_s on daemon-saturate"),
    layer("daemon.deliver_p99_ms", "ms", "lower", "deliver_p90_ms on the daemon workloads"),
    layer("daemon.pending_max", "count", "lower", "deliver_p90_ms on the daemon workloads"),
    layer("loadgen.late_p99_us", "us", "lower", NONE),
    // sim
    layer("sim.wheel_ns_per_event", "ns", "lower", SIM_RATE),
    layer("sim.heap_ns_per_event", "ns", "lower", SIM_RATE),
    layer("sim.oracle_deliveries_per_s", "1/s", "higher", SIM_RATE),
    layer("sim.shell_deliveries_per_s", "1/s", "higher", SIM_RATE),
    layer("sim.violation_ppm", "ppm", "lower", SIM_RATE),
    layer("sim.alg4_alert_ppm", "ppm", "lower", SIM_RATE),
    layer("sim.stamp_pool_hit_rate", "%", "higher", SIM_RATE),
    layer("sim.allocs_per_delivery", "count", "lower", SIM_RATE),
    // telemetry and the bench itself
    layer("telemetry.hist_push_ns", "ns", "lower", NONE),
    layer("telemetry.trace_ns_per_event", "ns", "lower", NONE),
    layer("trace.overhead_pct", "%", "lower", NONE),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"ledger/run.sh\"],\n");
    out.push_str("  \"paths\": [\"ledger\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
        }
        for m in END_TO_END {
            assert!(m.bound <= 0.25);
        }
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let run_seconds = committed
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"run_seconds\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("run_seconds");
        assert_eq!(committed, manifest(run_seconds), "regenerate with `pcb-ledger manifest`");
    }
}
