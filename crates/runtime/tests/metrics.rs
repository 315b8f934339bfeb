//! Live observability: Prometheus exposition and lifecycle traces.

use std::time::Duration;

use pcb_runtime::{Cluster, ClusterConfig};

/// A quick cluster with tracing enabled on every node.
fn traced_config(n: usize) -> ClusterConfig {
    let mut config = ClusterConfig::quick(n);
    config.process.trace_capacity = 4096;
    config
}

/// Broadcasts from every node and waits until each node has seen the
/// other `n - 1` messages (nodes do not deliver their own broadcasts).
fn run_traffic(cluster: &Cluster<String>, n: usize) {
    for i in 0..n {
        cluster.node(i).broadcast(format!("m{i}")).unwrap();
    }
    for i in 0..n {
        for _ in 0..n - 1 {
            cluster
                .node(i)
                .deliveries()
                .recv_timeout(Duration::from_secs(5))
                .expect("delivery within 5s");
        }
    }
}

#[test]
fn metrics_text_parses_as_prometheus() {
    let n = 4;
    let cluster = Cluster::<String>::start(traced_config(n)).unwrap();
    run_traffic(&cluster, n);

    let text = cluster.metrics_text();
    pcb_telemetry::validate(&text).expect("exposition page must parse");
    for i in 0..n {
        assert!(
            text.contains(&format!("pcb_node_sent_total{{node=\"{i}\"}} 1")),
            "each node broadcast once:\n{text}"
        );
    }
    assert!(text.contains("# TYPE pcb_node_pending gauge"));
    // Counters that used to reach no sink are on the page by name.
    for name in [
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
    ] {
        let family = format!("# TYPE pcb_node_{name}");
        let on_page = [" ", "_total "].iter().any(|end| text.contains(&format!("{family}{end}")));
        assert!(on_page, "{name} missing:\n{text}");
    }

    // The daemon page renders the same row list: same families, other prefix.
    let families = |page: &str, prefix: &str| -> Vec<String> {
        page.lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_prefix(prefix).map(str::to_owned))
            .collect()
    };
    let mut w = pcb_telemetry::PromWriter::new();
    w.rows("pcb_daemon_", &[("0".into(), cluster.node(0).status().unwrap().rows())]);
    assert_eq!(families(&text, "pcb_node_"), families(&w.into_text(), "pcb_daemon_"));
    cluster.shutdown();
}

#[test]
fn drain_traces_yields_time_ordered_lifecycle() {
    let n = 3;
    let cluster = Cluster::<String>::start(traced_config(n)).unwrap();
    run_traffic(&cluster, n);

    let records = cluster.drain_traces();
    assert!(!records.is_empty(), "tracing was enabled");
    assert!(records.windows(2).all(|w| w[0].time <= w[1].time), "merged stream is time-ordered");
    let sent = records.iter().filter(|r| r.event.name() == "Sent").count();
    let delivered = records.iter().filter(|r| r.event.name() == "Delivered").count();
    assert_eq!(sent, n, "one Sent per broadcast");
    assert_eq!(delivered, n * (n - 1), "every node delivers every peer message");

    // The rings were drained: a second call starts empty.
    assert!(cluster.drain_traces().is_empty());
    cluster.shutdown();
}

#[test]
fn disabled_tracing_yields_no_records() {
    let n = 2;
    let cluster = Cluster::<String>::start(ClusterConfig::quick(n)).unwrap();
    run_traffic(&cluster, n);
    assert!(cluster.drain_traces().is_empty(), "trace_capacity 0 means no records");
    cluster.shutdown();
}

#[test]
fn metrics_dump_thread_produces_valid_pages() {
    let n = 2;
    let cluster = Cluster::<String>::start(traced_config(n)).unwrap();
    let (tx, rx) = crossbeam::channel::unbounded();
    let dump = cluster.spawn_metrics_dump(Duration::from_millis(20), move |page| {
        let _ = tx.send(page);
    });
    run_traffic(&cluster, n);
    let page = rx.recv_timeout(Duration::from_secs(5)).expect("a dump within 5s");
    pcb_telemetry::validate(&page).expect("dumped page must parse");
    dump.stop();
    cluster.shutdown();
}
