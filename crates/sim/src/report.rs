//! Plain-text and CSV rendering of sweep results.

use std::fmt::Write as _;

use crate::runner::SweepPoint;

/// Renders sweep points as an aligned text table (one row per point).
///
/// `label` names the swept axis and `axis` extracts its display value.
#[must_use]
pub fn render_table(
    title: &str,
    label: &str,
    points: &[SweepPoint],
    axis: impl Fn(&SweepPoint) -> String,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{label:>10} {:>8} {:>12} {:>12} {:>24} {:>12} {:>10}",
        "K", "theory", "measured", "95% CI", "deliveries", "stuck"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>12.3e} {:>12.3e} [{:>10.3e}, {:>10.3e}] {:>12} {:>10}",
            axis(p),
            p.k,
            p.theory_p_error,
            p.violation_rate,
            p.violation_ci.0,
            p.violation_ci.1,
            p.metrics.deliveries,
            p.metrics.stuck,
        );
    }
    out
}

/// Renders sweep points as CSV with a fixed header.
#[must_use]
pub fn render_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "n,k,lambda_ms,concurrency,theory_p_error,violation_rate,ci_low,ci_high,\
         deliveries,violations,alg4_alerts,alg5_alerts,mean_delay_ms,mean_blocking_ms,\
         p50_delay_ms,p99_delay_ms,p50_blocking_ms,p99_blocking_ms,\
         pending_peak,stuck\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.n,
            p.k,
            p.lambda_ms,
            p.concurrency,
            p.theory_p_error,
            p.violation_rate,
            p.violation_ci.0,
            p.violation_ci.1,
            p.metrics.deliveries,
            p.metrics.exact_violations,
            p.metrics.alg4_alerts,
            p.metrics.alg5_alerts,
            p.metrics.delay_ms.mean(),
            p.metrics.blocking_ms.mean(),
            p.metrics.delay_ms.p50(),
            p.metrics.delay_ms.p99(),
            p.metrics.blocking_ms.p50(),
            p.metrics.blocking_ms.p99(),
            p.metrics.pending_peak,
            p.metrics.stuck,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::runner::figure3;

    /// A hand-built point with fully known contents, for golden tests.
    fn fixed_point() -> SweepPoint {
        let mut metrics = RunMetrics {
            deliveries: 64,
            exact_violations: 2,
            alg4_alerts: 3,
            alg5_alerts: 1,
            pending_peak: 5,
            stuck: 0,
            ..RunMetrics::default()
        };
        // 1..=64 ms uniformly: median 32, max 64 (up to bucket width).
        for i in 1..=64 {
            metrics.delay_ms.push(f64::from(i));
            metrics.blocking_ms.push(f64::from(i) / 4.0);
        }
        SweepPoint {
            n: 8,
            k: 2,
            lambda_ms: 250.0,
            concurrency: 1.5,
            theory_p_error: 0.001,
            violation_rate: 2.0 / 64.0,
            violation_ci: (0.01, 0.09),
            metrics,
        }
    }

    #[test]
    fn table_and_csv_render() {
        let rows = figure3(
            crate::runner::SweepOptions { scale: 0.01, seed: 1, reps: 1, threads: 1 },
            &[30],
            &[1, 2],
        )
        .unwrap();
        let table = render_table("Figure 3 (mini)", "N", &rows, |p| p.n.to_string());
        assert!(table.contains("Figure 3 (mini)"));
        assert!(table.lines().count() >= 4);

        let csv = render_csv(&rows);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("n,k,lambda_ms"));
        assert_eq!(lines.count(), 2);
        assert_eq!(csv.lines().nth(1).unwrap().split(',').count(), 20);
    }

    #[test]
    fn csv_golden_row() {
        let csv = render_csv(&[fixed_point()]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 20);
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(&row[..4], &["8", "2", "250", "1.5"]);
        assert_eq!(row[8], "64", "deliveries");
        assert_eq!(row[9], "2", "violations");
        // Quantile columns: log-bucketed, so only bracket them.
        let p50_delay: f64 = row[14].parse().unwrap();
        let p99_delay: f64 = row[15].parse().unwrap();
        assert!((28.0..=40.0).contains(&p50_delay), "p50 near 32, got {p50_delay}");
        assert!((56.0..=64.0).contains(&p99_delay), "p99 near 64, got {p99_delay}");
        assert!(p50_delay <= p99_delay);
        assert_eq!(&row[18..], &["5", "0"], "pending_peak,stuck");
    }

    #[test]
    fn empty_histograms_render_as_zero() {
        let mut p = fixed_point();
        p.metrics.delay_ms = pcb_telemetry::Hist::new();
        p.metrics.blocking_ms = pcb_telemetry::Hist::new();
        let csv = render_csv(&[p]);
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(&row[12..18], &["0", "0", "0", "0", "0", "0"]);
    }
}
