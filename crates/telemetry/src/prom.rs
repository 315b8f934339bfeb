//! Prometheus-style text exposition: a small writer plus a validator.
//!
//! The writer produces the text format scrapers expect (`# HELP` /
//! `# TYPE` headers followed by `name{label="value"} 1234` samples); the
//! validator checks a produced page line-by-line so tests and the verify
//! gate can assert "parses as Prometheus text format" without a scraper.

use std::fmt::Write as _;

/// How a [`Row`]'s value behaves: a counter only grows (and takes the
/// `_total` suffix on a Prometheus page), a gauge moves freely, a flag is
/// a boolean (`0`/`1` on a page, `true`/`false` in JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Monotone count.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Boolean condition.
    Flag,
}

/// One reported quantity: the unit every metric sink renders. The struct
/// that owns the numbers declares its rows once (`EndpointStatus::rows`,
/// `UdpStats::rows`); a sink only picks a prefix and an encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Bare name: no sink prefix, no `_total`.
    pub name: &'static str,
    /// Counter, gauge or flag.
    pub kind: RowKind,
    /// One-line description (the `# HELP` text).
    pub help: &'static str,
    /// The value; flags are `0.0` / `1.0`.
    pub value: f64,
}

impl Row {
    /// A counter row.
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // counters are far below 2^52
    pub fn counter(name: &'static str, help: &'static str, value: u64) -> Self {
        Row { name, kind: RowKind::Counter, help, value: value as f64 }
    }

    /// A gauge row.
    #[must_use]
    pub fn gauge(name: &'static str, help: &'static str, value: f64) -> Self {
        Row { name, kind: RowKind::Gauge, help, value }
    }

    /// A flag row.
    #[must_use]
    pub fn flag(name: &'static str, help: &'static str, value: bool) -> Self {
        Row { name, kind: RowKind::Flag, help, value: f64::from(u8::from(value)) }
    }
}

/// Incremental builder for one exposition page.
///
/// ```
/// use pcb_telemetry::PromWriter;
/// let mut w = PromWriter::new();
/// w.header("pcb_node_sent_total", "counter", "Messages broadcast by the node.");
/// w.sample("pcb_node_sent_total", &[("node", "0")], 42.0);
/// let text = w.into_text();
/// assert!(pcb_telemetry::validate(&text).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty page.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits the `# HELP` and `# TYPE` headers for a metric family.
    /// `kind` is one of `counter`, `gauge`, `histogram`, `summary`,
    /// `untyped`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one sample line with the given labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// Renders row lists that share one layout — the same function's rows
    /// for several nodes — as one family per row: `{prefix}{name}`
    /// (`_total` appended for counters), one header, then one sample per
    /// series labelled `node="<series.0>"`.
    pub fn rows(&mut self, prefix: &str, series: &[(String, Vec<Row>)]) {
        let Some((_, first)) = series.first() else { return };
        for (i, row) in first.iter().enumerate() {
            let (suffix, kind) = match row.kind {
                RowKind::Counter => ("_total", "counter"),
                RowKind::Gauge | RowKind::Flag => ("", "gauge"),
            };
            let family = format!("{prefix}{}{suffix}", row.name);
            self.header(&family, kind, row.help);
            for (node, rows) in series {
                self.sample(&family, &[("node", node)], rows[i].value);
            }
        }
    }

    /// The finished page.
    #[must_use]
    pub fn into_text(self) -> String {
        self.out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Splits `name{labels}` into the name and the raw label body (if any),
/// returning `None` on malformed bracing.
fn split_labels(s: &str) -> Option<(&str, Option<&str>)> {
    match s.find('{') {
        None => Some((s, None)),
        Some(open) => {
            let close = s.rfind('}')?;
            if close != s.len() - 1 || close < open {
                return None;
            }
            Some((&s[..open], Some(&s[open + 1..close])))
        }
    }
}

/// Validates one `k="v"` label pair list (trailing comma allowed).
fn validate_labels(body: &str, lineno: usize) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '=' in {{{body}}}"))?;
        let key = &rest[..eq];
        if !valid_label_name(key) {
            return Err(format!("line {lineno}: bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {lineno}: label value must be quoted"));
        }
        // Scan the quoted value honouring backslash escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return Err(format!("line {lineno}: unterminated label value")),
                Some(b'\\') => i += 2,
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        rest = &after[i + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("line {lineno}: expected ',' between labels"));
        }
    }
    Ok(())
}

/// Checks that `text` is well-formed Prometheus exposition text: every
/// non-comment line is `name[{labels}] value [timestamp]` with a legal
/// metric name, legal label syntax, and a parseable value, and every
/// `# HELP`/`# TYPE` header names a legal metric (TYPE with a known
/// kind). Returns the first problem found.
pub fn validate(text: &str) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad metric name in HELP"));
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad metric name in TYPE"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
            }
            // Other '#' lines are free-form comments.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(|c: char| c.is_ascii_whitespace()) {
            Some(split) if !line[..split].contains('{') || line[..split].ends_with('}') => {
                (&line[..split], line[split..].trim_start())
            }
            _ => {
                // Label values may contain spaces: split after the closing
                // brace instead.
                match line.rfind('}') {
                    Some(close) => (&line[..=close], line[close + 1..].trim_start()),
                    None => return Err(format!("line {lineno}: sample line without value")),
                }
            }
        };
        let Some((name, labels)) = split_labels(name_part) else {
            return Err(format!("line {lineno}: malformed label braces"));
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        if let Some(body) = labels {
            validate_labels(body, lineno)?;
        }
        let mut fields = rest.split_whitespace();
        let Some(value) = fields.next() else {
            return Err(format!("line {lineno}: missing sample value"));
        };
        if !valid_value(value) {
            return Err(format!("line {lineno}: bad sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {lineno}: bad timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {lineno}: trailing tokens after timestamp"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_validates() {
        let mut w = PromWriter::new();
        w.header("pcb_node_delivered_total", "counter", "Messages delivered.");
        w.sample("pcb_node_delivered_total", &[("node", "0")], 12.0);
        w.sample("pcb_node_delivered_total", &[("node", "1")], 9.0);
        w.header("pcb_node_pending", "gauge", "Messages blocked in the pending set.");
        w.sample("pcb_node_pending", &[], 3.0);
        let text = w.into_text();
        assert!(validate(&text).is_ok(), "{text}");
        assert!(text.contains("pcb_node_delivered_total{node=\"0\"} 12"));
    }

    #[test]
    fn rows_render_one_family_per_row_and_one_sample_per_series() {
        let rows = |sent| vec![Row::counter("sent", "Sent.", sent), Row::flag("up", "Up.", true)];
        let mut w = PromWriter::new();
        w.rows("pcb_x_", &[("0".into(), rows(3)), ("1".into(), rows(5))]);
        let text = w.into_text();
        assert!(validate(&text).is_ok(), "{text}");
        assert_eq!(text.matches("# TYPE pcb_x_sent_total counter").count(), 1);
        assert!(text.contains("pcb_x_sent_total{node=\"1\"} 5"));
        assert!(text.contains("# TYPE pcb_x_up gauge\npcb_x_up{node=\"0\"} 1"));
    }

    #[test]
    fn labels_with_spaces_and_escapes_validate() {
        let mut w = PromWriter::new();
        w.sample("x_total", &[("name", "a b"), ("quote", "say \"hi\"")], 1.5);
        assert!(validate(&w.into_text()).is_ok());
    }

    #[test]
    fn special_values_and_timestamps_validate() {
        assert!(validate("x_total 1e-3\ny_total +Inf\nz_total 4 1712345678\n").is_ok());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate("9bad_name 1\n").is_err());
        assert!(validate("x_total\n").is_err());
        assert!(validate("x_total abc\n").is_err());
        assert!(validate("x_total{node=0} 1\n").is_err(), "unquoted label value");
        assert!(validate("x_total{node=\"0\" 1\n").is_err(), "unclosed brace");
        assert!(validate("# TYPE x_total widget\n").is_err(), "unknown type");
        assert!(validate("x_total 1 2 3\n").is_err(), "trailing tokens");
    }
}
