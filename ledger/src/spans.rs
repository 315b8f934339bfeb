//! In-memory span store for traced runs. A span is one call into a layer
//! (or one message's publish→ack / due→deliver interval on the daemon
//! leg): name, start, end, the step that caused it, and the message it
//! belongs to. Spans are kept in memory while the run is measured and
//! written out only afterwards.

use std::io::Write;
use std::path::{Path, PathBuf};

use pcb_broadcast::MessageId;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Endpoint::handle(Input::Broadcast)`: Alg. 1 stamp + store insert.
    Broadcast,
    /// `DeltaEncoder::encode`.
    Encode,
    /// `Endpoint::handle_wire`: decode, dedup, Alg. 2 guard, pending
    /// index, Alg. 4 detector, deliveries.
    HandleWire,
    /// Daemon leg: publish line written → `ok` line read.
    PublishAck,
    /// Daemon leg: publish due → `deliver` event read at another daemon.
    DueDeliver,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Broadcast => "endpoint.handle(Broadcast)",
            Layer::Encode => "wire.DeltaEncoder.encode",
            Layer::HandleWire => "endpoint.handle_wire",
            Layer::PublishAck => "daemon.publish_ack",
            Layer::DueDeliver => "daemon.due_deliver",
        }
    }
}

struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// The parent: the workload step (mesh) or publish index (daemons).
    parent: u32,
    sender: u32,
    seq: u64,
}

#[derive(Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    pub fn push(&mut self, layer: Layer, start_ns: u64, end_ns: u64, parent: u32, id: MessageId) {
        self.0.push(Span {
            layer,
            start_ns,
            end_ns,
            parent,
            sender: id.sender().index() as u32,
            seq: id.seq(),
        });
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Total self time per layer, in seconds. Layer spans never nest
    /// inside each other (each is a leaf call under its step), so a
    /// span's self time is its duration.
    pub fn self_secs(&self) -> Vec<(Layer, f64)> {
        let mut totals = std::collections::BTreeMap::new();
        for span in &self.0 {
            *totals.entry(span.layer).or_insert(0u64) += span.end_ns - span.start_ns;
        }
        totals.into_iter().map(|(layer, ns)| (layer, ns as f64 / 1e9)).collect()
    }

    /// Writes `layer,start_ns,end_ns,parent,sender,seq` lines to
    /// `<dir>/spans-<tag>.csv`.
    pub fn write(&self, dir: &Path, tag: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{tag}.csv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "layer,start_ns,end_ns,parent,sender,seq")?;
        for s in &self.0 {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.sender,
                s.seq
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}
