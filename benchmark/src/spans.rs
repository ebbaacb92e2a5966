//! Span records kept in memory during a traced run and written to
//! `benchmark/out/trace-<workload>.json` when it ends.
//!
//! A span is `(id, parent, name, start, end)` on one clock (nanoseconds
//! since the recorder was created). Spans are taken around calls into the
//! crates' public functions from this crate's files only — the program
//! under test carries no instrumentation. Per-stage totals ride along so
//! the file alone reproduces the per-layer table.

use std::path::PathBuf;
use std::time::Instant;

use serde_json::{Map, Value};

/// Where span files go (inside the benchmark's own directory).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Span {
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory recorder.
pub struct Spans {
    workload: String,
    seed: u64,
    epoch: Instant,
    spans: Vec<Span>,
    totals: Vec<(String, u64, u64)>,
    notes: Vec<(String, Value)>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new(workload: &str, seed: u64) -> Self {
        Spans {
            workload: workload.to_string(),
            seed,
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { parent, name, start_ns, end_ns });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are recorded before it ends; finish it
    /// with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, start: Instant) -> u32 {
        self.record(name, parent, start, start)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end_ns = self.ns(end);
    }

    /// Adds `ns` of busy time over `units` units of work to a stage total.
    pub fn total(&mut self, stage: &str, ns: u64, units: u64) {
        match self.totals.iter_mut().find(|(s, _, _)| s == stage) {
            Some((_, n, u)) => {
                *n += ns;
                *u += units;
            }
            None => self.totals.push((stage.to_string(), ns, units)),
        }
    }

    /// Attaches a free-form fact to the file (e.g. the scrubbed env names).
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the file and returns its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let num = |v: u64| Value::Number(v as f64);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut m = Map::new();
                m.insert("id".into(), num(id as u64));
                m.insert("parent".into(), s.parent.map_or(Value::Null, |p| num(p as u64)));
                m.insert("name".into(), Value::String(s.name.into()));
                m.insert("start_ns".into(), num(s.start_ns));
                m.insert("end_ns".into(), num(s.end_ns));
                Value::Object(m)
            })
            .collect();
        let totals: Map<String, Value> = self
            .totals
            .iter()
            .map(|(stage, ns, units)| {
                let mut m = Map::new();
                m.insert("ns".into(), num(*ns));
                m.insert("units".into(), num(*units));
                (stage.clone(), Value::Object(m))
            })
            .collect();
        let mut root = Map::new();
        root.insert("workload".into(), Value::String(self.workload.clone()));
        // A string: a u64 seed does not survive the f64 a JSON number is.
        root.insert("seed".into(), Value::String(self.seed.to_string()));
        root.insert("spans".into(), Value::Array(spans));
        root.insert("stage_totals".into(), Value::Object(totals));
        for (k, v) in &self.notes {
            root.insert(k.clone(), v.clone());
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serializable");
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }
}
