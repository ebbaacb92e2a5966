//! Trace exporters: JSONL and Chrome/Perfetto `trace_event` JSON, both
//! produced from the same captured [`TraceEvent`] stream so one run can be
//! grepped or opened on a timeline in `ui.perfetto.dev`.

use serde_json::{Map, Value};
use tva_sim::{ChannelId, SimDuration, TraceEvent, TraceKind, Tracer};

use std::sync::{Arc, Mutex};

/// Short stable label for a trace kind (used in JSON output).
pub fn kind_label(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Enqueued => "enq",
        TraceKind::Dropped => "drop",
        TraceKind::TxStart => "tx",
        TraceKind::Delivered => "rx",
        TraceKind::Lost => "lost",
        TraceKind::Corrupted => "corrupt",
    }
}

/// One trace event as a JSON object (shared by JSONL and the flight
/// recorder dump).
pub fn event_to_json(ev: &TraceEvent) -> Value {
    let mut m = Map::new();
    m.insert("t".into(), Value::Number(ev.time.as_secs_f64()));
    m.insert("kind".into(), Value::String(kind_label(ev.kind).to_string()));
    m.insert("ch".into(), Value::Number(ev.channel.0 as f64));
    m.insert("id".into(), Value::Number(ev.id.0 as f64));
    m.insert("src".into(), Value::String(ev.src.to_string()));
    m.insert("dst".into(), Value::String(ev.dst.to_string()));
    m.insert("len".into(), Value::Number(ev.wire_len as f64));
    Value::Object(m)
}

/// Renders events as JSONL: one compact JSON object per line.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(&event_to_json(ev)).unwrap_or_default());
        out.push('\n');
    }
    out
}

/// Renders events as Chrome/Perfetto `trace_event` JSON.
///
/// Each channel becomes a track (`tid`); `TxStart` events become "X"
/// complete slices whose duration is the serialization time on that
/// channel's link (via `bandwidth_of`), and everything else becomes an
/// "i" instant event. Timestamps are microseconds, per the format.
pub fn to_perfetto(
    events: &[TraceEvent],
    bandwidth_of: &dyn Fn(ChannelId) -> Option<u64>,
) -> Value {
    let mut trace_events = Vec::with_capacity(events.len() + 1);
    // Process-name metadata record so the timeline is labelled.
    let mut meta = Map::new();
    meta.insert("name".into(), Value::String("process_name".into()));
    meta.insert("ph".into(), Value::String("M".into()));
    meta.insert("pid".into(), Value::Number(1.0));
    let mut args = Map::new();
    args.insert("name".into(), Value::String("tva-sim".into()));
    meta.insert("args".into(), Value::Object(args));
    trace_events.push(Value::Object(meta));

    for ev in events {
        let mut m = Map::new();
        let ts_us = ev.time.as_nanos() as f64 / 1_000.0;
        m.insert("pid".into(), Value::Number(1.0));
        m.insert("tid".into(), Value::Number(ev.channel.0 as f64));
        m.insert("ts".into(), Value::Number(ts_us));
        let mut args = Map::new();
        args.insert("src".into(), Value::String(ev.src.to_string()));
        args.insert("dst".into(), Value::String(ev.dst.to_string()));
        args.insert("len".into(), Value::Number(ev.wire_len as f64));
        args.insert("pkt".into(), Value::Number(ev.id.0 as f64));
        m.insert("args".into(), Value::Object(args));
        match (ev.kind, bandwidth_of(ev.channel)) {
            (TraceKind::TxStart, Some(bps)) => {
                let dur = SimDuration::transmission(ev.wire_len, bps);
                m.insert("ph".into(), Value::String("X".into()));
                m.insert("name".into(), Value::String(format!("tx #{}", ev.id.0)));
                m.insert("dur".into(), Value::Number(dur.as_nanos() as f64 / 1_000.0));
            }
            (kind, _) => {
                m.insert("ph".into(), Value::String("i".into()));
                m.insert("s".into(), Value::String("t".into()));
                m.insert("name".into(), Value::String(kind_label(kind).to_string()));
            }
        }
        trace_events.push(Value::Object(m));
    }

    let mut root = Map::new();
    root.insert("traceEvents".into(), Value::Array(trace_events));
    root.insert("displayTimeUnit".into(), Value::String("ms".into()));
    Value::Object(root)
}

/// A bounded in-memory event collector, installable as a [`Tracer`] via
/// [`collector_tracer`]. Stops retaining past `limit` events (counting the
/// overflow) so a long run cannot exhaust memory.
pub struct TraceCollector {
    events: Vec<TraceEvent>,
    limit: usize,
    overflow: u64,
}

impl TraceCollector {
    /// A collector retaining at most `limit` events.
    pub fn new(limit: usize) -> Self {
        TraceCollector { events: Vec::new(), limit: limit.max(1), overflow: 0 }
    }

    /// Records one event (drops it once the limit is reached).
    #[inline]
    pub fn record(&mut self, ev: &TraceEvent) {
        if self.events.len() < self.limit {
            self.events.push(*ev);
        } else {
            self.overflow += 1;
        }
    }

    /// The retained events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events seen beyond the retention limit.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// A shareable collector handle (the simulator owns the tracer closure;
/// the caller keeps the other reference to read events afterward).
pub type SharedCollector = Arc<Mutex<TraceCollector>>;

/// Builds a shared collector plus a [`Tracer`] feeding it.
pub fn collector_tracer(limit: usize) -> (SharedCollector, Tracer) {
    let shared = Arc::new(Mutex::new(TraceCollector::new(limit)));
    let sink = Arc::clone(&shared);
    let tracer: Tracer = Box::new(move |ev| {
        if let Ok(mut c) = sink.lock() {
            c.record(ev);
        }
    });
    (shared, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_sim::SimTime;
    use tva_wire::{Addr, PacketId};

    fn ev(kind: TraceKind, ns: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(ns),
            kind,
            channel: ChannelId(2),
            id: PacketId(5),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            wire_len: 1000,
        }
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let events = [ev(TraceKind::Enqueued, 10), ev(TraceKind::Dropped, 20)];
        let text = to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let Value::Object(m) = serde_json::from_str(line).unwrap() else { panic!() };
            assert!(m.get("kind").is_some());
            assert_eq!(m.get("src"), Some(&Value::String("10.0.0.1".into())));
        }
    }

    #[test]
    fn perfetto_structure() {
        let events =
            [ev(TraceKind::TxStart, 1_000), ev(TraceKind::Delivered, 2_000)];
        // 1000 B at 8 Mb/s = 1 ms.
        let trace = to_perfetto(&events, &|_| Some(8_000_000));
        let text = serde_json::to_string_pretty(&trace).unwrap();
        let Value::Object(root) = serde_json::from_str(&text).unwrap() else { panic!() };
        let Some(Value::Array(tes)) = root.get("traceEvents") else { panic!() };
        assert_eq!(tes.len(), 3); // metadata + 2 events
        let Value::Object(tx) = &tes[1] else { panic!() };
        assert_eq!(tx.get("ph"), Some(&Value::String("X".into())));
        assert_eq!(tx.get("ts"), Some(&Value::Number(1.0)));
        assert_eq!(tx.get("dur"), Some(&Value::Number(1000.0)));
        let Value::Object(rx) = &tes[2] else { panic!() };
        assert_eq!(rx.get("ph"), Some(&Value::String("i".into())));
    }

    #[test]
    fn perfetto_without_bandwidth_degrades_to_instant() {
        let events = [ev(TraceKind::TxStart, 0)];
        let trace = to_perfetto(&events, &|_| None);
        let Value::Object(root) = trace else { panic!() };
        let Some(Value::Array(tes)) = root.get("traceEvents") else { panic!() };
        let Value::Object(tx) = &tes[1] else { panic!() };
        assert_eq!(tx.get("ph"), Some(&Value::String("i".into())));
    }

    #[test]
    fn collector_caps_retention() {
        let (shared, mut tracer) = collector_tracer(2);
        for i in 0..5 {
            tracer(&ev(TraceKind::Enqueued, i));
        }
        let c = shared.lock().unwrap();
        assert_eq!(c.events().len(), 2);
        assert_eq!(c.overflow(), 3);
    }
}
