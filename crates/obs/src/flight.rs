//! Flight recorder: a fixed-size ring over [`TraceEvent`]s that keeps the
//! last N events of a run so a crash or anomaly can dump recent history,
//! black-box style, without paying for full tracing.
//!
//! The recorder is deliberately thread-local: the simulator is
//! single-threaded per run, and the panic-safe sweep harness runs one
//! scenario per worker thread, so each worker gets its own ring and a
//! panic on one worker dumps exactly that worker's history.

use std::cell::RefCell;
use std::io;
use std::path::Path;

use serde_json::{Map, Value};
use tva_sim::{format_event, TraceEvent, Tracer};

use crate::export::event_to_json;

/// A fixed-capacity ring buffer of trace events.
pub(crate) struct FlightRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    next: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` events (`cap` is clamped to ≥ 1).
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder { buf: Vec::with_capacity(cap), cap, next: 0, total: 0 }
    }

    /// Records one event, evicting the oldest once full. Amortized
    /// zero-alloc: the ring fills once and is overwritten in place after.
    #[inline]
    pub(crate) fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(*ev);
        } else {
            self.buf[self.next] = *ev;
        }
        // Branch wrap, not `%`: this runs once per traced event and integer
        // division is the most expensive ALU op on the path.
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
        self.total += 1;
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// JSON dump: `{"total_seen":…, "retained":…, "reason":…, "events":[…]}`
    /// with events oldest-first, each also carrying its ns-2-style line.
    pub(crate) fn to_json(&self, reason: &str) -> Value {
        let events = self
            .events()
            .iter()
            .map(|ev| {
                let mut m = match event_to_json(ev) {
                    Value::Object(m) => m,
                    _ => Map::new(),
                };
                m.insert("line".into(), Value::String(format_event(ev)));
                Value::Object(m)
            })
            .collect();
        let mut root = Map::new();
        root.insert("total_seen".into(), Value::Number(self.total as f64));
        root.insert("retained".into(), Value::Number(self.buf.len() as f64));
        root.insert("reason".into(), Value::String(reason.to_string()));
        root.insert("events".into(), Value::Array(events));
        Value::Object(root)
    }

    /// Writes the JSON dump to `path`.
    pub(crate) fn dump_to(&self, path: &Path, reason: &str) -> io::Result<()> {
        let text = serde_json::to_string_pretty(&self.to_json(reason))
            .map_err(|e| io::Error::other(e.to_string()))?;
        std::fs::write(path, text)
    }
}

thread_local! {
    static FLIGHT: RefCell<Option<FlightRecorder>> = const { RefCell::new(None) };
}

/// Installs (or replaces) this thread's flight recorder with capacity
/// `cap`. Call before wiring [`flight_tracer`] into a simulator.
pub fn install_thread_flight(cap: usize) {
    FLIGHT.with(|f| *f.borrow_mut() = Some(FlightRecorder::new(cap)));
}

/// Removes this thread's flight recorder (subsequent records are no-ops).
pub fn clear_thread_flight() {
    FLIGHT.with(|f| *f.borrow_mut() = None);
}

/// Records one event into this thread's recorder, if installed.
#[inline]
pub fn thread_flight_record(ev: &TraceEvent) {
    FLIGHT.with(|f| {
        if let Some(rec) = f.borrow_mut().as_mut() {
            rec.record(ev);
        }
    });
}

/// A [`Tracer`] feeding this thread's recorder. Safe to install even when
/// no recorder is present (events are then discarded).
pub fn flight_tracer() -> Tracer {
    Box::new(thread_flight_record)
}

/// Dumps this thread's recorder to `path` and returns whether a recorder
/// was installed. The recorder is left in place (a later, more severe
/// failure can dump again with a fresher tail).
pub fn dump_thread_flight(path: &Path, reason: &str) -> io::Result<bool> {
    FLIGHT.with(|f| match f.borrow().as_ref() {
        Some(rec) => rec.dump_to(path, reason).map(|()| true),
        None => Ok(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_sim::{ChannelId, SimTime, TraceKind};
    use tva_wire::{Addr, PacketId};

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(i),
            kind: TraceKind::Enqueued,
            channel: ChannelId(0),
            id: PacketId(i),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            wire_len: 100,
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(&ev(i));
        }
        assert_eq!(r.total, 10);
        assert_eq!(r.buf.len(), 4);
        let ids: Vec<u64> = r.events().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, [6, 7, 8, 9]);
    }

    #[test]
    fn underfull_ring_is_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..3 {
            r.record(&ev(i));
        }
        let ids: Vec<u64> = r.events().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn ring_survives_many_wraparounds() {
        // Exercise the branch-wrap cursor across many full revolutions,
        // including the exact-boundary case where `next` has just reset to
        // 0 (a full ring must then read out in plain index order).
        let cap = 8;
        for extra in 0..=(2 * cap as u64) {
            let mut r = FlightRecorder::new(cap);
            let total = 10 * cap as u64 + extra;
            for i in 0..total {
                r.record(&ev(i));
            }
            assert_eq!(r.total, total);
            assert_eq!(r.buf.len(), cap);
            let ids: Vec<u64> = r.events().iter().map(|e| e.id.0).collect();
            let want: Vec<u64> = (total - cap as u64..total).collect();
            assert_eq!(ids, want, "after {total} records into a {cap}-ring");
        }
    }

    #[test]
    fn json_dump_parses_and_carries_reason() {
        let mut r = FlightRecorder::new(2);
        r.record(&ev(1));
        r.record(&ev(2));
        r.record(&ev(3));
        let dump = r.to_json("drop-rate spike");
        let text = serde_json::to_string_pretty(&dump).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        let Value::Object(root) = back else { panic!() };
        assert_eq!(root.get("total_seen"), Some(&Value::Number(3.0)));
        assert_eq!(root.get("retained"), Some(&Value::Number(2.0)));
        assert_eq!(root.get("reason"), Some(&Value::String("drop-rate spike".into())));
        let Some(Value::Array(events)) = root.get("events") else { panic!() };
        assert_eq!(events.len(), 2);
        let Value::Object(first) = &events[0] else { panic!() };
        assert!(first.get("line").is_some());
    }

    #[test]
    fn thread_local_install_record_dump() {
        install_thread_flight(16);
        thread_flight_record(&ev(7));
        let mut tracer = flight_tracer();
        tracer(&ev(8));
        let dir = std::env::temp_dir().join("tva_obs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        assert!(dump_thread_flight(&path, "test").unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let Value::Object(root) = serde_json::from_str(&text).unwrap() else { panic!() };
        assert_eq!(root.get("retained"), Some(&Value::Number(2.0)));
        clear_thread_flight();
        assert!(!dump_thread_flight(&path, "test").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
