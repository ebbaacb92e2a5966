//! Time-bucketed sampling: turning registry values into aligned time
//! series for plotting dynamics (queue depth over time, drop-rate over
//! time) instead of run-end aggregates.
//!
//! A [`SeriesSet`] is a shared time axis plus named columns of equal
//! length. The sampling driver calls [`SeriesSet::begin`] once per bucket
//! and then [`SeriesSet::set`] for each column, so ragged data is
//! impossible by construction.

use serde_json::{Map, Value};

/// Handle to a registered series column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColId(usize);

/// A set of time series sharing one time axis.
#[derive(Default)]
pub struct SeriesSet {
    times: Vec<f64>,
    cols: Vec<(String, Vec<f64>)>,
}

impl SeriesSet {
    /// An empty series set.
    pub fn new() -> Self {
        SeriesSet::default()
    }

    /// Registers (or finds) a column by name. Columns registered after
    /// sampling has started are backfilled with zeros so lengths stay
    /// aligned.
    pub fn column(&mut self, name: &str) -> ColId {
        if let Some(i) = self.cols.iter().position(|(n, _)| n == name) {
            return ColId(i);
        }
        self.cols.push((name.to_string(), vec![0.0; self.times.len()]));
        ColId(self.cols.len() - 1)
    }

    /// Starts a new sample bucket at time `t` (seconds). Every column gets
    /// a zero entry, overwritten by subsequent [`SeriesSet::set`] calls.
    pub fn begin(&mut self, t: f64) {
        self.times.push(t);
        for (_, col) in &mut self.cols {
            col.push(0.0);
        }
    }

    /// Sets a column's value for the current (latest) bucket.
    pub fn set(&mut self, id: ColId, v: f64) {
        if let Some(last) = self.cols[id.0].1.last_mut() {
            *last = v;
        }
    }

    /// Number of sample buckets taken.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no buckets have been taken.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// A column's samples by name (reporting/tests).
    pub fn values(&self, name: &str) -> Option<&[f64]> {
        self.cols.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_slice())
    }

    /// The shared time axis (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// JSON form: `{"t": [...], "series": {"name": [...], ...}}`.
    pub fn to_json(&self) -> Value {
        let mut series = Map::new();
        for (name, col) in &self.cols {
            series.insert(
                name.clone(),
                Value::Array(col.iter().map(|&v| Value::Number(v)).collect()),
            );
        }
        let mut root = Map::new();
        root.insert(
            "t".into(),
            Value::Array(self.times.iter().map(|&v| Value::Number(v)).collect()),
        );
        root.insert("series".into(), Value::Object(series));
        Value::Object(root)
    }

    /// A small fixed-width ASCII chart of one column (terminal-friendly
    /// dynamics view for reports). Returns an empty string for unknown or
    /// empty columns.
    pub fn ascii_chart(&self, name: &str, height: usize) -> String {
        let Some(vals) = self.values(name) else { return String::new() };
        if vals.is_empty() || height == 0 {
            return String::new();
        }
        let max = vals.iter().cloned().fold(0.0_f64, f64::max);
        let scale = if max > 0.0 { height as f64 / max } else { 0.0 };
        let mut out = String::new();
        for level in (1..=height).rev() {
            let threshold = level as f64 - 0.5;
            for &v in vals {
                out.push(if v * scale >= threshold { '#' } else { ' ' });
            }
            out.push('\n');
        }
        out.push_str(&format!("{name}: max={max:.4} over {} samples\n", vals.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_columns() {
        let mut s = SeriesSet::new();
        let a = s.column("depth");
        let b = s.column("drops");
        s.begin(0.0);
        s.set(a, 3.0);
        s.begin(1.0);
        s.set(a, 5.0);
        s.set(b, 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.values("depth"), Some(&[3.0, 5.0][..]));
        assert_eq!(s.values("drops"), Some(&[0.0, 1.0][..]));
        assert_eq!(s.times(), &[0.0, 1.0]);
    }

    #[test]
    fn late_registration_backfills() {
        let mut s = SeriesSet::new();
        let a = s.column("a");
        s.begin(0.0);
        s.set(a, 1.0);
        let b = s.column("late");
        s.begin(1.0);
        s.set(b, 9.0);
        assert_eq!(s.values("late"), Some(&[0.0, 9.0][..]));
    }

    #[test]
    fn json_round_trip() {
        let mut s = SeriesSet::new();
        let a = s.column("x");
        s.begin(0.5);
        s.set(a, 2.0);
        let text = serde_json::to_string_pretty(&s.to_json()).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        let Value::Object(root) = back else { panic!() };
        assert!(root.get("t").is_some());
        let Some(Value::Object(series)) = root.get("series") else { panic!() };
        assert_eq!(series.get("x"), Some(&Value::Array(vec![Value::Number(2.0)])));
    }

    #[test]
    fn ascii_chart_is_bounded() {
        let mut s = SeriesSet::new();
        let a = s.column("q");
        for i in 0..10 {
            s.begin(i as f64);
            s.set(a, i as f64);
        }
        let chart = s.ascii_chart("q", 4);
        assert_eq!(chart.lines().count(), 5);
        assert!(chart.contains('#'));
        assert_eq!(s.ascii_chart("missing", 4), "");
    }
}
