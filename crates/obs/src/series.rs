//! Time-bucketed sampling: turning registry values into aligned time
//! series for plotting dynamics (queue depth over time, drop-rate over
//! time) instead of run-end aggregates.
//!
//! A [`SeriesSet`] is a shared time axis plus named columns of equal
//! length. The sampling driver calls [`SeriesSet::begin`] once per bucket
//! and then [`SeriesSet::set`] for each column, so ragged data is
//! impossible by construction.
//!
//! [`ascii_chart`] is the one terminal chart renderer: the figure producers
//! plot their [`Series`] through it, and so does `tva-top`'s pps history.

use std::fmt::Write as _;

use serde_json::{Map, Value};

/// A labelled series of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. a scheme name).
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Renders series as a simple ASCII chart (one glyph per series). The x
/// axis is laid out on the data's min..max range; y on 0..y_max.
pub fn ascii_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (x_min, x_max) = all
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| (lo.min(x), hi.max(x)));
    let y_max = all.iter().fold(0.0f64, |m, &(_, y)| m.max(y)).max(1e-12);
    let x_span = (x_max - x_min).max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for &(x, y) in &s.points {
            let col = (((x - x_min) / x_span) * (width as f64 - 1.0)).round() as usize;
            let row = ((y / y_max) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - row.min(height - 1);
            grid[row][col.min(width - 1)] = g;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "y_max = {y_max:.3}");
    for row in grid {
        let _ = writeln!(out, "|{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(out, " x: {x_min:.1} .. {x_max:.1}");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "   {} = {}", glyphs[si % glyphs.len()], s.label);
    }
    out
}

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
        assert_eq!(s.cols, [("depth".to_string(), vec![3.0, 5.0]), ("drops".to_string(), vec![0.0, 1.0])]);
        assert_eq!(s.times, [0.0, 1.0]);
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
        assert_eq!(s.cols[1], ("late".to_string(), vec![0.0, 9.0]));
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
        // Title, y_max, `height` rows, axis, x range, one legend line: the
        // frame never grows with the data, and no row outgrows the width.
        let points = (0..100).map(|i| (i as f64, (i * i) as f64)).collect();
        let chart = ascii_chart("q", &[Series { label: "q".into(), points }], 20, 4);
        assert_eq!(chart.lines().count(), 4 + 5);
        assert!(chart.lines().all(|l| l.chars().count() <= 21));
        assert!(chart.contains('*'));
    }

    #[test]
    fn chart_marks_points() {
        let s = Series { label: "t".into(), points: vec![(0.0, 0.0), (10.0, 1.0)] };
        let c = ascii_chart("test", &[s], 20, 5);
        assert!(c.contains('*'));
        assert!(c.contains("x: 0.0 .. 10.0"));
    }

    #[test]
    fn chart_empty_is_graceful() {
        let c = ascii_chart("empty", &[], 10, 5);
        assert!(c.contains("no data"));
    }
}
