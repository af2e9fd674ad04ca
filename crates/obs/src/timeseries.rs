//! Ring-buffer-backed time series with bounded memory.
//!
//! [`SeriesStore`] keeps one bounded [`RingSeries`] per named scalar
//! signal (entropy, population, utilization, …), sampled on a
//! configurable stride. Memory is bounded by `capacity` samples per
//! series: once a ring is full the oldest sample is evicted, so a
//! million-round run costs the same memory as a thousand-round one.
//!
//! The store flattens to a stream of [`SeriesPoint`]s for JSON-lines
//! export: the profiler's per-round `.rounds.jsonl` artifact.
//!
//! # Example
//!
//! ```
//! use bt_obs::SeriesStore;
//!
//! let mut store = SeriesStore::new(2, 128); // every 2nd tick, 128 samples max
//! for tick in 0..10 {
//!     store.record("entropy", tick, tick as f64 / 10.0);
//! }
//! let entropy = store.get("entropy").unwrap();
//! assert_eq!(entropy.len(), 5); // ticks 0, 2, 4, 6, 8
//! assert_eq!(entropy.iter().last(), Some((8, 0.8)));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

/// One `(tick, value)` sample of a named series — the unit of the
/// JSON-lines export format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// The series the sample belongs to.
    pub series: String,
    /// Sample tick (round number, step index, …).
    pub tick: u64,
    /// Sampled value.
    pub value: f64,
}

/// Errors from series export and import.
#[derive(Debug)]
pub enum SeriesError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A line of the input failed to parse.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::Io(e) => write!(f, "series i/o error: {e}"),
            SeriesError::Parse { line, detail } => {
                write!(f, "series parse error at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

impl From<std::io::Error> for SeriesError {
    fn from(e: std::io::Error) -> Self {
        SeriesError::Io(e)
    }
}

/// A bounded ring of `(tick, value)` samples for one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSeries {
    capacity: usize,
    samples: VecDeque<(u64, f64)>,
}

impl RingSeries {
    fn new(capacity: usize) -> Self {
        RingSeries {
            capacity,
            samples: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    fn push(&mut self, tick: u64, value: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((tick, value));
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over retained `(tick, value)` samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples.iter().copied()
    }
}

/// A set of named [`RingSeries`] sharing one sampling stride and one
/// per-series capacity bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStore {
    stride: u64,
    capacity: usize,
    series: BTreeMap<String, RingSeries>,
}

impl SeriesStore {
    /// Creates a store sampling every `stride`-th tick, keeping at most
    /// `capacity` samples per series. Zero values are normalized to 1.
    #[must_use]
    pub fn new(stride: u64, capacity: usize) -> Self {
        SeriesStore {
            stride: stride.max(1),
            capacity: capacity.max(1),
            series: BTreeMap::new(),
        }
    }

    /// Whether `tick` falls on the sampling stride.
    #[must_use]
    pub fn accepts(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.stride)
    }

    /// Records a sample if `tick` falls on the stride; returns whether it
    /// was kept.
    pub fn record(&mut self, name: &str, tick: u64, value: f64) -> bool {
        if !self.accepts(tick) {
            return false;
        }
        self.series
            .entry(name.to_string())
            .or_insert_with(|| RingSeries::new(self.capacity))
            .push(tick, value);
        true
    }

    /// The series named `name`, if any samples were recorded for it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RingSeries> {
        self.series.get(name)
    }

    /// Flattens the retained samples into a point stream, ordered by
    /// series name then tick.
    #[must_use]
    pub fn points(&self) -> Vec<SeriesPoint> {
        let mut out = Vec::new();
        for (name, ring) in &self.series {
            for (tick, value) in ring.iter() {
                out.push(SeriesPoint {
                    series: name.clone(),
                    tick,
                    value,
                });
            }
        }
        out
    }

    /// Writes the retained samples as JSON lines, one [`SeriesPoint`] per
    /// line.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Io`] on write failure.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> Result<(), SeriesError> {
        for p in self.points() {
            let line = serde_json::to_string(&p).map_err(|e| SeriesError::Parse {
                line: 0,
                detail: e.to_string(),
            })?;
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Parses a JSON-lines point stream (as written by
    /// [`SeriesStore::write_jsonl`]). Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Io`] on read failure and
    /// [`SeriesError::Parse`] (with a 1-based line number) on a malformed
    /// line.
    pub fn read_jsonl<R: BufRead>(r: R) -> Result<Vec<SeriesPoint>, SeriesError> {
        let mut points = Vec::new();
        for (index, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let point: SeriesPoint =
                serde_json::from_str(&line).map_err(|e| SeriesError::Parse {
                    line: index + 1,
                    detail: e.to_string(),
                })?;
            points.push(point);
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_filters_ticks() {
        let mut store = SeriesStore::new(3, 16);
        for tick in 0..10 {
            store.record("x", tick, tick as f64);
        }
        let ring = store.get("x").unwrap();
        let ticks: Vec<u64> = ring.iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![0, 3, 6, 9]);
        assert!(store.accepts(6));
        assert!(!store.accepts(7));
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut store = SeriesStore::new(1, 4);
        for tick in 0..10 {
            store.record("x", tick, tick as f64);
        }
        let ring = store.get("x").unwrap();
        assert_eq!(ring.len(), 4);
        let ticks: Vec<u64> = ring.iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9], "oldest samples evicted first");
    }

    #[test]
    fn degenerate_parameters_are_normalized() {
        // Stride 1 keeps both ticks; capacity 1 keeps only the last.
        let mut store = SeriesStore::new(0, 0);
        store.record("x", 0, 1.0);
        store.record("x", 1, 2.0);
        assert_eq!(store.get("x").unwrap().iter().collect::<Vec<_>>(), vec![(1, 2.0)]);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut store = SeriesStore::new(1, 32);
        for tick in 0..5 {
            store.record("entropy", tick, tick as f64 / 7.0);
            store.record("population", tick, (tick * 10) as f64);
        }
        let mut buf = Vec::new();
        store.write_jsonl(&mut buf).unwrap();
        let points = SeriesStore::read_jsonl(&buf[..]).unwrap();
        assert_eq!(points, store.points());
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn parse_reports_line_numbers() {
        let input = b"{\"series\":\"x\",\"tick\":0,\"value\":1.0}\n\nnot json\n";
        let err = SeriesStore::read_jsonl(&input[..]).unwrap_err();
        match err {
            SeriesError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other}"),
        }
    }
}
