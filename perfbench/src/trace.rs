//! Spans timed from outside the program.
//!
//! [`TracedStage`] wraps every [`RoundStage`] of a pipeline and records
//! one span per call. The first stage of a round also opens that round's
//! span (and closes the previous one), so a round span covers its stages
//! plus whatever the engine does between them: observers, arrivals and
//! the event loop. Model calls get spans through [`Tracer::open`] and
//! [`Tracer::close`].
//!
//! Spans stay in memory until [`Tracer::write_spans`] writes them once,
//! at the end of the run. A span's self time is its duration minus the
//! time its children cover.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use bt_swarm::{RoundStage, SwarmCore};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name: `round`, a stage name, or a `model.*` call.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store, plus the work bases the unit costs divide
/// by, sampled at stage entry.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open_round: Option<usize>,
    /// Σ tracker length at `maintain` entry.
    pub tracker_peers: u64,
    /// Σ connection pairs at `exchange` entry.
    pub connection_pairs: u64,
    pairs: Vec<(bt_swarm::PeerId, bt_swarm::PeerId)>,
}

/// Shared handle: the stage wrappers and the driver all record into one
/// tracer. The engine runs stages on the calling thread only, so `Rc`
/// suffices.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh tracer whose clock starts now.
    #[must_use]
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open_round: None,
            tracker_peers: 0,
            connection_pairs: 0,
            pairs: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes the open round span (if any) at `at_ns`.
    fn close_round(&mut self, at_ns: u64) {
        if let Some(index) = self.open_round.take() {
            self.spans[index].end_ns = at_ns;
        }
    }

    /// Closes the last round span; call once after the run.
    pub fn finish(&mut self) {
        let now = self.now_ns();
        self.close_round(now);
    }

    /// Opens a span named `name` under `parent`; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent)
    }

    /// Closes the span at `index`; returns its duration in seconds.
    pub fn close(&mut self, index: usize) -> f64 {
        let now = self.now_ns();
        self.spans[index].end_ns = now;
        self.spans[index].duration_ns() as f64 / 1e9
    }

    /// All spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_spans(&self, w: &mut impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.name, span.start_ns, span.end_ns, parent
            )?;
        }
        w.flush()
    }
}

/// A pipeline stage run under a span. The wrapped stage is unchanged;
/// the wrapper only reads the core before handing it over.
#[derive(Debug)]
pub struct TracedStage {
    inner: Box<dyn RoundStage>,
    tracer: SharedTracer,
    opens_round: bool,
}

impl TracedStage {
    /// Wraps every stage of `pipeline`; the first one opens round spans.
    #[must_use]
    pub fn wrap_all(
        pipeline: Vec<Box<dyn RoundStage>>,
        tracer: &SharedTracer,
    ) -> Vec<Box<dyn RoundStage>> {
        pipeline
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                Box::new(TracedStage {
                    inner,
                    tracer: Rc::clone(tracer),
                    opens_round: i == 0,
                }) as Box<dyn RoundStage>
            })
            .collect()
    }
}

impl RoundStage for TracedStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn timer_name(&self) -> &'static str {
        self.inner.timer_name()
    }

    fn run(&mut self, core: &mut SwarmCore) {
        let name = self.inner.name();
        let parent = {
            let mut t = self.tracer.borrow_mut();
            // Work bases are sampled before the stage span starts, so
            // they count against tracing overhead, not the stage.
            match name {
                "maintain" => t.tracker_peers += core.tracker().len() as u64,
                "exchange" => {
                    let mut pairs = std::mem::take(&mut t.pairs);
                    core.collect_connection_pairs(&mut pairs);
                    t.connection_pairs += pairs.len() as u64;
                    t.pairs = pairs;
                }
                _ => {}
            }
            if self.opens_round {
                let now = t.now_ns();
                t.close_round(now);
                let index = t.push("round", now, now, None);
                t.open_round = Some(index);
            }
            t.open_round
        };
        let start = self.tracer.borrow().now_ns();
        self.inner.run(core);
        let mut t = self.tracer.borrow_mut();
        let end = t.now_ns();
        t.push(name, start, end, parent);
    }

    fn set_threads(&mut self, threads: u32) {
        self.inner.set_threads(threads);
    }
}

/// Per-call latency summary of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    /// Number of spans.
    pub calls: u64,
    /// Σ self time, in seconds.
    pub self_s: f64,
    /// Median self time per call, in milliseconds.
    pub p50_ms: f64,
    /// The tail percentile reported (see [`tail_percentile`]).
    pub ptail_pct: f64,
    /// Self time per call at that percentile, in milliseconds.
    pub ptail_ms: f64,
}

/// The percentile ladder a tail is picked from, in hundredths of a
/// percent so that ranks are exact integers.
const TAIL_LADDER: [u64; 6] = [5_000, 9_000, 9_500, 9_900, 9_990, 9_999];

/// 1-based nearest rank of percentile `p` (hundredths of a percent)
/// among `n` values.
fn rank(p: u64, n: u64) -> u64 {
    (p * n).div_ceil(10_000)
}

/// The highest percentile of [`TAIL_LADDER`] with at least 10 calls
/// beyond its rank, or the median when there are too few calls for any.
#[must_use]
pub fn tail_percentile(calls: u64) -> u64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| calls - rank(p, calls) >= 10)
        .unwrap_or(TAIL_LADDER[0])
}

/// Nearest-rank percentile `p` (hundredths of a percent) of sorted values.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    let n = sorted.len() as u64;
    if n == 0 {
        return 0;
    }
    sorted[(rank(p, n).clamp(1, n) - 1) as usize]
}

/// Latency summary of the spans named `name`.
#[must_use]
pub fn layer_stats(tracer: &Tracer, self_ns: &[u64], name: &str) -> LayerStats {
    let mut times: Vec<u64> = tracer
        .spans()
        .iter()
        .zip(self_ns)
        .filter(|(span, _)| span.name == name)
        .map(|(_, &ns)| ns)
        .collect();
    times.sort_unstable();
    let calls = times.len() as u64;
    let ptail = tail_percentile(calls);
    LayerStats {
        calls,
        self_s: times.iter().sum::<u64>() as f64 / 1e9,
        p50_ms: percentile(&times, TAIL_LADDER[0]) as f64 / 1e6,
        ptail_pct: ptail as f64 / 100.0,
        ptail_ms: percentile(&times, ptail) as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_calls_beyond_it() {
        assert_eq!(tail_percentile(5), 5_000);
        assert_eq!(tail_percentile(30), 5_000);
        assert_eq!(tail_percentile(99), 5_000);
        assert_eq!(tail_percentile(100), 9_000);
        assert_eq!(tail_percentile(400), 9_500);
        assert_eq!(tail_percentile(3_000), 9_900);
        assert_eq!(tail_percentile(10_000), 9_990);
    }

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::shared();
        let mut t = tracer.borrow_mut();
        let round = t.push("round", 0, 100, None);
        t.push("maintain", 10, 40, Some(round));
        t.push("exchange", 40, 90, Some(round));
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns, vec![20, 30, 50]);
        let stats = layer_stats(&t, &self_ns, "exchange");
        assert_eq!(stats.calls, 1);
        assert!((stats.self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 5_000), 50);
        assert_eq!(percentile(&sorted, 9_000), 90);
        assert_eq!(percentile(&sorted, 10_000), 100);
        assert_eq!(percentile(&[], 5_000), 0);
    }
}
