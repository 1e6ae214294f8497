//! Stopwatches and drop-guard spans.

use crate::histogram::Histogram;
use std::time::Instant;

/// An explicit stopwatch for lap-style phase timing.
///
/// One `Stopwatch` per loop iteration with a [`lap_ns`](Stopwatch::lap_ns)
/// per phase is how the transform drivers attribute ingest time to
/// read/compute/writeback without nesting guards:
///
/// ```
/// let mut sw = ss_obs::Stopwatch::start();
/// // ... phase one ...
/// let read_ns = sw.lap_ns();
/// // ... phase two ...
/// let compute_ns = sw.lap_ns();
/// assert!(read_ns < 1_000_000_000 && compute_ns < 1_000_000_000);
/// ```
#[derive(Clone, Debug)]
pub struct Stopwatch {
    start: Instant,
    lap: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        let now = Instant::now();
        Stopwatch {
            start: now,
            lap: now,
        }
    }

    /// Nanoseconds since [`start`](Stopwatch::start).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the previous lap (or start), and resets the lap.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.lap).as_nanos() as u64;
        self.lap = now;
        ns
    }
}

/// A guard that records its lifetime into a [`Histogram`] when dropped.
///
/// Created by [`Registry::span`](crate::Registry::span); the explicit
/// counterpart of [`timed`](crate::timed) for spans that cross scope
/// boundaries (early returns, `?`, multi-branch flows).
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Span {
    pub(crate) fn new(hist: Histogram) -> Self {
        Span {
            hist,
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the span opened.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn stopwatch_laps_partition_elapsed() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a = sw.lap_ns();
        let b = sw.lap_ns();
        assert!(a >= 2_000_000, "first lap {a}ns");
        assert!(b <= sw.elapsed_ns());
        assert!(sw.elapsed_ns() >= a + b);
    }

    #[test]
    fn span_records_on_drop_even_on_early_exit() {
        let r = Registry::new();
        let run = |fail: bool| -> Result<(), ()> {
            let _span = r.span("s.ns");
            if fail {
                return Err(());
            }
            Ok(())
        };
        run(false).unwrap();
        run(true).unwrap_err();
        assert_eq!(r.histogram("s.ns").count(), 2);
    }
}
