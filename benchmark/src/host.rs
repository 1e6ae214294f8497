//! The host yardstick.
//!
//! The sandbox this benchmark runs in shares its cores with other
//! tenants, and their load comes and goes on a scale of seconds to
//! minutes: one 90-s `serve_hot` pass of one binary was seen to move
//! between 10.9 k and 16.6 k queries/s (medians of its 10-s stretches),
//! and a fixed single-threaded hash-map kernel between 8.7 ms and 17 ms.
//! No statistic taken inside a 20-s pass removes a disturbance that
//! outlasts the pass, so every pass also times a **yardstick** — a fixed
//! piece of harness-owned work ([`probe`]) — between its slices, while
//! the program is idle. Reported times are wall times divided by the
//! host's slowdown at that moment, `probe time ÷ NOMINAL_PROBE_MS`;
//! rates are multiplied by it. On a quiet host the slowdown is 1 and the
//! numbers are plain wall-clock numbers. The yardstick calls nothing in
//! the repo's crates, so a change to the program cannot move it.
//!
//! The yardstick is two thirds memory-bound (hash-map inserts, small
//! allocations, a sort, a sweep — what the executor and the delta buffer
//! do) and one third compute-bound (a register-only hash loop). The
//! split was fitted once, on 36 `serve_hot` runs under varying load: at
//! two thirds the normalised throughput no longer correlates with the
//! load (r = +0.01; −0.31 at one half, +0.43 at all-memory).

use std::collections::HashMap;
use std::time::Instant;

/// What [`probe`] takes on a quiet host of the class the benchmark was
/// defined on, ms. Fixes the scale of the reported numbers only.
pub const NOMINAL_PROBE_MS: f64 = 9.0;

/// Entries the yardstick's memory-bound part inserts (≈ 6 ms).
const PROBE_ENTRIES: u64 = 27_000;
/// Rounds of the yardstick's compute-bound part (≈ 3 ms).
const PROBE_ROUNDS: u64 = 630_000;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the yardstick once; returns its time in ms.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut wanted: HashMap<(u64, u64), Vec<(u64, f64)>> = HashMap::new();
    for i in 0..PROBE_ENTRIES {
        let h = mix(i);
        wanted
            .entry((h % 21_609, (h >> 20) % 64))
            .or_default()
            .push((i % 32, h as f64));
    }
    let mut keys: Vec<(u64, u64)> = wanted.keys().copied().collect();
    keys.sort_unstable();
    let mut acc = 0.0;
    for key in &keys {
        for &(q, w) in &wanted[key] {
            acc += w * q as f64;
        }
    }
    // The compute-bound third: the same hash in a register loop.
    let mut sum = 0u64;
    for i in 0..PROBE_ROUNDS {
        sum = sum.wrapping_add(mix(i ^ sum));
    }
    std::hint::black_box((acc, sum));
    start.elapsed().as_secs_f64() * 1e3
}

/// The yardstick readings of one pass: `(seconds since the pass began,
/// probe ms)`, in time order.
#[derive(Default, Clone)]
pub struct HostLog {
    readings: Vec<(f64, f64)>,
}

impl HostLog {
    /// Takes a reading now, `at` seconds into the pass.
    pub fn read(&mut self, at: f64) {
        self.readings.push((at, probe()));
    }

    /// Readings taken.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// The host's slowdown `at` seconds into the pass: the mean of the
    /// readings on either side over the nominal (the nearest reading
    /// beyond the ends).
    pub fn slowdown_at(&self, at: f64) -> f64 {
        let after = self.readings.partition_point(|r| r.0 < at);
        let pick = |i: usize| self.readings[i.min(self.readings.len() - 1)].1;
        let ms = (pick(after.saturating_sub(1)) + pick(after)) / 2.0;
        ms / NOMINAL_PROBE_MS
    }

    /// The median slowdown over the pass.
    pub fn median_slowdown(&self) -> f64 {
        let ms: Vec<f64> = self.readings.iter().map(|r| r.1).collect();
        crate::stats::median(&ms) / NOMINAL_PROBE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_interpolates_between_readings() {
        let log = HostLog {
            readings: vec![(0.0, 9.0), (1.0, 18.0), (2.0, 9.0)],
        };
        assert_eq!(log.slowdown_at(-1.0), 1.0);
        assert_eq!(log.slowdown_at(0.5), 1.5);
        assert_eq!(log.slowdown_at(1.5), 1.5);
        assert_eq!(log.slowdown_at(5.0), 1.0);
        assert_eq!(log.median_slowdown(), 1.0);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe() > 0.1);
    }
}
