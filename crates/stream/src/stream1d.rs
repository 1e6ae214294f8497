//! One-dimensional stream synopsis maintenance.
//!
//! Two maintainers with identical outputs but different cost profiles:
//!
//! * [`PerItemStream`] — the Gilbert-et-al. baseline: every arriving item
//!   updates all `log N` crest coefficients, so the synopsis is exact after
//!   every single item. Per-item work: `O(log N)`.
//! * [`BufferedStream`] — **Result 3**: items accumulate in a `B`-slot
//!   buffer; a full buffer is transformed (`O(B)`), its details SHIFT to
//!   final keys and feed the top-K directly, and only `log(N/B)` crest
//!   coefficients receive SPLIT contributions. Amortised per-item work:
//!   `O(1 + log(N/B)/B)`, at the price of `B` extra space and a synopsis
//!   that is exact at buffer boundaries.
//!
//! Both count their coefficient operations in `work`, the quantity the
//! Section 6.3 experiment plots.

use crate::synopsis::{CoeffKey, KTermSynopsis, SynopsisEntry};
use ss_obs::{Histogram, Stopwatch};

/// Per-item (Gilbert-style) maintenance of a K-term synopsis.
#[derive(Clone, Debug)]
pub struct PerItemStream {
    synopsis: KTermSynopsis,
    max_levels: u32,
    t: usize,
    /// Open (still-changeable) detail per level: `crest[j-1] = w_{j, t≫j}`.
    crest: Vec<f64>,
    sum: f64,
    work: u64,
    /// `stream.push_ns` handle (global registry), one sample per item.
    push_ns: Histogram,
}

impl PerItemStream {
    /// Maintains a `k`-term synopsis of a stream of length up to
    /// `2^max_levels`.
    pub fn new(k: usize, max_levels: u32) -> Self {
        PerItemStream {
            synopsis: KTermSynopsis::new(k),
            max_levels,
            t: 0,
            crest: vec![0.0; max_levels as usize],
            sum: 0.0,
            work: 0,
            push_ns: ss_obs::global().histogram("stream.push_ns"),
        }
    }

    /// Items consumed.
    pub fn len(&self) -> usize {
        self.t
    }

    /// `true` before the first item.
    pub fn is_empty(&self) -> bool {
        self.t == 0
    }

    /// Coefficient operations performed so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// The running average of the (eventual) `2^max_levels` domain.
    pub fn average(&self) -> f64 {
        self.sum / (1u64 << self.max_levels) as f64
    }

    /// The maintained top-K container.
    pub fn synopsis(&self) -> &KTermSynopsis {
        &self.synopsis
    }

    /// Consumes one item: updates every crest coefficient, then finalizes
    /// the coefficients whose support just completed.
    pub fn push(&mut self, x: f64) {
        let sw = Stopwatch::start();
        assert!(
            self.t < (1usize << self.max_levels),
            "stream exceeded declared domain"
        );
        let t = self.t;
        self.sum += x;
        self.work += 1; // the running sum update
        for j in 1..=self.max_levels {
            // x joins the left half of w_{j, t≫j}'s support when bit j−1 of
            // t is clear. w = (sum_L − sum_R)/2^j.
            let sign = if (t >> (j - 1)) & 1 == 0 { 1.0 } else { -1.0 };
            self.crest[(j - 1) as usize] += sign * x / (1u64 << j) as f64;
            self.work += 1;
        }
        self.t += 1;
        // Finalize completed supports: level j completes at multiples of 2^j.
        for j in 1..=self.max_levels {
            if !self.t.is_multiple_of(1usize << j) {
                break;
            }
            let key = CoeffKey {
                level: j,
                k: (self.t >> j) - 1,
            };
            let value = self.crest[(j - 1) as usize];
            self.crest[(j - 1) as usize] = 0.0;
            self.synopsis.offer(key, value, key.scale());
            self.work += 1;
        }
        self.push_ns.record(sw.elapsed_ns());
    }

    /// Current synopsis entries (largest magnitude first).
    pub fn entries(&self) -> Vec<SynopsisEntry<CoeffKey>> {
        self.synopsis.entries()
    }
}

/// Buffered SHIFT-SPLIT maintenance of a K-term synopsis (**Result 3**).
///
/// ```
/// use ss_stream::BufferedStream;
///
/// // Best 4 terms of a 256-item stream with a 16-item buffer.
/// let mut s = BufferedStream::new(4, 4, 8);
/// for i in 0..256 {
///     s.push(if i < 128 { 1.0 } else { 5.0 });
/// }
/// // A two-level step function needs exactly one detail coefficient.
/// let top = &s.entries()[0];
/// assert_eq!(top.key.level, 8);
/// assert_eq!(top.value, -2.0); // (mean left − mean right)/2
/// ```
#[derive(Clone, Debug)]
pub struct BufferedStream {
    synopsis: KTermSynopsis,
    buf_levels: u32,
    max_levels: u32,
    buffer: Vec<f64>,
    blocks: usize,
    /// Open coefficients above the buffer level, keyed by level
    /// (`crest[s-1] = w_{b+s, p≫s}` for the current block `p`).
    crest: Vec<f64>,
    avg_acc: f64,
    work: u64,
    /// `stream.push_ns` handle (global registry), one sample per item —
    /// quiet pushes next to buffer-drain spikes, which is exactly the
    /// amortisation Result 3 trades on.
    push_ns: Histogram,
}

impl BufferedStream {
    /// Maintains a `k`-term synopsis with a buffer of `2^buf_levels` items
    /// over a stream of length up to `2^max_levels`.
    pub fn new(k: usize, buf_levels: u32, max_levels: u32) -> Self {
        assert!(buf_levels <= max_levels);
        BufferedStream {
            synopsis: KTermSynopsis::new(k),
            buf_levels,
            max_levels,
            buffer: Vec::with_capacity(1 << buf_levels),
            blocks: 0,
            crest: vec![0.0; (max_levels - buf_levels) as usize],
            avg_acc: 0.0,
            work: 0,
            push_ns: ss_obs::global().histogram("stream.push_ns"),
        }
    }

    /// Items consumed (including those still in the buffer).
    pub fn len(&self) -> usize {
        (self.blocks << self.buf_levels) + self.buffer.len()
    }

    /// `true` before the first item.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coefficient operations performed so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Buffer capacity `B`.
    pub fn buffer_capacity(&self) -> usize {
        1usize << self.buf_levels
    }

    /// The running average of the (eventual) `2^max_levels` domain.
    pub fn average(&self) -> f64 {
        self.avg_acc
    }

    /// The maintained top-K container.
    pub fn synopsis(&self) -> &KTermSynopsis {
        &self.synopsis
    }

    /// Consumes one item; all heavy work happens when the buffer fills.
    pub fn push(&mut self, x: f64) {
        let sw = Stopwatch::start();
        assert!(
            self.len() < (1usize << self.max_levels),
            "stream exceeded declared domain"
        );
        self.buffer.push(x);
        if self.buffer.len() == self.buffer_capacity() {
            self.drain_buffer();
        }
        self.push_ns.record(sw.elapsed_ns());
    }

    fn drain_buffer(&mut self) {
        let b = self.buf_levels;
        let p = self.blocks; // block index of this buffer
        ss_core::haar1d::forward(&mut self.buffer);
        self.work += self.buffer.len() as u64;
        // SHIFT: every detail of the buffer is final.
        let layout = ss_core::Layout1d::new(b);
        for (local, &v) in self.buffer.iter().enumerate().skip(1) {
            if let ss_core::Coeff1d::Detail { level, k } = layout.coeff_at(local) {
                let key = CoeffKey {
                    level,
                    k: (p << (b - level)) + k,
                };
                self.synopsis.offer(key, v, key.scale());
                self.work += 1;
            }
        }
        // SPLIT: the buffer average contributes to the crest.
        let avg = self.buffer[0];
        for s in 1..=(self.max_levels - b) {
            let sign = if (p >> (s - 1)) & 1 == 0 { 1.0 } else { -1.0 };
            self.crest[(s - 1) as usize] += sign * avg / (1u64 << s) as f64;
            self.work += 1;
        }
        self.avg_acc += avg / (1u64 << (self.max_levels - b)) as f64;
        self.work += 1;
        self.buffer.clear();
        self.blocks += 1;
        // Finalize completed crest coefficients.
        for s in 1..=(self.max_levels - b) {
            if !self.blocks.is_multiple_of(1usize << s) {
                break;
            }
            let key = CoeffKey {
                level: b + s,
                k: (self.blocks >> s) - 1,
            };
            let value = self.crest[(s - 1) as usize];
            self.crest[(s - 1) as usize] = 0.0;
            self.synopsis.offer(key, value, key.scale());
            self.work += 1;
        }
    }

    /// Current synopsis entries (largest magnitude first).
    pub fn entries(&self) -> Vec<SynopsisEntry<CoeffKey>> {
        self.synopsis.entries()
    }
}

/// Reconstructs an approximate prefix of length `len` from an average plus
/// retained detail entries — how a synopsis answers queries.
pub fn reconstruct_from_entries(
    average: f64,
    entries: &[SynopsisEntry<CoeffKey>],
    len: usize,
) -> Vec<f64> {
    let mut out = vec![average; len];
    for e in entries {
        let support = 1usize << e.key.level;
        let start = e.key.k * support;
        let half = support / 2;
        for i in start..(start + support).min(len) {
            if i < start + half {
                out[i] += e.value;
            } else {
                out[i] -= e.value;
            }
        }
    }
    out
}

/// Offline reference: the exact top-K detail entries (by orthonormal
/// magnitude) of a complete vector's transform.
pub fn offline_top_k(data: &[f64], k: usize) -> (f64, Vec<SynopsisEntry<CoeffKey>>) {
    let coeffs = ss_core::haar1d::forward_to_vec(data);
    let layout = ss_core::Layout1d::for_len(data.len());
    let mut syn: KTermSynopsis = KTermSynopsis::new(k);
    for (i, &v) in coeffs.iter().enumerate().skip(1) {
        if let ss_core::Coeff1d::Detail { level, k } = layout.coeff_at(i) {
            let key = CoeffKey { level, k };
            syn.offer(key, v, key.scale());
        }
    }
    (coeffs[0], syn.entries())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Map from key to value for set comparison.
    fn entry_map(entries: &[SynopsisEntry<CoeffKey>]) -> HashMap<CoeffKey, f64> {
        entries.iter().map(|e| (e.key, e.value)).collect()
    }

    fn stream(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37) % 101) as f64 * 0.25 + ((i / 16) as f64).sin() * 8.0)
            .collect()
    }

    #[test]
    fn per_item_matches_offline_top_k() {
        let data = stream(256);
        let mut s = PerItemStream::new(12, 8);
        for &x in &data {
            s.push(x);
        }
        let (avg, offline) = offline_top_k(&data, 12);
        assert!((s.average() - avg).abs() < 1e-9);
        let got = entry_map(&s.entries());
        let want = entry_map(&offline);
        assert_eq!(got.len(), want.len());
        for (k, v) in &want {
            let g = got.get(k).unwrap_or_else(|| panic!("missing {k:?}"));
            assert!((g - v).abs() < 1e-9, "{k:?}");
        }
    }

    #[test]
    fn buffered_matches_offline_top_k() {
        let data = stream(256);
        for b in [1u32, 3, 5] {
            let mut s = BufferedStream::new(12, b, 8);
            for &x in &data {
                s.push(x);
            }
            let (avg, offline) = offline_top_k(&data, 12);
            assert!((s.average() - avg).abs() < 1e-9, "b={b}");
            let got = entry_map(&s.entries());
            let want = entry_map(&offline);
            for (k, v) in &want {
                let g = got.get(k).unwrap_or_else(|| panic!("b={b}: missing {k:?}"));
                assert!((g - v).abs() < 1e-9, "b={b} {k:?}");
            }
        }
    }

    #[test]
    fn buffered_work_is_much_smaller() {
        let data = stream(4096);
        let mut per_item = PerItemStream::new(16, 12);
        let mut buffered = BufferedStream::new(16, 6, 12);
        for &x in &data {
            per_item.push(x);
            buffered.push(x);
        }
        // Baseline ≈ N·log N; buffered ≈ N·(1 + log(N/B)/B).
        assert!(
            buffered.work() * 4 < per_item.work(),
            "buffered {} vs per-item {}",
            buffered.work(),
            per_item.work()
        );
    }

    #[test]
    fn bigger_buffers_cost_less() {
        let data = stream(4096);
        let mut prev = u64::MAX;
        for b in [1u32, 3, 6, 9] {
            let mut s = BufferedStream::new(16, b, 12);
            for &x in &data {
                s.push(x);
            }
            assert!(s.work() < prev, "b={b}: {} !< {prev}", s.work());
            prev = s.work();
        }
    }

    #[test]
    fn reconstruction_error_matches_offline_best_k() {
        let data = stream(512);
        let mut s = BufferedStream::new(20, 4, 9);
        for &x in &data {
            s.push(x);
        }
        let approx = reconstruct_from_entries(s.average(), &s.entries(), 512);
        let (avg, offline) = offline_top_k(&data, 20);
        let best = reconstruct_from_entries(avg, &offline, 512);
        let sse_s: f64 = data.iter().zip(&approx).map(|(a, b)| (a - b).powi(2)).sum();
        let sse_best: f64 = data.iter().zip(&best).map(|(a, b)| (a - b).powi(2)).sum();
        assert!(
            (sse_s - sse_best).abs() < 1e-6,
            "stream SSE {sse_s} vs offline best-K SSE {sse_best}"
        );
    }

    #[test]
    fn per_item_work_is_logarithmic() {
        let mut s = PerItemStream::new(4, 10);
        for x in stream(1024) {
            s.push(x);
        }
        // ≈ N · (log N + 1 + finalizations): between N·log N and 3·N·log N.
        let n = 1024u64;
        assert!(s.work() >= n * 10);
        assert!(s.work() <= 3 * n * 12);
    }

    #[test]
    #[should_panic]
    fn per_item_rejects_overflow() {
        let mut s = PerItemStream::new(2, 2);
        for x in stream(5) {
            s.push(x);
        }
    }
}
