//! Multidimensional stream synopses (Results 4 and 5).
//!
//! A d-dimensional stream in the time-series model grows along one axis
//! (time `T`) while the other axes are fixed at size `N`. What must stay in
//! memory is whatever a future SPLIT can still change:
//!
//! * **Standard form** ([`StandardStreamSynopsis`], Result 4) — every
//!   space-basis combination keeps its own time crest, so
//!   `O(K + M^d + N^{d−1}·log T)` coefficients are live. Prohibitive unless
//!   the constant dimensions are small — exactly the paper's conclusion.
//! * **Non-standard form** ([`NonStandardStreamSynopsis`], Result 5) — the
//!   stream is a chain of `N^d` hypercubes; each hypercube decomposes
//!   independently (its details finalize immediately, with a z-order crest
//!   of `(2^d − 1)·log(N/M) + 1` while in flight) and only its average
//!   enters a single 1-d time tree. Live coefficients:
//!   `O(K + M^d + (2^d − 1)·log(N/M) + log T)`.

use crate::synopsis::KTermSynopsis;
use ss_array::NdArray;
use ss_obs::{Histogram, Stopwatch};

/// Time-axis component of a standard-form stream key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimeKey {
    /// A finalized time detail `w_{level, k}`.
    Detail {
        /// Time decomposition level.
        level: u32,
        /// Translation within the level.
        k: usize,
    },
    /// The time-axis overall average (finalized only at `finish`).
    Average,
}

/// Key of a standard-form d-dimensional stream coefficient: fully
/// transformed space indices plus a time-axis component.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StdKey {
    /// Per-space-axis 1-d coefficient indices.
    pub space: Vec<usize>,
    /// Time-axis coefficient.
    pub time: TimeKey,
}

/// Result 4: K-term synopsis of a standard-form d-dimensional stream.
pub struct StandardStreamSynopsis {
    synopsis: KTermSynopsis<StdKey>,
    space_levels: Vec<u32>,
    chunk_time_levels: u32,
    max_time_levels: u32,
    blocks: usize,
    /// `crest[space_offset][s-1]` = open coefficient at time level
    /// `chunk_time_levels + s` for that space basis.
    crest: Vec<Vec<f64>>,
    /// Accumulating (space basis × time-average) coefficients.
    avg_acc: Vec<f64>,
    space_shape: ss_array::Shape,
    finished: bool,
}

impl StandardStreamSynopsis {
    /// A synopsis over chunks shaped `2^{space_levels} × 2^{chunk_time_levels}`
    /// for a stream of up to `2^{max_time_levels}` time slots.
    pub fn new(
        k: usize,
        space_levels: &[u32],
        chunk_time_levels: u32,
        max_time_levels: u32,
    ) -> Self {
        assert!(chunk_time_levels <= max_time_levels);
        let space_dims: Vec<usize> = space_levels.iter().map(|&n| 1usize << n).collect();
        let space_shape = ss_array::Shape::new(&space_dims);
        let n_space = space_shape.len();
        let crest_levels = (max_time_levels - chunk_time_levels) as usize;
        StandardStreamSynopsis {
            synopsis: KTermSynopsis::new(k),
            space_levels: space_levels.to_vec(),
            chunk_time_levels,
            max_time_levels,
            blocks: 0,
            crest: vec![vec![0.0; crest_levels]; n_space],
            avg_acc: vec![0.0; n_space],
            space_shape,
            finished: false,
        }
    }

    /// Live (non-K) coefficients held: the Result 4 space bound
    /// `N^{d−1} · log T` (plus the accumulators).
    pub fn live_coefficients(&self) -> usize {
        self.crest.len() * (self.max_time_levels - self.chunk_time_levels) as usize
            + self.avg_acc.len()
    }

    /// Time slots consumed.
    fn time_filled(&self) -> usize {
        self.blocks << self.chunk_time_levels
    }

    /// The maintained top-K container.
    pub fn synopsis(&self) -> &KTermSynopsis<StdKey> {
        &self.synopsis
    }

    /// Orthonormal scale of the space part of a key.
    fn space_scale(&self, space: &[usize]) -> f64 {
        space
            .iter()
            .zip(&self.space_levels)
            .map(|(&i, &n)| ss_core::Layout1d::new(n).orthonormal_scale(i))
            .product()
    }

    /// Consumes one chunk spanning the full space domain and
    /// `2^{chunk_time_levels}` time slots.
    pub fn push_chunk(&mut self, chunk: &NdArray<f64>) {
        assert!(!self.finished, "stream already finished");
        let d = self.space_levels.len() + 1;
        assert_eq!(chunk.shape().ndim(), d);
        let levels = chunk.shape().levels();
        assert_eq!(
            &levels[..d - 1],
            &self.space_levels[..],
            "space shape mismatch"
        );
        assert_eq!(
            levels[d - 1],
            self.chunk_time_levels,
            "time extent mismatch"
        );
        assert!(
            self.time_filled() + (1usize << self.chunk_time_levels)
                <= (1usize << self.max_time_levels),
            "stream exceeded declared time domain"
        );
        let p = self.blocks;
        let mc = self.chunk_time_levels;
        let mut t = chunk.clone();
        ss_core::standard::forward(&mut t);
        let layout_c = ss_core::Layout1d::new(mc);
        for idx in ss_array::MultiIndexIter::new(chunk.shape().dims()) {
            let v = t.get(&idx);
            if v == 0.0 {
                continue;
            }
            let space = &idx[..d - 1];
            let it = idx[d - 1];
            if it >= 1 {
                // Final time detail: SHIFT to global translation.
                if let ss_core::Coeff1d::Detail { level, k } = layout_c.coeff_at(it) {
                    let key = StdKey {
                        space: space.to_vec(),
                        time: TimeKey::Detail {
                            level,
                            k: (p << (mc - level)) + k,
                        },
                    };
                    let scale = self.space_scale(space) * (2.0f64).powf(level as f64 / 2.0);
                    self.synopsis.offer(key, v, scale);
                }
            } else {
                // Chunk time-average: SPLIT into this space basis's crest.
                let off = self.space_shape.offset(space);
                for s in 1..=(self.max_time_levels - mc) {
                    let sign = if (p >> (s - 1)) & 1 == 0 { 1.0 } else { -1.0 };
                    self.crest[off][(s - 1) as usize] += sign * v / (1u64 << s) as f64;
                }
                self.avg_acc[off] += v / (1u64 << (self.max_time_levels - mc)) as f64;
            }
        }
        self.blocks += 1;
        // Finalize completed time levels for every space basis.
        for s in 1..=(self.max_time_levels - mc) {
            if !self.blocks.is_multiple_of(1usize << s) {
                break;
            }
            let level = mc + s;
            let k = (self.blocks >> s) - 1;
            for off in 0..self.crest.len() {
                let v = self.crest[off][(s - 1) as usize];
                self.crest[off][(s - 1) as usize] = 0.0;
                if v == 0.0 {
                    continue;
                }
                let space = self.space_shape.unoffset(off);
                let scale = self.space_scale(&space) * (2.0f64).powf(level as f64 / 2.0);
                self.synopsis.offer(
                    StdKey {
                        space,
                        time: TimeKey::Detail { level, k },
                    },
                    v,
                    scale,
                );
            }
        }
    }

    /// Declares the stream complete: offers the (space basis × time
    /// average) coefficients. Returns the overall average.
    pub fn finish(&mut self) -> f64 {
        assert!(!self.finished);
        self.finished = true;
        let time_scale = (2.0f64).powf(self.max_time_levels as f64 / 2.0);
        let mut overall = 0.0;
        for off in 0..self.avg_acc.len() {
            let v = self.avg_acc[off];
            let space = self.space_shape.unoffset(off);
            if space.iter().all(|&i| i == 0) {
                overall = v;
                continue;
            }
            if v != 0.0 {
                let scale = self.space_scale(&space) * time_scale;
                self.synopsis.offer(
                    StdKey {
                        space,
                        time: TimeKey::Average,
                    },
                    v,
                    scale,
                );
            }
        }
        overall
    }
}

/// Key of a non-standard-form stream coefficient.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NsKey {
    /// A detail inside the hypercube at time slot `tau`.
    Cube {
        /// Which hypercube along the time chain.
        tau: usize,
        /// Quad-tree level inside the cube.
        level: u32,
        /// Quad-tree node.
        node: Vec<usize>,
        /// Differenced axes.
        subband: Vec<bool>,
    },
    /// A detail of the 1-d tree over hypercube averages.
    Time {
        /// Time decomposition level.
        level: u32,
        /// Translation within the level.
        k: usize,
    },
}

/// Result 5: K-term synopsis of a non-standard-form d-dimensional stream.
///
/// Hypercubes of side `2^cube_levels` arrive one per time slot, delivered
/// as `2^sub_levels`-sided sub-chunks **in z-order** (the Result 2
/// schedule), so only a logarithmic crest is live inside the current cube.
///
/// The in-flight crest is a *flat indexed* array rather than a map keyed
/// by coefficient tuple: under the z-order schedule at most one node per
/// level `m+1 ..= n` is open at a time, so an open detail is identified by
/// `(level, subband)` alone — `(2^d − 1)·(n − m)` detail slots plus one
/// slot for the accumulating cube average. This keeps the per-delta hot
/// path allocation-free (the map version hashed an owned `Vec<usize>` key
/// per contribution).
pub struct NonStandardStreamSynopsis {
    synopsis: KTermSynopsis<NsKey>,
    d: usize,
    cube_levels: u32,
    sub_levels: u32,
    max_time_levels: u32,
    tau: usize,
    sub_rank: usize,
    /// Flat crest: slot `(level − m − 1)·(2^d − 1) + (eps − 1)` for the
    /// open detail of `(level, subband eps)`; last slot is the cube
    /// average.
    cube_crest: Vec<f64>,
    /// Which crest slots hold a live (possibly zero-valued) coefficient.
    crest_occupied: Vec<bool>,
    crest_live: usize,
    time_crest: Vec<f64>,
    time_avg_acc: f64,
    peak_live: usize,
    finished: bool,
    /// `stream.push_ns` handle (global registry), one sample per
    /// sub-chunk.
    push_ns: Histogram,
}

impl NonStandardStreamSynopsis {
    /// A synopsis over `d`-dimensional hypercubes of side `2^cube_levels`,
    /// arriving as z-ordered sub-chunks of side `2^sub_levels`, for up to
    /// `2^max_time_levels` cubes.
    pub fn new(
        k: usize,
        d: usize,
        cube_levels: u32,
        sub_levels: u32,
        max_time_levels: u32,
    ) -> Self {
        assert!(sub_levels <= cube_levels);
        let det_per_level = (1usize << d) - 1;
        let crest_slots = det_per_level * (cube_levels - sub_levels) as usize + 1;
        NonStandardStreamSynopsis {
            synopsis: KTermSynopsis::new(k),
            d,
            cube_levels,
            sub_levels,
            max_time_levels,
            tau: 0,
            sub_rank: 0,
            cube_crest: vec![0.0; crest_slots],
            crest_occupied: vec![false; crest_slots],
            crest_live: 0,
            time_crest: vec![0.0; max_time_levels as usize],
            time_avg_acc: 0.0,
            peak_live: 0,
            finished: false,
            push_ns: ss_obs::global().histogram("stream.push_ns"),
        }
    }

    /// Crest slot of the open detail at `level` (`> m`) with subband rank
    /// `eps` (`1 ..= 2^d − 1`).
    #[inline]
    fn detail_slot(sub_levels: u32, d: usize, level: u32, eps: usize) -> usize {
        ((level - sub_levels - 1) as usize) * ((1usize << d) - 1) + (eps - 1)
    }

    /// Peak live (non-K) coefficients observed — must respect the Result 5
    /// bound `(2^d − 1)·log(N/M) + 1 + log T`.
    pub fn peak_live_coefficients(&self) -> usize {
        self.peak_live
    }

    /// The maintained top-K container.
    pub fn synopsis(&self) -> &KTermSynopsis<NsKey> {
        &self.synopsis
    }

    /// Consumes the next sub-chunk (z-order within the current cube).
    pub fn push_subchunk(&mut self, chunk: &NdArray<f64>) {
        assert!(!self.finished, "stream already finished");
        assert!(
            self.tau < (1usize << self.max_time_levels),
            "stream exceeded declared time domain"
        );
        let sw = Stopwatch::start();
        let (d, m) = ss_core::nonstandard::cube_levels(chunk.shape());
        assert_eq!(d, self.d);
        assert_eq!(m, self.sub_levels, "sub-chunk side mismatch");
        let n = self.cube_levels;
        let grid_bits = n - m;
        let mut block = vec![0usize; d];
        ss_array::morton_decode(self.sub_rank, grid_bits, &mut block);

        let mut t = chunk.clone();
        ss_core::nonstandard::forward(&mut t);
        let tau = self.tau;
        let avg_slot = self.cube_crest.len() - 1;
        let crest = &mut self.cube_crest;
        let occupied = &mut self.crest_occupied;
        let live = &mut self.crest_live;
        let synopsis = &mut self.synopsis;
        let mut bump = |slot: usize, delta: f64| {
            if !occupied[slot] {
                occupied[slot] = true;
                *live += 1;
            }
            crest[slot] += delta;
        };
        ss_core::split::nonstandard_deltas(&t, n, &block, |idx, delta| {
            match ss_core::nonstandard::coeff_at(n, idx) {
                ss_core::nonstandard::NsCoeff::Scaling => bump(avg_slot, delta),
                ss_core::nonstandard::NsCoeff::Detail {
                    level,
                    node,
                    subband,
                } => {
                    if level <= m {
                        synopsis.offer(
                            NsKey::Cube {
                                tau,
                                level,
                                node,
                                subband,
                            },
                            delta,
                            (2.0f64).powf(d as f64 * level as f64 / 2.0),
                        );
                    } else {
                        let eps = subband
                            .iter()
                            .fold(0usize, |acc, &e| (acc << 1) | usize::from(e));
                        bump(Self::detail_slot(m, d, level, eps), delta);
                    }
                }
            }
        });
        self.peak_live = self.peak_live.max(self.crest_live + self.time_crest.len());
        // Flush completed quad-tree nodes (z-order completion rule).
        for s in 1..=grid_bits {
            if !(self.sub_rank + 1).is_multiple_of(1usize << (d as u32 * s)) {
                break;
            }
            let node: Vec<usize> = block.iter().map(|&b| b >> s).collect();
            for eps in 1usize..(1usize << d) {
                let slot = Self::detail_slot(m, d, m + s, eps);
                if !self.crest_occupied[slot] {
                    continue;
                }
                self.crest_occupied[slot] = false;
                self.crest_live -= 1;
                let v = std::mem::take(&mut self.cube_crest[slot]);
                let subband: Vec<bool> = (0..d).map(|t| (eps >> (d - 1 - t)) & 1 == 1).collect();
                self.synopsis.offer(
                    NsKey::Cube {
                        tau,
                        level: m + s,
                        node: node.clone(),
                        subband,
                    },
                    v,
                    (2.0f64).powf(d as f64 * (m + s) as f64 / 2.0),
                );
            }
        }
        self.sub_rank += 1;
        if self.sub_rank == 1usize << (d as u32 * grid_bits) {
            self.complete_cube();
        }
        self.push_ns.record(sw.elapsed_ns());
    }

    fn complete_cube(&mut self) {
        let avg_slot = self.cube_crest.len() - 1;
        let avg = std::mem::take(&mut self.cube_crest[avg_slot]);
        if std::mem::take(&mut self.crest_occupied[avg_slot]) {
            self.crest_live -= 1;
        }
        debug_assert_eq!(self.crest_live, 0, "cube crest not drained");
        self.sub_rank = 0;
        // Feed the cube average into the 1-d time tree (per-item style).
        let tau = self.tau;
        let cube_cells_scale = (2.0f64).powf(self.d as f64 * self.cube_levels as f64 / 2.0);
        for j in 1..=self.max_time_levels {
            let sign = if (tau >> (j - 1)) & 1 == 0 { 1.0 } else { -1.0 };
            self.time_crest[(j - 1) as usize] += sign * avg / (1u64 << j) as f64;
        }
        self.time_avg_acc += avg / (1u64 << self.max_time_levels) as f64;
        self.tau += 1;
        for j in 1..=self.max_time_levels {
            if !self.tau.is_multiple_of(1usize << j) {
                break;
            }
            let v = self.time_crest[(j - 1) as usize];
            self.time_crest[(j - 1) as usize] = 0.0;
            self.synopsis.offer(
                NsKey::Time {
                    level: j,
                    k: (self.tau >> j) - 1,
                },
                v,
                (2.0f64).powf(j as f64 / 2.0) * cube_cells_scale,
            );
        }
        self.peak_live = self.peak_live.max(self.crest_live + self.time_crest.len());
    }

    /// Declares the stream complete; returns the overall average.
    pub fn finish(&mut self) -> f64 {
        assert!(!self.finished);
        self.finished = true;
        self.time_avg_acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::Shape;

    fn chunk(dims: &[usize], salt: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| {
            ((idx.iter().sum::<usize>() * 7 + salt * 13) % 19) as f64 - 6.0
        })
    }

    #[test]
    fn standard_stream_matches_offline_transform() {
        // 4x4 space, time growing to 16 in chunks of 4.
        let mut s = StandardStreamSynopsis::new(usize::MAX >> 1, &[2, 2], 2, 4);
        let mut full = NdArray::<f64>::zeros(Shape::new(&[4, 4, 16]));
        for p in 0..4usize {
            let c = chunk(&[4, 4, 4], p);
            full.insert(&[0, 0, p * 4], &c);
            s.push_chunk(&c);
        }
        let _avg = s.finish();
        let want = ss_core::standard::forward_to(&full);
        let layout = ss_core::Layout1d::new(4);
        // Every offered entry must equal the offline coefficient.
        let mut offered = 0usize;
        for e in s.synopsis().entries() {
            let mut idx = e.key.space.clone();
            let ti = match e.key.time {
                TimeKey::Detail { level, k } => {
                    layout.index_of(ss_core::Coeff1d::Detail { level, k })
                }
                TimeKey::Average => 0,
            };
            idx.push(ti);
            assert!(
                (want.get(&idx) - e.value).abs() < 1e-9,
                "{:?} -> {idx:?}: {} vs {}",
                e.key,
                e.value,
                want.get(&idx)
            );
            offered += 1;
        }
        // All non-zero coefficients except the overall average are offered.
        let nonzero = ss_array::MultiIndexIter::new(&[4, 4, 16])
            .filter(|idx| want.get(idx).abs() > 1e-12 && idx.iter().any(|&i| i != 0))
            .count();
        assert_eq!(offered, nonzero);
    }

    #[test]
    fn standard_live_space_matches_result_4() {
        let s = StandardStreamSynopsis::new(8, &[3, 3], 1, 10);
        // N^{d-1}·log T = 64 · 9 live crest + 64 accumulators.
        assert_eq!(s.live_coefficients(), 64 * 9 + 64);
    }

    #[test]
    fn nonstandard_stream_matches_offline_chain() {
        // 4x4 cubes (n=2), sub-chunks 2x2 (m=1), 8 time slots.
        let mut s = NonStandardStreamSynopsis::new(usize::MAX >> 1, 2, 2, 1, 3);
        let mut cube_avgs = Vec::new();
        let mut offline: Vec<(NsKey, f64)> = Vec::new();
        for tau in 0..8usize {
            let cube = chunk(&[4, 4], tau);
            // Offline reference: per-cube non-standard transform.
            let t = ss_core::nonstandard::forward_to(&cube);
            for idx in ss_array::MultiIndexIter::new(&[4, 4]) {
                match ss_core::nonstandard::coeff_at(2, &idx) {
                    ss_core::nonstandard::NsCoeff::Scaling => cube_avgs.push(t.get(&idx)),
                    ss_core::nonstandard::NsCoeff::Detail {
                        level,
                        node,
                        subband,
                    } => offline.push((
                        NsKey::Cube {
                            tau,
                            level,
                            node,
                            subband,
                        },
                        t.get(&idx),
                    )),
                }
            }
            // Feed the cube as z-ordered 2x2 sub-chunks.
            for rank in 0..4usize {
                let mut b = vec![0usize; 2];
                ss_array::morton_decode(rank, 1, &mut b);
                let sub = cube.extract(&[b[0] * 2, b[1] * 2], &[2, 2]);
                s.push_subchunk(&sub);
            }
        }
        // Offline time tree over cube averages.
        let tcoeffs = ss_core::haar1d::forward_to_vec(&cube_avgs);
        let tlayout = ss_core::Layout1d::new(3);
        for (i, &v) in tcoeffs.iter().enumerate().skip(1) {
            if let ss_core::Coeff1d::Detail { level, k } = tlayout.coeff_at(i) {
                offline.push((NsKey::Time { level, k }, v));
            }
        }
        let overall = s.finish();
        assert!((overall - tcoeffs[0]).abs() < 1e-9);
        // Compare offered coefficients against the offline chain.
        let got: std::collections::HashMap<NsKey, f64> = s
            .synopsis()
            .entries()
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        for (key, v) in offline {
            if v.abs() < 1e-12 {
                continue;
            }
            let g = got.get(&key).unwrap_or_else(|| panic!("missing {key:?}"));
            assert!((g - v).abs() < 1e-9, "{key:?}: {g} vs {v}");
        }
    }

    #[test]
    fn nonstandard_live_space_respects_result_5() {
        let mut s = NonStandardStreamSynopsis::new(4, 2, 4, 1, 6);
        for tau in 0..4usize {
            for rank in 0..64usize {
                let mut b = vec![0usize; 2];
                ss_array::morton_decode(rank, 3, &mut b);
                let _ = b;
                let sub = chunk(&[2, 2], tau * 64 + rank);
                s.push_subchunk(&sub);
            }
        }
        // Bound: (2^d − 1)·(n − m) + 1 (cube crest incl. average sentinel)
        // + log T (time crest).
        let bound = 3 * (4 - 1) + 1 + 6;
        assert!(
            s.peak_live_coefficients() <= bound,
            "peak {} > bound {bound}",
            s.peak_live_coefficients()
        );
    }

    #[test]
    #[should_panic]
    fn standard_rejects_wrong_space_shape() {
        let mut s = StandardStreamSynopsis::new(4, &[2, 2], 1, 4);
        s.push_chunk(&chunk(&[4, 8, 2], 0));
    }
}
