//! Seeded inputs: the dataset, the read traffic and the update boxes.
//!
//! Everything the program under test receives is a pure function of
//! `--seed`, so two runs with one seed replay byte-identical requests
//! (pinned by a hash in the tests) and the exact I/O counts repeat.

use ss_array::{NdArray, Shape};
use ss_datagen::SplitMix64;
use ss_serve::{Op, Query};

/// `log2` of the side of the shared store `S1024`.
pub const LEVEL: u32 = 10;
/// Side of `S1024`.
pub const SIDE: usize = 1 << LEVEL;
/// Per-axis domain levels of `S1024`.
pub const LEVELS: [u32; 2] = [LEVEL, LEVEL];
/// Per-axis tile exponents: 8×8 = 64 coefficients, 512-byte blocks.
pub const TILE_EXP: [u32; 2] = [3, 3];
/// Chunk levels of the ingest source (32×32 chunks).
pub const CHUNK: [u32; 2] = [5, 5];
/// Cells of `S1024`.
pub const CELLS: usize = SIDE * SIDE;
/// Queries per pipelined exchange.
pub const EXCHANGE: usize = 32;
/// All-`point` exchanges in every block of ten.
const POINT_TENTHS: usize = 7;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The dataset: an integer-valued function of `(x, y, seed)`. Axis-1
/// positions below `SIDE / 2` are piecewise constant on 16×16 cells (so
/// most fine coefficients there are exactly zero), the rest is hash noise
/// (every coefficient non-zero). Integer cells keep every mass the gates
/// compare exactly representable.
pub fn cell(seed: u64, x: usize, y: usize) -> f64 {
    let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if y < SIDE / 2 {
        let h = mix(s ^ ((x as u64 / 16) << 32) ^ (y as u64 / 16));
        (h % 201) as f64 - 100.0
    } else {
        let h = mix(s ^ ((x as u64) << 32) ^ (y as u64) ^ 0x5555_5555);
        (h % 2001) as f64 - 1000.0
    }
}

/// Sum of every cell of the dataset (exact: integers far below 2^53).
pub fn dataset_mass(seed: u64) -> f64 {
    let mut total = 0.0;
    for x in 0..SIDE {
        for y in 0..SIDE {
            total += cell(seed, x, y);
        }
    }
    total
}

/// What one exchange asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 32 point queries.
    Point,
    /// 32 range sums.
    Range,
}

/// The read traffic of one client: an endless seeded stream of
/// exchanges, each [`EXCHANGE`] queries of one kind. Every block of ten
/// exchanges holds seven all-`point` (uniform positions) and three
/// all-`range_sum` (uniform corner pairs) in a seeded order, so any two
/// stretches of the stream carry the same mix, not merely the same
/// expected mix.
pub struct Traffic {
    rng: SplitMix64,
    /// Kinds left in the current block, popped from the back.
    block: Vec<Kind>,
}

impl Traffic {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> Traffic {
        Traffic {
            rng: SplitMix64::new(mix(seed ^ (client + 1).wrapping_mul(0xa076_1d64_78bd_642f))),
            block: Vec::new(),
        }
    }

    /// The next exchange.
    pub fn next_exchange(&mut self) -> (Kind, Vec<Query>) {
        if self.block.is_empty() {
            self.block = (0..10)
                .map(|k| {
                    if k < POINT_TENTHS {
                        Kind::Point
                    } else {
                        Kind::Range
                    }
                })
                .collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i + 1));
            }
        }
        let kind = self.block.pop().expect("a refilled block");
        let queries = (0..EXCHANGE)
            .map(|_| match kind {
                Kind::Point => Query::Point {
                    pos: vec![self.rng.below(SIDE), self.rng.below(SIDE)],
                },
                Kind::Range => {
                    let (a, b) = (self.rng.below(SIDE), self.rng.below(SIDE));
                    let (c, d) = (self.rng.below(SIDE), self.rng.below(SIDE));
                    Query::RangeSum {
                        lo: vec![a.min(b), c.min(d)],
                        hi: vec![a.max(b), c.max(d)],
                    }
                }
            })
            .collect();
        (kind, queries)
    }
}

/// One update box: origin plus a dense block of integer deltas.
pub type UpdateBox = (Vec<usize>, NdArray<f64>);

/// Boxes per group commit of the `serve_rw` writer.
pub const GROUP_BOXES: usize = 4;
/// Side of a `serve_rw` update box.
pub const GROUP_BOX_SIDE: usize = 8;
/// Boxes per `maintain` update batch.
pub const BATCH_BOXES: usize = 2048;
/// Side of a `maintain` update box.
pub const BATCH_BOX_SIDE: usize = 16;

/// `count` boxes of `side`×`side` strictly positive integer deltas at
/// uniform origins, from the stream `(seed, stream)`. Positive deltas
/// give every box a non-zero mass, so a lost box always shows in a sum.
pub fn update_boxes(seed: u64, stream: u64, count: usize, side: usize) -> Vec<UpdateBox> {
    let mut rng = SplitMix64::new(mix(seed
        ^ stream.wrapping_mul(0xe703_7ed1_a0b4_28db)
        ^ 0xb0c5));
    (0..count)
        .map(|_| {
            let origin = vec![rng.below(SIDE - side + 1), rng.below(SIDE - side + 1)];
            let delta = NdArray::from_fn(Shape::new(&[side, side]), |_| (1 + rng.below(9)) as f64);
            (origin, delta)
        })
        .collect()
}

/// The `k`-th group of the `serve_rw` writer.
pub fn writer_group(seed: u64, k: u64) -> Vec<UpdateBox> {
    update_boxes(seed, 0x1000 + k, GROUP_BOXES, GROUP_BOX_SIDE)
}

/// A group as the wire operations the writer pipelines: every `update`,
/// then `commit`.
pub fn group_ops(group: &[UpdateBox]) -> Vec<Op> {
    let mut ops: Vec<Op> = group
        .iter()
        .map(|(at, delta)| {
            Op::Mutation(ss_serve::Mutation::Update {
                at: at.clone(),
                dims: delta.shape().dims().to_vec(),
                data: delta.as_slice().to_vec(),
            })
        })
        .collect();
    ops.push(Op::Mutation(ss_serve::Mutation::Commit));
    ops
}

/// Total delta mass of a set of boxes.
pub fn boxes_mass(boxes: &[UpdateBox]) -> f64 {
    boxes.iter().map(|(_, d)| d.total()).sum()
}

/// Adds every box onto a dense row-major `SIDE`×`SIDE` grid.
pub fn add_boxes(grid: &mut [f64], boxes: &[UpdateBox]) {
    for (at, delta) in boxes {
        let side = delta.shape().dim(1);
        for (k, v) in delta.as_slice().iter().enumerate() {
            grid[(at[0] + k / side) * SIDE + at[1] + k % side] += v;
        }
    }
}

#[cfg(test)]
/// FNV-1a over the wire lines of the first `exchanges` exchanges of
/// client 0 — the generator's fingerprint.
pub fn traffic_hash(seed: u64, exchanges: usize) -> u64 {
    let mut traffic = Traffic::new(seed, 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut id = 1i128;
    for _ in 0..exchanges {
        for q in traffic.next_exchange().1 {
            for b in ss_serve::proto::request_line(id, &q).bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            id += 1;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(traffic_hash(7, 40), traffic_hash(7, 40));
        assert_ne!(traffic_hash(7, 40), traffic_hash(8, 40));
        // Pinned: a change to the generator changes every exact count,
        // so it must be deliberate.
        assert_eq!(traffic_hash(1, 40), PINNED_SEED1);
    }

    const PINNED_SEED1: u64 = 6_866_427_704_410_645_036;

    #[test]
    fn every_block_of_ten_is_seven_point_three_range() {
        let mut t = Traffic::new(3, 1);
        let mut orders = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let kinds: Vec<Kind> = (0..10).map(|_| t.next_exchange().0).collect();
            assert_eq!(kinds.iter().filter(|k| **k == Kind::Point).count(), 7);
            orders.insert(kinds.iter().map(|k| *k == Kind::Point).collect::<Vec<_>>());
        }
        assert!(orders.len() > 10, "blocks are shuffled");
    }

    #[test]
    fn queries_validate_against_the_domain() {
        let mut t = Traffic::new(11, 0);
        for _ in 0..200 {
            for q in t.next_exchange().1 {
                q.validate(&[SIDE, SIDE]).unwrap();
            }
        }
    }

    #[test]
    fn dataset_halves_differ_in_sparsity() {
        // Piecewise-constant half: a 16×16 cell is flat.
        assert_eq!(cell(5, 0, 0), cell(5, 15, 15));
        let flat = (0..64).all(|k| cell(5, 512 + k, 600) == cell(5, 512, 600));
        assert!(!flat);
        assert_eq!(cell(5, 100, 900), cell(5, 100, 900));
        assert_ne!(dataset_mass(5), dataset_mass(6));
    }

    #[test]
    fn boxes_stay_inside_and_carry_mass() {
        let boxes = update_boxes(9, 1, 500, 16);
        for (at, d) in &boxes {
            assert!(at[0] + 16 <= SIDE && at[1] + 16 <= SIDE);
            assert!(d.total() >= 256.0);
        }
        let mut grid = vec![0.0; CELLS];
        add_boxes(&mut grid, &boxes);
        assert_eq!(grid.iter().sum::<f64>(), boxes_mass(&boxes));
        assert_eq!(writer_group(9, 3).len(), GROUP_BOXES);
        assert_eq!(group_ops(&writer_group(9, 3)).len(), GROUP_BOXES + 1);
    }
}
