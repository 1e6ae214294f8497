//! Property test backing the scatter-gather router's exactness claim:
//! for **any** batch of plans and **any** contiguous partition of tile
//! space into 1/2/4/8 shards, executing each plan's per-shard slice
//! independently and re-folding the per-tile partials in ascending tile
//! order is bit-identical to executing the whole plan against one store.
//! `f64::to_bits` equality, no tolerances — the router sells exact
//! answers, not approximations.

use proptest::prelude::*;
use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::reconstruct::{self, Contributions};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_query::execute_plans_tiled;
use ss_storage::wstore::{mem_store, CoeffStore};
use ss_storage::{IoStats, MemBlockStore, ShardMap};

const N: u32 = 5;
const SIDE: usize = 1 << N;

/// SplitMix64 — derives every random choice from the sampled seed, so
/// failures reproduce from the proptest case alone.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn weight(&mut self) -> f64 {
        (self.next() as f64 / u64::MAX as f64) * 4.0 - 2.0
    }
}

fn store() -> CoeffStore<StandardTiling, MemBlockStore> {
    let a = NdArray::from_fn(Shape::cube(2, SIDE), |idx| {
        ((idx[0] * 31 + idx[1] * 7) % 23) as f64 / 3.0 - 2.5
    });
    let t = ss_core::standard::forward_to(&a);
    let mut cs = mem_store(
        StandardTiling::new(&[N; 2], &[2; 2]),
        1 << 10,
        IoStats::new(),
    );
    for idx in MultiIndexIter::new(&[SIDE, SIDE]) {
        cs.write(&idx, t.get(&idx));
    }
    cs
}

/// A mix of the three plan shapes the router routes: point
/// reconstructions, range-sum aggregates, and raw weighted term lists
/// (what a `partial` sub-request carries).
fn random_plans(rng: &mut Mix, count: usize) -> Vec<Contributions> {
    (0..count)
        .map(|_| match rng.below(3) {
            0 => reconstruct::standard_point_contributions(
                &[N; 2],
                &[rng.below(SIDE), rng.below(SIDE)],
            ),
            1 => {
                let lo = [rng.below(SIDE), rng.below(SIDE)];
                let hi = [
                    lo[0] + rng.below(SIDE - lo[0]),
                    lo[1] + rng.below(SIDE - lo[1]),
                ];
                reconstruct::standard_range_sum_contributions(&[N; 2], &lo, &hi)
            }
            _ => {
                let terms = 1 + rng.below(20);
                let mut raw = Contributions::with_capacity(2, terms);
                for _ in 0..terms {
                    raw.push(&[rng.below(SIDE), rng.below(SIDE)], rng.weight());
                }
                raw
            }
        })
        .collect()
}

/// A random *contiguous* partition: `shards - 1` distinct cut points.
/// Contiguity is the property the merge relies on; the cut positions
/// are free.
fn random_partition(rng: &mut Mix, num_tiles: usize, shards: usize) -> ShardMap {
    let mut cuts = std::collections::BTreeSet::new();
    while cuts.len() < shards - 1 {
        cuts.insert(1 + rng.below(num_tiles - 1));
    }
    let mut bounds = vec![0usize];
    bounds.extend(cuts);
    bounds.push(num_tiles);
    ShardMap::from_bounds(bounds, 1).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn routed_merge_is_bit_identical_for_any_contiguous_partition(
        seed in any::<u64>(),
        count in 1usize..10,
    ) {
        let mut rng = Mix(seed);
        let mut cs = store();
        let plans = random_plans(&mut rng, count);
        let whole = execute_plans_tiled(&mut cs, &plans);
        let num_tiles = cs.map().num_tiles();

        for shards in [1usize, 2, 4, 8] {
            let maps = [
                ShardMap::even(num_tiles, shards, 1).unwrap(),
                random_partition(&mut rng, num_tiles, shards),
            ];
            for map in maps {
                // Route: split every plan's terms by owning shard,
                // preserving within-shard term order (what the router's
                // `partial` sub-requests carry).
                let mut parts: Vec<Vec<Contributions>> =
                    vec![vec![Contributions::with_capacity(2, 0); plans.len()]; shards];
                for (q, plan) in plans.iter().enumerate() {
                    plan.for_each_term(|idx, w| {
                        let tile = cs.map().locate(idx).tile;
                        parts[map.owner(tile)][q].push(idx, w);
                    });
                }
                // Merge: fold per-tile partials in ascending shard order
                // (= ascending tile order, ranges being contiguous).
                let mut merged = vec![0.0f64; plans.len()];
                for shard_plans in &parts {
                    let results = execute_plans_tiled(&mut cs, shard_plans);
                    for (q, r) in results.iter().enumerate() {
                        for &(_, partial) in &r.tiles {
                            merged[q] += partial;
                        }
                    }
                }
                for (q, (m, w)) in merged.iter().zip(&whole).enumerate() {
                    prop_assert_eq!(
                        m.to_bits(),
                        w.value.to_bits(),
                        "plan {} diverges at {} shards (bounds {:?})",
                        q,
                        shards,
                        map.bounds()
                    );
                }
            }
        }
    }
}
