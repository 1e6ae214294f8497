//! Batched query execution with shared tile fetches.
//!
//! Workloads rarely ask one question: a dashboard refresh issues hundreds
//! of point and range queries at once. Because every query plan is a
//! contribution list over coefficients, a batch can be executed
//! *tile-major*: resolve all lists up front, group the coefficient reads by
//! tile, and stream each needed tile through memory exactly once. With a
//! cold cache this turns `Q · ceil(n/b)^d` block reads into
//! `|distinct tiles|` — the batching analogue of the paper's tiling
//! argument.

use ss_core::reconstruct::{self, Contributions, LocatedPlans};
use ss_core::tiling::TileSlot;
use ss_core::TilingMap;
use ss_obs::Counter;
use ss_storage::CoeffRead;
use std::sync::OnceLock;

/// Executes a batch of point queries, reading every needed tile once.
pub fn batch_points<C: CoeffRead>(cs: &mut C, n: &[u32], positions: &[Vec<usize>]) -> Vec<f64> {
    let _span = ss_obs::global().span("query.batch_points");
    let plans: Vec<Contributions> = positions
        .iter()
        .map(|pos| reconstruct::standard_point_contributions(n, pos))
        .collect();
    execute_plans(cs, &plans)
}

/// Executes a batch of inclusive range-sum queries, reading every needed
/// tile once.
pub fn batch_range_sums<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    ranges: &[(Vec<usize>, Vec<usize>)],
) -> Vec<f64> {
    let _span = ss_obs::global().span("query.batch_range_sums");
    let plans: Vec<Contributions> = ranges
        .iter()
        .map(|(lo, hi)| reconstruct::standard_range_sum_contributions(n, lo, hi))
        .collect();
    execute_plans(cs, &plans)
}

/// One plan's answer plus its per-tile partial sums, in ascending tile
/// order — what a `partial` request answers.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanTiles {
    /// The plan's answer: the fold of `tiles` partials in order,
    /// starting from `0.0`.
    pub value: f64,
    /// `(tile, partial)` pairs for every tile the plan touched,
    /// ascending by tile ordinal.
    pub tiles: Vec<(usize, f64)>,
}

/// Tile-major evaluation of contribution-list plans: answer `i` is the
/// weighted sum of plan `i`'s coefficients, with every `(tile, slot)` read
/// exactly once across the whole batch.
///
/// Increments the `query.batch_distinct_tiles` counter by the number of
/// distinct tiles the batch touched — the quantity the tile-major claim is
/// about. The evaluation order (and hence the floating-point answer) is
/// deterministic: it depends only on the plans and the tiling map, never on
/// the store behind `cs`, so serial and concurrent executions agree bit for
/// bit.
pub fn execute_plans<'a, C: CoeffRead>(
    cs: &mut C,
    plans: impl IntoIterator<Item = &'a Contributions>,
) -> Vec<f64> {
    execute_plans_tiled(cs, plans)
        .into_iter()
        .map(|r| r.value)
        .collect()
}

/// The members one plan has in one tile: `members[start..end]`, its
/// `(slot, weight)` terms in ascending slot order.
struct Visit {
    tile: usize,
    start: usize,
    end: usize,
}

/// [`execute_plans`] with each answer's per-tile partial sums exposed.
///
/// The pipeline walks **tiles, not terms**, through one set of tables
/// per sweep: every plan's members go into one `members` arena, sized for
/// the whole sweep, and its tiles into one `visits` list, plan by plan.
/// A product plan on a product tiling is located through its per-axis
/// lists into the sweep's [`LocatedPlans`] (its tiles ascending, each
/// tile's members in ascending slot order, no term built); any other plan
/// — and one whose list repeats an index — locates its own terms and
/// stable-sorts them by `(tile, slot)`. The visits are then sorted as
/// packed `(tile << 32) | visit` keys, which gives each tile the sweep
/// touches one contiguous key range, and each tile is entered once
/// ([`CoeffRead::with_tiles`], in whatever order the source yields
/// them), where every visit to it folds its members into its own
/// `partials[visit]` slot and the sweep counts the tile's distinct
/// slots. Once every tile is done, each plan's `tiles` and `value` are
/// assembled from its own visits, which are already ascending by tile —
/// so no answer depends on the order the tiles arrived in.
///
/// The canonical accumulation order is **per-tile decomposed**: within a
/// tile, a plan's contributions fold left in ascending slot order (and,
/// per slot, in plan term order) — the first one *sets* the partial; the
/// answer is then the fold of the per-tile partials in ascending tile
/// order, starting from `0.0`, so no answer depends on what else is in
/// the sweep.
///
/// Counts one coefficient read per distinct `(tile, slot)` of the sweep
/// and one pool access per distinct tile.
///
/// # Panics
///
/// Panics when a tile ordinal or the sweep's visit count does not fit in
/// 32 bits.
pub fn execute_plans_tiled<'a, C: CoeffRead>(
    cs: &mut C,
    plans: impl IntoIterator<Item = &'a Contributions>,
) -> Vec<PlanTiles> {
    // Inert unless the calling thread is inside a traced request; the
    // batch's tile-fetch events then nest under this span.
    let _trace_span = ss_obs::trace::scoped("query.execute");
    let map = cs.map();
    let plans: Vec<&Contributions> = plans.into_iter().collect();
    let terms = plans.iter().map(|plan| plan.len()).sum();
    let mut members: Vec<(usize, f64)> = Vec::with_capacity(terms);
    let mut visits: Vec<Visit> = Vec::new();
    // Plan `q`'s visits are `visits[firsts[q]..firsts[q + 1]]`.
    let mut firsts: Vec<usize> = Vec::with_capacity(plans.len() + 1);
    let mut product = LocatedPlans::default();
    let mut located: Vec<(usize, usize, f64)> = Vec::new();
    for plan in &plans {
        firsts.push(visits.len());
        let by_axis = match (map.axis_tilings(), plan.per_axis()) {
            (Some(axes), Some(per_axis)) if !plan.is_empty() => product.locate(axes, per_axis),
            _ => false,
        };
        if by_axis {
            product.destinations(|tile, at| {
                let start = members.len();
                product.for_each_member(at, |slot, w| members.push((slot, w)));
                let end = members.len();
                visits.push(Visit { tile, start, end });
            });
        } else {
            located.clear();
            plan.for_each_term(|idx, w| {
                let TileSlot { tile, slot } = map.locate(idx);
                located.push((tile, slot, w));
            });
            located.sort_by_key(|&(tile, slot, _)| (tile, slot));
            for in_tile in located.chunk_by(|a, b| a.0 == b.0) {
                let start = members.len();
                members.extend(in_tile.iter().map(|&(_, slot, w)| (slot, w)));
                let end = members.len();
                let tile = in_tile[0].0;
                visits.push(Visit { tile, start, end });
            }
        }
    }
    firsts.push(visits.len());
    let narrow = |x: usize| u64::from(u32::try_from(x).expect("a sweep key field fits in 32 bits"));
    let mut keys: Vec<u64> = visits
        .iter()
        .enumerate()
        .map(|(i, v)| narrow(v.tile) << 32 | narrow(i))
        .collect();
    keys.sort_unstable();
    // Tile `tiles[k]`'s visits are `keys[starts[k]..starts[k + 1]]`.
    let mut tiles: Vec<usize> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for (at, &key) in keys.iter().enumerate() {
        let tile = (key >> 32) as usize;
        if tiles.last() != Some(&tile) {
            tiles.push(tile);
            starts.push(at);
        }
    }
    starts.push(keys.len());
    // The ordinal in `tiles` of the last tile that read each slot.
    let mut seen = vec![usize::MAX; map.block_capacity()];
    let mut partials = vec![0.0; visits.len()];
    cs.with_tiles(&tiles, |k, blk| {
        let mut reads = 0;
        for &key in &keys[starts[k]..starts[k + 1]] {
            let visit = key as u32 as usize;
            let Visit { start, end, .. } = visits[visit];
            let mut terms = members[start..end].iter().map(|&(slot, w)| {
                reads += usize::from(std::mem::replace(&mut seen[slot], k) != k);
                w * blk[slot]
            });
            let first = terms.next().expect("a visit holds a member");
            partials[visit] = terms.fold(first, |p, x| p + x);
        }
        reads
    });
    distinct_tiles().add(tiles.len() as u64);
    firsts
        .windows(2)
        .map(|bounds| {
            let mine = bounds[0]..bounds[1];
            let tiles: Vec<(usize, f64)> = visits[mine.clone()]
                .iter()
                .zip(&partials[mine])
                .map(|(v, &partial)| (v.tile, partial))
                .collect();
            let value = tiles.iter().fold(0.0, |acc, &(_, partial)| acc + partial);
            PlanTiles { value, tiles }
        })
        .collect()
}

/// The `query.batch_distinct_tiles` counter, resolved once.
fn distinct_tiles() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| ss_obs::global().counter("query.batch_distinct_tiles"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::{NonStandardTiling, StandardTiling};
    use ss_datagen::SplitMix64;
    use ss_storage::{wstore::mem_store, CoeffStore, IoStats};
    use std::collections::HashMap;

    /// The evaluator this module shipped before the sort-and-fold one: two
    /// per-batch hash maps. Kept as the oracle the new fold must match bit
    /// for bit, `tiles` included.
    fn execute_plans_tiled_reference<C: CoeffRead>(
        cs: &mut C,
        plans: &[Contributions],
    ) -> Vec<PlanTiles> {
        // (tile, slot) -> [(query, weight)], so each coefficient is read once
        // even when several queries share it.
        let mut wanted: HashMap<(usize, usize), Vec<(usize, f64)>> = HashMap::new();
        for (q, plan) in plans.iter().enumerate() {
            plan.for_each_term(|idx, w| {
                let loc = cs.map().locate(idx);
                wanted.entry((loc.tile, loc.slot)).or_default().push((q, w));
            });
        }
        let mut keys: Vec<(usize, usize)> = wanted.keys().copied().collect();
        keys.sort_unstable();
        let mut results: Vec<PlanTiles> = plans
            .iter()
            .map(|_| PlanTiles {
                value: 0.0,
                tiles: Vec::new(),
            })
            .collect();
        // Keys are sorted, so each tile is one contiguous run.
        let mut i = 0;
        let mut acc: HashMap<usize, f64> = HashMap::new();
        let mut touched: Vec<usize> = Vec::new();
        while i < keys.len() {
            let tile = keys[i].0;
            acc.clear();
            touched.clear();
            while i < keys.len() && keys[i].0 == tile {
                let v = cs.read_at(tile, keys[i].1);
                for &(q, w) in &wanted[&keys[i]] {
                    match acc.entry(q) {
                        std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += w * v,
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(w * v);
                            touched.push(q);
                        }
                    }
                }
                i += 1;
            }
            for &q in &touched {
                let partial = acc[&q];
                results[q].tiles.push((tile, partial));
                results[q].value += partial;
            }
        }
        results
    }

    /// Mostly generic weights, with the values whose products expose a
    /// changed zero sign or a dropped first term mixed in.
    fn weight(rng: &mut SplitMix64) -> f64 {
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.0,
            _ => rng.range(-2.0, 2.0),
        }
    }

    fn index(rng: &mut SplitMix64, dims: &[usize]) -> Vec<usize> {
        dims.iter().map(|&d| rng.below(d)).collect()
    }

    /// Fills a store of `map` over `dims` (leaving some coefficients zero),
    /// draws `count` plans that share a small pool of coefficients — so
    /// plans overlap and repeat a coefficient internally — forces an empty
    /// plan and an in-plan duplicate, and checks the fold against the
    /// reference evaluator bit for bit, coefficient reads included.
    fn fold_matches_reference<M: TilingMap>(map: M, dims: &[usize], seed: u64, count: usize) {
        let mut rng = SplitMix64::new(seed);
        let stats = IoStats::new();
        let mut cs = mem_store(map, 1 << 10, stats.clone());
        for idx in MultiIndexIter::new(dims) {
            if rng.below(4) != 0 {
                cs.write(&idx, weight(&mut rng) * 3.0);
            }
        }
        let pool: Vec<Vec<usize>> = (0..10).map(|_| index(&mut rng, dims)).collect();
        let mut plans: Vec<Contributions> = (0..count)
            .map(|_| {
                let terms = rng.below(40);
                let mut plan = Contributions::with_capacity(dims.len(), terms);
                for _ in 0..terms {
                    let idx = match rng.below(3) {
                        0 => index(&mut rng, dims),
                        _ => pool[rng.below(pool.len())].clone(),
                    };
                    plan.push(&idx, weight(&mut rng));
                }
                plan
            })
            .collect();
        if count >= 2 {
            plans[0] = Contributions::with_capacity(dims.len(), 0);
            let mut twice = Contributions::with_capacity(dims.len(), 3);
            twice.push(&pool[0], weight(&mut rng));
            twice.push(&pool[1], weight(&mut rng));
            twice.push(&pool[0], weight(&mut rng));
            plans[1] = twice;
        }
        stats.reset();
        let want = execute_plans_tiled_reference(&mut cs, &plans);
        let reference_reads = stats.snapshot().coeff_reads;
        stats.reset();
        let got = execute_plans_tiled(&mut cs, &plans);
        assert_eq!(stats.snapshot().coeff_reads, reference_reads);
        assert_eq!(got.len(), want.len());
        for (q, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.value.to_bits(), w.value.to_bits(), "plan {q} value");
            let bits = |r: &PlanTiles| -> Vec<(usize, u64)> {
                r.tiles.iter().map(|&(t, p)| (t, p.to_bits())).collect()
            };
            assert_eq!(bits(g), bits(w), "plan {q} tiles");
        }
    }

    /// A random product tiling: rank 1–3, per-axis levels 0–5 with one
    /// axis forced to `n_t = 0` when `flat_axis`, block sides `2^1`–`2^3`
    /// drawn per axis.
    fn random_tiling(rng: &mut SplitMix64, flat_axis: bool) -> (Vec<u32>, StandardTiling) {
        let d = 1 + rng.below(3);
        let mut n: Vec<u32> = (0..d).map(|_| rng.below(6) as u32).collect();
        if flat_axis {
            n[rng.below(d)] = 0;
        }
        let b: Vec<u32> = (0..d).map(|_| 1 + rng.below(3) as u32).collect();
        let map = StandardTiling::new(&n, &b);
        (n, map)
    }

    /// Point and range plans (product form), raw `partial` term lists
    /// with repeats (flat form), an empty plan of each form, and a
    /// product whose lists repeat an index and carry `±0.0` factors.
    fn mixed_plans(rng: &mut SplitMix64, n: &[u32], count: usize) -> Vec<Contributions> {
        let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
        let pool: Vec<Vec<usize>> = (0..6).map(|_| index(rng, &dims)).collect();
        let mut plans: Vec<Contributions> = (0..count)
            .map(|_| match rng.below(3) {
                0 => reconstruct::standard_point_contributions(n, &index(rng, &dims)),
                1 => {
                    let lo = index(rng, &dims);
                    let hi: Vec<usize> = lo
                        .iter()
                        .zip(&dims)
                        .map(|(&l, &d)| l + rng.below(d - l))
                        .collect();
                    reconstruct::standard_range_sum_contributions(n, &lo, &hi)
                }
                _ => {
                    let terms = rng.below(30);
                    let mut plan = Contributions::with_capacity(n.len(), terms);
                    for _ in 0..terms {
                        let idx = match rng.below(3) {
                            0 => index(rng, &dims),
                            _ => pool[rng.below(pool.len())].clone(),
                        };
                        plan.push(&idx, weight(rng));
                    }
                    plan
                }
            })
            .collect();
        plans.push(Contributions::with_capacity(n.len(), 0));
        let mut lists: Vec<Vec<(usize, f64)>> = dims
            .iter()
            .map(|&d| {
                let i = rng.below(d);
                vec![
                    (i, weight(rng)),
                    (rng.below(d), weight(rng)),
                    (i, weight(rng)),
                ]
            })
            .collect();
        plans.push(Contributions::product(lists.clone()));
        lists[rng.below(n.len())].clear();
        plans.push(Contributions::product(lists));
        plans
    }

    /// `execute_plans_tiled` against the reference on one source: the
    /// same `PlanTiles` bits, coefficient reads and block reads.
    fn same_as_reference<C: CoeffRead>(
        cs: &mut C,
        stats: &IoStats,
        plans: &[Contributions],
        cold: &mut impl FnMut(&mut C),
        what: &str,
    ) {
        cold(cs);
        stats.reset();
        let want = execute_plans_tiled_reference(cs, plans);
        let want_io = stats.snapshot();
        cold(cs);
        stats.reset();
        let got = execute_plans_tiled(cs, plans);
        let got_io = stats.snapshot();
        assert_eq!(
            got_io.coeff_reads, want_io.coeff_reads,
            "{what}: coefficient reads"
        );
        assert_eq!(
            got_io.block_reads, want_io.block_reads,
            "{what}: block reads"
        );
        let bits = |r: &PlanTiles| -> (u64, Vec<(usize, u64)>) {
            let tiles = r.tiles.iter().map(|&(t, p)| (t, p.to_bits())).collect();
            (r.value.to_bits(), tiles)
        };
        assert_eq!(got.len(), want.len(), "{what}");
        for (q, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: plan {q}");
        }
    }

    /// The tile walk against the two-hash-map oracle on every source kind
    /// a sweep runs on: an exclusive store, a shared store whose pool
    /// holds two tiles (so tiles are evicted mid-sweep), and a pinned
    /// snapshot whose overlay shadows some tiles.
    #[test]
    fn product_plans_fold_like_the_oracle_on_every_source() {
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let (n, map) = random_tiling(&mut rng, seed % 4 == 0);
            let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
            let mut values: Vec<(Vec<usize>, f64)> = Vec::new();
            for idx in MultiIndexIter::new(&dims) {
                if rng.below(5) != 0 {
                    values.push((idx, weight(&mut rng) * 3.0));
                }
            }
            let count = 1 + rng.below(8);
            let plans = mixed_plans(&mut rng, &n, count);
            let what = format!("seed {seed}, levels {n:?}");

            let stats = IoStats::new();
            let mut cs = mem_store(map.clone(), 1 << 10, stats.clone());
            for (idx, v) in &values {
                cs.write(idx, *v);
            }
            cs.flush();
            same_as_reference(&mut cs, &stats, &plans, &mut |cs| cs.clear_cache(), &what);

            let stats = IoStats::new();
            let shared = ss_storage::mem_shared_store(map.clone(), 2, 1, stats.clone());
            for (idx, v) in &values {
                shared.write(idx, *v);
            }
            shared.flush();
            let mut handle = &shared;
            let mut cold = |_: &mut _| shared.pool().clear();
            let shared_what = format!("{what}, shared");
            same_as_reference(&mut handle, &stats, &plans, &mut cold, &shared_what);

            let stats = IoStats::new();
            let base = ss_storage::mem_shared_store(map.clone(), 1 << 10, 1, stats.clone());
            for (idx, v) in &values {
                base.write(idx, *v);
            }
            let snapshots = ss_maintain::SnapshotCoeffStore::new(base, None, 0);
            let mut buf = ss_maintain::DeltaBuffer::new();
            buf.begin_box();
            for _ in 0..1 + rng.below(6) {
                let loc = map.locate(&index(&mut rng, &dims));
                buf.add(loc.tile, loc.slot, weight(&mut rng));
            }
            snapshots.commit(&mut buf).unwrap();
            let mut pinned = snapshots.pin();
            let mut cold = |_: &mut _| snapshots.base().pool().clear();
            let pinned_what = format!("{what}, pinned");
            same_as_reference(&mut pinned, &stats, &plans, &mut cold, &pinned_what);
        }
    }

    /// How a sweep is cut and ordered changes no answer: one seeded mix
    /// of point, range, `partial` and empty plans at ranks 1–4, run in
    /// sweeps of 1, 2, 7, 32, 64 and 65 plans, forwards and reversed,
    /// gives every plan the oracle's `value` and `tiles` bit for bit — the
    /// `(tile, visit)` key sort cannot leak the batch into an answer.
    #[test]
    fn batch_composition_changes_no_answer() {
        for d in 1..=4usize {
            let mut rng = SplitMix64::new(0xBA7C + d as u64);
            let top = if d <= 2 { 3 } else { 2 };
            let n: Vec<u32> = (0..d).map(|_| 2 + rng.below(top) as u32).collect();
            let b: Vec<u32> = (0..d).map(|_| 1 + rng.below(2) as u32).collect();
            let map = StandardTiling::new(&n, &b);
            let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
            let mut cs = mem_store(map, 1 << 10, IoStats::new());
            for idx in MultiIndexIter::new(&dims) {
                cs.write(&idx, weight(&mut rng) * 3.0);
            }
            let plans = mixed_plans(&mut rng, &n, 65);
            let want = execute_plans_tiled_reference(&mut cs, &plans);
            let touched: std::collections::BTreeSet<usize> = want
                .iter()
                .flat_map(|r| r.tiles.iter().map(|&(t, _)| t))
                .collect();
            assert!(touched.len() > 4, "rank {d}: {} tiles", touched.len());
            let bits = |r: &PlanTiles| -> (u64, Vec<(usize, u64)>) {
                let tiles = r.tiles.iter().map(|&(t, p)| (t, p.to_bits())).collect();
                (r.value.to_bits(), tiles)
            };
            let reversed: Vec<Contributions> = plans.iter().rev().cloned().collect();
            for cut in [1, 2, 7, 32, 64, 65] {
                let mut forwards: Vec<PlanTiles> = Vec::new();
                for sweep in plans.chunks(cut) {
                    forwards.extend(execute_plans_tiled(&mut cs, sweep));
                }
                let mut backwards: Vec<PlanTiles> = Vec::new();
                for sweep in reversed.chunks(cut) {
                    backwards.extend(execute_plans_tiled(&mut cs, sweep));
                }
                backwards.reverse();
                for (q, w) in want.iter().enumerate() {
                    let what = format!("rank {d}, sweeps of {cut}, plan {q}");
                    assert_eq!(bits(&forwards[q]), bits(w), "{what}");
                    assert_eq!(bits(&backwards[q]), bits(w), "{what}, reversed");
                }
            }
        }
    }

    /// A source whose `with_tiles` hands out its tiles in a seeded
    /// permutation — reversed for seed 0 — the freedom the
    /// [`CoeffRead::with_tiles`] contract leaves a source.
    struct Shuffled<'a, C> {
        inner: &'a mut C,
        seed: u64,
    }

    impl<C: CoeffRead> CoeffRead for Shuffled<'_, C> {
        type Map = C::Map;

        fn map(&self) -> &C::Map {
            self.inner.map()
        }

        fn read(&mut self, idx: &[usize]) -> f64 {
            self.inner.read(idx)
        }

        fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
            self.inner.read_at(tile, slot)
        }

        fn with_tiles(&mut self, tiles: &[usize], mut f: impl FnMut(usize, &[f64]) -> usize) {
            let mut order: Vec<usize> = (0..tiles.len()).rev().collect();
            if self.seed != 0 {
                let mut rng = SplitMix64::new(self.seed);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
            }
            let shuffled: Vec<usize> = order.iter().map(|&k| tiles[k]).collect();
            self.inner.with_tiles(&shuffled, |j, blk| f(order[j], blk));
        }
    }

    /// The fold does not depend on the order tiles arrive in: through
    /// [`Shuffled`], reversed and in seeded permutations, a mix of point,
    /// range, `partial` and empty plans at ranks 1–4 gets the oracle's
    /// `value` and `tiles` bits and its coefficient reads.
    #[test]
    fn the_fold_is_free_of_the_tile_order() {
        for d in 1..=4usize {
            let mut rng = SplitMix64::new(0x0DE5 + d as u64);
            let (least, top) = [(5, 2), (2, 3), (2, 2), (2, 2)][d - 1];
            let n: Vec<u32> = (0..d).map(|_| least + rng.below(top) as u32).collect();
            let b: Vec<u32> = (0..d).map(|_| 1 + rng.below(2) as u32).collect();
            let map = StandardTiling::new(&n, &b);
            let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
            let stats = IoStats::new();
            let mut cs = mem_store(map, 1 << 10, stats.clone());
            for idx in MultiIndexIter::new(&dims) {
                cs.write(&idx, weight(&mut rng) * 3.0);
            }
            let plans = mixed_plans(&mut rng, &n, 24);
            stats.reset();
            let want = execute_plans_tiled_reference(&mut cs, &plans);
            let want_reads = stats.snapshot().coeff_reads;
            let touched: std::collections::BTreeSet<usize> = want
                .iter()
                .flat_map(|r| r.tiles.iter().map(|&(t, _)| t))
                .collect();
            assert!(touched.len() > 4, "rank {d}: {} tiles", touched.len());
            let bits = |r: &PlanTiles| -> (u64, Vec<(usize, u64)>) {
                let tiles = r.tiles.iter().map(|&(t, p)| (t, p.to_bits())).collect();
                (r.value.to_bits(), tiles)
            };
            for seed in 0..6u64 {
                let mut shuffled = Shuffled {
                    inner: &mut cs,
                    seed,
                };
                stats.reset();
                let got = execute_plans_tiled(&mut shuffled, &plans);
                let what = format!("rank {d}, order {seed}");
                assert_eq!(stats.snapshot().coeff_reads, want_reads, "{what}: reads");
                assert_eq!(got.len(), want.len(), "{what}");
                for (q, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(bits(g), bits(w), "{what}, plan {q}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fold_is_bit_identical_to_the_two_hashmap_evaluator(
            seed in any::<u64>(),
            count in 0usize..9,
        ) {
            fold_matches_reference(StandardTiling::new(&[6], &[2]), &[64], seed, count);
            fold_matches_reference(StandardTiling::new(&[4, 5], &[2, 3]), &[16, 32], seed, count);
            fold_matches_reference(StandardTiling::cube(3, 3, 1), &[8, 8, 8], seed, count);
            fold_matches_reference(NonStandardTiling::new(2, 4, 2), &[16, 16], seed, count);
        }
    }

    fn setup(
        side: usize,
        n: u32,
    ) -> (
        NdArray<f64>,
        CoeffStore<StandardTiling, ss_storage::MemBlockStore>,
        IoStats,
    ) {
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 31 + idx[1] * 7) % 23) as f64
        });
        let t = ss_core::standard::forward_to(&data);
        let stats = IoStats::new();
        let mut cs = mem_store(
            StandardTiling::new(&[n; 2], &[2; 2]),
            1 << 12,
            stats.clone(),
        );
        for idx in MultiIndexIter::new(&[side, side]) {
            cs.write(&idx, t.get(&idx));
        }
        cs.flush();
        (data, cs, stats)
    }

    #[test]
    fn batch_points_match_singles() {
        let (data, mut cs, _) = setup(64, 6);
        let positions: Vec<Vec<usize>> = (0..50)
            .map(|i| vec![(i * 13) % 64, (i * 29) % 64])
            .collect();
        let got = batch_points(&mut cs, &[6, 6], &positions);
        for (pos, g) in positions.iter().zip(&got) {
            assert!((g - data.get(pos)).abs() < 1e-9, "{pos:?}");
        }
    }

    #[test]
    fn batch_range_sums_match_naive() {
        let (data, mut cs, _) = setup(64, 6);
        let ranges: Vec<(Vec<usize>, Vec<usize>)> = (0..20)
            .map(|i| {
                let lo = vec![(i * 3) % 32, (i * 5) % 32];
                let hi = vec![lo[0] + 15, lo[1] + 20];
                (lo, hi)
            })
            .collect();
        let got = batch_range_sums(&mut cs, &[6, 6], &ranges);
        for ((lo, hi), g) in ranges.iter().zip(&got) {
            assert!(
                (g - data.region_sum(lo, hi)).abs() < 1e-6,
                "[{lo:?},{hi:?}]"
            );
        }
    }

    #[test]
    fn batching_reads_fewer_blocks_than_sequential_cold_queries() {
        let (_, mut cs, stats) = setup(64, 6);
        let positions: Vec<Vec<usize>> = (0..100)
            .map(|i| vec![(i * 7) % 64, (i * 11) % 64])
            .collect();
        // Sequential with a cold cache per query.
        let mut sequential_blocks = 0u64;
        for pos in &positions {
            cs.clear_cache();
            stats.reset();
            let _ = crate::point_standard(&mut cs, &[6, 6], pos);
            sequential_blocks += stats.snapshot().block_reads;
        }
        // Batched, cold cache once.
        cs.clear_cache();
        stats.reset();
        let _ = batch_points(&mut cs, &[6, 6], &positions);
        let batched_blocks = stats.snapshot().block_reads;
        assert!(
            batched_blocks * 3 < sequential_blocks,
            "batched {batched_blocks} vs sequential {sequential_blocks}"
        );
    }

    #[test]
    fn shared_coefficients_read_once() {
        let (_, mut cs, stats) = setup(16, 4);
        // All queries share the root path; coefficient reads must reflect
        // dedup across queries.
        let positions: Vec<Vec<usize>> = (0..16).map(|i| vec![i, i]).collect();
        cs.clear_cache();
        stats.reset();
        let _ = batch_points(&mut cs, &[4, 4], &positions);
        let reads = stats.snapshot().coeff_reads;
        // Naive: 16 queries x 25 contributions = 400 reads; shared paths
        // collapse well below that.
        assert!(reads < 300, "expected dedup, got {reads} reads");
    }

    #[test]
    fn empty_batch() {
        let (_, mut cs, _) = setup(16, 4);
        assert!(batch_points(&mut cs, &[4, 4], &[]).is_empty());
    }

    #[test]
    fn value_is_the_fold_of_tile_partials() {
        let (_, mut cs, _) = setup(64, 6);
        let plans = vec![
            reconstruct::standard_point_contributions(&[6, 6], &[13, 41]),
            reconstruct::standard_range_sum_contributions(&[6, 6], &[3, 5], &[40, 60]),
        ];
        for r in execute_plans_tiled(&mut cs, &plans) {
            let mut acc = 0.0f64;
            let mut last = None;
            for &(tile, partial) in &r.tiles {
                assert!(last.is_none_or(|t| t < tile), "tiles not ascending");
                last = Some(tile);
                acc += partial;
            }
            assert_eq!(acc.to_bits(), r.value.to_bits());
        }
    }
}
