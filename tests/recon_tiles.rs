//! The read side of the located, tile-major machinery: partial
//! reconstruction gathering its envelope one tile at a time, and a domain
//! doubling moving whole tiles.
//!
//! * `reconstruct_box_standard` on a product map gathers the union of
//!   its pieces' envelopes through `CoeffRead::with_tile` and assembles
//!   every piece from that copy. It must equal the per-coefficient oracle
//!   (`standard_reconstruct_range` over `CoeffRead::read`, piece by
//!   piece) **bit for bit** — through `CoeffStore`, `&SharedCoeffStore`
//!   and a `PinnedSnapshot` whose epoch has an overlay — and with a
//!   1-frame pool read each tile of the envelope exactly once.
//! * The invariance a doubling's block move rests on: for every detail
//!   outside the grown axis's top band, `tile_root` and slot are the same
//!   before and after `n → n + 1`, on 1-d and standard maps.
//! * The move itself: a doubling of stored coefficients (exact zeros and
//!   `-0.0` included) equals `ss_core::append::expand_axis_standard`
//!   bit for bit.
//!
//! Geometries: 1-d, 2-d rectangular with `b ∤ n`, 3-d; seeded random
//! boxes, 1-cell and full-domain ones among them.

use shiftsplit::array::{decompose_range, MultiIndexIter, NdArray, Shape};
use shiftsplit::core::reconstruct::standard_reconstruct_range;
use shiftsplit::core::tiling::{StandardTiling, Tiling1d};
use shiftsplit::core::{Coeff1d, Layout1d, TilingMap};
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{DeltaBuffer, SnapshotCoeffStore};
use shiftsplit::query::reconstruct_box_standard;
use shiftsplit::storage::{
    mem_shared_store, wstore::mem_store, CoeffRead, CoeffStore, IoStats, MemBlockStore,
};
use shiftsplit::transform::Appender;
use std::collections::HashSet;

/// `(levels, tile exponents)` of every geometry under test.
fn geometries() -> Vec<(Vec<u32>, Vec<u32>)> {
    vec![
        (vec![6], vec![2]),
        (vec![7], vec![3]),
        (vec![5, 4], vec![2, 3]),
        (vec![4, 6], vec![3, 4]),
        (vec![3, 4, 2], vec![2, 1, 2]),
    ]
}

/// A transform of seeded data, about a quarter of the cells exactly zero.
fn transform(rng: &mut SplitMix64, n: &[u32]) -> NdArray<f64> {
    let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
    let data = NdArray::from_fn(Shape::new(&dims), |_| {
        if rng.below(4) == 0 {
            0.0
        } else {
            rng.range(-50.0, 50.0)
        }
    });
    shiftsplit::core::standard::forward_to(&data)
}

/// A seeded inclusive box; every fifth is 1-cell, every seventh the
/// whole domain.
fn random_box(rng: &mut SplitMix64, n: &[u32], k: usize) -> (Vec<usize>, Vec<usize>) {
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for &nt in n {
        let side = 1usize << nt;
        let (a, b) = match k {
            _ if k.is_multiple_of(7) => (0, side - 1),
            _ if k.is_multiple_of(5) => {
                let a = rng.below(side);
                (a, a)
            }
            _ => {
                let (a, b) = (rng.below(side), rng.below(side));
                (a.min(b), a.max(b))
            }
        };
        lo.push(a);
        hi.push(b);
    }
    (lo, hi)
}

/// The per-coefficient oracle, and every tile its reads touch.
fn oracle<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    lo: &[usize],
    hi: &[usize],
) -> (NdArray<f64>, HashSet<usize>) {
    let extents: Vec<usize> = lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).collect();
    let mut out = NdArray::zeros(Shape::new(&extents));
    let mut tiles = HashSet::new();
    for piece in decompose_range(lo, hi) {
        let data = standard_reconstruct_range(n, &piece, |idx| {
            tiles.insert(cs.map().locate(idx).tile);
            cs.read(idx)
        });
        let origin: Vec<usize> = piece
            .origin()
            .iter()
            .zip(lo)
            .map(|(&o, &l)| o - l)
            .collect();
        out.insert(&origin, &data);
    }
    (out, tiles)
}

fn assert_bits(got: &NdArray<f64>, want: &NdArray<f64>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
    }
}

/// Runs `check(levels, map, transform, rng)` on every geometry, with a
/// seeded transform for the store to hold.
fn for_each_store(mut check: impl FnMut(&[u32], StandardTiling, &NdArray<f64>, &mut SplitMix64)) {
    let mut rng = SplitMix64::new(0x7e11);
    for (n, b) in geometries() {
        let t = transform(&mut rng, &n);
        check(&n, StandardTiling::new(&n, &b), &t, &mut rng);
    }
}

fn filled<S: shiftsplit::storage::BlockStore>(
    cs: &mut CoeffStore<StandardTiling, S>,
    t: &NdArray<f64>,
) {
    for idx in MultiIndexIter::new(t.shape().dims()) {
        cs.write(&idx, t.get(&idx));
    }
    cs.flush();
}

#[test]
fn tile_major_extract_equals_the_oracle_and_reads_each_envelope_tile_once() {
    for_each_store(|n, map, t, rng| {
        let stats = IoStats::new();
        let mut cs = mem_store(map.clone(), 1, stats.clone());
        filled(&mut cs, t);
        let mut reference = mem_store(map.clone(), 1 << 12, IoStats::new());
        filled(&mut reference, t);
        for k in 0..24 {
            let (lo, hi) = random_box(rng, n, k);
            let (want, tiles) = oracle(&mut reference, n, &lo, &hi);
            cs.clear_cache();
            stats.reset();
            let got = reconstruct_box_standard(&mut cs, n, &lo, &hi);
            assert_bits(&got, &want, &format!("n={n:?} [{lo:?}, {hi:?}]"));
            let io = stats.snapshot();
            assert_eq!(
                io.block_reads,
                tiles.len() as u64,
                "n={n:?} [{lo:?}, {hi:?}]"
            );
            assert_eq!(io.pool_misses, tiles.len() as u64, "one access per tile");
        }
    });
}

#[test]
fn tile_major_extract_through_a_shared_store() {
    for_each_store(|n, map, t, rng| {
        let stats = IoStats::new();
        let shared = mem_shared_store(map.clone(), 1, 1, stats.clone());
        for idx in MultiIndexIter::new(t.shape().dims()) {
            shared.write(&idx, t.get(&idx));
        }
        shared.flush();
        for k in 0..16 {
            let (lo, hi) = random_box(rng, n, k);
            let (want, tiles) = oracle(&mut &shared, n, &lo, &hi);
            shared.pool().clear();
            stats.reset();
            let got = reconstruct_box_standard(&mut &shared, n, &lo, &hi);
            assert_bits(&got, &want, &format!("shared n={n:?} [{lo:?}, {hi:?}]"));
            assert_eq!(stats.snapshot().block_reads, tiles.len() as u64);
        }
    });
}

#[test]
fn tile_major_extract_through_a_pinned_snapshot_with_an_overlay() {
    for_each_store(|n, map, t, rng| {
        let capacity = map.block_capacity();
        let tiles = map.num_tiles();
        let base = mem_shared_store(map, 4, 2, IoStats::new());
        for idx in MultiIndexIter::new(t.shape().dims()) {
            base.write(&idx, t.get(&idx));
        }
        let store = SnapshotCoeffStore::new(base, None, 0);
        // One epoch dirtying a third of the tiles: those are read from
        // the overlay, the rest from the base pool.
        let mut buf = DeltaBuffer::new();
        buf.begin_box();
        for tile in (0..tiles).filter(|tile| tile % 3 == 1) {
            buf.add(tile, rng.below(capacity), rng.range(-5.0, 5.0));
        }
        store.commit(&mut buf).unwrap();
        let mut pin = store.pin();
        for k in 0..16 {
            let (lo, hi) = random_box(rng, n, k);
            let (want, _) = oracle(&mut pin, n, &lo, &hi);
            let got = reconstruct_box_standard(&mut pin, n, &lo, &hi);
            assert_bits(&got, &want, &format!("pinned n={n:?} [{lo:?}, {hi:?}]"));
            let got = reconstruct_box_standard(&mut &pin, n, &lo, &hi);
            assert_bits(&got, &want, &format!("&pinned n={n:?} [{lo:?}, {hi:?}]"));
        }
    });
}

#[test]
fn details_outside_the_top_band_keep_root_and_slot_when_the_domain_doubles() {
    // 1-d maps: every detail `(level, k)` outside the top tile.
    for n in 0..=12u32 {
        for b in 1..=4u32 {
            let (old, new) = (Tiling1d::new(n, b), Tiling1d::new(n + 1, b));
            let (old_layout, new_layout) = (Layout1d::new(n), Layout1d::new(n + 1));
            for index in 1..1usize << n {
                let at = old.locate(&[index]);
                if at.tile == 0 {
                    continue; // the top band: its slots shift
                }
                let detail @ Coeff1d::Detail { .. } = old_layout.coeff_at(index) else {
                    unreachable!("index 0 is the average, in the top tile")
                };
                let moved = new.locate(&[new_layout.index_of(detail)]);
                assert_eq!(moved.slot, at.slot, "n={n} b={b} {detail:?}");
                let root = old.axis().tile_root(at.tile);
                assert_eq!(new.axis().tile_root(moved.tile), root, "n={n} b={b}");
                assert_eq!(new.axis().tile_of_root(root.0, root.1), Some(moved.tile));
            }
        }
    }
    // Standard maps: the grown axis as above, the others untouched.
    for (n, b, axis) in [
        (vec![3u32, 5], vec![2u32, 2], 1usize),
        (vec![4, 2], vec![3, 1], 0),
        (vec![2, 3, 4], vec![1, 2, 4], 2),
    ] {
        let old = StandardTiling::new(&n, &b);
        let mut grown = n.clone();
        grown[axis] += 1;
        let new = StandardTiling::new(&grown, &b);
        let new_layout = Layout1d::new(grown[axis]);
        let old_layout = Layout1d::new(n[axis]);
        let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
        for idx in MultiIndexIter::new(&dims) {
            let at = old.locate(&idx);
            let tuple = old.tile_grid().unoffset(at.tile);
            if tuple[axis] == 0 {
                continue;
            }
            let mut target = idx.clone();
            target[axis] = new_layout.index_of(old_layout.coeff_at(idx[axis]));
            let moved = new.locate(&target);
            assert_eq!(moved.slot, at.slot, "n={n:?} {idx:?}");
            let moved_tuple = new.tile_grid().unoffset(moved.tile);
            for t in 0..n.len() {
                if t == axis {
                    let root = old.axes()[t].tile_root(tuple[t]);
                    assert_eq!(new.axes()[t].tile_root(moved_tuple[t]), root);
                } else {
                    assert_eq!(moved_tuple[t], tuple[t], "n={n:?} {idx:?}");
                }
            }
        }
    }
}

#[test]
fn a_doubling_moves_tiles_bit_for_bit() {
    // Arbitrary stored coefficients — exact zeros and `-0.0` among them —
    // then one all-zero append that forces exactly one doubling (a zero
    // chunk folds nothing): the store must hold the in-memory expansion,
    // which skips zeros, so `-0.0` comes back as `+0.0`.
    let mut rng = SplitMix64::new(0xd0b1e);
    for (n, b, axis) in [
        (vec![6u32], vec![2u32], 0usize),
        (vec![3, 5], vec![2, 2], 1),
        (vec![4, 3], vec![3, 1], 0),
        (vec![2, 3, 4], vec![1, 2, 3], 2),
    ] {
        let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
        let t = NdArray::from_fn(Shape::new(&dims), |_| match rng.below(4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range(-9.0, 9.0),
        });
        let stats = IoStats::new();
        let factory_stats = stats.clone();
        let map = StandardTiling::new(&n, &b);
        let blocks = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
        let mut cs = CoeffStore::new(map, blocks, 2, stats.clone());
        filled(&mut cs, &t);
        let factory = move |cap, blocks| MemBlockStore::new(cap, blocks, factory_stats.clone());
        let mut app = Appender::resume(cs, axis, dims[axis], factory);
        let mut chunk_dims = dims.clone();
        chunk_dims[axis] = 1;
        app.append(&NdArray::zeros(Shape::new(&chunk_dims)));
        assert_eq!(app.expansions(), 1);
        let want = shiftsplit::core::append::expand_axis_standard(&t, axis);
        for idx in MultiIndexIter::new(want.shape().dims()) {
            let got = app.store().read(&idx);
            assert_eq!(got.to_bits(), want.get(&idx).to_bits(), "n={n:?} {idx:?}");
        }
    }
}
