//! Property tests: group-committed maintenance answers bit-identically.
//!
//! The contract the `DeltaBuffer` engine sells is that coalescing is an
//! I/O-layer optimisation with **zero** numerical surface: for any batch
//! of update boxes, flushing one group commit produces coefficient blocks
//! whose every `f64` is bit-for-bit the value the serial per-box path
//! writes. These tests
//! state that as sampled properties over random workloads rather than as
//! hand-picked examples — `f64::to_bits` equality, no tolerances.

use proptest::prelude::*;
use ss_array::{NdArray, Shape};
use ss_core::{NonStandardTiling, StandardTiling, TilingMap};
use ss_datagen::SplitMix64;
use ss_maintain::{update_boxes_nonstandard, update_boxes_standard, FlushMode};
use ss_storage::wstore::mem_store;
use ss_storage::{CoeffStore, IoStats, MemBlockStore};

/// `count` boxes with random origins, extents (≤ 5 per axis) and values,
/// all derived from one sampled seed so failures reproduce from the
/// proptest case alone.
fn random_boxes(seed: u64, dims: &[usize], count: usize) -> Vec<(Vec<usize>, NdArray<f64>)> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let origin: Vec<usize> = dims.iter().map(|&d| rng.below(d - 1)).collect();
            let extents: Vec<usize> = dims
                .iter()
                .zip(&origin)
                .map(|(&d, &o)| 1 + rng.below((d - o).min(5)))
                .collect();
            let delta = NdArray::from_fn(Shape::new(&extents), |_| rng.range(-1.0, 1.0));
            (origin, delta)
        })
        .collect()
}

/// Every (tile, slot) of both stores holds the same bit pattern.
fn assert_identical<M: TilingMap>(
    a: &mut CoeffStore<M, MemBlockStore>,
    b: &mut CoeffStore<M, MemBlockStore>,
    label: &str,
) {
    let tiles = a.map().num_tiles();
    let cap = a.map().block_capacity();
    for tile in 0..tiles {
        for slot in 0..cap {
            let (x, y) = (a.read_at(tile, slot), b.read_at(tile, slot));
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: tile {tile} slot {slot}: {x} vs {y}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_standard_is_bit_identical(seed in any::<u64>(), count in 1usize..12) {
        let n = [4u32, 4];
        let map = StandardTiling::new(&n, &[2, 2]);
        let boxes = random_boxes(seed, &[16, 16], count);

        let mut serial = mem_store(map.clone(), 4, IoStats::default());
        for one in boxes.chunks(1) {
            update_boxes_standard(&mut serial, &n, one, FlushMode::Exact);
        }
        let mut batched = mem_store(map, 4, IoStats::default());
        let report = update_boxes_standard(&mut batched, &n, &boxes, FlushMode::Exact);
        prop_assert_eq!(report.flush.boxes, count as u64);
        assert_identical(&mut serial, &mut batched, "standard batch");
    }

    #[test]
    fn batched_nonstandard_is_bit_identical(seed in any::<u64>(), count in 1usize..12) {
        let n = 4u32;
        let map = NonStandardTiling::new(2, n, 2);
        let boxes = random_boxes(seed, &[16, 16], count);

        let mut serial = mem_store(map.clone(), 4, IoStats::default());
        for one in boxes.chunks(1) {
            update_boxes_nonstandard(&mut serial, n, one);
        }
        let mut batched = mem_store(map, 4, IoStats::default());
        update_boxes_nonstandard(&mut batched, n, &boxes);
        assert_identical(&mut serial, &mut batched, "nonstandard batch");
    }
}
