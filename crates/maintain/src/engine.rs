//! Batch drivers over a [`DeltaBuffer`]: group-committed box updates in
//! both forms.

use crate::buffer::{DeltaBuffer, FlushMode, FlushReport};
use ss_array::NdArray;
use ss_core::TilingMap;
use ss_obs::Stopwatch;
use ss_storage::{BlockStore, CoeffStore};
use ss_transform::UpdateReport;

/// One update box: its origin and its delta values.
pub type UpdateBox = (Vec<usize>, NdArray<f64>);

/// Outcome of a group-committed batch of box updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Enumeration totals (dyadic pieces, coefficients touched).
    pub update: UpdateReport,
    /// Flush totals (tiles written, coalescing).
    pub flush: FlushReport,
}

/// Which form's delta emitter enumerates a box (and its domain levels).
#[derive(Clone, Copy)]
enum BoxForm<'a> {
    Standard(&'a [u32]),
    NonStandard(u32),
}

/// The one batch body: buffers every box's delta stream (the arrival
/// order defines the replay order), timed as `maintain.buffer_ns` beside
/// the flush's `maintain.flush_ns`, then group-commits it into `cs`.
fn update_boxes<M: TilingMap, S: BlockStore>(
    cs: &mut CoeffStore<M, S>,
    form: BoxForm,
    boxes: &[UpdateBox],
) -> BatchReport {
    let map = cs.map();
    let mut buf = DeltaBuffer::new();
    let mut update = UpdateReport::default();
    let mut sw = Stopwatch::start();
    for (origin, delta) in boxes {
        update.merge(match form {
            BoxForm::Standard(n) => buf.add_box_standard(map, n, origin, delta),
            BoxForm::NonStandard(n) => {
                buf.begin_box();
                let emit = |idx: &[usize], v: f64| buf.add_at(map, idx, v);
                ss_transform::for_each_box_delta_nonstandard(n, origin, delta, emit)
            }
        });
    }
    ss_obs::global()
        .histogram("maintain.buffer_ns")
        .record(sw.lap_ns());
    let flush = buf.flush_into(cs);
    BatchReport { update, flush }
}

/// Applies a batch of standard-form box updates with one group-commit
/// flush: every dirty tile is read and written exactly once, however many
/// boxes touched it. The stored coefficients are bit-identical to
/// applying the boxes one at a time, in the same order, each as a batch
/// of one — the one way a box update reaches a store. `_mode` is always
/// [`FlushMode::Exact`], kept for source compatibility.
pub fn update_boxes_standard<M: TilingMap, S: BlockStore>(
    cs: &mut CoeffStore<M, S>,
    n: &[u32],
    boxes: &[UpdateBox],
    _mode: FlushMode,
) -> BatchReport {
    update_boxes(cs, BoxForm::Standard(n), boxes)
}

/// Non-standard-form twin of [`update_boxes_standard`]: the domain is a
/// `(2^n)^d` hypercube and every dyadic piece is subdivided into aligned
/// cubes before SHIFT-SPLIT.
pub fn update_boxes_nonstandard<M: TilingMap, S: BlockStore>(
    cs: &mut CoeffStore<M, S>,
    n: u32,
    boxes: &[UpdateBox],
) -> BatchReport {
    update_boxes(cs, BoxForm::NonStandard(n), boxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::Shape;
    use ss_core::{NonStandardTiling, StandardTiling};
    use ss_datagen::SplitMix64;
    use ss_storage::{wstore::mem_store, CoeffStore, IoStats};

    fn random_boxes(
        rng: &mut SplitMix64,
        dims: &[usize],
        count: usize,
    ) -> Vec<(Vec<usize>, NdArray<f64>)> {
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

    fn assert_stores_identical<M: TilingMap>(
        a: &mut CoeffStore<M, ss_storage::MemBlockStore>,
        b: &mut CoeffStore<M, ss_storage::MemBlockStore>,
        label: &str,
    ) {
        let tiles = a.map().num_tiles();
        let cap = a.map().block_capacity();
        for tile in 0..tiles {
            for slot in 0..cap {
                assert_eq!(
                    a.read_at(tile, slot).to_bits(),
                    b.read_at(tile, slot).to_bits(),
                    "{label}: tile {tile} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn batched_standard_matches_serial_bit_for_bit() {
        let n = [4u32, 4];
        let map = StandardTiling::new(&n, &[2, 2]);
        let mut rng = SplitMix64::new(7);
        let boxes = random_boxes(&mut rng, &[16, 16], 12);

        let mut serial = mem_store(map.clone(), 4, IoStats::default());
        for one in boxes.chunks(1) {
            update_boxes_standard(&mut serial, &n, one, FlushMode::Exact);
        }
        let mut batched = mem_store(map.clone(), 4, IoStats::default());
        let report = update_boxes_standard(&mut batched, &n, &boxes, FlushMode::Exact);
        assert_eq!(report.flush.boxes, 12);
        assert!(report.flush.coalescing_ratio() > 1.0);
        assert_stores_identical(&mut serial, &mut batched, "standard exact");
    }

    #[test]
    fn a_batch_times_its_buffering_beside_its_flush() {
        // Process-global histograms: other tests record too, so only
        // growth is asserted.
        let count = |name: &str| ss_obs::global().histogram(name).count();
        let (buffered, flushed) = (count("maintain.buffer_ns"), count("maintain.flush_ns"));
        let n = [4u32, 4];
        let mut cs = mem_store(StandardTiling::new(&n, &[2, 2]), 4, IoStats::default());
        let boxes = random_boxes(&mut SplitMix64::new(1), &[16, 16], 3);
        update_boxes_standard(&mut cs, &n, &boxes, FlushMode::Exact);
        assert!(count("maintain.buffer_ns") > buffered);
        assert!(count("maintain.flush_ns") > flushed);
    }

    #[test]
    fn batched_nonstandard_matches_serial_bit_for_bit() {
        let n = 4u32;
        let map = NonStandardTiling::new(2, n, 2);
        let mut rng = SplitMix64::new(23);
        let boxes = random_boxes(&mut rng, &[16, 16], 8);

        let mut serial = mem_store(map.clone(), 4, IoStats::default());
        for one in boxes.chunks(1) {
            update_boxes_nonstandard(&mut serial, n, one);
        }
        let mut batched = mem_store(map.clone(), 4, IoStats::default());
        let report = update_boxes_nonstandard(&mut batched, n, &boxes);
        assert_eq!(report.flush.boxes, 8);
        assert_stores_identical(&mut serial, &mut batched, "nonstandard exact");
    }

    #[test]
    fn batched_writes_fewer_blocks_than_serial() {
        let n = [5u32, 5];
        let map = StandardTiling::new(&n, &[2, 2]);
        let mut rng = SplitMix64::new(3);
        let boxes = random_boxes(&mut rng, &[32, 32], 24);

        // Tiny pool (1 block) so every tile touch after an eviction is a
        // real block write; this is where coalescing pays.
        let serial_stats = IoStats::default();
        let mut serial = mem_store(map.clone(), 1, serial_stats.clone());
        for one in boxes.chunks(1) {
            update_boxes_standard(&mut serial, &n, one, FlushMode::Exact);
        }
        let batched_stats = IoStats::default();
        let mut batched = mem_store(map.clone(), 1, batched_stats.clone());
        let report = update_boxes_standard(&mut batched, &n, &boxes, FlushMode::Exact);
        let sw = serial_stats.snapshot().block_writes;
        let bw = batched_stats.snapshot().block_writes;
        assert_eq!(bw, report.flush.tiles_written);
        assert!(
            bw < sw,
            "batched flush should write fewer blocks ({bw} vs {sw})"
        );
    }
}
