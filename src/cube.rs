//! A batteries-included facade over the workspace: one type that owns a
//! tiled, disk-block-resident, standard-form wavelet cube and exposes the
//! operations a downstream application actually calls.
//!
//! ```
//! use shiftsplit::WaveletCube;
//! use shiftsplit::array::{NdArray, Shape};
//!
//! let data = NdArray::from_fn(Shape::cube(2, 64), |i| (i[0] + i[1]) as f64);
//! let mut cube = WaveletCube::builder()
//!     .dims(&[64, 64])
//!     .tile_bytes(2048)
//!     .in_memory();
//! cube.ingest(&data);
//! assert!((cube.point(&[17, 42]) - 59.0).abs() < 1e-9);
//! assert!((cube.sum(&[0, 0], &[63, 63]) - data.total()).abs() < 1e-6);
//! ```

use ss_array::NdArray;
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_maintain::DeltaBuffer;
use ss_storage::{BlockStore, CoeffStore, FileBlockStore, IoStats, MemBlockStore};
use ss_transform::ArraySource;

/// Builder for [`WaveletCube`].
#[derive(Clone, Debug)]
pub struct WaveletCubeBuilder {
    dims: Vec<usize>,
    tile_bytes: usize,
    pool_blocks: usize,
}

impl Default for WaveletCubeBuilder {
    fn default() -> Self {
        WaveletCubeBuilder {
            dims: Vec::new(),
            tile_bytes: 2048,
            pool_blocks: 1024,
        }
    }
}

impl WaveletCubeBuilder {
    /// Per-axis domain sizes (each a power of two).
    pub fn dims(mut self, dims: &[usize]) -> Self {
        self.dims = dims.to_vec();
        self
    }

    /// Disk-block size in bytes (power of two ≥ 16; default 2 KB). The
    /// per-axis tile sides are derived to fill the block.
    pub fn tile_bytes(mut self, bytes: usize) -> Self {
        self.tile_bytes = bytes;
        self
    }

    /// Buffer-pool budget in blocks (default 1024).
    pub fn pool_blocks(mut self, blocks: usize) -> Self {
        self.pool_blocks = blocks;
        self
    }

    fn geometry(&self) -> (Vec<u32>, Vec<u32>) {
        assert!(!self.dims.is_empty(), "dims not set");
        let levels: Vec<u32> = self.dims.iter().map(|&d| ss_array::log2_exact(d)).collect();
        assert!(
            ss_array::is_pow2(self.tile_bytes) && self.tile_bytes >= 16,
            "tile_bytes must be a power of two ≥ 16"
        );
        // Distribute log2(block coefficients) across axes round-robin,
        // never exceeding an axis's own levels.
        let mut budget = ss_array::log2_exact(self.tile_bytes / 8);
        let mut tiles = vec![0u32; levels.len()];
        while budget > 0 {
            let mut progressed = false;
            for (t, &n) in levels.iter().enumerate() {
                if budget == 0 {
                    break;
                }
                if tiles[t] < n {
                    tiles[t] += 1;
                    budget -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // tiny domain: block bigger than the whole cube
            }
        }
        // Every axis needs at least one tile level for the map to be
        // meaningful when the axis has any levels at all.
        for (t, &n) in levels.iter().enumerate() {
            if n > 0 && tiles[t] == 0 {
                tiles[t] = 1;
            }
        }
        (levels, tiles)
    }

    /// Builds an in-memory cube.
    pub fn in_memory(self) -> WaveletCube<MemBlockStore> {
        let (levels, tiles) = self.geometry();
        let map = StandardTiling::new(&levels, &tiles);
        let stats = IoStats::new();
        let store = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
        WaveletCube::from_parts(levels, map, store, self.pool_blocks, stats)
    }

    /// Builds a cube backed by a file of real disk blocks (with a CRC-32
    /// checksum sidecar; see `docs/FORMAT.md`).
    pub fn on_disk(
        self,
        path: &std::path::Path,
    ) -> Result<WaveletCube<FileBlockStore>, ss_storage::StorageError> {
        let (levels, tiles) = self.geometry();
        let map = StandardTiling::new(&levels, &tiles);
        let stats = IoStats::new();
        let store =
            FileBlockStore::create(path, map.block_capacity(), map.num_tiles(), stats.clone())?;
        Ok(WaveletCube::from_parts(
            levels,
            map,
            store,
            self.pool_blocks,
            stats,
        ))
    }
}

/// A standard-form wavelet-transformed data cube on tiled block storage.
pub struct WaveletCube<S: BlockStore = MemBlockStore> {
    levels: Vec<u32>,
    cs: CoeffStore<StandardTiling, S>,
    stats: IoStats,
    fast_point_ready: bool,
}

impl WaveletCube<MemBlockStore> {
    /// Starts configuring a cube.
    pub fn builder() -> WaveletCubeBuilder {
        WaveletCubeBuilder::default()
    }
}

impl<S: BlockStore> WaveletCube<S> {
    fn from_parts(
        levels: Vec<u32>,
        map: StandardTiling,
        store: S,
        pool_blocks: usize,
        stats: IoStats,
    ) -> Self {
        WaveletCube {
            cs: CoeffStore::new(map, store, pool_blocks, stats.clone()),
            levels,
            stats,
            fast_point_ready: false,
        }
    }

    /// Per-axis domain sizes.
    pub fn dims(&self) -> Vec<usize> {
        self.levels.iter().map(|&n| 1usize << n).collect()
    }

    /// Shared I/O counters (block and coefficient granularity).
    pub fn io_stats(&self) -> &IoStats {
        &self.stats
    }

    /// Transforms `data` into the cube, out-of-core by chunks.
    ///
    /// # Panics
    ///
    /// Panics when `data`'s shape differs from the cube's.
    pub fn ingest(&mut self, data: &NdArray<f64>) {
        assert_eq!(
            data.shape().dims(),
            self.dims().as_slice(),
            "shape mismatch"
        );
        let chunk_levels: Vec<u32> = self.levels.iter().map(|&n| n.min(3)).collect();
        let src = ArraySource::new(data, &chunk_levels);
        ss_transform::transform_standard(&src, &mut self.cs, false);
        self.fast_point_ready = false;
    }

    /// The value of one cell: the bits a server over the same store
    /// answers.
    pub fn point(&mut self, pos: &[usize]) -> f64 {
        ss_query::point_standard(&mut self.cs, &self.levels, pos)
    }

    /// Single-block point query; materialises the tile scaling slots on
    /// first use (and again after any mutation).
    pub fn fast_point(&mut self, pos: &[usize]) -> f64 {
        if !self.fast_point_ready {
            ss_query::materialize_standard_scalings(&mut self.cs, &self.levels);
            self.fast_point_ready = true;
        }
        ss_query::point_standard_fast(&mut self.cs, pos)
    }

    /// Sum over the inclusive box `[lo, hi]`: the bits a server over the
    /// same store answers.
    pub fn sum(&mut self, lo: &[usize], hi: &[usize]) -> f64 {
        ss_query::range_sum_standard(&mut self.cs, &self.levels, lo, hi)
    }

    /// Mean over the inclusive box `[lo, hi]`.
    pub fn avg(&mut self, lo: &[usize], hi: &[usize]) -> f64 {
        let cells: usize = lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).product();
        self.sum(lo, hi) / cells as f64
    }

    /// Reconstructs the inclusive box `[lo, hi]`.
    pub fn extract(&mut self, lo: &[usize], hi: &[usize]) -> NdArray<f64> {
        ss_query::reconstruct_box_standard(&mut self.cs, &self.levels, lo, hi)
    }

    /// Adds a delta box anchored at `origin`, entirely in the wavelet
    /// domain — a group commit of one box, each dirty tile read and
    /// written once; returns the number of dyadic pieces applied.
    pub fn update(&mut self, origin: &[usize], delta: &NdArray<f64>) -> usize {
        self.fast_point_ready = false;
        let cs = &mut self.cs;
        let mut buf = DeltaBuffer::new();
        let report = buf.add_box_standard(cs.map(), &self.levels, origin, delta);
        buf.flush_into(cs);
        report.pieces
    }

    /// Builds a K-term synopsis for approximate querying.
    pub fn synopsis(&mut self, k: usize) -> ss_query::StoredSynopsis {
        ss_query::StoredSynopsis::build(&mut self.cs, &self.levels, k)
    }

    /// Direct access to the underlying coefficient store.
    pub fn store(&mut self) -> &mut CoeffStore<StandardTiling, S> {
        &mut self.cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::Shape;

    /// Non-dyadic values, so the order a sum is added in shows in its
    /// last bits.
    fn sample(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 7 + idx[1] * 3) % 17) as f64 / 3.0 - 4.0
        })
    }

    #[test]
    fn lifecycle_in_memory() {
        let data = sample(32);
        let mut cube = WaveletCube::builder().dims(&[32, 32]).in_memory();
        cube.ingest(&data);
        assert_eq!(cube.dims(), vec![32, 32]);
        assert!((cube.point(&[9, 21]) - data.get(&[9, 21])).abs() < 1e-9);
        assert!((cube.sum(&[3, 4], &[20, 30]) - data.region_sum(&[3, 4], &[20, 30])).abs() < 1e-6);
        assert!((cube.avg(&[0, 0], &[31, 31]) - data.total() / 1024.0).abs() < 1e-9);
        // The cube answers through the server's sweep: the batch's bits.
        let levels = [5, 5];
        let point = cube.point(&[9, 21]);
        let sum = cube.sum(&[3, 4], &[20, 30]);
        let batched = ss_query::batch_points(cube.store(), &levels, &[vec![9, 21]])[0];
        assert_eq!(point.to_bits(), batched.to_bits());
        let ranges = [(vec![3, 4], vec![20, 30])];
        let batched = ss_query::batch_range_sums(cube.store(), &levels, &ranges)[0];
        assert_eq!(sum.to_bits(), batched.to_bits());
        let region = cube.extract(&[8, 8], &[11, 13]);
        assert!(region.max_abs_diff(&data.extract(&[8, 8], &[4, 6])) < 1e-9);
    }

    #[test]
    fn fast_point_and_invalidation() {
        let data = sample(16);
        let mut cube = WaveletCube::builder()
            .dims(&[16, 16])
            .tile_bytes(128)
            .in_memory();
        cube.ingest(&data);
        assert!((cube.fast_point(&[5, 5]) - data.get(&[5, 5])).abs() < 1e-9);
        // Mutate: fast path must be re-materialised transparently.
        let delta = NdArray::from_fn(Shape::cube(2, 4), |_| 2.0);
        cube.update(&[4, 4], &delta);
        assert!((cube.fast_point(&[5, 5]) - (data.get(&[5, 5]) + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn on_disk_cube() {
        let path = std::env::temp_dir().join(format!("ss_cube_{}.ws", std::process::id()));
        let data = sample(16);
        {
            let mut cube = WaveletCube::builder()
                .dims(&[16, 16])
                .tile_bytes(512)
                .on_disk(&path)
                .unwrap();
            cube.ingest(&data);
            assert!((cube.point(&[3, 14]) - data.get(&[3, 14])).abs() < 1e-9);
            cube.store().flush();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synopsis_from_cube() {
        let data = NdArray::from_fn(Shape::cube(2, 32), |idx| {
            (idx[0] as f64 / 5.0).sin() * 10.0 + idx[1] as f64 * 0.1
        });
        let mut cube = WaveletCube::builder().dims(&[32, 32]).in_memory();
        cube.ingest(&data);
        let syn = cube.synopsis(64);
        let exact = data.region_sum(&[2, 2], &[29, 29]);
        let approx = syn.range_sum(&[2, 2], &[29, 29]);
        assert!((approx - exact).abs() / exact.abs().max(1.0) < 0.1);
    }

    #[test]
    fn tile_geometry_heuristic() {
        // 2 KB = 256 coefficients = 2^8 split across axes.
        let b = WaveletCubeBuilder::default()
            .dims(&[256, 256])
            .tile_bytes(2048);
        let (levels, tiles) = b.geometry();
        assert_eq!(levels, vec![8, 8]);
        assert_eq!(tiles.iter().sum::<u32>(), 8);
        // Tiny domain: the block cannot exceed the cube.
        let b = WaveletCubeBuilder::default().dims(&[4, 4]).tile_bytes(4096);
        let (_, tiles) = b.geometry();
        assert!(tiles.iter().all(|&t| t <= 2));
    }

    #[test]
    #[should_panic]
    fn rejects_non_pow2_dims() {
        let _ = WaveletCube::builder().dims(&[10, 16]).in_memory();
    }
}
