//! **shiftsplit** — a reproduction of *"SHIFT-SPLIT: I/O Efficient
//! Maintenance of Wavelet-Transformed Multidimensional Data"*
//! (Jahangiri, Sacharidis, Shahabi — SIGMOD 2005).
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! * [`array`](mod@array) — dense multidimensional arrays and dyadic index math,
//! * [`core`] — Haar transforms, wavelet trees, SHIFT/SPLIT, tiling maps,
//! * [`storage`] — block stores with I/O accounting and tiled coefficient
//!   storage,
//! * [`query`] — point / range-sum / partial-reconstruction queries,
//! * [`transform`] — out-of-core chunked transforms and wavelet-domain
//!   appending,
//! * [`maintain`] — tile-major delta buffering and group-committed batch
//!   updates,
//! * [`stream`] — K-term synopses of data streams,
//! * [`datagen`] — synthetic stand-ins for the paper's datasets.
//!
//! For most applications the [`WaveletCube`] facade is the entry point: it
//! owns a tiled block store and exposes ingest/query/update/synopsis in a
//! handful of calls.
//!
//! See the repository's `README.md` for a guided tour, `DESIGN.md` for the
//! system inventory, and `examples/` for runnable end-to-end scenarios.

pub mod cube;

pub use cube::{WaveletCube, WaveletCubeBuilder};
pub use ss_array as array;
pub use ss_core as core;
pub use ss_datagen as datagen;
pub use ss_maintain as maintain;
pub use ss_query as query;
pub use ss_storage as storage;
pub use ss_stream as stream;
pub use ss_transform as transform;
