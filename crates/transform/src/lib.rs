//! Out-of-core wavelet transformation and wavelet-domain appending.
//!
//! This crate turns the in-memory SHIFT/SPLIT primitives of `ss-core` into
//! the disk-resident algorithms the paper evaluates:
//!
//! * [`source`] — the chunked input abstraction ("data organised and stored
//!   in multidimensional chunks", Section 5.1),
//! * [`chunked`] — **Result 1** (standard form) and **Result 2**
//!   (non-standard form with z-order schedule and crest cache): transform a
//!   dataset far larger than memory by transforming each chunk in memory and
//!   folding its SHIFT-SPLIT delta stream into tiled storage — one
//!   [`pipeline`] ([`ChunkPipeline`]) behind every `transform_*` front,
//!   one writer into one exclusive `CoeffStore`,
//! * [`vitter`] — the Vitter-et-al.-style baseline: dimension-by-dimension
//!   external 1-d transforms over row-major block storage,
//! * [`append`] — **Section 5.2**: appending new data to an existing
//!   transform, including wavelet-domain domain expansion,
//! * [`update`] — the SHIFT-SPLIT delta emitters of arbitrary
//!   (non-dyadic) update boxes, via dyadic decomposition (generalising
//!   Example 2); `ss-maintain`'s delta buffer folds them into a store,
//! * [`chain`] — the non-standard hypercube-chain alternative for appending
//!   (Result 5's structure on disk): flat per-append cost, no expansions.

// Axis-indexed loops over several parallel per-axis arrays are the clearest
// idiom for the index arithmetic in this workspace; iterator rewrites hurt
// readability without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod append;
pub mod chain;
pub mod chunked;
pub mod pipeline;
pub mod source;
pub mod update;
pub mod vitter;

pub use append::Appender;
pub use chain::NsChainStore;
pub use chunked::{
    transform_nonstandard, transform_nonstandard_zorder, transform_nonstandard_zorder_scalings,
    transform_standard, transform_standard_sparse,
};
pub use pipeline::{ChunkPipeline, TransformReport};
pub use source::{ArraySource, ChunkSource, FnSource};
pub use update::{
    box_runs_standard, for_each_box_delta_nonstandard, for_each_box_delta_standard, UpdateReport,
};
pub use vitter::vitter_transform_standard;
