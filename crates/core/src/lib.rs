//! Haar wavelet transforms, wavelet trees and the **SHIFT**/**SPLIT**
//! operations of
//! *"SHIFT-SPLIT: I/O Efficient Maintenance of Wavelet-Transformed
//! Multidimensional Data"* (Jahangiri, Sacharidis, Shahabi — SIGMOD 2005).
//!
//! # Overview
//!
//! The crate is organised around three layers:
//!
//! 1. **Codecs** — in-memory Haar transforms: [`haar1d`] (vectors),
//!    [`standard`] (tensor-product multidimensional form) and
//!    [`nonstandard`] (joint multiresolution form with Mallat layout).
//!    All transforms use the paper's unnormalised *average/difference*
//!    convention (`u = (a+b)/2`, `w = (a−b)/2`); orthonormal rescaling is
//!    available where best-K-term ranking needs it.
//! 2. **Coefficient geometry** — [`layout`] maps `(level, translation)`
//!    coordinates to linear indices, navigates the wavelet tree
//!    (parent/children/path-to-root/*crest*), and produces the contribution
//!    lists behind point queries (Lemma 1) and range sums (Lemma 2);
//!    [`tiling`] implements the optimal coefficient-to-disk-block maps of
//!    Section 3 for all three decomposition forms.
//! 3. **SHIFT/SPLIT** — [`shift`] and [`split`] implement the paper's two
//!    novel operations (Section 4) as *delta streams*: given the transform of
//!    a dyadic chunk they enumerate `(global coefficient index, delta)` pairs
//!    that callers (in-memory arrays or disk-backed stores) fold into the
//!    global transform; [`runs`] is the one batch that carries them, tile
//!    by tile, from the emitter to the block. [`reconstruct`] provides the
//!    inverse direction (Section 5.4), and [`append`] grows a transformed
//!    domain in place (Section 5.2).
//!
//! # Quick example
//!
//! ```
//! use ss_core::haar1d;
//!
//! // The paper's running example: {3, 5, 7, 5} -> {5, -1, -1, 1}.
//! let mut v = vec![3.0, 5.0, 7.0, 5.0];
//! haar1d::forward(&mut v);
//! assert_eq!(v, vec![5.0, -1.0, -1.0, 1.0]);
//! haar1d::inverse(&mut v);
//! assert_eq!(v, vec![3.0, 5.0, 7.0, 5.0]);
//! ```

// Axis-indexed loops over several parallel per-axis arrays are the clearest
// idiom for the index arithmetic in this workspace; iterator rewrites hurt
// readability without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod algebra;
pub mod append;
pub mod haar1d;
pub mod kernel;
pub mod layout;
pub mod nonstandard;
pub mod reconstruct;
pub mod runs;
pub mod shift;
pub mod sparse;
pub mod split;
pub mod standard;
pub mod tiling;

pub use layout::{Coeff1d, Layout1d};
pub use sparse::{RetentionPolicy, RetentionReport, SparseTile, BUCKET};
pub use tiling::{NaiveMap, NonStandardTiling, StandardTiling, Tiling1d, TilingMap};
