//! Queries over tiled wavelet stores, with exact I/O accounting.
//!
//! Everything the paper promises about query cost hinges on the Section 3
//! block allocation: root paths cluster into `≈ log_B N` tiles, and the
//! redundant per-tile scaling coefficients let a point query finish inside a
//! *single* tile. This crate implements:
//!
//! * [`point`] — point queries (Lemma 1) for the standard and non-standard
//!   forms, both the contribution-list plan (folded by [`batch`]'s sweep)
//!   and the single-tile *fast path* that exploits materialised scaling
//!   slots,
//! * [`range`] — range-sum queries (Lemma 2) for the standard form,
//! * [`recon`] — partial reconstruction of arbitrary boxes (Section 5.4 /
//!   Result 6) with the two baselines the paper discusses (full inverse
//!   then slice; point-by-point),
//! * [`scalings`] — materialisation of the redundant scaling slots that
//!   tiles reserve (slot 0 per subtree, and the mixed cross-product slots of
//!   the standard form),
//! * [`approximate`] — K-term synopses of stored transforms and progressive
//!   (online-aggregation style) range sums,
//! * [`batch`] — the one evaluator: tile-major execution of query plans,
//!   one or a batch (every needed tile entered once across the sweep).
//!
//! # Which front evaluates what
//!
//! Every exact answer from a store is a weighted sum over one contribution
//! list ([`ss_core::reconstruct::Contributions`], the *plan*), and every
//! such sum is one fold: a sweep of [`execute_plans_tiled`]. A single
//! query is a one-plan sweep, so it answers the same bits as any batch,
//! served or routed. The fast front reads materialised scaling slots
//! instead of the plan, and agrees with the fold to rounding:
//!
//! | Front | Evaluation | Reads |
//! |---|---|---|
//! | canonical: [`execute_plans_tiled`] — [`point_standard`], [`range_sum_standard`], [`point_nonstandard`], [`range_sum_nonstandard`] (one-plan sweeps; the non-standard plans flat), [`batch_points`], [`batch_range_sums`], `ss-serve`'s served and routed answers | tile-major **locate → walk tiles → fold** through one set of tables per sweep: every standard plan located per axis into the sweep's [`ss_core::reconstruct::LocatedPlans`], a flat one (or a list that repeats an index) term by term, all members in one arena; visits sorted by `(tile, plan)` (distinct keys: a stable tile sort's order); per-tile partials in `(tile, slot)` order, then the partials in ascending tile order; independent of batch composition, thread and store, so sharded merges are exact | every tile entered once per sweep, `≈ Π ceil(n_t/b_t)` tiles per standard plan, every `(tile, slot)` counted once, in the fold pass; a shared store adds its pool hits once per sweep |
//! | fast: [`point_standard_fast`], [`range_sum_standard_fast`] (and [`point_nonstandard_fast`]) | one tile per dyadic piece through the materialised scaling slots ([`scalings`]); a point is the level-0 piece | one block per piece |

// Axis-indexed loops over several parallel per-axis arrays are the clearest
// idiom for the index arithmetic in this workspace; iterator rewrites hurt
// readability without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod approximate;
pub mod batch;
pub mod point;
pub mod range;
pub mod recon;
pub mod scalings;

pub use approximate::{progressive_range_sum, StoredSynopsis};
pub use batch::{batch_points, batch_range_sums, execute_plans, execute_plans_tiled, PlanTiles};
pub use point::{point_nonstandard, point_nonstandard_fast, point_standard, point_standard_fast};
pub use range::{range_sum_nonstandard, range_sum_standard, range_sum_standard_fast};
pub use recon::{
    reconstruct_box_standard, reconstruct_pointwise_standard, reconstruct_range_nonstandard,
};
pub use scalings::{materialize_nonstandard_scalings, materialize_standard_scalings};
