//! Property tests for the sparse v3 pipeline (`docs/FORMAT.md` §8,
//! `docs/ERROR_MODEL.md`).
//!
//! The chain under test is the full write path of `ingest --format v3`:
//! dense tile → retention (threshold ε) → sparse encode → v3 blocks
//! file → reopen → read → reconstruct. Two contracts are stated as
//! sampled properties, not hand-picked examples:
//!
//! 1. **Exactness at ε = 0**: the store is lossless for the images it
//!    is given, so with `Threshold(0)` every coefficient reads back
//!    `f64::to_bits`-identically.
//! 2. **Bounded error otherwise**: reading back equals the *retained*
//!    image bit-for-bit, and the L2 distance to the original equals the
//!    retention report's achieved error, which is itself bounded by
//!    `ε · sqrt(dropped)`.

use proptest::prelude::*;
use ss_core::sparse::{RetentionPolicy, SparseTile};
use ss_storage::sparse::{decode, encode};
use ss_storage::{BlockStore, FileBlockStore, IoStats, StorageError};
use std::path::PathBuf;

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ss_sparse_prop_{name}_{case}_{}",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ss_storage::file::sidecar_path(path));
}

/// A mostly-zero dense tile: each slot is non-zero with probability
/// `density`, values in `[-1, 1]`, all derived from `seed` so failures
/// reproduce from the proptest case alone.
fn random_tile(seed: u64, capacity: usize, density: f64) -> Vec<f64> {
    let mut rng = ss_datagen::SplitMix64::new(seed);
    (0..capacity)
        .map(|_| {
            if rng.next_f64() < density {
                rng.range(-1.0, 1.0)
            } else {
                0.0
            }
        })
        .collect()
}

fn l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn codec_roundtrip_is_bit_exact(seed in any::<u64>(), cap_log in 2u32..9) {
        let capacity = 1usize << cap_log;
        let dense = random_tile(seed, capacity, 0.2);
        let tile = SparseTile::from_dense(&dense);
        let payload = encode(&tile);
        let mut back = vec![f64::NAN; capacity];
        if payload.is_empty() {
            prop_assert!(tile.is_zero());
            back.fill(0.0);
        } else {
            decode(&payload, capacity).unwrap().to_dense(&mut back);
        }
        for (slot, (a, b)) in dense.iter().zip(&back).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "slot {}", slot);
        }
    }

    #[test]
    fn v3_store_roundtrip_exact_at_zero_threshold(seed in any::<u64>()) {
        let (capacity, blocks) = (64usize, 8usize);
        let path = tmp("exact", seed);
        let images: Vec<Vec<f64>> = (0..blocks)
            .map(|b| random_tile(seed.wrapping_add(b as u64), capacity, 0.15))
            .collect();
        {
            let mut store =
                FileBlockStore::create_v3(&path, capacity, blocks, IoStats::new()).unwrap();
            for (id, image) in images.iter().enumerate() {
                let mut retained = image.clone();
                let report = RetentionPolicy::Threshold(0.0).apply(&mut retained);
                prop_assert_eq!(report.dropped, 0);
                store.try_write_block(id, &retained).unwrap();
            }
            store.sync().unwrap();
        }
        let store = FileBlockStore::open_v3(&path, capacity, blocks, IoStats::new()).unwrap();
        let mut buf = vec![0.0; capacity];
        for (id, image) in images.iter().enumerate() {
            store.try_read_block(id, &mut buf).unwrap();
            for (slot, (a, b)) in image.iter().zip(&buf).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "block {} slot {}", id, slot);
            }
        }
        prop_assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn v3_store_roundtrip_bounded_error_when_lossy(
        seed in any::<u64>(),
        eps in 0.01f64..0.5,
    ) {
        let (capacity, blocks) = (64usize, 4usize);
        let path = tmp("lossy", seed);
        let mut achieved_sq = 0.0f64;
        let mut dropped_total = 0u64;
        let images: Vec<Vec<f64>> = (0..blocks)
            .map(|b| random_tile(seed.wrapping_add(b as u64), capacity, 0.3))
            .collect();
        let mut retained_images = Vec::new();
        {
            let mut store =
                FileBlockStore::create_v3(&path, capacity, blocks, IoStats::new()).unwrap();
            for (id, image) in images.iter().enumerate() {
                let mut retained = image.clone();
                let report = RetentionPolicy::Threshold(eps).apply(&mut retained);
                prop_assert!(report.max_dropped <= eps, "dropped above threshold");
                achieved_sq += report.dropped_sq;
                dropped_total += report.dropped;
                store.try_write_block(id, &retained).unwrap();
                retained_images.push(retained);
            }
            store.sync().unwrap();
        }
        let store = FileBlockStore::open_v3(&path, capacity, blocks, IoStats::new()).unwrap();
        let mut buf = vec![0.0; capacity];
        for (id, retained) in retained_images.iter().enumerate() {
            store.try_read_block(id, &mut buf).unwrap();
            // The store itself is lossless: exact equality with the
            // retained image, whatever the threshold was.
            for (slot, (a, b)) in retained.iter().zip(&buf).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "block {} slot {}", id, slot);
            }
            // The only error vs. the original is what retention reported.
            let err = l2(&images[id], &buf);
            prop_assert!(err <= eps * (capacity as f64).sqrt() + 1e-12);
        }
        // Achieved error is reported exactly: Σ over blocks matches the
        // L2 of the whole-store difference, bounded by ε·sqrt(dropped).
        let whole: f64 = images
            .iter()
            .zip(&retained_images)
            .map(|(a, b)| l2(a, b).powi(2))
            .sum::<f64>()
            .sqrt();
        prop_assert!((whole - achieved_sq.sqrt()).abs() <= 1e-9);
        prop_assert!(achieved_sq.sqrt() <= eps * (dropped_total as f64).sqrt() + 1e-12);
        cleanup(&path);
    }

    #[test]
    fn v3_scrub_flags_any_flipped_payload_bit(seed in any::<u64>(), flip in 0usize..64) {
        // Write two sparse blocks, flip one bit somewhere in the heap,
        // and require the scrub to localise the damage to exactly the
        // block owning that byte — the §8.4 detection guarantee.
        let (capacity, blocks) = (32usize, 2usize);
        let path = tmp("scrub", seed.wrapping_add(flip as u64));
        {
            let mut store =
                FileBlockStore::create_v3(&path, capacity, blocks, IoStats::new()).unwrap();
            for id in 0..blocks {
                let image = random_tile(seed.wrapping_add(id as u64).wrapping_add(1), capacity, 0.9);
                store.try_write_block(id, &image).unwrap();
            }
            store.sync().unwrap();
        }
        let heap_start = (ss_storage::sparse::V3_HEADER_LEN
            + blocks as u64 * ss_storage::sparse::V3_DIR_ENTRY_LEN) as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        prop_assert!(bytes.len() > heap_start);
        let target = heap_start + flip % (bytes.len() - heap_start);
        bytes[target] ^= 1 << (flip % 8);
        std::fs::write(&path, &bytes).unwrap();
        let store = FileBlockStore::open_v3(&path, capacity, blocks, IoStats::new()).unwrap();
        let report = store.scrub().unwrap();
        // density 0.9 makes both payloads non-empty, so a heap flip is
        // either inside a live payload (must be caught) or in alloc
        // slack past `len` (harmless by design).
        for &id in &report.corrupt {
            let mut buf = vec![0.0; capacity];
            prop_assert!(matches!(
                store.try_read_block(id, &mut buf),
                Err(StorageError::Checksum { .. })
            ));
        }
        cleanup(&path);
    }
}
