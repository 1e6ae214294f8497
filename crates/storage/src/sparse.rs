//! Payload codec for the sparse bucketed blocks file (format v3).
//!
//! Implements the normative encoding of `docs/FORMAT.md` §8.3: a block
//! payload is an LSB-first *bucket bitmap* of `ceil(nbuckets / 8)` bytes
//! followed by the present buckets in ascending order, each serialised
//! as `bucket_len × 8` little-endian `f64` bytes. The encoding is
//! canonical — a given coefficient image has exactly one valid payload —
//! so the sidecar CRC (computed over payload bytes) doubles as a
//! content hash.
//!
//! The container around payloads (header, directory, heap, write
//! ordering) lives in [`file`](crate::file); this module is purely the
//! per-block bytes.

use crate::error::StorageError;
use ss_core::sparse::{SparseTile, BUCKET};

/// Magic bytes opening a v3 sparse blocks file (`docs/FORMAT.md` §8.2).
pub const V3_MAGIC: &[u8; 8] = b"SSWS3BLK";
/// The format version recorded in the v3 blocks-file header.
pub const V3_VERSION: u32 = 3;
/// Size of the v3 blocks-file header in bytes.
pub const V3_HEADER_LEN: u64 = 32;
/// Size of one v3 directory entry (`u64` offset, `u32` len, `u32` alloc).
pub const V3_DIR_ENTRY_LEN: u64 = 16;
/// Heap allocations are rounded up to a multiple of this many bytes so
/// small growth after a rewrite stays in place (`docs/FORMAT.md` §8.5).
pub const V3_ALLOC_QUANTUM: u32 = 128;

/// The bucket size recorded in a v3 header for a store of `capacity`
/// coefficients per block: `min(16, capacity)` (§8.1). For
/// `capacity >= 16` this equals the in-memory [`BUCKET`]; below 16 the
/// single short bucket spans the whole block, which is byte-identical
/// to how [`SparseTile`] lays out a short tail bucket.
pub fn bucket_for(capacity: usize) -> usize {
    capacity.min(BUCKET)
}

/// Number of buckets in a block of `capacity` coefficients.
pub fn num_buckets(capacity: usize) -> usize {
    capacity.div_ceil(bucket_for(capacity))
}

/// Byte length of the bucket bitmap for a block of `capacity`
/// coefficients.
pub fn bitmap_len(capacity: usize) -> usize {
    num_buckets(capacity).div_ceil(8)
}

/// Exact encoded payload length of `tile` in bytes: the bitmap plus
/// `8 × bucket_len` for every present bucket.
pub fn encoded_len(tile: &SparseTile) -> usize {
    let mut len = bitmap_len(tile.capacity());
    for b in 0..tile.num_buckets() {
        if tile.bucket_present(b) {
            len += tile.bucket_len(b) * 8;
        }
    }
    len
}

/// Encodes `tile` into its canonical v3 payload (§8.3). The all-zero
/// tile encodes to an empty vector by convention — callers represent it
/// as a zero directory entry, never as a stored payload.
pub fn encode(tile: &SparseTile) -> Vec<u8> {
    if tile.is_zero() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(encoded_len(tile));
    let mut bitmap = vec![0u8; bitmap_len(tile.capacity())];
    for b in 0..tile.num_buckets() {
        if tile.bucket_present(b) {
            bitmap[b / 8] |= 1 << (b % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for b in 0..tile.num_buckets() {
        if let Some(slots) = tile.bucket(b) {
            for &v in slots {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a v3 payload back into a [`SparseTile`] of `capacity`
/// coefficients. The encoding is canonical (§8.3), so anything a writer
/// cannot emit is corruption: a length that disagrees with the bitmap
/// ([`StorageError::Geometry`]), and stray bitmap bits, a present bucket
/// of all `+0.0` or a payload with no bucket at all
/// ([`StorageError::Meta`]). An accepted payload re-encodes to itself.
pub fn decode(payload: &[u8], capacity: usize) -> Result<SparseTile, StorageError> {
    let bm_len = bitmap_len(capacity);
    let nbuckets = num_buckets(capacity);
    if payload.len() < bm_len {
        return Err(StorageError::Geometry {
            expected: bm_len as u64,
            actual: payload.len() as u64,
        });
    }
    let (bitmap, mut rest) = payload.split_at(bm_len);
    // Bits past the last bucket must be zero (canonical form).
    for b in nbuckets..bm_len * 8 {
        if bitmap[b / 8] & (1 << (b % 8)) != 0 {
            return Err(StorageError::Meta(format!(
                "sparse payload sets bitmap bit {b} past bucket count {nbuckets}"
            )));
        }
    }
    let mut tile = SparseTile::new(capacity);
    for b in 0..nbuckets {
        if bitmap[b / 8] & (1 << (b % 8)) == 0 {
            continue;
        }
        let blen = (capacity - b * bucket_for(capacity)).min(bucket_for(capacity));
        let nbytes = blen * 8;
        if rest.len() < nbytes {
            return Err(StorageError::Geometry {
                expected: (payload.len() + nbytes - rest.len()) as u64,
                actual: payload.len() as u64,
            });
        }
        let (bytes, tail) = rest.split_at(nbytes);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            tile.set(b * bucket_for(capacity) + i, f64::from_le_bytes(le));
        }
        if !tile.bucket_present(b) {
            return Err(StorageError::Meta(format!(
                "sparse payload marks all-zero bucket {b} present"
            )));
        }
        rest = tail;
    }
    if tile.is_zero() {
        return Err(StorageError::Meta(
            "sparse payload holds no bucket (an all-zero block has no payload)".into(),
        ));
    }
    if !rest.is_empty() {
        return Err(StorageError::Geometry {
            expected: (payload.len() - rest.len()) as u64,
            actual: payload.len() as u64,
        });
    }
    Ok(tile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_matches_spec() {
        assert_eq!(bucket_for(64), 16);
        assert_eq!(bucket_for(16), 16);
        assert_eq!(bucket_for(4), 4);
        assert_eq!(num_buckets(64), 4);
        assert_eq!(num_buckets(40), 3); // 16 + 16 + 8
        assert_eq!(num_buckets(4), 1);
        assert_eq!(bitmap_len(64), 1);
        assert_eq!(bitmap_len(256), 2); // 16 buckets
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let mut dense = vec![0.0; 40];
        dense[0] = 1.5;
        dense[20] = -2.25;
        dense[39] = 1e-300;
        let tile = SparseTile::from_dense(&dense);
        let payload = encode(&tile);
        assert_eq!(payload.len(), encoded_len(&tile));
        // bitmap (1 byte) + bucket0 (16×8) + bucket1 (16×8) + tail bucket (8×8)
        assert_eq!(payload.len(), 1 + 128 + 128 + 64);
        assert_eq!(payload[0], 0b111);
        let back = decode(&payload, 40).unwrap();
        assert_eq!(back, tile);
        let mut out = vec![0.0; 40];
        back.to_dense(&mut out);
        for (a, b) in dense.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_tile_encodes_empty() {
        let tile = SparseTile::new(64);
        assert!(encode(&tile).is_empty());
    }

    #[test]
    fn sparse_payload_is_smaller_than_dense() {
        let mut dense = vec![0.0; 256];
        dense[0] = 9.0;
        let tile = SparseTile::from_dense(&dense);
        let payload = encode(&tile);
        assert_eq!(payload.len(), 2 + 128); // bitmap + one bucket
        assert!(payload.len() * 8 < 256 * 8);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut dense = vec![0.0; 64];
        dense[5] = 1.0;
        let payload = encode(&SparseTile::from_dense(&dense));
        let err = decode(&payload[..payload.len() - 1], 64);
        assert!(matches!(err, Err(StorageError::Geometry { .. })));
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut dense = vec![0.0; 64];
        dense[5] = 1.0;
        let mut payload = encode(&SparseTile::from_dense(&dense));
        payload.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode(&payload, 64),
            Err(StorageError::Geometry { .. })
        ));
    }

    #[test]
    fn non_canonical_buckets_are_rejected() {
        // Capacity 32: a 1-byte bitmap marking bucket 0 present over
        // sixteen +0.0s decodes to an empty tile, which encodes to 0 bytes.
        let mut payload = vec![0b1];
        payload.extend_from_slice(&[0u8; 128]);
        assert_eq!(payload.len(), 129);
        assert!(matches!(decode(&payload, 32), Err(StorageError::Meta(_))));
        // A bitmap with no bucket: all-zero blocks have no payload.
        assert!(matches!(decode(&[0], 32), Err(StorageError::Meta(_))));
        // One -0.0 keeps a bucket present: it is not +0.0.
        payload[1 + 8 * 7 + 7] = 0x80;
        let tile = decode(&payload, 32).unwrap();
        assert_eq!(tile.get(7).to_bits(), (-0.0f64).to_bits());
        assert_eq!(encode(&tile), payload);
    }

    #[test]
    fn stray_bitmap_bits_are_rejected() {
        // capacity 40 → 3 buckets, bitmap bits 3..8 must be clear.
        let mut dense = vec![0.0; 40];
        dense[0] = 1.0;
        let mut payload = encode(&SparseTile::from_dense(&dense));
        payload[0] |= 1 << 5;
        assert!(matches!(decode(&payload, 40), Err(StorageError::Meta(_))));
    }
}
