//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`): two kernels, one value.
//!
//! This is the checksum guarding every `.ws` block (see `docs/FORMAT.md`)
//! and every WAL frame. Implemented locally because the build environment
//! is offline; the algorithm matches zlib's `crc32()` bit-for-bit, so
//! sidecars can be cross-checked with any standard tool.
//!
//! * **Slicing-by-8**, every target. Eight 256-entry tables (8 KB) let one
//!   step consume eight message bytes: `TABLES[k][b]` is the CRC of byte
//!   `b` followed by `k` zero bytes, so the eight lookups of a step are
//!   independent and their XOR is what eight byte-at-a-time steps would
//!   have produced. Bytes past the last multiple of eight take the
//!   bytewise step.
//! * **Carry-less multiply folding**, `x86_64` only, chosen at run time
//!   when the CPU has `PCLMULQDQ` and SSE4.1, for inputs of 64 bytes or
//!   more. Four 128-bit lanes are folded forward 64 bytes per step, then
//!   into one lane, then reduced to 32 bits by Barrett reduction (Gopal et
//!   al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction*, Intel, 2009 — the method of zlib's and Linux's folded
//!   CRC-32). The last `len % 16` bytes, and every input shorter than 64
//!   bytes, take slicing-by-8.
//!
//! Both give the same value for every input; the tests hold each to the
//! byte-at-a-time oracle.

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected
/// polynomial `0xEDB88320`; `TABLES[k][b]` advances `TABLES[k - 1][b]` by
/// one more zero byte.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (initial value `0xFFFFFFFF`, final XOR `0xFFFFFFFF` —
/// the standard whole-message convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `fold` enables `pclmulqdq` and `sse4.1`, both detected
        // on this CPU just above, and `sse2`, which every x86_64 CPU has.
        let crc = unsafe { clmul::fold(0xFFFF_FFFF, body) };
        return slice8(crc, tail) ^ 0xFFFF_FFFF;
    }
    slice8(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Advances the running (pre-inverted) CRC state `crc` over `bytes`,
/// eight bytes per step.
fn slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // The bit-reflected constants for `0xEDB88320` given at the end of
    // Gopal et al. (the values zlib and Linux use): powers of x mod P
    // that fold a lane 64 bytes forward (K1, K2) and 16 bytes forward
    // (K3, K4), the one that folds 64 bits into 32 (K5), then P itself
    // and the Barrett quotient μ = x^64 / P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0xccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The 16 little-endian bytes at the start of `b` as one lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` folded forward by the distance `k` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the running CRC state `crc` over `bytes`, whose length is
    /// a multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let mut x1 = _mm_xor_si128(lane(&bytes[0..]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = lane(&bytes[16..]);
        let mut x3 = lane(&bytes[32..]);
        let mut x4 = lane(&bytes[48..]);
        let mut rest = &bytes[64..];
        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= 64 {
            x1 = fold16(x1, k1k2, lane(&rest[0..]));
            x2 = fold16(x2, k1k2, lane(&rest[16..]));
            x3 = fold16(x3, k1k2, lane(&rest[32..]));
            x4 = fold16(x4, k1k2, lane(&rest[48..]));
            rest = &rest[64..];
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = fold16(x1, k3k4, x2);
        x1 = fold16(x1, k3k4, x3);
        x1 = fold16(x1, k3k4, x4);
        while !rest.is_empty() {
            x1 = fold16(x1, k3k4, lane(rest));
            rest = &rest[16..];
        }
        // 128 bits to 64: the low half times K4 into the high half, then
        // the low 32 bits times K5 into the remaining 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x1 = _mm_xor_si128(
            _mm_srli_si128::<8>(x1),
            _mm_clmulepi64_si128::<0x10>(x1, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x1 = _mm_xor_si128(
            _mm_srli_si128::<4>(x1),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5),
        );
        // Barrett reduction to 32 bits.
        let pmu = _mm_set_epi64x(MU, P);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), pmu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x1, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The byte-at-a-time loop both kernels replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Slicing-by-8 alone: the only kernel of every other target.
    fn crc32_sliced(bytes: &[u8]) -> u32 {
        slice8(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// 46 618 pseudo-random bytes: one WAL frame of the benchmark's
    /// 4-box commits.
    fn wal_frame() -> Vec<u8> {
        let mut state = 0x9E37_79B9u32;
        (0..46_618)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_equals_bytewise_on_every_length_and_alignment() {
        // `crc32` (the folding kernel from 64 bytes on, where the CPU has
        // it) and slicing-by-8 alone, each against the oracle: a 512-byte
        // all-zero block, and every length up to 1 100 and the whole of a
        // WAL frame, all at 16 start offsets.
        let frame = wal_frame();
        let zeros = vec![0u8; 512 + 16];
        for (name, buf, max_len) in [("frame", &frame[..], 1_100), ("zeros", &zeros[..], 512)] {
            for start in 0..16 {
                for len in 0..=max_len {
                    let sub = &buf[start..start + len];
                    let want = crc32_bytewise(sub);
                    assert_eq!(crc32(sub), want, "{name} start {start} len {len}");
                    assert_eq!(crc32_sliced(sub), want, "{name} start {start} len {len}");
                }
            }
        }
        for start in 0..16 {
            let sub = &frame[start..];
            let want = crc32_bytewise(sub);
            assert_eq!(crc32(sub), want, "frame start {start}");
            assert_eq!(crc32_sliced(sub), want, "frame start {start}");
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sensitive_to_any_single_bit() {
        // Under 64 bytes slicing-by-8 alone runs; from 64 on (512: a block
        // of 64 coefficients) the folding kernel, where the CPU has it.
        for len in [63, 64, 512] {
            let base = vec![0u8; len];
            let clean = crc32(&base);
            for byte in 0..base.len() {
                for bit in 0..8 {
                    let mut flipped = base.clone();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(crc32(&flipped), clean, "len {len} byte {byte} bit {bit}");
                }
            }
        }
    }
}
