//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven,
//! slicing-by-8.
//!
//! This is the checksum guarding every v2 `.ws` block (see
//! `docs/FORMAT.md`) and every WAL frame. Implemented locally because the
//! build environment is offline; the algorithm matches zlib's `crc32()`
//! bit-for-bit, so sidecars can be cross-checked with any standard tool.
//!
//! Eight 256-entry tables (8 KB) let one step consume eight message bytes:
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
//! the eight lookups of a step are independent and their XOR is what
//! eight byte-at-a-time steps would have produced. Bytes past the last
//! multiple of eight take the bytewise step.

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
    let mut crc = 0xFFFF_FFFFu32;
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
    crc ^ 0xFFFF_FFFF
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

    /// The byte-at-a-time loop the sliced one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_equals_bytewise_on_every_length_and_alignment() {
        // 46 618 bytes: one WAL frame of the benchmark's 4-box commits.
        let mut state = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..46_618)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        for len in (0..=80).chain([512, buf.len()]) {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
        for start in 1..8 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 512] {
                let sub = &buf[start..start + len];
                assert_eq!(crc32(sub), crc32_bytewise(sub), "start {start} len {len}");
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sensitive_to_any_single_bit() {
        let base = vec![0u8; 64];
        let clean = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "byte {byte} bit {bit}");
            }
        }
    }
}
