//! CRC-32 (IEEE 802.3, the zlib/zip polynomial) with compile-time
//! lookup tables.
//!
//! The WAL checksums every record payload so that a torn write, a
//! bit-flip, or a stray partial append is detected at recovery time and
//! the log is truncated at the last intact record instead of feeding
//! garbage into the replay path. Every batch a node stores passes through
//! here, so the loop is slicing-by-8: eight tables fold eight bytes per
//! step, where the classic reflected byte-at-a-time loop folds one. The
//! tables are built by a `const fn`, so the crate needs no build script
//! and no dependency.

/// Reflected polynomial for CRC-32/ISO-HDLC (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which lets one step fold a
/// byte `k` places ahead of the last.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `bytes` (init `0xffff_ffff`, reflected, final XOR
/// `0xffff_ffff` — identical to zlib's `crc32`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let high = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(low & 0xff) as usize]
            ^ TABLES[6][((low >> 8) & 0xff) as usize]
            ^ TABLES[5][((low >> 16) & 0xff) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][(high & 0xff) as usize]
            ^ TABLES[2][((high >> 8) & 0xff) as usize]
            ^ TABLES[1][((high >> 16) & 0xff) as usize]
            ^ TABLES[0][(high >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32, TABLES};

    /// The byte-at-a-time loop: the reference the sliced one must match.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn matches_the_reference_check_value() {
        // The canonical CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(bytewise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let data: Vec<u8> = (0..64 * 1024 + 8)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect();
        // Every length up to 1 KiB at every alignment, then 64 KiB.
        for offset in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset}, length {len}");
            }
        }
        let big = &data[..64 * 1024];
        assert_eq!(crc32(big), bytewise(big));
    }

    #[test]
    fn distinguishes_single_bit_flips() {
        let base = crc32(b"hello, wal");
        let mut flipped = *b"hello, wal";
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
        assert_ne!(crc32(b""), crc32(&[0]));
    }
}
