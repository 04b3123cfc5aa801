//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) for page
//! checksums — implemented here because the offline workspace carries no
//! registry dependencies.
//!
//! Table-driven, one byte per step. That is not cheap next to the I/O it
//! guards: the benchmark measures 2.69 µs per 1 KiB page
//! (`storage.crc32_ns_per_page`) of a 3.41 µs cold buffered miss on
//! `kcpq_cold` (79%), and most of every `write_page` on `live_rw`. A slicing-by-8 loop over the
//! same polynomial (every stored checksum stays valid) is ROADMAP item 3(a);
//! it is blocked by item 1, a benchmark harness whose memory does not grow
//! with `live_rw`'s throughput.

/// The 256-entry lookup table for the reflected IEEE polynomial, built at
/// compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `data` (IEEE: init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(&[0u8; 4096]);
        let mut page = [0u8; 4096];
        page[2048] ^= 0x01;
        assert_ne!(a, crc32(&page));
    }
}
