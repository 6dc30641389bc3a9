//! CRC32 (IEEE 802.3 polynomial, reflected) over byte slices.
//!
//! Slicing-by-8, std-only. This is the checksum guarding every log
//! record and snapshot part; it has to be deterministic across
//! platforms, so its tables are built at compile time from the fixed
//! polynomial rather than taken from any OS facility. Eight table
//! lookups fold eight input bytes per step; the values are those of the
//! classic byte-at-a-time CRC32, so every frame ever written still
//! verifies.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC register update for byte `b`, and
/// `TABLES[k][b]` the update for `b` followed by `k` zero bytes, so one
/// lookup per byte of a word advances the register by the whole word.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances the (pre-inverted) CRC register `c` over `data`.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 of `data` with the conventional init/final XOR (`!0`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_concat(&[data])
}

/// CRC32 over the logical concatenation of several slices, without
/// materializing the joined buffer. Record checksums cover
/// `header ++ payload`; this lets the framing code hash both without a
/// copy.
pub fn crc32_concat(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0u32, |c, part| update(c, part))
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::*;

    /// Bit-at-a-time CRC32 straight from the polynomial: the reference
    /// the sliced tables must agree with.
    fn reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn concat_matches_joined() {
        let joined = b"hello world".to_vec();
        assert_eq!(crc32_concat(&[b"hello", b" ", b"world"]), crc32(&joined));
    }

    #[test]
    fn sliced_crc_matches_the_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED_C3C3);
        let mut buf = vec![0u8; 4_096];
        rng.fill_bytes(&mut buf);
        for _ in 0..2_000 {
            // Random lengths at random (unaligned) offsets, short lengths
            // weighted so every tail length 0..8 shows up often.
            let len = if rng.gen_bool(0.5) {
                rng.gen_range(0..24)
            } else {
                rng.gen_range(0..2_048)
            };
            let start = rng.gen_range(0..=buf.len() - len);
            let data = &buf[start..start + len];
            let want = reference(data);
            assert_eq!(crc32(data), want, "len {len} at offset {start}");
            // Any split into up to four pieces hashes the same.
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..4))
                .map(|_| rng.gen_range(0..=len))
                .collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut from = 0;
            for cut in cuts {
                pieces.push(&data[from..cut]);
                from = cut;
            }
            pieces.push(&data[from..]);
            assert_eq!(crc32_concat(&pieces), want, "split {pieces:?}");
        }
    }

    #[test]
    fn single_bit_flip_detected() {
        let base = b"the quick brown fox".to_vec();
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), c0, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
