//! Record framing shared by the delta log and snapshot files.
//!
//! Every record is length-prefixed and checksummed:
//!
//! ```text
//! [seq: u64 LE][len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! `crc` is CRC32 (IEEE) over `seq_le ++ len_le ++ payload`, so a flip
//! anywhere in the header *or* the payload invalidates the record. The
//! delta log is a plain concatenation of records; snapshot part and
//! manifest files each hold exactly one record whose `seq` field
//! carries the snapshot generation (cross-checking that a part file
//! was not spliced in from another generation).
//!
//! Decoding is paranoid by construction: the first byte that fails
//! validation ends the log. A *torn* tail (fewer bytes than the header
//! or declared payload promises) is the normal signature of a crash
//! mid-append and is treated as a clean end-of-log; a *corrupt* record
//! (complete but failing CRC) is counted separately so callers can
//! alarm on silent media corruption. Either way, everything after the
//! first bad byte is untrusted — record boundaries can no longer be
//! re-synchronized — and recovery truncates it away.

use crate::crc::crc32_concat;

/// Bytes in the fixed record header.
pub const HEADER_LEN: usize = 16;

/// Hard ceiling on a single record's payload. Nothing the engine
/// writes approaches this; its real job is to stop a corrupt length
/// field from looking "plausible" against a huge file.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// How the byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The stream ended exactly on a record boundary.
    Clean,
    /// The stream ended mid-record: a partial header or a payload
    /// shorter than its declared length. Expected after a crash
    /// mid-append; not an error.
    Torn { bytes: u64 },
    /// A complete record failed its CRC — the data reached its full
    /// length but the bytes are wrong (bit rot, misdirected write).
    Corrupt { bytes: u64 },
}

/// Result of decoding a record stream.
#[derive(Debug)]
pub struct DecodedLog {
    /// `(seq, payload)` for every valid record, in file order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Byte offset of the end of the last valid record; recovery
    /// truncates the file to this length.
    pub valid_len: u64,
    /// What came after the valid prefix.
    pub tail: TailState,
}

/// Frame one record.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() as u64 <= MAX_PAYLOAD as u64,
        "record payload too large"
    );
    let seq_le = seq.to_le_bytes();
    let len_le = (payload.len() as u32).to_le_bytes();
    let crc = crc32_concat(&[&seq_le, &len_le, payload]).to_le_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&seq_le);
    out.extend_from_slice(&len_le);
    out.extend_from_slice(&crc);
    out.extend_from_slice(payload);
    out
}

/// Walk the records of `data` in file order, handing each valid one's
/// byte offset, `seq` and payload to `visit`, until the first torn or
/// corrupt byte: the one loop that validates a record (header, length
/// bound, CRC). Returns the end of the valid prefix and what came after
/// it.
pub(crate) fn scan_log(data: &[u8], mut visit: impl FnMut(usize, u64, &[u8])) -> (u64, TailState) {
    let mut off = 0usize;
    loop {
        let remaining = data.len() - off;
        let rest = remaining as u64;
        if remaining == 0 {
            return (off as u64, TailState::Clean);
        }
        if remaining < HEADER_LEN {
            return (off as u64, TailState::Torn { bytes: rest });
        }
        let seq_le: [u8; 8] = data[off..off + 8].try_into().unwrap();
        let len_le: [u8; 4] = data[off + 8..off + 12].try_into().unwrap();
        let crc_le: [u8; 4] = data[off + 12..off + 16].try_into().unwrap();
        let len = u32::from_le_bytes(len_le);
        // A length beyond the ceiling or beyond the file is
        // indistinguishable from a torn append of a record we never
        // finished writing the payload of.
        if len > MAX_PAYLOAD || (len as usize) > remaining - HEADER_LEN {
            return (off as u64, TailState::Torn { bytes: rest });
        }
        let payload = &data[off + HEADER_LEN..off + HEADER_LEN + len as usize];
        let crc = crc32_concat(&[&seq_le, &len_le, payload]);
        if crc != u32::from_le_bytes(crc_le) {
            return (off as u64, TailState::Corrupt { bytes: rest });
        }
        visit(off, u64::from_le_bytes(seq_le), payload);
        off += HEADER_LEN + len as usize;
    }
}

/// Decode a concatenation of records, stopping at the first torn or
/// corrupt byte.
pub fn decode_log(data: &[u8]) -> DecodedLog {
    let mut records = Vec::new();
    let (valid_len, tail) = scan_log(data, |_, seq, payload| {
        records.push((seq, payload.to_vec()));
    });
    DecodedLog {
        records,
        valid_len,
        tail,
    }
}

/// Decode a file expected to hold exactly one record (snapshot part or
/// manifest) with `seq == expected_tag`. Any deviation — trailing
/// bytes, torn tail, CRC failure, wrong tag — returns `None`; the
/// caller quarantines the generation.
pub fn decode_blob(data: &[u8], expected_tag: u64) -> Option<Vec<u8>> {
    let decoded = decode_log(data);
    if decoded.tail != TailState::Clean || decoded.records.len() != 1 {
        return None;
    }
    let (tag, payload) = decoded.records.into_iter().next().unwrap();
    if tag != expected_tag {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_record(1, b"alpha"));
        buf.extend_from_slice(&encode_record(2, b""));
        buf.extend_from_slice(&encode_record(3, &[0xFF; 1000]));
        buf
    }

    #[test]
    fn roundtrip_clean() {
        let buf = sample_log();
        let d = decode_log(&buf);
        assert_eq!(d.tail, TailState::Clean);
        assert_eq!(d.valid_len, buf.len() as u64);
        assert_eq!(d.records.len(), 3);
        assert_eq!(d.records[0], (1, b"alpha".to_vec()));
        assert_eq!(d.records[1], (2, Vec::new()));
        assert_eq!(d.records[2].0, 3);
    }

    #[test]
    fn every_truncation_point_is_torn_or_shorter_clean() {
        let buf = sample_log();
        let full = decode_log(&buf);
        for cut in 0..buf.len() {
            let d = decode_log(&buf[..cut]);
            // A truncated file never yields more records than the
            // original, never errors, and the valid prefix matches.
            assert!(d.records.len() <= full.records.len());
            assert!(d.valid_len <= cut as u64);
            for (got, want) in d.records.iter().zip(full.records.iter()) {
                assert_eq!(got, want);
            }
            match d.tail {
                TailState::Clean => assert_eq!(d.valid_len, cut as u64),
                TailState::Torn { bytes } => {
                    assert_eq!(d.valid_len + bytes, cut as u64)
                }
                TailState::Corrupt { .. } => {
                    panic!("truncation must never read as corruption")
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let buf = sample_log();
        for byte in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[byte] ^= 1 << (byte % 8);
            let d = decode_log(&flipped);
            // The flip must cost at least the record it landed in.
            assert!(d.records.len() < 3, "flip at byte {byte} went undetected");
        }
    }

    #[test]
    fn corrupt_payload_reports_corrupt_not_torn() {
        let mut buf = encode_record(9, b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let d = decode_log(&buf);
        assert_eq!(d.records.len(), 0);
        assert!(matches!(d.tail, TailState::Corrupt { .. }));
    }

    #[test]
    fn blob_rejects_trailing_and_wrong_tag() {
        let one = encode_record(5, b"part");
        assert_eq!(decode_blob(&one, 5), Some(b"part".to_vec()));
        assert_eq!(decode_blob(&one, 6), None, "wrong generation tag");
        let mut two = one.clone();
        two.extend_from_slice(&encode_record(5, b"extra"));
        assert_eq!(decode_blob(&two, 5), None, "trailing record");
        assert_eq!(decode_blob(&one[..one.len() - 1], 5), None, "torn");
    }

    #[test]
    fn absurd_length_field_reads_as_torn() {
        let mut buf = encode_record(1, b"ok");
        // Forge a header that declares a 3 GiB payload.
        buf.extend_from_slice(&u64::to_le_bytes(2));
        buf.extend_from_slice(&u32::to_le_bytes(3 << 30));
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(&[0u8; 64]);
        let d = decode_log(&buf);
        assert_eq!(d.records.len(), 1);
        assert!(matches!(d.tail, TailState::Torn { .. }));
    }
}
