//! Record headers and on-log record layout.
//!
//! Every HybridLog record is `[header u64][key u64][value, padded to 8]`.
//! The 64-bit header packs (paper Sec. 6.2):
//!
//! ```text
//!   bits  0..47   previous address (reverse chain within a hash slot)
//!   bits 48..60   13-bit version number v
//!   bit  61       invalid
//!   bit  62       tombstone
//!   bit  63       superseded (see below)
//! ```
//!
//! The *superseded* bit is a hint for log compaction: an operation that
//! links a newer record of the same key over a record in memory sets it
//! on the older one (`HybridLog::mark_superseded`), so a compaction pass
//! can tell that record dead without an index lookup. Only a set bit
//! carries information, and only in the run that set it: `Header` does
//! not decode it, any header rewrite clears it (which only costs a
//! lookup), and a recovered log may hold bits whose newer records were
//! rolled back, so compaction ignores them below the recovered tail.
//!
//! The 13-bit version stores `v mod 8192`; comparisons against the current
//! checkpoint version use the same truncation. A wrap cannot be confused
//! across a single checkpoint because at most two versions (`v`, `v + 1`)
//! coexist in the log at any time.

use crate::addr::{Address, ADDRESS_MASK};

pub const VERSION_BITS: u32 = 13;
pub const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
const VERSION_SHIFT: u32 = 48;
const INVALID_BIT: u64 = 1 << 61;
const TOMBSTONE_BIT: u64 = 1 << 62;
/// Set on a record once a newer record of its key is linked (see the
/// module docs).
pub const SUPERSEDED_BIT: u64 = 1 << 63;

/// Truncate a full version to its 13-bit header representation.
#[inline]
pub fn version13(v: u64) -> u64 {
    v & VERSION_MASK
}

/// Decoded record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub prev: Address,
    /// 13-bit truncated version.
    pub version: u64,
    pub invalid: bool,
    pub tombstone: bool,
}

impl Header {
    pub fn new(prev: Address, version: u64) -> Self {
        Header {
            prev: prev & ADDRESS_MASK,
            version: version13(version),
            invalid: false,
            tombstone: false,
        }
    }

    #[inline]
    pub fn pack(&self) -> u64 {
        (self.prev & ADDRESS_MASK)
            | (self.version << VERSION_SHIFT)
            | if self.invalid { INVALID_BIT } else { 0 }
            | if self.tombstone { TOMBSTONE_BIT } else { 0 }
    }

    #[inline]
    pub fn unpack(word: u64) -> Self {
        Header {
            prev: word & ADDRESS_MASK,
            version: (word >> VERSION_SHIFT) & VERSION_MASK,
            invalid: word & INVALID_BIT != 0,
            tombstone: word & TOMBSTONE_BIT != 0,
        }
    }

    pub fn with_invalid(mut self) -> Self {
        self.invalid = true;
        self
    }

    pub fn with_tombstone(mut self) -> Self {
        self.tombstone = true;
        self
    }
}

/// Byte layout of records for a value type of `value_size` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLayout {
    pub value_size: usize,
}

impl RecordLayout {
    pub fn new(value_size: usize) -> Self {
        RecordLayout { value_size }
    }

    /// Total record size: header + key + value, padded to 8 bytes.
    #[inline]
    pub fn record_size(&self) -> usize {
        16 + self.value_size.div_ceil(8) * 8
    }

    /// Number of 8-byte words occupied by the value (padded).
    #[inline]
    pub fn value_words(&self) -> usize {
        self.value_size.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        for prev in [0u64, 1, 0xFFFF_FFFF_FFFF] {
            for version in [0u64, 1, 8191] {
                for invalid in [false, true] {
                    for tombstone in [false, true] {
                        let h = Header {
                            prev,
                            version,
                            invalid,
                            tombstone,
                        };
                        assert_eq!(Header::unpack(h.pack()), h);
                    }
                }
            }
        }
    }

    #[test]
    fn version_truncates_to_13_bits() {
        assert_eq!(version13(8192), 0);
        assert_eq!(version13(8193), 1);
        let h = Header::new(0, 10000);
        assert_eq!(h.version, version13(10000));
    }

    #[test]
    fn flags_do_not_disturb_prev() {
        let h = Header::new(0xABCD_EF01_2345, 7)
            .with_invalid()
            .with_tombstone();
        let u = Header::unpack(h.pack());
        assert_eq!(u.prev, 0xABCD_EF01_2345);
        assert!(u.invalid && u.tombstone);
    }

    #[test]
    fn record_sizes_are_padded() {
        assert_eq!(RecordLayout::new(8).record_size(), 24);
        assert_eq!(RecordLayout::new(100).record_size(), 16 + 104);
        assert_eq!(RecordLayout::new(1).record_size(), 24);
        assert_eq!(RecordLayout::new(100).value_words(), 13);
    }
}
