//! # hrmc-wire
//!
//! Wire format for the H-RMC reliable multicast protocol (McKinley, Rao,
//! Wright — SC'99). This crate defines the 20-byte RMC/H-RMC packet header
//! (paper Figure 1), the eleven packet types (paper Table 1), the Internet
//! checksum used to validate packets, and the [`Packet`] encode/decode
//! round-trip used by every other crate in the workspace.
//!
//! The header layout follows the paper:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-------------------------------+-------------------------------+
//! |          Source Port          |       Destination Port        |
//! +-------------------------------+-------------------------------+
//! |                        Sequence Number                        |
//! +---------------------------------------------------------------+
//! |                      Rate Advertisement                       |
//! +---------------------------------------------------------------+
//! |                            Length                             |
//! +-------------------------------+---------------+---------------+
//! |           Checksum            |     Tries     |U|F|   Type    |
//! +-------------------------------+---------------+---------------+
//! ```
//!
//! The paper's Figure 1 draws `URG`/`FIN` on a separate row but states the
//! header is exactly 20 bytes; we therefore pack the two flags into the top
//! bits of the final byte alongside the 6-bit type code, which is the only
//! packing consistent with both the figure and the stated size.

#![forbid(unsafe_code)]

pub mod checksum;
pub mod header;
pub mod packet;
pub mod types;

pub use checksum::internet_checksum;
pub use header::{Flags, Header, HEADER_LEN};
pub use packet::{Packet, WireError};
pub use types::PacketType;

/// Sequence number type used throughout the protocol. H-RMC assigns one
/// sequence number per packet (not per byte, unlike TCP); see paper §2:
/// "fragments this data stream into a sequence of data packets, each of
/// which is assigned a sequence number".
pub type Seq = u32;

/// Compare two sequence numbers under wrap-around (RFC 1982 style serial
/// arithmetic). Returns the signed distance `a - b` interpreted modulo 2^32.
///
/// ```
/// use hrmc_wire::seq_cmp;
/// assert!(seq_cmp(5, 3) > 0);
/// assert!(seq_cmp(3, 5) < 0);
/// assert!(seq_cmp(0, u32::MAX) > 0); // 0 is "after" u32::MAX
/// ```
#[inline]
pub fn seq_cmp(a: Seq, b: Seq) -> i32 {
    a.wrapping_sub(b) as i32
}

/// `true` when `a` is strictly before `b` in sequence space.
#[inline]
pub fn seq_lt(a: Seq, b: Seq) -> bool {
    seq_cmp(a, b) < 0
}

/// `true` when `a` is before or equal to `b` in sequence space.
#[inline]
pub fn seq_le(a: Seq, b: Seq) -> bool {
    seq_cmp(a, b) <= 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_arithmetic_basics() {
        assert_eq!(seq_cmp(10, 10), 0);
        assert_eq!(seq_cmp(11, 10), 1);
        assert_eq!(seq_cmp(10, 11), -1);
        assert!(seq_lt(9, 10));
        assert!(!seq_lt(10, 10));
        assert!(seq_le(10, 10));
    }

    #[test]
    fn seq_arithmetic_wraps() {
        let near_max = u32::MAX - 2;
        assert!(seq_lt(near_max, near_max.wrapping_add(5)));
        assert!(seq_le(near_max, near_max.wrapping_add(5)));
        assert!(!seq_lt(near_max.wrapping_add(5), near_max));
        assert_eq!(seq_cmp(2, u32::MAX), 3);
    }
}
