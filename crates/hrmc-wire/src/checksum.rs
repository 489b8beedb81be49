//! The 16-bit one's-complement Internet checksum (RFC 1071), as used by
//! TCP/UDP and by the kernel H-RMC driver to validate packets ("the RMC
//! protocol checks the packets for correctness", paper §2).
//!
//! The sum runs at machine-word width, as the kernel's `csum_partial`
//! does: it reads native-endian `u64` words and adds their two 32-bit
//! halves to `u64` accumulators. RFC 1071 §2(B) makes this exact on any
//! host: the one's-complement sum is byte-order independent, so summing
//! native-endian words gives the byte swap of the big-endian sum, and
//! one swap after folding ([`u16::from_be`]) recovers it. Each addend is
//! below 2³², so the sum cannot overflow a `u64` before 2³² addends
//! (16 GiB of input): no carry is tracked for a datagram (at most
//! 64 KiB), and the end-around carry is one fold at the end.

/// Compute the Internet checksum over `data`.
///
/// The sum is the one's-complement of the one's-complement sum of all
/// 16-bit words; an odd trailing byte is padded with zero, exactly as in
/// RFC 1071. A packet whose stored checksum field was zeroed before the
/// computation will verify iff recomputing over the received bytes
/// (checksum field zeroed again) yields the stored value.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(raw_sum(data))
}

/// Unfolded sum of `data` as native-endian 32-bit words, the last one
/// zero-padded. Every byte contributes one additive term ([`term`]), so a
/// field's contribution can be subtracted back out exactly.
fn raw_sum(data: &[u8]) -> u64 {
    let mut acc = [0u64; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (a, w) in acc.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_ne_bytes(w.try_into().unwrap());
            *a += (w & 0xffff_ffff) + (w >> 32);
        }
    }
    let mut sum: u64 = acc.iter().sum();
    let mut words = blocks.remainder().chunks_exact(4);
    for w in &mut words {
        sum += u64::from(u32::from_ne_bytes(w.try_into().unwrap()));
    }
    let rest = words.remainder();
    let mut last = [0u8; 4];
    last[..rest.len()].copy_from_slice(rest);
    sum + u64::from(u32::from_ne_bytes(last))
}

/// The additive term byte `b` at offset `at` contributes to [`raw_sum`]:
/// its place in the native-endian 32-bit word that holds it (byte
/// `at % 4` of a little-endian word, converted to native order).
fn term(b: u8, at: usize) -> u64 {
    u64::from(u32::from_le(u32::from(b) << (8 * (at % 4))))
}

/// End-around-carry fold of a native-order sum into 16 bits, returned
/// in RFC 1071's big-endian order.
fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    u16::from_be(sum as u16)
}

/// Verify data whose checksum was computed with the checksum field zeroed
/// and then stored at `data[at..at + 2]`.
///
/// Copy-free: rather than cloning the buffer to zero the field, the two
/// stored bytes' additive terms are subtracted from the unfolded sum,
/// which is exact because the end-around-carry fold only happens
/// afterwards, and cannot underflow because the sum contains both terms.
pub fn verify_with_field(data: &[u8], at: usize) -> bool {
    if data.len() < at + 2 {
        return false;
    }
    let stored = u16::from_be_bytes([data[at], data[at + 1]]);
    let sum = raw_sum(data) - term(data[at], at) - term(data[at + 1], at + 1);
    !fold(sum) == stored
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook RFC 1071 sum the wide one must equal: big-endian
    /// 16-bit words, one per iteration, odd trailing byte zero-padded.
    fn scalar_checksum(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for w in &mut chunks {
            sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Deterministic LCG so the tests need no external crates.
    fn lcg(mut state: u64) -> impl FnMut() -> u32 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_input() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_padded() {
        // [0xab] pads to [0xab, 0x00].
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    /// Every length 0..=2048 at every start offset 0..8 (so every word
    /// alignment and every tail shape), over random bytes, all zeros and
    /// all `0xff` (the input that maximises carries).
    #[test]
    fn wide_sum_equals_scalar_sum_at_every_length_and_offset() {
        let mut next = lcg(0x2545_f491_4f6c_dd1d);
        let random: Vec<u8> = (0..2048 + 8).map(|_| next() as u8).collect();
        for fill in [None, Some(0x00u8), Some(0xff)] {
            let buf = match fill {
                None => random.clone(),
                Some(b) => vec![b; random.len()],
            };
            for start in 0..8 {
                for len in 0..=2048 {
                    let data = &buf[start..start + len];
                    assert_eq!(
                        internet_checksum(data),
                        scalar_checksum(data),
                        "fill {fill:?} start {start} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_sum_holds_at_the_largest_datagram() {
        let data = vec![0xffu8; 65_535];
        assert_eq!(internet_checksum(&data), scalar_checksum(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let data: Vec<u8> = (0u8..64).collect();
        let good = internet_checksum(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(
                    internet_checksum(&corrupted),
                    good,
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn verify_with_field_round_trip() {
        let mut data: Vec<u8> = (0u8..32).collect();
        data[6] = 0;
        data[7] = 0;
        let ck = internet_checksum(&data);
        data[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_with_field(&data, 6));
        data[0] ^= 0x40;
        assert!(!verify_with_field(&data, 6));
    }

    #[test]
    fn verify_with_field_bounds() {
        assert!(!verify_with_field(&[0u8; 3], 2));
        assert!(!verify_with_field(&[], 0));
    }

    /// The copy-and-zero verification over the scalar sum, which the
    /// copy-free path must agree with bit-for-bit.
    fn verify_with_copy(data: &[u8], at: usize) -> bool {
        if data.len() < at + 2 {
            return false;
        }
        let stored = u16::from_be_bytes([data[at], data[at + 1]]);
        let mut scratch = data.to_vec();
        scratch[at] = 0;
        scratch[at + 1] = 0;
        scalar_checksum(&scratch) == stored
    }

    /// Copy-free verification agrees with the copy-and-zero method at
    /// every field offset, even and odd (so the field straddles every
    /// word boundary), on intact buffers and with one bit flipped
    /// anywhere, including inside the field.
    #[test]
    fn verify_without_copy_agrees_with_copy_and_zero() {
        let mut next = lcg(0x9e37_79b9_7f4a_7c15);
        for len in 2..=80usize {
            for at in 0..len - 1 {
                let mut data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                // Install a valid checksum for the chosen field position.
                data[at] = 0;
                data[at + 1] = 0;
                let ck = scalar_checksum(&data);
                data[at..at + 2].copy_from_slice(&ck.to_be_bytes());
                assert!(verify_with_field(&data, at), "valid: len {len} at {at}");
                assert!(verify_with_copy(&data, at));
                for flip in [at, at + 1, next() as usize % len] {
                    let mut bad = data.clone();
                    bad[flip] ^= 1 << (next() % 8);
                    assert_eq!(
                        verify_with_field(&bad, at),
                        verify_with_copy(&bad, at),
                        "corrupted: len {len} at {at} flip {flip}"
                    );
                }
            }
        }
    }
}
