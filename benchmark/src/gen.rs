//! Seeded inputs and output checks. Everything the libraries see is
//! generated here from `--seed`; nothing below reads a clock or the
//! environment, so one seed gives one set of inputs.

/// SplitMix64: a tiny, well-mixed generator that is fully determined by
/// its seed (the benchmark owns its randomness, not a library's).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 uniform bits → [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// An independent stream for `(seed, lane)`: units, rungs and sessions of
/// one run each draw from their own lane.
pub fn derive(seed: u64, lane: u64) -> u64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `len` pseudo-random bytes (`len` is rounded up to a multiple of 8).
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len.div_ceil(8) * 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Checks one receiver-stream as it is read. The stream is a seeded pool
/// of bytes repeated end to end (a payload generated whole would make
/// set-up a memory-bandwidth test); every byte read is compared in place
/// with the pool byte at its position, which is both stricter and cheaper
/// than hashing both sides.
pub struct StreamCheck {
    read: usize,
    intact: bool,
}

impl Default for StreamCheck {
    fn default() -> StreamCheck {
        StreamCheck {
            read: 0,
            intact: true,
        }
    }
}

impl StreamCheck {
    /// The next `bytes` the receiver's application read.
    pub fn feed(&mut self, pool: &[u8], mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let at = self.read % pool.len();
            let n = bytes.len().min(pool.len() - at);
            self.intact &= pool[at..at + n] == bytes[..n];
            self.read += n;
            bytes = &bytes[n..];
        }
    }

    /// Bytes read so far.
    pub fn len(&self) -> usize {
        self.read
    }

    /// Exactly `len` bytes arrived, each the right one.
    pub fn passed(&self, len: usize) -> bool {
        self.intact && self.read == len
    }
}

/// Operations attempted and failed; one operation is one receiver-stream
/// or, in `live_stream`, one message at one receiver.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failure_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_lanes_differ() {
        assert_eq!(payload(7, 4096), payload(7, 4096));
        assert_ne!(payload(7, 4096), payload(8, 4096));
        assert_ne!(derive(7, 0), derive(7, 1));
        assert_eq!(payload(1, 13).len(), 16);
    }

    /// A stream of `len` bytes cut from `pool`, repeated as needed.
    fn stream(pool: &[u8], len: usize) -> Vec<u8> {
        pool.iter().copied().cycle().take(len).collect()
    }

    fn check(pool: &[u8], len: usize, got: &[u8]) -> bool {
        let mut c = StreamCheck::default();
        // Uneven chunks, as an application's reads are.
        for chunk in got.chunks(777) {
            c.feed(pool, chunk);
        }
        c.passed(len)
    }

    #[test]
    fn flipped_byte_or_truncated_stream_raises_failure_share() {
        let pool = payload(11, 4096);
        let len = 10_000; // the pool two and a half times over
        let sent = stream(&pool, len);
        let mut t = Tally::default();
        t.op(check(&pool, len, &sent));
        assert_eq!(t.failure_share(), 0.0);

        let mut flipped = sent.clone();
        flipped[9_000] ^= 0x01;
        t.op(check(&pool, len, &flipped));
        assert_eq!(t.failure_share(), 0.5);

        t.op(check(&pool, len, &sent[..len - 1]));
        // One byte too many, even the byte the pool would repeat next.
        t.op(check(&pool, len, &stream(&pool, len + 1)));
        assert_eq!(t.failure_share(), 0.75);

        // Nothing attempted is a failure, never a pass.
        assert_eq!(Tally::default().failure_share(), 1.0);
    }
}
