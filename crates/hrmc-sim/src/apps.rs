//! Application processes for the simulated hosts: the data source at the
//! sender and the data sink at each receiver.
//!
//! The paper's §5.1 experiments run two application shapes:
//!
//! * **memory-to-memory** — "the sender sent data from memory and each of
//!   the receivers received data in a memory buffer": the application is
//!   always ready ([`IoProfile::Memory`]);
//! * **disk-to-disk** — "the sender sent a file that it read from the
//!   local disk, and each of the receivers stored the received data to a
//!   file on local disk": the application is "slowed by I/O operations"
//!   ([`IoProfile::Disk`]), modelled as a sustained transfer rate plus a
//!   periodic seek-like stall. The stalls are what make the 40 MB disk
//!   feedback traces "noticeable and seemingly unpredictable"
//!   (Figure 11(c)) — OS jitter in the paper, deterministic here.
//!
//! Stream bytes follow a deterministic pattern, so every sink verifies
//! integrity by comparing each byte it absorbs with the pattern byte at
//! that stream offset instead of storing the whole stream. The pattern
//! has period 251, so both ends touch payload a slice at a time against
//! one table holding an 8-period run at every phase: the source copies
//! out of it, and the sink compares the receiver engine's own buffered
//! payloads, lent by `ReceiverEngine::read_with`, with it, one compare
//! per segment of up to 2 008 bytes.

/// Deterministic stream pattern: byte `i` of the stream.
#[inline]
pub const fn pattern_byte(i: u64) -> u8 {
    ((i.wrapping_mul(31)) % 251) as u8
}

/// Period of [`pattern_byte`] while `i * 31` does not wrap `u64`.
const PERIOD: usize = 251;

/// Last stream offset (exclusive) for which the pattern is periodic:
/// past it `i * 31` wraps and [`PATTERN`] no longer describes the stream.
const PERIODIC_END: u64 = u64::MAX / 31;

/// Length of the run [`run_at`] returns: whole periods, so consecutive
/// runs start at the same phase, and longer than a full-size segment, so
/// one compare checks one segment.
const RUN: usize = 8 * PERIOD;

/// One period plus a run, so the run starting at any phase `0..PERIOD`
/// is one contiguous slice.
static PATTERN: [u8; PERIOD + RUN] = {
    let mut table = [0u8; PERIOD + RUN];
    let mut i = 0;
    while i < table.len() {
        table[i] = pattern_byte(i as u64);
        i += 1;
    }
    table
};

/// The [`RUN`] pattern bytes that start at stream offset `offset`, for a
/// stretch of `len` bytes. Panics rather than mis-verify if the stretch
/// reaches offsets where the pattern stops being periodic (~5.9e17 bytes
/// into a stream).
fn run_at(offset: u64, len: usize) -> &'static [u8] {
    assert!(
        offset
            .checked_add(len as u64)
            .is_some_and(|end| end <= PERIODIC_END),
        "stream offset {offset} + {len} leaves the pattern's periodic range"
    );
    let phase = (offset % PERIOD as u64) as usize;
    &PATTERN[phase..phase + RUN]
}

/// Append stream bytes `offset..offset + len` to `out`.
fn fill_pattern(offset: u64, len: usize, out: &mut Vec<u8>) {
    let run = run_at(offset, len);
    out.reserve(len);
    for _ in 0..len / RUN {
        out.extend_from_slice(run);
    }
    out.extend_from_slice(&run[..len % RUN]);
}

/// `true` iff every byte of `data` equals the pattern byte at its stream
/// offset, `data[0]` being stream byte `offset`.
fn matches_pattern(offset: u64, data: &[u8]) -> bool {
    let run = run_at(offset, data.len());
    // Every chunk but the last is a whole run, so all start at the same
    // phase.
    data.chunks(RUN).all(|c| c == &run[..c.len()])
}

/// I/O behaviour of an application endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoProfile {
    /// Always ready (memory-to-memory tests).
    Memory,
    /// Rate-limited with periodic stalls (disk-to-disk tests).
    Disk {
        /// Sustained transfer rate in bytes/second (late-90s IDE:
        /// ~8 MB/s reads, ~6 MB/s writes).
        rate_bps: u64,
        /// A short (seek-like) stall occurs each time this many bytes
        /// have moved.
        pause_every_bytes: u64,
        /// Short-stall duration in microseconds.
        pause_us: u64,
        /// A long stall (page-cache flush / "different activities in the
        /// operating system", paper §5.1) occurs each time this many
        /// bytes have moved; 0 disables.
        long_every_bytes: u64,
        /// Long-stall duration in microseconds.
        long_pause_us: u64,
    },
}

impl IoProfile {
    /// The paper-calibrated disk-read profile for the sender.
    pub fn disk_read() -> IoProfile {
        IoProfile::Disk {
            rate_bps: 8_000_000,
            pause_every_bytes: 1_000_000,
            pause_us: 30_000,
            long_every_bytes: 0,
            long_pause_us: 0,
        }
    }

    /// The paper-calibrated disk-write profile for receivers: a sustained
    /// 6 MB/s with seek-like 40 ms stalls, plus a ~150 ms stall every
    /// 4 MB — the OS jitter the paper blames for the disk tests'
    /// "noticeable and seemingly unpredictable" rate requests. During a
    /// long stall the receive window backs up by ~wire-rate × 300 ms,
    /// crossing the warning region for the smaller kernel buffers.
    pub fn disk_write() -> IoProfile {
        IoProfile::Disk {
            rate_bps: 6_000_000,
            pause_every_bytes: 800_000,
            pause_us: 40_000,
            long_every_bytes: 4_000_000,
            long_pause_us: 150_000,
        }
    }
}

/// Shared budget machinery: how many bytes may move at `now`.
#[derive(Debug, Clone)]
struct IoBudget {
    profile: IoProfile,
    /// Fractional-byte accumulator in byte·µs.
    credit_us_bytes: u128,
    last: u64,
    moved_since_pause: u64,
    moved_since_long: u64,
    paused_until: u64,
}

impl IoBudget {
    fn new(profile: IoProfile, now: u64) -> IoBudget {
        IoBudget {
            profile,
            credit_us_bytes: 0,
            last: now,
            moved_since_pause: 0,
            moved_since_long: 0,
            paused_until: 0,
        }
    }

    /// Bytes allowed to move at `now` (before calling [`IoBudget::spend`]).
    fn available(&mut self, now: u64, want: u64) -> u64 {
        match self.profile {
            IoProfile::Memory => want,
            IoProfile::Disk { rate_bps, .. } => {
                if now < self.paused_until {
                    self.last = now;
                    return 0;
                }
                let elapsed = now.saturating_sub(self.last);
                self.last = now;
                // Cap banked credit at one second of transfer.
                let cap = rate_bps as u128 * 1_000_000;
                self.credit_us_bytes =
                    (self.credit_us_bytes + rate_bps as u128 * elapsed as u128).min(cap);
                let bytes = (self.credit_us_bytes / 1_000_000) as u64;
                bytes.min(want)
            }
        }
    }

    /// Record that `bytes` actually moved; may trigger a stall.
    fn spend(&mut self, bytes: u64, now: u64) {
        let IoProfile::Disk {
            pause_every_bytes,
            pause_us,
            long_every_bytes,
            long_pause_us,
            ..
        } = self.profile
        else {
            return;
        };
        self.credit_us_bytes = self
            .credit_us_bytes
            .saturating_sub(bytes as u128 * 1_000_000);
        self.moved_since_pause += bytes;
        self.moved_since_long += bytes;
        if pause_every_bytes > 0 && self.moved_since_pause >= pause_every_bytes {
            self.moved_since_pause = 0;
            self.paused_until = self.paused_until.max(now + pause_us);
            self.credit_us_bytes = 0;
        }
        if long_every_bytes > 0 && self.moved_since_long >= long_every_bytes {
            self.moved_since_long = 0;
            self.paused_until = self.paused_until.max(now + long_pause_us);
            self.credit_us_bytes = 0;
        }
    }
}

/// The sending application: a file of `total` pattern bytes read through
/// an [`IoProfile`].
#[derive(Debug, Clone)]
pub struct SourceApp {
    total: u64,
    produced: u64,
    budget: IoBudget,
}

impl SourceApp {
    /// A source of `total` bytes with the given I/O profile.
    pub fn new(total: u64, profile: IoProfile, now: u64) -> SourceApp {
        SourceApp {
            total,
            produced: 0,
            budget: IoBudget::new(profile, now),
        }
    }

    /// Bytes not yet handed to the protocol.
    pub fn remaining(&self) -> u64 {
        self.total - self.produced
    }

    /// `true` when the whole file has been handed to the protocol.
    pub fn exhausted(&self) -> bool {
        self.produced >= self.total
    }

    /// Append up to `max` bytes to `out` at `now` (limited by the I/O
    /// profile).
    pub fn produce(&mut self, out: &mut Vec<u8>, max: usize, now: u64) {
        let want = (self.remaining()).min(max as u64);
        let allowed = self.budget.available(now, want);
        if allowed == 0 {
            return;
        }
        fill_pattern(self.produced, allowed as usize, out);
        self.budget.spend(allowed, now);
        self.produced += allowed;
    }
}

/// The receiving application: writes the stream through an [`IoProfile`]
/// while verifying it against the pattern.
#[derive(Debug, Clone)]
pub struct SinkApp {
    received: u64,
    corrupt: bool,
    budget: IoBudget,
}

impl SinkApp {
    /// A sink with the given I/O profile.
    pub fn new(profile: IoProfile, now: u64) -> SinkApp {
        SinkApp {
            received: 0,
            corrupt: false,
            budget: IoBudget::new(profile, now),
        }
    }

    /// How many bytes the application can absorb at `now`.
    pub fn capacity(&mut self, now: u64, want: usize) -> usize {
        self.budget.available(now, want as u64) as usize
    }

    /// Take the next `data` of the stream, verifying it against the
    /// expected pattern position. The bytes are charged to the I/O
    /// profile separately, by [`SinkApp::charge`].
    pub fn verify(&mut self, data: &[u8]) {
        if !matches_pattern(self.received, data) {
            self.corrupt = true;
        }
        self.received += data.len() as u64;
    }

    /// Charge one application read of `bytes` to the I/O profile (may
    /// start a stall).
    pub fn charge(&mut self, bytes: usize, now: u64) {
        self.budget.spend(bytes as u64, now);
    }

    /// Total bytes absorbed.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// `true` if every byte matched the pattern so far.
    pub fn intact(&self) -> bool {
        !self.corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One `produce` call into a fresh buffer.
    fn take(s: &mut SourceApp, max: usize, now: u64) -> Vec<u8> {
        let mut out = Vec::new();
        s.produce(&mut out, max, now);
        out
    }

    #[test]
    fn memory_source_produces_everything_at_once() {
        let mut s = SourceApp::new(10_000, IoProfile::Memory, 0);
        let a = take(&mut s, 4_000, 0);
        assert_eq!(a.len(), 4_000);
        let b = take(&mut s, 100_000, 0);
        assert_eq!(b.len(), 6_000);
        assert!(s.exhausted());
        assert!(take(&mut s, 100, 0).is_empty());
    }

    #[test]
    fn pattern_is_deterministic_and_verified() {
        let mut src = SourceApp::new(5_000, IoProfile::Memory, 0);
        let mut sink = SinkApp::new(IoProfile::Memory, 0);
        let mut stream = Vec::new();
        while !src.exhausted() {
            let chunk = take(&mut src, 700, 0);
            sink.verify(&chunk);
            stream.extend_from_slice(&chunk);
        }
        assert_eq!(sink.received(), 5_000);
        assert!(sink.intact());
        assert!(stream.iter().copied().eq((0..5_000).map(pattern_byte)));
    }

    #[test]
    fn corruption_detected() {
        let mut sink = SinkApp::new(IoProfile::Memory, 0);
        let mut data: Vec<u8> = (0..100).map(pattern_byte).collect();
        data[50] ^= 0xff;
        sink.verify(&data);
        assert!(!sink.intact());
        assert_eq!(sink.received(), 100);
    }

    #[test]
    fn table_fill_and_verify_equal_pattern_byte_at_every_phase() {
        for start in 0..PERIOD as u64 {
            for len in [
                0usize, 1, 250, 251, 252, 502, 1400, 2007, 2008, 2009, 65_536,
            ] {
                // A non-empty prefix checks that fill appends.
                let mut out = vec![0xee];
                fill_pattern(start, len, &mut out);
                let expect: Vec<u8> = (start..start + len as u64).map(pattern_byte).collect();
                assert_eq!(out[1..], expect[..], "fill at {start}+{len}");
                assert!(matches_pattern(start, &expect), "verify at {start}+{len}");
                if len > 0 {
                    assert!(
                        !matches_pattern(start + 1, &expect),
                        "phase slip at {start}+{len}"
                    );
                }
            }
        }
        // Far into a stream the phase still comes from the offset.
        let far = 7_000_000_123;
        let expect: Vec<u8> = (far..far + 1400).map(pattern_byte).collect();
        assert!(matches_pattern(far, &expect));
    }

    /// Feed `stream` to a fresh sink in seeded odd-sized splits; returns
    /// the sink and the split boundaries used.
    fn absorb_in_splits(stream: &[u8], seed: u64) -> (SinkApp, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sink = SinkApp::new(IoProfile::Memory, 0);
        let mut bounds = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let n = (rng.gen_range_u64(0, 1500) as usize | 1).min(stream.len() - at);
            sink.verify(&stream[at..at + n]);
            at += n;
            bounds.push(at);
        }
        (sink, bounds)
    }

    #[test]
    fn split_stream_is_intact_until_any_byte_flips() {
        const LEN: usize = 20_000;
        let clean: Vec<u8> = (0..LEN as u64).map(pattern_byte).collect();
        for seed in 0..8 {
            let (sink, bounds) = absorb_in_splits(&clean, seed);
            assert!(sink.intact());
            assert_eq!(sink.received(), LEN as u64);
            let split = bounds[bounds.len() / 2];
            let period_start = 40 * PERIOD;
            for pos in [0, LEN - 1, period_start - 1, period_start, split - 1, split] {
                let mut dirty = clean.clone();
                dirty[pos] ^= 0x01;
                let (sink, same_bounds) = absorb_in_splits(&dirty, seed);
                assert_eq!(same_bounds, bounds);
                assert!(!sink.intact(), "seed {seed}: flip at {pos} unseen");
                assert_eq!(sink.received(), LEN as u64);
            }
        }
    }

    /// The table's one assumption: `pattern_byte` is 251-periodic only
    /// while `i * 31` fits in `u64`.
    #[test]
    fn pattern_is_periodic_only_below_the_wrap() {
        let last = PERIODIC_END - 1;
        assert!(matches_pattern(last, &[pattern_byte(last)]));
        let table_byte = |i: u64| PATTERN[(i % PERIOD as u64) as usize];
        assert!((PERIODIC_END + 1..PERIODIC_END + 1 + PERIOD as u64)
            .any(|i| pattern_byte(i) != table_byte(i)));
    }

    #[test]
    #[should_panic(expected = "periodic range")]
    fn offsets_past_the_wrap_are_refused() {
        matches_pattern(PERIODIC_END, &[0]);
    }

    #[test]
    fn disk_source_rate_limited() {
        // 8 MB/s: in 10 ms, at most 80 KB.
        let mut s = SourceApp::new(10_000_000, IoProfile::disk_read(), 0);
        let chunk = take(&mut s, 1_000_000, 10_000);
        assert_eq!(chunk.len(), 80_000);
        // No time elapsed, no more budget.
        assert!(take(&mut s, 1_000_000, 10_000).is_empty());
    }

    #[test]
    fn disk_stalls_after_pause_threshold() {
        let profile = IoProfile::Disk {
            rate_bps: 8_000_000,
            pause_every_bytes: 100_000,
            pause_us: 50_000,
            long_every_bytes: 0,
            long_pause_us: 0,
        };
        let mut s = SourceApp::new(10_000_000, profile, 0);
        // 100 ms of budget = 800 KB allowed, but the 100 KB pause
        // threshold fires after the first chunk.
        let a = take(&mut s, 100_000, 100_000);
        assert_eq!(a.len(), 100_000);
        // Paused for 50 ms: nothing at t = 120 ms.
        assert!(take(&mut s, 100_000, 120_000).is_empty());
        // After the stall, budget accrues again.
        let b = take(&mut s, 100_000, 200_000);
        assert!(!b.is_empty());
    }

    #[test]
    fn disk_sink_capacity_follows_rate() {
        let mut sink = SinkApp::new(IoProfile::disk_write(), 0);
        // 6 MB/s for 10 ms = 60 KB.
        assert_eq!(sink.capacity(10_000, 1 << 20), 60_000);
        sink.charge(60_000, 10_000);
        assert_eq!(sink.capacity(10_000, 1 << 20), 0);
        // Memory sink is unbounded.
        let mut m = SinkApp::new(IoProfile::Memory, 0);
        assert_eq!(m.capacity(0, 12345), 12345);
    }
}
