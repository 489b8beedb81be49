//! The receiver's NAK manager (paper Figure 9, `nak_timer`).
//!
//! As the receiver reassembles the stream it detects gaps; each missing
//! sequence number becomes a pending NAK. New gaps are NAKed immediately;
//! after that, **local NAK suppression** (paper §2) holds each entry back
//! until the sender has had ample opportunity to respond — a suppression
//! interval measured in RTTs. The `nak_timer` periodically scans the
//! pending list and re-sends overdue NAKs.
//!
//! Entries are keyed by *unwrapped* (64-bit) sequence numbers, matching
//! [`crate::rxwindow`]. Adjacent due entries coalesce into `(first,
//! count)` ranges so a burst loss costs one NAK packet, mirroring the
//! single NAK-with-length wire encoding.

use std::collections::BTreeMap;

use crate::time::{scale, Micros, MS};

/// Local NAK suppression interval in RTTs: a NAK for a given gap is not
/// repeated until the sender has had this long to respond.
const SUPPRESS_RTTS: f64 = 1.5;

/// Floor for the suppression interval (guards tiny RTT estimates).
const SUPPRESS_FLOOR_US: Micros = 2 * MS;

/// The local NAK suppression interval at round-trip time `rtt`: the
/// `suppress` argument of [`NakManager::due`] and
/// [`NakManager::next_due`].
pub(crate) fn suppress_interval(rtt: Micros) -> Micros {
    scale(rtt, SUPPRESS_RTTS).max(SUPPRESS_FLOOR_US)
}

/// State of one missing sequence number.
#[derive(Debug, Clone, Copy)]
struct NakEntry {
    /// When the gap was first noted (recovery-latency base).
    first_noted: Micros,
    /// When a NAK naming this sequence was last sent.
    last_sent: Micros,
    /// How many NAKs have named it (wire `tries`).
    tries: u8,
}

/// Hard cap on tracked missing sequence numbers. A hostile KEEPALIVE or
/// PROBE can advertise a sequence far ahead of the stream; expanding
/// that span one entry per sequence would let a single datagram pin
/// gigabytes of pending state. Gaps past the cap are simply not tracked
/// yet — they re-register as the window advances and earlier entries
/// are satisfied.
pub const MAX_PENDING: usize = 1 << 16;

/// Pending-NAK list with suppression.
#[derive(Debug, Default)]
pub struct NakManager {
    pending: BTreeMap<u64, NakEntry>,
    /// Total NAK packets requested by this manager (stat).
    pub naks_generated: u64,
    /// Sequence numbers left untracked because the pending list was at
    /// [`MAX_PENDING`] (adversarial-input audit trail).
    pub clamped: u64,
}

impl NakManager {
    /// Empty manager.
    pub fn new() -> NakManager {
        NakManager::default()
    }

    /// Number of sequence numbers currently missing.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is missing.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// `true` if `seq` is pending.
    pub fn contains(&self, seq: u64) -> bool {
        self.pending.contains_key(&seq)
    }

    /// Register newly discovered gaps and return the ranges to NAK *right
    /// now* (a new gap is NAKed immediately; known gaps stay suppressed).
    pub fn note_missing(&mut self, ranges: &[(u64, u32)], now: Micros) -> Vec<(u64, u32)> {
        let mut fresh = Vec::new();
        for &(first, count) in ranges {
            let end = first.saturating_add(u64::from(count));
            for seq in first..end {
                if self.pending.len() >= MAX_PENDING {
                    // Everything from here on is untracked; don't walk
                    // the rest of a possibly enormous span.
                    self.clamped = self.clamped.saturating_add(end - seq);
                    break;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = self.pending.entry(seq) {
                    e.insert(NakEntry {
                        first_noted: now,
                        last_sent: now,
                        tries: 0,
                    });
                    fresh.push(seq);
                }
            }
        }
        let out = coalesce(&fresh);
        self.naks_generated += out.len() as u64;
        out
    }

    /// Register gaps without emitting NAKs (the PROBE response path
    /// registers then immediately [`force_below`](NakManager::force_below)s,
    /// so the registration itself must stay silent).
    pub fn register(&mut self, ranges: &[(u64, u32)], now: Micros) {
        for &(first, count) in ranges {
            let end = first.saturating_add(u64::from(count));
            for seq in first..end {
                if self.pending.len() >= MAX_PENDING {
                    self.clamped = self.clamped.saturating_add(end - seq);
                    break;
                }
                self.pending.entry(seq).or_insert(NakEntry {
                    first_noted: now,
                    last_sent: now,
                    tries: 0,
                });
            }
        }
    }

    /// Remove a sequence number (its data arrived). Returns the time the
    /// gap was first noted, for recovery-latency measurement.
    pub fn satisfy(&mut self, seq: u64) -> Option<Micros> {
        self.pending.remove(&seq).map(|e| e.first_noted)
    }

    /// Remove every entry below `rcv_nxt` (delivered in order). Returns
    /// the removed `(seq, first_noted)` pairs in order; empty — and
    /// allocation-free — when nothing below `rcv_nxt` is pending.
    pub fn satisfy_below(&mut self, rcv_nxt: u64) -> Vec<(u64, Micros)> {
        if self.pending.range(..rcv_nxt).next().is_none() {
            return Vec::new();
        }
        // split_off keeps >= rcv_nxt; everything before is satisfied.
        let kept = self.pending.split_off(&rcv_nxt);
        let removed = std::mem::replace(&mut self.pending, kept);
        removed
            .into_iter()
            .map(|(s, e)| (s, e.first_noted))
            .collect()
    }

    /// Scan for entries whose suppression interval has lapsed; mark them
    /// re-sent at `now` and return the coalesced ranges to NAK. `tries`
    /// increments per entry so Karn's rule can ignore their RTT samples.
    pub fn due(&mut self, now: Micros, suppress: Micros) -> Vec<(u64, u32)> {
        let mut due = Vec::new();
        for (&seq, entry) in self.pending.iter_mut() {
            if now.saturating_sub(entry.last_sent) >= suppress {
                entry.last_sent = now;
                entry.tries = entry.tries.saturating_add(1);
                due.push(seq);
            }
        }
        let out = coalesce(&due);
        self.naks_generated += out.len() as u64;
        out
    }

    /// Earliest time any pending entry's suppression interval lapses —
    /// the NAK manager's contribution to a deadline-driven driver's
    /// `next_wakeup`. `None` when nothing is missing.
    pub fn next_due(&self, suppress: Micros) -> Option<Micros> {
        self.pending
            .values()
            .map(|e| e.last_sent.saturating_add(suppress))
            .min()
    }

    /// Force-NAK every pending entry at or below `limit` immediately,
    /// bypassing suppression — the PROBE response path ("Otherwise, the
    /// receiver generates a NAK message for the needed data").
    pub fn force_below(&mut self, limit: u64, now: Micros) -> Vec<(u64, u32)> {
        let mut forced = Vec::new();
        for (&seq, entry) in self.pending.range_mut(..limit) {
            entry.last_sent = now;
            entry.tries = entry.tries.saturating_add(1);
            forced.push(seq);
        }
        let out = coalesce(&forced);
        self.naks_generated += out.len() as u64;
        out
    }
}

/// Collapse a sorted list of sequence numbers into maximal `(first,
/// count)` ranges.
fn coalesce(seqs: &[u64]) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = Vec::new();
    for &s in seqs {
        match out.last_mut() {
            Some((first, count))
                if first.checked_add(u64::from(*count)) == Some(s) && *count < u32::MAX =>
            {
                *count += 1
            }
            _ => out.push((s, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_gaps_nak_immediately_once() {
        let mut m = NakManager::new();
        let fresh = m.note_missing(&[(5, 3)], 100);
        assert_eq!(fresh, vec![(5, 3)]);
        // Re-noting the same gap is silent (suppression).
        let again = m.note_missing(&[(5, 3)], 200);
        assert!(again.is_empty());
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn partial_overlap_naks_only_new_part() {
        let mut m = NakManager::new();
        m.note_missing(&[(5, 3)], 100); // 5,6,7
        let fresh = m.note_missing(&[(7, 3)], 150); // 7 known; 8,9 new
        assert_eq!(fresh, vec![(8, 2)]);
    }

    #[test]
    fn suppression_holds_then_releases() {
        let mut m = NakManager::new();
        m.note_missing(&[(10, 2)], 1_000);
        assert!(m.due(1_500, 1_000).is_empty()); // only 500 µs elapsed
        let due = m.due(2_000, 1_000);
        assert_eq!(due, vec![(10, 2)]);
        // Clock restarts after the re-send.
        assert!(m.due(2_500, 1_000).is_empty());
        assert_eq!(m.pending.values().map(|e| e.tries).max(), Some(1));
    }

    #[test]
    fn satisfy_removes_entries() {
        let mut m = NakManager::new();
        m.note_missing(&[(0, 5)], 0);
        m.satisfy(2);
        assert!(!m.contains(2));
        assert_eq!(m.len(), 4);
        m.satisfy_below(4);
        assert_eq!(m.len(), 1); // only 4 remains
        assert!(m.contains(4));
    }

    #[test]
    fn satisfy_reports_first_noted_times() {
        let mut m = NakManager::new();
        m.note_missing(&[(5, 2)], 1_000);
        m.due(10_000, 1_000); // re-send; first_noted must not move
        assert_eq!(m.satisfy(5), Some(1_000));
        assert_eq!(m.satisfy(5), None);
        let removed = m.satisfy_below(10);
        assert_eq!(removed, vec![(6, 1_000)]);
        assert!(m.satisfy_below(10).is_empty());
    }

    #[test]
    fn due_coalesces_adjacent_only() {
        let mut m = NakManager::new();
        m.note_missing(&[(0, 2), (5, 2)], 0);
        let due = m.due(10_000, 1_000);
        assert_eq!(due, vec![(0, 2), (5, 2)]);
    }

    #[test]
    fn force_below_bypasses_suppression() {
        let mut m = NakManager::new();
        m.note_missing(&[(0, 4)], 1_000);
        // Immediately forced despite having just been NAKed.
        let forced = m.force_below(2, 1_500);
        assert_eq!(forced, vec![(0, 2)]);
        // Entries at or above the limit keep their original clocks.
        assert_eq!(m.due(2_000, 1_000), vec![(2, 2)]);
        // The forced entries' suppression clocks restarted at 1500.
        assert_eq!(m.due(2_500, 1_000), vec![(0, 2)]);
    }

    #[test]
    fn suppress_interval_scales_rtt_above_a_floor() {
        assert_eq!(suppress_interval(10_000), 15_000);
        assert_eq!(suppress_interval(100), SUPPRESS_FLOOR_US);
    }

    #[test]
    fn coalesce_ranges() {
        assert_eq!(coalesce(&[]), vec![]);
        assert_eq!(coalesce(&[1]), vec![(1, 1)]);
        assert_eq!(
            coalesce(&[1, 2, 3, 7, 8, 10]),
            vec![(1, 3), (7, 2), (10, 1)]
        );
    }

    #[test]
    fn hostile_span_is_clamped_not_expanded() {
        let mut m = NakManager::new();
        // One "gap" spanning 2^32 sequences — what a forged KEEPALIVE
        // advertising a far-future sequence would induce. Must not
        // allocate billions of entries.
        let fresh = m.note_missing(&[(0, u32::MAX)], 0);
        assert_eq!(m.len(), MAX_PENDING);
        assert!(m.clamped > 0, "clamp never engaged");
        assert!(!fresh.is_empty(), "the tracked prefix must still NAK");
        // register() obeys the same cap.
        let mut r = NakManager::new();
        r.register(&[(0, u32::MAX)], 0);
        assert_eq!(r.len(), MAX_PENDING);
        assert!(r.clamped > 0);
        // Ranges near the top of the sequence space saturate instead of
        // wrapping (and expand only to the boundary).
        let mut w = NakManager::new();
        let f = w.note_missing(&[(u64::MAX - 10, u32::MAX)], 0);
        assert_eq!(w.len(), 10);
        assert_eq!(f, vec![(u64::MAX - 10, 10)]);
    }

    #[test]
    fn nak_counter_counts_packets_not_seqs() {
        let mut m = NakManager::new();
        m.note_missing(&[(0, 100)], 0); // one coalesced range = one packet
        assert_eq!(m.naks_generated, 1);
        m.due(1_000_000, 1_000);
        assert_eq!(m.naks_generated, 2);
    }
}
