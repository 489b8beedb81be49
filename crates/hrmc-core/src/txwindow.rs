//! The sender's send window (paper §4.2): "The send window is implemented
//! as a queue of packets (sk_bufs)."
//!
//! The window holds every packetized-but-unreleased segment, byte-counted
//! against `sndbuf`. Three positions partition the sequence space:
//!
//! ```text
//!   snd_wnd              snd_nxt_send          snd_nxt
//!      |--- sent, buffered ---|--- queued ---------|   (future data)
//! ```
//!
//! * `snd_wnd` — first unreleased sequence number (window base);
//! * `snd_nxt_send` — next segment awaiting its first transmission
//!   (segments in `[snd_wnd, snd_nxt_send)` have been sent at least once;
//!   the paper calls the unsent portion the backlog queue);
//! * `snd_nxt` — the next sequence number the application interface will
//!   assign.
//!
//! Release ("advancing the window") trims from the front, subject to the
//! MINBUF residency rule and — in Hybrid mode — the membership gate, both
//! enforced by the [`SenderEngine`](crate::sender::SenderEngine).

use std::collections::VecDeque;

use bytes::Bytes;
use hrmc_wire::{seq_le, seq_lt, Seq};

use crate::time::Micros;

/// One buffered segment (the kernel's `sk_buff` in the write queue).
#[derive(Debug, Clone)]
pub struct SendSlot {
    /// Sequence number of this segment.
    pub seq: Seq,
    /// Payload bytes.
    pub payload: Bytes,
    /// Time of first transmission, `None` while still in the backlog.
    pub first_sent: Option<Micros>,
    /// Time of the most recent (re)transmission. The MINBUF residency
    /// clock runs from this ("sliding of the window ... is based on when a
    /// packet was most recently sent").
    pub last_sent: Option<Micros>,
    /// Transmission attempts so far (the header's `tries` field).
    pub tries: u8,
    /// This segment carries the stream's FIN flag.
    pub fin: bool,
}

/// Byte-accounted send window.
#[derive(Debug)]
pub struct SendWindow {
    slots: VecDeque<SendSlot>,
    /// First sequence number in the window (`snd_wnd` in `hrmc_opt`).
    base: Seq,
    /// Next sequence number to assign (`snd_nxt`).
    next_seq: Seq,
    /// Index into `slots` of the next segment awaiting first transmission.
    next_send_idx: usize,
    /// Bytes currently buffered.
    buffered: usize,
    /// Capacity in bytes (`sndbuf`).
    capacity: usize,
}

impl SendWindow {
    /// Create an empty window with byte `capacity`, starting at `initial_seq`.
    pub fn new(capacity: usize, initial_seq: Seq) -> SendWindow {
        SendWindow {
            slots: VecDeque::new(),
            base: initial_seq,
            next_seq: initial_seq,
            next_send_idx: 0,
            buffered: 0,
            capacity,
        }
    }

    /// First sequence number still buffered (`snd_wnd`).
    #[inline]
    pub fn base(&self) -> Seq {
        self.base
    }

    /// Next sequence number the application interface will assign
    /// (`snd_nxt`).
    #[inline]
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Bytes currently buffered.
    #[inline]
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Bytes of remaining capacity.
    #[inline]
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.buffered
    }

    /// Number of buffered segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no segments are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `true` when at least one segment awaits its first transmission.
    #[inline]
    pub fn has_unsent(&self) -> bool {
        self.next_send_idx < self.slots.len()
    }

    /// `true` when [`push`](SendWindow::push) would admit a `len`-byte
    /// segment. An oversized single segment on an empty window is
    /// admitted so a segment larger than sndbuf cannot deadlock the
    /// stream.
    #[inline]
    pub(crate) fn admits(&self, len: usize) -> bool {
        self.buffered + len <= self.capacity || self.slots.is_empty()
    }

    /// Enqueue one segment if it fits; returns `false` (without queueing)
    /// when the window lacks space — the application interface blocks.
    pub fn push(&mut self, payload: Bytes, fin: bool) -> bool {
        if !self.admits(payload.len()) {
            return false;
        }
        self.buffered += payload.len();
        self.slots.push_back(SendSlot {
            seq: self.next_seq,
            payload,
            first_sent: None,
            last_sent: None,
            tries: 0,
            fin,
        });
        self.next_seq = self.next_seq.wrapping_add(1);
        true
    }

    /// The next segment awaiting first transmission, if any.
    pub fn peek_unsent(&self) -> Option<&SendSlot> {
        self.slots.get(self.next_send_idx)
    }

    /// Mark the next unsent segment as transmitted at `now` and return a
    /// clone of its slot for packetization.
    pub fn take_unsent(&mut self, now: Micros) -> Option<SendSlot> {
        let slot = self.slots.get_mut(self.next_send_idx)?;
        slot.first_sent = Some(now);
        slot.last_sent = Some(now);
        let out = slot.clone();
        // tries stays 0 for the first transmission; bump afterwards so the
        // *next* transmission is try 1.
        slot.tries = slot.tries.saturating_add(1);
        self.next_send_idx += 1;
        Some(out)
    }

    /// Fetch a buffered segment by sequence number (for retransmission).
    /// Returns `None` when `seq` is outside the window (already released
    /// or never sent).
    pub fn get(&self, seq: Seq) -> Option<&SendSlot> {
        let idx = self.index_of(seq)?;
        self.slots.get(idx)
    }

    /// Mark `seq` retransmitted at `now`; returns the slot (with the wire
    /// `tries` value — the count *before* this retransmission) or `None`
    /// if released.
    pub fn mark_retransmitted(&mut self, seq: Seq, now: Micros) -> Option<SendSlot> {
        let idx = self.index_of(seq)?;
        // Only segments that were transmitted at least once can be
        // retransmitted; a NAK can name a backlogged segment when a probe
        // advertises snd_nxt ahead of transmission, in which case it will
        // go out through the normal path.
        if idx >= self.next_send_idx {
            return None;
        }
        let slot = self.slots.get_mut(idx)?;
        let out = slot.clone();
        slot.last_sent = Some(now);
        slot.tries = slot.tries.saturating_add(1);
        Some(out)
    }

    /// `true` if `seq` has already been released from the buffer.
    pub fn is_released(&self, seq: Seq) -> bool {
        seq_lt(seq, self.base)
    }

    /// `true` if `seq` is currently buffered.
    pub fn contains(&self, seq: Seq) -> bool {
        self.index_of(seq).is_some()
    }

    /// The front slot, if any — the release candidate.
    pub fn front(&self) -> Option<&SendSlot> {
        self.slots.front()
    }

    /// Release (drop) the front segment, advancing `snd_wnd`. Returns the
    /// freed byte count.
    pub fn release_front(&mut self) -> Option<usize> {
        let slot = self.slots.pop_front()?;
        self.base = self.base.wrapping_add(1);
        self.buffered -= slot.payload.len();
        self.next_send_idx = self.next_send_idx.saturating_sub(1);
        Some(slot.payload.len())
    }

    /// Iterate over buffered slots front-to-back.
    pub fn iter(&self) -> impl Iterator<Item = &SendSlot> {
        self.slots.iter()
    }

    fn index_of(&self, seq: Seq) -> Option<usize> {
        if self.slots.is_empty() || seq_lt(seq, self.base) || !seq_lt(seq, self.next_seq) {
            return None;
        }
        let idx = seq.wrapping_sub(self.base) as usize;
        debug_assert!(seq_le(self.base, seq));
        (idx < self.slots.len()).then_some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    #[test]
    fn push_assigns_consecutive_seqs() {
        let mut w = SendWindow::new(10_000, 100);
        assert!(w.push(payload(100), false));
        assert!(w.push(payload(100), false));
        assert_eq!(w.base(), 100);
        assert_eq!(w.next_seq(), 102);
        assert_eq!(w.buffered_bytes(), 200);
    }

    #[test]
    fn push_respects_capacity() {
        let mut w = SendWindow::new(250, 0);
        assert!(w.push(payload(100), false));
        assert!(w.push(payload(100), false));
        assert!(!w.push(payload(100), false)); // would exceed 250
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn oversized_segment_admitted_when_empty() {
        let mut w = SendWindow::new(50, 0);
        assert!(w.push(payload(100), false));
        assert!(!w.push(payload(1), false));
    }

    #[test]
    fn take_unsent_walks_backlog_once() {
        let mut w = SendWindow::new(10_000, 0);
        w.push(payload(10), false);
        w.push(payload(10), false);
        assert!(w.has_unsent());
        let a = w.take_unsent(1000).unwrap();
        assert_eq!(a.seq, 0);
        assert_eq!(a.tries, 0);
        let b = w.take_unsent(2000).unwrap();
        assert_eq!(b.seq, 1);
        assert!(w.take_unsent(3000).is_none());
        assert!(!w.has_unsent());
        // Both remain buffered for retransmission.
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(0).unwrap().last_sent, Some(1000));
    }

    #[test]
    fn retransmission_updates_clock_and_tries() {
        let mut w = SendWindow::new(10_000, 0);
        w.push(payload(10), false);
        w.take_unsent(1000);
        let r = w.mark_retransmitted(0, 5000).unwrap();
        assert_eq!(r.tries, 1); // wire value: this is the 2nd transmission
        assert_eq!(w.get(0).unwrap().last_sent, Some(5000));
        assert_eq!(w.get(0).unwrap().tries, 2);
        // MINBUF residency clock restarted by the retransmission.
        assert_eq!(w.get(0).unwrap().first_sent, Some(1000));
    }

    #[test]
    fn cannot_retransmit_unsent_or_released() {
        let mut w = SendWindow::new(10_000, 0);
        w.push(payload(10), false);
        assert!(w.mark_retransmitted(0, 100).is_none()); // never sent
        w.take_unsent(100);
        w.release_front();
        assert!(w.mark_retransmitted(0, 200).is_none()); // released
        assert!(w.is_released(0));
    }

    #[test]
    fn release_front_frees_bytes_and_advances_base() {
        let mut w = SendWindow::new(250, 0);
        w.push(payload(100), false);
        w.push(payload(100), false);
        w.take_unsent(1);
        w.take_unsent(2);
        assert_eq!(w.release_front(), Some(100));
        assert_eq!(w.base(), 1);
        assert_eq!(w.free_bytes(), 150);
        assert!(w.push(payload(100), false)); // space reclaimed
        assert_eq!(w.release_front(), Some(100));
        assert_eq!(w.release_front(), Some(100));
        assert_eq!(w.release_front(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn release_preserves_unsent_index() {
        let mut w = SendWindow::new(10_000, 0);
        w.push(payload(10), false);
        w.push(payload(10), false);
        w.push(payload(10), false);
        w.take_unsent(1); // seq 0 sent
        w.release_front(); // seq 0 released
        let next = w.take_unsent(2).unwrap();
        assert_eq!(next.seq, 1); // not skipped, not repeated
    }

    #[test]
    fn index_lookup_handles_wraparound() {
        let base = u32::MAX - 1;
        let mut w = SendWindow::new(10_000, base);
        w.push(payload(10), false); // seq MAX-1
        w.push(payload(10), false); // seq MAX
        w.push(payload(10), false); // seq 0 (wrapped)
        assert!(w.contains(base));
        assert!(w.contains(0));
        assert!(!w.contains(1));
        assert_eq!(w.get(0).unwrap().seq, 0);
        w.take_unsent(1);
        w.release_front();
        assert_eq!(w.base(), u32::MAX);
        assert!(w.is_released(base));
        assert!(!w.is_released(0));
    }

    #[test]
    fn fin_flag_survives() {
        let mut w = SendWindow::new(10_000, 0);
        w.push(payload(10), false);
        w.push(payload(5), true);
        w.take_unsent(1);
        let f = w.take_unsent(2).unwrap();
        assert!(f.fin);
        assert!(!w.get(0).unwrap().fin);
    }
}
