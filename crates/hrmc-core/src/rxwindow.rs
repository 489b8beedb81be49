//! The receiver's window and stream reassembly (paper Figure 2 and §4.3).
//!
//! The receive sequence space is split into four regions:
//!
//! ```text
//!   R1 (consumed) | R2 (buffered for app) | R3 (receivable) | R4 (beyond)
//!                 ^rcv_wnd                ^rcv_nxt          ^rcv_wnd + rcv_wnd_size
//! ```
//!
//! and the *occupancy* of R2+R3 determines the flow-control region:
//! safe / warning / critical (the three rate-request rules of §2 act on
//! the region). This module owns:
//!
//! * the **receive queue** (in-order payloads awaiting the application),
//! * the **out-of-order queue** (payloads beyond a gap),
//! * byte accounting against `rcvbuf`, and
//! * gap reporting for the NAK manager.
//!
//! Internally sequence numbers are *unwrapped* to `u64` stream offsets so
//! that 32-bit wraparound never corrupts the ordering; the 32-bit wire
//! value is recovered with a truncation.
//!
//! The out-of-order queue is a ring indexed by distance from `rcv_nxt`:
//! slot `i` holds `rcv_nxt + i`, and slot 0 (`rcv_nxt` itself) is always
//! empty. Insertion and duplicate detection are one index, an in-order
//! arrival pops the front and drains the contiguous run behind it, and a
//! gap scan walks slots instead of searching a tree. The R4 rejection
//! bounds the ring at `span = rcvbuf / segment_size` slots.

use std::collections::VecDeque;

use bytes::Bytes;
use hrmc_wire::Seq;

/// Receive-window occupancy at which the warning region begins.
const WARN_THRESHOLD: f64 = 0.50;

/// Receive-window occupancy at which the critical region begins.
const CRITICAL_THRESHOLD: f64 = 0.90;

const _: () = assert!(0.0 <= WARN_THRESHOLD && WARN_THRESHOLD <= CRITICAL_THRESHOLD);
const _: () = assert!(CRITICAL_THRESHOLD <= 1.0);

/// Flow-control region of the receive window (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// "no flow control action is taken"
    Safe,
    /// rule 2: rate request if the advertised rate would overrun the free
    /// window within WARNBUF RTTs
    Warning,
    /// rule 3: urgent rate request; sender stops for two RTTs
    Critical,
}

/// Result of offering a data packet to the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Already delivered or already buffered; dropped.
    Duplicate,
    /// Accepted in order; `rcv_nxt` advanced (possibly draining the
    /// out-of-order queue behind it).
    InOrder,
    /// Accepted out of order; a gap precedes it.
    OutOfOrder,
    /// Rejected: sequence number beyond the window (region R4).
    BeyondWindow,
    /// Rejected: no buffer space (receive buffer overflow).
    Overflow,
}

/// Unwrap a 32-bit wire sequence number to the 64-bit stream offset
/// nearest to `reference`.
pub fn unwrap_seq(seq: Seq, reference: u64) -> u64 {
    let ref_low = reference as u32;
    let delta = seq.wrapping_sub(ref_low) as i32;
    reference.wrapping_add(delta as i64 as u64)
}

/// Byte-accounted receive window with reassembly.
#[derive(Debug)]
pub struct ReceiveWindow {
    /// In-order payloads awaiting the application (region R2).
    ready: VecDeque<Bytes>,
    /// Read offset into `ready.front()` for partial reads.
    front_offset: usize,
    /// Bytes in `ready` past `front_offset`.
    readable: usize,
    /// Out-of-order ring: slot `i` holds `next + i`; slot 0 is empty.
    ooo: VecDeque<Option<Bytes>>,
    /// Occupied slots in `ooo`.
    ooo_count: usize,
    /// Next expected unwrapped sequence number (`rcv_nxt`); `None` until
    /// the first data packet attaches the window to the stream.
    next: Option<u64>,
    /// Unwrapped sequence number carrying FIN, once seen.
    fin_seq: Option<u64>,
    /// Bytes buffered across both queues.
    buffered: usize,
    /// Capacity in bytes (`rcvbuf`).
    capacity: usize,
    /// Window span in packets (`rcv_wnd_size`): offers at or beyond
    /// `next + span` land in region R4 and are rejected.
    span: u64,
    /// Total in-order bytes ever delivered to `ready` (stat).
    pub total_bytes_assembled: u64,
    /// Duplicates dropped (stat).
    pub duplicates: u64,
    /// R4 rejections (stat).
    pub beyond_window_drops: u64,
    /// Overflow rejections (stat).
    pub overflow_drops: u64,
}

impl ReceiveWindow {
    /// Create a window of `capacity` bytes. `segment_size` sets the packet
    /// span of region R3 (`rcv_wnd_size = capacity / segment_size`).
    pub fn new(capacity: usize, segment_size: usize) -> ReceiveWindow {
        ReceiveWindow {
            ready: VecDeque::new(),
            front_offset: 0,
            readable: 0,
            ooo: VecDeque::new(),
            ooo_count: 0,
            next: None,
            fin_seq: None,
            buffered: 0,
            capacity,
            span: ((capacity / segment_size.max(1)).max(2)) as u64,
            total_bytes_assembled: 0,
            duplicates: 0,
            beyond_window_drops: 0,
            overflow_drops: 0,
        }
    }

    /// `true` once the window is attached to the stream (first DATA seen
    /// or [`ReceiveWindow::attach_at`] called).
    pub fn attached(&self) -> bool {
        self.next.is_some()
    }

    /// Attach the window at a known stream start before any data arrives
    /// (a receiver that started before the sender and knows the initial
    /// sequence number). Lost leading packets then become ordinary gaps
    /// instead of a silently skipped prefix. No-op once attached.
    pub fn attach_at(&mut self, seq: Seq) {
        if self.next.is_none() {
            self.next = Some(seq as u64);
        }
    }

    /// Next expected unwrapped sequence number. Panics if unattached.
    pub fn next_u64(&self) -> u64 {
        self.next.expect("window not attached")
    }

    /// Next expected wire sequence number (`rcv_nxt`), or `None` before
    /// the first data packet.
    pub fn rcv_nxt(&self) -> Option<Seq> {
        self.next.map(|n| n as Seq)
    }

    /// Bytes buffered in both queues (R2 + R3 occupancy).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Free bytes in the window ("the empty portion of the receive
    /// window" of rate rule 2).
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.buffered
    }

    /// Occupancy fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.buffered as f64 / self.capacity as f64
        }
    }

    /// Current flow-control region.
    pub fn region(&self) -> Region {
        let occ = self.occupancy();
        if occ >= CRITICAL_THRESHOLD {
            Region::Critical
        } else if occ >= WARN_THRESHOLD {
            Region::Warning
        } else {
            Region::Safe
        }
    }

    /// Bytes ready for the application.
    pub fn readable_bytes(&self) -> usize {
        self.readable
    }

    /// Offer a data packet. On the very first packet the window attaches
    /// to the stream at that sequence number (late-join semantics: the
    /// stream begins wherever the receiver tunes in; paper §2, Connection
    /// Management).
    pub fn offer(&mut self, seq: Seq, payload: Bytes, fin: bool) -> Offer {
        let next = match self.next {
            Some(n) => n,
            None => {
                let n = seq as u64;
                self.next = Some(n);
                n
            }
        };
        let useq = unwrap_seq(seq, next);
        if useq < next {
            self.duplicates += 1;
            return Offer::Duplicate;
        }
        if useq >= next + self.span {
            self.beyond_window_drops += 1;
            return Offer::BeyondWindow;
        }
        if self.buffered + payload.len() > self.capacity {
            self.overflow_drops += 1;
            return Offer::Overflow;
        }
        if fin {
            self.fin_seq = Some(useq);
        }
        // `useq - next < span`, so the index fits the bounded ring.
        let idx = (useq - next) as usize;
        if idx == 0 {
            self.buffered += payload.len();
            self.accept_in_order(payload);
            // Slot 0 was ours; drain the contiguous run behind it.
            self.ooo.pop_front();
            while let Some(p) = self.ooo.front_mut().and_then(Option::take) {
                self.ooo.pop_front();
                self.ooo_count -= 1;
                self.accept_in_order(p);
            }
            Offer::InOrder
        } else {
            if idx >= self.ooo.len() {
                self.ooo.resize(idx + 1, None);
            }
            let slot = &mut self.ooo[idx];
            if slot.is_some() {
                self.duplicates += 1;
                return Offer::Duplicate;
            }
            self.buffered += payload.len();
            *slot = Some(payload);
            self.ooo_count += 1;
            Offer::OutOfOrder
        }
    }

    fn accept_in_order(&mut self, payload: Bytes) {
        self.total_bytes_assembled += payload.len() as u64;
        self.readable += payload.len();
        // Zero-length segments (the FIN marker, NAK_ERR hole fillers)
        // consume a sequence number but carry nothing for the
        // application; queueing them would wedge `fully_consumed`.
        if !payload.is_empty() {
            self.ready.push_back(payload);
        }
        self.next = Some(self.next.unwrap() + 1);
    }

    /// Hand up to `max` in-order bytes to `f`, in order, as borrowed
    /// slices of the buffered payloads, freeing window space. `f` never
    /// sees an empty slice. Returns the byte count (0 when nothing is
    /// ready); `read_with(n, |_| ())` discards without touching payload.
    pub fn read_with(&mut self, max: usize, mut f: impl FnMut(&[u8])) -> usize {
        let mut taken = 0;
        while taken < max {
            let Some(front) = self.ready.front() else {
                break;
            };
            let take = (front.len() - self.front_offset).min(max - taken);
            f(&front[self.front_offset..self.front_offset + take]);
            taken += take;
            self.front_offset += take;
            if self.front_offset == front.len() {
                self.ready.pop_front();
                self.front_offset = 0;
            }
        }
        self.buffered -= taken;
        self.readable -= taken;
        taken
    }

    /// Copy up to `buf.len()` in-order bytes to the application, freeing
    /// window space. Returns the byte count (0 when nothing is ready).
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let mut copied = 0;
        self.read_with(buf.len(), |chunk| {
            buf[copied..copied + chunk.len()].copy_from_slice(chunk);
            copied += chunk.len();
        })
    }

    /// The gaps below `limit` (unwrapped, exclusive): maximal runs of
    /// sequence numbers in `[rcv_nxt, limit)` that are neither delivered
    /// nor in the out-of-order queue. These are the ranges the NAK manager
    /// must request.
    pub fn missing_below(&self, limit: u64) -> Vec<(u64, u32)> {
        let Some(next) = self.next else {
            return Vec::new();
        };
        if limit <= next {
            return Vec::new();
        }
        // Walk the ring up to `limit`; whatever lies past the ring is one
        // trailing gap, however far away `limit` is.
        let walk = (limit - next).min(self.ooo.len() as u64) as usize;
        let mut gaps = Vec::new();
        let mut gap_start = None;
        for (useq, slot) in (next..).zip(self.ooo.range(..walk)) {
            match (slot, gap_start) {
                (None, None) => gap_start = Some(useq),
                (Some(_), Some(first)) => {
                    gaps.push((first, (useq - first) as u32));
                    gap_start = None;
                }
                _ => {}
            }
        }
        let first = gap_start.unwrap_or(next + walk as u64);
        if limit > first {
            gaps.push((first, (limit - first) as u32));
        }
        gaps
    }

    /// `true` when every packet up to and including unwrapped `useq` has
    /// been received in order — the PROBE answer predicate.
    pub fn has_all_through(&self, useq: u64) -> bool {
        match self.next {
            Some(n) => n > useq,
            None => false,
        }
    }

    /// The FIN sequence number (unwrapped), once seen.
    pub fn fin_seq(&self) -> Option<u64> {
        self.fin_seq
    }

    /// `true` when the whole stream (through FIN) has been assembled.
    pub fn stream_complete(&self) -> bool {
        matches!((self.fin_seq, self.next), (Some(f), Some(n)) if n > f)
    }

    /// `true` when the stream is complete *and* the application has
    /// consumed every byte.
    pub fn fully_consumed(&self) -> bool {
        self.stream_complete() && self.ready.is_empty()
    }

    /// Number of out-of-order segments held.
    pub fn ooo_len(&self) -> usize {
        self.ooo_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> ReceiveWindow {
        ReceiveWindow::new(10_000, 1_000)
    }

    fn b(n: usize) -> Bytes {
        Bytes::from(vec![0x5au8; n])
    }

    #[test]
    fn unwrap_seq_near_reference() {
        assert_eq!(unwrap_seq(5, 3), 5);
        assert_eq!(unwrap_seq(3, 5), 3);
        // Crossing a 32-bit boundary.
        let reference = (1u64 << 32) + 10;
        assert_eq!(unwrap_seq(8, reference), (1u64 << 32) + 8);
        assert_eq!(unwrap_seq(u32::MAX, reference), (1u64 << 32) - 1);
    }

    #[test]
    fn attaches_on_first_packet() {
        let mut w = window();
        assert!(!w.attached());
        assert_eq!(w.offer(500, b(100), false), Offer::InOrder);
        assert!(w.attached());
        assert_eq!(w.rcv_nxt(), Some(501));
    }

    #[test]
    fn in_order_assembly_and_read() {
        let mut w = window();
        w.offer(0, Bytes::from_static(b"hello "), false);
        w.offer(1, Bytes::from_static(b"world"), false);
        assert_eq!(w.readable_bytes(), 11);
        let mut buf = [0u8; 32];
        let n = w.read(&mut buf);
        assert_eq!(&buf[..n], b"hello world");
        assert_eq!(w.buffered_bytes(), 0);
        assert_eq!(w.read(&mut buf), 0);
    }

    #[test]
    fn partial_reads_across_segments() {
        let mut w = window();
        w.offer(0, Bytes::from_static(b"abcdef"), false);
        w.offer(1, Bytes::from_static(b"ghij"), false);
        let mut buf = [0u8; 4];
        assert_eq!(w.read(&mut buf), 4);
        assert_eq!(&buf, b"abcd");
        assert_eq!(w.read(&mut buf), 4);
        assert_eq!(&buf, b"efgh");
        assert_eq!(w.read(&mut buf), 2);
        assert_eq!(&buf[..2], b"ij");
    }

    #[test]
    fn out_of_order_held_then_drained() {
        let mut w = window();
        assert_eq!(w.offer(0, b(10), false), Offer::InOrder);
        assert_eq!(w.offer(2, b(10), false), Offer::OutOfOrder);
        assert_eq!(w.offer(3, b(10), false), Offer::OutOfOrder);
        assert_eq!(w.rcv_nxt(), Some(1));
        assert_eq!(w.ooo_len(), 2);
        // The gap fills: everything drains at once.
        assert_eq!(w.offer(1, b(10), false), Offer::InOrder);
        assert_eq!(w.rcv_nxt(), Some(4));
        assert_eq!(w.ooo_len(), 0);
        assert_eq!(w.readable_bytes(), 40);
    }

    #[test]
    fn duplicates_detected_everywhere() {
        let mut w = window();
        w.offer(0, b(10), false);
        assert_eq!(w.offer(0, b(10), false), Offer::Duplicate); // delivered
        w.offer(2, b(10), false);
        assert_eq!(w.offer(2, b(10), false), Offer::Duplicate); // in ooo
        assert_eq!(w.duplicates, 2);
    }

    #[test]
    fn beyond_window_rejected() {
        let mut w = window(); // span = 10000/1000 = 10 packets
        w.offer(0, b(10), false);
        assert_eq!(w.offer(10, b(10), false), Offer::OutOfOrder); // rel 9 < 10
        assert_eq!(w.offer(11, b(10), false), Offer::BeyondWindow); // rel 10
        assert_eq!(w.beyond_window_drops, 1);
    }

    #[test]
    fn overflow_rejected_by_bytes() {
        let mut w = ReceiveWindow::new(2_500, 1_000);
        assert_eq!(w.offer(0, b(1000), false), Offer::InOrder);
        assert_eq!(w.offer(1, b(1000), false), Offer::InOrder);
        assert_eq!(w.offer(2, b(1000), false), Offer::Overflow);
        assert_eq!(w.overflow_drops, 1);
        // Reading frees space.
        let mut buf = [0u8; 1000];
        w.read(&mut buf);
        assert_eq!(w.offer(2, b(1000), false), Offer::InOrder);
    }

    #[test]
    fn regions_follow_occupancy() {
        let mut w = ReceiveWindow::new(1_000, 100);
        assert_eq!(w.region(), Region::Safe);
        w.offer(0, b(499), false);
        assert_eq!(w.region(), Region::Safe);
        w.offer(1, b(1), false);
        assert_eq!(w.region(), Region::Warning); // exactly 50%
        w.offer(2, b(400), false);
        assert_eq!(w.region(), Region::Critical); // 90%
    }

    #[test]
    fn missing_ranges_reported() {
        let mut w = window();
        w.offer(0, b(1), false); // next = 1
        w.offer(3, b(1), false);
        w.offer(4, b(1), false);
        w.offer(7, b(1), false);
        // Gaps below 9: [1,2] and [5,6] and [8].
        assert_eq!(w.missing_below(9), vec![(1, 2), (5, 2), (8, 1)]);
        // Bounded query.
        assert_eq!(w.missing_below(5), vec![(1, 2)]);
        assert_eq!(w.missing_below(1), vec![]);
    }

    #[test]
    fn probe_predicate() {
        let mut w = window();
        w.offer(0, b(1), false);
        w.offer(1, b(1), false);
        assert!(w.has_all_through(1));
        assert!(!w.has_all_through(2));
    }

    #[test]
    fn fin_completion_flow() {
        let mut w = window();
        w.offer(0, b(10), false);
        assert!(!w.stream_complete());
        w.offer(2, b(10), true); // FIN out of order
        assert!(!w.stream_complete());
        w.offer(1, b(10), false);
        assert!(w.stream_complete());
        assert!(!w.fully_consumed());
        let mut buf = [0u8; 64];
        while w.read(&mut buf) > 0 {}
        assert!(w.fully_consumed());
    }

    #[test]
    fn read_with_discards_without_copy() {
        let mut w = window();
        w.offer(0, b(100), false);
        w.offer(1, b(100), false);
        assert_eq!(w.read_with(150, |_| ()), 150);
        assert_eq!(w.readable_bytes(), 50);
        assert_eq!(w.read_with(150, |_| ()), 50);
        assert_eq!(w.buffered_bytes(), 0);
    }

    #[test]
    fn read_with_lends_segments_in_order_and_skips_empty_ones() {
        let mut w = window();
        w.offer(0, Bytes::from_static(b"abcdef"), false);
        // A NAK_ERR hole filler and the FIN marker: sequence numbers
        // with nothing for the application.
        w.offer(1, Bytes::new(), false);
        w.offer(2, Bytes::from_static(b"ghij"), false);
        w.offer(3, Bytes::new(), true);
        assert!(w.stream_complete());
        let mut seen: Vec<Vec<u8>> = Vec::new();
        // `max` ends mid-segment: the rest of it is the next read's.
        assert_eq!(w.read_with(8, |c| seen.push(c.to_vec())), 8);
        assert_eq!(seen, [&b"abcdef"[..], b"gh"]);
        assert_eq!(w.readable_bytes(), 2);
        assert!(!w.fully_consumed());
        seen.clear();
        assert_eq!(w.read_with(100, |c| seen.push(c.to_vec())), 2);
        assert_eq!(seen, [b"ij"]);
        assert!(w.fully_consumed());
        assert_eq!(w.read_with(100, |_| panic!("nothing is ready")), 0);
        assert_eq!(w.buffered_bytes(), 0);
    }
}
