//! Group membership state at the sender (paper §3, Membership
//! Maintenance).
//!
//! "In H-RMC, group membership is maintained in the form of a doubly
//! linked list as well as a hashed list of all the receivers. The space
//! required is minimal: for each receiver, the sender keeps its (unicast)
//! IP address and the sequence number that the receiver is expecting
//! next."
//!
//! Two ordered maps stand in for the kernel's list-plus-hash:
//!
//! * **The member table**, keyed by peer. `lacking`, `stale` and
//!   `probe_failed` walk it in peer order, so answers come out sorted.
//! * **A position count**: how many members sit at each `next_expected`.
//!   Its first key is the group minimum, so the release gate touches no
//!   member, and `update` is one lookup plus two count edits.
//!
//! Count keys are *virtual sequences*, because serial order is not a
//! total order over `u32`: `vseq(s) = vbase + serial_distance(vbase_seq,
//! s)`, re-anchored at the group minimum on every read of it. That is
//! sound while every member is within a serial half-space of the
//! minimum, which holds because the sender refuses feedback claiming a
//! sequence it has not assigned. Two table-wide bounds (oldest
//! `last_heard`, largest `probe_failures`) let `stale` and
//! `probe_failed` skip the walk when no member can match.
//!
//! In the original RMC protocol membership is anonymous — the sender
//! keeps only a count — but the Figure 3(a) experiment instruments RMC
//! with the same table *without letting it gate buffer release*, so the
//! table is maintained in both modes and the
//! [`ReliabilityMode`](crate::config::ReliabilityMode) decides whether the
//! sender consults it.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use hrmc_wire::{seq_le, seq_lt, Seq};

use crate::time::Micros;
use crate::PeerId;

/// Virtual-sequence origin: far from zero so transient undershoot (a
/// member joining slightly behind the anchor) stays positive.
const VBASE_ORIGIN: u64 = 1 << 34;

/// Per-receiver state kept by the sender — deliberately minimal, matching
/// the paper's two fields plus bookkeeping for probes.
#[derive(Debug, Clone)]
pub struct Member {
    /// The sequence number this receiver expects next (one past the
    /// highest in-order packet it has confirmed). Updated from every NAK,
    /// CONTROL, and UPDATE.
    pub next_expected: Seq,
    /// When we last heard any feedback from this receiver.
    pub last_heard: Micros,
    /// When we last probed this receiver (rate-limits re-probes).
    pub last_probed: Option<Micros>,
    /// Consecutive probes that went unanswered: re-probing a receiver
    /// whose previous probe is still outstanding counts one failure; any
    /// feedback resets the count. Drives stall ejection.
    pub probe_failures: u32,
}

/// Running cost counters: how much work the release gate and the
/// PROBE/staleness walks actually did. Exposed so telemetry can show
/// membership pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipCosts {
    /// Release-gate (`all_have`) evaluations.
    pub gate_checks: u64,
    /// Members touched by `lacking`/`stale`/`probe_failed` walks (a call
    /// answered without a walk adds nothing).
    pub members_scanned: u64,
}

/// The sender's membership table.
#[derive(Debug, Clone)]
pub struct Membership {
    members: BTreeMap<PeerId, Member>,
    /// `vseq(next_expected)` → number of members there. Exact; its first
    /// key is the group minimum.
    by_seq: BTreeMap<u64, u32>,
    /// Virtual-sequence anchor: `vseq(vbase_seq) == vbase`.
    vbase: u64,
    vbase_seq: Seq,
    /// Lower bound on every member's `last_heard` (feedback only moves
    /// `last_heard` forward, so the bound stays valid until a walk
    /// re-tightens it).
    oldest_last_heard: Micros,
    /// Upper bound on every member's `probe_failures` (feedback resets a
    /// member's count, leaving the bound stale-high until a walk
    /// re-tightens it).
    max_probe_failures: u32,
    costs: MembershipCosts,
    /// Total JOINs processed (paper: RMC "approximates the number of
    /// receivers" from joins; kept as a stat in both modes).
    pub total_joins: u64,
    /// Total LEAVEs processed.
    pub total_leaves: u64,
    /// Members forcibly ejected (stall / silence), as opposed to LEAVEs.
    pub total_ejections: u64,
}

impl Default for Membership {
    fn default() -> Self {
        Membership::new()
    }
}

impl Membership {
    /// Empty table.
    pub fn new() -> Membership {
        Membership {
            members: BTreeMap::new(),
            by_seq: BTreeMap::new(),
            vbase: VBASE_ORIGIN,
            vbase_seq: 0,
            oldest_last_heard: Micros::MAX,
            max_probe_failures: 0,
            costs: MembershipCosts::default(),
            total_joins: 0,
            total_leaves: 0,
            total_ejections: 0,
        }
    }

    /// Number of current members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no receivers are known.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The running scan-cost counters.
    pub fn costs(&self) -> MembershipCosts {
        self.costs
    }

    /// Map a sequence onto the virtual (non-wrapping) line. Sound while
    /// `seq` is within a serial half-space of the anchor, which holds for
    /// every live member because the anchor tracks the group minimum.
    #[inline]
    fn vseq(&self, seq: Seq) -> u64 {
        let delta = seq.wrapping_sub(self.vbase_seq) as i32 as i64;
        (self.vbase as i64 + delta) as u64
    }

    /// Count one member at `seq`.
    fn count(&mut self, seq: Seq) {
        let key = self.vseq(seq);
        *self.by_seq.entry(key).or_insert(0) += 1;
    }

    /// Uncount one member at `seq`.
    fn uncount(&mut self, seq: Seq) {
        let key = self.vseq(seq);
        if let Entry::Occupied(mut e) = self.by_seq.entry(key) {
            *e.get_mut() -= 1;
            if *e.get() == 0 {
                e.remove();
            }
        }
    }

    /// The exact group minimum, read off the first count key; the
    /// virtual line is re-anchored there.
    fn refresh_min(&mut self) -> Option<Seq> {
        let (&key, _) = self.by_seq.first_key_value()?;
        self.vbase_seq = self
            .vbase_seq
            .wrapping_add(key.wrapping_sub(self.vbase) as Seq);
        self.vbase = key;
        Some(self.vbase_seq)
    }

    /// Add a member (the sender's `add_member` routine). `next_expected`
    /// is seeded with the sequence number echoed in the JOIN — the first
    /// data packet the receiver saw. Re-joining refreshes `last_heard`
    /// without regressing `next_expected`; a re-JOIN is feedback, so it
    /// also answers any outstanding probe (clearing `last_probed` and the
    /// consecutive-failure count) — otherwise a rejoining member could
    /// still be counted toward probe-failure ejection by state from
    /// before its retry.
    pub fn add(&mut self, peer: PeerId, next_expected: Seq, now: Micros) {
        self.total_joins += 1;
        if let Some(m) = self.members.get_mut(&peer) {
            m.last_heard = now;
            m.last_probed = None;
            m.probe_failures = 0;
            return;
        }
        if self.members.is_empty() {
            // First member: anchor the virtual line at its sequence.
            self.vbase = VBASE_ORIGIN;
            self.vbase_seq = next_expected;
        }
        self.members.insert(
            peer,
            Member {
                next_expected,
                last_heard: now,
                last_probed: None,
                probe_failures: 0,
            },
        );
        self.count(next_expected);
        self.oldest_last_heard = self.oldest_last_heard.min(now);
    }

    /// Remove a member (the sender's `rm_member` routine). Returns `true`
    /// if the peer was present.
    pub fn remove(&mut self, peer: PeerId) -> bool {
        let Some(m) = self.members.remove(&peer) else {
            return false;
        };
        self.uncount(m.next_expected);
        self.total_leaves += 1;
        true
    }

    /// Update a member's next-expected sequence number from feedback (the
    /// sender's `update_mem` routine). Sequence state never regresses:
    /// reordered feedback cannot pull a receiver's confirmed prefix back.
    /// Unknown peers are ignored (feedback can race a LEAVE).
    pub fn update(&mut self, peer: PeerId, next_expected: Seq, now: Micros) {
        let Some(m) = self.members.get_mut(&peer) else {
            return;
        };
        m.last_heard = now;
        m.last_probed = None; // any feedback satisfies a pending probe
        m.probe_failures = 0;
        let old = m.next_expected;
        if !seq_lt(old, next_expected) {
            return;
        }
        m.next_expected = next_expected;
        self.uncount(old);
        self.count(next_expected);
    }

    /// Forcibly remove a member (stall ejection) — the failure-domain
    /// counterpart of [`remove`](Membership::remove); counted separately
    /// from voluntary LEAVEs. Returns `true` if the peer was present.
    /// Ejected members vanish from the table, so `all_have`, `lacking`
    /// and `min_next_expected` stop consulting them immediately and the
    /// release gate unblocks.
    pub fn eject(&mut self, peer: PeerId) -> bool {
        let Some(m) = self.members.remove(&peer) else {
            return false;
        };
        self.uncount(m.next_expected);
        self.total_ejections += 1;
        true
    }

    /// Members from whom nothing has been heard for at least `deadline`
    /// microseconds, in peer order. `deadline` of zero matches no one
    /// (staleness pruning disabled). When the oldest-feedback bound
    /// proves every member recent, no member is touched.
    pub fn stale(&mut self, now: Micros, deadline: Micros) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = Vec::new();
        if deadline == 0 || now.saturating_sub(self.oldest_last_heard) < deadline {
            return v;
        }
        self.costs.members_scanned += self.members.len() as u64;
        let mut oldest = Micros::MAX;
        for (&p, m) in &self.members {
            if now.saturating_sub(m.last_heard) >= deadline {
                v.push(p);
            }
            oldest = oldest.min(m.last_heard);
        }
        self.oldest_last_heard = oldest;
        v
    }

    /// Members whose consecutive unanswered-probe count has reached
    /// `limit`, in peer order. `limit` of zero matches no one
    /// (probe-failure ejection disabled). When the failure-count bound
    /// sits below `limit`, no member is touched.
    pub fn probe_failed(&mut self, limit: u32) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = Vec::new();
        if limit == 0 || self.max_probe_failures < limit {
            return v;
        }
        self.costs.members_scanned += self.members.len() as u64;
        let mut max_pf = 0;
        for (&p, m) in &self.members {
            if m.probe_failures >= limit {
                v.push(p);
            }
            max_pf = max_pf.max(m.probe_failures);
        }
        self.max_probe_failures = max_pf;
        v
    }

    /// Look up one member.
    pub fn get(&self, peer: PeerId) -> Option<&Member> {
        self.members.get(&peer)
    }

    /// `true` when the sender has information that **all** receivers have
    /// received every packet up to and including `seq` — the release-gate
    /// predicate of paper §3 (Probe Messages): "before releasing buffer
    /// space, the sender checks the state of all the receivers with
    /// respect to the sequence number past which it intends to advance
    /// the window." A read of the group minimum, not a table walk.
    ///
    /// With no members the release is trivially safe (there is no one to
    /// owe the data to; matches IP-multicast anonymous semantics before
    /// any JOIN arrives).
    pub fn all_have(&mut self, seq: Seq) -> bool {
        self.costs.gate_checks += 1;
        match self.refresh_min() {
            None => true,
            Some(min) => seq_le(seq.wrapping_add(1), min),
        }
    }

    /// The receivers lacking confirmation of `seq`, i.e. the PROBE
    /// targets. See [`lacking_into`](Membership::lacking_into).
    pub fn lacking(&mut self, seq: Seq) -> Vec<PeerId> {
        let mut v = Vec::new();
        self.lacking_into(seq, &mut v);
        v
    }

    /// Collect the receivers lacking confirmation of `seq` into `out`
    /// (cleared first), in peer order. The allocation-free variant: when
    /// the group minimum passes the gate no member is touched; otherwise
    /// the whole table is walked.
    pub fn lacking_into(&mut self, seq: Seq, out: &mut Vec<PeerId>) {
        self.lacking_where(seq, out, |_| true);
    }

    /// `lacking_into`, keeping only members that pass `keep`.
    pub(crate) fn lacking_where(
        &mut self,
        seq: Seq,
        out: &mut Vec<PeerId>,
        keep: impl Fn(&Member) -> bool,
    ) {
        out.clear();
        let gate = seq.wrapping_add(1);
        match self.refresh_min() {
            None => return,
            Some(min) if seq_le(gate, min) => return, // everyone has it
            Some(_) => {}
        }
        self.costs.members_scanned += self.members.len() as u64;
        for (&p, m) in &self.members {
            if !seq_le(gate, m.next_expected) && keep(m) {
                out.push(p);
            }
        }
    }

    /// The group-wide minimum next-expected sequence number, or `None`
    /// with no members. Everything before this is confirmed everywhere.
    pub fn min_next_expected(&mut self) -> Option<Seq> {
        self.refresh_min()
    }

    /// Record that `peer` was probed at `now`. Probing a peer whose
    /// previous probe is still unanswered counts one probe failure.
    pub fn mark_probed(&mut self, peer: PeerId, now: Micros) {
        let Some(m) = self.members.get_mut(&peer) else {
            return;
        };
        if m.last_probed.is_some() {
            m.probe_failures += 1;
            self.max_probe_failures = self.max_probe_failures.max(m.probe_failures);
        }
        m.last_probed = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: PeerId = PeerId(1);
    const P2: PeerId = PeerId(2);
    const P3: PeerId = PeerId(3);

    #[test]
    fn add_update_remove() {
        let mut m = Membership::new();
        assert!(m.is_empty());
        m.add(P1, 0, 100);
        m.add(P2, 0, 100);
        assert_eq!(m.len(), 2);
        m.update(P1, 7, 200);
        assert_eq!(m.get(P1).unwrap().next_expected, 7);
        assert!(m.remove(P2));
        assert!(!m.remove(P2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.total_joins, 2);
        assert_eq!(m.total_leaves, 1);
    }

    #[test]
    fn rejoin_does_not_regress_state() {
        let mut m = Membership::new();
        m.add(P1, 0, 0);
        m.update(P1, 50, 10);
        m.add(P1, 0, 20); // duplicate JOIN (retry)
        assert_eq!(m.get(P1).unwrap().next_expected, 50);
        assert_eq!(m.get(P1).unwrap().last_heard, 20);
    }

    #[test]
    fn rejoin_clears_outstanding_probe_state() {
        let mut m = Membership::new();
        m.add(P1, 0, 0);
        m.mark_probed(P1, 5);
        m.mark_probed(P1, 10);
        m.mark_probed(P1, 15);
        assert_eq!(m.get(P1).unwrap().probe_failures, 2);
        // A duplicate JOIN is feedback: the receiver is alive, so the
        // outstanding probe is answered and the failure streak resets —
        // a re-JOINing member must not inherit a pre-retry ejection
        // countdown.
        m.add(P1, 0, 20);
        assert_eq!(m.get(P1).unwrap().last_probed, None);
        assert_eq!(m.get(P1).unwrap().probe_failures, 0);
        assert_eq!(m.probe_failed(2), Vec::<PeerId>::new());
    }

    #[test]
    fn feedback_never_regresses_next_expected() {
        let mut m = Membership::new();
        m.add(P1, 0, 0);
        m.update(P1, 100, 1);
        m.update(P1, 40, 2); // stale, reordered feedback
        assert_eq!(m.get(P1).unwrap().next_expected, 100);
        assert_eq!(m.get(P1).unwrap().last_heard, 2);
    }

    #[test]
    fn update_for_unknown_peer_is_ignored() {
        let mut m = Membership::new();
        m.update(P1, 10, 0);
        assert!(m.is_empty());
    }

    #[test]
    fn all_have_and_lacking() {
        let mut m = Membership::new();
        assert!(m.all_have(1000)); // vacuous with no members
        m.add(P1, 0, 0);
        m.add(P2, 0, 0);
        m.add(P3, 0, 0);
        m.update(P1, 11, 1); // has 0..=10
        m.update(P2, 10, 1); // has 0..=9
        m.update(P3, 11, 1);
        assert!(m.all_have(9));
        assert!(!m.all_have(10));
        assert_eq!(m.lacking(10), vec![P2]);
        assert_eq!(m.lacking(9), Vec::<PeerId>::new());
        m.update(P2, 11, 2);
        assert!(m.all_have(10));
    }

    #[test]
    fn lacking_is_sorted_and_complete() {
        let mut m = Membership::new();
        for i in (0..10).rev() {
            m.add(PeerId(i), 0, 0);
        }
        let lacking = m.lacking(5);
        assert_eq!(lacking.len(), 10);
        assert!(lacking.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn probe_bookkeeping_cleared_by_feedback() {
        let mut m = Membership::new();
        m.add(P1, 0, 0);
        m.mark_probed(P1, 5);
        assert_eq!(m.get(P1).unwrap().last_probed, Some(5));
        m.update(P1, 3, 6);
        assert_eq!(m.get(P1).unwrap().last_probed, None);
    }

    #[test]
    fn min_next_expected_uses_serial_order() {
        let mut m = Membership::new();
        assert_eq!(m.min_next_expected(), None);
        let base = u32::MAX - 5;
        m.add(P1, base, 0);
        m.add(P2, base, 0);
        m.update(P1, base.wrapping_add(10), 1); // wrapped past 0
        m.update(P2, base.wrapping_add(2), 1);
        assert_eq!(m.min_next_expected(), Some(base.wrapping_add(2)));
    }

    #[test]
    fn reprobe_counts_failures_and_feedback_resets_them() {
        let mut m = Membership::new();
        m.add(P1, 0, 0);
        m.mark_probed(P1, 5); // first probe: no failure yet
        assert_eq!(m.get(P1).unwrap().probe_failures, 0);
        m.mark_probed(P1, 10); // re-probe of an unanswered probe
        m.mark_probed(P1, 15);
        assert_eq!(m.get(P1).unwrap().probe_failures, 2);
        assert_eq!(m.probe_failed(2), vec![P1]);
        assert_eq!(m.probe_failed(3), Vec::<PeerId>::new());
        assert_eq!(m.probe_failed(0), Vec::<PeerId>::new()); // disabled
        m.update(P1, 1, 20); // any feedback answers the probe
        assert_eq!(m.get(P1).unwrap().probe_failures, 0);
        assert_eq!(m.get(P1).unwrap().last_probed, None);
    }

    #[test]
    fn stale_finds_silent_members_sorted() {
        let mut m = Membership::new();
        m.add(P2, 0, 0);
        m.add(P1, 0, 0);
        m.add(P3, 0, 0);
        m.update(P3, 1, 900);
        assert_eq!(m.stale(1000, 500), vec![P1, P2]);
        assert_eq!(m.stale(1000, 1001), Vec::<PeerId>::new());
        assert_eq!(m.stale(1000, 0), Vec::<PeerId>::new()); // disabled
    }

    #[test]
    fn ejection_removes_member_from_release_gate() {
        let mut m = Membership::new();
        m.add(P1, 0, 0);
        m.add(P2, 0, 0);
        m.update(P1, 11, 1); // P1 confirmed 0..=10; P2 silent
        assert!(!m.all_have(10));
        assert_eq!(m.lacking(10), vec![P2]);
        assert_eq!(m.min_next_expected(), Some(0));
        assert!(m.eject(P2));
        assert!(!m.eject(P2));
        assert!(m.all_have(10));
        assert_eq!(m.lacking(10), Vec::<PeerId>::new());
        assert_eq!(m.min_next_expected(), Some(11));
        assert_eq!(m.total_ejections, 1);
        assert_eq!(m.total_leaves, 0); // ejection is not a LEAVE
                                       // A re-JOIN after ejection starts a fresh record.
        m.add(P2, 5, 100);
        assert_eq!(m.get(P2).unwrap().next_expected, 5);
        assert_eq!(m.get(P2).unwrap().probe_failures, 0);
    }

    #[test]
    fn all_have_handles_wraparound() {
        let mut m = Membership::new();
        let base = u32::MAX - 1;
        m.add(P1, base, 0);
        m.update(P1, base.wrapping_add(3), 1); // confirmed through wrap
        assert!(m.all_have(base.wrapping_add(2)));
        assert!(!m.all_have(base.wrapping_add(3)));
    }

    #[test]
    fn gate_is_exact_across_spread_positions() {
        // Members spread over hundreds of sequences: the gate and the
        // PROBE target set must stay member-exact.
        let mut m = Membership::new();
        for i in 0..10u32 {
            m.add(PeerId(i), 0, 0);
            m.update(PeerId(i), i * 50, 1);
        }
        assert_eq!(m.min_next_expected(), Some(0));
        assert!(!m.all_have(0));
        // Everyone with next_expected <= 200 lacks seq 200: peers 0..=4.
        assert_eq!(m.lacking(200), (0..5).map(PeerId).collect::<Vec<_>>());
        m.update(PeerId(0), 451, 2);
        assert_eq!(m.min_next_expected(), Some(50));
        assert!(m.all_have(49));
        assert!(!m.all_have(50));
    }

    #[test]
    fn wraparound_group_min_advances_through_zero() {
        // March a small group's minimum across the u32 wrap; the count's
        // virtual keys must keep the gate exact the whole way.
        let mut m = Membership::new();
        let start = u32::MAX - 300;
        for i in 0..4u32 {
            m.add(PeerId(i), start, 0);
        }
        let mut now = 1;
        for step in 1..=40u32 {
            for i in 0..4u32 {
                let ne = start.wrapping_add(step * 20 + i);
                m.update(PeerId(i), ne, now);
                now += 1;
            }
            let min = start.wrapping_add(step * 20);
            assert_eq!(m.min_next_expected(), Some(min), "step {step}");
            assert!(m.all_have(min.wrapping_sub(1)));
            assert!(!m.all_have(min));
        }
        assert!(m.costs().gate_checks > 0);
    }

    #[test]
    fn scan_costs_skip_the_walk_when_no_member_can_match() {
        let mut m = Membership::new();
        for i in 0..100u32 {
            m.add(PeerId(i), 0, 0);
            m.update(PeerId(i), 1000, 5);
        }
        let before = m.costs();
        // Nobody is stale and neither bound can match: no walk.
        assert_eq!(m.stale(10, 100), Vec::<PeerId>::new());
        assert_eq!(m.probe_failed(1), Vec::<PeerId>::new());
        let after = m.costs();
        assert_eq!(after.members_scanned, before.members_scanned);
        // Everyone already has seq 500: the gate answers from the group
        // minimum, touching no member.
        assert!(m.all_have(500));
        assert_eq!(m.lacking(500), Vec::<PeerId>::new());
        assert_eq!(m.costs().members_scanned, before.members_scanned);
        // One re-probe raises the failure bound: the next pass walks once,
        // then the answer re-tightens the bound and the walk stops again.
        m.mark_probed(PeerId(7), 20);
        m.mark_probed(PeerId(7), 30);
        assert_eq!(m.probe_failed(1), vec![PeerId(7)]);
        assert_eq!(m.costs().members_scanned, before.members_scanned + 100);
        m.update(PeerId(7), 1001, 40);
        assert_eq!(m.probe_failed(1), Vec::<PeerId>::new());
        assert_eq!(m.probe_failed(1), Vec::<PeerId>::new());
        assert_eq!(m.costs().members_scanned, before.members_scanned + 200);
    }
}
