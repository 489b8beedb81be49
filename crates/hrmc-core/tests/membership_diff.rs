//! Differential property test: the ordered, position-counted
//! [`Membership`] must give bit-identical answers to the naive
//! flat-table reference, across randomized add/update/eject/probe/
//! wraparound sequences. The reference below *is* the original
//! implementation — an O(n) walk over a `HashMap` — kept here as the
//! executable spec (with the re-JOIN-clears-probe-state fix applied to
//! both sides).

// The reference keys a `HashMap`; the crate's clippy.toml bans it for the
// engines, whose iteration order must not depend on a hash seed.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use hrmc_core::membership::Membership;
use hrmc_core::PeerId;
use hrmc_wire::{seq_le, seq_lt, Seq};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct NaiveMember {
    next_expected: Seq,
    last_heard: u64,
    last_probed: Option<u64>,
    probe_failures: u32,
}

/// The pre-shard flat implementation, verbatim semantics.
#[derive(Debug, Clone, Default)]
struct NaiveMembership {
    members: HashMap<PeerId, NaiveMember>,
    total_joins: u64,
    total_leaves: u64,
    total_ejections: u64,
}

impl NaiveMembership {
    fn add(&mut self, peer: PeerId, next_expected: Seq, now: u64) {
        self.total_joins += 1;
        self.members
            .entry(peer)
            .and_modify(|m| {
                m.last_heard = now;
                m.last_probed = None;
                m.probe_failures = 0;
            })
            .or_insert(NaiveMember {
                next_expected,
                last_heard: now,
                last_probed: None,
                probe_failures: 0,
            });
    }

    fn remove(&mut self, peer: PeerId) -> bool {
        let removed = self.members.remove(&peer).is_some();
        if removed {
            self.total_leaves += 1;
        }
        removed
    }

    fn update(&mut self, peer: PeerId, next_expected: Seq, now: u64) {
        if let Some(m) = self.members.get_mut(&peer) {
            m.last_heard = now;
            if seq_lt(m.next_expected, next_expected) {
                m.next_expected = next_expected;
            }
            m.last_probed = None;
            m.probe_failures = 0;
        }
    }

    fn eject(&mut self, peer: PeerId) -> bool {
        let removed = self.members.remove(&peer).is_some();
        if removed {
            self.total_ejections += 1;
        }
        removed
    }

    fn stale(&self, now: u64, deadline: u64) -> Vec<PeerId> {
        if deadline == 0 {
            return Vec::new();
        }
        let mut v: Vec<PeerId> = self
            .members
            .iter()
            .filter(|(_, m)| now.saturating_sub(m.last_heard) >= deadline)
            .map(|(p, _)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    fn probe_failed(&self, limit: u32) -> Vec<PeerId> {
        if limit == 0 {
            return Vec::new();
        }
        let mut v: Vec<PeerId> = self
            .members
            .iter()
            .filter(|(_, m)| m.probe_failures >= limit)
            .map(|(p, _)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    fn all_have(&self, seq: Seq) -> bool {
        self.members
            .values()
            .all(|m| seq_le(seq.wrapping_add(1), m.next_expected))
    }

    fn lacking(&self, seq: Seq) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = self
            .members
            .iter()
            .filter(|(_, m)| !seq_le(seq.wrapping_add(1), m.next_expected))
            .map(|(p, _)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    fn min_next_expected(&self) -> Option<Seq> {
        self.members
            .values()
            .map(|m| m.next_expected)
            .fold(None, |acc, s| match acc {
                None => Some(s),
                Some(cur) if seq_lt(s, cur) => Some(s),
                Some(cur) => Some(cur),
            })
    }

    fn mark_probed(&mut self, peer: PeerId, now: u64) {
        if let Some(m) = self.members.get_mut(&peer) {
            if m.last_probed.is_some() {
                m.probe_failures += 1;
            }
            m.last_probed = Some(now);
        }
    }
}

/// Every observable query, compared bit-for-bit.
fn assert_equivalent(
    sharded: &mut Membership,
    naive: &NaiveMembership,
    base: Seq,
    probe_off: u32,
    now: u64,
) {
    let probe = base.wrapping_add(probe_off);
    assert_eq!(sharded.len(), naive.members.len());
    assert_eq!(sharded.is_empty(), naive.members.is_empty());
    assert_eq!(sharded.all_have(probe), naive.all_have(probe));
    assert_eq!(sharded.lacking(probe), naive.lacking(probe));
    assert_eq!(sharded.min_next_expected(), naive.min_next_expected());
    for deadline in [0u64, 1, 1_000, 100_000] {
        assert_eq!(sharded.stale(now, deadline), naive.stale(now, deadline));
    }
    for limit in [0u32, 1, 2, 5] {
        assert_eq!(sharded.probe_failed(limit), naive.probe_failed(limit));
    }
    assert_eq!(sharded.total_joins, naive.total_joins);
    assert_eq!(sharded.total_leaves, naive.total_leaves);
    assert_eq!(sharded.total_ejections, naive.total_ejections);
    for (peer, nm) in naive.members.iter() {
        let sm = sharded.get(*peer).expect("member present in both");
        assert_eq!(sm.next_expected, nm.next_expected);
        assert_eq!(sm.last_heard, nm.last_heard);
        assert_eq!(sm.last_probed, nm.last_probed);
        assert_eq!(sm.probe_failures, nm.probe_failures);
    }
}

/// Bases exercising the easy region, a mid-range region, and the
/// u32::MAX wraparound region (members straddling the wrap).
fn pick_base(sel: u32) -> Seq {
    match sel % 4 {
        0 => 0,
        1 => 1_000_000,
        2 => u32::MAX - 100_000,
        _ => u32::MAX - 1,
    }
}

/// The protocol-shaped release-gate march at population `n`: the group
/// advances 64 sequences per round (crossing the u32 wrap mid-march)
/// while one laggard trails — the MINBUF regime, where the gate fails on
/// the laggard alone, `lacking` names it, it catches up, and the gate
/// passes. The gate reads the group minimum and touches no member; each
/// `lacking` walks the table once.
fn laggard_march(n: usize) {
    const ROUNDS: u32 = 64;
    const STRIDE: u32 = 64;
    let base: u32 = u32::MAX - ROUNDS * STRIDE / 2;
    let mut m = Membership::new();
    for p in 0..n {
        m.add(PeerId(p as u32), base, p as u64);
    }
    let mut now = n as u64;
    let mut lackings = 0u64;
    let mut scratch: Vec<PeerId> = Vec::new();
    for r in 1..=ROUNDS {
        let front = base.wrapping_add(r * STRIDE);
        for p in 1..n {
            now += 1;
            m.update(PeerId(p as u32), front.wrapping_add(1), now);
        }
        let scanned = m.costs().members_scanned;
        assert!(!m.all_have(front), "laggard must hold the gate");
        assert_eq!(m.costs().members_scanned, scanned, "the gate walks no one");
        m.lacking_into(front, &mut scratch);
        lackings += 1;
        assert_eq!(scratch, vec![PeerId(0)], "exactly the laggard lacks");
        now += 1;
        m.update(PeerId(0), front.wrapping_add(1), now);
        assert!(m.all_have(front), "caught-up group must release");
    }
    let costs = m.costs();
    assert_eq!(costs.gate_checks, 2 * lackings, "n={n}");
    assert_eq!(costs.members_scanned, n as u64 * lackings, "n={n}");
}

/// Two populations, each marching across the u32 wrap.
#[test]
fn release_gate_march_is_exact_across_the_wrap() {
    for n in [1_000, 10_000] {
        laggard_march(n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_membership_matches_naive_reference(
        base_sel in 0u32..4,
        // (op selector, peer, sequence offset); offsets stay well inside
        // a serial half-space of the base, as live members do in the
        // protocol (all within the active window).
        ops in proptest::collection::vec((0u32..17, any::<u8>(), 0u32..200_000), 1..120),
        probe_off in 0u32..200_000,
    ) {
        let base = pick_base(base_sel);
        let mut sharded = Membership::new();
        let mut naive = NaiveMembership::default();
        let mut now = 0u64;
        for (op, peer, off) in ops {
            now += 137; // arbitrary monotone clock
            let p = PeerId(peer as u32);
            let seq = base.wrapping_add(off);
            match op {
                0..=3 => {
                    sharded.add(p, seq, now);
                    naive.add(p, seq, now);
                }
                4..=11 => {
                    sharded.update(p, seq, now);
                    naive.update(p, seq, now);
                }
                12 => prop_assert_eq!(sharded.remove(p), naive.remove(p)),
                13 => prop_assert_eq!(sharded.eject(p), naive.eject(p)),
                _ => {
                    sharded.mark_probed(p, now);
                    naive.mark_probed(p, now);
                }
            }
            assert_equivalent(&mut sharded, &naive, base, probe_off, now);
        }
    }

    #[test]
    fn sharded_membership_matches_under_monotone_advance(
        // The protocol-shaped workload: every member's next_expected only
        // advances, marching the whole group across the u32 wrap.
        start_off in 0u32..1000,
        steps in proptest::collection::vec((any::<u8>(), 1u32..5_000), 1..150),
        probe_off in 0u32..400_000,
    ) {
        let base = u32::MAX - 200_000 + start_off;
        let mut sharded = Membership::new();
        let mut naive = NaiveMembership::default();
        let mut now = 0u64;
        for p in 0..8u32 {
            now += 11;
            sharded.add(PeerId(p), base, now);
            naive.add(PeerId(p), base, now);
        }
        let mut fronts = [base; 8];
        for (peer, adv) in steps {
            now += 211;
            let p = (peer % 8) as usize;
            fronts[p] = fronts[p].wrapping_add(adv);
            sharded.update(PeerId(p as u32), fronts[p], now);
            naive.update(PeerId(p as u32), fronts[p], now);
            assert_equivalent(&mut sharded, &naive, base, probe_off, now);
        }
    }
}
