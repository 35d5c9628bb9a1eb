//! Rank failure: survivor topology and the liveness record.
//!
//! The paper's cluster is 16 hosts on Gigabit Ethernet running for weeks;
//! a host that locks up must not take the run with it.  Detection and
//! recovery live in [`crate::cluster::ClusterSupervisor`]; this module
//! holds the two small pieces of state it keeps per rank:
//!
//! * [`Group`] — the surviving topology: a sorted member list with
//!   rank ↔ virtual-rank translation, so the wave re-forms over any
//!   (possibly non-power-of-two) survivor set;
//! * [`RankMonitor`] — who is believed alive, and how many consecutive
//!   deadline windows each peer has been silent for.
//!
//! Neither touches particles: shrinking the group moves *work*, never
//! data, and because the block floating-point force reduction of §3.4 is
//! partition-independent the survivors' forces are bitwise identical to
//! the fault-free run's.

/// A set of live ranks: sorted members with rank ↔ virtual-rank
/// translation.  Collectives over a group address `0..len()` virtual
/// ranks and translate to real ranks at the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// A group over the given ranks (sorted, deduplicated; must be
    /// non-empty).
    pub fn new(mut members: Vec<usize>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a group needs at least one member");
        Self { members }
    }

    /// The full fabric `0..p` as a group.
    pub fn full(p: usize) -> Self {
        Self::new((0..p).collect())
    }

    /// Members in ascending rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    #[allow(clippy::len_without_is_empty)] // a group is never empty
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether `rank` is a member.
    pub fn contains(&self, rank: usize) -> bool {
        self.members.binary_search(&rank).is_ok()
    }

    /// This rank's virtual rank within the group, if a member.
    pub fn vrank(&self, rank: usize) -> Option<usize> {
        self.members.binary_search(&rank).ok()
    }

    /// The real rank at virtual rank `v`.
    pub fn rank_at(&self, v: usize) -> usize {
        self.members[v]
    }

    /// Remove a member (no-op if absent); returns whether it was present.
    pub fn remove(&mut self, rank: usize) -> bool {
        match self.members.binary_search(&rank) {
            Ok(i) => {
                self.members.remove(i);
                assert!(!self.members.is_empty(), "last group member removed");
                true
            }
            Err(_) => false,
        }
    }
}

/// Per-rank liveness record, fed by whoever reads the wire: a frame
/// from a peer is a beat, an expired deadline window is a silence, a
/// closed stream is a death.
pub struct RankMonitor {
    alive: Vec<bool>,
    /// Consecutive silent deadline windows per peer (reset by
    /// [`RankMonitor::observe_beat`]).
    misses: Vec<u32>,
    miss_budget: u32,
}

impl RankMonitor {
    /// A monitor over a `p`-rank fabric, everyone presumed alive; a peer
    /// is declared dead after `miss_budget` consecutive silences.
    pub fn new(p: usize, miss_budget: u32) -> Self {
        Self {
            alive: vec![true; p],
            misses: vec![0; p],
            miss_budget,
        }
    }

    /// Whether `rank` is currently believed alive.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive[rank]
    }

    /// Record a heartbeat (or any live traffic) seen from `rank`,
    /// clearing its silence streak.
    pub fn observe_beat(&mut self, rank: usize) {
        self.misses[rank] = 0;
    }

    /// Record one silent deadline window for `rank`.  At `miss_budget`
    /// consecutive silences the rank is declared dead and `true` is
    /// returned.  Already-dead ranks stay dead and return `true`.
    pub fn observe_silence(&mut self, rank: usize) -> bool {
        if !self.alive[rank] {
            return true;
        }
        self.misses[rank] += 1;
        if self.misses[rank] >= self.miss_budget {
            self.alive[rank] = false;
            true
        } else {
            false
        }
    }

    /// Declare `rank` dead immediately (a hangup is unambiguous — no
    /// miss budget applies).
    pub fn mark_dead(&mut self, rank: usize) {
        self.alive[rank] = false;
    }

    /// Re-admit a rank that rejoined from a checkpoint.
    pub fn revive(&mut self, rank: usize) {
        self.alive[rank] = true;
        self.misses[rank] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::run_ranks;
    use crate::link::LinkProfile;

    #[test]
    fn group_translation_and_removal() {
        let mut g = Group::new(vec![5, 0, 3, 3]);
        assert_eq!(g.members(), &[0, 3, 5]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.vrank(3), Some(1));
        assert_eq!(g.vrank(4), None);
        assert_eq!(g.rank_at(2), 5);
        assert!(g.contains(0) && !g.contains(1));
        assert!(g.remove(3));
        assert!(!g.remove(3));
        assert_eq!(g.members(), &[0, 5]);
        assert_eq!(Group::full(4).members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn observation_api_applies_the_miss_budget_and_supports_revival() {
        let mut mon = RankMonitor::new(4, 3);
        // Two silences, then a beat: the streak resets, nobody dies.
        assert!(!mon.observe_silence(2));
        assert!(!mon.observe_silence(2));
        mon.observe_beat(2);
        assert!(!mon.observe_silence(2));
        assert!(mon.is_alive(2));
        // Three consecutive silences exhaust the budget.
        assert!(!mon.observe_silence(3));
        assert!(!mon.observe_silence(3));
        assert!(mon.observe_silence(3));
        assert!(!mon.is_alive(3));
        // Dead stays dead until revived.
        assert!(mon.observe_silence(3));
        mon.revive(3);
        assert!(mon.is_alive(3));
        assert!(!mon.observe_silence(3));
        // A hangup is immediate.
        mon.mark_dead(1);
        assert!(!mon.is_alive(1) && mon.is_alive(0));
    }

    #[test]
    fn send_lossy_to_a_departed_peer_does_not_panic() {
        let flags = run_ranks::<u8, Option<bool>, _>(2, LinkProfile::ideal(), |mut ep| {
            if ep.rank() == 1 {
                return None; // endpoint dropped immediately
            }
            // The peer may or may not have exited yet; drain until the
            // channel reports it gone, then further sends must fail soft.
            while ep.recv_checked(1).is_ok() {}
            Some(ep.send_lossy(1, 7, 8))
        });
        assert_eq!(flags[0], Some(false));
    }

    #[test]
    fn endpoint_counters_roundtrip_through_checkpoint_state() {
        let states = run_ranks::<u8, bool, _>(2, LinkProfile::ideal(), |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, 1, 100);
                ep.advance(0.5);
            } else {
                ep.recv_checked(0).expect("lossless fabric");
            }
            let st = ep.checkpoint_state();
            assert_eq!(st.rank, ep.rank());
            assert_eq!(st.clock, ep.clock().to_bits());
            // A wrong-rank restore is refused…
            let mut other = st;
            other.rank += 1;
            assert!(!ep.restore_counters(&other));
            // …the matching one reproduces clock and counters exactly.
            let before = (ep.clock().to_bits(), ep.stats());
            ep.advance(1.0);
            assert!(ep.restore_counters(&st));
            (ep.clock().to_bits(), ep.stats()) == before
        });
        assert_eq!(states, vec![true, true]);
    }
}
