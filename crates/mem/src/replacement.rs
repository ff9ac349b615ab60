//! Replacement policies.
//!
//! Three policies are needed by the paper's configuration: LRU for the cache
//! banks, seeded random for the TLB, and second chance for the uTLB ("we
//! chose the second chance algorithm as the uTLB replacement policy (random
//! replacement for the TLB)", Sec. V — second chance minimizes full-entry
//! uWT→WT synchronization transfers).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// True-LRU tracker over `n` slots using recency timestamps.
///
/// # Example
///
/// ```
/// use malec_mem::replacement::Lru;
///
/// let mut lru = Lru::new(4);
/// for i in 0..4 {
///     lru.touch(i);
/// }
/// lru.touch(0);
/// assert_eq!(lru.victim(), 1); // oldest untouched slot
/// ```
#[derive(Clone, Debug)]
pub struct Lru {
    stamp: u64,
    last_use: Vec<u64>,
}

impl Lru {
    /// Creates a tracker for `n` slots, all equally old.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "LRU needs at least one slot");
        Self {
            stamp: 0,
            last_use: vec![0; n],
        }
    }

    /// Marks `slot` as most recently used.
    pub fn touch(&mut self, slot: usize) {
        self.stamp += 1;
        self.last_use[slot] = self.stamp;
    }

    /// Returns the least recently used slot (ties break toward the lowest
    /// index, so never-touched slots are preferred in order).
    pub fn victim(&self) -> usize {
        lru_victim(&self.last_use, |_| true).expect("LRU has at least one slot")
    }
}

/// The LRU victim among the slots `allowed` admits: the one with the
/// oldest recency stamp in `last_use`, ties toward the lowest index. `None`
/// if no slot is allowed. [`Lru`] and the cache banks' flat stamp arrays
/// both pick their victims here.
#[inline]
pub(crate) fn lru_victim(last_use: &[u64], allowed: impl Fn(usize) -> bool) -> Option<usize> {
    last_use
        .iter()
        .enumerate()
        .filter(|&(i, _)| allowed(i))
        .min_by_key(|&(i, &t)| (t, i))
        .map(|(i, _)| i)
}

/// Seeded uniform-random victim selection (deterministic across runs).
#[derive(Clone, Debug)]
pub struct SeededRandom {
    rng: SmallRng,
}

impl SeededRandom {
    /// Creates a policy with a fixed seed; identical seeds give identical
    /// victim sequences.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Picks a victim among `n` slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub(crate) fn victim(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick a victim among zero slots");
        self.rng.gen_range(0..n)
    }
}

/// Second-chance (clock) replacement over `n` slots.
///
/// Each use sets the slot's reference bit; the victim scan clears reference
/// bits until it finds a cleared one. Compared to random replacement this
/// keeps recently-serviced pages resident, which is exactly why the paper
/// picks it for the uTLB: fewer uWT evictions means fewer full-entry
/// uWT → WT synchronization transfers.
#[derive(Clone, Debug)]
pub struct SecondChance {
    referenced: Vec<bool>,
    hand: usize,
}

impl SecondChance {
    /// Creates a tracker for `n` slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "second chance needs at least one slot");
        Self {
            referenced: vec![false; n],
            hand: 0,
        }
    }

    /// Marks `slot` as referenced (gives it a second chance).
    #[inline]
    pub(crate) fn touch(&mut self, slot: usize) {
        self.referenced[slot] = true;
    }

    /// Selects and returns a victim, advancing the clock hand and clearing
    /// reference bits along the way.
    #[inline]
    pub(crate) fn victim(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.referenced.len();
            if self.referenced[i] {
                self.referenced[i] = false;
            } else {
                return i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_evicts_oldest() {
        let mut lru = Lru::new(3);
        lru.touch(0);
        lru.touch(1);
        lru.touch(2);
        assert_eq!(lru.victim(), 0);
        lru.touch(0);
        assert_eq!(lru.victim(), 1);
    }

    #[test]
    fn lru_prefers_untouched_slots() {
        let mut lru = Lru::new(4);
        lru.touch(0);
        assert_eq!(lru.victim(), 1);
    }

    #[test]
    fn lru_victim_skips_disallowed_slots() {
        let last_use = [4, 1, 2, 3];
        assert_eq!(lru_victim(&last_use, |_| true), Some(1));
        // Without slot 1 the oldest is slot 2.
        assert_eq!(lru_victim(&last_use, |i| i != 1), Some(2));
        // Equal stamps break toward the lowest allowed index.
        assert_eq!(lru_victim(&[0, 0, 0], |i| i > 0), Some(1));
        assert_eq!(lru_victim(&last_use, |_| false), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = SeededRandom::new(42);
        let mut b = SeededRandom::new(42);
        let seq_a: Vec<usize> = (0..32).map(|_| a.victim(64)).collect();
        let seq_b: Vec<usize> = (0..32).map(|_| b.victim(64)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().all(|&v| v < 64));
    }

    #[test]
    fn second_chance_spares_referenced() {
        let mut sc = SecondChance::new(3);
        sc.touch(0);
        // Slot 0 is referenced: hand clears it and moves on to slot 1.
        assert_eq!(sc.victim(), 1);
        // Slot 0's bit was consumed; next scan from slot 2.
        assert_eq!(sc.victim(), 2);
        assert_eq!(sc.victim(), 0);
    }

    #[test]
    fn second_chance_all_referenced_degrades_to_fifo() {
        let mut sc = SecondChance::new(4);
        for i in 0..4 {
            sc.touch(i);
        }
        assert_eq!(sc.victim(), 0);
        assert_eq!(sc.victim(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn lru_zero_slots_panics() {
        let _ = Lru::new(0);
    }

    proptest! {
        #[test]
        fn prop_lru_victim_in_range(touches in proptest::collection::vec(0usize..8, 0..64)) {
            let mut lru = Lru::new(8);
            for t in touches {
                lru.touch(t);
            }
            prop_assert!(lru.victim() < 8);
        }

        #[test]
        fn prop_second_chance_terminates(touches in proptest::collection::vec(0usize..8, 0..64)) {
            let mut sc = SecondChance::new(8);
            for t in touches {
                sc.touch(t);
            }
            // Victim always terminates and is in range even if all bits set.
            prop_assert!(sc.victim() < 8);
        }

        #[test]
        fn prop_lru_most_recent_never_victim(n in 2usize..8, seq in proptest::collection::vec(0usize..8, 1..32)) {
            let mut lru = Lru::new(n);
            let mut last = None;
            for s in seq {
                let slot = s % n;
                lru.touch(slot);
                last = Some(slot);
            }
            prop_assert_ne!(lru.victim(), last.unwrap());
        }
    }
}
