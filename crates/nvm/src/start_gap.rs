//! Start-Gap wear leveling (Qureshi et al., MICRO'09 — the paper's
//! reference [28] for "enhancing lifetime ... of PCM-based main
//! memory").
//!
//! Lelantus improves lifetime by writing *less*; wear leveling
//! improves it by spreading the writes that remain. Start-Gap is the
//! classic algebraic scheme: for `n` logical regions the device
//! provisions `n + 1` physical slots; a *gap* slot rotates through the
//! array, moving one region every ψ writes. The mapping needs only two
//! registers (`start`, `gap`) — no table — and is applied *below* the
//! encryption layer, so ciphertext stays bound to logical addresses
//! and moves are plain byte copies.
//!
//! The leveler is granularity-agnostic ("blocks"); [`crate::NvmDevice`]
//! instantiates it per 64-byte line as in the original design, so a gap
//! move copies a single line — <1 % overhead at ψ = 100.

/// Start-Gap configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartGapConfig {
    /// Block writes between gap movements (ψ). Qureshi et al. use
    /// 100: <1 % write overhead for near-uniform wear.
    pub gap_write_interval: u64,
}

impl Default for StartGapConfig {
    fn default() -> Self {
        Self { gap_write_interval: 100 }
    }
}

/// The Start-Gap address rotator over `n` logical regions.
///
/// # Examples
///
/// ```
/// use lelantus_nvm::start_gap::{StartGap, StartGapConfig};
///
/// let mut sg = StartGap::new(8, StartGapConfig::default());
/// let before = sg.logical_to_physical(3);
/// for _ in 0..800 {
///     sg.record_write(); // eventually triggers gap moves
/// }
/// while sg.pending_move().is_some() {
///     sg.complete_move();
/// }
/// // After enough rotation the region lives somewhere else.
/// let after = sg.logical_to_physical(3);
/// assert!(before < 9 && after < 9);
/// ```
#[derive(Debug, Clone)]
pub struct StartGap {
    /// Number of logical regions.
    n: u64,
    /// Register: rotation offset (increments when the gap wraps).
    start: u64,
    /// Register: current gap slot, in 0..=n.
    gap: u64,
    /// Writes since the last gap move.
    writes_since_move: u64,
    config: StartGapConfig,
    /// A move is due: (from_physical_slot, to_physical_slot).
    pending: Option<(u64, u64)>,
    /// Total gap movements performed.
    moves: u64,
}

impl StartGap {
    /// Creates a leveler over `n` logical blocks (n + 1 physical
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or ψ is zero.
    pub fn new(n: u64, config: StartGapConfig) -> Self {
        assert!(n > 0, "need at least one block");
        assert!(config.gap_write_interval > 0, "ψ must be positive");
        Self { n, start: 0, gap: n, writes_since_move: 0, config, pending: None, moves: 0 }
    }

    /// Number of logical blocks covered.
    pub fn blocks(&self) -> u64 {
        self.n
    }

    /// Total gap movements so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Maps a logical block index to its physical slot (0..=n).
    ///
    /// # Panics
    ///
    /// Panics if `logical >= n`.
    pub fn logical_to_physical(&self, logical: u64) -> u64 {
        assert!(logical < self.n, "logical block out of range");
        // Qureshi et al.'s algebraic mapping: rotate modulo N, then
        // skip past the gap slot.
        let rotated = (logical + self.start) % self.n;
        if rotated >= self.gap {
            rotated + 1
        } else {
            rotated
        }
    }

    /// Records one block write; after ψ writes a gap move becomes
    /// pending (the caller performs the copy, then calls
    /// [`StartGap::complete_move`]).
    pub fn record_write(&mut self) {
        if self.pending.is_some() {
            return; // move already due; registers frozen until done
        }
        self.writes_since_move += 1;
        if self.writes_since_move >= self.config.gap_write_interval {
            // The gap moves one slot "up": the region currently living
            // just below the gap slides into the gap.
            let from = if self.gap == 0 { self.n } else { self.gap - 1 };
            self.pending = Some((from, self.gap));
        }
    }

    /// The data move (physical `from` → physical `to`) the caller must
    /// perform before the next remap, if any.
    pub fn pending_move(&self) -> Option<(u64, u64)> {
        self.pending
    }

    /// Commits a completed gap move: the gap advances; when it wraps
    /// past slot 0 the rotation offset increments.
    ///
    /// # Panics
    ///
    /// Panics if no move is pending.
    pub fn complete_move(&mut self) {
        let (_from, _to) = self.pending.take().expect("no pending move");
        self.gap = if self.gap == 0 { self.n } else { self.gap - 1 };
        if self.gap == self.n {
            // Wrapped a full revolution: rotation advances by one.
            self.start = (self.start + 1) % self.n;
        }
        self.writes_since_move = 0;
        self.moves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn initial_mapping_is_identity() {
        let sg = StartGap::new(16, StartGapConfig::default());
        for l in 0..16 {
            assert_eq!(sg.logical_to_physical(l), l, "gap starts at slot n");
        }
    }

    #[test]
    fn mapping_is_always_injective_and_avoids_gap() {
        let mut sg = StartGap::new(8, StartGapConfig { gap_write_interval: 1 });
        for step in 0..100 {
            let mut seen = HashSet::new();
            for l in 0..8 {
                let p = sg.logical_to_physical(l);
                assert!(p <= 8);
                assert_ne!(p, sg.gap, "step {step}: mapped into the gap");
                assert!(seen.insert(p), "step {step}: collision at {p}");
            }
            sg.record_write();
            if sg.pending_move().is_some() {
                sg.complete_move();
            }
        }
    }

    #[test]
    fn full_revolution_rotates_start() {
        let mut sg = StartGap::new(4, StartGapConfig { gap_write_interval: 1 });
        let before: Vec<u64> = (0..4).map(|l| sg.logical_to_physical(l)).collect();
        // n + 1 moves = one full revolution.
        for _ in 0..5 {
            sg.record_write();
            sg.complete_move();
        }
        let after: Vec<u64> = (0..4).map(|l| sg.logical_to_physical(l)).collect();
        assert_ne!(before, after, "a revolution must shift every region");
        assert_eq!(sg.moves(), 5);
    }

    #[test]
    fn moves_only_after_psi_writes() {
        let mut sg = StartGap::new(4, StartGapConfig { gap_write_interval: 10 });
        for _ in 0..9 {
            sg.record_write();
            assert!(sg.pending_move().is_none());
        }
        sg.record_write();
        let (from, to) = sg.pending_move().expect("move due");
        assert_eq!(to, 4, "gap starts at slot n");
        assert_eq!(from, 3, "block below the gap moves up");
    }

    #[test]
    fn writes_while_move_pending_do_not_stack() {
        let mut sg = StartGap::new(4, StartGapConfig { gap_write_interval: 1 });
        sg.record_write();
        let first = sg.pending_move();
        sg.record_write();
        sg.record_write();
        assert_eq!(sg.pending_move(), first, "registers freeze until the copy is done");
    }

    #[test]
    #[should_panic(expected = "no pending move")]
    fn complete_without_pending_panics() {
        StartGap::new(4, StartGapConfig::default()).complete_move();
    }

    proptest! {
        #[test]
        fn prop_every_region_eventually_visits_many_slots(
            n in 2u64..32, writes in 100u64..400)
        {
            let mut sg = StartGap::new(n, StartGapConfig { gap_write_interval: 1 });
            let mut slots_of_zero = HashSet::new();
            for _ in 0..writes {
                slots_of_zero.insert(sg.logical_to_physical(0));
                sg.record_write();
                if sg.pending_move().is_some() {
                    sg.complete_move();
                }
            }
            // Start-Gap guarantees every logical block migrates across
            // the array as the gap revolves.
            prop_assert!(
                slots_of_zero.len() as u64 >= (writes / (n + 1)).min(n),
                "block 0 visited only {:?}",
                slots_of_zero
            );
        }

        #[test]
        fn prop_mapping_bijective_at_random_points(
            n in 1u64..64, moves in 0u64..200)
        {
            let mut sg = StartGap::new(n, StartGapConfig { gap_write_interval: 1 });
            for _ in 0..moves {
                sg.record_write();
                if sg.pending_move().is_some() {
                    sg.complete_move();
                }
            }
            let mut seen = HashSet::new();
            for l in 0..n {
                prop_assert!(seen.insert(sg.logical_to_physical(l)));
            }
        }
    }
}
