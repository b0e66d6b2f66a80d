//! BTB content inspection: the occupancy and redundancy statistics the paper
//! samples every 1M instructions (§5).

use crate::hierarchy::TwoLevel;
use crate::storage::SetAssoc;
use btb_trace::Addr;
use std::collections::HashMap;

/// Snapshot statistics of one BTB level's contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LevelInspection {
    /// Valid entries.
    pub entries: usize,
    /// Total entry capacity.
    pub capacity: usize,
    /// Branch slots currently holding a branch.
    pub used_slots: u64,
    /// Branch-slot capacity (entries × slots/entry).
    pub slot_capacity: u64,
    /// Number of distinct branch PCs tracked.
    pub distinct_branches: usize,
    /// Total (branch PC, entry) pairs — equals `distinct_branches` when
    /// there is no redundancy.
    pub tracked_pairs: u64,
}

impl LevelInspection {
    /// Average used branch slots per valid entry (paper §5: 1.60 for the
    /// 16-slot R-BTB, 1.06 for the 16-slot B-BTB).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.used_slots as f64 / self.entries as f64
        }
    }

    /// Average number of entries tracking each distinct branch PC (paper
    /// §5: 1.0 for I-/R-BTB, ~1.06 for B-BTB).
    #[must_use]
    pub fn redundancy(&self) -> f64 {
        if self.distinct_branches == 0 {
            0.0
        } else {
            self.tracked_pairs as f64 / self.distinct_branches as f64
        }
    }

    /// Builds a level inspection from a per-branch-PC entry count map.
    #[must_use]
    pub fn from_branch_map(
        entries: usize,
        capacity: usize,
        slot_capacity_per_entry: usize,
        branch_counts: &HashMap<u64, u64>,
    ) -> Self {
        LevelInspection {
            entries,
            capacity,
            used_slots: branch_counts.values().sum(),
            slot_capacity: (capacity * slot_capacity_per_entry) as u64,
            distinct_branches: branch_counts.len(),
            tracked_pairs: branch_counts.values().sum(),
        }
    }
}

/// Snapshot of a whole BTB hierarchy's contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BtbInspection {
    /// First level.
    pub l1: LevelInspection,
    /// Second level (all-zero when absent).
    pub l2: LevelInspection,
}

impl BtbInspection {
    /// Inspects every level of `store`, whose entries track at most `max`
    /// branches each; `branches(key, entry, add)` calls `add` once per
    /// branch PC the entry tracks.
    pub(crate) fn of<E: Clone>(
        store: &TwoLevel<E>,
        max: usize,
        branches: impl Fn(u64, &E, &mut dyn FnMut(Addr)),
    ) -> Self {
        let level = |table: &SetAssoc<E>| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for (k, e) in table.iter() {
                branches(k, e, &mut |pc| *counts.entry(pc).or_insert(0) += 1);
            }
            LevelInspection::from_branch_map(table.len(), table.capacity(), max, &counts)
        };
        BtbInspection {
            l1: level(store.l1()),
            l2: store.l2().map(level).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_and_redundancy() {
        let mut counts = HashMap::new();
        counts.insert(0x100u64, 2u64); // tracked by two entries
        counts.insert(0x200u64, 1u64);
        let li = LevelInspection::from_branch_map(2, 8, 2, &counts);
        assert_eq!(li.used_slots, 3);
        assert_eq!(li.distinct_branches, 2);
        assert!((li.redundancy() - 1.5).abs() < 1e-9);
        assert!((li.occupancy() - 1.5).abs() < 1e-9);
        assert_eq!(li.slot_capacity, 16);
    }

    #[test]
    fn empty_level_has_zero_stats() {
        let li = LevelInspection::default();
        assert_eq!(li.occupancy(), 0.0);
        assert_eq!(li.redundancy(), 0.0);
    }
}
