//! Block BTB: one entry per dynamic block start (§2.3), with optional entry
//! splitting on branch-slot overflow (§6.3).
//!
//! Blocks follow the paper's baseline definition: a block starts at a
//! taken-branch target (or at the 64 B-grid fall-through of the previous
//! block), spans at most `block_insts` instructions, falls through
//! sometimes-taken conditionals, and its fall-through address is computable
//! in parallel with the BTB access (`start + block_insts × 4`) — except for
//! split entries, whose fall-through is the recorded split point.
//!
//! The slot logic is the [`BlockLevel`], which [`BlockBtb`] runs as a whole
//! hierarchy and the heterogeneous organization runs as its L1.

use crate::config::{BtbConfig, BtbLevel, BtbTiming, OrgKind};
use crate::hierarchy::TwoLevel;
use crate::inspect::BtbInspection;
use crate::org::BtbOrganization;
use crate::plan::{FetchPlan, PredictionProvider};
use crate::probe::{BranchProbe, BtbState, LevelState};
use crate::slot::{self, Slot};
use btb_trace::{Addr, BranchKind, TraceRecord, INST_BYTES};

/// One block entry: slots ordered by offset plus an optional split length.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct BEntry {
    pub(crate) slots: Vec<Slot>,
    /// `Some(n)` when the entry was split after `n` instructions; its
    /// fall-through is then `start + n*4` instead of the full block reach.
    pub(crate) split_len: Option<u16>,
}

impl BEntry {
    /// Records `new` in an entry of at most `max` slots: refresh, insert,
    /// split (when `split`) or displace. A split returns the split length
    /// and the moved slot, rebased onto the successor entry.
    fn record(&mut self, new: Slot, max: usize, split: bool) -> Option<(u16, Slot)> {
        let tracked = || self.slots.iter().any(|s| s.offset == new.offset);
        if !split || self.slots.len() < max || tracked() {
            // Refresh, insert, or without splitting displace the LRU slot
            // (§6.3 "information is lost").
            slot::record(&mut self.slots, new, max);
            return None;
        }
        // §6.3: stage n+1 slots, keep the first n, split after the n-th
        // slot's instruction; the last slot moves to the successor entry.
        slot::insert(&mut self.slots, new);
        let mut moved = self.slots.pop().expect("staging has n+1 slots");
        let split_at = self.slots.last().expect("n >= 1").offset + 1;
        self.split_len = Some(split_at);
        moved.offset -= split_at;
        Some((split_at, moved))
    }
}

/// Block entries of at most `slots` branch slots keyed by block start, plus
/// the retire-side block tracker.
#[derive(Debug, Clone)]
pub(crate) struct BlockLevel {
    block_insts: usize,
    pub(crate) slots: usize,
    split: bool,
    store: TwoLevel<BEntry>,
    /// Retire-side block tracker: the start address of the block the next
    /// retired branch belongs to.
    cur_block: Option<Addr>,
}

impl BlockLevel {
    /// Block entries reaching `block_insts` instructions with `slots` slots
    /// held in `store`, split on overflow if `split`.
    pub(crate) fn new(
        store: TwoLevel<BEntry>,
        block_insts: usize,
        slots: usize,
        split: bool,
    ) -> Self {
        assert!(block_insts > 0, "block reach must be non-zero");
        assert!(slots > 0, "a block entry needs at least one branch slot");
        BlockLevel {
            block_insts,
            slots,
            split,
            store,
            cur_block: None,
        }
    }

    pub(crate) fn block_bytes(&self) -> u64 {
        self.block_insts as u64 * INST_BYTES
    }

    /// One access at block start `pc`, or `None` when no level holds it.
    pub(crate) fn plan(
        &mut self,
        pc: Addr,
        oracle: &mut dyn PredictionProvider,
        timing: &BtbTiming,
    ) -> Option<FetchPlan> {
        let (entry, level) = self.store.lookup_fill(pc >> 2)?;
        let mut branches = Vec::new();
        let window = pc..Addr::MAX;
        slot::walk(&entry.slots, pc, window, level, oracle, &mut branches);
        // Fall-through: full grid reach, or the split point for split
        // entries (entry information needed, §6.3).
        let reach = entry.split_len.map_or(self.block_insts as u64, u64::from);
        let end = pc + reach * INST_BYTES;
        let used_l2 = level == BtbLevel::L2;
        let plan = FetchPlan::one_segment(pc, branches, end, used_l2, timing, 0);
        Some(plan)
    }

    /// Follows split chains: finds the block (starting at or after `start`)
    /// whose address range contains `pc`, consulting existing entries'
    /// split lengths.
    fn resolve_block(&self, mut start: Addr, pc: Addr) -> Addr {
        loop {
            // Advance over full blocks on the fall-through grid.
            if pc >= start + self.block_bytes() {
                start += self.block_bytes();
                continue;
            }
            // Advance over a split prefix.
            if let Some((e, _)) = self.store.peek(start >> 2) {
                if let Some(len) = e.split_len {
                    let end = start + u64::from(len) * INST_BYTES;
                    if pc >= end {
                        start = end;
                        continue;
                    }
                }
            }
            return start;
        }
    }

    /// Advances the block tracker over the retired branch `rec`, returning
    /// the start of the block `rec` belongs to.
    pub(crate) fn track(&mut self, rec: &TraceRecord) -> Addr {
        let start = self.resolve_block(self.cur_block.unwrap_or(rec.pc).min(rec.pc), rec.pc);
        self.cur_block = Some(if rec.taken { rec.target } else { start });
        start
    }

    /// Records the taken branch at `pc` with recency `tick` in block
    /// `start`'s entry, in every level. A split returns the successor
    /// block's start and the moved slot, for the organization to place.
    pub(crate) fn record(
        &mut self,
        start: Addr,
        pc: Addr,
        kind: BranchKind,
        target: Addr,
        tick: u64,
    ) -> Option<(Addr, Slot)> {
        let new = Slot {
            offset: ((pc - start) / INST_BYTES) as u16,
            kind,
            target,
            last_use: tick,
        };
        let (l1, l2) = self.store.entries_mut(start >> 2, BEntry::default);
        let mut moved = l1.record(new, self.slots, self.split);
        if let Some(l2) = l2 {
            // The successor follows the L2's split.
            moved = l2.record(new, self.slots, self.split).or(moved);
        }
        moved.map(|(split_at, slot)| (start + u64::from(split_at) * INST_BYTES, slot))
    }

    /// Applies `f` to block `start`'s entry in every level, creating the
    /// entry where absent.
    pub(crate) fn update_entry(&mut self, start: Addr, f: impl FnMut(&mut BEntry)) {
        self.store.update_with(start >> 2, BEntry::default, f);
    }

    /// Scans every block start whose reach could cover `pc`; the nearest
    /// start (smallest distance) wins, mirroring the fact that a block
    /// access at that start would serve the branch.
    pub(crate) fn probe(&self, pc: Addr) -> Option<BranchProbe> {
        for d in 0..self.block_insts as u64 {
            let Some(start) = pc.checked_sub(d * INST_BYTES) else {
                break;
            };
            if let Some((e, level)) = self.store.peek(start >> 2) {
                if let Some(slot) = e.slots.iter().find(|s| u64::from(s.offset) == d) {
                    return Some(BranchProbe {
                        level,
                        kind: slot.kind,
                        target: slot.target,
                    });
                }
            }
        }
        None
    }

    pub(crate) fn dump_levels(&self) -> (LevelState, Option<LevelState>) {
        self.store.dump_levels(|e| match e.split_len {
            Some(n) => format!("{}|split={n}", slot::fmt_slots(&e.slots)),
            None => slot::fmt_slots(&e.slots),
        })
    }

    pub(crate) fn inspect(&self) -> BtbInspection {
        BtbInspection::of(&self.store, self.slots, |k, e, add| {
            for s in &e.slots {
                add((k << 2) + u64::from(s.offset) * INST_BYTES);
            }
        })
    }
}

/// The Block BTB organization.
#[derive(Debug, Clone)]
pub struct BlockBtb {
    config: BtbConfig,
    blocks: BlockLevel,
    tick: u64,
}

impl BlockBtb {
    /// Creates a B-BTB from a configuration whose kind must be
    /// [`OrgKind::Block`].
    ///
    /// # Panics
    /// Panics if the configuration is of a different organization kind.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        let OrgKind::Block {
            block_insts,
            slots,
            split,
        } = config.kind
        else {
            panic!("BlockBtb requires OrgKind::Block");
        };
        let store = TwoLevel::new(config.l1, config.l2);
        BlockBtb {
            blocks: BlockLevel::new(store, block_insts, slots, split),
            config,
            tick: 0,
        }
    }
}

impl BtbOrganization for BlockBtb {
    fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(self.clone())
    }

    fn plan(&mut self, pc: Addr, oracle: &mut dyn PredictionProvider) -> FetchPlan {
        let reach = self.blocks.block_insts as u64;
        // Miss: the frontend speculates sequentially over a full block.
        (self.blocks.plan(pc, oracle, &self.config.timing))
            .unwrap_or_else(|| FetchPlan::sequential(pc, reach))
    }

    fn update(&mut self, rec: &TraceRecord) {
        let Some(kind) = rec.branch_kind() else {
            return;
        };
        let start = self.blocks.track(rec);
        if !rec.taken {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let Some((succ, moved)) = self.blocks.record(start, rec.pc, kind, rec.target, tick) else {
            return;
        };
        let max = self.blocks.slots;
        self.blocks.update_entry(succ, |e| {
            if let Some(s) = e.slots.iter_mut().find(|s| s.offset == moved.offset) {
                *s = Slot {
                    last_use: tick,
                    ..moved
                };
            } else if e.slots.len() < max {
                slot::insert(&mut e.slots, moved);
            }
            // If the successor is itself full, the moved branch is dropped;
            // it will re-allocate on its next execution.
        });
    }

    fn probe_branch(&self, pc: Addr) -> Option<BranchProbe> {
        self.blocks.probe(pc)
    }

    fn dump_state(&self) -> BtbState {
        let (l1, l2) = self.blocks.dump_levels();
        BtbState {
            l1,
            l2,
            aux: Vec::new(),
        }
    }

    fn inspect(&self) -> BtbInspection {
        self.blocks.inspect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FixedOracle;

    fn ideal(block_insts: usize, slots: usize, split: bool) -> BlockBtb {
        BlockBtb::new(BtbConfig::ideal(
            "test",
            OrgKind::Block {
                block_insts,
                slots,
                split,
            },
        ))
    }

    fn taken(pc: Addr, kind: BranchKind, target: Addr) -> TraceRecord {
        TraceRecord::branch(pc, kind, true, target)
    }

    fn not_taken(pc: Addr, target: Addr) -> TraceRecord {
        TraceRecord::branch(pc, BranchKind::CondDirect, false, target)
    }

    #[test]
    fn miss_speculates_a_full_block() {
        let mut b = ideal(16, 2, false);
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 16);
        assert_eq!(p.next_pc, 0x1040);
    }

    #[test]
    fn taken_branch_allocates_block_at_tracker_start() {
        let mut b = ideal(16, 2, false);
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        // First branch initializes the tracker at its own pc.
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x2000);
        assert_eq!(p.fetch_pcs(), 1);
    }

    #[test]
    fn block_starts_at_taken_target() {
        let mut b = ideal(16, 2, false);
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        // Next branch at 0x2010 belongs to block 0x2000.
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x1008));
        let p = b.plan(0x2000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x1008);
        assert_eq!(p.fetch_pcs(), 5);
    }

    #[test]
    fn fall_through_advances_block_grid() {
        let mut b = ideal(16, 2, false);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        // From 0x2000, 20 instructions of straight line, then a branch: it
        // belongs to block 0x2040 (grid fall-through), not 0x2000.
        b.update(&taken(0x2050, BranchKind::UncondDirect, 0x3000));
        let p = b.plan(0x2040, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x3000);
        // Block 0x2000 exists? No taken branch inside it, so no entry.
        let p2 = b.plan(0x2000, &mut FixedOracle::default());
        assert!(p2.branches.is_empty());
    }

    #[test]
    fn sometimes_taken_cond_falls_through_within_block() {
        let mut b = ideal(16, 2, false);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2008, BranchKind::CondDirect, 0x4000)); // taken once
        b.update(&taken(0x4000, BranchKind::UncondDirect, 0x2000)); // back
                                                                    // Not taken this time: stays in block 0x2000, next taken at 0x2014.
        b.update(&not_taken(0x2008, 0x4000));
        b.update(&taken(0x2014, BranchKind::UncondDirect, 0x5000));
        // Entry 0x2000 should now track both branches.
        let p = b.plan(0x2000, &mut FixedOracle::default());
        assert!(p.branch_at(0x2008).is_some());
        // Predicted not-taken cond: continue to 0x2014's uncond.
        assert_eq!(p.next_pc, 0x5000);
    }

    #[test]
    fn slot_overflow_without_split_displaces() {
        let mut b = ideal(16, 1, false);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2004, BranchKind::CondDirect, 0x3000));
        b.update(&taken(0x3000, BranchKind::UncondDirect, 0x2000));
        // Not taken now; the next taken branch in the same block displaces.
        b.update(&not_taken(0x2004, 0x3000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x4000));
        let ins = b.inspect();
        // Entry 0x2000 still has one slot (0x2010 displaced 0x2004).
        let p = b.plan(0x2000, &mut FixedOracle::default());
        assert!(p.branch_at(0x2004).is_none());
        assert_eq!(p.next_pc, 0x4000);
        assert!(ins.l1.occupancy() <= 1.0 + 1e-9);
    }

    #[test]
    fn slot_overflow_with_split_creates_successor() {
        let mut b = ideal(16, 1, true);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2004, BranchKind::CondDirect, 0x3000));
        b.update(&taken(0x3000, BranchKind::UncondDirect, 0x2000));
        b.update(&not_taken(0x2004, 0x3000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x4000));
        // Entry 0x2000 keeps the cond at 0x2004 and splits after it.
        let p = b.plan(0x2000, &mut FixedOracle::default());
        assert!(p.branch_at(0x2004).is_some());
        assert_eq!(p.next_pc, 0x2008, "split fall-through");
        assert_eq!(p.fetch_pcs(), 2);
        // Successor entry at the split point tracks 0x2010.
        let p2 = b.plan(0x2008, &mut FixedOracle::default());
        assert_eq!(p2.next_pc, 0x4000);
        assert!(p2.branch_at(0x2010).is_some());
    }

    #[test]
    fn split_chain_is_followed_by_updates() {
        let mut b = ideal(16, 1, true);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2004, BranchKind::CondDirect, 0x3000));
        b.update(&taken(0x3000, BranchKind::UncondDirect, 0x2000));
        b.update(&not_taken(0x2004, 0x3000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x4000)); // split happens
        b.update(&taken(0x4000, BranchKind::UncondDirect, 0x2000));
        // Walk the block again, not taking 0x2004: the update for the branch
        // at 0x2010 must land in the successor entry (0x2008), not 0x2000.
        b.update(&not_taken(0x2004, 0x3000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x4000));
        let p = b.plan(0x2008, &mut FixedOracle::default());
        assert_eq!(p.branches.len(), 1);
        assert_eq!(p.next_pc, 0x4000);
    }

    #[test]
    fn redundancy_appears_with_overlapping_blocks() {
        // Fig. 2 scenario: the same branch reached from two different block
        // starts is tracked twice.
        let mut b = ideal(16, 2, false);
        // Path A: block at 0x1000 contains branch 0x1020 (taken).
        b.update(&taken(0x1000 - 4 * 16, BranchKind::UncondDirect, 0x1000));
        b.update(&taken(0x1020, BranchKind::CondDirect, 0x5000));
        b.update(&taken(0x5000, BranchKind::UncondDirect, 0x1010));
        // Path B: jump into 0x1010 — new block containing 0x1020 again.
        b.update(&taken(0x1020, BranchKind::CondDirect, 0x5000));
        let ins = b.inspect();
        assert!(
            ins.l1.redundancy() > 1.0,
            "redundancy {}",
            ins.l1.redundancy()
        );
    }

    #[test]
    fn reach_32_blocks_cover_more() {
        let mut b = ideal(32, 1, true);
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 32);
    }

    #[test]
    fn return_slot_uses_ras() {
        let mut b = ideal(16, 2, false);
        b.update(&taken(0x1000, BranchKind::Return, 0x7000));
        let mut oracle = FixedOracle {
            returns: vec![0x8000],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1000, &mut oracle);
        assert_eq!(p.next_pc, 0x8000);
    }
}
