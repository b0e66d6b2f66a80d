//! Region BTB: one entry per aligned memory region with a fixed number of
//! branch slots (§2.2), including the even/odd set-interleaved 2L1 variant
//! (§6.2), configurable region sizes (64 B / 128 B, Fig. 7) and decoupled
//! shared overflow slots (§3.5's second mitigation, used by IBM z16, AMD
//! Bobcat, Samsung Exynos and Confluence).
//!
//! The slot logic is the [`RegionLevel`], which [`RegionBtb`] runs as a
//! whole hierarchy and the heterogeneous organization runs as its L2.

use crate::config::{BtbConfig, BtbLevel, BtbTiming, OrgKind};
use crate::hierarchy::TwoLevel;
use crate::inspect::BtbInspection;
use crate::org::BtbOrganization;
use crate::plan::{FetchPlan, PredictionProvider};
use crate::probe::{BranchProbe, BtbState, LevelState};
use crate::slot::{self, Slot};
use crate::storage::SetAssoc;
use btb_trace::{Addr, BranchKind, TraceRecord, INST_BYTES};
use std::ops::Range;

/// The shared overflow pool: when a region's fixed slots overflow, the
/// displaced branch spills here instead of being lost. Overflow-served
/// branches "incur extra latency" (§3.5): one extra bubble. The paper's
/// Fig. 7 `nGeo 16BS` configurations are the zero-cost upper bound of this
/// mechanism; the pool realizes it with bounded storage and the latency tax.
#[derive(Debug, Clone)]
struct Overflow {
    /// Spilled branches' kind and target, keyed by branch PC.
    branches: SetAssoc<(BranchKind, Addr)>,
    /// Regions that have spilled at least one branch (the "overflow bit").
    spilled: SetAssoc<()>,
}

impl Overflow {
    /// `slots` of the entry for `region`, plus the pool's branches at every
    /// PC of `window`; where a PC is in both, the slot wins.
    fn merge(&mut self, slots: &[Slot], region: Addr, window: Range<Addr>) -> Vec<Slot> {
        let mut merged = slots.to_vec();
        for pc in window.step_by(INST_BYTES as usize) {
            if let Some(&(kind, target)) = self.branches.get(pc >> 2) {
                let offset = ((pc - region) / INST_BYTES) as u16;
                merged.push(Slot {
                    offset,
                    kind,
                    target,
                    last_use: 0,
                });
            }
        }
        // Stable, so a slot stays ahead of the pool copy dedup drops.
        merged.sort_by_key(|s| s.offset);
        merged.dedup_by_key(|s| s.offset);
        merged
    }
}

/// Region entries of at most `slots` branch slots ordered by offset, keyed
/// by region number, optionally backed by an [`Overflow`] pool.
#[derive(Debug, Clone)]
pub(crate) struct RegionLevel {
    /// log2 of the region size: a region's key is `region >> shift`.
    shift: u32,
    slots: usize,
    store: TwoLevel<Vec<Slot>>,
    overflow: Option<Overflow>,
}

impl RegionLevel {
    /// Region entries of `region_bytes` with `slots` slots held in `store`,
    /// with an overflow pool of about `overflow_entries` branches if given.
    pub(crate) fn new(
        store: TwoLevel<Vec<Slot>>,
        region_bytes: u64,
        slots: usize,
        overflow_entries: Option<usize>,
    ) -> Self {
        assert!(
            region_bytes.is_power_of_two() && region_bytes >= INST_BYTES,
            "region size must be a power of two of at least one instruction"
        );
        assert!(slots > 0, "a region entry needs at least one branch slot");
        let overflow = overflow_entries.map(|n| {
            assert!(n > 0, "the overflow pool needs at least one entry");
            let sets = (n / 4).next_power_of_two().max(4);
            Overflow {
                branches: SetAssoc::new(sets, 4),
                spilled: SetAssoc::new(sets, 4),
            }
        });
        RegionLevel {
            shift: region_bytes.trailing_zeros(),
            slots,
            store,
            overflow,
        }
    }

    pub(crate) fn region_bytes(&self) -> u64 {
        1 << self.shift
    }

    pub(crate) fn region_of(&self, pc: Addr) -> Addr {
        pc >> self.shift << self.shift
    }

    /// One access at `pc` over the region entries covering `[pc, end)`, in
    /// address order.
    pub(crate) fn plan(
        &mut self,
        pc: Addr,
        end: Addr,
        oracle: &mut dyn PredictionProvider,
        timing: &BtbTiming,
    ) -> FetchPlan {
        let mut branches = Vec::new();
        let mut used_l2 = false;
        let mut region = self.region_of(pc);
        while region < end {
            let key = region >> self.shift;
            if let Some((slots, level)) = self.store.lookup_fill(key) {
                used_l2 |= level == BtbLevel::L2;
                let window = pc..end;
                let merged = (self.overflow.as_mut())
                    .filter(|pool| pool.spilled.peek(key).is_some())
                    .map(|pool| pool.merge(slots, region, window.clone()));
                let walked = merged.as_deref().unwrap_or(slots);
                if slot::walk(walked, region, window, level, oracle, &mut branches) {
                    let taken = branches.last().expect("walked a taken branch").pc;
                    let offset = ((taken - region) / INST_BYTES) as u16;
                    // §3.5: a branch served by the pool pays an extra bubble.
                    let from_pool = merged.is_some() && slots.iter().all(|s| s.offset != offset);
                    let extra = u32::from(from_pool);
                    return FetchPlan::one_segment(pc, branches, end, used_l2, timing, extra);
                }
            }
            region += self.region_bytes();
        }
        FetchPlan::one_segment(pc, branches, end, used_l2, timing, 0)
    }

    /// Records the taken branch at `pc` with recency `tick` in every level.
    /// A branch already in the overflow pool is refreshed there; a full
    /// entry displaces its LRU slot, which spills into the pool if any.
    pub(crate) fn record(&mut self, pc: Addr, kind: BranchKind, target: Addr, tick: u64) {
        if let Some(pool) = &mut self.overflow {
            if pool.branches.get_mut(pc >> 2).is_some() {
                pool.branches.insert(pc >> 2, (kind, target));
                return;
            }
        }
        let (region, key) = (self.region_of(pc), pc >> self.shift);
        let new = Slot {
            offset: ((pc - region) / INST_BYTES) as u16,
            kind,
            target,
            last_use: tick,
        };
        let (l1, l2) = self.store.entries_mut(key, Vec::new);
        let mut displaced = slot::record(l1, new, self.slots);
        if let Some(l2) = l2 {
            // A spill follows the L2's victim.
            displaced = slot::record(l2, new, self.slots).or(displaced);
        }
        if let (Some(pool), Some(lru)) = (&mut self.overflow, displaced) {
            let lru_pc = region + u64::from(lru.offset) * INST_BYTES;
            pool.branches.insert(lru_pc >> 2, (lru.kind, lru.target));
            pool.spilled.insert(key, ());
        }
    }

    /// Promotes the region entries covering the 512 B around `pc` from the
    /// L2 into the L1.
    pub(crate) fn preload(&mut self, pc: Addr) {
        let start = pc & !511;
        let mut region = self.region_of(start);
        while region < start + 512 {
            self.store.promote(region >> self.shift);
            region += self.region_bytes();
        }
    }

    /// Entry granularity mirrors `lookup_fill`: the first level holding the
    /// *region entry* answers. If that entry lacks the branch's slot, only
    /// the overflow pool of a spilled region is consulted.
    pub(crate) fn probe(&self, pc: Addr) -> Option<BranchProbe> {
        let region = self.region_of(pc);
        let key = region >> self.shift;
        let offset = ((pc - region) / INST_BYTES) as u16;
        let (slots, level) = self.store.peek(key)?;
        let (kind, target) = match slots.iter().find(|s| s.offset == offset) {
            Some(s) => (s.kind, s.target),
            None => {
                let pool = self.overflow.as_ref()?;
                pool.spilled.peek(key)?;
                *pool.branches.peek(pc >> 2)?
            }
        };
        Some(BranchProbe {
            level,
            kind,
            target,
        })
    }

    pub(crate) fn dump_state(&self) -> BtbState {
        let (l1, l2) = self.store.dump_levels(|s| slot::fmt_slots(s));
        let mut aux = Vec::new();
        if let Some(pool) = &self.overflow {
            let branches = pool.branches.dump_with(|(k, t)| format!("{k:?}->{t:#x}"));
            let spilled = pool.spilled.dump_with(|()| String::new());
            aux.push(("overflow".into(), LevelState { sets: branches }));
            aux.push(("spilled".into(), LevelState { sets: spilled }));
        }
        BtbState { l1, l2, aux }
    }

    pub(crate) fn inspect(&self) -> BtbInspection {
        let shift = self.shift;
        let mut ins = BtbInspection::of(&self.store, self.slots, |k, slots, add| {
            for s in slots {
                add((k << shift) + u64::from(s.offset) * INST_BYTES);
            }
        });
        if let Some(pool) = &self.overflow {
            // Count overflow-resident branches as additional L1 slots in use.
            let n = pool.branches.len();
            ins.l1.used_slots += n as u64;
            ins.l1.tracked_pairs += n as u64;
            ins.l1.distinct_branches += n;
        }
        ins
    }
}

/// The Region BTB organization, with or without the overflow pool.
#[derive(Debug, Clone)]
pub struct RegionBtb {
    config: BtbConfig,
    /// Bytes one access covers: two regions under 2L1 interleaving.
    window: u64,
    regions: RegionLevel,
    tick: u64,
}

impl RegionBtb {
    /// Creates an R-BTB from a configuration whose kind must be
    /// [`OrgKind::Region`] or [`OrgKind::RegionOverflow`].
    ///
    /// # Panics
    /// Panics if the configuration is of a different organization kind or
    /// the region size is not a power of two of at least one instruction.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        let (region_bytes, slots, dual, overflow) = match config.kind {
            OrgKind::Region {
                region_bytes,
                slots,
                dual_interleave,
            } => (region_bytes, slots, dual_interleave, None),
            OrgKind::RegionOverflow {
                region_bytes,
                slots,
                overflow_entries,
            } => (region_bytes, slots, false, Some(overflow_entries)),
            _ => panic!("RegionBtb requires OrgKind::Region or OrgKind::RegionOverflow"),
        };
        let store = TwoLevel::new(config.l1, config.l2);
        RegionBtb {
            window: if dual { 2 * region_bytes } else { region_bytes },
            regions: RegionLevel::new(store, region_bytes, slots, overflow),
            config,
            tick: 0,
        }
    }
}

impl BtbOrganization for RegionBtb {
    fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(self.clone())
    }

    fn plan(&mut self, pc: Addr, oracle: &mut dyn PredictionProvider) -> FetchPlan {
        let end = self.regions.region_of(pc) + self.window;
        self.regions.plan(pc, end, oracle, &self.config.timing)
    }

    fn update(&mut self, rec: &TraceRecord) {
        let Some(kind) = rec.branch_kind() else {
            return;
        };
        if !rec.taken {
            return;
        }
        self.tick += 1;
        self.regions.record(rec.pc, kind, rec.target, self.tick);
    }

    fn preload(&mut self, pc: Addr) {
        // The overflow variant keeps the trait's no-op.
        if matches!(self.config.kind, OrgKind::Region { .. }) {
            self.regions.preload(pc);
        }
    }

    fn probe_branch(&self, pc: Addr) -> Option<BranchProbe> {
        self.regions.probe(pc)
    }

    fn dump_state(&self) -> BtbState {
        self.regions.dump_state()
    }

    fn inspect(&self) -> BtbInspection {
        self.regions.inspect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FixedOracle, PlanEnd};

    fn ideal(region_bytes: u64, slots: usize, dual: bool) -> RegionBtb {
        RegionBtb::new(BtbConfig::ideal(
            "test",
            OrgKind::Region {
                region_bytes,
                slots,
                dual_interleave: dual,
            },
        ))
    }

    fn taken(pc: Addr, kind: BranchKind, target: Addr) -> TraceRecord {
        TraceRecord::branch(pc, kind, true, target)
    }

    #[test]
    fn plan_never_crosses_region_boundary() {
        let mut b = ideal(64, 2, false);
        // Access mid-region: window covers only to the region end.
        let p = b.plan(0x1010, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x1040);
        assert_eq!(p.fetch_pcs(), 12); // 0x1010..0x1040
    }

    #[test]
    fn dual_interleave_covers_two_regions() {
        let mut b = ideal(64, 2, true);
        let p = b.plan(0x1010, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x1080);
        assert_eq!(p.fetch_pcs(), 28);
    }

    #[test]
    fn taken_slot_ends_plan() {
        let mut b = ideal(64, 2, false);
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x2000);
        assert_eq!(p.fetch_pcs(), 3);
        assert_eq!(p.end, PlanEnd::TakenBranch);
    }

    #[test]
    fn slots_below_access_pc_are_ignored() {
        // §3.6.1 example: entry with branches at +0x4 and +0x1c; accessing
        // through 0x10 must only see the branch at 0x1c.
        let mut b = ideal(64, 2, false);
        b.update(&taken(0x1004, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x101c, BranchKind::UncondDirect, 0x3000));
        let p = b.plan(0x1010, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x3000);
        assert!(p.branch_at(0x1004).is_none());
        assert!(p.branch_at(0x101c).is_some());
    }

    #[test]
    fn slot_overflow_displaces_lru() {
        let mut b = ideal(64, 2, false);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x3000));
        // Touch 0x1000 so 0x1008 is LRU, then overflow.
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x1010, BranchKind::UncondDirect, 0x4000));
        let ins = b.inspect();
        assert_eq!(ins.l1.used_slots, 2);
        // 0x1008 was displaced: a plan from 0x1004 skips straight to 0x1010.
        let p = b.plan(0x1004, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x4000);
        assert!(p.branch_at(0x1008).is_none());
    }

    #[test]
    fn slots_stay_sorted_by_offset() {
        let mut b = ideal(64, 4, false);
        b.update(&taken(0x1018, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x1008, BranchKind::CondDirect, 0x3000));
        b.update(&taken(0x1010, BranchKind::CondDirect, 0x4000));
        // With everything predicted taken, the earliest offset must win.
        let mut oracle = FixedOracle {
            taken: vec![0x1008, 0x1010],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1000, &mut oracle);
        assert_eq!(p.next_pc, 0x3000);
    }

    #[test]
    fn regions_are_independent_entries() {
        let mut b = ideal(64, 1, false);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x1040, BranchKind::UncondDirect, 0x3000));
        let ins = b.inspect();
        assert_eq!(ins.l1.entries, 2);
        assert!(
            (ins.l1.redundancy() - 1.0).abs() < 1e-9,
            "R-BTB never redundant"
        );
    }

    #[test]
    fn region_128b_window() {
        let mut b = ideal(128, 4, false);
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 32);
        assert_eq!(p.next_pc, 0x1080);
    }

    #[test]
    fn never_taken_branches_do_not_allocate() {
        let mut b = ideal(64, 2, false);
        b.update(&TraceRecord::branch(
            0x1004,
            BranchKind::CondDirect,
            false,
            0x2000,
        ));
        assert_eq!(b.inspect().l1.entries, 0);
    }

    #[test]
    fn dual_interleave_sees_branches_in_second_region() {
        let mut b = ideal(64, 2, true);
        b.update(&taken(0x1048, BranchKind::UncondDirect, 0x9000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x9000);
        assert_eq!(p.fetch_pcs(), 19); // 0x1000..=0x1048
    }

    fn ovf(slots: usize) -> RegionBtb {
        RegionBtb::new(BtbConfig::ideal(
            "R-OVF",
            OrgKind::RegionOverflow {
                region_bytes: 64,
                slots,
                overflow_entries: 256,
            },
        ))
    }

    #[test]
    fn overflowing_branch_survives_in_shared_storage() {
        let mut b = ovf(1);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        // Second branch in the same region displaces the first into
        // overflow — but nothing is lost.
        b.update(&taken(0x1010, BranchKind::UncondDirect, 0x3000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x2000, "spilled branch still served");
        assert_eq!(p.bubbles, 1, "overflow service costs an extra bubble");
        // The in-entry branch is served at normal latency.
        let p2 = b.plan(0x1004, &mut FixedOracle::default());
        assert_eq!(p2.next_pc, 0x3000);
        assert_eq!(p2.bubbles, 0);
    }

    #[test]
    fn no_overflow_probing_without_spills() {
        let mut b = ovf(2);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.bubbles, 0);
        assert_eq!(p.next_pc, 0x2000);
    }

    #[test]
    fn overflow_updates_refresh_in_place() {
        let mut b = ovf(1);
        b.update(&taken(0x1000, BranchKind::IndirectJump, 0x2000));
        b.update(&taken(0x1010, BranchKind::UncondDirect, 0x3000)); // spills 0x1000
                                                                    // The spilled indirect branch retargets; the overflow copy updates.
        b.update(&taken(0x1000, BranchKind::IndirectJump, 0x5000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x5000);
    }

    #[test]
    fn candidates_stay_in_address_order() {
        let mut b = ovf(1);
        b.update(&taken(0x1010, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x1004, BranchKind::UncondDirect, 0x3000)); // spills 0x1010
                                                                    // From 0x1000, the earliest branch (0x1004, in-entry) must win even
                                                                    // though 0x1010 sits in overflow.
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x3000);
    }

    #[test]
    fn inspection_counts_overflow_slots() {
        let mut b = ovf(1);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x1010, BranchKind::UncondDirect, 0x3000));
        let ins = b.inspect();
        assert_eq!(ins.l1.distinct_branches, 2, "entry slot + overflow slot");
    }
}
