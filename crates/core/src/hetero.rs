//! Heterogeneous BTB hierarchy (§3.6.2, left as future work by the paper):
//! a Block BTB first level — best suited for 0-cycle turnaround and single
//! access plans — backed by a Region BTB second level, which stores each
//! branch in exactly one entry and thus does not waste L2 capacity on the
//! B-BTB's redundant "synonym" blocks.
//!
//! Lookup: the L1 is accessed with the block-start address like a B-BTB; on
//! a miss, the L2 region entries covering the block window provide branch
//! metadata (with L2 taken-branch bubbles). Updates train both structures
//! independently (immediate update), stamping slot recency from one tick
//! counter: the L1 update takes one tick, the L2 update the next.

use crate::bbtb::BlockLevel;
use crate::config::{BtbConfig, BtbLevel, OrgKind};
use crate::hierarchy::TwoLevel;
use crate::inspect::BtbInspection;
use crate::org::BtbOrganization;
use crate::plan::{FetchPlan, PredictionProvider};
use crate::probe::{BranchProbe, BtbState};
use crate::rbtb::RegionLevel;
use crate::slot;
use btb_trace::{Addr, TraceRecord};

/// A Block-BTB L1 backed by a Region-BTB L2.
#[derive(Debug, Clone)]
pub struct HeteroBtb {
    config: BtbConfig,
    blocks: BlockLevel,
    regions: RegionLevel,
    tick: u64,
}

impl HeteroBtb {
    /// Creates a heterogeneous hierarchy from a configuration whose kind
    /// must be [`OrgKind::HeteroBlockRegion`].
    ///
    /// # Panics
    /// Panics if the configuration is of a different organization kind or
    /// has no L2 geometry.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        let OrgKind::HeteroBlockRegion {
            block_insts,
            l1_slots,
            split,
            region_bytes,
            l2_slots,
        } = config.kind
        else {
            panic!("HeteroBtb requires OrgKind::HeteroBlockRegion");
        };
        let l2_geo = config.l2.expect("heterogeneous hierarchy needs an L2");
        let l1 = TwoLevel::single(config.l1, BtbLevel::L1);
        let l2 = TwoLevel::single(l2_geo, BtbLevel::L2);
        HeteroBtb {
            blocks: BlockLevel::new(l1, block_insts, l1_slots, split),
            regions: RegionLevel::new(l2, region_bytes, l2_slots, None),
            config,
            tick: 0,
        }
    }
}

impl BtbOrganization for HeteroBtb {
    fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(self.clone())
    }

    fn plan(&mut self, pc: Addr, oracle: &mut dyn PredictionProvider) -> FetchPlan {
        let (timing, end) = (&self.config.timing, pc + self.blocks.block_bytes());
        (self.blocks.plan(pc, oracle, timing))
            .unwrap_or_else(|| self.regions.plan(pc, end, oracle, timing))
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
        let split = self
            .blocks
            .record(start, rec.pc, kind, rec.target, self.tick);
        if let Some((succ, moved)) = split {
            // Unlike B-BTB, a successor that already tracks the moved
            // branch keeps its slot unchanged: a known quirk, kept so that
            // existing reports stay byte-identical.
            let max = self.blocks.slots;
            self.blocks.update_entry(succ, |e| {
                if e.slots.len() < max && e.slots.iter().all(|s| s.offset != moved.offset) {
                    slot::insert(&mut e.slots, moved);
                }
            });
        }
        self.tick += 1;
        self.regions.record(rec.pc, kind, rec.target, self.tick);
    }

    fn probe_branch(&self, pc: Addr) -> Option<BranchProbe> {
        // B-style scan over the L1 block entries first (like `plan`), then
        // the R-style L2 region entry.
        self.blocks.probe(pc).or_else(|| self.regions.probe(pc))
    }

    fn dump_state(&self) -> BtbState {
        BtbState {
            l1: self.blocks.dump_levels().0,
            l2: Some(self.regions.dump_state().l1),
            aux: Vec::new(),
        }
    }

    fn inspect(&self) -> BtbInspection {
        BtbInspection {
            l1: self.blocks.inspect().l1,
            l2: self.regions.inspect().l1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LevelGeometry;
    use crate::plan::FixedOracle;
    use btb_trace::BranchKind;

    fn hetero(l1_slots: usize, l2_slots: usize) -> HeteroBtb {
        HeteroBtb::new(BtbConfig {
            name: "hetero".into(),
            kind: OrgKind::HeteroBlockRegion {
                block_insts: 16,
                l1_slots,
                split: true,
                region_bytes: 64,
                l2_slots,
            },
            l1: LevelGeometry { sets: 4, ways: 2 },
            l2: Some(LevelGeometry { sets: 64, ways: 4 }),
            timing: Default::default(),
        })
    }

    fn taken(pc: Addr, kind: BranchKind, target: Addr) -> TraceRecord {
        TraceRecord::branch(pc, kind, true, target)
    }

    #[test]
    fn l1_hit_serves_block_plans() {
        let mut b = hetero(2, 2);
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x2000);
        assert!(!p.used_l2);
        assert_eq!(p.bubbles, 0, "L1 block hit is 0-cycle");
    }

    #[test]
    fn l2_regions_cover_l1_misses_with_bubbles() {
        let mut b = hetero(2, 2);
        // Train, then evict the block from the tiny L1 by thrashing with
        // aliasing block starts (same set: keys 4 sets apart in pc>>2).
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        for i in 1..=2u64 {
            let alias = 0x1008 + i * 4 * 4 * 4; // same L1 set (4 sets × >>2)
            b.update(&taken(alias, BranchKind::UncondDirect, 0x2000));
        }
        let l1_keys = b.dump_state().l1.sets.into_iter().flatten();
        assert!(
            l1_keys.map(|(k, _)| k).all(|k| k != 0x1008 >> 2),
            "L1 entry evicted"
        );
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert!(p.used_l2, "L2 region must provide the metadata");
        assert_eq!(p.next_pc, 0x2000);
        assert_eq!(p.bubbles, 3, "L2-provided taken branch pays bubbles");
    }

    #[test]
    fn l2_never_stores_a_branch_twice() {
        // The §3.6.2 motivation: the region L2 is redundancy-free even when
        // the block L1 tracks the same branch under several block starts.
        let mut b = hetero(1, 4);
        // Two different entry paths into the same branch (Fig. 2 shape).
        b.update(&taken(0x0f00, BranchKind::UncondDirect, 0x1000));
        b.update(&taken(0x1020, BranchKind::CondDirect, 0x5000));
        b.update(&taken(0x5000, BranchKind::UncondDirect, 0x1010));
        b.update(&taken(0x1020, BranchKind::CondDirect, 0x5000));
        let ins = b.inspect();
        assert!(
            (ins.l2.redundancy() - 1.0).abs() < 1e-9,
            "region L2 is deduplicated"
        );
    }

    #[test]
    fn never_taken_allocates_nothing() {
        let mut b = hetero(2, 2);
        b.update(&TraceRecord::branch(
            0x1004,
            BranchKind::CondDirect,
            false,
            0x2000,
        ));
        let ins = b.inspect();
        assert_eq!(ins.l1.entries + ins.l2.entries, 0);
    }

    #[test]
    fn split_entries_work_in_the_l1() {
        let mut b = hetero(1, 4);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2004, BranchKind::CondDirect, 0x3000));
        b.update(&taken(0x3000, BranchKind::UncondDirect, 0x2000));
        b.update(&TraceRecord::branch(
            0x2004,
            BranchKind::CondDirect,
            false,
            0x3000,
        ));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x4000));
        let p = b.plan(0x2000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x2008, "split fall-through");
    }

    #[test]
    fn cold_miss_speculates_sequentially() {
        let mut b = hetero(2, 2);
        let p = b.plan(0x9000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 16);
        assert_eq!(p.next_pc, 0x9040);
        assert!(!p.used_l2);
    }
}
