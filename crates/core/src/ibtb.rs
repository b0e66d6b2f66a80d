//! Instruction BTB: one entry per branch, `width` banked lookups per access
//! (§2.2 degenerate case of R-BTB; the paper's baseline organization).

use crate::config::{BtbConfig, BtbLevel, OrgKind};
use crate::hierarchy::TwoLevel;
use crate::inspect::BtbInspection;
use crate::org::{bubbles_for, BtbOrganization};
use crate::plan::{FetchPlan, PlanEnd, PlanSegment, PlannedBranch, PredictionProvider};
use crate::probe::{BranchProbe, BtbState};
use btb_trace::{Addr, BranchKind, TraceRecord, INST_BYTES};

/// One I-BTB entry: the metadata of a single branch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IEntry {
    kind: BranchKind,
    target: Addr,
}

/// The Instruction BTB organization.
#[derive(Debug, Clone)]
pub struct InstructionBtb {
    config: BtbConfig,
    width: usize,
    skip_taken: bool,
    store: TwoLevel<IEntry>,
}

impl InstructionBtb {
    /// Creates an I-BTB from a configuration whose kind must be
    /// [`OrgKind::Instruction`].
    ///
    /// # Panics
    /// Panics if the configuration is of a different organization kind.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        let OrgKind::Instruction { width, skip_taken } = config.kind else {
            panic!("InstructionBtb requires OrgKind::Instruction");
        };
        assert!(width > 0, "I-BTB width must be non-zero");
        InstructionBtb {
            store: TwoLevel::new(config.l1, config.l2),
            width,
            skip_taken,
            config,
        }
    }

    fn key(pc: Addr) -> u64 {
        pc >> 2
    }
}

impl BtbOrganization for InstructionBtb {
    fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(self.clone())
    }

    fn plan(&mut self, pc: Addr, oracle: &mut dyn PredictionProvider) -> FetchPlan {
        let mut segments = Vec::new();
        let mut branches = Vec::new();
        let mut used_l2 = false;
        let mut bubbles = 0u32;
        let mut cur = pc;
        let mut seg_start = pc;
        let mut produced = 0usize;
        while produced < self.width {
            if let Some((entry, level)) = self.store.lookup_fill(Self::key(cur)) {
                used_l2 |= level == BtbLevel::L2;
                let b = PlannedBranch::predict(cur, entry.kind, entry.target, level, oracle);
                branches.push(b);
                if b.taken {
                    produced += 1;
                    segments.push(PlanSegment {
                        start: seg_start,
                        end: cur + INST_BYTES,
                    });
                    let taken_bubbles = bubbles_for(level, b.kind, &self.config.timing);
                    if !self.skip_taken || produced >= self.width {
                        return FetchPlan {
                            access_pc: pc,
                            segments,
                            branches,
                            next_pc: b.target,
                            bubbles: taken_bubbles,
                            end: PlanEnd::TakenBranch,
                            used_l2,
                        };
                    }
                    // Idealized Skp: keep producing fetch PCs at the target.
                    bubbles = bubbles.max(taken_bubbles);
                    seg_start = b.target;
                    cur = b.target;
                    continue;
                }
            }
            produced += 1;
            cur += INST_BYTES;
        }
        segments.push(PlanSegment {
            start: seg_start,
            end: cur,
        });
        FetchPlan {
            access_pc: pc,
            segments,
            branches,
            next_pc: cur,
            bubbles,
            end: PlanEnd::WindowEnd,
            used_l2,
        }
    }

    fn update(&mut self, rec: &TraceRecord) {
        let Some(kind) = rec.branch_kind() else {
            return;
        };
        // Key property (§2): never-taken branches never allocate.
        if !rec.taken {
            return;
        }
        let target = rec.target;
        self.store.update_with(
            Self::key(rec.pc),
            || IEntry { kind, target },
            |e| {
                e.kind = kind;
                e.target = target;
            },
        );
    }

    fn preload(&mut self, pc: Addr) {
        // Promote every possible branch PC of the surrounding 512 B code
        // region (the z15 preloads branch metadata for a whole region on a
        // combined L1I + L1 BTB miss).
        let base = pc & !511;
        for off in 0..(512 / INST_BYTES) {
            self.store.promote(Self::key(base + off * INST_BYTES));
        }
    }

    fn probe_branch(&self, pc: Addr) -> Option<BranchProbe> {
        self.store
            .peek(Self::key(pc))
            .map(|(e, level)| BranchProbe {
                level,
                kind: e.kind,
                target: e.target,
            })
    }

    fn dump_state(&self) -> BtbState {
        let (l1, l2) = self
            .store
            .dump_levels(|e| format!("{:?}->{:#x}", e.kind, e.target));
        BtbState {
            l1,
            l2,
            aux: Vec::new(),
        }
    }

    fn inspect(&self) -> BtbInspection {
        BtbInspection::of(&self.store, 1, |k, _, add| add(k << 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FixedOracle;

    fn ideal(width: usize, skip: bool) -> InstructionBtb {
        InstructionBtb::new(BtbConfig::ideal(
            "test",
            OrgKind::Instruction {
                width,
                skip_taken: skip,
            },
        ))
    }

    fn taken(pc: Addr, kind: BranchKind, target: Addr) -> TraceRecord {
        TraceRecord::branch(pc, kind, true, target)
    }

    #[test]
    fn miss_produces_full_sequential_window() {
        let mut b = ideal(16, false);
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 16);
        assert_eq!(p.next_pc, 0x1040);
        assert_eq!(p.end, PlanEnd::WindowEnd);
        assert!(p.branches.is_empty());
    }

    #[test]
    fn taken_branch_ends_plan_at_target() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 3); // 0x1000, 0x1004, 0x1008
        assert_eq!(p.next_pc, 0x2000);
        assert_eq!(p.end, PlanEnd::TakenBranch);
        assert_eq!(p.bubbles, 0); // single-level ideal config
        assert_eq!(p.branches.len(), 1);
        assert!(p.branches[0].taken);
    }

    #[test]
    fn predicted_not_taken_cond_is_crossed() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1004, BranchKind::CondDirect, 0x2000));
        // Oracle predicts not-taken.
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 16);
        assert_eq!(p.next_pc, 0x1040);
        // But the branch was seen and recorded as predicted-not-taken.
        let br = p.branch_at(0x1004).expect("tracked");
        assert!(!br.taken);
    }

    #[test]
    fn predicted_taken_cond_redirects() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1004, BranchKind::CondDirect, 0x2000));
        let mut oracle = FixedOracle {
            taken: vec![0x1004],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1000, &mut oracle);
        assert_eq!(p.next_pc, 0x2000);
        assert_eq!(p.fetch_pcs(), 2);
    }

    #[test]
    fn skp_variant_crosses_taken_branches() {
        let mut b = ideal(16, true);
        b.update(&taken(0x1004, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2008, BranchKind::UncondDirect, 0x3000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        // 2 (to 0x1004) + 3 (0x2000..=0x2008) + rest at 0x3000 = 16 total.
        assert_eq!(p.fetch_pcs(), 16);
        assert_eq!(p.segments.len(), 3);
        assert_eq!(p.segments[1].start, 0x2000);
        assert_eq!(p.segments[2].start, 0x3000);
        assert_eq!(p.next_pc, 0x3000 + 11 * 4);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn width8_produces_at_most_8_pcs() {
        let mut b = ideal(8, false);
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.fetch_pcs(), 8);
    }

    #[test]
    fn never_taken_branches_do_not_allocate() {
        let mut b = ideal(16, false);
        b.update(&TraceRecord::branch(
            0x1004,
            BranchKind::CondDirect,
            false,
            0x2000,
        ));
        let ins = b.inspect();
        assert_eq!(ins.l1.entries, 0);
    }

    #[test]
    fn l2_hit_charges_bubbles_and_fills_l1() {
        // Tiny L1 (1 set × 1 way) backed by a large L2.
        let config = BtbConfig {
            name: "tiny".into(),
            kind: OrgKind::Instruction {
                width: 16,
                skip_taken: false,
            },
            l1: crate::config::LevelGeometry { sets: 1, ways: 1 },
            l2: Some(crate::config::LevelGeometry { sets: 64, ways: 4 }),
            timing: crate::config::BtbTiming::default(),
        };
        let mut b = InstructionBtb::new(config);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2000, BranchKind::UncondDirect, 0x1000)); // evicts 0x1000 from L1
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.next_pc, 0x2000);
        assert_eq!(p.bubbles, 3, "L2 hit costs 3 bubbles");
        assert!(p.used_l2);
        // Second access now hits L1 (filled).
        let p2 = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p2.bubbles, 0);
    }

    #[test]
    fn indirect_branch_uses_predictor_and_extra_bubble() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1000, BranchKind::IndirectJump, 0x5000));
        let mut oracle = FixedOracle {
            indirect: vec![(0x1000, 0x6000)],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1000, &mut oracle);
        assert_eq!(p.next_pc, 0x6000, "predictor target wins");
        assert_eq!(p.bubbles, 1, "non-return indirect extra bubble");
    }

    #[test]
    fn return_uses_ras_prediction() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1000, BranchKind::Return, 0x5000));
        let mut oracle = FixedOracle {
            returns: vec![0x7000],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1000, &mut oracle);
        assert_eq!(p.next_pc, 0x7000);
        assert_eq!(p.bubbles, 0, "returns don't pay the indirect bubble");
    }

    #[test]
    fn calls_are_noted_for_the_speculative_ras() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1008, BranchKind::DirectCall, 0x4000));
        let mut oracle = FixedOracle::default();
        let _ = b.plan(0x1000, &mut oracle);
        assert_eq!(oracle.noted_calls, vec![0x100c]);
    }

    #[test]
    fn indirect_target_updates_to_latest() {
        let mut b = ideal(16, false);
        b.update(&taken(0x1000, BranchKind::IndirectJump, 0x5000));
        b.update(&taken(0x1000, BranchKind::IndirectJump, 0x6000));
        let p = b.plan(0x1000, &mut FixedOracle::default());
        // No predictor answer: falls back to last stored target.
        assert_eq!(p.next_pc, 0x6000);
    }

    #[test]
    fn preload_promotes_region_from_l2() {
        let config = BtbConfig {
            name: "tiny".into(),
            kind: OrgKind::Instruction {
                width: 16,
                skip_taken: false,
            },
            l1: crate::config::LevelGeometry { sets: 1, ways: 1 },
            l2: Some(crate::config::LevelGeometry { sets: 64, ways: 4 }),
            timing: crate::config::BtbTiming::default(),
        };
        let mut b = InstructionBtb::new(config);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2000, BranchKind::UncondDirect, 0x1000)); // evicts from L1
                                                                    // Preload of the 0x1000 region brings the entry back to L1: the
                                                                    // next plan is a 0-bubble L1 hit.
        b.preload(0x1000);
        let p = b.plan(0x1000, &mut FixedOracle::default());
        assert_eq!(p.bubbles, 0, "preloaded entry must be an L1 hit");
        assert!(!p.used_l2);
    }

    #[test]
    fn inspection_counts_entries() {
        let mut b = ideal(16, false);
        for i in 0..10u64 {
            b.update(&taken(0x1000 + i * 64, BranchKind::UncondDirect, 0x9000));
        }
        let ins = b.inspect();
        assert_eq!(ins.l1.entries, 10);
        assert_eq!(ins.l1.distinct_branches, 10);
        assert!(
            (ins.l1.redundancy() - 1.0).abs() < 1e-9,
            "I-BTB never redundant"
        );
    }
}
