//! Fetch plans: the product of one BTB access.
//!
//! A plan describes, for a single BTB access cycle, the sequential
//! instruction ranges the PC-generation stage enqueues into the FTQ, every
//! tracked branch it saw (with its prediction), where the *next* BTB access
//! will be made and how many bubbles separate the two accesses. The
//! simulator consumes plans against the trace, charging misfetch and
//! misprediction penalties where the plan and the actual path disagree.

use crate::config::{BtbLevel, BtbTiming};
use crate::org::bubbles_for;
use btb_trace::{Addr, BranchKind, INST_BYTES};

/// A branch the BTB access saw and predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBranch {
    /// Branch PC.
    pub pc: Addr,
    /// Branch kind stored in the BTB entry.
    pub kind: BranchKind,
    /// Predicted direction (always true for unconditional kinds).
    pub taken: bool,
    /// Predicted target when predicted taken (stored target for direct
    /// branches, predictor/RAS output for indirect kinds).
    pub target: Addr,
    /// Level of the entry that provided the branch.
    pub level: BtbLevel,
}

impl PlannedBranch {
    /// Predicts the tracked branch at `pc` whose entry, provided by
    /// `level`, stores `kind` and `target`; a predicted-taken call is
    /// noted with the oracle.
    #[inline]
    pub(crate) fn predict(
        pc: Addr,
        kind: BranchKind,
        target: Addr,
        level: BtbLevel,
        oracle: &mut dyn PredictionProvider,
    ) -> Self {
        let (taken, target) = match kind {
            BranchKind::CondDirect => (oracle.predict_cond(pc), target),
            BranchKind::UncondDirect | BranchKind::DirectCall => (true, target),
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                (true, oracle.predict_indirect(pc).unwrap_or(target))
            }
            BranchKind::Return => (true, oracle.predict_return(pc).unwrap_or(target)),
        };
        if kind.is_call() && taken {
            oracle.note_call(pc + INST_BYTES);
        }
        PlannedBranch {
            pc,
            kind,
            taken,
            target,
            level,
        }
    }
}

/// One contiguous range of fetch PCs produced by an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSegment {
    /// First instruction address (inclusive).
    pub start: Addr,
    /// End address (exclusive).
    pub end: Addr,
}

impl PlanSegment {
    /// Number of instruction PCs in the segment.
    #[must_use]
    pub fn num_insts(&self) -> u64 {
        (self.end.saturating_sub(self.start)) / INST_BYTES
    }

    /// Whether `pc` lies within the segment.
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.start && pc < self.end
    }
}

/// Why a plan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEnd {
    /// A predicted-taken branch redirected fetch.
    TakenBranch,
    /// The access window was exhausted (sequential fall-through).
    WindowEnd,
}

/// The full product of one BTB access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchPlan {
    /// Address the access was made with.
    pub access_pc: Addr,
    /// Sequential fetch ranges in fetch order (multiple segments only for
    /// organizations that cross taken branches in one access: MB-BTB chains
    /// and the idealized I-BTB Skp).
    pub segments: Vec<PlanSegment>,
    /// Every tracked branch the access saw, in fetch order.
    pub branches: Vec<PlannedBranch>,
    /// Address of the next BTB access.
    pub next_pc: Addr,
    /// Bubbles between this access and the next (0 = back-to-back).
    pub bubbles: u32,
    /// Why the plan ended.
    pub end: PlanEnd,
    /// Whether any consulted entry came from the L2 (for hit statistics).
    pub used_l2: bool,
}

impl FetchPlan {
    /// A purely sequential plan covering `[pc, pc + insts*4)` with no branch
    /// knowledge (what a BTB miss produces: the frontend speculates
    /// sequentially).
    #[must_use]
    pub fn sequential(pc: Addr, insts: u64) -> Self {
        let end = pc + insts * INST_BYTES;
        FetchPlan {
            access_pc: pc,
            segments: vec![PlanSegment { start: pc, end }],
            branches: Vec::new(),
            next_pc: end,
            bubbles: 0,
            end: PlanEnd::WindowEnd,
            used_l2: false,
        }
    }

    /// A one-segment plan from `access_pc`. When the last of `branches` is
    /// predicted taken, the plan ends there and pays that branch's bubbles
    /// plus `extra_bubbles`; otherwise it runs sequentially to `window_end`.
    #[inline]
    pub(crate) fn one_segment(
        access_pc: Addr,
        branches: Vec<PlannedBranch>,
        window_end: Addr,
        used_l2: bool,
        timing: &BtbTiming,
        extra_bubbles: u32,
    ) -> Self {
        let (end, next_pc, bubbles, why) = match branches.last() {
            Some(b) if b.taken => (
                b.pc + INST_BYTES,
                b.target,
                bubbles_for(b.level, b.kind, timing) + extra_bubbles,
                PlanEnd::TakenBranch,
            ),
            _ => (window_end, window_end, 0, PlanEnd::WindowEnd),
        };
        FetchPlan {
            access_pc,
            segments: vec![PlanSegment {
                start: access_pc,
                end,
            }],
            branches,
            next_pc,
            bubbles,
            end: why,
            used_l2,
        }
    }

    /// Total fetch PCs the plan provides (the paper's "fetch PCs per BTB
    /// access" metric, Fig. 10).
    #[must_use]
    pub fn fetch_pcs(&self) -> u64 {
        self.segments.iter().map(PlanSegment::num_insts).sum()
    }

    /// The planned branch at `pc`, if the access saw one there.
    #[must_use]
    pub fn branch_at(&self, pc: Addr) -> Option<&PlannedBranch> {
        self.branches.iter().find(|b| b.pc == pc)
    }

    /// Validates internal consistency (segments ordered, branches inside
    /// segments). Used by tests and debug assertions.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("plan has no segments".into());
        }
        if self.segments[0].start != self.access_pc {
            return Err("first segment must start at the access pc".into());
        }
        for s in &self.segments {
            if s.end < s.start {
                return Err(format!("segment {s:?} is inverted"));
            }
        }
        for b in &self.branches {
            if !self.segments.iter().any(|s| s.contains(b.pc)) {
                return Err(format!("branch {:#x} outside all segments", b.pc));
            }
        }
        Ok(())
    }
}

/// Direction/target prediction services the plan builder consumes.
///
/// Implemented by the simulator around its live predictors; the trait lets
/// the BTB organizations stay independent of predictor implementations.
pub trait PredictionProvider {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict_cond(&mut self, pc: Addr) -> bool;
    /// Predicts the target of the non-return indirect branch at `pc`.
    fn predict_indirect(&mut self, pc: Addr) -> Option<Addr>;
    /// Predicts the return target at `pc`, accounting for calls earlier in
    /// the plan being built.
    fn predict_return(&mut self, pc: Addr) -> Option<Addr>;
    /// Informs the provider that the plan contains a call whose return
    /// address is `ret_addr` (keeps the speculative RAS coherent).
    fn note_call(&mut self, ret_addr: Addr);
}

/// A [`PredictionProvider`] with fixed answers, for unit tests.
#[derive(Debug, Clone, Default)]
pub struct FixedOracle {
    /// PCs predicted taken.
    pub taken: Vec<Addr>,
    /// Indirect target predictions.
    pub indirect: Vec<(Addr, Addr)>,
    /// Return target predictions (popped front to back).
    pub returns: Vec<Addr>,
    /// Calls noted by the plan builder.
    pub noted_calls: Vec<Addr>,
}

impl PredictionProvider for FixedOracle {
    fn predict_cond(&mut self, pc: Addr) -> bool {
        self.taken.contains(&pc)
    }

    fn predict_indirect(&mut self, pc: Addr) -> Option<Addr> {
        self.indirect
            .iter()
            .find(|(p, _)| *p == pc)
            .map(|(_, t)| *t)
    }

    fn predict_return(&mut self, _pc: Addr) -> Option<Addr> {
        if self.returns.is_empty() {
            None
        } else {
            Some(self.returns.remove(0))
        }
    }

    fn note_call(&mut self, ret_addr: Addr) {
        self.noted_calls.push(ret_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_plan_covers_requested_window() {
        let p = FetchPlan::sequential(0x1000, 16);
        assert_eq!(p.fetch_pcs(), 16);
        assert_eq!(p.next_pc, 0x1040);
        assert_eq!(p.bubbles, 0);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn branch_lookup_by_pc() {
        let mut p = FetchPlan::sequential(0x1000, 16);
        p.branches.push(PlannedBranch {
            pc: 0x1008,
            kind: BranchKind::CondDirect,
            taken: false,
            target: 0x2000,
            level: BtbLevel::L1,
        });
        assert!(p.branch_at(0x1008).is_some());
        assert!(p.branch_at(0x100c).is_none());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_branch_outside_segments() {
        let mut p = FetchPlan::sequential(0x1000, 4);
        p.branches.push(PlannedBranch {
            pc: 0x2000,
            kind: BranchKind::CondDirect,
            taken: true,
            target: 0x3000,
            level: BtbLevel::L1,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn segment_containment() {
        let s = PlanSegment {
            start: 0x100,
            end: 0x110,
        };
        assert!(s.contains(0x100));
        assert!(s.contains(0x10c));
        assert!(!s.contains(0x110));
        assert_eq!(s.num_insts(), 4);
    }

    #[test]
    fn fixed_oracle_behaviour() {
        let mut o = FixedOracle {
            taken: vec![0x10],
            indirect: vec![(0x20, 0x9000)],
            returns: vec![0x30],
            noted_calls: vec![],
        };
        assert!(o.predict_cond(0x10));
        assert!(!o.predict_cond(0x14));
        assert_eq!(o.predict_indirect(0x20), Some(0x9000));
        assert_eq!(o.predict_return(0x0), Some(0x30));
        assert_eq!(o.predict_return(0x0), None);
        o.note_call(0x44);
        assert_eq!(o.noted_calls, vec![0x44]);
    }
}
