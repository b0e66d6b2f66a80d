//! MultiBlock BTB (§6.4): a Block BTB whose entries chain the target blocks
//! of eligible terminating branches, providing multiple blocks' worth of
//! fetch PCs per access.
//!
//! Eligible branches (per [`PullPolicy`]): unconditional direct jumps,
//! optionally direct calls, optionally always-taken conditionals (pulled
//! immediately on allocation) and indirect branches whose target repeated
//! `stability_threshold` times in a row (a 6-bit counter per slot, §6.4.2).
//! The entry's last branch slot never pulls (§6.4.2), reducing redundancy.
//! When a pulled branch changes behaviour, the pulled blocks are removed
//! immediately (§6.4.3).

use crate::config::{BtbConfig, BtbLevel, OrgKind, PullPolicy};
use crate::hierarchy::TwoLevel;
use crate::inspect::BtbInspection;
use crate::org::{bubbles_for, BtbOrganization};
use crate::plan::{FetchPlan, PlanEnd, PlanSegment, PlannedBranch, PredictionProvider};
use crate::probe::{BranchProbe, BtbState};
use btb_trace::{Addr, BranchKind, TraceRecord, INST_BYTES};

/// One branch slot of a MultiBlock entry (Fig. 6: `br_type`, `br_offset`,
/// `br_target`, `br_blk_id`, `br_follow`, `br_stabl_ctr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MbSlot {
    /// Index of the chained block this branch belongs to.
    pub(crate) blk: u8,
    /// Instruction offset within its block.
    pub(crate) offset: u16,
    pub(crate) kind: BranchKind,
    pub(crate) target: Addr,
    /// Whether the branch's target block is pulled into this entry.
    pub(crate) follow: bool,
    /// Stability counter for indirect branches (6-bit in the paper).
    pub(crate) stabl: u8,
}

/// One MultiBlock entry: a chain of block start addresses plus branch slots
/// ordered by `(blk, offset)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct MbEntry {
    /// Start addresses of the chained blocks; `block_starts[0]` is the
    /// entry's own start address.
    pub(crate) block_starts: Vec<Addr>,
    pub(crate) slots: Vec<MbSlot>,
}

impl MbEntry {
    fn slot_pos(&self, blk: u8, offset: u16) -> Result<usize, usize> {
        self.slots
            .binary_search_by_key(&(blk, offset), |s| (s.blk, s.offset))
    }

    /// Truncates the chain so that `last_blk` is the final block: drops
    /// later blocks and any slots inside them, and unfollows the terminator.
    fn truncate_after(&mut self, last_blk: u8) {
        self.block_starts.truncate(usize::from(last_blk) + 1);
        self.slots.retain(|s| s.blk <= last_blk);
        if let Some(s) = self.slots.last_mut() {
            if s.blk == last_blk && s.follow {
                s.follow = false;
            }
        }
    }

    /// Validates structural invariants; used in tests and debug assertions.
    pub(crate) fn check_invariants(&self, capacity: usize) -> Result<(), String> {
        if self.block_starts.is_empty() {
            return Err("entry has no blocks".into());
        }
        if self.slots.len() > capacity {
            return Err("slot capacity exceeded".into());
        }
        if self.block_starts.len() > capacity + 1 {
            return Err("block chain too long".into());
        }
        for w in self.slots.windows(2) {
            if (w[0].blk, w[0].offset) >= (w[1].blk, w[1].offset) {
                return Err("slots not strictly ordered".into());
            }
        }
        for s in &self.slots {
            if usize::from(s.blk) >= self.block_starts.len() {
                return Err("slot references missing block".into());
            }
        }
        // Each non-final block must be terminated by a follow slot whose
        // target is the next block's start.
        for k in 0..self.block_starts.len() - 1 {
            let term = self
                .slots
                .iter()
                .filter(|s| usize::from(s.blk) == k)
                .max_by_key(|s| s.offset)
                .ok_or("chained block has no terminator")?;
            if !term.follow {
                return Err("chained block terminator lacks follow".into());
            }
            if term.target != self.block_starts[k + 1] {
                return Err("follow target does not match next block".into());
            }
        }
        Ok(())
    }
}

/// Canonical content string for an [`MbEntry`] (state dumps).
fn fmt_mbentry(e: &MbEntry) -> String {
    let blocks = e
        .block_starts
        .iter()
        .map(|b| format!("{b:#x}"))
        .collect::<Vec<_>>()
        .join(",");
    let slots = e
        .slots
        .iter()
        .map(|s| {
            format!(
                "b{}o{}:{:?}->{:#x}f{}s{}",
                s.blk,
                s.offset,
                s.kind,
                s.target,
                u8::from(s.follow),
                s.stabl
            )
        })
        .collect::<Vec<_>>()
        .join(";");
    format!("[{blocks}]{slots}")
}

/// What the retire-side walker should do after recording a taken branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TakenOutcome {
    /// The branch's target block is chained into the entry: stay on the
    /// same anchor, move to the next block index.
    Pulled,
    /// The entry ends at this branch: the walker re-anchors at the target.
    Ended,
}

/// The MultiBlock BTB organization.
#[derive(Debug, Clone)]
pub struct MultiBlockBtb {
    config: BtbConfig,
    block_insts: usize,
    slots: usize,
    pull: PullPolicy,
    threshold: u8,
    allow_last_slot_pull: bool,
    store: TwoLevel<MbEntry>,
    /// Retire-side walker state: current entry anchor, chained block index
    /// and that block's start address.
    walker: Option<(Addr, u8, Addr)>,
}

impl MultiBlockBtb {
    /// Creates an MB-BTB from a configuration whose kind must be
    /// [`OrgKind::MultiBlock`].
    ///
    /// # Panics
    /// Panics if the configuration is of a different organization kind.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        let OrgKind::MultiBlock {
            block_insts,
            slots,
            pull,
            stability_threshold,
            allow_last_slot_pull,
        } = config.kind
        else {
            panic!("MultiBlockBtb requires OrgKind::MultiBlock");
        };
        assert!(block_insts > 0, "block reach must be non-zero");
        assert!(slots > 0, "MB-BTB needs at least one branch slot");
        MultiBlockBtb {
            store: TwoLevel::new(config.l1, config.l2),
            block_insts,
            slots,
            pull,
            threshold: stability_threshold,
            allow_last_slot_pull,
            config,
            walker: None,
        }
    }

    fn block_bytes(&self) -> u64 {
        self.block_insts as u64 * INST_BYTES
    }

    fn key(pc: Addr) -> u64 {
        pc >> 2
    }

    /// Whether `kind` may pull its target block under the current policy.
    fn kind_eligible(&self, kind: BranchKind) -> bool {
        match kind {
            BranchKind::UncondDirect => true,
            BranchKind::DirectCall => {
                matches!(self.pull, PullPolicy::CallDirect | PullPolicy::AllBranches)
            }
            BranchKind::CondDirect | BranchKind::IndirectJump | BranchKind::IndirectCall => {
                matches!(self.pull, PullPolicy::AllBranches)
            }
            BranchKind::Return => false,
        }
    }

    /// Records a taken branch at `(blk, offset)` of the entry anchored at
    /// `anchor`; returns the walker outcome.
    fn record_taken(
        &mut self,
        anchor: Addr,
        blk: u8,
        blk_start: Addr,
        offset: u16,
        kind: BranchKind,
        target: Addr,
    ) -> TakenOutcome {
        let key = Self::key(anchor);
        let mut e = self
            .store
            .peek_authoritative(key)
            .cloned()
            .unwrap_or_default();
        if e.block_starts.is_empty() {
            e.block_starts.push(anchor);
        }
        // Walker/entry divergence (eviction, concurrent truncation): the
        // caller pre-validates, but guard anyway.
        if usize::from(blk) >= e.block_starts.len() || e.block_starts[usize::from(blk)] != blk_start
        {
            return TakenOutcome::Ended;
        }
        let outcome = self.apply_taken(&mut e, blk, offset, kind, target);
        debug_assert_eq!(e.check_invariants(self.slots), Ok(()));
        self.store.write_both(key, e);
        outcome
    }

    fn apply_taken(
        &self,
        e: &mut MbEntry,
        blk: u8,
        offset: u16,
        kind: BranchKind,
        target: Addr,
    ) -> TakenOutcome {
        let capacity = self.slots;
        let pos = match e.slot_pos(blk, offset) {
            Ok(pos) => {
                // Existing slot: refresh, handle indirect target stability.
                let eligible = self.kind_eligible(kind);
                let s = &mut e.slots[pos];
                let target_changed = s.target != target;
                let was_follow = s.follow;
                s.kind = kind;
                if kind.is_indirect() && kind != BranchKind::Return {
                    if target_changed {
                        // §6.4.3: behaviour change — reset and unchain.
                        s.stabl = 0;
                    } else {
                        s.stabl = s.stabl.saturating_add(1).min(self.threshold);
                    }
                }
                s.target = target;
                if was_follow && (target_changed || !eligible) {
                    e.truncate_after(blk);
                }
                pos
            }
            Err(_) => {
                // A taken branch beyond the block's chained terminator means
                // execution passed the terminator without leaving the block:
                // the chain from here on is stale — drop it first.
                if usize::from(blk) + 1 < e.block_starts.len() {
                    let term_off = e
                        .slots
                        .iter()
                        .filter(|s| s.blk == blk)
                        .map(|s| s.offset)
                        .max();
                    if term_off.is_none_or(|t| offset > t) {
                        e.truncate_after(blk);
                    }
                }
                if e.slots.len() >= capacity {
                    // Overflow: truncate the chain from its youngest slot,
                    // freeing one slot, keeping the early chain intact.
                    let victim = e.slots.pop().expect("slots at capacity");
                    let last_blk = e.slots.last().map_or(0, |s| s.blk).max(if victim.blk > 0 {
                        victim.blk - 1
                    } else {
                        0
                    });
                    // Blocks beyond the remaining slots are unreachable.
                    let keep = usize::from(
                        e.slots
                            .iter()
                            .filter(|s| s.follow)
                            .map(|s| s.blk + 1)
                            .max()
                            .unwrap_or(0),
                    ) + 1;
                    e.block_starts.truncate(keep);
                    let _ = last_blk;
                    // If the new branch now lies beyond the chain, drop it.
                    if usize::from(blk) >= e.block_starts.len() {
                        return TakenOutcome::Ended;
                    }
                    // Also drop surviving slots beyond the chain (none by
                    // ordering, but keep the structure safe).
                    let limit = e.block_starts.len() as u8;
                    e.slots.retain(|s| s.blk < limit);
                }
                let at = e
                    .slots
                    .partition_point(|s| (s.blk, s.offset) < (blk, offset));
                e.slots.insert(
                    at,
                    MbSlot {
                        blk,
                        offset,
                        kind,
                        target,
                        follow: false,
                        stabl: if kind.is_indirect() && kind != BranchKind::Return {
                            0
                        } else {
                            self.threshold
                        },
                    },
                );
                at
            }
        };
        // Pull decision for this slot.
        let slot = e.slots[pos].clone();
        let is_last_in_entry = pos == e.slots.len() - 1;
        if !is_last_in_entry {
            // Mid-chain branch: chained already iff follow and next block
            // matches.
            if slot.follow && e.block_starts.get(usize::from(blk) + 1) == Some(&slot.target) {
                return TakenOutcome::Pulled;
            }
            return TakenOutcome::Ended;
        }
        // Terminating slot: may it pull?
        let already_chained =
            slot.follow && e.block_starts.get(usize::from(blk) + 1) == Some(&slot.target);
        if already_chained {
            return TakenOutcome::Pulled;
        }
        let slot_index_ok = pos < self.slots - 1 || self.allow_last_slot_pull;
        let stable = slot.stabl >= self.threshold;
        if self.kind_eligible(slot.kind)
            && stable
            && slot_index_ok
            && e.block_starts.len() < self.slots + 1
            && usize::from(blk) + 1 == e.block_starts.len()
        {
            e.slots[pos].follow = true;
            e.block_starts.push(slot.target);
            return TakenOutcome::Pulled;
        }
        TakenOutcome::Ended
    }

    /// Handles a not-taken conditional: downgrades a pulled branch (§6.4.3).
    fn record_not_taken(&mut self, anchor: Addr, blk: u8, offset: u16) {
        let key = Self::key(anchor);
        let Some(cur) = self.store.peek_authoritative(key) else {
            return;
        };
        let Ok(pos) = cur.slot_pos(blk, offset) else {
            return;
        };
        let slot = &cur.slots[pos];
        if !slot.follow && slot.stabl == 0 {
            return;
        }
        let mut e = cur.clone();
        if e.slots[pos].follow {
            e.truncate_after(blk);
        }
        // §6.4.2 implicit filtering: a conditional observed not-taken is not
        // "always taken" and permanently loses pull eligibility.
        e.slots[pos].stabl = 0;
        debug_assert_eq!(e.check_invariants(self.slots), Ok(()));
        self.store.write_both(key, e);
    }
}

impl BtbOrganization for MultiBlockBtb {
    fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(self.clone())
    }

    fn plan(&mut self, pc: Addr, oracle: &mut dyn PredictionProvider) -> FetchPlan {
        let Some((entry, level)) = self.store.lookup_fill(Self::key(pc)) else {
            return FetchPlan::sequential(pc, self.block_insts as u64);
        };
        let used_l2 = level == BtbLevel::L2;
        let timing = self.config.timing;
        let mut segments = Vec::new();
        let mut branches = Vec::new();
        let mut seg_start = pc;
        let finish = |segments: Vec<PlanSegment>,
                      branches: Vec<PlannedBranch>,
                      next_pc: Addr,
                      bubbles: u32,
                      end: PlanEnd| FetchPlan {
            access_pc: pc,
            segments,
            branches,
            next_pc,
            bubbles,
            end,
            used_l2,
        };
        for slot in &entry.slots {
            let blk_start = entry.block_starts[usize::from(slot.blk)];
            let slot_pc = blk_start + u64::from(slot.offset) * INST_BYTES;
            let chained = slot.follow
                && entry.block_starts.get(usize::from(slot.blk) + 1) == Some(&slot.target);
            match slot.kind {
                BranchKind::CondDirect => {
                    let taken = oracle.predict_cond(slot_pc);
                    branches.push(PlannedBranch {
                        pc: slot_pc,
                        kind: slot.kind,
                        taken,
                        target: slot.target,
                        level,
                    });
                    if taken {
                        segments.push(PlanSegment {
                            start: seg_start,
                            end: slot_pc + INST_BYTES,
                        });
                        if chained {
                            seg_start = slot.target;
                            continue;
                        }
                        return finish(
                            segments,
                            branches,
                            slot.target,
                            bubbles_for(level, slot.kind, &timing),
                            PlanEnd::TakenBranch,
                        );
                    }
                    if chained {
                        // Pulled conditional predicted not-taken: the entry
                        // cannot supply the fall-through — bundle ends
                        // (the §6.4.1 "non-taken branch penalty").
                        segments.push(PlanSegment {
                            start: seg_start,
                            end: slot_pc + INST_BYTES,
                        });
                        return finish(
                            segments,
                            branches,
                            slot_pc + INST_BYTES,
                            0,
                            PlanEnd::WindowEnd,
                        );
                    }
                    // Plain not-taken conditional: continue in the block.
                }
                BranchKind::UncondDirect | BranchKind::DirectCall => {
                    branches.push(PlannedBranch {
                        pc: slot_pc,
                        kind: slot.kind,
                        taken: true,
                        target: slot.target,
                        level,
                    });
                    if slot.kind.is_call() {
                        oracle.note_call(slot_pc + INST_BYTES);
                    }
                    segments.push(PlanSegment {
                        start: seg_start,
                        end: slot_pc + INST_BYTES,
                    });
                    if chained {
                        seg_start = slot.target;
                        continue;
                    }
                    return finish(
                        segments,
                        branches,
                        slot.target,
                        bubbles_for(level, slot.kind, &timing),
                        PlanEnd::TakenBranch,
                    );
                }
                BranchKind::IndirectJump | BranchKind::IndirectCall => {
                    let predicted = oracle.predict_indirect(slot_pc).unwrap_or(slot.target);
                    branches.push(PlannedBranch {
                        pc: slot_pc,
                        kind: slot.kind,
                        taken: true,
                        target: predicted,
                        level,
                    });
                    if slot.kind.is_call() {
                        oracle.note_call(slot_pc + INST_BYTES);
                    }
                    segments.push(PlanSegment {
                        start: seg_start,
                        end: slot_pc + INST_BYTES,
                    });
                    if chained && predicted == slot.target {
                        seg_start = slot.target;
                        continue;
                    }
                    return finish(
                        segments,
                        branches,
                        predicted,
                        bubbles_for(level, slot.kind, &timing),
                        PlanEnd::TakenBranch,
                    );
                }
                BranchKind::Return => {
                    let predicted = oracle.predict_return(slot_pc).unwrap_or(slot.target);
                    branches.push(PlannedBranch {
                        pc: slot_pc,
                        kind: slot.kind,
                        taken: true,
                        target: predicted,
                        level,
                    });
                    segments.push(PlanSegment {
                        start: seg_start,
                        end: slot_pc + INST_BYTES,
                    });
                    return finish(
                        segments,
                        branches,
                        predicted,
                        bubbles_for(level, slot.kind, &timing),
                        PlanEnd::TakenBranch,
                    );
                }
            }
        }
        // All slots crossed not-taken (or none): the last block runs to its
        // fall-through grid boundary.
        let last_start = *entry.block_starts.last().expect("non-empty chain");
        let end = last_start + self.block_bytes();
        segments.push(PlanSegment {
            start: seg_start,
            end,
        });
        finish(segments, branches, end, 0, PlanEnd::WindowEnd)
    }

    fn update(&mut self, rec: &TraceRecord) {
        let Some(kind) = rec.branch_kind() else {
            return;
        };
        let (mut anchor, mut blk, mut blk_start) = self.walker.unwrap_or((rec.pc, 0, rec.pc));
        if rec.pc < blk_start {
            // Desynchronized (first record); re-anchor.
            anchor = rec.pc;
            blk = 0;
            blk_start = rec.pc;
        }
        // Fall-through over the block grid breaks the chain.
        while rec.pc >= blk_start + self.block_bytes() {
            blk_start += self.block_bytes();
            anchor = blk_start;
            blk = 0;
        }
        // Re-validate the walker's chain view against the entry.
        if blk > 0 {
            let ok = self
                .store
                .peek_authoritative(Self::key(anchor))
                .is_some_and(|e| e.block_starts.get(usize::from(blk)) == Some(&blk_start));
            if !ok {
                anchor = blk_start;
                blk = 0;
            }
        }
        let offset = ((rec.pc - blk_start) / INST_BYTES) as u16;
        if rec.taken {
            let outcome = self.record_taken(anchor, blk, blk_start, offset, kind, rec.target);
            self.walker = Some(match outcome {
                TakenOutcome::Pulled => (anchor, blk + 1, rec.target),
                TakenOutcome::Ended => (rec.target, 0, rec.target),
            });
        } else {
            self.record_not_taken(anchor, blk, offset);
            self.walker = Some((anchor, blk, blk_start));
        }
    }

    fn probe_branch(&self, pc: Addr) -> Option<BranchProbe> {
        // Only anchor-resident (block 0) slots are probed: chained copies
        // live under other anchors and are covered by state-dump equality.
        for d in 0..self.block_insts as u64 {
            let Some(start) = pc.checked_sub(d * INST_BYTES) else {
                break;
            };
            if let Some((e, level)) = self.store.peek(Self::key(start)) {
                if e.block_starts.first() == Some(&start) {
                    if let Ok(pos) = e.slot_pos(0, d as u16) {
                        let s = &e.slots[pos];
                        return Some(BranchProbe {
                            level,
                            kind: s.kind,
                            target: s.target,
                        });
                    }
                }
            }
        }
        None
    }

    fn dump_state(&self) -> BtbState {
        let (l1, l2) = self.store.dump_levels(fmt_mbentry);
        BtbState {
            l1,
            l2,
            aux: Vec::new(),
        }
    }

    fn inspect(&self) -> BtbInspection {
        BtbInspection::of(&self.store, self.slots, |_, e, add| {
            for slot in &e.slots {
                if let Some(start) = e.block_starts.get(usize::from(slot.blk)) {
                    add(start + u64::from(slot.offset) * INST_BYTES);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FixedOracle;

    fn ideal(slots: usize, pull: PullPolicy) -> MultiBlockBtb {
        ideal_with(16, slots, pull, 63)
    }

    fn ideal_with(block_insts: usize, slots: usize, pull: PullPolicy, thr: u8) -> MultiBlockBtb {
        MultiBlockBtb::new(BtbConfig::ideal(
            "test",
            OrgKind::MultiBlock {
                block_insts,
                slots,
                pull,
                stability_threshold: thr,
                allow_last_slot_pull: false,
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
    fn uncond_jump_pulls_target_block() {
        let mut b = ideal(2, PullPolicy::UncondDirect);
        // Block 0x1000 ends with an uncond jump to 0x2000; block 0x2000 has
        // another branch. Visit twice so the chain forms then is used.
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x1008));
        // Walker state: entry 0x1008 (first anchor was rec.pc)... access the
        // entry that tracked 0x1008.
        let p = b.plan(0x1008, &mut FixedOracle::default());
        // One access provides both blocks: [0x1008..0x100c) + [0x2000..0x2014).
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.fetch_pcs(), 1 + 5);
        assert_eq!(p.next_pc, 0x1008);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn calls_pull_only_with_calldir() {
        for (policy, expect_chain) in [
            (PullPolicy::UncondDirect, false),
            (PullPolicy::CallDirect, true),
        ] {
            let mut b = ideal(2, policy);
            b.update(&taken(0x1008, BranchKind::DirectCall, 0x2000));
            b.update(&taken(0x2010, BranchKind::Return, 0x100c));
            let p = b.plan(0x1008, &mut FixedOracle::default());
            assert_eq!(
                p.segments.len() == 2,
                expect_chain,
                "policy {policy:?}: {p:?}"
            );
        }
    }

    #[test]
    fn returns_never_pull() {
        let mut b = ideal(2, PullPolicy::AllBranches);
        b.update(&taken(0x1008, BranchKind::Return, 0x2000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x3000));
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert_eq!(p.segments.len(), 1);
    }

    #[test]
    fn always_taken_cond_pulls_immediately_with_allbr() {
        let mut b = ideal(2, PullPolicy::AllBranches);
        b.update(&taken(0x1008, BranchKind::CondDirect, 0x2000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x1008));
        let mut oracle = FixedOracle {
            taken: vec![0x1008],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1008, &mut oracle);
        assert_eq!(p.segments.len(), 2, "{p:?}");
    }

    #[test]
    fn not_taken_downgrades_pulled_conditional() {
        let mut b = ideal(2, PullPolicy::AllBranches);
        b.update(&taken(0x1008, BranchKind::CondDirect, 0x2000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x1000));
        // The conditional now goes not-taken: pulled block must be removed.
        b.update(&not_taken(0x1008, 0x2000));
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert_eq!(p.segments.len(), 1);
        // The branch itself stays tracked as a normal conditional.
        assert!(p.branch_at(0x1008).is_some());
    }

    #[test]
    fn indirect_needs_stability_threshold() {
        let mut b = ideal_with(16, 2, PullPolicy::AllBranches, 3);
        for i in 0..5 {
            b.update(&taken(0x1008, BranchKind::IndirectJump, 0x2000));
            // Returns never pull, so the walker re-anchors at 0x1008's
            // entry on every round and its stability counter advances.
            b.update(&taken(0x2010, BranchKind::Return, 0x1008));
            let p = b.plan(0x1008, &mut FixedOracle::default());
            if i < 3 {
                assert_eq!(p.segments.len(), 1, "iteration {i}: too early to pull");
            }
        }
        let mut oracle = FixedOracle {
            indirect: vec![(0x1008, 0x2000)],
            ..FixedOracle::default()
        };
        let p = b.plan(0x1008, &mut oracle);
        assert_eq!(p.segments.len(), 2, "stable indirect should chain");
    }

    #[test]
    fn indirect_target_change_breaks_chain() {
        let mut b = ideal_with(16, 2, PullPolicy::AllBranches, 2);
        for _ in 0..4 {
            b.update(&taken(0x1008, BranchKind::IndirectJump, 0x2000));
            b.update(&taken(0x2010, BranchKind::Return, 0x1008));
        }
        // Now the indirect jumps elsewhere.
        b.update(&taken(0x1008, BranchKind::IndirectJump, 0x5000));
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.next_pc, 0x5000, "stored target follows the change");
    }

    #[test]
    fn last_slot_never_pulls_by_default() {
        // Capacity 1: the only slot is the last slot — pulling disallowed.
        let mut b = ideal(1, PullPolicy::UncondDirect);
        b.update(&taken(0x1008, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2010, BranchKind::UncondDirect, 0x1008));
        let p = b.plan(0x1008, &mut FixedOracle::default());
        assert_eq!(p.segments.len(), 1, "capacity-1 entries cannot chain");
    }

    #[test]
    fn chain_depth_bounded_by_slots_plus_one() {
        let mut b = ideal(3, PullPolicy::UncondDirect);
        // A cycle of 4 one-jump blocks; revisit to build chains.
        let blocks = [0x1000u64, 0x2000, 0x3000, 0x4000];
        for _ in 0..4 {
            for (i, &s) in blocks.iter().enumerate() {
                let next = blocks[(i + 1) % blocks.len()];
                b.update(&taken(s + 8, BranchKind::UncondDirect, next));
            }
        }
        for &s in &blocks {
            if let Some(e) = b.store.peek_authoritative(MultiBlockBtb::key(s)) {
                assert!(e.block_starts.len() <= 4);
                assert_eq!(e.check_invariants(3), Ok(()));
            }
        }
    }

    #[test]
    fn plan_fetch_pcs_exceed_single_block() {
        let mut b = ideal(3, PullPolicy::CallDirect);
        // foo: jump chain a -> b -> c with branches at small offsets.
        b.update(&taken(0x1004, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2004, BranchKind::UncondDirect, 0x3000));
        b.update(&taken(0x3004, BranchKind::UncondDirect, 0x1004));
        // Revisit so chaining settles.
        b.update(&taken(0x1004, BranchKind::UncondDirect, 0x2000));
        b.update(&taken(0x2004, BranchKind::UncondDirect, 0x3000));
        b.update(&taken(0x3004, BranchKind::UncondDirect, 0x1004));
        let p = b.plan(0x1004, &mut FixedOracle::default());
        assert!(
            p.fetch_pcs() >= 4,
            "chained plan should cross blocks: {p:?}"
        );
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn walker_survives_fall_through_grid() {
        let mut b = ideal(2, PullPolicy::UncondDirect);
        b.update(&taken(0x1000, BranchKind::UncondDirect, 0x2000));
        // 16+ instructions with no taken branch: next branch belongs to the
        // fall-through block 0x2040.
        b.update(&taken(0x2050, BranchKind::UncondDirect, 0x9000));
        let p = b.plan(0x2040, &mut FixedOracle::default());
        // The branch is tracked at the fall-through block 0x2040, and its
        // target block (0x9000) is pulled: the plan crosses into it.
        assert!(p.branch_at(0x2050).is_some());
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.segments[1].start, 0x9000);
        assert_eq!(p.next_pc, 0x9040, "fall-through of the pulled block");
    }

    #[test]
    fn entry_invariants_hold_under_random_updates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = ideal(2, PullPolicy::AllBranches);
        let pcs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 0x40).collect();
        let kinds = [
            BranchKind::UncondDirect,
            BranchKind::CondDirect,
            BranchKind::DirectCall,
            BranchKind::IndirectJump,
            BranchKind::Return,
        ];
        // A static instruction's kind never changes; direct targets are
        // fixed, indirect targets vary.
        let mut meta: HashMap<u64, (BranchKind, u64)> = HashMap::new();
        for _ in 0..5000 {
            let pc = pcs[rng.gen_range(0..pcs.len())] + rng.gen_range(0..8u64) * 4;
            let fallback = (
                kinds[rng.gen_range(0..kinds.len())],
                pcs[rng.gen_range(0..pcs.len())],
            );
            let (kind, fixed_target) = *meta.entry(pc).or_insert(fallback);
            let target = if kind.is_indirect() {
                pcs[rng.gen_range(0..pcs.len())]
            } else {
                fixed_target
            };
            let taken_now = kind != BranchKind::CondDirect || rng.gen_bool(0.7);
            b.update(&TraceRecord::branch(pc, kind, taken_now, target));
        }
        for (_k, e) in b.store.l1().iter() {
            assert_eq!(e.check_invariants(2), Ok(()), "{e:?}");
        }
    }
}
