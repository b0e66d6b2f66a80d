//! Branch Target Buffer organizations — the core contribution of
//! *"Branch Target Buffer Organizations"* (Perais & Sheikh, MICRO 2023).
//!
//! This crate implements the four BTB entry organizations the paper studies,
//! each behind the common [`BtbOrganization`] trait:
//!
//! * [`InstructionBtb`] (I-BTB) — one entry per branch, banked lookups;
//!   includes the width-8 and idealized "Skp" variants of §5;
//! * [`RegionBtb`] (R-BTB) — one entry per aligned region with branch
//!   slots; includes 2L1 even/odd interleaving (§6.2), 128 B regions and,
//!   for [`OrgKind::RegionOverflow`], §3.5's shared overflow slots;
//! * [`BlockBtb`] (B-BTB) — one entry per dynamic block, with optional
//!   entry splitting (§6.3);
//! * [`MultiBlockBtb`] (MB-BTB, §6.4) — chains target blocks of
//!   unconditional/stable branches into single entries;
//! * [`HeteroBtb`] — a heterogeneous Block-L1 / Region-L2 hierarchy, the
//!   direction the paper's §3.6.2 leaves as future work.
//!
//! The two slotted entry formats are each implemented once, as a level: a
//! region level (region entries, optional overflow pool) and a block level
//! (block entries, splitting, the retire-side block tracker). R-BTB runs
//! the region level over a whole hierarchy, B-BTB the block level, and
//! Hetero a block-level L1 over a region-level L2.
//!
//! Every organization runs over a two-level hierarchy ([`TwoLevel`]) of
//! set-associative storage ([`SetAssoc`]) with the paper's Table 1 timing:
//! 0-cycle L1 turnaround, 3-bubble L2, one extra bubble for non-return
//! indirect branches.
//!
//! One BTB access produces a [`FetchPlan`] — the sequential fetch ranges the
//! access covers, every tracked branch it saw (with predictions obtained
//! through the caller-provided [`PredictionProvider`]), the next access
//! address and the bubbles separating the accesses. The simulator crate
//! consumes plans against the instruction trace.
//!
//! # Example
//! ```
//! use btb_core::{build_btb, BtbConfig, FixedOracle, OrgKind};
//! use btb_trace::{BranchKind, TraceRecord};
//!
//! let mut btb = build_btb(BtbConfig::ideal(
//!     "I-BTB 16",
//!     OrgKind::Instruction { width: 16, skip_taken: false },
//! ));
//! btb.update(&TraceRecord::branch(0x1008, BranchKind::UncondDirect, true, 0x2000));
//! let plan = btb.plan(0x1000, &mut FixedOracle::default());
//! assert_eq!(plan.next_pc, 0x2000);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bbtb;
mod config;
mod hetero;
mod hierarchy;
mod ibtb;
mod inspect;
mod mbbtb;
mod org;
mod plan;
mod probe;
mod rbtb;
mod slot;
mod storage;

pub use bbtb::BlockBtb;
pub use config::{BtbConfig, BtbLevel, BtbTiming, LevelGeometry, OrgKind, PullPolicy};
pub use hetero::HeteroBtb;
pub use hierarchy::TwoLevel;
pub use ibtb::InstructionBtb;
pub use inspect::{BtbInspection, LevelInspection};
pub use mbbtb::MultiBlockBtb;
pub use org::{bubbles_for, BtbOrganization};
pub use plan::{FetchPlan, FixedOracle, PlanEnd, PlanSegment, PlannedBranch, PredictionProvider};
pub use probe::{BranchProbe, BtbState, LevelState};
pub use rbtb::RegionBtb;
pub use storage::SetAssoc;

/// Builds the organization described by `config`.
///
/// # Examples
/// ```
/// use btb_core::{build_btb, BtbConfig, OrgKind};
/// let btb = build_btb(BtbConfig::ideal(
///     "R-BTB 2BS",
///     OrgKind::Region { region_bytes: 64, slots: 2, dual_interleave: false },
/// ));
/// assert_eq!(btb.name(), "R-BTB 2BS");
/// ```
#[must_use]
pub fn build_btb(config: BtbConfig) -> Box<dyn BtbOrganization> {
    match config.kind {
        OrgKind::Instruction { .. } => Box::new(InstructionBtb::new(config)),
        OrgKind::Region { .. } | OrgKind::RegionOverflow { .. } => Box::new(RegionBtb::new(config)),
        OrgKind::Block { .. } => Box::new(BlockBtb::new(config)),
        OrgKind::HeteroBlockRegion { .. } => Box::new(HeteroBtb::new(config)),
        OrgKind::MultiBlock { .. } => Box::new(MultiBlockBtb::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let kinds = [
            OrgKind::Instruction {
                width: 16,
                skip_taken: false,
            },
            OrgKind::Region {
                region_bytes: 64,
                slots: 2,
                dual_interleave: true,
            },
            OrgKind::Block {
                block_insts: 16,
                slots: 1,
                split: true,
            },
            OrgKind::MultiBlock {
                block_insts: 16,
                slots: 2,
                pull: PullPolicy::AllBranches,
                stability_threshold: 63,
                allow_last_slot_pull: false,
            },
        ];
        for kind in kinds {
            let btb = build_btb(BtbConfig::ideal("k", kind));
            assert_eq!(btb.config().kind, kind);
        }
    }
}
