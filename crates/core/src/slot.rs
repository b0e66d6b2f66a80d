//! Branch slots: the unit both slotted entry formats are made of. A region
//! entry (§2.2) and a block entry (§2.3) each hold a few slots ordered by
//! instruction offset; everything the two formats share lives here.

use crate::config::BtbLevel;
use crate::plan::{PlannedBranch, PredictionProvider};
use btb_trace::{Addr, BranchKind, INST_BYTES};
use std::ops::Range;

/// One branch slot of a region or block entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Instruction offset within the entry's region or block.
    pub(crate) offset: u16,
    pub(crate) kind: BranchKind,
    pub(crate) target: Addr,
    /// Per-slot recency for the within-entry replacement policy.
    pub(crate) last_use: u64,
}

/// Inserts `new`, whose offset must be absent, in offset order.
#[inline]
pub(crate) fn insert(slots: &mut Vec<Slot>, new: Slot) {
    let at = slots.partition_point(|s| s.offset < new.offset);
    slots.insert(at, new);
}

/// Records `new` in an offset-ordered list of at most `max` slots: refreshes
/// the slot at the same offset, else inserts in order, else displaces the
/// least recently used slot (slot pressure, §3.5) and returns it.
#[inline]
pub(crate) fn record(slots: &mut Vec<Slot>, new: Slot, max: usize) -> Option<Slot> {
    if let Some(s) = slots.iter_mut().find(|s| s.offset == new.offset) {
        *s = new;
        return None;
    }
    let displaced = (slots.len() >= max).then(|| {
        let lru = (0..slots.len())
            .min_by_key(|&i| slots[i].last_use)
            .expect("slots non-empty");
        slots.remove(lru)
    });
    insert(slots, new);
    displaced
}

/// Predicts, in offset order, the slots of an entry based at `base` whose
/// PCs lie in `window`, appending them to `branches`. Stops after the first
/// predicted-taken slot and returns whether there was one.
#[inline]
pub(crate) fn walk(
    slots: &[Slot],
    base: Addr,
    window: Range<Addr>,
    level: BtbLevel,
    oracle: &mut dyn PredictionProvider,
    branches: &mut Vec<PlannedBranch>,
) -> bool {
    for s in slots {
        let pc = base + u64::from(s.offset) * INST_BYTES;
        // §3.6.1: slots before the access PC do not participate (the
        // offset comparison on the critical path).
        if !window.contains(&pc) {
            continue;
        }
        let b = PlannedBranch::predict(pc, s.kind, s.target, level, oracle);
        branches.push(b);
        if b.taken {
            return true;
        }
    }
    false
}

/// Canonical content string of a slot list (state dumps; the golden models
/// in `btb-check` format theirs the same way).
pub(crate) fn fmt_slots(slots: &[Slot]) -> String {
    slots
        .iter()
        .map(|s| format!("o{}:{:?}->{:#x}@{}", s.offset, s.kind, s.target, s.last_use))
        .collect::<Vec<_>>()
        .join(";")
}
