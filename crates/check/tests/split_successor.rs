//! Pins the one rule in which Hetero's block L1 and B-BTB differ: when an
//! entry split moves a branch into a successor entry that already holds
//! that branch, B-BTB refreshes the successor's slot (kind, target and
//! recency) while Hetero leaves it unchanged. The golden models encode the
//! same two rules, so both sides must agree, and the probe shows which
//! target survived. The divergence is kept for byte identity of existing
//! reports; changing it is a model change.

use btb_check::golden_for;
use btb_core::{build_btb, BtbConfig, BtbTiming, LevelGeometry, OrgKind};
use btb_trace::{BranchKind, TraceRecord};

fn records() -> Vec<TraceRecord> {
    let t = |pc, kind, target| TraceRecord::branch(pc, kind, true, target);
    vec![
        t(0x1000, BranchKind::UncondDirect, 0x2000),
        t(0x2004, BranchKind::CondDirect, 0x3000),
        t(0x3000, BranchKind::UncondDirect, 0x2008),
        // Block 0x2008 (entered from 0x3000) learns the indirect jump.
        t(0x2010, BranchKind::IndirectJump, 0x4000),
        t(0x4000, BranchKind::UncondDirect, 0x2000),
        TraceRecord::branch(0x2004, BranchKind::CondDirect, false, 0x3000),
        // Block 0x2000 overflows its single slot and splits after 0x2004:
        // the jump moves to successor 0x2008, which already tracks it.
        t(0x2010, BranchKind::IndirectJump, 0x5000),
    ]
}

fn geometry() -> LevelGeometry {
    LevelGeometry { sets: 64, ways: 4 }
}

fn check(config: BtbConfig, expected_target: u64) {
    let mut real = build_btb(config.clone());
    let mut golden = golden_for(&config);
    for rec in records() {
        real.update(&rec);
        golden.update(&rec);
    }
    assert_eq!(real.dump_state(), golden.dump_state(), "{}", config.name);
    let probe = real.probe_branch(0x2010).expect("0x2010 tracked");
    assert_eq!(golden.probe_branch(0x2010), Some(probe));
    assert_eq!(probe.target, expected_target, "{}", config.name);
}

#[test]
fn hetero_keeps_the_successor_slot() {
    let config = BtbConfig {
        name: "Hetero 1BS Splt".into(),
        kind: OrgKind::HeteroBlockRegion {
            block_insts: 16,
            l1_slots: 1,
            split: true,
            region_bytes: 64,
            l2_slots: 4,
        },
        l1: geometry(),
        l2: Some(geometry()),
        timing: BtbTiming::default(),
    };
    check(config, 0x4000);
}

#[test]
fn block_btb_refreshes_the_successor_slot() {
    let config = BtbConfig {
        name: "B-BTB 1BS Splt".into(),
        kind: OrgKind::Block {
            block_insts: 16,
            slots: 1,
            split: true,
        },
        l1: geometry(),
        l2: None,
        timing: BtbTiming::default(),
    };
    check(config, 0x5000);
}
