//! Pins every roster configuration's `plan` output.
//!
//! The golden models compare update-side state only (probes and state
//! dumps), so this test is the tier-1 check on the plan side: it replays a
//! fixed `db-oltp` trace through each configuration and, before every taken
//! branch's update, plans one BTB access at the branch's target with a fixed
//! arithmetic [`PredictionProvider`]. Every field of every plan, plus the
//! calls the plan builder noted, is folded into one SHA-256 per
//! configuration and compared with a committed digest.
//!
//! A plan-side model change is expected to move these digests; re-bless by
//! running the test and copying the printed values.

use btb_check::campaign_configs;
use btb_core::{build_btb, FetchPlan, PredictionProvider};
use btb_store::Sha256;
use btb_trace::{server_suite, Addr, Trace};

/// Trace length (records, branches and non-branches alike).
const RECORDS: usize = 40_000;

/// Taken branches in the trace, hence plans per configuration.
const PLANS: usize = 2_707;

/// `(config name, digest)`, measured on the organizations as they were
/// before they were rebuilt over the shared region and block levels.
const PINS: &[(&str, &str)] = &[
    (
        "I-BTB 16 ideal",
        "718d92fd95fee89af08eaef99d0a475db8f119460af88db7b82bb57f7d610560",
    ),
    (
        "I-BTB 16",
        "97fb600e48136b92a1ad40a02ccfeef42200d92c214619fe8b3f1e4f15ae05c9",
    ),
    (
        "R-BTB 2BS",
        "4ca0563b834d77bb5d3ca1a2a5bc03bf01df4d446104e9112a118e8271fb84c7",
    ),
    (
        "2L1 R-BTB 4BS",
        "2df3f925ce2dfb965ea8c9613cd493bf0c8c90b00027f9c011194f3624d63dd9",
    ),
    (
        "R-OVF 2BS",
        "cc92353bb4183f95680ca4381a095cd6362f9ba097779eb56fbd6fb169f1235e",
    ),
    (
        "B-BTB 1BS",
        "30a22873e0dc34fd022852b6d3bd50057652f74bab4a33aee7cfa6a12e20caec",
    ),
    (
        "B-BTB 2BS Splt",
        "3e2d5b6760decc17a27780463167ef67a8a05c78a428b7fc6415a4fbc063941c",
    ),
    (
        "MB-BTB 2BS All",
        "63745ebdf524f0c7577ad4b4f9ed4bcf5b8a92338bbf378dd7262bc09911d8be",
    ),
    (
        "Hetero B/R",
        "6e33a5d70ca64766f0a541c601a5c2840acd0ec21ae94337f50ec81bf8c2b734",
    ),
];

/// Deterministic predictions derived from the branch PC only; noted calls
/// are kept for the digest.
#[derive(Default)]
struct Arithmetic {
    calls: Vec<Addr>,
}

impl PredictionProvider for Arithmetic {
    fn predict_cond(&mut self, pc: Addr) -> bool {
        !(pc >> 2).is_multiple_of(3)
    }

    fn predict_indirect(&mut self, pc: Addr) -> Option<Addr> {
        (pc >> 2).is_multiple_of(2).then_some((pc ^ 0x5a5a0) & !3)
    }

    fn predict_return(&mut self, pc: Addr) -> Option<Addr> {
        ((pc >> 2) % 4 != 1).then_some(pc + 0x40)
    }

    fn note_call(&mut self, ret_addr: Addr) {
        self.calls.push(ret_addr);
    }
}

fn fold(h: &mut Sha256, plan: &FetchPlan, calls: &[Addr]) {
    let mut words = vec![
        plan.access_pc,
        plan.next_pc,
        u64::from(plan.bubbles),
        u64::from(plan.used_l2),
        plan.end as u64,
        plan.segments.len() as u64,
    ];
    for s in &plan.segments {
        words.extend([s.start, s.end]);
    }
    words.push(plan.branches.len() as u64);
    for b in &plan.branches {
        words.extend([
            b.pc,
            b.kind as u64,
            u64::from(b.taken),
            b.target,
            b.level as u64,
        ]);
    }
    words.push(calls.len() as u64);
    words.extend_from_slice(calls);
    for w in words {
        h.update(&w.to_le_bytes());
    }
}

#[test]
fn roster_plans_match_their_pins() {
    let profile = server_suite()
        .into_iter()
        .find(|p| p.name == "db-oltp")
        .expect("db-oltp in the server suite");
    let trace = Trace::generate(&profile, RECORDS);
    let mut measured = Vec::new();
    for config in campaign_configs() {
        let mut btb = build_btb(config.clone());
        let mut h = Sha256::new();
        let mut plans = 0usize;
        for rec in &trace.records {
            if rec.taken && rec.branch_kind().is_some() {
                let mut oracle = Arithmetic::default();
                let plan = btb.plan(rec.target, &mut oracle);
                fold(&mut h, &plan, &oracle.calls);
                plans += 1;
            }
            btb.update(rec);
        }
        assert_eq!(plans, PLANS, "{}: taken branches", config.name);
        measured.push((config.name, h.finish().to_hex()));
    }
    for (name, hex) in &measured {
        println!("    ({name:?}, {hex:?}),");
    }
    for (name, hex) in &measured {
        let pin = PINS.iter().find(|(n, _)| n == name).map(|&(_, h)| h);
        assert_eq!(pin, Some(hex.as_str()), "{name}: plan digest moved");
    }
}
