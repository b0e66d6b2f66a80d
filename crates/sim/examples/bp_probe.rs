//! Developer probe: measures hashed-perceptron accuracy per conditional
//! site behaviour class (never/always/biased/pattern/loop/hard) on a
//! server workload, standalone from the pipeline.
//!
//! ```text
//! cargo run --release -p btb-sim --example bp_probe
//! ```

use btb_bpred::*;
use btb_trace::*;
use std::collections::HashMap;

fn main() {
    let profile = WorkloadProfile::server("srv", 7);
    let prog = build_program(&profile);
    // map cond pc -> behavior
    let mut site_of: HashMap<u64, CondBehavior> = HashMap::new();
    for f in &prog.functions {
        for b in &f.blocks {
            if let Terminator::CondJump { site, .. } = &b.term {
                site_of.insert(b.term_addr(), prog.cond_sites[site.0 as usize]);
            }
        }
    }
    let mut p = HashedPerceptron::new(PerceptronConfig::paper());
    let mut h = p.history();
    let mut by_class: HashMap<&str, (u64, u64)> = HashMap::new();
    for rec in TraceExecutor::new(&prog, profile.seed).take(4_000_000) {
        if rec.branch_kind() != Some(BranchKind::CondDirect) {
            continue;
        }
        let out = p.predict(rec.pc, &h);
        p.update(rec.pc, &h, out, rec.taken);
        h.push(rec.taken);
        let class = match site_of.get(&rec.pc) {
            Some(CondBehavior::Bias(x)) if *x <= 0.0 => "never",
            Some(CondBehavior::Bias(x)) if *x >= 1.0 => "always",
            Some(CondBehavior::Bias(x)) if *x > 0.2 && *x < 0.8 => "hard",
            Some(CondBehavior::Bias(_)) => "biased",
            Some(CondBehavior::Loop { .. }) => "loop",
            Some(CondBehavior::Pattern { .. }) => "pattern",
            None => "unknown",
        };
        let e = by_class.entry(class).or_insert((0, 0));
        e.0 += 1;
        if out.taken != rec.taken {
            e.1 += 1;
        }
    }
    let mut total = (0u64, 0u64);
    for (c, (n, m)) in &by_class {
        println!(
            "{:<8} exec {:>8}  mispred {:>7}  rate {:.2}%",
            c,
            n,
            m,
            100.0 * *m as f64 / *n as f64
        );
        total.0 += n;
        total.1 += m;
    }
    println!(
        "TOTAL    exec {:>8}  mispred {:>7}  rate {:.2}%  (cond mpki over 1M: {:.2})",
        total.0,
        total.1,
        100.0 * total.1 as f64 / total.0 as f64,
        total.1 as f64 / 4000.0
    );
}
