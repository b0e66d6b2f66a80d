//! Program execution: walks a [`Program`]'s CFG and emits the dynamic
//! instruction trace.
//!
//! The executor is an infinite [`Iterator`] over [`TraceRecord`]s (the root
//! function dispatches requests forever); callers take as many instructions
//! as they need. Execution is fully deterministic given the seed.

use crate::cfg::{
    Block, BlockId, CondBehavior, FnId, IndirectBehavior, MemPattern, Program, Terminator,
};
use crate::record::{Addr, BranchKind, Op, TraceRecord, INST_BYTES, NO_REG};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Walks the program's control-flow graph, producing one [`TraceRecord`] per
/// dynamic instruction.
///
/// # Examples
/// ```
/// use btb_trace::{build_program, TraceExecutor, WorkloadProfile};
/// let profile = WorkloadProfile::tiny(3);
/// let prog = build_program(&profile);
/// let records: Vec<_> = TraceExecutor::new(&prog, profile.seed).take(1000).collect();
/// assert_eq!(records.len(), 1000);
/// ```
#[derive(Debug)]
pub struct TraceExecutor<'p> {
    prog: &'p Program,
    rng: SmallRng,
    cond_state: Vec<u32>,
    ind_state: Vec<u64>,
    mem_state: Vec<u64>,
    /// Lazily computed cumulative weights for Zipf indirect sites.
    zipf_cum: Vec<Option<Vec<f64>>>,
    /// Call stack of (function, resume block) continuations.
    stack: Vec<(FnId, BlockId)>,
    cur_fn: FnId,
    cur_block: BlockId,
    /// Next body index to emit; `== body.len()` means the terminator is next.
    pos: usize,
}

impl<'p> TraceExecutor<'p> {
    /// Creates an executor positioned at the root function's entry.
    #[must_use]
    pub fn new(prog: &'p Program, seed: u64) -> Self {
        TraceExecutor {
            prog,
            rng: SmallRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03),
            cond_state: vec![0; prog.cond_sites.len()],
            ind_state: vec![0; prog.indirect_sites.len()],
            mem_state: vec![0; prog.num_mem_sites as usize],
            zipf_cum: vec![None; prog.indirect_sites.len()],
            stack: Vec::with_capacity(64),
            cur_fn: FnId(0),
            cur_block: BlockId(0),
            pos: 0,
        }
    }

    /// Current call-stack depth (useful for tests).
    #[must_use]
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    fn block(&self) -> &'p Block {
        self.prog.block(self.cur_fn, self.cur_block)
    }

    fn goto(&mut self, f: FnId, b: BlockId) {
        self.cur_fn = f;
        self.cur_block = b;
        self.pos = 0;
    }

    /// Evaluates a conditional site, advancing its state.
    fn eval_cond(&mut self, site: u32) -> bool {
        match self.prog.cond_sites[site as usize] {
            CondBehavior::Bias(p) => {
                if p <= 0.0 {
                    false
                } else if p >= 1.0 {
                    true
                } else {
                    self.rng.gen_bool(p)
                }
            }
            CondBehavior::Loop { trip } => {
                let c = &mut self.cond_state[site as usize];
                if *c + 1 < trip {
                    *c += 1;
                    true
                } else {
                    *c = 0;
                    false
                }
            }
            CondBehavior::Pattern { bits, len } => {
                let c = &mut self.cond_state[site as usize];
                let taken = (bits >> (*c % u32::from(len))) & 1 == 1;
                *c = (*c + 1) % u32::from(len);
                taken
            }
        }
    }

    /// Selects a target index among `k` candidates, advancing site state.
    fn eval_indirect(&mut self, site: u32, k: usize) -> usize {
        debug_assert!(k > 0);
        match self.prog.indirect_sites[site as usize] {
            IndirectBehavior::Single => 0,
            IndirectBehavior::RoundRobin => {
                let c = &mut self.ind_state[site as usize];
                let idx = (*c % k as u64) as usize;
                *c += 1;
                idx
            }
            IndirectBehavior::Zipf { skew_x100 } => self.zipf_pick(site, k, skew_x100),
            IndirectBehavior::Bursty {
                skew_x100,
                mean_burst,
            } => {
                let state = self.ind_state[site as usize];
                let (cur, remaining) = ((state >> 32) as usize, state & 0xffff_ffff);
                if remaining > 0 {
                    self.ind_state[site as usize] = state - 1;
                    cur.min(k - 1)
                } else {
                    let next = self.zipf_pick(site, k, skew_x100);
                    let mean = f64::from(mean_burst.max(1));
                    let u: f64 = self.rng.gen_range(1e-9..1.0);
                    let burst = (-mean * (1.0 - u).ln()).round().max(1.0) as u64;
                    self.ind_state[site as usize] = ((next as u64) << 32) | (burst - 1);
                    next
                }
            }
        }
    }

    /// Zipf-skewed target choice over `k` candidates.
    fn zipf_pick(&mut self, site: u32, k: usize, skew_x100: u16) -> usize {
        let cum = self.zipf_cum[site as usize].get_or_insert_with(|| {
            let s = f64::from(skew_x100) / 100.0;
            let mut acc = 0.0;
            (0..k)
                .map(|i| {
                    acc += 1.0 / ((i + 1) as f64).powf(s);
                    acc
                })
                .collect()
        });
        let total = *cum.last().expect("k > 0");
        let r = self.rng.gen_range(0.0..total);
        cum.iter().position(|&c| r < c).unwrap_or(k - 1)
    }

    /// Computes the effective address for a memory body-op, advancing
    /// per-site stride state.
    fn eval_mem(&mut self, mem: &crate::cfg::MemRef) -> Addr {
        let region = u64::from(mem.region_size.max(8));
        match mem.pattern {
            MemPattern::Fixed => {
                // A stable per-site slot inside the region.
                let h = (u64::from(mem.site).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % region;
                mem.region_base + (h & !7)
            }
            MemPattern::Stride { stride } => {
                let st = &mut self.mem_state[mem.site as usize];
                let off = *st % region;
                *st = (*st + u64::from(stride.max(1))) % region;
                mem.region_base + (off & !7)
            }
            MemPattern::Random => {
                let off = self.rng.gen_range(0..region);
                mem.region_base + (off & !7)
            }
        }
    }

    /// Emits the terminator record for the current block and moves to the
    /// next block. Returns `None` for fall-throughs (no instruction).
    fn step_terminator(&mut self) -> Option<TraceRecord> {
        let block = self.block();
        let f = self.cur_fn;
        match block.term.clone() {
            Terminator::FallThrough { dst } => {
                self.goto(f, dst);
                None
            }
            Terminator::Jump { dst } => {
                let pc = block.term_addr();
                let target = self.prog.block(f, dst).addr;
                self.goto(f, dst);
                Some(TraceRecord::branch(
                    pc,
                    BranchKind::UncondDirect,
                    true,
                    target,
                ))
            }
            Terminator::CondJump {
                dst,
                fallthrough,
                site,
            } => {
                let pc = block.term_addr();
                let target = self.prog.block(f, dst).addr;
                let taken = self.eval_cond(site.0);
                self.goto(f, if taken { dst } else { fallthrough });
                Some(TraceRecord::branch(
                    pc,
                    BranchKind::CondDirect,
                    taken,
                    target,
                ))
            }
            Terminator::Call { callee, ret_to } => {
                let pc = block.term_addr();
                let target = self.prog.functions[callee.0 as usize].entry();
                self.stack.push((f, ret_to));
                self.goto(callee, BlockId(0));
                Some(TraceRecord::branch(
                    pc,
                    BranchKind::DirectCall,
                    true,
                    target,
                ))
            }
            Terminator::IndirectCall {
                callees,
                site,
                ret_to,
            } => {
                let pc = block.term_addr();
                let idx = self.eval_indirect(site.0, callees.len());
                let callee = callees[idx];
                let target = self.prog.functions[callee.0 as usize].entry();
                self.stack.push((f, ret_to));
                self.goto(callee, BlockId(0));
                Some(TraceRecord::branch(
                    pc,
                    BranchKind::IndirectCall,
                    true,
                    target,
                ))
            }
            Terminator::IndirectJump { dsts, site } => {
                let pc = block.term_addr();
                let idx = self.eval_indirect(site.0, dsts.len());
                let dst = dsts[idx];
                let target = self.prog.block(f, dst).addr;
                self.goto(f, dst);
                Some(TraceRecord::branch(
                    pc,
                    BranchKind::IndirectJump,
                    true,
                    target,
                ))
            }
            Terminator::Return => {
                let pc = block.term_addr();
                let (rf, rb) = self
                    .stack
                    .pop()
                    .expect("root function never returns by construction");
                let target = self.prog.block(rf, rb).addr;
                self.goto(rf, rb);
                Some(TraceRecord::branch(pc, BranchKind::Return, true, target))
            }
        }
    }
}

impl Iterator for TraceExecutor<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        loop {
            let block = self.block();
            if self.pos < block.body.len() {
                let idx = self.pos;
                self.pos += 1;
                let op = block.body[idx];
                let pc = block.addr + idx as u64 * INST_BYTES;
                let mem_addr = match &op.mem {
                    Some(m) => self.eval_mem(m),
                    None => 0,
                };
                debug_assert!(!matches!(op.op, Op::Branch(_)));
                return Some(TraceRecord {
                    pc,
                    op: op.op,
                    taken: false,
                    target: 0,
                    mem_addr,
                    srcs: op.srcs,
                    dsts: op.dsts,
                });
            }
            // Terminator; fall-throughs produce no record, so loop.
            if let Some(rec) = self.step_terminator() {
                return Some(rec);
            }
        }
    }
}

/// A named in-memory dynamic trace.
///
/// The trace readers ([`crate::read_trace`], [`crate::TraceReader`])
/// reject addresses above [`crate::MAX_CODE_ADDR`]; traces built in code
/// are not checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Workload name the trace was generated from. Shared (`Arc<str>`) so
    /// that per-run report labelling never copies the string.
    pub name: std::sync::Arc<str>,
    /// Retired instructions in program order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Generates an `n`-instruction trace for a profile (building the program
    /// and executing it).
    ///
    /// # Examples
    /// ```
    /// use btb_trace::{Trace, WorkloadProfile};
    /// let t = Trace::generate(&WorkloadProfile::tiny(1), 5000);
    /// assert_eq!(t.records.len(), 5000);
    /// ```
    #[must_use]
    pub fn generate(profile: &crate::profile::WorkloadProfile, n: usize) -> Self {
        let prog = crate::build::build_program(profile);
        let records = TraceExecutor::new(&prog, profile.seed).take(n).collect();
        Trace {
            name: profile.name.as_str().into(),
            records,
        }
    }

    /// Number of instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Checks sequential-consistency invariants of a trace: every instruction
/// must start where the previous one said control goes next.
///
/// # Errors
/// Returns the index of the first control-flow discontinuity.
pub fn check_control_flow(records: &[TraceRecord]) -> Result<(), usize> {
    for i in 1..records.len() {
        let prev = &records[i - 1];
        if records[i].pc != prev.next_pc() {
            return Err(i);
        }
    }
    // Non-branches must never be taken; taken branches must have targets.
    for (i, r) in records.iter().enumerate() {
        if !r.op.is_branch() && r.taken {
            return Err(i);
        }
        if r.taken && r.target == 0 {
            return Err(i);
        }
        if r.op.is_branch() {
            let k = r.op.branch_kind().expect("is_branch");
            if k.is_unconditional() && !r.taken {
                return Err(i);
            }
        }
        let _ = NO_REG; // silence unused import in non-debug builds
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_program;
    use crate::profile::WorkloadProfile;

    #[test]
    fn execution_is_deterministic() {
        let profile = WorkloadProfile::tiny(21);
        let prog = build_program(&profile);
        let a: Vec<_> = TraceExecutor::new(&prog, 5).take(20_000).collect();
        let b: Vec<_> = TraceExecutor::new(&prog, 5).take(20_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn control_flow_is_sequentially_consistent() {
        let t = Trace::generate(&WorkloadProfile::tiny(4), 50_000);
        assert_eq!(check_control_flow(&t.records), Ok(()));
    }

    #[test]
    fn calls_and_returns_balance() {
        let profile = WorkloadProfile::tiny(8);
        let prog = build_program(&profile);
        let mut depth: i64 = 0;
        let mut max_depth: i64 = 0;
        for r in TraceExecutor::new(&prog, profile.seed).take(100_000) {
            match r.branch_kind() {
                Some(k) if k.is_call() => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                Some(BranchKind::Return) => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "return without call");
        }
        assert!(max_depth >= 2, "no nesting observed");
        // Bounded by the layer count.
        assert!(max_depth < 16, "runaway call depth {max_depth}");
    }

    #[test]
    fn returns_target_the_call_fallthrough() {
        let profile = WorkloadProfile::tiny(13);
        let prog = build_program(&profile);
        let mut stack = Vec::new();
        for r in TraceExecutor::new(&prog, profile.seed).take(100_000) {
            match r.branch_kind() {
                Some(k) if k.is_call() => stack.push(r.pc + INST_BYTES),
                Some(BranchKind::Return) => {
                    let expect = stack.pop().expect("balanced");
                    assert_eq!(r.target, expect, "return target mismatch");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn loop_sites_iterate_expected_times() {
        // A 5-trip loop site should be taken 4 times then not taken, cyclically.
        let prog = Program {
            functions: vec![],
            cond_sites: vec![CondBehavior::Loop { trip: 5 }],
            indirect_sites: vec![],
            num_mem_sites: 0,
        };
        // Drive eval_cond directly via a dummy executor on a minimal program.
        let minimal = crate::build::build_program(&WorkloadProfile::tiny(0));
        let mut ex = TraceExecutor::new(&minimal, 0);
        // Overwrite with our site table view: emulate by constructing state.
        // Instead, test the behaviour through a purpose-built executor:
        let mut ex2 = TraceExecutor {
            prog: &prog,
            rng: SmallRng::seed_from_u64(0),
            cond_state: vec![0],
            ind_state: vec![],
            mem_state: vec![],
            zipf_cum: vec![],
            stack: vec![],
            cur_fn: FnId(0),
            cur_block: BlockId(0),
            pos: 0,
        };
        let outcomes: Vec<bool> = (0..10).map(|_| ex2.eval_cond(0)).collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, true, false, true, true, true, true, false]
        );
        let _ = &mut ex;
    }

    #[test]
    fn single_target_indirects_always_pick_zero() {
        let prog = Program {
            functions: vec![],
            cond_sites: vec![],
            indirect_sites: vec![IndirectBehavior::Single],
            num_mem_sites: 0,
        };
        let mut ex = TraceExecutor {
            prog: &prog,
            rng: SmallRng::seed_from_u64(0),
            cond_state: vec![],
            ind_state: vec![0],
            mem_state: vec![],
            zipf_cum: vec![None],
            stack: vec![],
            cur_fn: FnId(0),
            cur_block: BlockId(0),
            pos: 0,
        };
        for _ in 0..50 {
            assert_eq!(ex.eval_indirect(0, 7), 0);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let prog = Program {
            functions: vec![],
            cond_sites: vec![],
            indirect_sites: vec![IndirectBehavior::RoundRobin],
            num_mem_sites: 0,
        };
        let mut ex = TraceExecutor {
            prog: &prog,
            rng: SmallRng::seed_from_u64(0),
            cond_state: vec![],
            ind_state: vec![0],
            mem_state: vec![],
            zipf_cum: vec![None],
            stack: vec![],
            cur_fn: FnId(0),
            cur_block: BlockId(0),
            pos: 0,
        };
        let picks: Vec<usize> = (0..6).map(|_| ex.eval_indirect(0, 3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn zipf_prefers_first_target() {
        let prog = Program {
            functions: vec![],
            cond_sites: vec![],
            indirect_sites: vec![IndirectBehavior::Zipf { skew_x100: 150 }],
            num_mem_sites: 0,
        };
        let mut ex = TraceExecutor {
            prog: &prog,
            rng: SmallRng::seed_from_u64(42),
            cond_state: vec![],
            ind_state: vec![0],
            mem_state: vec![],
            zipf_cum: vec![None],
            stack: vec![],
            cur_fn: FnId(0),
            cur_block: BlockId(0),
            pos: 0,
        };
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[ex.eval_indirect(0, 8)] += 1;
        }
        assert!(counts[0] > counts[7] * 3, "zipf skew missing: {counts:?}");
    }

    #[test]
    fn mem_addresses_stay_in_region() {
        let t = Trace::generate(&WorkloadProfile::tiny(30), 50_000);
        for r in &t.records {
            if r.op.is_mem() {
                assert_ne!(r.mem_addr, 0);
                assert_eq!(r.mem_addr % 8, 0, "unaligned access");
            }
        }
    }
}
