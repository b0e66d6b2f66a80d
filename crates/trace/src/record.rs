//! Dynamic trace records: the unit of information exchanged between the
//! workload generator and the simulator.
//!
//! The trace models a fixed-length ISA (ARMv8-like): every instruction is
//! [`INST_BYTES`] bytes long and aligned on [`INST_BYTES`], which is the
//! abstraction the paper itself uses (16 instructions = one 64 B region).

use serde::{Deserialize, Serialize};

/// A code or data address.
pub type Addr = u64;

/// Size in bytes of every instruction (fixed-length, ARMv8-like).
pub const INST_BYTES: u64 = 4;

/// The highest pc or branch target a trace or reproducer read from bytes
/// may hold. The last MiB of the address space is rejected: every window
/// the BTB organizations derive from a code address (plan windows and
/// preload regions, at most 512 B) must end below the top of the address
/// space, where address arithmetic would wrap or overflow.
pub const MAX_CODE_ADDR: Addr = u64::MAX - (1 << 20);

/// Register index used to mean "no register".
pub const NO_REG: u8 = u8::MAX;

/// Number of architectural registers modelled.
pub const NUM_REGS: usize = 32;

/// The flavour of a branch instruction.
///
/// The taxonomy follows the paper: direct conditionals, direct unconditional
/// jumps, direct calls, indirect jumps/calls and returns are treated
/// differently by the BTB organizations (e.g. MB-BTB pulling eligibility) and
/// by the pipeline (returns use the RAS, non-return indirects incur an extra
/// bubble).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Direct conditional branch (`b.cond`-like).
    CondDirect,
    /// Direct unconditional jump (`b`-like), excluding calls.
    UncondDirect,
    /// Direct call (`bl`-like). Pushes the return address on the RAS.
    DirectCall,
    /// Indirect jump through a register (`br`-like).
    IndirectJump,
    /// Indirect call through a register (`blr`-like). Pushes the RAS.
    IndirectCall,
    /// Function return (`ret`-like). Pops the RAS.
    Return,
}

impl BranchKind {
    /// Whether the branch target is encoded in the instruction bytes, so a
    /// BTB miss can be repaired at decode (misfetch) rather than execute.
    #[must_use]
    pub fn is_direct(self) -> bool {
        matches!(
            self,
            BranchKind::CondDirect | BranchKind::UncondDirect | BranchKind::DirectCall
        )
    }

    /// Whether this branch pushes a return address onto the RAS.
    #[must_use]
    pub fn is_call(self) -> bool {
        matches!(self, BranchKind::DirectCall | BranchKind::IndirectCall)
    }

    /// Whether the target comes from a register (indirect jumps and calls and
    /// returns).
    #[must_use]
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            BranchKind::IndirectJump | BranchKind::IndirectCall | BranchKind::Return
        )
    }

    /// Whether the branch may fall through (only conditionals can).
    #[must_use]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::CondDirect)
    }

    /// Whether the branch is always taken when executed (everything but
    /// conditionals).
    #[must_use]
    pub fn is_unconditional(self) -> bool {
        !self.is_conditional()
    }
}

/// The operation class of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Single-cycle integer ALU operation.
    Alu,
    /// Integer multiply (3-cycle).
    Mul,
    /// Integer divide (12-cycle, unpipelined in spirit).
    Div,
    /// Floating-point operation (4-cycle).
    Fp,
    /// Memory load; latency depends on the data-cache hierarchy.
    Load,
    /// Memory store.
    Store,
    /// Control-flow instruction of the given kind.
    Branch(BranchKind),
}

impl Op {
    /// Returns the branch kind if this is a branch.
    #[must_use]
    pub fn branch_kind(self) -> Option<BranchKind> {
        match self {
            Op::Branch(k) => Some(k),
            _ => None,
        }
    }

    /// Whether this is any control-flow instruction.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Branch(_))
    }

    /// Whether this instruction accesses data memory.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Load | Op::Store)
    }
}

/// One retired dynamic instruction.
///
/// Traces are sequences of `TraceRecord`s in program (retirement) order, the
/// same abstraction as the CVP-1 traces used by the paper: there is no
/// wrong-path information, so the simulator charges timing penalties instead
/// of simulating wrong-path fetch (the standard ChampSim methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Program counter of the instruction.
    pub pc: Addr,
    /// Operation class.
    pub op: Op,
    /// For branches: whether the branch was taken. Non-branches: `false`.
    pub taken: bool,
    /// For taken branches: the target address. Otherwise 0.
    pub target: Addr,
    /// For loads/stores: the effective data address. Otherwise 0.
    pub mem_addr: Addr,
    /// Source registers ([`NO_REG`] = unused slot).
    pub srcs: [u8; 3],
    /// Destination registers ([`NO_REG`] = unused slot).
    pub dsts: [u8; 2],
}

impl TraceRecord {
    /// Whether neither the pc nor the target lies above [`MAX_CODE_ADDR`],
    /// the rule the trace and reproducer readers enforce.
    #[must_use]
    pub fn in_code_range(&self) -> bool {
        self.pc <= MAX_CODE_ADDR && self.target <= MAX_CODE_ADDR
    }

    /// A non-branch ALU record with no register operands, useful in tests.
    #[must_use]
    pub fn nop(pc: Addr) -> Self {
        TraceRecord {
            pc,
            op: Op::Alu,
            taken: false,
            target: 0,
            mem_addr: 0,
            srcs: [NO_REG; 3],
            dsts: [NO_REG; 2],
        }
    }

    /// A branch record, useful in tests.
    #[must_use]
    pub fn branch(pc: Addr, kind: BranchKind, taken: bool, target: Addr) -> Self {
        TraceRecord {
            pc,
            op: Op::Branch(kind),
            taken,
            target,
            mem_addr: 0,
            srcs: [NO_REG; 3],
            dsts: [NO_REG; 2],
        }
    }

    /// The address of the sequential (fall-through) instruction.
    #[must_use]
    pub fn fallthrough(&self) -> Addr {
        self.pc + INST_BYTES
    }

    /// The address of the next dynamic instruction given this record's
    /// outcome.
    #[must_use]
    pub fn next_pc(&self) -> Addr {
        if self.taken {
            self.target
        } else {
            self.fallthrough()
        }
    }

    /// Branch kind, if any.
    #[must_use]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        self.op.branch_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_kind_predicates_are_consistent() {
        use BranchKind::*;
        for k in [
            CondDirect,
            UncondDirect,
            DirectCall,
            IndirectJump,
            IndirectCall,
            Return,
        ] {
            // A branch is either direct or indirect, never both.
            assert_ne!(k.is_direct(), k.is_indirect(), "{k:?}");
            // Only conditionals can fall through.
            assert_eq!(k.is_conditional(), k == CondDirect);
            assert_eq!(k.is_unconditional(), k != CondDirect);
        }
        assert!(DirectCall.is_call());
        assert!(IndirectCall.is_call());
        assert!(!Return.is_call());
        assert!(Return.is_indirect());
    }

    #[test]
    fn next_pc_follows_outcome() {
        let nt = TraceRecord::branch(0x100, BranchKind::CondDirect, false, 0x200);
        assert_eq!(nt.next_pc(), 0x104);
        let t = TraceRecord::branch(0x100, BranchKind::CondDirect, true, 0x200);
        assert_eq!(t.next_pc(), 0x200);
    }

    #[test]
    fn nop_has_no_operands() {
        let r = TraceRecord::nop(0x40);
        assert!(!r.op.is_branch());
        assert!(r.srcs.iter().all(|&s| s == NO_REG));
        assert!(r.dsts.iter().all(|&d| d == NO_REG));
    }

    #[test]
    fn op_class_predicates() {
        assert!(Op::Load.is_mem());
        assert!(Op::Store.is_mem());
        assert!(!Op::Alu.is_mem());
        assert!(Op::Branch(BranchKind::Return).is_branch());
        assert_eq!(
            Op::Branch(BranchKind::Return).branch_kind(),
            Some(BranchKind::Return)
        );
        assert_eq!(Op::Div.branch_kind(), None);
    }
}
