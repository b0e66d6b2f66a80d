//! Synthetic server-workload traces for the `btb-orgs` simulator.
//!
//! The paper evaluates on proprietary CVP-1 server traces; this crate stands
//! in for them. It generates *programs* (control-flow graphs of functions and
//! basic blocks with realistic terminator mixes, loops, call layering and
//! indirect dispatch) and *executes* them to produce dynamic instruction
//! traces whose statistics match the paper's workload description: large
//! instruction footprints, ~9.4-instruction dynamic basic blocks, ~35%
//! never-taken conditionals, ~15% always-taken conditionals, ~9%
//! single-target indirect branches and low conditional MPKI.
//!
//! # Quick start
//! ```
//! use btb_trace::{Trace, TraceStats, WorkloadProfile};
//!
//! let profile = WorkloadProfile::tiny(1);
//! let trace = Trace::generate(&profile, 10_000);
//! let stats = TraceStats::compute(&trace.records);
//! assert!(stats.branches > 0);
//! ```
//!
//! The full 15-workload suite used by every experiment is
//! [`profiles::server_suite`].

#![warn(missing_docs)]
#![warn(clippy::all)]

mod build;
mod cfg;
mod exec;
mod io;
mod mutate;
pub mod probe;
mod profile;
mod record;
mod stats;

pub use build::{build_program, try_build_program, CODE_BASE};
pub use cfg::{
    Block, BlockId, BodyOp, CondBehavior, CondSiteId, FnId, Function, IndirectBehavior,
    IndirectSiteId, MemPattern, MemRef, Program, Terminator,
};
pub use exec::{check_control_flow, Trace, TraceExecutor};
pub use io::{
    read_trace, write_trace, ReadTraceError, TraceReader, TraceWriter, TRACE_FORMAT_VERSION,
};
pub use mutate::{random_mutations, TraceMutation};
pub use profile::{server_suite, WorkloadProfile};
pub use record::{Addr, BranchKind, Op, TraceRecord, INST_BYTES, MAX_CODE_ADDR, NO_REG, NUM_REGS};
pub use stats::{footprint_for_coverage, ideal_icache_mpki, TraceStats};

/// Re-exported module path for profile helpers (`profiles::server_suite`).
pub mod profiles {
    pub use crate::profile::{server_suite, WorkloadProfile};
}
