//! Pipeline configuration (the paper's Table 1).

use crate::sim::SimError;
use btb_bpred::PerceptronConfig;

/// Backend model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The realistic out-of-order backend of Table 1 (352-entry ROB,
    /// 128-entry IQ, 11 misc + 3 load + 2 store ports, 16-wide commit).
    Realistic,
    /// The §6.5.2 limit-study backend: an 8K-instruction window limited
    /// only by data dependencies, single-cycle execution, unbounded
    /// retirement.
    Ideal,
}

/// How the warm-up region of the trace is executed.
///
/// The two modes train the BTB and predictors through the same
/// `update`/`retire` calls, but [`WarmupMode::Cycle`] additionally performs
/// one BTB *access* (`plan`) per PC-generation bundle — and accesses touch
/// replacement recency and trigger L2→L1 fills — so the warm state the
/// measured region starts from is mode-dependent. The mode is therefore part
/// of the pipeline configuration (and of every report cache key): reports
/// from different warm-up modes are distinct artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmupMode {
    /// Warm-up instructions run through the full cycle-accurate pipeline;
    /// statistics collection simply starts after the boundary.
    Cycle,
    /// Warm-up instructions are fast-forwarded: functional-only BTB and
    /// predictor training with no fetch planning, queue modelling or cycle
    /// accounting. ≥10x faster than cycle warm-up, and the resulting warm
    /// state is checkpointable (see `WarmupCheckpoint`).
    FastForward,
}

/// Frontend/backend pipeline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Superscalar width (fetch/decode/allocate/commit).
    pub width: usize,
    /// Fetch Target Queue entries (one per cache line).
    pub ftq_entries: usize,
    /// Decode queue entries.
    pub decode_queue: usize,
    /// Allocation queue entries.
    pub alloc_queue: usize,
    /// Maximum cache lines fetched per cycle (I-cache interleaves).
    pub fetch_lines_per_cycle: usize,
    /// Number of I-cache set interleaves.
    pub icache_interleaves: usize,
    /// Pipeline depth from PC generation to decode (BP|FTQ|ITLB|I$1..3|DEC).
    pub decode_stage: u64,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Scheduler (issue queue) entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Misc (non-memory) execution ports.
    pub misc_ports: usize,
    /// Load ports.
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
    /// Backend model.
    pub backend: BackendKind,
    /// Conditional branch predictor configuration.
    pub perceptron: PerceptronConfig,
    /// Indirect target predictor entries.
    pub indirect_entries: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Instructions of warm-up before statistics collection.
    pub warmup_insts: u64,
    /// How the warm-up region is executed (cycle-accurate or
    /// fast-forwarded).
    pub warmup_mode: WarmupMode,
    /// Enable IBM z-style BTB preloading: a combined L1I miss and L2-BTB
    /// consultation bulk-promotes the surrounding region's entries into the
    /// L1 BTB (related work, §7.3).
    pub btb_preload: bool,
}

impl PipelineConfig {
    /// The paper's Table 1 configuration.
    #[must_use]
    pub fn paper() -> Self {
        PipelineConfig {
            width: 16,
            ftq_entries: 64,
            decode_queue: 64,
            alloc_queue: 64,
            fetch_lines_per_cycle: 8,
            icache_interleaves: 8,
            decode_stage: 6,
            rob_entries: 352,
            iq_entries: 128,
            lq_entries: 128,
            sq_entries: 72,
            misc_ports: 11,
            load_ports: 3,
            store_ports: 2,
            backend: BackendKind::Realistic,
            perceptron: PerceptronConfig::paper(),
            indirect_entries: 4096,
            ras_entries: 64,
            warmup_insts: 0,
            warmup_mode: WarmupMode::Cycle,
            btb_preload: false,
        }
    }

    /// Table 1 with the §6.5.2 ideal backend (8K window, 1-cycle exec).
    #[must_use]
    pub fn paper_ideal_backend() -> Self {
        PipelineConfig {
            backend: BackendKind::Ideal,
            rob_entries: 8192,
            ..PipelineConfig::paper()
        }
    }

    /// Same configuration with a warm-up period (fraction handled by the
    /// harness; this sets an absolute instruction count).
    #[must_use]
    pub fn with_warmup(mut self, insts: u64) -> Self {
        self.warmup_insts = insts;
        self
    }

    /// Switches the warm-up region to fast-forward execution
    /// (functional-only BTB/predictor training, no cycle accounting).
    #[must_use]
    pub fn with_fast_forward(mut self) -> Self {
        self.warmup_mode = WarmupMode::FastForward;
        self
    }

    /// Scales the conditional predictor to `kb` kilobytes (Fig. 11b sweep).
    #[must_use]
    pub fn with_predictor_kb(mut self, kb: usize) -> Self {
        self.perceptron = PerceptronConfig::with_size_kb(kb);
        self
    }

    /// Enables IBM z-style BTB preloading (§7.3 related work extension).
    #[must_use]
    pub fn with_btb_preload(mut self) -> Self {
        self.btb_preload = true;
        self
    }

    /// Rejects configurations the engine cannot run: fetch with no slots
    /// or no lines would never admit an instruction, and the interleave
    /// mask needs a power-of-two interleave count.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if self.width == 0 {
            return Err(SimError::InvalidPipeline("width must be at least 1"));
        }
        if self.fetch_lines_per_cycle == 0 {
            return Err(SimError::InvalidPipeline(
                "fetch_lines_per_cycle must be at least 1",
            ));
        }
        if !self.icache_interleaves.is_power_of_two() {
            return Err(SimError::InvalidPipeline(
                "icache_interleaves must be a power of two",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = PipelineConfig::paper();
        assert_eq!(c.width, 16);
        assert_eq!(c.rob_entries, 352);
        assert_eq!(c.ftq_entries, 64);
        assert_eq!(c.misc_ports + c.load_ports + c.store_ports, 16);
        assert_eq!(c.perceptron.storage_bytes(), 64 * 1024);
    }

    #[test]
    fn ideal_backend_enlarges_window() {
        let c = PipelineConfig::paper_ideal_backend();
        assert_eq!(c.backend, BackendKind::Ideal);
        assert_eq!(c.rob_entries, 8192);
    }

    #[test]
    fn builder_helpers() {
        let c = PipelineConfig::paper()
            .with_warmup(1000)
            .with_predictor_kb(2);
        assert_eq!(c.warmup_insts, 1000);
        assert_eq!(c.perceptron.storage_bytes(), 2048);
    }
}
