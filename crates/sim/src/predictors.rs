//! The simulator's live prediction state: hashed perceptron + global
//! history, indirect predictor + path history, and the return address stack
//! with a per-plan speculative overlay.

use btb_bpred::{
    HashedPerceptron, IndirectPredictor, PathHistory, PerceptronHistory, ReturnAddressStack,
};
use btb_core::PredictionProvider;
use btb_trace::{Addr, BranchKind, TraceRecord};

use crate::config::PipelineConfig;

/// All prediction structures plus their histories.
#[derive(Debug, Clone, PartialEq)]
pub struct Predictors {
    perceptron: HashedPerceptron,
    ghist: PerceptronHistory,
    indirect: IndirectPredictor,
    phist: PathHistory,
    ras: ReturnAddressStack,
    /// Speculative RAS overlay for the plan currently being built: return
    /// addresses of calls seen earlier in the plan.
    overlay: Vec<Addr>,
    /// Architectural-RAS entries already consumed by returns earlier in the
    /// current plan.
    overlay_pops: usize,
    /// Speculative global history for the plan being built: predictions of
    /// earlier in-plan conditionals are inserted so later in-plan branches
    /// see the same history a real speculatively-updated GHR would provide.
    plan_hist: PerceptronHistory,
}

impl Predictors {
    /// Creates the predictors from a pipeline configuration.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        let perceptron = HashedPerceptron::new(config.perceptron);
        Predictors {
            ghist: perceptron.history(),
            plan_hist: perceptron.history(),
            perceptron,
            indirect: IndirectPredictor::new(config.indirect_entries),
            phist: PathHistory::new(),
            ras: ReturnAddressStack::new(config.ras_entries),
            overlay: Vec::new(),
            overlay_pops: 0,
        }
    }

    /// Resets the speculative overlays; call before building each plan.
    pub fn begin_plan(&mut self) {
        self.overlay.clear();
        self.overlay_pops = 0;
        self.plan_hist.clone_from(&self.ghist);
    }

    /// Retire-time training with the actual outcome of a branch record
    /// (immediate update, §4.1).
    pub fn retire(&mut self, rec: &TraceRecord) {
        let Some(kind) = rec.branch_kind() else {
            return;
        };
        match kind {
            BranchKind::CondDirect => {
                let _ = self
                    .perceptron
                    .predict_and_train(rec.pc, &self.ghist, rec.taken);
                self.ghist.push(rec.taken);
            }
            BranchKind::DirectCall => {
                self.ras.push(rec.pc + btb_trace::INST_BYTES);
            }
            BranchKind::IndirectCall => {
                self.ras.push(rec.pc + btb_trace::INST_BYTES);
                self.indirect.update(rec.pc, &self.phist, rec.target);
            }
            BranchKind::IndirectJump => {
                self.indirect.update(rec.pc, &self.phist, rec.target);
            }
            BranchKind::Return => {
                let _ = self.ras.pop();
            }
            BranchKind::UncondDirect => {}
        }
        if rec.taken {
            self.phist.push_target(rec.target);
        }
    }

    /// Direction-prediction accuracy probe used by tests.
    #[must_use]
    pub fn predict_cond_now(&self, pc: Addr) -> bool {
        self.perceptron.predict(pc, &self.ghist).taken
    }
}

impl PredictionProvider for Predictors {
    fn predict_cond(&mut self, pc: Addr) -> bool {
        let taken = self.perceptron.predict(pc, &self.plan_hist).taken;
        // Speculative history update: later branches in the same plan see
        // this prediction, as in a real checkpointed GHR.
        self.plan_hist.push(taken);
        taken
    }

    fn predict_indirect(&mut self, pc: Addr) -> Option<Addr> {
        self.indirect.predict(pc, &self.phist)
    }

    fn predict_return(&mut self, _pc: Addr) -> Option<Addr> {
        if let Some(addr) = self.overlay.pop() {
            return Some(addr);
        }
        let v = self.ras.peek_nth(self.overlay_pops);
        if v.is_some() {
            self.overlay_pops += 1;
        }
        v
    }

    fn note_call(&mut self, ret_addr: Addr) {
        self.overlay.push(ret_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::TraceRecord;

    fn predictors() -> Predictors {
        Predictors::new(&PipelineConfig::paper())
    }

    #[test]
    fn return_prediction_uses_architectural_ras() {
        let mut p = predictors();
        p.retire(&TraceRecord::branch(
            0x100,
            BranchKind::DirectCall,
            true,
            0x900,
        ));
        p.begin_plan();
        assert_eq!(p.predict_return(0x90c), Some(0x104));
    }

    #[test]
    fn overlay_tracks_calls_within_a_plan() {
        let mut p = predictors();
        p.retire(&TraceRecord::branch(
            0x100,
            BranchKind::DirectCall,
            true,
            0x900,
        ));
        p.begin_plan();
        // The plan contains another call before the return.
        p.note_call(0x204);
        assert_eq!(p.predict_return(0x0), Some(0x204), "overlay first");
        assert_eq!(p.predict_return(0x0), Some(0x104), "then the arch RAS");
        assert_eq!(p.predict_return(0x0), None, "stack exhausted");
        // A new plan starts fresh.
        p.begin_plan();
        assert_eq!(p.predict_return(0x0), Some(0x104));
    }

    #[test]
    fn returns_pop_at_retire() {
        let mut p = predictors();
        p.retire(&TraceRecord::branch(
            0x100,
            BranchKind::DirectCall,
            true,
            0x900,
        ));
        p.retire(&TraceRecord::branch(0x90c, BranchKind::Return, true, 0x104));
        p.begin_plan();
        assert_eq!(p.predict_return(0x0), None);
    }

    #[test]
    fn perceptron_learns_through_retire() {
        let mut p = predictors();
        for _ in 0..200 {
            p.retire(&TraceRecord::branch(
                0x40,
                BranchKind::CondDirect,
                true,
                0x80,
            ));
        }
        assert!(p.predict_cond_now(0x40));
    }

    #[test]
    fn indirect_predictor_learns_through_retire() {
        let mut p = predictors();
        for _ in 0..3 {
            p.retire(&TraceRecord::branch(
                0x50,
                BranchKind::IndirectJump,
                true,
                0x00be_ef00,
            ));
        }
        p.begin_plan();
        assert_eq!(p.predict_indirect(0x50), Some(0x00be_ef00));
    }
}
