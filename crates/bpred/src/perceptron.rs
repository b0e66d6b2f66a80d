//! Hashed perceptron conditional branch predictor.
//!
//! Models the paper's Table 1 configuration: a 64 KB hashed perceptron with
//! 16 tables of 4K 8-bit weights indexed with geometric history lengths from
//! 0 to 232 bits, with adaptive-threshold training (Jiménez & Lin-style
//! perceptron learning over hashed feature tables). The table size scales
//! down for the Fig. 11b predictor-size sweep.

use crate::history::{GlobalHistory, MAX_HISTORY_BITS};

/// Number of feature tables.
pub const NUM_TABLES: usize = 16;
/// Longest history length in bits (paper: 0–232).
pub const MAX_HISTORY: usize = 232;

/// Configuration of a [`HashedPerceptron`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// Entries per feature table (power of two).
    pub entries_per_table: usize,
}

impl PerceptronConfig {
    /// The paper's 64 KB configuration (16 tables × 4K × 8-bit weights).
    #[must_use]
    pub fn paper() -> Self {
        PerceptronConfig {
            entries_per_table: 4096,
        }
    }

    /// A configuration using `kb` kilobytes of weight storage, as swept in
    /// Fig. 11b (64, 32, 16, 8, 4, 2 KB).
    ///
    /// # Panics
    /// Panics if `kb` is zero.
    #[must_use]
    pub fn with_size_kb(kb: usize) -> Self {
        assert!(kb > 0, "predictor size must be non-zero");
        let entries = (kb * 1024 / NUM_TABLES).next_power_of_two();
        PerceptronConfig {
            entries_per_table: entries.max(64),
        }
    }

    /// Total weight storage in bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.entries_per_table * NUM_TABLES
    }
}

/// The geometric history lengths assigned to each table (table 0 is the
/// history-less bias table).
#[must_use]
pub fn history_lengths() -> [usize; NUM_TABLES] {
    let mut lens = [0usize; NUM_TABLES];
    // Geometric progression from 3 to MAX_HISTORY across tables 1..16.
    let ratio = (MAX_HISTORY as f64 / 3.0).powf(1.0 / (NUM_TABLES - 2) as f64);
    for (i, l) in lens.iter_mut().enumerate().skip(1) {
        *l = (3.0 * ratio.powi(i as i32 - 1)).round() as usize;
    }
    lens[NUM_TABLES - 1] = MAX_HISTORY;
    lens
}

/// The global history a [`HashedPerceptron`] indexes with: the outcome
/// register plus, for every table, its most recent `len` outcomes
/// XOR-folded down to the index width.
///
/// The folds are kept current the way TAGE-style folded registers are:
/// each pushed outcome rotates a fold left by one within the index width,
/// xors the new outcome into bit 0, and xors out the outcome leaving the
/// window at bit `len % width`. That is O(1) per table per push, so a
/// lookup reads 16 folds instead of folding up to 232 history bits for
/// each. Create one with [`HashedPerceptron::history`], which matches it
/// to the predictor's history lengths and index width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerceptronHistory {
    bits: GlobalHistory,
    folds: [u32; NUM_TABLES],
    lens: [u8; NUM_TABLES],
    /// Per table, the fold bit the leaving outcome is xored out of
    /// (`len % width`, precomputed so a push divides nothing).
    out_bit: [u8; NUM_TABLES],
    width: u32,
}

impl PerceptronHistory {
    /// An all-not-taken history folding `lens` down to `width` bits.
    fn new(lens: [usize; NUM_TABLES], width: usize) -> Self {
        assert!((1..=32).contains(&width), "fold width out of range");
        assert!(
            lens.iter().all(|&l| l < MAX_HISTORY_BITS),
            "history length out of range"
        );
        PerceptronHistory {
            bits: GlobalHistory::new(),
            folds: [0; NUM_TABLES],
            lens: lens.map(|l| l as u8),
            out_bit: lens.map(|l| (l % width) as u8),
            width: width as u32,
        }
    }

    /// Shifts in one outcome (true = taken) as the most recent.
    pub fn push(&mut self, taken: bool) {
        self.bits.push(taken);
        let w = self.width;
        let mask = u32::MAX >> (32 - w);
        for t in 0..NUM_TABLES {
            let f = self.folds[t];
            let rotated = ((f << 1) | (f >> (w - 1))) & mask;
            // After the push, position `len` holds the outcome that just
            // left this table's window.
            let out = self.bits.bit(usize::from(self.lens[t])) as u32;
            self.folds[t] = rotated ^ u32::from(taken) ^ (out << self.out_bit[t]);
        }
    }

    /// Table `t`'s folded history.
    #[inline]
    fn folded(&self, t: usize) -> u64 {
        let folded = u64::from(self.folds[t]);
        debug_assert_eq!(
            folded,
            self.bits
                .fold(usize::from(self.lens[t]), self.width as usize),
            "table {t}: incremental fold diverged from the whole-history fold"
        );
        folded
    }
}

/// Hashed perceptron direction predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HashedPerceptron {
    tables: Vec<Vec<i8>>,
    lens: [usize; NUM_TABLES],
    index_bits: usize,
    /// Adaptive training threshold (O-GEHL style).
    theta: i32,
    /// Threshold-adaptation counter.
    tc: i32,
}

/// The outcome of a perceptron lookup, retained for update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronOutput {
    /// Predicted direction.
    pub taken: bool,
    /// The summed dot product (confidence).
    pub sum: i32,
}

impl HashedPerceptron {
    /// Creates a predictor with the given configuration.
    ///
    /// # Examples
    /// ```
    /// use btb_bpred::{HashedPerceptron, PerceptronConfig};
    /// let p = HashedPerceptron::new(PerceptronConfig::paper());
    /// assert_eq!(p.storage_bytes(), 64 * 1024);
    /// ```
    #[must_use]
    pub fn new(config: PerceptronConfig) -> Self {
        let entries = config.entries_per_table.next_power_of_two().max(64);
        HashedPerceptron {
            tables: vec![vec![0i8; entries]; NUM_TABLES],
            lens: history_lengths(),
            index_bits: entries.trailing_zeros() as usize,
            theta: (1.93 * NUM_TABLES as f64 + 14.0) as i32,
            tc: 0,
        }
    }

    /// Total weight storage in bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.tables[0].len() * NUM_TABLES
    }

    /// An empty history matched to this predictor's history lengths and
    /// index width; push every conditional outcome into it.
    #[must_use]
    pub fn history(&self) -> PerceptronHistory {
        PerceptronHistory::new(self.lens, self.index_bits.min(32))
    }

    fn index(&self, table: usize, pc: u64, hist: &PerceptronHistory) -> usize {
        debug_assert_eq!(hist.width as usize, self.index_bits.min(32));
        let folded = hist.folded(table);
        // Mix the PC with a table-specific multiplier so tables decorrelate.
        let pc_hash =
            (pc >> 2).wrapping_mul(0x9e37_79b9_7f4a_7c15u64.wrapping_add(table as u64 * 2));
        ((pc_hash ^ folded ^ (folded << 1)) as usize) & ((1 << self.index_bits) - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64, hist: &PerceptronHistory) -> PerceptronOutput {
        let mut sum = 0i32;
        for t in 0..NUM_TABLES {
            sum += i32::from(self.tables[t][self.index(t, pc, hist)]);
        }
        PerceptronOutput {
            // Ties default to not-taken: cold branches are far more often
            // never-taken error checks than taken branches.
            taken: sum > 0,
            sum,
        }
    }

    /// Retire-time predict-then-train in one pass: returns exactly what
    /// [`Self::predict`] would, then trains exactly as [`Self::update`]
    /// would — but computes each table index once instead of twice.
    pub fn predict_and_train(
        &mut self,
        pc: u64,
        hist: &PerceptronHistory,
        taken: bool,
    ) -> PerceptronOutput {
        let mut indices = [0usize; NUM_TABLES];
        let mut sum = 0i32;
        for (t, slot) in indices.iter_mut().enumerate() {
            let idx = self.index(t, pc, hist);
            *slot = idx;
            sum += i32::from(self.tables[t][idx]);
        }
        let output = PerceptronOutput {
            taken: sum > 0,
            sum,
        };
        let mispredicted = output.taken != taken;
        if mispredicted || output.sum.abs() <= self.theta {
            for (t, &idx) in indices.iter().enumerate() {
                let w = &mut self.tables[t][idx];
                *w = if taken {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        if mispredicted {
            self.tc += 1;
            if self.tc >= 64 {
                self.tc = 0;
                self.theta += 1;
            }
        } else if output.sum.abs() <= self.theta {
            self.tc -= 1;
            if self.tc <= -64 {
                self.tc = 0;
                self.theta = (self.theta - 1).max(1);
            }
        }
        output
    }

    /// Trains the predictor with the actual outcome. `output` must be the
    /// value returned by [`Self::predict`] for the same branch and history.
    pub fn update(
        &mut self,
        pc: u64,
        hist: &PerceptronHistory,
        output: PerceptronOutput,
        taken: bool,
    ) {
        let mispredicted = output.taken != taken;
        if mispredicted || output.sum.abs() <= self.theta {
            for t in 0..NUM_TABLES {
                let idx = self.index(t, pc, hist);
                let w = &mut self.tables[t][idx];
                *w = if taken {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        // Adaptive threshold (Seznec's O-GEHL TC scheme).
        if mispredicted {
            self.tc += 1;
            if self.tc >= 64 {
                self.tc = 0;
                self.theta += 1;
            }
        } else if output.sum.abs() <= self.theta {
            self.tc -= 1;
            if self.tc <= -64 {
                self.tc = 0;
                self.theta = (self.theta - 1).max(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every incremental fold equals the whole-history fold after every
        /// push: each table length at each width from 1 to 32, over more
        /// pushes than the 256-bit register holds, at a per-case taken bias
        /// (all-not-taken through nearly all-taken).
        #[test]
        fn folded_history_matches_whole_history_fold(
            bias in any::<u8>(),
            draws in proptest::collection::vec(any::<u8>(), 257..400),
        ) {
            let lens = history_lengths();
            for width in 1..=32 {
                let mut h = PerceptronHistory::new(lens, width);
                for (step, &d) in draws.iter().enumerate() {
                    h.push(d < bias);
                    for (t, &len) in lens.iter().enumerate() {
                        prop_assert_eq!(
                            u64::from(h.folds[t]),
                            h.bits.fold(len, width),
                            "len {} width {} after {} pushes", len, width, step + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn folded_history_matches_fold_at_every_length() {
        // Lengths beyond the perceptron's own, up to the register's last
        // bit, at every width.
        let mut outcomes = 0x9e37_79b9_7f4a_7c15u64;
        for width in 1..=32 {
            for first in (0..MAX_HISTORY_BITS).step_by(NUM_TABLES) {
                let lens: [usize; NUM_TABLES] =
                    std::array::from_fn(|t| (first + t).min(MAX_HISTORY_BITS - 1));
                let mut h = PerceptronHistory::new(lens, width);
                for _ in 0..300 {
                    outcomes = outcomes.rotate_left(7) ^ 0x2545_f491_4f6c_dd1d;
                    h.push(outcomes & 4 != 0);
                }
                for (t, &len) in lens.iter().enumerate() {
                    assert_eq!(u64::from(h.folds[t]), h.bits.fold(len, width));
                }
            }
        }
    }

    fn run_pattern<F: FnMut(u64) -> bool>(p: &mut HashedPerceptron, n: usize, mut f: F) -> f64 {
        let mut hist = p.history();
        let mut correct = 0usize;
        for i in 0..n {
            let pc = 0x4000 + (i as u64 % 7) * 4;
            let taken = f(i as u64);
            let out = p.predict(pc, &hist);
            if out.taken == taken {
                correct += 1;
            }
            p.update(pc, &hist, out, taken);
            hist.push(taken);
        }
        correct as f64 / n as f64
    }

    #[test]
    fn history_lengths_are_monotone_and_bounded() {
        let lens = history_lengths();
        assert_eq!(lens[0], 0);
        assert_eq!(lens[NUM_TABLES - 1], MAX_HISTORY);
        for w in lens.windows(2) {
            assert!(w[0] <= w[1], "{lens:?}");
        }
    }

    #[test]
    fn predict_and_train_matches_split_predict_update() {
        let mut split = HashedPerceptron::new(PerceptronConfig::paper());
        let mut fused = HashedPerceptron::new(PerceptronConfig::paper());
        let mut hist = split.history();
        for i in 0..5000u64 {
            let pc = 0x4000 + (i % 13) * 4;
            let taken = (i / 5) % 3 != 0;
            let a = split.predict(pc, &hist);
            split.update(pc, &hist, a, taken);
            let b = fused.predict_and_train(pc, &hist, taken);
            assert_eq!(a, b, "outputs diverged at step {i}");
            hist.push(taken);
        }
        assert_eq!(split.theta, fused.theta);
        assert_eq!(split.tc, fused.tc);
        assert_eq!(split.tables, fused.tables);
    }

    #[test]
    fn learns_always_taken() {
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let acc = run_pattern(&mut p, 4000, |_| true);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let acc = run_pattern(&mut p, 8000, |i| i % 2 == 0);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_short_loop_exits() {
        // A 5-iteration loop: T T T T N repeated — classic history pattern.
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let acc = run_pattern(&mut p, 10_000, |i| i % 5 != 4);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn small_predictor_is_worse_on_many_branches() {
        // With many distinct branches and long patterns, a 2 KB predictor
        // should alias more and lose accuracy vs the 64 KB one.
        let mut big = HashedPerceptron::new(PerceptronConfig::with_size_kb(64));
        let mut small = HashedPerceptron::new(PerceptronConfig::with_size_kb(2));
        let gen = |i: u64| (i / 3) % 7 < 3;
        let acc = |p: &mut HashedPerceptron| {
            let mut hist = p.history();
            let mut correct = 0usize;
            let n = 30_000;
            for i in 0..n {
                // 2048 distinct branch PCs.
                let pc = 0x10_0000 + (i as u64 * 97 % 2048) * 4;
                let taken = gen(i as u64);
                let out = p.predict(pc, &hist);
                if out.taken == taken {
                    correct += 1;
                }
                p.update(pc, &hist, out, taken);
                hist.push(taken);
            }
            correct as f64 / n as f64
        };
        let ab = acc(&mut big);
        let asm = acc(&mut small);
        assert!(ab >= asm, "big {ab} < small {asm}");
    }

    #[test]
    fn size_scaling_produces_expected_storage() {
        assert_eq!(PerceptronConfig::with_size_kb(64).storage_bytes(), 65536);
        assert_eq!(PerceptronConfig::with_size_kb(2).storage_bytes(), 2048);
        // Floors at 64 entries per table.
        assert!(PerceptronConfig::with_size_kb(1).entries_per_table >= 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_panics() {
        let _ = PerceptronConfig::with_size_kb(0);
    }
}
