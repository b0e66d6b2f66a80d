//! Backend timing model: a timestamp-based out-of-order core (Table 1) and
//! the §6.5.2 ideal backend (8K window, single-cycle execution).
//!
//! The model is event-free: because allocation, and retirement are in
//! program order, each instruction's cycle at every stage is the `max` of
//! its structural constraints, all of which are known when the instruction
//! is processed. Memory dependencies are not enforced (ChampSim's oracle
//! memory dependency prediction, which the paper calls out in §6.5.2).

use crate::config::{BackendKind, PipelineConfig};
use btb_trace::{Op, TraceRecord, NO_REG, NUM_REGS};
use btb_uarch::MemoryHierarchy;

/// Live cycles that trigger a [`FuPool`] prune.
const PRUNE_LEN: usize = 4096;
/// How far below the reserving cycle a prune keeps history.
const PRUNE_KEEP: u64 = 1024;

/// Per-instruction backend timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendTimes {
    /// Cycle the instruction entered the ROB.
    pub alloc: u64,
    /// Cycle it issued to a functional unit.
    pub issue: u64,
    /// Cycle its result became available (branch resolution point).
    pub exec_done: u64,
    /// Cycle it retired.
    pub commit: u64,
}

/// A pool of `width` pipelined functional units: at most `width` operations
/// may start per cycle.
///
/// Reservation counts live in an open-addressed table indexed by the cycle
/// number itself (`cycle & mask`, linear probe): the live cycles form a
/// window near the issue frontier, so a reservation is one or two slot
/// reads with no hashing. A zero count marks an empty slot, so both arrays
/// start zeroed and cost no memory until written. The table holds exactly
/// the keys, counts and live-key count a cycle-keyed map would: pruning
/// (which reports can observe, since a reservation below the prune line
/// finds a fresh cycle) fires on the same length, and the table doubles
/// whenever live cycles exceed half its slots.
#[derive(Debug, Clone)]
struct FuPool {
    width: u32,
    cycles: Vec<u64>,
    counts: Vec<u32>,
    len: usize,
    prune_below: u64,
    /// Every cycle in `[prune_below, full_below)` holds `width`
    /// reservations. Probing a full cycle is side-effect-free (the entry
    /// exists and is not modified), so a scan starting in that range may
    /// jump straight to `full_below` — observationally identical to probing
    /// each cycle, without the O(congestion-window) walk per reservation.
    full_below: u64,
}

impl FuPool {
    fn new(width: usize) -> Self {
        FuPool {
            width: width.max(1) as u32,
            cycles: vec![0; 2 * PRUNE_LEN],
            counts: vec![0; 2 * PRUNE_LEN],
            len: 0,
            prune_below: 0,
            full_below: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.counts.len() - 1
    }

    /// The slot holding `cycle`, or the empty slot where it would go.
    #[inline]
    fn slot(&self, cycle: u64) -> usize {
        let mask = self.mask();
        let mut i = cycle as usize & mask;
        while self.counts[i] != 0 && self.cycles[i] != cycle {
            i = (i + 1) & mask;
        }
        i
    }

    /// Stores a live cycle absent from the table.
    fn place(&mut self, cycle: u64, count: u32) {
        let i = self.slot(cycle);
        self.cycles[i] = cycle;
        self.counts[i] = count;
    }

    /// Reserves the earliest cycle `>= min` with a free unit.
    fn reserve(&mut self, min: u64) -> u64 {
        let mut c = min;
        // The skip is only valid at or above `prune_below`: below it, the
        // original scan would find a pruned (hence fresh, free) entry.
        if c >= self.prune_below && c < self.full_below {
            c = self.full_below;
        }
        let start = c;
        loop {
            let i = self.slot(c);
            if self.counts[i] < self.width {
                if self.counts[i] == 0 {
                    self.cycles[i] = c;
                    self.len += 1;
                }
                self.counts[i] += 1;
                // Opportunistic pruning keeps the table small.
                if self.len > PRUNE_LEN {
                    let cut = c.saturating_sub(PRUNE_KEEP).max(self.prune_below);
                    self.retain_from(cut);
                    self.prune_below = cut;
                    self.full_below = self.full_below.max(cut);
                    if 2 * self.len > self.counts.len() {
                        self.grow();
                    }
                }
                // Cycles [start, c) were all observed full; if the scan
                // began inside the known-full range the two ranges join.
                if start <= self.full_below {
                    self.full_below = self.full_below.max(c);
                }
                return c;
            }
            c += 1;
        }
    }

    /// Forgets every cycle below `cut`. Survivors displaced from their
    /// home slot (rare: only cycles a whole table apart collide) are
    /// lifted out and re-probed once the stale cycles are gone; a survivor
    /// at home is reachable whatever the holes around it, and re-probing
    /// only fills holes, so every survivor stays reachable.
    fn retain_from(&mut self, cut: u64) {
        let mask = self.mask();
        let mut displaced = Vec::new();
        for i in 0..self.counts.len() {
            if self.counts[i] == 0 {
                continue;
            }
            if self.cycles[i] < cut {
                self.counts[i] = 0;
                self.len -= 1;
            } else if self.cycles[i] as usize & mask != i {
                displaced.push((self.cycles[i], self.counts[i]));
                self.counts[i] = 0;
            }
        }
        for (cycle, count) in displaced {
            self.place(cycle, count);
        }
    }

    fn grow(&mut self) {
        let slots = 2 * self.counts.len();
        let cycles = std::mem::replace(&mut self.cycles, vec![0; slots]);
        let counts = std::mem::replace(&mut self.counts, vec![0; slots]);
        for (cycle, count) in cycles.into_iter().zip(counts) {
            if count != 0 {
                self.place(cycle, count);
            }
        }
    }
}

/// A ring of the last `capacity` values — models a finite in-order queue:
/// the `i`-th entry may enter only after the `(i - capacity)`-th left.
///
/// The head index wraps with a compare, not a modulo (capacities such as
/// 352 are not powers of two). A slot not yet written reads 0, which is
/// exactly the bound of a queue that has not filled.
#[derive(Debug, Clone)]
pub struct QueueRing {
    slots: Vec<u64>,
    head: usize,
}

impl QueueRing {
    /// Creates a ring modelling a queue of `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        QueueRing {
            slots: vec![0; capacity.max(1)],
            head: 0,
        }
    }

    /// The earliest cycle the next entry may enter the queue (the leave
    /// cycle of the entry `capacity` positions back).
    #[inline]
    #[must_use]
    pub fn admit_bound(&self) -> u64 {
        self.slots[self.head]
    }

    /// Records the leave cycle of the entry being admitted now.
    #[inline]
    pub fn push_leave(&mut self, leave_cycle: u64) {
        self.slots[self.head] = leave_cycle;
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
    }
}

/// The backend pipeline model.
#[derive(Debug, Clone)]
pub struct Backend {
    kind: BackendKind,
    width: usize,
    reg_ready: [u64; NUM_REGS],
    rob: QueueRing,
    iq: QueueRing,
    lq: QueueRing,
    sq: QueueRing,
    misc: FuPool,
    load_ports: FuPool,
    store_ports: FuPool,
    alloc_frontier: (u64, usize),
    commit_frontier: (u64, usize),
    last_alloc: u64,
    last_commit: u64,
    /// When set, allocation records intervals where the ROB was the
    /// binding constraint (observer use only; off on the plain path).
    observe_stalls: bool,
    /// Open stall interval, extended while consecutive instructions stall
    /// into overlapping windows, closed into `finished_stalls` otherwise.
    pending_stall: Option<(u64, u64)>,
    finished_stalls: Vec<(u64, u64)>,
}

impl Backend {
    /// Creates the backend described by the pipeline configuration.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        Backend {
            kind: config.backend,
            width: config.width,
            reg_ready: [0; NUM_REGS],
            rob: QueueRing::new(config.rob_entries),
            iq: QueueRing::new(config.iq_entries),
            lq: QueueRing::new(config.lq_entries),
            sq: QueueRing::new(config.sq_entries),
            misc: FuPool::new(config.misc_ports),
            load_ports: FuPool::new(config.load_ports),
            store_ports: FuPool::new(config.store_ports),
            alloc_frontier: (0, 0),
            commit_frontier: (0, 0),
            last_alloc: 0,
            last_commit: 0,
            observe_stalls: false,
            pending_stall: None,
            finished_stalls: Vec::new(),
        }
    }

    /// Enables ROB-stall interval recording (observed runs only).
    pub fn set_observe_stalls(&mut self, on: bool) {
        self.observe_stalls = on;
    }

    /// Returns the completed ROB-stall intervals recorded since the last
    /// drain; with `flush_pending` the still-open interval is closed and
    /// included (end-of-run use).
    pub fn drain_rob_stalls(&mut self, flush_pending: bool) -> Vec<(u64, u64)> {
        if flush_pending {
            if let Some(p) = self.pending_stall.take() {
                self.finished_stalls.push(p);
            }
        }
        std::mem::take(&mut self.finished_stalls)
    }

    /// Records that allocation waited on the ROB over `[start, end)`,
    /// merging intervals that touch or overlap (allocation bounds are
    /// non-decreasing, so out-of-order intervals cannot occur).
    fn note_rob_stall(&mut self, start: u64, end: u64) {
        match &mut self.pending_stall {
            Some((_, pe)) if start <= *pe => *pe = (*pe).max(end),
            pending => {
                if let Some(done) = pending.take() {
                    self.finished_stalls.push(done);
                }
                *pending = Some((start, end));
            }
        }
    }

    fn srcs_ready(&self, rec: &TraceRecord) -> u64 {
        rec.srcs
            .iter()
            .filter(|&&s| s != NO_REG)
            .map(|&s| self.reg_ready[s as usize])
            .max()
            .unwrap_or(0)
    }

    fn latency(op: Op) -> u64 {
        match op {
            Op::Alu | Op::Store | Op::Branch(_) => 1,
            Op::Mul => 3,
            Op::Fp => 4,
            Op::Div => 12,
            Op::Load => 1, // replaced by the memory hierarchy result
        }
    }

    /// In-order width-limited frontier: returns the cycle the next event may
    /// use, updating the `(cycle, count)` state.
    fn frontier(state: &mut (u64, usize), width: usize, lower: u64) -> u64 {
        if lower > state.0 {
            *state = (lower, 1);
            state.0
        } else {
            if state.1 >= width {
                state.0 += 1;
                state.1 = 0;
            }
            state.1 += 1;
            state.0
        }
    }

    /// Processes one instruction whose decode completed at `decoded`;
    /// returns its timing.
    pub fn process(
        &mut self,
        rec: &TraceRecord,
        decoded: u64,
        mem: &mut MemoryHierarchy,
    ) -> BackendTimes {
        match self.kind {
            BackendKind::Realistic => self.process_realistic(rec, decoded, mem),
            BackendKind::Ideal => self.process_ideal(rec, decoded),
        }
    }

    fn process_realistic(
        &mut self,
        rec: &TraceRecord,
        decoded: u64,
        mem: &mut MemoryHierarchy,
    ) -> BackendTimes {
        // Allocate: in order, width per cycle, ROB/IQ/LQ/SQ space. The
        // ROB bound is kept separate so the observer can attribute cycles
        // where it is the *binding* constraint.
        let mut other = (decoded + 1)
            .max(self.iq.admit_bound())
            .max(self.last_alloc);
        match rec.op {
            Op::Load => other = other.max(self.lq.admit_bound()),
            Op::Store => other = other.max(self.sq.admit_bound()),
            _ => {}
        }
        let rob_bound = self.rob.admit_bound();
        let lower = other.max(rob_bound);
        if self.observe_stalls && rob_bound > other {
            self.note_rob_stall(other, rob_bound);
        }
        let alloc = Self::frontier(&mut self.alloc_frontier, self.width, lower);
        self.last_alloc = alloc;

        // Issue: sources ready + a port.
        let ready = self.srcs_ready(rec).max(alloc + 1);
        let issue = match rec.op {
            Op::Load => self.load_ports.reserve(ready),
            Op::Store => self.store_ports.reserve(ready),
            _ => self.misc.reserve(ready),
        };

        // Execute.
        let exec_done = match rec.op {
            Op::Load => {
                let data_ready = mem.load(rec.pc, rec.mem_addr, issue);
                data_ready.max(issue + 1)
            }
            Op::Store => {
                mem.store(rec.pc, rec.mem_addr, issue);
                issue + 1
            }
            op => issue + Self::latency(op),
        };

        // Retire: in order, width per cycle.
        let commit_lower = (exec_done + 1).max(self.last_commit);
        let commit = Self::frontier(&mut self.commit_frontier, self.width, commit_lower);
        self.last_commit = commit;

        // Release queue slots.
        self.rob.push_leave(commit);
        self.iq.push_leave(issue);
        match rec.op {
            Op::Load => self.lq.push_leave(commit),
            Op::Store => self.sq.push_leave(commit),
            _ => {}
        }

        for &d in rec.dsts.iter().filter(|&&d| d != NO_REG) {
            self.reg_ready[d as usize] = exec_done;
        }
        BackendTimes {
            alloc,
            issue,
            exec_done,
            commit,
        }
    }

    fn process_ideal(&mut self, rec: &TraceRecord, decoded: u64) -> BackendTimes {
        // 8K window (the ROB ring), dependence-only issue, 1-cycle exec,
        // unbounded retirement width.
        let alloc = (decoded + 1)
            .max(self.rob.admit_bound())
            .max(self.last_alloc);
        self.last_alloc = alloc;
        let issue = self.srcs_ready(rec).max(alloc);
        let exec_done = issue + 1;
        let commit = exec_done.max(self.last_commit);
        self.last_commit = commit;
        self.rob.push_leave(commit);
        for &d in rec.dsts.iter().filter(|&&d| d != NO_REG) {
            self.reg_ready[d as usize] = exec_done;
        }
        BackendTimes {
            alloc,
            issue,
            exec_done,
            commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::TraceRecord;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rec_alu(pc: u64, srcs: [u8; 3], dsts: [u8; 2]) -> TraceRecord {
        TraceRecord {
            srcs,
            dsts,
            ..TraceRecord::nop(pc)
        }
    }

    #[test]
    fn queue_ring_admits_freely_until_full() {
        let mut q = QueueRing::new(2);
        assert_eq!(q.admit_bound(), 0);
        q.push_leave(10);
        q.push_leave(20);
        assert_eq!(q.admit_bound(), 10);
        q.push_leave(30);
        assert_eq!(q.admit_bound(), 20);
    }

    #[test]
    fn queue_ring_matches_modulo_indexing() {
        // Non-power-of-two capacity: the wrapping head must land where
        // `count % capacity` would.
        for cap in [1, 3, 72, 352] {
            let mut q = QueueRing::new(cap);
            let mut log = Vec::new();
            for i in 0..5 * cap as u64 + 7 {
                let want = if log.len() < cap {
                    0
                } else {
                    log[log.len() - cap]
                };
                assert_eq!(q.admit_bound(), want, "cap {cap} entry {i}");
                let leave = i * 7 + 3;
                q.push_leave(leave);
                log.push(leave);
            }
        }
    }

    #[test]
    fn dependent_chain_serializes() {
        let cfg = PipelineConfig::paper();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        // r1 = ...; r2 = f(r1); r3 = f(r2): each must wait for the previous.
        let t1 = b.process(&rec_alu(0x0, [NO_REG; 3], [1, NO_REG]), 10, &mut mem);
        let t2 = b.process(
            &rec_alu(0x4, [1, NO_REG, NO_REG], [2, NO_REG]),
            10,
            &mut mem,
        );
        let t3 = b.process(
            &rec_alu(0x8, [2, NO_REG, NO_REG], [3, NO_REG]),
            10,
            &mut mem,
        );
        assert!(t2.issue >= t1.exec_done);
        assert!(t3.issue >= t2.exec_done);
        assert!(t3.commit >= t2.commit);
    }

    #[test]
    fn independent_ops_overlap() {
        let cfg = PipelineConfig::paper();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        let t1 = b.process(&rec_alu(0x0, [NO_REG; 3], [1, NO_REG]), 10, &mut mem);
        let t2 = b.process(&rec_alu(0x4, [NO_REG; 3], [2, NO_REG]), 10, &mut mem);
        assert_eq!(t1.issue, t2.issue, "independent ops issue together");
    }

    /// The cycle-keyed map [`FuPool`] used before its table, kept as the
    /// reference the table must match reservation for reservation.
    struct MapFuPool {
        width: u32,
        counts: HashMap<u64, u32>,
        prune_below: u64,
        full_below: u64,
    }

    impl MapFuPool {
        fn new(width: usize) -> Self {
            MapFuPool {
                width: width.max(1) as u32,
                counts: HashMap::new(),
                prune_below: 0,
                full_below: 0,
            }
        }

        fn reserve(&mut self, min: u64) -> u64 {
            let mut c = min;
            if c >= self.prune_below && c < self.full_below {
                c = self.full_below;
            }
            let start = c;
            loop {
                let e = self.counts.entry(c).or_insert(0);
                if *e < self.width {
                    *e += 1;
                    if self.counts.len() > 4096 {
                        let cut = c.saturating_sub(1024).max(self.prune_below);
                        self.counts.retain(|&k, _| k >= cut);
                        self.prune_below = cut;
                        self.full_below = self.full_below.max(cut);
                    }
                    if start <= self.full_below {
                        self.full_below = self.full_below.max(c);
                    }
                    return c;
                }
                c += 1;
            }
        }

        fn entries(&self) -> Vec<(u64, u32)> {
            let mut v: Vec<_> = self.counts.iter().map(|(&k, &n)| (k, n)).collect();
            v.sort_unstable();
            v
        }
    }

    fn table_entries(pool: &FuPool) -> Vec<(u64, u32)> {
        let mut v: Vec<_> = pool
            .cycles
            .iter()
            .zip(&pool.counts)
            .filter(|&(_, &n)| n != 0)
            .map(|(&k, &n)| (k, n))
            .collect();
        v.sort_unstable();
        v
    }

    fn assert_same_state(table: &FuPool, map: &MapFuPool) {
        assert_eq!(table.len, map.counts.len());
        assert_eq!(table_entries(table), map.entries());
        assert_eq!(table.prune_below, map.prune_below);
        assert_eq!(table.full_below, map.full_below);
    }

    #[test]
    fn fu_pool_table_grows_past_the_prune_length() {
        // Descending reservations each take a fresh cycle above the cut,
        // so pruning forgets nothing until the descent passes the first
        // prune line, and the live set outgrows half the table.
        let (mut table, mut map) = (FuPool::new(2), MapFuPool::new(2));
        let slots = table.counts.len();
        for k in 0..3 * PRUNE_LEN as u64 {
            let min = 1_000_000 - k;
            assert_eq!(table.reserve(min), map.reserve(min));
        }
        assert_eq!(table.len, PRUNE_LEN + PRUNE_KEEP as usize + 1);
        assert!(table.counts.len() >= 2 * table.len && table.counts.len() > slots);
        assert_same_state(&table, &map);
        // Climbing back up prunes the long tail in one pass.
        for min in 1_020_000..1_020_010 {
            assert_eq!(table.reserve(min), map.reserve(min));
        }
        assert_same_state(&table, &map);
    }

    #[test]
    fn fu_pool_forgets_cycles_below_the_prune_line() {
        let (mut table, mut map) = (FuPool::new(1), MapFuPool::new(1));
        for min in 0..=PRUNE_LEN as u64 {
            assert_eq!(table.reserve(min), map.reserve(min));
        }
        assert!(table.prune_below > 0, "the 4097th cycle prunes");
        // Cycle 0 was reserved once, but the prune forgot it: a width-1
        // pool hands it out again.
        assert_eq!(table.reserve(0), 0);
        assert_eq!(map.reserve(0), 0);
        assert_same_state(&table, &map);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The open-addressed table returns the same cycle as the map at
        /// every step and ends holding the same keys, counts and length:
        /// dense issue, far jumps, mins below the prune line, and a
        /// descending prefix that leaves more than 4096 cycles live.
        #[test]
        fn fu_pool_table_matches_map(
            width in 1usize..=16,
            descend in 0u64..6_000,
            steps in proptest::collection::vec((0u8..8, 0u64..5_000), 1..3_000),
        ) {
            let (mut table, mut map) = (FuPool::new(width), MapFuPool::new(width));
            let base = 1_000_000u64;
            for k in 0..descend {
                let min = base + descend - k;
                prop_assert_eq!(table.reserve(min), map.reserve(min));
            }
            let mut cursor = base + descend;
            for (step, &(mode, v)) in steps.iter().enumerate() {
                let min = match mode {
                    0..=3 => {
                        cursor += v % 3;
                        cursor
                    }
                    4 => cursor.saturating_sub(v),
                    5 => {
                        cursor += v;
                        cursor
                    }
                    6 => cursor + v,
                    _ => cursor.saturating_sub(v % 1_100),
                };
                let (got, want) = (table.reserve(min), map.reserve(min));
                prop_assert_eq!(got, want, "step {} min {}", step, min);
                prop_assert_eq!(table.len, map.counts.len());
            }
            prop_assert_eq!(table_entries(&table), map.entries());
            prop_assert_eq!(table.prune_below, map.prune_below);
            prop_assert_eq!(table.full_below, map.full_below);
        }
    }

    #[test]
    fn fu_width_limits_issue() {
        let mut pool = FuPool::new(2);
        assert_eq!(pool.reserve(5), 5);
        assert_eq!(pool.reserve(5), 5);
        assert_eq!(pool.reserve(5), 6, "third op in the same cycle must wait");
    }

    #[test]
    fn commit_is_in_order() {
        let cfg = PipelineConfig::paper();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        // A slow op followed by a fast one: the fast one cannot retire first.
        let slow = TraceRecord {
            op: Op::Div,
            dsts: [1, NO_REG],
            ..TraceRecord::nop(0x0)
        };
        let t1 = b.process(&slow, 10, &mut mem);
        let t2 = b.process(&rec_alu(0x4, [NO_REG; 3], [2, NO_REG]), 10, &mut mem);
        assert!(t2.commit >= t1.commit);
    }

    #[test]
    fn ideal_backend_is_dependence_limited_only() {
        let cfg = PipelineConfig::paper_ideal_backend();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        // 100 independent instructions all execute immediately.
        let mut last = BackendTimes {
            alloc: 0,
            issue: 0,
            exec_done: 0,
            commit: 0,
        };
        for i in 0..100u64 {
            last = b.process(&rec_alu(i * 4, [NO_REG; 3], [NO_REG; 2]), 10, &mut mem);
        }
        assert_eq!(last.exec_done, 12, "no width limits in the ideal backend");
    }

    #[test]
    fn rob_full_stalls_allocation() {
        let mut cfg = PipelineConfig::paper();
        cfg.rob_entries = 4;
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        let slow = TraceRecord {
            op: Op::Div,
            dsts: [1, NO_REG],
            ..TraceRecord::nop(0x0)
        };
        let t0 = b.process(&slow, 0, &mut mem);
        let mut t = t0;
        for i in 1..6u64 {
            t = b.process(&rec_alu(i * 4, [NO_REG; 3], [NO_REG; 2]), 0, &mut mem);
        }
        // The 5th+ instruction needs a ROB slot freed by the slow op.
        assert!(t.alloc >= t0.commit, "{t:?} vs {t0:?}");
    }
}
