//! Shared pieces: seeds, statistics, metric rendering, output pins, and
//! the switches that turn wall tracing on for the traced half of a run.

use crate::{RunResult, Workload};
use btb_harness::RunCounters;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use btb_store::Digest;

/// SHA-256 pins of each workload's outputs at [`crate::DEFAULT_SEED`]:
/// cycle-sweep and ff-stream hash the `encode_report` bytes of their first
/// round in submission order; serve-mix hashes its pinned first deliveries
/// as `key || body` pairs sorted by key. A run at another seed prints its
/// digest instead of checking it.
const PINS: [(Workload, &str); 3] = [
    (
        Workload::CycleSweep,
        "d18fbb70ca132965adb0bd7a96269342921b900202bfa3f44e9817e4b24697e7",
    ),
    (
        Workload::FfStream,
        "181f6d042434ee6fa460fb65ac61c7547e5845521b9ce01d4d56d8209cd17a4a",
    ),
    (
        Workload::ServeMix,
        "d69531fd756d474070e62a1e8582251ab1cf06705a66814444d40194e5efbf6c",
    ),
];

pub fn pin_for(w: Workload) -> &'static str {
    PINS.iter()
        .find(|(k, _)| *k == w)
        .map(|(_, pin)| *pin)
        .expect("every workload has a pin")
}

/// SplitMix64 finalizer: mixes the workload seed into profile seeds and
/// request streams.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for request streams and replay picks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed, 0x7065_7266))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Linear-interpolated percentile (`p` in 0..=100); NaN when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Per-window `p`-th percentiles of `samples`, given as (window index,
/// value) pairs, for windows with at least `min_n` samples.
#[must_use]
pub fn window_percentiles(samples: &[(usize, f64)], p: f64, min_n: usize) -> Vec<f64> {
    let mut by_window: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(w, v) in samples {
        by_window.entry(w).or_default().push(v);
    }
    by_window
        .values()
        .filter(|v| v.len() >= min_n)
        .map(|v| percentile(v, p))
        .collect()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The run's private scratch directory, inside the working directory.
#[must_use]
pub fn run_dir(w: Workload) -> PathBuf {
    PathBuf::from(".perfbench-runs").join(format!("{}-{}", w.name(), std::process::id()))
}

/// The store of set-up repetition `rep`.
#[must_use]
pub fn store_dir(run_dir: &Path, rep: usize) -> PathBuf {
    run_dir.join(format!("store-{rep}"))
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// CPU time the calling thread has run, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the thread spent waiting for a core,
/// whether behind another process or with its virtual CPU descheduled by
/// the hypervisor, is not counted.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// CPU time all threads of this process have run, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
#[must_use]
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and both callers pass a CPU-time clock id Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it may run on, and returns that CPU.
/// `None` if the affinity calls fail (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t` of glibc's default 1024 CPUs.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a read-only buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Runs `f` and returns its result with the CPU seconds the calling
/// thread spent in it.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = thread_cpu_s();
    let r = f();
    (r, thread_cpu_s() - t)
}

/// Work done in one window of the timed region: a round of the batch
/// workloads, four blocks of `btb-load`'s stream on serve-mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    pub fresh_insts: u64,
    pub ops: u64,
    pub secs: f64,
    /// The part of `secs` spent on hits.
    pub hit_secs: f64,
    /// CPU seconds and calls of [`reference_kernel`] run inside the window.
    pub ref_secs: f64,
    pub ref_calls: u64,
    /// The part of `ref_secs`/`ref_calls` run among hits.
    pub hit_ref_secs: f64,
    pub hit_ref_calls: u64,
}

impl Window {
    /// Runs the reference kernel once and adds its CPU time.
    pub fn reference(&mut self) {
        self.ref_secs += reference_kernel();
        self.ref_calls += 1;
    }

    /// Runs the reference kernel once among hits.
    pub fn hit_reference(&mut self) {
        let k = reference_kernel();
        self.ref_secs += k;
        self.ref_calls += 1;
        self.hit_ref_secs += k;
        self.hit_ref_calls += 1;
    }

    /// Slowdown of the kernel calls made among hits (all calls if none).
    #[must_use]
    pub fn hit_slowdown(&self) -> f64 {
        if self.hit_ref_calls == 0 {
            self.slowdown()
        } else {
            self.hit_ref_secs / self.hit_ref_calls as f64 / REFERENCE_S
        }
    }

    /// Slowdown of the kernel calls made among fresh work (all calls if
    /// none).
    #[must_use]
    pub fn fresh_slowdown(&self) -> f64 {
        let calls = self.ref_calls - self.hit_ref_calls;
        if calls == 0 {
            self.slowdown()
        } else {
            (self.ref_secs - self.hit_ref_secs) / calls as f64 / REFERENCE_S
        }
    }

    /// How much slower than [`REFERENCE_S`] the reference kernel ran in
    /// this window (1 if it never ran).
    #[must_use]
    fn slowdown(&self) -> f64 {
        if self.ref_calls == 0 {
            1.0
        } else {
            self.ref_secs / self.ref_calls as f64 / REFERENCE_S
        }
    }

    /// The window with its CPU seconds scaled to the reference speed, hits
    /// by [`Window::hit_slowdown`] and the rest by
    /// [`Window::fresh_slowdown`].
    #[must_use]
    pub fn at_reference(&self) -> Window {
        Window {
            secs: (self.secs - self.hit_secs) / self.fresh_slowdown()
                + self.hit_secs / self.hit_slowdown(),
            ..*self
        }
    }
}

/// `samples`, given as (window index, value) pairs, divided by their
/// window's `slowdown`. Samples of a window that did not complete are left
/// out.
#[must_use]
pub fn at_reference(
    samples: &[(usize, f64)],
    windows: &[Window],
    slowdown: fn(&Window) -> f64,
) -> Vec<(usize, f64)> {
    samples
        .iter()
        .filter(|(w, _)| *w < windows.len())
        .map(|&(w, v)| (w, v / slowdown(&windows[w])))
        .collect()
}

/// CPU seconds one [`reference_kernel`] call takes on a quiet tuning host.
pub const REFERENCE_S: f64 = 150e-6;

thread_local! {
    static REFERENCE_TABLE: std::cell::RefCell<Vec<u32>> =
        std::cell::RefCell::new((0..1u32 << 16).map(|i| i.wrapping_mul(2_654_435_761)).collect());
}

/// A fixed piece of integer work, timed in CPU seconds: four independent
/// multiply-rotate lanes (throughput-bound, as hashing is), then a
/// data-dependent walk with a branch per step over a 256 KiB table
/// (latency- and branch-bound, as the simulator's tables are).
#[must_use]
pub fn reference_kernel() -> f64 {
    REFERENCE_TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let (_, secs) = cpu_timed(|| {
            let mut lanes = [1u64, 2, 3, 4];
            for _ in 0..20_000 {
                for x in &mut lanes {
                    *x = (*x ^ (*x >> 29))
                        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                        .rotate_left(17)
                        .wrapping_add(0x9e37_79b9_7f4a_7c15);
                }
                lanes = std::hint::black_box(lanes);
            }
            let mask = table.len() - 1;
            let mut x = lanes[0] | 1;
            let mut acc = 0u64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x as usize) & mask;
                let v = table[i];
                if v & 3 == 0 {
                    acc = acc.wrapping_add(u64::from(v));
                    table[i] = v.wrapping_add(3);
                } else {
                    acc ^= x;
                    table[i] = v.rotate_left(1) ^ 5;
                }
            }
            std::hint::black_box(acc);
        });
        secs
    })
}

/// The sum of `windows`.
#[must_use]
pub fn window_sum(windows: &[Window]) -> Window {
    windows.iter().fold(Window::default(), |a, w| Window {
        fresh_insts: a.fresh_insts + w.fresh_insts,
        ops: a.ops + w.ops,
        secs: a.secs + w.secs,
        hit_secs: a.hit_secs + w.hit_secs,
        ref_secs: a.ref_secs + w.ref_secs,
        ref_calls: a.ref_calls + w.ref_calls,
        hit_ref_secs: a.hit_ref_secs + w.hit_ref_secs,
        hit_ref_calls: a.hit_ref_calls + w.hit_ref_calls,
    })
}

/// Timed metrics are read from the fastest tenth of a run's windows: the
/// 90th percentile of per-window rates, the 10th of per-window latencies.
pub const FAST_PERCENTILE: f64 = 10.0;

/// `count(window) / window.secs` in the fastest tenth of `windows`.
#[must_use]
pub fn fast_rate(windows: &[Window], count: impl Fn(&Window) -> u64) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .filter(|w| w.secs > 0.0)
        .map(|w| count(w) as f64 / w.secs)
        .collect();
    percentile(&rates, 100.0 - FAST_PERCENTILE)
}

/// The `p`-th percentile latency of the fastest tenth of windows with at
/// least `min_n` samples.
#[must_use]
pub fn fast_latency(samples: &[(usize, f64)], p: f64, min_n: usize) -> f64 {
    percentile(&window_percentiles(samples, p, min_n), FAST_PERCENTILE)
}

/// `after - before`, counter by counter.
#[must_use]
pub fn counters_delta(after: RunCounters, before: RunCounters) -> RunCounters {
    RunCounters {
        cells: after.cells - before.cells,
        fresh_cells: after.fresh_cells - before.fresh_cells,
        memo_hits: after.memo_hits - before.memo_hits,
        store_hits: after.store_hits - before.store_hits,
        instructions: after.instructions - before.instructions,
    }
}

#[must_use]
pub fn counters_add(a: RunCounters, b: RunCounters) -> RunCounters {
    RunCounters {
        cells: a.cells + b.cells,
        fresh_cells: a.fresh_cells + b.fresh_cells,
        memo_hits: a.memo_hits + b.memo_hits,
        store_hits: a.store_hits + b.store_hits,
        instructions: a.instructions + b.instructions,
    }
}

/// One timed phase of a run. The untraced run has a single phase; the
/// traced run measures an untraced phase, then a traced one, so their
/// rates give the tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub traced: bool,
    pub seconds: f64,
}

/// Switches wall tracing and pool statistics for a phase.
pub fn enter_phase(phase: Phase) {
    btb_obs::span::set_wall_tracing(phase.traced);
    btb_par::set_collect_pool_stats(phase.traced);
    let _ = btb_par::take_pool_stats();
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips,
        // so every measured digit survives.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The single-line result object the benchmark prints last.
#[must_use]
pub fn result_json(correct: bool, r: &RunResult, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn fast_statistics_read_the_fastest_tenth() {
        // Window w holds latencies w+1 .. w+100 (median w + 50.5) and ran
        // its work in w+1 seconds.
        let samples: Vec<(usize, f64)> = (0..11)
            .flat_map(|w| (1..=100).map(move |i| (w, (w + i) as f64)))
            .collect();
        let per_window = window_percentiles(&samples, 50.0, 20);
        assert_eq!(per_window.len(), 11);
        assert_eq!(per_window[0], 50.5);
        assert_eq!(fast_latency(&samples, 50.0, 20), 51.5);
        // Windows with too few samples are left out.
        assert!(fast_latency(&samples, 50.0, 101).is_nan());
        let windows: Vec<Window> = (0..11)
            .map(|w| Window {
                fresh_insts: 10,
                ops: 1,
                secs: (w + 1) as f64,
                ..Window::default()
            })
            .collect();
        assert_eq!(fast_rate(&windows, |w| w.fresh_insts), 5.0);
    }

    #[test]
    fn reference_scaling_divides_out_the_slowdown() {
        // The kernel ran at twice its quiet time among fresh work and at
        // four times among hits: fresh seconds halve, hit seconds quarter.
        let w = Window {
            fresh_insts: 100,
            ops: 10,
            secs: 6.0,
            hit_secs: 4.0,
            ref_secs: 2.0 * REFERENCE_S * 3.0 + 4.0 * REFERENCE_S,
            ref_calls: 4,
            hit_ref_secs: 4.0 * REFERENCE_S,
            hit_ref_calls: 1,
        };
        assert!((w.fresh_slowdown() - 2.0).abs() < 1e-12);
        assert!((w.hit_slowdown() - 4.0).abs() < 1e-12);
        assert!((w.at_reference().secs - 2.0).abs() < 1e-12);
        // Without calls among hits, hits take the window's slowdown.
        let mixed = Window {
            hit_ref_secs: 0.0,
            hit_ref_calls: 0,
            ..w
        };
        assert!((mixed.hit_slowdown() - mixed.fresh_slowdown()).abs() < 1e-12);
        assert_eq!(Window::default().fresh_slowdown(), 1.0);
        let scaled = at_reference(&[(0, 8.0), (1, 8.0)], &[w], Window::hit_slowdown);
        assert_eq!(scaled.len(), 1, "samples of an unfinished window are left out");
        assert!((scaled[0].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        let line = result_json(true, &r, &[Metric::new("setup_s", 0.5, "s")]);
        assert!(!line.contains('\n'));
        let v = btb_store::JsonValue::parse_strict(&line).expect("valid JSON");
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|s| s.get("value"))
                .and_then(btb_store::JsonValue::as_f64),
            Some(0.5)
        );
    }
}
