//! `perfbench`: the repository's benchmark. One run measures one workload
//! in a cold process and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cycle-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, timed with wall tracing
//! off. `--trace 1` reports the per-layer metrics: it runs the workload
//! untraced and traced, then replays the workload's own inputs through
//! each crate's public functions. METRICS.md lists every metric.

mod batch;
mod layers;
mod serve_mix;
mod util;

use std::process::ExitCode;
use util::{Digest, Metric};

/// The seed the output pins in `util::PINS` were recorded at.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CycleSweep,
    FfStream,
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cycle-sweep" => Some(Workload::CycleSweep),
            "ff-stream" => Some(Workload::FfStream),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CycleSweep => "cycle-sweep",
            Workload::FfStream => "ff-stream",
            Workload::ServeMix => "serve-mix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-check: perturb one counter of the first pinned report, so the
    /// output pin must fail and `fail_ratio` must rise above 0.
    pub perturb: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut perturb = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!(
                    "unknown workload {v:?} (cycle-sweep, ff-stream, serve-mix)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--perturb" => perturb = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        perturb,
    })
}

/// What one workload run produced: failure accounting, end-to-end
/// samples, and the inputs the traced run replays through each layer.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Repeatable set-up, one duration per repetition.
    pub setup_reps: Vec<f64>,
    /// Set-up done once per process (server spawn, trace-cache warm-up).
    pub setup_once: f64,
    pub timed_s: f64,
    pub fresh_insts: u64,
    pub ops: u64,
    /// Completed operations of the timed region by kind.
    pub op_kinds: Vec<(&'static str, u64)>,
    /// (window index, latency in µs) per hit.
    pub hits: Vec<(usize, f64)>,
    /// (window index, latency in ms) per fresh operation.
    pub fresh: Vec<(usize, f64)>,
    /// The timed region cut into windows of whole units of work.
    pub windows: Vec<util::Window>,
    pub digest: Option<Digest>,
    pub digest_items: u64,
    pub phases: Vec<PhaseOutcome>,
    pub layer: layers::LayerInput,
}

/// Work done in one timed phase.
pub struct PhaseOutcome {
    pub traced: bool,
    pub fresh_insts: u64,
    pub ops: u64,
    /// The phase's complete windows at the reference speed, summed.
    pub windows: util::Window,
    /// Pool statistics (collected in traced phases only).
    pub pool: btb_par::PoolStats,
}

impl RunResult {
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let run_dir = util::run_dir(args.workload);
    let outcome = std::panic::catch_unwind(|| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(Ok((correct, line))) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Err(msg)) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("perfbench: the benchmark itself panicked");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and renders the result line. `Ok((correct, json))`.
fn run(args: &Args, run_dir: &std::path::Path) -> Result<(bool, String), String> {
    std::fs::create_dir_all(run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // One worker thread, and every thread on one CPU: the benchmark then
    // keeps one thread runnable at a time, and its figures do not depend
    // on where the scheduler places threads that hand work to each other.
    btb_par::set_threads(Some(1));
    let cpu = util::pin_to_one_cpu();
    println!(
        "# perfbench {} seed={} seconds={} trace={} threads={} cpu={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        btb_par::threads(),
        cpu.map_or_else(|| "any".to_owned(), |c| c.to_string())
    );
    let phase = |traced, seconds| util::Phase { traced, seconds };
    // Untraced and traced phases alternate, so a drift in host speed
    // during the run does not read as tracing overhead.
    let phases = if args.trace {
        [false, true, false, true]
            .map(|traced| phase(traced, args.seconds / 4.0))
            .to_vec()
    } else {
        vec![phase(false, args.seconds)]
    };
    let mut result = run_workload(args, run_dir, &phases);
    check_pin(args, &mut result);
    let metrics = if args.trace {
        layers::per_layer(args, run_dir, &result)?
    } else {
        end_to_end(&result)
    };
    for why in &result.failures {
        println!("# FAILED: {why}");
    }
    let correct = result.failed == 0;
    println!(
        "# fail_ratio {:.6} ({} failed / {} attempted)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    for m in &metrics {
        println!("{:<34} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    Ok((correct, util::result_json(correct, &result, &metrics)))
}

/// Runs the workload's set-up, then its timed region phase by phase.
pub fn run_workload(args: &Args, run_dir: &std::path::Path, phases: &[util::Phase]) -> RunResult {
    match args.workload {
        Workload::CycleSweep | Workload::FfStream => batch::run(args, run_dir, phases),
        Workload::ServeMix => serve_mix::run(args, run_dir, phases),
    }
}

/// Compares the run's output digest with its pin at the default seed, or
/// prints it at any other seed. A mismatch fails every pinned output.
fn check_pin(args: &Args, result: &mut RunResult) {
    let Some(digest) = result.digest else {
        return;
    };
    let hex = digest.to_hex();
    if args.seed != DEFAULT_SEED {
        println!(
            "# digest {} seed={}: {hex} over {} outputs (pinned only at seed {DEFAULT_SEED})",
            args.workload.name(),
            args.seed,
            result.digest_items
        );
        return;
    }
    let pin = util::pin_for(args.workload);
    if hex == pin {
        println!(
            "# digest {} matches its pin over {} outputs",
            args.workload.name(),
            result.digest_items
        );
    } else {
        let n = result.digest_items.max(1);
        result.fail(
            n,
            format!(
                "output digest {hex} != pin {pin} for {} at seed {DEFAULT_SEED}",
                args.workload.name()
            ),
        );
    }
}

/// The nine end-to-end metrics of one untraced run.
///
/// Every timed metric is read per window (a round of the batch workloads,
/// four blocks of serve-mix's stream) in CPU time at the reference host
/// speed, then from the fastest tenth of the run's windows: on a shared
/// host, other tenants slow the whole machine for seconds to minutes at a
/// time (see METRICS.md).
fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let setup = util::median(&r.setup_reps) + r.setup_once;
    let cpu_s: f64 = r.windows.iter().map(|w| w.secs).sum();
    let windows: Vec<util::Window> = r.windows.iter().map(util::Window::at_reference).collect();
    let slowdowns: Vec<f64> = r.windows.iter().map(util::Window::fresh_slowdown).collect();
    let latency = |name: &str, samples: &[(usize, f64)], slowdown, p: f64, min_n: usize, unit| {
        let scaled = util::at_reference(samples, &r.windows, slowdown);
        Metric::new(name, util::fast_latency(&scaled, p, min_n), unit).note(format!(
            "p{p} of each of {} windows (n={} in all, {} beyond); unscaled {:.3}",
            util::window_percentiles(&scaled, p, min_n).len(),
            samples.len(),
            (samples.len() as f64 * (1.0 - p / 100.0)) as u64,
            util::fast_latency(samples, p, min_n)
        ))
    };
    vec![
        Metric::new("setup_s", setup, "s").note(format!(
            "median of {} set-ups [{}] + {:.4} s once",
            r.setup_reps.len(),
            r.setup_reps
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
            r.setup_once
        )),
        Metric::new(
            "minst_per_s",
            util::fast_rate(&windows, |w| w.fresh_insts) / 1e6,
            "Minst/s",
        )
        .note(format!(
            "{} windows, fresh-work slowdown {:.3} (median, {:.3}..{:.3}); unscaled {:.3}; {} fresh instructions in {cpu_s:.3} CPU s, {:.3} s wall",
            windows.len(),
            util::median(&slowdowns),
            util::percentile(&slowdowns, 0.0),
            util::percentile(&slowdowns, 100.0),
            util::fast_rate(&r.windows, |w| w.fresh_insts) / 1e6,
            r.fresh_insts,
            r.timed_s
        )),
        Metric::new("peak_rss_mb", util::peak_rss_mb(), "MB").note("VmHWM".to_owned()),
        Metric::new(
            "ok_ratio",
            1.0 - r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
        )
        .note(format!("1 - fail_ratio, {} attempted", r.attempted)),
        Metric::new("rps", util::fast_rate(&windows, |w| w.ops), "1/s").note(format!(
            "unscaled {:.1}; {} operations in {cpu_s:.3} CPU s: {}",
            util::fast_rate(&r.windows, |w| w.ops),
            r.ops,
            r.op_kinds
                .iter()
                .map(|(kind, n)| format!("{n} {kind}"))
                .collect::<Vec<_>>()
                .join(", ")
        )),
        latency("hit_p50_us", &r.hits, util::Window::hit_slowdown, 50.0, 20, "us"),
        latency("hit_p90_us", &r.hits, util::Window::hit_slowdown, 90.0, 20, "us"),
        latency("fresh_p50_ms", &r.fresh, util::Window::fresh_slowdown, 50.0, 10, "ms"),
        latency("fresh_p90_ms", &r.fresh, util::Window::fresh_slowdown, 90.0, 10, "ms"),
    ]
}
