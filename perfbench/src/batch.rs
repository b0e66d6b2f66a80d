//! The two batch workloads, cycle-sweep and ff-stream.
//!
//! Both sweep the campaign roster (`btb_check::campaign_configs`: nine
//! configurations covering all six organization kinds, ideal and
//! realistic) over four server-suite profiles spanning code footprint,
//! from `web-small` to `monolith`. Cells run through the harness's own
//! unit of work, `run_cell`/`run_cell_streamed` on the `btb_par` pool,
//! exactly as `run_matrix` farms them out, with the CPU time of each call
//! measured on the thread that ran it.
//!
//! The timed region is a series of rounds. Round `r` steps the warm-up
//! boundary by `r` × [`WARMUP_STEP`] instructions, so every cell of every
//! round is distinct and must be simulated afresh, over traces made once
//! in set-up. After each fresh pass a round replays a seeded pick of its
//! own cells: those replays are the workload's hits, answered by the
//! harness memo, and must return byte-identical reports. The memos
//! are cleared between rounds so memory stays flat however many rounds
//! fit in the run. Each round is one [`util::Window`]: its fresh
//! instructions and operations over the CPU seconds its cells and replays
//! took.

use crate::util::{self, mix, Phase, Rng};
use crate::{Args, RunResult, Workload};
use btb_harness::{run_cell, run_cell_streamed, run_counters, CellOutcome, CellSource};
use btb_sim::{PipelineConfig, SimReport};
use btb_store::{Digest, Store};
use btb_trace::{build_program, server_suite, Trace, TraceExecutor, TraceRecord, WorkloadProfile};
use std::path::Path;
use std::time::Instant;

/// Server-suite profiles the batch workloads sweep, smallest to largest
/// code footprint relative to BTB capacity.
pub const PROFILES: [&str; 4] = ["web-small", "db-oltp", "rpc-dense", "monolith"];

/// Warm-up boundary step between rounds; any non-zero step gives every
/// round its own report and checkpoint keys.
const WARMUP_STEP: u64 = 97;

/// Memo replays after each fresh pass.
const REPLAYS_PER_PASS: usize = 1024;

/// Records per profile the traced run replays through single layers.
pub const LAYER_INSTS: usize = 60_000;

struct Shape {
    insts: usize,
    warmup: u64,
    fast_forward: bool,
    setup_reps: usize,
}

fn shape(w: Workload) -> Shape {
    match w {
        // Materialized traces, warm-up in the cycle tier: the timing
        // model and the functional frontend do nearly all the work.
        Workload::CycleSweep => Shape {
            insts: 150_000,
            warmup: 50_000,
            fast_forward: false,
            setup_reps: 15,
        },
        // Stored traces replayed as chunked streams, fast-forward
        // warm-up over 85% of each: verify, decode and the functional
        // frontend dominate, and pairs of cells share one checkpoint.
        Workload::FfStream => Shape {
            insts: 100_000,
            warmup: 85_000,
            fast_forward: true,
            setup_reps: 9,
        },
        Workload::ServeMix => unreachable!("serve-mix is not a batch workload"),
    }
}

/// The batch profiles with the workload seed mixed into their seeds.
#[must_use]
pub fn profiles(seed: u64) -> Vec<WorkloadProfile> {
    PROFILES
        .iter()
        .map(|name| {
            let mut p = server_suite()
                .into_iter()
                .find(|p| p.name == *name)
                .expect("profile in the server suite");
            p.seed = mix(p.seed, seed);
            p
        })
        .collect()
}

/// Where cells read their records from.
enum Inputs {
    Materialized(Vec<Trace>),
    Stored(Store),
}

pub fn run(args: &Args, run_dir: &Path, phases: &[Phase]) -> RunResult {
    let sh = shape(args.workload);
    let profiles = profiles(args.seed);
    let configs = btb_check::campaign_configs();
    let mut res = RunResult::default();

    let mut inputs = None;
    for rep in 0..sh.setup_reps {
        // Dropping the previous repetition's inputs (and deleting its
        // store) happens before the clock starts: the program never does
        // that work.
        drop(inputs.take());
        if rep > 0 && sh.fast_forward {
            let _ = std::fs::remove_dir_all(util::store_dir(run_dir, rep - 1));
        }
        let (made, secs) = util::timed(|| set_up(&sh, &profiles, run_dir, rep));
        res.setup_reps.push(secs);
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up");
    let store = match &inputs {
        Inputs::Stored(st) => Some(st),
        Inputs::Materialized(_) => None,
    };
    let trace_keys: Vec<Digest> = profiles
        .iter()
        .map(|p| btb_store::trace_key(p, sh.insts))
        .collect();
    let jobs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..profiles.len()).map(move |w| (c, w)))
        .collect();
    // Replays pass no store, so the harness memo answers them on both
    // workloads. Store reads are timed by serve-mix and the traced run:
    // their latency follows the host's file-system state and moved by up
    // to 2x between otherwise identical runs, too much for a gated figure.
    let cell = |c: usize, w: usize, pipe: &PipelineConfig, replay: bool| -> CellOutcome {
        match &inputs {
            Inputs::Materialized(traces) => {
                run_cell(&traces[w], &trace_keys[w], &configs[c], pipe, None)
            }
            Inputs::Stored(st) => run_cell_streamed(
                &profiles[w],
                sh.insts,
                &trace_keys[w],
                &configs[c],
                pipe,
                (!replay).then_some(st),
            ),
        }
    };

    let mut rng = Rng::new(args.seed);
    let mut round = 0u64;
    for &phase in phases {
        util::enter_phase(phase);
        let phase_start = Instant::now();
        let (insts_before, ops_before) = (res.fresh_insts, res.ops);
        let windows_before = res.windows.len();
        let min_rounds = min_rounds(jobs.len(), passes(&sh, 0).len());
        let mut rounds_here = 0;
        while rounds_here < min_rounds || phase_start.elapsed().as_secs_f64() < phase.seconds {
            let warm = sh.warmup + round * WARMUP_STEP;
            let mut delivered: Vec<(usize, usize, PipelineConfig, Option<SimReport>)> = Vec::new();
            let mut window = util::Window::default();
            for pipe in passes(&sh, warm) {
                let before = run_counters();
                let outcomes = btb_par::ordered_map(&jobs, |_, &(c, w)| {
                    let reference = util::reference_kernel();
                    let _span = btb_obs::span::enter("bench.cell");
                    let (out, secs) = util::cpu_timed(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cell(c, w, &pipe, false)
                        }))
                    });
                    (out, secs, reference)
                });
                let d = util::counters_delta(run_counters(), before);
                res.layer.counters = util::counters_add(res.layer.counters, d);
                if d.fresh_cells != d.cells || d.memo_hits != 0 || d.store_hits != 0 {
                    res.fail(
                        d.cells.saturating_sub(d.fresh_cells).max(1),
                        format!("round {round}: fresh pass counters {d:?} are not all fresh"),
                    );
                }
                for (&(c, w), (out, secs, reference)) in jobs.iter().zip(outcomes) {
                    res.attempted += 1;
                    window.ref_secs += reference;
                    window.ref_calls += 1;
                    let report = match out {
                        Ok(o) if o.source == CellSource::Fresh => {
                            res.ops += 1;
                            res.fresh_insts += sh.insts as u64;
                            res.fresh.push((res.windows.len(), secs * 1e3));
                            window.ops += 1;
                            window.fresh_insts += sh.insts as u64;
                            window.secs += secs;
                            Some(o.report)
                        }
                        Ok(o) => {
                            res.fail(1, format!("fresh cell came from {:?}", o.source));
                            None
                        }
                        Err(p) => {
                            res.fail(1, format!("cell panicked: {}", panic_msg(&*p)));
                            None
                        }
                    };
                    delivered.push((c, w, pipe.clone(), report));
                }
                replay(&mut res, &mut window, &mut rng, &delivered, &cell);
            }
            res.windows.push(window);
            if round == 0 {
                pin_round(args, &mut res, &delivered);
                res.layer.cells = delivered
                    .iter()
                    .map(|(c, w, pipe, _)| {
                        (
                            profiles[*w].clone(),
                            sh.insts,
                            configs[*c].clone(),
                            pipe.clone(),
                        )
                    })
                    .collect();
            }
            btb_harness::runner::reset_report_memo();
            round += 1;
            rounds_here += 1;
        }
        let secs = phase_start.elapsed().as_secs_f64();
        res.timed_s += secs;
        res.phases.push(crate::PhaseOutcome {
            traced: phase.traced,
            fresh_insts: res.fresh_insts - insts_before,
            ops: res.ops - ops_before,
            windows: util::window_sum(
                &res.windows[windows_before..]
                    .iter()
                    .map(util::Window::at_reference)
                    .collect::<Vec<_>>(),
            ),
            pool: btb_par::take_pool_stats(),
        });
    }
    util::enter_phase(Phase {
        traced: false,
        seconds: 0.0,
    });
    res.op_kinds = vec![
        ("fresh cell", res.fresh.len() as u64),
        ("memo replay", res.hits.len() as u64),
    ];
    res.layer.samples = samples(&inputs, &profiles, sh.insts);
    res.layer.scale = (sh.insts, sh.warmup);
    res.layer.streamed = store.is_some();
    if let Some(st) = store {
        res.layer.store_counters = Some(st.peek_counters());
    }
    res
}

/// Pipelines of one round: cycle-sweep runs the paper pipeline; ff-stream
/// runs each (profile, organization) under the paper pipeline and the
/// ideal backend, which share one warm-up checkpoint.
fn passes(sh: &Shape, warm: u64) -> Vec<PipelineConfig> {
    if sh.fast_forward {
        vec![
            PipelineConfig::paper()
                .with_warmup(warm)
                .with_fast_forward(),
            PipelineConfig::paper_ideal_backend()
                .with_warmup(warm)
                .with_fast_forward(),
        ]
    } else {
        vec![PipelineConfig::paper().with_warmup(warm)]
    }
}

/// Rounds a phase needs for ≥1000 hit and ≥100 fresh samples.
fn min_rounds(cells_per_pass: usize, passes: usize) -> usize {
    1000usize
        .div_ceil(REPLAYS_PER_PASS * passes)
        .max(100usize.div_ceil(cells_per_pass * passes))
}

fn set_up(sh: &Shape, profiles: &[WorkloadProfile], run_dir: &Path, rep: usize) -> Inputs {
    if !sh.fast_forward {
        return Inputs::Materialized(btb_par::ordered_map(profiles, |_, p| {
            Trace::generate(p, sh.insts)
        }));
    }
    let store = Store::open(util::store_dir(run_dir, rep)).expect("open the benchmark store");
    let published = btb_par::ordered_map(profiles, |_, p| {
        let prog = build_program(p);
        store.put_trace_stream(
            p,
            sh.insts,
            &p.name,
            TraceExecutor::new(&prog, p.seed).take(sh.insts),
        )
    });
    for (p, n) in profiles.iter().zip(published) {
        let n = n.unwrap_or_else(|e| panic!("publish {}: {e}", p.name));
        assert_eq!(n, sh.insts as u64, "published record count of {}", p.name);
    }
    Inputs::Stored(store)
}

/// Replays a seeded pick of the cells the round has delivered so far; each
/// replay must be a memo hit and byte-identical to the fresh report.
fn replay(
    res: &mut RunResult,
    window: &mut util::Window,
    rng: &mut Rng,
    delivered: &[(usize, usize, PipelineConfig, Option<SimReport>)],
    cell: &dyn Fn(usize, usize, &PipelineConfig, bool) -> CellOutcome,
) {
    let before = run_counters();
    let mut done = 0u64;
    for i in 0..REPLAYS_PER_PASS {
        if i % 128 == 0 {
            window.hit_reference();
        }
        let (c, w, pipe, fresh) = &delivered[rng.below(delivered.len())];
        let Some(fresh) = fresh else { continue };
        res.attempted += 1;
        done += 1;
        let (out, secs) = util::cpu_timed(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell(*c, *w, pipe, true)))
        });
        match out {
            Ok(o) if o.source == CellSource::Memo => {
                if btb_store::codec::encode_report(&o.report)
                    == btb_store::codec::encode_report(fresh)
                {
                    res.ops += 1;
                    window.ops += 1;
                    window.secs += secs;
                    window.hit_secs += secs;
                    res.hits.push((res.windows.len(), secs * 1e6));
                } else {
                    res.fail(
                        1,
                        format!("replay of {} is not byte-identical", o.report.config_name),
                    );
                }
            }
            Ok(o) => res.fail(1, format!("replay came from {:?}, not the memo", o.source)),
            Err(p) => res.fail(1, format!("replay panicked: {}", panic_msg(&*p))),
        }
    }
    let d = util::counters_delta(run_counters(), before);
    if d.fresh_cells != 0 || d.store_hits != 0 || d.memo_hits != done {
        res.fail(1, format!("replay counters {d:?} for {done} replays"));
    }
}

/// Digests round 0's reports in submission order (and keeps them for the
/// traced run's exact counts).
fn pin_round(
    args: &Args,
    res: &mut RunResult,
    delivered: &[(usize, usize, PipelineConfig, Option<SimReport>)],
) {
    let mut reports: Vec<SimReport> = delivered.iter().filter_map(|d| d.3.clone()).collect();
    if args.perturb {
        if let Some(first) = reports.first_mut() {
            first.stats.misfetches += 1;
        }
    }
    let mut h = btb_store::Sha256::new();
    for r in &reports {
        let violations = btb_check::check_report(r, PipelineConfig::paper().width as u64);
        if !violations.is_empty() {
            res.fail(
                1,
                format!("pinned report violates {}", violations.join("; ")),
            );
        }
        h.update(&btb_store::codec::encode_report(r));
    }
    res.digest = Some(h.finish());
    res.digest_items = delivered.len() as u64;
    res.layer.reports = reports;
}

/// The first [`LAYER_INSTS`] records of each profile's trace, as the cells
/// saw them.
fn samples(
    inputs: &Inputs,
    profiles: &[WorkloadProfile],
    insts: usize,
) -> Vec<(WorkloadProfile, Vec<TraceRecord>)> {
    profiles
        .iter()
        .enumerate()
        .map(|(w, p)| {
            let recs = match inputs {
                Inputs::Materialized(traces) => traces[w].records[..LAYER_INSTS].to_vec(),
                Inputs::Stored(st) => st
                    .open_trace_stream(p, insts)
                    .expect("stored trace")
                    .take(LAYER_INSTS)
                    .map(|r| r.expect("stored record"))
                    .collect(),
            };
            (p.clone(), recs)
        })
        .collect()
}

pub fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}
