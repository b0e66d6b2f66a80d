//! The traced run's per-layer metrics.
//!
//! The workload has just run an untraced phase and a traced phase (wall
//! spans and pool statistics on). This module reads the traced phase's
//! spans, then replays the workload's own traces, roster, reports and
//! request bytes through each crate's public functions, one batch per
//! span, and derives:
//!
//! * per-layer costs in ns or µs per operation, in the host time domain;
//! * exact simulated-domain counts summed over the pinned reports;
//! * a breakdown of the traced phase's host time by layer: each layer's
//!   cost times the number of operations the phase performed on it.
//!
//! Where a single call is too short to time alone, the cost comes from a
//! difference between two replays: update + plan versus update alone, and
//! the cycle tier versus fast-forward over the same records.

use crate::util::Metric;
use crate::{Args, PhaseOutcome, RunResult, Workload};
use btb_core::{build_btb, BtbConfig, OrgKind};
use btb_harness::RunCounters;
use btb_obs::WallSpan;
use btb_sim::{PipelineConfig, Predictors, SimReport, Simulator, WarmupCheckpoint};
use btb_store::{CounterSnapshot, Store};
use btb_trace::{build_program, TraceExecutor, TraceRecord, WorkloadProfile};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a workload run hands the traced run.
#[derive(Default)]
pub struct LayerInput {
    /// A prefix of each profile's trace, as the workload's cells saw it.
    pub samples: Vec<(WorkloadProfile, Vec<TraceRecord>)>,
    /// The pinned reports (batch: round 0; serve-mix: the published pool).
    pub reports: Vec<SimReport>,
    /// (profile, trace length, config, effective pipeline) per pinned cell.
    pub cells: Vec<(WorkloadProfile, usize, BtbConfig, PipelineConfig)>,
    /// Harness run-counter deltas over the fresh work of the timed region.
    pub counters: RunCounters,
    /// (trace length, warm-up) of the workload's cells.
    pub scale: (usize, u64),
    /// Whether cells stream their records from the store.
    pub streamed: bool,
    pub store_counters: Option<CounterSnapshot>,
    pub serve: ServeInput,
}

/// The serve-mix requests, responses and counts the traced run uses.
#[derive(Default)]
pub struct ServeInput {
    /// (request id, ran a simulation) of every traced-phase request.
    pub ids: Vec<(u64, bool)>,
    pub requests: Vec<Vec<u8>>,
    pub responses: Vec<btb_serve::http::Response>,
    pub bodies: Vec<String>,
    pub hit_samples: u64,
    pub fresh_samples: u64,
    pub retries_429: u64,
    /// Store-read requests (prepublished keys) in the traced phase.
    pub store_reads: u64,
    /// Completed requests per kind over the whole timed region: fresh,
    /// memo repeat, store read, 304.
    pub kinds: [u64; 4],
}

/// Organization kinds in metric-name order, with their short names.
const KINDS: [&str; 6] = ["ibtb", "rbtb", "rovf", "bbtb", "mbbtb", "hetero"];

fn kind_ix(k: &OrgKind) -> usize {
    match k {
        OrgKind::Instruction { .. } => 0,
        OrgKind::Region { .. } => 1,
        OrgKind::RegionOverflow { .. } => 2,
        OrgKind::Block { .. } => 3,
        OrgKind::MultiBlock { .. } => 4,
        OrgKind::HeteroBlockRegion { .. } => 5,
    }
}

/// Median wall seconds of `reps` runs of `f` inside one span named `name`.
fn batch(name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let _g = btb_obs::span::enter(name);
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

fn per(secs: f64, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        secs * scale / n as f64
    }
}

/// Per-operation costs measured by replaying the workload's inputs.
#[derive(Default)]
struct Costs {
    build_ms: f64,
    gen_ns: f64,
    publish_ns: f64,
    verify_ns: f64,
    decode_ns: f64,
    report_put_us: f64,
    report_get_us: f64,
    key_us: f64,
    json_us: f64,
    retire_ns: f64,
    update_ns: [f64; 6],
    plan_ns: [f64; 6],
    fetch_ns: f64,
    data_ns: f64,
    cycle_ns: f64,
    ff_ns: f64,
    check_us: f64,
    parse_us: f64,
    write_us: f64,
}

fn measure(input: &LayerInput, scratch: &Path) -> Result<Costs, String> {
    let mut c = Costs::default();
    let samples = &input.samples;
    let total: u64 = samples.iter().map(|(_, r)| r.len() as u64).sum();
    let branches: u64 = samples
        .iter()
        .flat_map(|(_, r)| r.iter())
        .filter(|r| r.op.is_branch())
        .count() as u64;
    let paper = PipelineConfig::paper();

    // trace: program build and trace generation.
    let secs = batch("layer.trace.build", 3, || {
        for (p, _) in samples {
            black_box(build_program(p));
        }
    });
    c.build_ms = per(secs, samples.len() as u64, 1e3);
    let progs: Vec<_> = samples.iter().map(|(p, _)| build_program(p)).collect();
    let secs = batch("layer.trace.gen", 3, || {
        for ((p, recs), prog) in samples.iter().zip(&progs) {
            TraceExecutor::new(prog, p.seed)
                .take(recs.len())
                .for_each(|r| {
                    black_box(r);
                });
        }
    });
    c.gen_ns = per(secs, total, 1e9);

    // store: streamed publish, verify pass, chunk decode, reports, keys.
    let store = Store::open(scratch.join("layer-store")).map_err(|e| e.to_string())?;
    let secs = batch("layer.store.publish", 3, || {
        for (p, recs) in samples {
            store
                .put_trace_stream(p, recs.len(), &p.name, recs.iter().copied())
                .expect("publish to the scratch store");
        }
    });
    c.publish_ns = per(secs, total, 1e9);
    let mut decode_secs = Vec::new();
    let secs = batch("layer.store.verify", 3, || {
        for (p, recs) in samples {
            let stream = store
                .open_trace_stream(p, recs.len())
                .expect("stored sample trace");
            let t = Instant::now();
            let mut n = 0;
            for r in stream {
                black_box(r.expect("decoded record"));
                n += 1;
            }
            decode_secs.push(t.elapsed().as_secs_f64());
            assert_eq!(n, recs.len(), "decoded record count");
        }
    });
    // `secs` covered verify + decode; split them with the decode timings.
    decode_secs.sort_by(f64::total_cmp);
    let decode = decode_secs.iter().sum::<f64>() / 3.0;
    c.decode_ns = per(decode, total, 1e9);
    c.verify_ns = per((secs - decode).max(0.0), total, 1e9);
    let keys: Vec<_> = (0..input.reports.len() as u64)
        .map(|i| btb_store::Sha256::digest(&i.to_le_bytes()))
        .collect();
    let n_reports = input.reports.len() as u64;
    let secs = batch("layer.store.report_put", 3, || {
        for (k, r) in keys.iter().zip(&input.reports) {
            store.put_report(k, r);
        }
    });
    c.report_put_us = per(secs, n_reports, 1e6);
    let secs = batch("layer.store.report_get", 3, || {
        for k in &keys {
            black_box(store.get_report(k).expect("report just put"));
        }
    });
    c.report_get_us = per(secs, n_reports, 1e6);
    let secs = batch("layer.store.key", 3, || {
        for _ in 0..20 {
            for (p, insts, cfg, pipe) in &input.cells {
                let tk = btb_store::trace_key(p, *insts);
                black_box(btb_store::report_key(&tk, cfg, pipe));
            }
        }
    });
    c.key_us = per(secs, 20 * input.cells.len() as u64, 1e6);
    let bodies = &input.serve.bodies;
    let secs = batch("layer.store.json_parse", 3, || {
        for _ in 0..10 {
            for b in bodies {
                black_box(btb_store::JsonValue::parse_strict(b).expect("request body parses"));
            }
        }
    });
    c.json_us = per(secs, 10 * bodies.len() as u64, 1e6);

    // bpred: retire-time training on every branch.
    let secs = batch("layer.bpred.retire", 3, || {
        let mut pred = Predictors::new(&paper);
        for (_, recs) in samples {
            for r in recs.iter().filter(|r| r.op.is_branch()) {
                pred.retire(r);
            }
        }
        black_box(&pred);
    });
    c.retire_ns = per(secs, branches, 1e9);

    // core: update alone, then update + retire with and without a plan
    // at every fetch-block start, per organization kind.
    let roster = btb_check::campaign_configs();
    for (ix, kind) in KINDS.iter().enumerate() {
        let cfg = roster
            .iter()
            .find(|c| !c.name.contains("ideal") && kind_ix(&c.kind) == ix)
            .unwrap_or_else(|| panic!("a realistic {kind} in the roster"))
            .clone();
        let secs = batch("layer.core.update", 3, || {
            for (_, recs) in samples {
                let mut btb = build_btb(cfg.clone());
                for r in recs.iter().filter(|r| r.op.is_branch()) {
                    btb.update(r);
                }
                black_box(btb.name().len());
            }
        });
        c.update_ns[ix] = per(secs, branches, 1e9);
        let mut plans = 0u64;
        let replay = |with_plan: bool| {
            let mut n = 0u64;
            for (_, recs) in samples {
                let mut btb = build_btb(cfg.clone());
                let mut pred = Predictors::new(&paper);
                let mut block_start = true;
                for r in recs {
                    if with_plan && block_start {
                        pred.begin_plan();
                        black_box(btb.plan(r.pc, &mut pred));
                        n += 1;
                    }
                    if r.op.is_branch() {
                        pred.retire(r);
                        btb.update(r);
                    }
                    block_start = r.taken;
                }
            }
            n
        };
        let base = batch("layer.core.update_retire", 3, || {
            replay(false);
        });
        let planned = batch("layer.core.plan", 3, || plans = replay(true));
        c.plan_ns[ix] = per((planned - base).max(0.0), plans, 1e9);
    }

    // uarch: instruction-side and data-side accesses.
    let mut fetches = 0u64;
    let secs = batch("layer.uarch.fetch", 3, || {
        let mut mem = btb_uarch::MemoryHierarchy::paper();
        let mut n = 0u64;
        for (_, recs) in samples {
            let mut last_line = u64::MAX;
            for (cycle, r) in recs.iter().enumerate() {
                if r.pc >> 6 != last_line {
                    last_line = r.pc >> 6;
                    mem.prefetch_inst(r.pc + 64, cycle as u64);
                    black_box(mem.fetch_inst(r.pc, cycle as u64));
                    n += 2;
                }
            }
        }
        fetches = n;
    });
    c.fetch_ns = per(secs, fetches, 1e9);
    let mut accesses = 0u64;
    let secs = batch("layer.uarch.data", 3, || {
        let mut mem = btb_uarch::MemoryHierarchy::paper();
        let mut n = 0u64;
        for (_, recs) in samples {
            for (cycle, r) in recs.iter().enumerate() {
                match r.op {
                    btb_trace::Op::Load => {
                        black_box(mem.load(r.pc, r.mem_addr, cycle as u64));
                        n += 1;
                    }
                    btb_trace::Op::Store => {
                        mem.store(r.pc, r.mem_addr, cycle as u64);
                        n += 1;
                    }
                    _ => {}
                }
            }
        }
        accesses = n;
    });
    c.data_ns = per(secs, accesses, 1e9);

    // sim: the full cycle tier versus fast-forward, same records, same
    // roster.
    let secs = batch("layer.sim.cycle", 1, || {
        for cfg in &roster {
            for (_, recs) in samples {
                black_box(Simulator::new(recs, cfg.clone(), paper.clone()).run());
            }
        }
    });
    c.cycle_ns = per(secs, total * roster.len() as u64, 1e9);
    let secs = batch("layer.sim.ff", 3, || {
        for cfg in &roster {
            for (_, recs) in samples {
                let mut it = recs.iter().copied();
                black_box(
                    WarmupCheckpoint::capture(&mut it, recs.len() as u64, cfg.clone(), &paper)
                        .expect("fast-forward over the sample"),
                );
            }
        }
    });
    c.ff_ns = per(secs, total * roster.len() as u64, 1e9);

    // check: conservation laws per delivered report.
    let secs = batch("layer.check.report", 3, || {
        for _ in 0..50 {
            for r in &input.reports {
                black_box(btb_check::check_report(r, paper.width as u64));
            }
        }
    });
    c.check_us = per(secs, 50 * n_reports, 1e6);

    // serve: HTTP parse and write of the workload's own messages.
    let reqs = &input.serve.requests;
    let secs = batch("layer.serve.parse", 3, || {
        for _ in 0..10 {
            for raw in reqs {
                let mut cur = std::io::Cursor::new(raw.as_slice());
                black_box(btb_serve::http::read_request(&mut cur).expect("request parses"));
            }
        }
    });
    c.parse_us = per(secs, 10 * reqs.len() as u64, 1e6);
    let resps = &input.serve.responses;
    let secs = batch("layer.serve.write", 3, || {
        let mut sink = Vec::with_capacity(1 << 16);
        for _ in 0..10 {
            for resp in resps {
                sink.clear();
                btb_serve::http::write_response(&mut sink, resp, true).expect("write to memory");
                black_box(sink.len());
            }
        }
    });
    c.write_us = per(secs, 10 * resps.len() as u64, 1e6);
    Ok(c)
}

/// Span statistics of the traced phase.
#[derive(Default)]
struct SpanStats {
    ckpt_captures: u64,
    ckpt_waits: u64,
    /// Mean job self time (ms) outside sim/store/ckpt/memo children.
    harness_self_ms: f64,
    queue_wait_ms: f64,
    cell_ms: f64,
    self_hit_us: f64,
    self_fresh_us: f64,
    /// Sum of request spans minus queue waits (serve-mix host time, ms).
    serve_busy_ms: f64,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn span_stats(spans: &[WallSpan], ids: &[(u64, bool)]) -> SpanStats {
    let mut st = SpanStats::default();
    // `run_cell` starts a fresh request context under `pool.job`, so its
    // spans are attributed to the job that ran them by thread and time,
    // not by parent id. Nested spans of the same families count once.
    let covering = |s: &WallSpan| {
        ["sim.", "store.", "ckpt.", "memo."]
            .iter()
            .any(|p| s.name.starts_with(p))
    };
    let covering_ids: std::collections::HashSet<u64> =
        spans.iter().filter(|s| covering(s)).map(|s| s.id).collect();
    let mut covered_by_thread: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| covering(s) && !covering_ids.contains(&s.parent))
    {
        covered_by_thread
            .entry(s.thread)
            .or_default()
            .push((s.start_us, s.dur_us));
    }
    let mut selfs = Vec::new();
    let mut waits = Vec::new();
    let mut cells = Vec::new();
    let mut by_request: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        match s.name {
            "ckpt.capture" => st.ckpt_captures += 1,
            "ckpt.wait" => st.ckpt_waits += 1,
            "bench.cell" | "cell.run" => {
                let end = s.start_us + s.dur_us;
                let covered: u64 = covered_by_thread
                    .get(&s.thread)
                    .map(|v| {
                        v.iter()
                            .filter(|(start, dur)| *start >= s.start_us && start + dur <= end)
                            .map(|(_, dur)| dur)
                            .sum()
                    })
                    .unwrap_or(0);
                selfs.push(s.dur_us.saturating_sub(covered) as f64 / 1e3);
                if s.name == "cell.run" {
                    cells.push(s.dur_us as f64 / 1e3);
                    by_request.entry(s.request).or_default().1 += s.dur_us;
                }
            }
            "queue.wait" => {
                waits.push(s.dur_us as f64 / 1e3);
                by_request.entry(s.request).or_default().1 += s.dur_us;
            }
            "http.request" => by_request.entry(s.request).or_default().0 += s.dur_us,
            _ => {}
        }
    }
    st.harness_self_ms = mean(&selfs);
    st.queue_wait_ms = mean(&waits);
    st.cell_ms = mean(&cells);
    let (mut hit, mut fresh) = (Vec::new(), Vec::new());
    for (id, was_fresh) in ids {
        let Some(&(total, children)) = by_request.get(id) else {
            continue;
        };
        if total == 0 {
            continue;
        }
        let own = total.saturating_sub(children) as f64;
        if *was_fresh {
            fresh.push(own);
        } else {
            hit.push(own);
        }
    }
    st.self_hit_us = mean(&hit);
    st.self_fresh_us = mean(&fresh);
    st.serve_busy_ms =
        (by_request.values().map(|v| v.0).sum::<u64>() as f64) / 1e3 - waits.iter().sum::<f64>();
    st
}

/// The traced (or untraced) phases of a run, summed into one.
fn merge_phases(phases: &[PhaseOutcome], traced: bool) -> PhaseOutcome {
    let mut sum = PhaseOutcome {
        traced,
        fresh_insts: 0,
        ops: 0,
        windows: crate::util::Window::default(),
        pool: btb_par::PoolStats {
            pooled_maps: 0,
            inline_maps: 0,
            jobs: 0,
            busy: Duration::ZERO,
            queue_wait: Duration::ZERO,
            wall: Duration::ZERO,
            max_workers: 0,
        },
    };
    for p in phases.iter().filter(|p| p.traced == traced) {
        sum.fresh_insts += p.fresh_insts;
        sum.ops += p.ops;
        sum.windows = crate::util::window_sum(&[sum.windows, p.windows]);
        sum.pool.jobs += p.pool.jobs;
        sum.pool.busy += p.pool.busy;
        sum.pool.queue_wait += p.pool.queue_wait;
        sum.pool.wall += p.pool.wall;
        sum.pool.max_workers = sum.pool.max_workers.max(p.pool.max_workers);
    }
    sum
}

/// Per-layer metrics of a traced run. Fails (emitting nothing) if the
/// span ring overwrote any span.
pub fn per_layer(args: &Args, run_dir: &Path, r: &RunResult) -> Result<Vec<Metric>, String> {
    let input = &r.layer;
    let phase_spans = btb_obs::span::recent_spans();
    btb_obs::span::set_wall_tracing(true);
    let costs = measure(input, run_dir)?;
    btb_obs::span::set_wall_tracing(false);
    let dropped = btb_obs::span::dropped_spans();
    let all = btb_obs::span::recent_spans();
    let out = Path::new(".perfbench-runs").join(format!("{}-trace.json", args.workload.name()));
    std::fs::write(&out, btb_obs::wall_trace_json(&all, "perfbench"))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# {} spans written to {}", all.len(), out.display());
    if dropped > 0 {
        return Err(format!(
            "the span ring overwrote {dropped} spans; the traced run is invalid"
        ));
    }
    let st = span_stats(&phase_spans, &input.serve.ids);
    let untraced = merge_phases(&r.phases, false);
    let traced = &merge_phases(&r.phases, true);
    // Rates over the phases' complete windows, in CPU time at the
    // reference speed.
    let rate = |p: &PhaseOutcome| {
        if args.workload == Workload::ServeMix {
            p.windows.ops as f64 / p.windows.secs
        } else {
            p.windows.fresh_insts as f64 / p.windows.secs
        }
    };
    let overhead = (rate(&untraced) / rate(traced) - 1.0) * 100.0;

    // Operations the traced phase performed on each layer.
    let (insts, warm) = input.scale;
    let fresh_cells = traced.fresh_insts / insts as u64;
    let streamed_insts = if input.streamed {
        traced.fresh_insts
    } else {
        0
    };
    let ff_insts = if input.streamed {
        st.ckpt_captures * warm
    } else {
        0
    };
    let cycle_insts = fresh_cells * (insts as u64 - if input.streamed { warm } else { 0 });
    let decoded_unused = st.ckpt_waits * warm;
    let timing_ns = (costs.cycle_ns - costs.ff_ns).max(0.0);
    let (http_ops, store_reads) = if args.workload == Workload::ServeMix {
        (traced.ops, input.serve.store_reads)
    } else {
        (0, 0)
    };
    let host_ns = if args.workload == Workload::ServeMix {
        st.serve_busy_ms * 1e6
    } else {
        traced.pool.busy.as_secs_f64() * 1e9
    };
    let share = |ns: f64| {
        if host_ns > 0.0 {
            100.0 * ns / host_ns
        } else {
            0.0
        }
    };

    let sum = |f: fn(&SimReport) -> u64| input.reports.iter().map(f).sum::<u64>() as f64;
    let store = input.store_counters.unwrap_or_default();
    let c = &input.counters;
    let mut m = vec![
        Metric::new("trace.build_ms", costs.build_ms, "ms"),
        Metric::new("trace.gen_ns_per_inst", costs.gen_ns, "ns/inst"),
        Metric::new("trace.decode_ns_per_inst", costs.decode_ns, "ns/inst"),
        Metric::new(
            "trace.decoded_unused_ratio",
            if streamed_insts > 0 {
                decoded_unused as f64 / streamed_insts as f64
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("store.verify_ns_per_inst", costs.verify_ns, "ns/inst"),
        Metric::new("store.publish_ns_per_inst", costs.publish_ns, "ns/inst"),
        Metric::new("store.report_get_us", costs.report_get_us, "us"),
        Metric::new("store.report_put_us", costs.report_put_us, "us"),
        Metric::new("store.key_us", costs.key_us, "us"),
        Metric::new("store.json_parse_us", costs.json_us, "us"),
        Metric::new("store.bytes_read", store.bytes_read as f64, "bytes"),
        Metric::new("store.bytes_written", store.bytes_written as f64, "bytes"),
        Metric::new("bpred.retire_ns_per_branch", costs.retire_ns, "ns/branch"),
        Metric::new(
            "bpred.cond_mispredicts",
            sum(|r| r.stats.cond_mispredicts),
            "count",
        ),
        Metric::new(
            "bpred.indirect_mispredicts",
            sum(|r| r.stats.indirect_mispredicts),
            "count",
        ),
    ];
    for (ix, kind) in KINDS.iter().enumerate() {
        m.push(Metric::new(
            format!("core.update_ns.{kind}"),
            costs.update_ns[ix],
            "ns",
        ));
    }
    for (ix, kind) in KINDS.iter().enumerate() {
        m.push(Metric::new(
            format!("core.plan_ns.{kind}"),
            costs.plan_ns[ix],
            "ns",
        ));
    }
    let l1i = if input.reports.is_empty() {
        0.0
    } else {
        input.reports.iter().map(|r| r.l1i_hit_rate).sum::<f64>() / input.reports.len() as f64
    };
    let captures_and_waits = st.ckpt_captures + st.ckpt_waits;
    m.extend([
        Metric::new("core.btb_accesses", sum(|r| r.stats.btb_accesses), "count"),
        Metric::new(
            "core.taken_l1_hits",
            sum(|r| r.stats.taken_l1_hits),
            "count",
        ),
        Metric::new(
            "core.taken_l2_hits",
            sum(|r| r.stats.taken_l2_hits),
            "count",
        ),
        Metric::new("uarch.fetch_ns", costs.fetch_ns, "ns"),
        Metric::new("uarch.data_ns", costs.data_ns, "ns"),
        Metric::new("uarch.l1i_hit_rate", l1i, "ratio"),
        Metric::new("sim.cycle_ns_per_inst", costs.cycle_ns, "ns/inst"),
        Metric::new("sim.ff_ns_per_inst", costs.ff_ns, "ns/inst"),
        Metric::new("sim.timing_ns_per_inst", timing_ns, "ns/inst"),
        Metric::new("sim.cycles", sum(|r| r.stats.last_commit_cycle), "count"),
        Metric::new("sim.misfetches", sum(|r| r.stats.misfetches), "count"),
        Metric::new("harness.cells", c.cells as f64, "count"),
        Metric::new("harness.fresh_cells", c.fresh_cells as f64, "count"),
        Metric::new("harness.memo_hits", c.memo_hits as f64, "count"),
        Metric::new("harness.store_hits", c.store_hits as f64, "count"),
        Metric::new("harness.ckpt_captures", st.ckpt_captures as f64, "count"),
        Metric::new(
            "harness.ckpt_reuse_ratio",
            if captures_and_waits > 0 {
                st.ckpt_waits as f64 / captures_and_waits as f64
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("harness.self_ms", st.harness_self_ms, "ms"),
        Metric::new("check.report_us", costs.check_us, "us"),
        Metric::new("par.utilization", traced.pool.utilization(), "ratio"),
        Metric::new(
            "par.queue_wait_ms",
            traced.pool.mean_queue_wait().as_secs_f64() * 1e3,
            "ms",
        ),
        Metric::new("serve.parse_us", costs.parse_us, "us"),
        Metric::new("serve.write_us", costs.write_us, "us"),
        Metric::new("serve.request_self_us.hit", st.self_hit_us, "us"),
        Metric::new("serve.request_self_us.fresh", st.self_fresh_us, "us"),
        Metric::new("serve.queue_wait_ms", st.queue_wait_ms, "ms"),
        Metric::new("serve.cell_ms", st.cell_ms, "ms"),
        Metric::new("serve.hit_samples", input.serve.hit_samples as f64, "count"),
        Metric::new(
            "serve.fresh_samples",
            input.serve.fresh_samples as f64,
            "count",
        ),
        Metric::new("serve.retries_429", input.serve.retries_429 as f64, "count"),
        Metric::new("serve.requests.fresh", input.serve.kinds[0] as f64, "count"),
        Metric::new("serve.requests.repeat", input.serve.kinds[1] as f64, "count"),
        Metric::new("serve.requests.store", input.serve.kinds[2] as f64, "count"),
        Metric::new(
            "serve.requests.not_modified",
            input.serve.kinds[3] as f64,
            "count",
        ),
        Metric::new("obs.trace_overhead_pct", overhead, "%"),
        Metric::new("obs.dropped_spans", dropped as f64, "count"),
        Metric::new(
            "share.verify_pct",
            share(streamed_insts as f64 * costs.verify_ns),
            "%",
        ),
        Metric::new(
            "share.decode_pct",
            share(streamed_insts as f64 * costs.decode_ns),
            "%",
        ),
        Metric::new("share.ff_pct", share(ff_insts as f64 * costs.ff_ns), "%"),
        Metric::new(
            "share.timing_pct",
            share(cycle_insts as f64 * timing_ns),
            "%",
        )
        .note(format!(
            "of {:.1} ms host busy time; {cycle_insts} cycle-tier, {streamed_insts} streamed, {ff_insts} fast-forwarded instructions, {http_ops} requests",
            host_ns / 1e6
        )),
        Metric::new(
            "share.http_json_pct",
            share(http_ops as f64 * (costs.parse_us + costs.write_us + costs.json_us) * 1e3),
            "%",
        ),
        Metric::new(
            "share.store_read_pct",
            share(store_reads as f64 * costs.report_get_us * 1e3),
            "%",
        ),
    ]);
    Ok(m)
}
