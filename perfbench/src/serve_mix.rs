//! serve-mix: an in-process `btb-serve` over a store, driven as a closed
//! loop over one keep-alive connection, because its callers (`btb-load`,
//! CI scripts) each wait for their report before sending the next request.
//! The daemon runs one worker, so one request is in flight at a time.
//!
//! Set-up publishes the traces and a pool of reports straight through
//! `Store` and `btb_sim::simulate`, so the daemon's memo stays cold, then
//! warms the daemon's trace cache with one submission per profile. Two
//! callers' request streams take turns on the connection, one request
//! each:
//!
//! * the submitter sends `btb-load`'s default stream (`--requests 1000
//!   --distinct 24`, EXPERIMENTS.md's load-testing recipe) block after
//!   block: each block of 1000 requests draws uniformly from 24 new keys,
//!   so a key's first request is fresh (a queued simulation, then a store
//!   write) and every later one is a memo repeat;
//! * the reader sends `ci/serve_smoke.sh`'s conditional check over the
//!   pool, as if an earlier daemon had published it: a request for a pool
//!   key, which the daemon answers with a store read, then the same request
//!   with `If-None-Match` and the returned ETag, answered 304.
//!
//! [`BLOCKS_PER_WINDOW`] blocks of the submitter's stream, with the
//! reader's turns between their requests, are one [`util::Window`]. Each request is timed in the CPU
//! time the whole process spent on it, client included.

use crate::batch::{panic_msg, LAYER_INSTS, PROFILES};
use crate::util::{self, mix, Phase, Rng};
use crate::{Args, PhaseOutcome, RunResult};
use btb_serve::http::{self, Response};
use btb_serve::{HttpClient, ServerOptions};
use btb_sim::{PipelineConfig, SimReport};
use btb_store::{Digest, JsonValue, Store};
use btb_trace::{server_suite, Trace, WorkloadProfile};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const INSTS: usize = 30_000;
/// (profile, config) combinations: four profiles × the nine-config roster.
const COMBOS: usize = 36;
/// Pre-published report keys, one per combination; their warm-ups count
/// down from `INSTS / 2`.
const POOL: usize = COMBOS;
/// Fresh key `i` warms up for `FRESH_WARMUP + i` instructions, so every
/// fresh key is distinct and disjoint from the pool and the cache warm-up.
const FRESH_WARMUP: u64 = 1_000;
const MAX_FRESH: usize = 13_000;
/// Fresh keys whose first deliveries the output pin covers.
const PIN_FRESH: usize = 64;
const SETUP_REPS: usize = 7;
/// Requests kept for the traced run's HTTP and JSON replays.
const KEEP_REQUESTS: usize = 512;
/// The traced phases together end early once this many spans are
/// recorded, each after its share, so the 65,536-span ring never
/// overwrites one: every request records an `http.request` span, thousands
/// per second.
const SPAN_BUDGET: u64 = 48_000;
/// Blocks of the submitter's stream per window: about a second of work,
/// as long as a round of the batch workloads.
const BLOCKS_PER_WINDOW: usize = 4;
/// `btb-load`'s default stream: requests per run and distinct keys.
const LOAD_REQUESTS: usize = 1000;
const LOAD_DISTINCT: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Repeat,
    Prepublished,
    Conditional,
}

/// Request kinds in `ConnOut::kinds` order, as the run reports them.
const KIND_NAMES: [&str; 4] = ["fresh", "memo repeat", "store read", "304"];

/// One report key the mix can request.
#[derive(Clone)]
struct Cell {
    profile: usize,
    config: usize,
    warmup: u64,
}

impl Cell {
    /// (profile, config) combination `combo` of the `PROFILES` × roster
    /// grid.
    fn combo(combo: usize, warmup: u64) -> Cell {
        Cell {
            profile: combo % PROFILES.len(),
            config: combo / PROFILES.len(),
            warmup,
        }
    }

    /// Fresh key `i`. Every block of `COMBOS` fresh keys covers each
    /// (profile, config) combination once, in a seeded order, so the cost
    /// of the fresh stream does not depend on the seed.
    fn fresh(seed: u64, i: usize) -> Cell {
        let mut order: Vec<usize> = (0..COMBOS).collect();
        let mut rng = Rng::new(mix(seed, (i / COMBOS) as u64));
        for k in (1..COMBOS).rev() {
            order.swap(k, rng.below(k + 1));
        }
        Cell::combo(order[i % COMBOS], FRESH_WARMUP + i as u64)
    }

    fn body(&self, configs: &[btb_core::BtbConfig]) -> String {
        format!(
            "{{\"workload\": \"{}\", \"config\": \"{}\", \"insts\": {INSTS}, \"warmup\": {}}}",
            PROFILES[self.profile], configs[self.config].name, self.warmup
        )
    }

    fn pipe(&self) -> PipelineConfig {
        PipelineConfig::paper().with_warmup(self.warmup)
    }
}

/// State the connections share.
struct Mix<'a> {
    addr: SocketAddr,
    seed: u64,
    configs: &'a [btb_core::BtbConfig],
    pool: &'a [Cell],
    next_fresh: AtomicUsize,
    /// Pinned fresh index → (ETag, first body).
    fresh_first: Mutex<HashMap<usize, (String, Vec<u8>)>>,
    /// Pool index → (ETag, first body).
    pool_first: Mutex<HashMap<usize, (String, Vec<u8>)>>,
}

#[derive(Default)]
struct ConnOut {
    attempted: u64,
    ops: u64,
    /// Completed requests per kind, in `Kind` order.
    kinds: [u64; 4],
    /// (completion time since the timed region began, latency in µs) per
    /// hit.
    hits: Vec<(usize, f64)>,
    fresh: Vec<(usize, f64)>,
    /// Completed blocks of the submitter's stream.
    windows: Vec<util::Window>,
    failures: Vec<String>,
    failed: u64,
    retries_429: u64,
    /// (request id, was fresh) for joining `/debug/trace`.
    ids: Vec<(u64, bool)>,
    requests: Vec<Vec<u8>>,
    responses: Vec<Response>,
}

impl ConnOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

pub fn run(args: &Args, run_dir: &Path, phases: &[Phase]) -> RunResult {
    let configs = btb_check::campaign_configs();
    let profiles: Vec<WorkloadProfile> = PROFILES
        .iter()
        .map(|n| {
            server_suite()
                .into_iter()
                .find(|p| p.name == *n)
                .expect("profile in the server suite")
        })
        .collect();
    let pool: Vec<Cell> = (0..POOL)
        .map(|j| Cell::combo(j, (INSTS / 2 - j) as u64))
        .collect();
    let mut res = RunResult::default();

    let mut made = None;
    for rep in 0..SETUP_REPS {
        // Dropping the previous repetition's output and deleting its store
        // happen before the clock starts: the program never does that work.
        drop(made.take());
        if rep > 0 {
            let _ = std::fs::remove_dir_all(util::store_dir(run_dir, rep - 1));
        }
        let (m, secs) = util::timed(|| publish(args, run_dir, rep, &profiles, &configs, &pool));
        res.setup_reps.push(secs);
        made = Some(m);
    }
    let (dir, traces, pool_reports) = made.expect("at least one set-up");
    let store = btb_harness::install_store(Store::open(&dir).expect("open the serve store"))
        .unwrap_or_else(|_| panic!("the ambient store is installed once per process"));

    let once = Instant::now();
    let opts = ServerOptions {
        addr: "127.0.0.1:0".to_owned(),
        store: Some(dir),
        workers: 1,
        trace_wall: false,
        ..ServerOptions::default()
    };
    let handle = btb_serve::spawn(&opts).expect("spawn btb-serve");
    let addr = handle.addr;
    let mut probe = HttpClient::connect(addr).expect("connect to btb-serve");
    for (w, name) in PROFILES.iter().enumerate() {
        let warm = Cell::combo(w, 500 + w as u64);
        let resp = probe.post_json("/experiments", &warm.body(&configs));
        if !matches!(&resp, Ok(r) if r.status == 200) {
            res.fail(1, format!("trace-cache warm-up for {name} failed"));
        }
    }
    res.setup_once = once.elapsed().as_secs_f64();

    let shared = Mix {
        addr,
        seed: args.seed,
        configs: &configs,
        pool: &pool,
        next_fresh: AtomicUsize::new(0),
        fresh_first: Mutex::new(HashMap::new()),
        pool_first: Mutex::new(HashMap::new()),
    };
    let fresh_before = fresh_cells(&mut probe);
    let counters_before = btb_harness::run_counters();
    let mut kinds = [0u64; 4];
    let traced_phases = phases.iter().filter(|p| p.traced).count() as u64;
    for &phase in phases {
        util::enter_phase(phase);
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(phase.seconds);
        let span_limit = phase.traced.then(|| {
            btb_obs::span::recorded_spans() + SPAN_BUDGET / traced_phases.max(1)
        });
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            connection(&shared, deadline, span_limit)
        }))
        .unwrap_or_else(|p| {
            let mut out = ConnOut::default();
            out.fail(format!("connection panicked: {}", panic_msg(&*p)));
            out
        });
        let secs = start.elapsed().as_secs_f64();
        let base = res.windows.len();
        let windows = util::window_sum(
            &out.windows
                .iter()
                .map(util::Window::at_reference)
                .collect::<Vec<_>>(),
        );
        res.hits
            .extend(out.hits.into_iter().map(|(w, us)| (base + w, us)));
        res.fresh
            .extend(out.fresh.into_iter().map(|(w, ms)| (base + w, ms)));
        res.windows.extend(out.windows);
        for (sum, n) in kinds.iter_mut().zip(out.kinds) {
            *sum += n;
        }
        let fresh = out.kinds[Kind::Fresh as usize];
        res.attempted += out.attempted;
        res.failed += out.failed;
        res.failures.extend(out.failures);
        res.layer.serve.retries_429 += out.retries_429;
        if phase.traced {
            res.layer.serve.ids.extend(out.ids);
            res.layer.serve.store_reads += out.kinds[Kind::Prepublished as usize];
        }
        let room = KEEP_REQUESTS.saturating_sub(res.layer.serve.requests.len());
        res.layer
            .serve
            .requests
            .extend(out.requests.into_iter().take(room));
        let room = KEEP_REQUESTS.saturating_sub(res.layer.serve.responses.len());
        res.layer
            .serve
            .responses
            .extend(out.responses.into_iter().take(room));
        res.ops += out.ops;
        res.fresh_insts += fresh * INSTS as u64;
        res.timed_s += secs;
        res.phases.push(PhaseOutcome {
            traced: phase.traced,
            fresh_insts: fresh * INSTS as u64,
            ops: out.ops,
            windows,
            pool: btb_par::take_pool_stats(),
        });
    }
    util::enter_phase(Phase {
        traced: false,
        seconds: 0.0,
    });
    res.layer.counters = util::counters_delta(btb_harness::run_counters(), counters_before);
    res.layer.serve.hit_samples = res.hits.len() as u64;
    res.layer.serve.fresh_samples = res.fresh.len() as u64;
    res.layer.serve.kinds = kinds;
    res.op_kinds = KIND_NAMES.iter().copied().zip(kinds).collect();

    top_up_pins(&shared, &mut probe, &mut res);
    let issued = shared.next_fresh.load(Ordering::SeqCst).min(MAX_FRESH) as u64;
    match (fresh_before, fresh_cells(&mut probe)) {
        (Some(before), Some(after)) if after - before == issued => {}
        (before, after) => res.fail(
            issued
                .abs_diff(after.unwrap_or(0).saturating_sub(before.unwrap_or(0)))
                .max(1),
            format!(
                "run.fresh_cells went {before:?} -> {after:?} for {issued} distinct fresh keys"
            ),
        ),
    }
    pin(&shared, &mut res);

    drop(probe);
    if let Err(e) = handle.shutdown() {
        res.fail(1, format!("btb-serve shutdown: {e}"));
    }
    res.layer.samples = profiles
        .iter()
        .zip(&traces)
        .map(|(p, t)| {
            (
                p.clone(),
                t.records[..LAYER_INSTS.min(t.records.len())].to_vec(),
            )
        })
        .collect();
    res.layer.cells = pool
        .iter()
        .map(|c| {
            (
                profiles[c.profile].clone(),
                INSTS,
                configs[c.config].clone(),
                c.pipe(),
            )
        })
        .collect();
    res.layer.reports = pool_reports;
    res.layer.scale = (INSTS, 0);
    res.layer.store_counters = Some(store.peek_counters());
    res.layer.serve.bodies = (0..KEEP_REQUESTS)
        .map(|i| Cell::fresh(args.seed, i).body(&configs))
        .collect();
    res
}

/// One repeatable set-up: a fresh store with the traces and the report
/// pool published, simulated outside the harness so its memo stays cold.
fn publish(
    args: &Args,
    run_dir: &Path,
    rep: usize,
    profiles: &[WorkloadProfile],
    configs: &[btb_core::BtbConfig],
    pool: &[Cell],
) -> (std::path::PathBuf, Vec<Trace>, Vec<SimReport>) {
    let dir = util::store_dir(run_dir, rep);
    let store = Store::open(&dir).expect("open the serve store");
    let traces = btb_par::ordered_map(profiles, |_, p| {
        let t = Trace::generate(p, INSTS);
        store.put_trace(p, INSTS, &t);
        t
    });
    let mut reports = btb_par::ordered_map(pool, |_, c| {
        btb_sim::simulate(&traces[c.profile], configs[c.config].clone(), c.pipe())
    });
    if args.perturb {
        reports[0].stats.misfetches += 1;
    }
    for (c, r) in pool.iter().zip(&reports) {
        store.put_report(&report_key(&profiles[c.profile], &configs[c.config], c), r);
    }
    (dir, traces, reports)
}

fn report_key(p: &WorkloadProfile, config: &btb_core::BtbConfig, c: &Cell) -> Digest {
    btb_store::report_key(&btb_store::trace_key(p, INSTS), config, &c.pipe())
}

/// The closed loop of the one keep-alive connection: whole windows of the
/// submitter's stream until `deadline`, or in a traced phase until the
/// span ring holds `span_limit` spans.
fn connection(m: &Mix, deadline: Instant, span_limit: Option<u64>) -> ConnOut {
    let mut out = ConnOut::default();
    let mut client = match HttpClient::connect(m.addr) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(mix(m.seed, 100));
    // The submitter's place in its current block of `btb-load`'s stream:
    // requests sent, and per key slot the fresh index and first body once
    // delivered.
    let mut sent = 0;
    let mut keys: Vec<Option<(usize, Vec<u8>)>> = vec![None; LOAD_DISTINCT];
    let mut slot = 0;
    // The reader's pool key and ETag whose conditional repeat comes next.
    let mut pending: Option<(usize, String)> = None;
    let mut window = util::Window::default();
    let mut blocks = 0;
    let mut submitter = false;
    loop {
        submitter = !submitter;
        if submitter && sent == LOAD_REQUESTS {
            sent = 0;
            keys.fill(None);
            blocks += 1;
            if blocks % BLOCKS_PER_WINDOW == 0 {
                out.windows.push(std::mem::take(&mut window));
            }
        }
        if submitter
            && sent == 0
            && blocks % BLOCKS_PER_WINDOW == 0
            && Instant::now() >= deadline
        {
            break;
        }
        if span_limit.is_some_and(|limit| btb_obs::span::recorded_spans() >= limit) {
            break;
        }
        if out.attempted % 128 == 0 {
            window.reference();
        }
        // (kind, fresh or pool index, ETag to send).
        let (kind, key, etag) = if submitter {
            sent += 1;
            slot = rng.below(LOAD_DISTINCT);
            match &keys[slot] {
                Some((i, _)) => (Kind::Repeat, *i, None),
                None => {
                    let i = m.next_fresh.fetch_add(1, Ordering::SeqCst);
                    if i >= MAX_FRESH {
                        break;
                    }
                    (Kind::Fresh, i, None)
                }
            }
        } else {
            match pending.take() {
                Some((j, etag)) => (Kind::Conditional, j, Some(etag)),
                None => (Kind::Prepublished, rng.below(POOL), None),
            }
        };
        let body = if submitter {
            Cell::fresh(m.seed, key).body(m.configs)
        } else {
            m.pool[key].body(m.configs)
        };
        let mut headers = vec![("Content-Type".to_owned(), "application/json".to_owned())];
        if let Some(etag) = etag {
            headers.push(("If-None-Match".to_owned(), etag));
        }
        if out.requests.len() < KEEP_REQUESTS {
            let mut raw = Vec::new();
            let _ =
                http::write_request(&mut raw, "POST", "/experiments", &headers, body.as_bytes());
            out.requests.push(raw);
        }
        out.attempted += 1;
        let cpu = util::process_cpu_s();
        let resp = client.request("POST", "/experiments", &headers, body.as_bytes());
        let cpu = util::process_cpu_s() - cpu;
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{kind:?} request: {e}"));
                continue;
            }
        };
        if let Some(id) = resp
            .header("X-Btb-Request-Id")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
        {
            out.ids.push((id, kind == Kind::Fresh));
        }
        if resp.status == 429 {
            out.retries_429 += 1;
        }
        let source = resp.header("X-Btb-Source").unwrap_or("").to_owned();
        let ok = match kind {
            Kind::Fresh => resp.status == 200 && source == "fresh",
            Kind::Repeat => resp.status == 200 && source == "memo",
            Kind::Prepublished => resp.status == 200 && source == "store",
            Kind::Conditional => resp.status == 304,
        };
        if !ok {
            out.fail(format!("{kind:?} answered {} from {source:?}", resp.status));
            continue;
        }
        let etag = || resp.header("ETag").unwrap_or("").to_owned();
        match kind {
            Kind::Fresh => {
                if key < PIN_FRESH {
                    m.fresh_first
                        .lock()
                        .expect("fresh map lock")
                        .insert(key, (etag(), resp.body.clone()));
                }
                keys[slot] = Some((key, resp.body.clone()));
            }
            Kind::Repeat => {
                if keys[slot]
                    .as_ref()
                    .is_some_and(|(_, first)| *first != resp.body)
                {
                    out.fail(format!(
                        "memo repeat of fresh key {key} is not byte-identical"
                    ));
                    continue;
                }
            }
            Kind::Prepublished => {
                let mut map = m.pool_first.lock().expect("pool map lock");
                let first = map
                    .entry(key)
                    .or_insert_with(|| (etag(), resp.body.clone()));
                if first.1 != resp.body {
                    drop(map);
                    out.fail(format!("pool key {key} repeat is not byte-identical"));
                    continue;
                }
                pending = Some((key, etag()));
            }
            Kind::Conditional => {}
        }
        out.ops += 1;
        out.kinds[kind as usize] += 1;
        let w = out.windows.len();
        window.ops += 1;
        window.secs += cpu;
        if kind == Kind::Fresh {
            window.fresh_insts += INSTS as u64;
            out.fresh.push((w, cpu * 1e3));
        } else {
            window.hit_secs += cpu;
            out.hits.push((w, cpu * 1e6));
        }
        if out.responses.len() < KEEP_REQUESTS {
            out.responses.push(resp);
        }
    }
    out
}

/// Delivers any pinned key the timed region did not reach (untimed), so
/// the digest always covers the same outputs.
fn top_up_pins(m: &Mix, probe: &mut HttpClient, res: &mut RunResult) {
    while m.next_fresh.load(Ordering::SeqCst) < PIN_FRESH {
        let i = m.next_fresh.fetch_add(1, Ordering::SeqCst);
        top_up(
            probe,
            res,
            &Cell::fresh(m.seed, i).body(m.configs),
            "fresh",
            |etag, body| {
                m.fresh_first
                    .lock()
                    .expect("fresh map lock")
                    .insert(i, (etag, body));
            },
        );
    }
    for j in 0..POOL {
        if m.pool_first.lock().expect("pool map lock").contains_key(&j) {
            continue;
        }
        top_up(
            probe,
            res,
            &m.pool[j].body(m.configs),
            "store",
            |etag, body| {
                m.pool_first
                    .lock()
                    .expect("pool map lock")
                    .insert(j, (etag, body));
            },
        );
    }
}

fn top_up(
    probe: &mut HttpClient,
    res: &mut RunResult,
    body: &str,
    want: &str,
    record: impl FnOnce(String, Vec<u8>),
) {
    res.attempted += 1;
    match probe.post_json("/experiments", body) {
        Ok(r) if r.status == 200 && r.header("X-Btb-Source") == Some(want) => {
            record(r.header("ETag").unwrap_or("").to_owned(), r.body);
        }
        Ok(r) => res.fail(1, format!("pin top-up answered {}", r.status)),
        Err(e) => res.fail(1, format!("pin top-up: {e}")),
    }
}

/// Digest over the pinned first deliveries, `(key, body)` sorted by key.
fn pin(m: &Mix, res: &mut RunResult) {
    let fresh = m.fresh_first.lock().expect("fresh map lock");
    let pool = m.pool_first.lock().expect("pool map lock");
    let mut pairs: Vec<(&str, &[u8])> = fresh
        .iter()
        .filter(|(&i, _)| i < PIN_FRESH)
        .chain(pool.iter())
        .map(|(_, (etag, body))| (etag.as_str(), body.as_slice()))
        .collect();
    pairs.sort();
    let mut h = btb_store::Sha256::new();
    for (key, body) in &pairs {
        h.update(key.as_bytes());
        h.update(body);
    }
    res.digest = Some(h.finish());
    res.digest_items = pairs.len() as u64;
    if pairs.len() != PIN_FRESH + POOL {
        res.fail(
            1,
            format!(
                "{} pinned deliveries, want {}",
                pairs.len(),
                PIN_FRESH + POOL
            ),
        );
    }
}

fn fresh_cells(probe: &mut HttpClient) -> Option<u64> {
    let resp = probe.get("/metrics").ok()?;
    let json = JsonValue::parse(std::str::from_utf8(&resp.body).ok()?).ok()?;
    json.get("counters")?
        .get("run.fresh_cells")?
        .as_f64()
        .map(|v| v as u64)
}
