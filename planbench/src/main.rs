//! Plan-level benchmark of the EKTELO stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path planbench/Cargo.toml --features parallel -- \
//!     --workload <census_hb_striped|mwem_nnls_1d|sessions_1d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set-up (inputs, true answers, set-up
//! checks and warm-up requests, repeated `SETUP_PASSES` times), then a
//! closed-loop timed phase of whole rounds of requests lasting at least
//! `--seconds`. Every request's outputs are checked and scored outside
//! its timed interval. The last line of standard output is one JSON
//! object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a run whose requests are re-composed from the
//! plans' operator calls with a span around each (see README.md).

mod recompose;
mod score;
mod sys;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ektelo_core::kernel::ProtectedKernel;
use ektelo_matrix::plan_cache_clear;

use recompose::names;
use trace::{Counters, Tracer};
use work::{Scored, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        map.insert(k, v);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let args = Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// One finished request.
struct Rec {
    idx: u64,
    latency_ms: f64,
    /// `Err` when the plan returned an error (a failed operation).
    outcome: Result<Result<Scored, String>, String>,
    traced: Option<TracedRec>,
}

/// What the traced run adds to a request.
struct TracedRec {
    /// The untraced request run a second time, its shapes now cached.
    warm_ms: f64,
    total_ms: f64,
    self_ms: BTreeMap<&'static str, f64>,
    counts: Counts,
    reproduced: bool,
    additive_gap_ms: f64,
}

/// Counts of the untraced request: counter deltas read around it and its
/// kernel's measurement log and workspace pool.
struct Counts {
    counters: Counters,
    measure_calls: usize,
    measure_rows: usize,
    workspace_pool_bytes: usize,
}

impl Counts {
    fn of(counters: Counters, k: &ProtectedKernel) -> Self {
        Counts {
            counters,
            measure_calls: k.measurement_count(),
            measure_rows: k.measurements().iter().map(|m| m.answers.len()).sum(),
            workspace_pool_bytes: k.workspace_pool_resident_bytes(),
        }
    }
}

struct Phase {
    recs: Vec<Rec>,
    wall_s: f64,
    cpu_s: f64,
    tracer: Tracer,
}

/// The timed phase: one closed-loop client runs whole rounds of requests
/// until `seconds` have passed and the scored requests are done. Checking
/// and scoring (and, traced, the re-runs of the request) run between
/// requests; their wall and process CPU time is taken out of the phase.
fn run_phase(w: &Workload, seconds: f64, trace: bool) -> Phase {
    let start = Instant::now();
    let cpu0 = sys::process_cpu_s();
    let mut tracer = Tracer::new(start);
    let (mut aside_wall, mut aside_cpu) = (0.0, 0.0);
    let mut recs = Vec::new();
    let mut idx = 0;
    while idx < w.scored() || idx % w.round() != 0 || start.elapsed().as_secs_f64() < seconds {
        let before = trace.then(Counters::read);
        let t = Instant::now();
        let out = w.request(idx, None);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let counters = before.map(|b| Counters::read().since(&b));
        let (a_wall, a_cpu) = (Instant::now(), sys::process_cpu_s());
        let mut traced = None;
        let outcome = match out {
            Err(e) => Err(e.to_string()),
            Ok(o) => {
                let counts = counters.map(|c| Counts::of(c, &o.kernel));
                let plain = o.est;
                drop(o.kernel);
                let mut checked = w.check(idx, &plain);
                if let Some(counts) = counts {
                    match traced_request(w, idx, &mut tracer, &plain.x_hats, counts) {
                        Ok(tr) => traced = Some(tr),
                        Err(e) => checked = Err(format!("traced request: {e}")),
                    }
                }
                Ok(checked)
            }
        };
        aside_wall += a_wall.elapsed().as_secs_f64();
        aside_cpu += sys::process_cpu_s() - a_cpu;
        recs.push(Rec {
            idx,
            latency_ms,
            outcome,
            traced,
        });
        idx += 1;
    }
    Phase {
        recs,
        wall_s: start.elapsed().as_secs_f64() - aside_wall,
        cpu_s: sys::process_cpu_s() - cpu0 - aside_cpu,
        tracer,
    }
}

/// Runs request `idx` twice more after its untraced run: untraced again,
/// then as its re-composition under spans, each checked against the
/// untraced run's outputs bit for bit. Both find the shapes the first run
/// built already cached, so the difference of their times is what tracing
/// costs.
fn traced_request(
    w: &Workload,
    idx: u64,
    tr: &mut Tracer,
    plain: &[Vec<f64>],
    counts: Counts,
) -> Result<TracedRec, String> {
    let same = |x_hats: &[Vec<f64>]| {
        x_hats.len() == plain.len()
            && x_hats
                .iter()
                .zip(plain)
                .all(|(a, b)| score::same_bits(a, b))
    };
    let t = Instant::now();
    let again = w.request(idx, None).map_err(|e| e.to_string())?;
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    if !same(&again.est.x_hats) {
        return Err("a second untraced run gave another x̂".into());
    }
    drop(again);
    let (out, root) = tr.request(idx, |tr| w.request(idx, Some(tr)));
    let out = out.map_err(|e| e.to_string())?;
    w.check(idx, &out.est)?;
    let (self_ms, total_ms) = tr.self_times(root);
    Ok(TracedRec {
        warm_ms,
        total_ms,
        additive_gap_ms: (self_ms.values().sum::<f64>() - total_ms).abs(),
        self_ms,
        counts,
        reproduced: same(&out.est.x_hats),
    })
}

fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p90, and that percentile: the eleventh-largest sample of up to 100,
/// the tenth of them from the top beyond that. A p98 of a few hundred
/// requests would measure the machine's rare stalls, not the program.
/// With ten samples or fewer no percentile has ten beyond it, and the
/// largest stands in.
fn tail(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let beyond = n.div_ceil(10).max(10);
    (v[n - 1 - beyond], 100.0 * (n - beyond) as f64 / n as f64)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        // JSON has no NaN; a metric that could not be measured reads -1
        // and the run is marked incorrect.
        let v = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planbench: {e}");
            std::process::exit(2);
        }
    };
    if !work::NAMES.contains(&args.workload.as_str()) {
        eprintln!(
            "planbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            work::NAMES
        );
        std::process::exit(2);
    }

    // Every pool region runs inline on the client thread. The chunk
    // geometry, and with it every result, is that of the default pool;
    // only where the chunks run changes. On a 2-core virtual machine the
    // second core comes and goes with the host's load, and a pool that
    // spreads a request over both made census latencies follow it.
    ektelo_matrix::pool::set_workers(0);

    // Set-up, repeated `setup_passes` times; each pass clears the plan
    // cache so its warm-up fills it again. The first pass is timed from
    // process start.
    let mut setup_s = Vec::new();
    let mut data_ms = Vec::new();
    let mut workload: Option<Workload> = None;
    let mut pass = 0;
    while workload.as_ref().is_none_or(|w| pass < w.setup_passes()) {
        let t = if pass == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(workload.take());
        plan_cache_clear();
        let (w, ms) = match Workload::setup(&args.workload, args.seed) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("planbench: set-up check failed: {e}");
                std::process::exit(3);
            }
        };
        if let Err(e) = w.warm_up() {
            eprintln!("planbench: set-up request failed its check: {e}");
            std::process::exit(3);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        data_ms.push(ms);
        workload = Some(w);
        pass += 1;
    }
    let w = workload.expect("at least one set-up pass");
    eprintln!(
        "planbench: {} seed {} set-up passes {:?} s, pool workers {}",
        args.workload,
        args.seed,
        setup_s,
        ektelo_matrix::pool::workers()
    );

    let phase = run_phase(&w, args.seconds, args.trace);
    let attempted = phase.recs.len();
    let mut failed = 0;
    let mut correct = true;
    let mut scores = Vec::with_capacity(attempted);
    for r in &phase.recs {
        match &r.outcome {
            Err(e) => {
                failed += 1;
                eprintln!("planbench: request {} failed: {e}", r.idx);
            }
            Ok(Err(e)) => {
                correct = false;
                eprintln!("planbench: request {} failed its check: {e}", r.idx);
            }
            Ok(Ok(s)) => scores.push(*s),
        }
    }
    if scores.is_empty() {
        correct = false;
    } else if let Err(e) = w.final_check(&scores) {
        correct = false;
        eprintln!("planbench: run check failed: {e}");
    }
    let scored = w.scored() as usize;
    let scaled_error = if scores.len() >= scored && failed == 0 {
        scores[..scored].iter().map(|s| s.error).sum::<f64>() / scored as f64
    } else {
        f64::NAN
    };

    let mut m = Metrics(Vec::new());
    if !args.trace {
        let mut lat: Vec<f64> = phase.recs.iter().map(|r| r.latency_ms).collect();
        let p50 = median(&mut lat);
        let (tail_ms, pct) = tail(&mut lat);
        let done = (attempted - failed) as f64;
        m.add("request_p50_ms", p50, "ms");
        m.add("request_tail_ms", tail_ms, "ms");
        m.add("requests_per_s", done / phase.wall_s, "1/s");
        m.add("cpu_ms_per_request", phase.cpu_s * 1e3 / done, "ms");
        m.add("scaled_error", scaled_error, "ratio");
        m.add("peak_rss_mb", sys::peak_rss_mb(), "MiB");
        m.add("setup_s", median(&mut setup_s), "s");
        let q = |f: f64| lat[((lat.len() - 1) as f64 * f).round() as usize];
        eprintln!(
            "planbench: request_tail_ms is p{pct:.1} of {} requests; latency min/p25/p75/max \
             {:.1}/{:.1}/{:.1}/{:.1} ms; timed phase {:.3} s wall, {:.3} s CPU",
            lat.len(),
            q(0.0),
            q(0.25),
            q(0.75),
            q(1.0),
            phase.wall_s,
            phase.cpu_s
        );
    } else {
        correct &= layer_metrics(&phase, &mut m, median(&mut data_ms));
        write_trace(&args, &phase);
    }
    if let Some((name, _, _)) = m.0.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("planbench: {name} could not be measured");
        correct = false;
    }
    println!("{}", result_line(correct, attempted, failed, &m));
}

/// Per-layer metrics of a traced run: per-request medians of span self
/// times and counter deltas; ratios from run totals.
fn layer_metrics(phase: &Phase, m: &mut Metrics, data_ms: f64) -> bool {
    let recs: Vec<&TracedRec> = phase
        .recs
        .iter()
        .filter_map(|r| r.traced.as_ref())
        .collect();
    if recs.is_empty() {
        return false;
    }
    let med = |f: &dyn Fn(&TracedRec) -> f64| {
        let mut v: Vec<f64> = recs.iter().map(|r| f(r)).collect();
        median(&mut v)
    };
    for name in names::ALL.iter().chain(["request.unattributed"].iter()) {
        m.add(
            &format!("{name}_ms"),
            med(&|r| r.self_ms.get(name).copied().unwrap_or(0.0)),
            "ms",
        );
    }
    let traced_ms = med(&|r| r.total_ms);
    m.add("trace.request_ms", traced_ms, "ms");
    m.add("trace.overhead_ms", traced_ms - med(&|r| r.warm_ms), "ms");
    let reproduced = recs.iter().filter(|r| r.reproduced).count();
    m.add("trace.reproduced", reproduced as f64, "count");
    let c = |f: fn(&Counters) -> u64| med(&|r| f(&r.counts.counters) as f64);
    let total =
        |f: fn(&Counters) -> u64| recs.iter().map(|r| f(&r.counts.counters)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.add("plan_cache.hits", c(|x| x.plan_hits), "count");
    m.add("plan_cache.misses", c(|x| x.plan_misses), "count");
    let (ph, pm) = (total(|x| x.plan_hits), total(|x| x.plan_misses));
    m.add("plan_cache.hit_ratio", ratio(ph, ph + pm), "ratio");
    m.add("plan_cache.evictions", c(|x| x.plan_evictions), "count");
    m.add("matrix.plan_builds", c(|x| x.plan_builds), "count");
    m.add("senscache.hits", c(|x| x.sens_hits), "count");
    m.add("senscache.misses", c(|x| x.sens_misses), "count");
    let (sh, sm) = (total(|x| x.sens_hits), total(|x| x.sens_misses));
    m.add("senscache.hit_ratio", ratio(sh, sh + sm), "ratio");
    m.add("pool.completed", c(|x| x.pool_completed), "count");
    m.add("pool.queued", c(|x| x.pool_queued), "count");
    m.add("pool.stolen", c(|x| x.pool_stolen), "count");
    m.add("pool.inline", c(|x| x.pool_inline), "count");
    let (st, qu) = (total(|x| x.pool_stolen), total(|x| x.pool_queued));
    m.add("pool.steal_ratio", ratio(st, qu), "ratio");
    m.add(
        "kernel.measure_calls",
        med(&|r| r.counts.measure_calls as f64),
        "count",
    );
    m.add(
        "kernel.measure_rows",
        med(&|r| r.counts.measure_rows as f64),
        "count",
    );
    m.add(
        "plan_cache.resident_bytes",
        med(&|r| r.counts.counters.plan_resident_bytes as f64),
        "bytes",
    );
    m.add(
        "kernel.workspace_pool_bytes",
        med(&|r| r.counts.workspace_pool_bytes as f64),
        "bytes",
    );
    m.add("data.generate_ms", data_ms, "ms");
    let gap = recs.iter().map(|r| r.additive_gap_ms).fold(0.0, f64::max);
    eprintln!(
        "planbench: {} traced requests; {reproduced} reproduced x̂ bit for bit; \
         largest |Σ self times − request time| {gap:.2e} ms; ratio bases: plan cache {ph} hits / {pm} misses, \
         sens cache {sh} hits / {sm} misses, pool {st} stolen / {qu} queued",
        recs.len()
    );
    reproduced == recs.len() && gap < 1e-6
}

/// Writes every span of the traced run as JSON lines under
/// `planbench/traces/`.
fn write_trace(args: &Args, phase: &Phase) {
    let mut out = String::new();
    phase.tracer.write_jsonl(&mut out);
    let dir = std::path::Path::new("planbench/traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => eprintln!("planbench: spans written to {}", path.display()),
        Err(e) => eprintln!("planbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_has_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=26).rev().map(f64::from).collect();
        let (t, pct) = tail(&mut v);
        assert_eq!(t, 16.0);
        assert!((pct - 100.0 * 16.0 / 26.0).abs() < 1e-12);
        let mut many: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&mut many), (360.0, 90.0));
        let mut few = vec![3.0, 9.0, 1.0];
        assert_eq!(tail(&mut few), (9.0, 100.0));
    }
}
