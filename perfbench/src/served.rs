//! The served workload (`served_warm`): the `serve` binary over loopback,
//! driven by the generator.

use crate::generator::{run_phase, Outcome, PhaseRecord, Sample, Schedule};
use crate::layers::{self, KernelInput, Spans, Work};
use crate::report::Report;
use crate::server::Server;
use crate::stats::{self, Timed};
use crate::workload::{self, Spec, Template};
use cvcp_core::json::Json;
use cvcp_core::{Engine, SelectionRequest};
use cvcp_server::RankedSelection;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Spawns of the server before the first round and again before each
/// round (the extra servers are shut down unused); `setup_s` is the median
/// over all of them, so it samples the host over the whole run.
const SETUP_SPAWNS: usize = 5;

/// Refusal codes counted per code in the traced run.
pub const REFUSAL_CODES: [&str; 5] = [
    "queue_full",
    "in_flight_limit",
    "server_busy",
    "invalid_request",
    "internal",
];

/// The artifact kinds whose cache latencies are reported.
pub const CACHE_KINDS: [&str; 6] = [
    "pairwise_distances",
    "core_distances",
    "mutual_reachability_mst",
    "density_hierarchy",
    "fold_closure",
    "mpck_seeding",
];

struct Inputs {
    templates: Vec<Template>,
    requests: Vec<SelectionRequest>,
    references: Vec<RankedSelection>,
    select_ms: Vec<f64>,
    realize_ms: Vec<f64>,
}

/// Realises every template and computes its in-process reference with
/// `select_model_with` at host threads (outside any timed phase).
fn inputs(spec: &Spec, seed: u64, spans: &mut Spans) -> Inputs {
    let templates = workload::templates(spec.kind, seed);
    let requests: Vec<SelectionRequest> = templates.iter().map(|t| t.request.clone()).collect();
    let engine = Engine::new(crate::host_threads());
    let mut references = Vec::new();
    let (mut select_ms, mut realize_ms) = (Vec::new(), Vec::new());
    for req in &requests {
        let t = Instant::now();
        let realized = spans.time("core.realize", |_| req.realize().expect("valid template"));
        realize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let selection = spans.time("core.select", |_| realized.select(&engine));
        select_ms.push(t.elapsed().as_secs_f64() * 1e3);
        references.push(RankedSelection::from_selection(&selection));
    }
    Inputs {
        templates,
        requests,
        references,
        select_ms,
        realize_ms,
    }
}

fn server_env(spec: &Spec, trace_dir: Option<&Path>) -> Vec<(&'static str, String)> {
    let mut env: Vec<(&'static str, String)> = spec
        .server_env
        .iter()
        .map(|&(k, v)| (k, v.to_string()))
        .collect();
    if let Some(dir) = trace_dir {
        env.push(("CVCP_TRACE_DIR", dir.display().to_string()));
    }
    env
}

/// Median and in-run quartile spread of repeated set-up times.
pub fn setup_summary(setups: &[f64]) -> (f64, f64) {
    (
        stats::median(setups).expect("several set-ups"),
        stats::quartile_spread(setups).unwrap_or(0.0),
    )
}

/// Spawns the server [`SETUP_SPAWNS`] times, recording each
/// spawn-to-first-pong time in `setups`, and keeps the last one.
fn spawn_measured(
    serve: &Path,
    env: &[(&'static str, String)],
    setups: &mut Vec<f64>,
) -> Result<Server, String> {
    let mut last = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(previous) = last.take() {
            Server::shutdown(previous)?;
        }
        let server = Server::spawn(serve, env)?;
        setups.push(server.setup_s);
        last = Some(server);
    }
    Ok(last.expect("at least one spawn"))
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    refusals: BTreeMap<String, u64>,
}

impl Counts {
    fn add(&mut self, record: &PhaseRecord) {
        for s in &record.samples {
            self.attempted += 1;
            match &s.outcome {
                Outcome::Ok => {}
                Outcome::Mismatch => {
                    self.failed += 1;
                    self.mismatches += 1;
                }
                Outcome::Error(code) => {
                    self.failed += 1;
                    *self.refusals.entry(code.clone()).or_insert(0) += 1;
                }
                Outcome::Lost => self.failed += 1,
            }
        }
    }
}

fn ok_latencies(record: &PhaseRecord) -> Vec<f64> {
    record
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .filter_map(Sample::latency_ms)
        .collect()
}

fn ok_count(record: &PhaseRecord) -> usize {
    record
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .count()
}

fn timed(record: &PhaseRecord) -> Vec<Timed> {
    record.samples.iter().map(|s| s.timed).collect()
}

/// Verdict of one ladder rung.
pub struct Rung {
    /// Whether the tail met the limit without failures or a growing backlog.
    pub pass: bool,
    /// Completed selections per second over the rung.
    pub achieved: f64,
    /// The rung's tail latency (ms) under the percentile rule.
    pub tail_ms: f64,
    /// Whether the backlog grew.
    pub backlog_grew: bool,
    /// Whether the generator fell behind its schedule.
    pub generator_behind: bool,
}

/// Judges an open-loop phase as a ladder rung.
fn judge(duration: f64, timed: &[Timed], latencies: &[f64], all_ok: bool, limit_ms: f64) -> Rung {
    let tail = stats::tail(latencies, 0.99);
    let backlog_grew = stats::backlog_grows(timed, duration);
    let generator_behind = stats::lateness(timed, 0.002).behind;
    let last_done = timed.iter().filter_map(|t| t.done).fold(0.0, f64::max);
    let tail_ms = tail.map_or(f64::INFINITY, |t| t.value);
    Rung {
        pass: all_ok && !backlog_grew && tail_ms <= limit_ms,
        achieved: if last_done > 0.0 {
            latencies.len() as f64 / last_done
        } else {
            0.0
        },
        tail_ms,
        backlog_grew,
        generator_behind,
    }
}

/// Rounds the closed, idle and load phases are split into, interleaved
/// over the run.
pub const ROUNDS: usize = 5;

/// Searches the workload's ladder for the highest rung that passes (see
/// [`stats::ladder_search`]).  `run(rate, seconds)` runs one open-loop rung
/// and returns its timings, the answered latencies (ms) and whether every
/// selection succeeded.  Returns the achieved rate of the highest passing
/// rung (0 when none passed).
pub fn run_ladder(
    spec: &Spec,
    seconds: f64,
    notes: &mut Vec<String>,
    mut run: impl FnMut(f64, f64) -> Result<(Vec<Timed>, Vec<f64>, bool), String>,
) -> Result<f64, String> {
    let mut achieved = vec![0.0; spec.ladder.len()];
    let best = stats::ladder_search::<String>(spec.ladder.len(), workload::LADDER_STRIDE, |i| {
        let rate = spec.ladder[i];
        let (timed, latencies, all_ok) = run(rate, seconds)?;
        let duration = timed.iter().map(|t| t.due).fold(0.0, f64::max) + 1.0 / rate;
        let rung = judge(duration, &timed, &latencies, all_ok, spec.latency_limit_ms);
        notes.push(format!(
            "ladder {rate}/s: {} (achieved {:.2}/s, tail {:.2} ms, backlog grew: {}, generator behind: {})",
            if rung.pass { "pass" } else { "fail" },
            rung.achieved,
            rung.tail_ms,
            rung.backlog_grew,
            rung.generator_behind
        ));
        achieved[i] = rung.achieved;
        Ok(rung.pass)
    })?;
    Ok(best.map_or(0.0, |i| achieved[i]))
}

/// A note on the generator's lateness over a set of open-loop phases.
pub fn lateness_note(what: &str, timed: &[Timed]) -> String {
    let late = stats::lateness(timed, 0.002);
    format!(
        "{what} generator lag: mean {:.3} ms, max {:.3} ms, late share {:.3}{}",
        late.mean * 1e3,
        late.max * 1e3,
        late.late_frac,
        if late.behind {
            " (FLAGGED: generator fell behind)"
        } else {
            ""
        }
    )
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64, serve: &Path) -> Result<Report, String> {
    let mut spans = Spans::default();
    let inp = inputs(spec, seed, &mut spans);
    let env = server_env(spec, None);
    let mut setups = Vec::new();
    let server = spawn_measured(serve, &env, &mut setups)?;
    let mut counts = Counts::default();
    let mut report = Report::default();
    let addr = server.addr.clone();
    let mut draws = workload::draws(&inp.templates, seed, 0xD1);
    let phase = |draws: &mut dyn Iterator<Item = usize>, schedule, duration, tag: &str| {
        run_phase(
            &addr,
            &inp.requests,
            &inp.references,
            draws,
            schedule,
            duration,
            false,
            tag,
        )
    };
    let closed_window = Schedule::Closed {
        window: spec.closed_window,
    };

    // Warm-up: a short closed loop (the draws visit every template in
    // proportion, so the warm workload's templates are all cached after it).
    counts.add(&phase(
        &mut draws,
        closed_window,
        (0.1 * seconds).max(1.0),
        "warm",
    )?);

    // Per round: closed, idle and load slices.  The open phases get the
    // longer slices because their rates give fewer samples per second.
    let (closed_s, idle_s, load_s) = (0.04 * seconds, 0.08 * seconds, 0.06 * seconds);
    let (mut rps, mut closed, mut idle, mut load) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut idle_timed, mut load_timed) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        spawn_measured(serve, &env, &mut setups)?.shutdown()?;
        let rec = phase(&mut draws, closed_window, closed_s, &format!("closed{r}"))?;
        counts.add(&rec);
        rps.push(ok_count(&rec) as f64 / rec.elapsed.max(1e-9));
        closed.push(ok_latencies(&rec));
        let rec = phase(
            &mut draws,
            Schedule::Open {
                rate: spec.idle_rate,
            },
            idle_s,
            &format!("idle{r}"),
        )?;
        counts.add(&rec);
        idle.push(ok_latencies(&rec));
        idle_timed.extend(timed(&rec));
        let rec = phase(
            &mut draws,
            Schedule::Open {
                rate: spec.load_rate,
            },
            load_s,
            &format!("load{r}"),
        )?;
        counts.add(&rec);
        load.push(ok_latencies(&rec));
        load_timed.extend(timed(&rec));
    }
    let sustained = run_ladder(spec, 0.04 * seconds, &mut report.notes, |rate, secs| {
        let rec = phase(
            &mut draws,
            Schedule::Open { rate },
            secs,
            &format!("rung{rate}"),
        )?;
        counts.add(&rec);
        let all_ok = rec.samples.iter().all(|s| s.outcome == Outcome::Ok);
        Ok((timed(&rec), ok_latencies(&rec), all_ok))
    })?;
    let peak_rss = server.peak_rss_mib();
    server.shutdown()?;

    report
        .notes
        .push(format!("closed-loop throughput per round: {rps:.2?}"));
    report.notes.push(lateness_note("load phases", &load_timed));
    report.notes.push(lateness_note("idle phases", &idle_timed));
    let setup = setup_summary(&setups);
    report.push_detail(
        "setup_s",
        setup.0,
        "s",
        format!(
            "median of {} spawns over the run, in-run spread {:.3}",
            setups.len(),
            setup.1
        ),
    );
    report.push_detail(
        "throughput_rps",
        stats::median(&rps).unwrap_or(0.0),
        "1/s",
        format!(
            "closed loop, {} in flight, median of {ROUNDS} rounds",
            spec.closed_window
        ),
    );
    report.push_rounds("closed_p50_ms", "closed_p99_ms", &closed, 0.99);
    report.push_rounds("load_p50_ms", "load_p99_ms", &load, 0.99);
    report.push_rounds("idle_p50_ms", "idle_p90_ms", &idle, 0.90);
    report.push_detail(
        "sustained_rps",
        sustained,
        "1/s",
        format!(
            "ladder {:?}/s, limit {} ms",
            spec.ladder, spec.latency_limit_ms
        ),
    );
    counts_into(&mut report, &counts);
    report.push_detail(
        "failed_frac",
        report.failed_frac(),
        "fraction",
        format!("{} of {}", counts.failed, counts.attempted),
    );
    report.push("peak_rss_mib", peak_rss, "MiB");
    Ok(report)
}

/// `(count, sum of count × mean_ns)` over the lanes of a histogram array.
fn lanes(doc: Option<&Json>) -> (f64, f64) {
    doc.and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .fold((0.0, 0.0), |(c, s), h| {
            let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            let mean = h.get("mean_ns").and_then(Json::as_f64).unwrap_or(0.0);
            (c + count, s + count * mean)
        })
}

/// Mean (ns) of the samples added between two snapshots of a histogram.
fn delta_mean_ns(before: (f64, f64), after: (f64, f64)) -> f64 {
    let n = after.0 - before.0;
    if n > 0.0 {
        (after.1 - before.1) / n
    } else {
        0.0
    }
}

fn path<'a>(doc: &'a Json, keys: &[&str]) -> Option<&'a Json> {
    keys.iter().try_fold(doc, |d, k| d.get(k))
}

fn num(doc: &Json, keys: &[&str]) -> f64 {
    path(doc, keys).and_then(Json::as_f64).unwrap_or(0.0)
}

fn kind_hist<'a>(metrics: &'a Json, kind: &str, which: &str) -> Option<&'a Json> {
    path(metrics, &["engine", "cache_kinds"])?
        .as_arr()?
        .iter()
        .find(|k| k.get("kind").and_then(Json::as_str) == Some(kind))?
        .get(which)
}

fn one(h: Option<&Json>) -> (f64, f64) {
    h.map_or((0.0, 0.0), |h| {
        let c = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        (
            c,
            c * h.get("mean_ns").and_then(Json::as_f64).unwrap_or(0.0),
        )
    })
}

/// Engine profile numbers of traced selections, summed for means.
#[derive(Default)]
pub struct ProfileAgg {
    n: usize,
    jobs: f64,
    wall_ms: f64,
    critical_ms: f64,
    parallelism: f64,
    schedule_overhead: f64,
    steal_ratio: f64,
    busy_frac: f64,
    by_name: BTreeMap<&'static str, f64>,
    named: usize,
}

impl ProfileAgg {
    /// Adds one graph: its profile (the `graph_profile_json` shape) and,
    /// when available, its Chrome trace, which names the critical path's
    /// jobs.
    pub fn add(&mut self, profile: &Json, chrome_trace: Option<Json>) {
        self.n += 1;
        let wall_us = num(profile, &["wall_us"]);
        self.jobs += num(profile, &["n_jobs"]);
        self.wall_ms += wall_us / 1e3;
        self.critical_ms += num(profile, &["critical_path_us"]) / 1e3;
        self.parallelism += num(profile, &["parallelism"]);
        self.schedule_overhead += num(profile, &["schedule_overhead"]);
        self.steal_ratio += num(profile, &["steal_ratio"]);
        let workers = num(profile, &["n_workers"]).max(1.0);
        self.busy_frac += num(profile, &["total_busy_us"]) / (wall_us.max(1e-9) * workers);
        if let Some(doc) = chrome_trace {
            let critical: Vec<usize> = path(profile, &["critical_path_jobs"])
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_usize)
                .collect();
            let jobs = layers::jobs_from_chrome(&doc);
            for (name, ms) in layers::critical_path_by_name(&critical, &jobs) {
                *self.by_name.entry(name).or_insert(0.0) += ms;
            }
            self.named += 1;
        }
    }

    /// Reports the `engine.*` metrics as means over the graphs added.
    pub fn push(&self, report: &mut Report) {
        let n = self.n.max(1) as f64;
        report.push_detail(
            "engine.jobs_per_selection",
            self.jobs / n,
            "count",
            format!("n={}", self.n),
        );
        report.push("engine.wall_ms", self.wall_ms / n, "ms");
        report.push("engine.critical_path_ms", self.critical_ms / n, "ms");
        let named = self.named.max(1) as f64;
        for name in layers::JOB_NAMES {
            report.push_detail(
                format!("engine.critical_path_ms.{name}"),
                self.by_name.get(name).copied().unwrap_or(0.0) / named,
                "ms",
                format!("mean over {} traced graphs", self.named),
            );
        }
        report.push("engine.parallelism", self.parallelism / n, "ratio");
        report.push("engine.worker_busy_frac", self.busy_frac / n, "fraction");
        report.push("engine.steal_ratio", self.steal_ratio / n, "ratio");
        report.push(
            "engine.schedule_overhead",
            self.schedule_overhead / n,
            "ratio",
        );
    }
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    serve: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let mut spans = Spans::default();
    let inp = inputs(spec, seed, &mut spans);
    let mut report = Report::default();
    let mut counts = Counts::default();
    let warmup = (0.05 * seconds).max(1.0);
    let window = Schedule::Closed {
        window: spec.closed_window,
    };

    // Untraced baseline for the tracing overhead.
    let untraced_rps = {
        let server = Server::spawn(serve, &server_env(spec, None))?;
        let mut draws = workload::draws(&inp.templates, seed, 0xD1);
        let addr = server.addr.clone();
        counts.add(&run_phase(
            &addr,
            &inp.requests,
            &inp.references,
            &mut draws,
            window,
            warmup,
            false,
            "warm",
        )?);
        let rec = run_phase(
            &addr,
            &inp.requests,
            &inp.references,
            &mut draws,
            window,
            0.2 * seconds,
            false,
            "base",
        )?;
        counts.add(&rec);
        server.shutdown()?;
        ok_count(&rec) as f64 / rec.elapsed.max(1e-9)
    };

    // Traced server: every selection traced, Chrome files per request.
    let trace_dir = out_dir.join(format!("serve-traces-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("create {}: {e}", trace_dir.display()))?;
    let server = Server::spawn(serve, &server_env(spec, Some(&trace_dir)))?;
    let addr = server.addr.clone();
    let mut draws = workload::draws(&inp.templates, seed, 0xD1);
    let traced = |draws: &mut dyn Iterator<Item = usize>, schedule, duration, tag: &str| {
        run_phase(
            &addr,
            &inp.requests,
            &inp.references,
            draws,
            schedule,
            duration,
            true,
            tag,
        )
    };
    counts.add(&traced(&mut draws, window, warmup, "twarm")?);
    let stats0 = server.control("stats")?;
    let metrics0 = server.control("metrics")?;
    let closed = traced(&mut draws, window, 0.2 * seconds, "tclosed")?;
    counts.add(&closed);
    let idle = traced(
        &mut draws,
        Schedule::Open {
            rate: spec.idle_rate,
        },
        0.15 * seconds,
        "tidle",
    )?;
    counts.add(&idle);
    let load = traced(
        &mut draws,
        Schedule::Open {
            rate: spec.load_rate,
        },
        0.15 * seconds,
        "tload",
    )?;
    counts.add(&load);
    let stats1 = server.control("stats")?;
    let metrics1 = server.control("metrics")?;
    server.shutdown()?;
    let traced_rps = ok_count(&closed) as f64 / closed.elapsed.max(1e-9);

    // Server overhead: served latency minus the graph's wall time, on the
    // idle probe (every request alone at an idle event loop).
    let read_trace = |id: &str| -> Option<Json> {
        let text = std::fs::read_to_string(trace_dir.join(format!("{id}.trace.json"))).ok()?;
        Json::parse(&text).ok()
    };
    let mut overhead = Vec::new();
    let mut served = Vec::new();
    let mut idle_prof = ProfileAgg::default();
    for s in idle.samples.iter().filter(|s| s.outcome == Outcome::Ok) {
        if let (Some(lat), Some(p)) = (s.latency_ms(), &s.profile) {
            overhead.push(lat - num(p, &["wall_us"]) / 1e3);
            served.push(lat);
            idle_prof.add(p, read_trace(&s.id));
        }
    }
    let mut closed_prof = ProfileAgg::default();
    for s in closed.samples.iter().filter(|s| s.outcome == Outcome::Ok) {
        if let Some(p) = &s.profile {
            closed_prof.add(p, read_trace(&s.id));
        }
    }
    std::fs::remove_dir_all(&trace_dir).ok();

    report.push_detail(
        "server.served_p50_ms",
        stats::median(&served).unwrap_or(0.0),
        "ms",
        format!("idle probe, n={}", served.len()),
    );
    report.push_detail(
        "server.overhead_p50_ms",
        stats::median(&overhead).unwrap_or(0.0),
        "ms",
        format!(
            "served latency minus graph wall, idle probe, n={}",
            overhead.len()
        ),
    );
    push_queue_waits(&mut report, [&stats0, &stats1], [&metrics0, &metrics1]);
    for code in REFUSAL_CODES {
        report.push(
            format!("server.refusals.{code}"),
            *counts.refusals.get(code).unwrap_or(&0) as f64,
            "count",
        );
    }
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for rec in [&closed, &idle, &load] {
        encode.extend(&rec.encode_ns);
        decode.extend(&rec.decode_ns);
    }
    report.push_detail(
        "protocol.encode_us",
        stats::mean(&encode) / 1e3,
        "us",
        format!("Request::to_line, n={}", encode.len()),
    );
    report.push_detail(
        "protocol.decode_us",
        stats::mean(&decode) / 1e3,
        "us",
        format!("Response::from_line, n={}", decode.len()),
    );
    report.push("core.realize_ms", stats::mean(&inp.realize_ms), "ms");
    report.push("core.select_ms", stats::mean(&inp.select_ms), "ms");

    closed_prof.push(&mut report);
    push_cache(&mut report, [&stats0, &stats1], [&metrics0, &metrics1]);
    kernels(
        &mut report,
        &mut spans,
        &kernel_inputs(&inp.requests),
        0.1 * seconds,
    );
    report.push_detail(
        "obs.trace_overhead_frac",
        1.0 - traced_rps / untraced_rps.max(1e-9),
        "fraction",
        format!("closed-loop rps untraced {untraced_rps:.2} vs traced {traced_rps:.2}"),
    );
    report.notes.push(format!(
        "warm-request breakdown (idle probe, means): served {:.3} ms = server overhead {:.3} ms + graph wall {:.3} ms; critical path {:.3} ms",
        stats::mean(&served),
        stats::mean(&overhead),
        idle_prof.wall_ms / idle_prof.n.max(1) as f64,
        idle_prof.critical_ms / idle_prof.n.max(1) as f64,
    ));
    for name in layers::JOB_NAMES {
        if let Some(ms) = idle_prof.by_name.get(name) {
            report.notes.push(format!(
                "  critical path, idle probe: {name} {:.3} ms",
                ms / idle_prof.named.max(1) as f64
            ));
        }
    }
    counts_into(&mut report, &counts);
    finish_spans(&mut report, &spans, out_dir, spec.name, seed);
    Ok(report)
}

/// Server and engine queue waits between two `stats` and two `metrics`
/// snapshots.
pub fn push_queue_waits(report: &mut Report, stats: [&Json; 2], metrics: [&Json; 2]) {
    let [stats0, stats1] = stats;
    let [metrics0, metrics1] = metrics;
    report.push(
        "server.queue_wait_mean_ms",
        delta_mean_ns(
            lanes(path(stats0, &["queue", "admission_wait"])),
            lanes(path(stats1, &["queue", "admission_wait"])),
        ) / 1e6,
        "ms",
    );
    report.push(
        "server.graph_queue_wait_mean_ms",
        delta_mean_ns(
            lanes(path(metrics0, &["engine", "graph_queue_wait"])),
            lanes(path(metrics1, &["engine", "graph_queue_wait"])),
        ) / 1e6,
        "ms",
    );
}

/// Cache counters and per-kind latencies between two `stats` and two
/// `metrics` snapshots (the server's JSON shapes).
pub fn push_cache(report: &mut Report, stats: [&Json; 2], metrics: [&Json; 2]) {
    let [stats0, stats1] = stats;
    let [metrics0, metrics1] = metrics;
    let hits = num(stats1, &["cache", "hits"]) - num(stats0, &["cache", "hits"]);
    let misses = num(stats1, &["cache", "misses"]) - num(stats0, &["cache", "misses"]);
    report.push_detail(
        "cache.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "fraction",
        "hits over gets, traced phases".into(),
    );
    report.push("cache.misses", misses, "count");
    report.push(
        "cache.evictions",
        num(stats1, &["cache", "evictions"]) - num(stats0, &["cache", "evictions"]),
        "count",
    );
    report.push(
        "cache.evicted_mib",
        (num(stats1, &["cache", "evicted_bytes"]) - num(stats0, &["cache", "evicted_bytes"]))
            / 1048576.0,
        "MiB",
    );
    report.push(
        "cache.peak_resident_mib",
        num(stats1, &["cache", "peak_resident_bytes"]) / 1048576.0,
        "MiB",
    );
    for kind in CACHE_KINDS {
        let get = delta_mean_ns(
            one(kind_hist(metrics0, kind, "get")),
            one(kind_hist(metrics1, kind, "get")),
        );
        let compute = delta_mean_ns(
            one(kind_hist(metrics0, kind, "compute")),
            one(kind_hist(metrics1, kind, "compute")),
        );
        report.push(format!("cache.get_mean_us.{kind}"), get / 1e3, "us");
        report.push(format!("cache.compute_mean_ms.{kind}"), compute / 1e6, "ms");
    }
}

fn counts_into(report: &mut Report, counts: &Counts) {
    report.attempted = counts.attempted;
    report.failed = counts.failed;
    report.mismatches = counts.mismatches;
}

/// One kernel input per distinct replica of the workload's templates, over
/// the template's own `MinPts` grid.  The served workload sends no
/// MPCKMeans requests, so its MPCKMeans kernel is not timed.
fn kernel_inputs(requests: &[SelectionRequest]) -> Vec<KernelInput> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for req in requests {
        let key = (req.dataset.clone(), req.seed);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        out.push(KernelInput {
            request: req.clone(),
            min_pts: req.params.clone(),
            ks: Vec::new(),
        });
    }
    out
}

/// Times the kernels over `inputs` for at least one pass and up to
/// `budget` seconds, and reports each kernel's mean self time per call
/// with its computed work.
pub fn kernels(report: &mut Report, spans: &mut Spans, inputs: &[KernelInput], budget: f64) {
    let mut work = Work::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < budget {
        for input in inputs {
            layers::time_kernels(spans, input, &mut work);
        }
        passes += 1;
    }
    let self_times = spans.self_times();
    for (kernel, unit) in layers::KERNELS {
        let (calls, mean_ns) = self_times.get(kernel).copied().unwrap_or((0, 0.0));
        let value = if unit == "ms" {
            mean_ns / 1e6
        } else {
            mean_ns / 1e3
        };
        let metric = format!("{kernel}_{unit}");
        report.push_detail(
            metric,
            value,
            unit,
            format!("{calls} calls over {passes} passes"),
        );
        let (n, ops, bytes) = work
            .per_kernel
            .get(kernel)
            .copied()
            .unwrap_or((0, 0.0, 0.0));
        let n = n.max(1) as f64;
        report.push_detail(
            format!("{kernel}.ops_computed"),
            ops / n,
            "count",
            "computed per call, not counted".into(),
        );
        report.push_detail(
            format!("{kernel}.bytes_computed"),
            bytes / n,
            "B",
            "computed per call, not counted".into(),
        );
    }
    let fits = work
        .per_kernel
        .get("kmeans.mpck_fit")
        .map_or(1, |e| e.0.max(1));
    report.push(
        "kmeans.mpck_iterations",
        work.mpck_iterations as f64 / fits as f64,
        "count",
    );
}

/// Writes the benchmark-side spans as a Chrome trace next to the build.
pub fn finish_spans(report: &mut Report, spans: &Spans, out_dir: &Path, workload: &str, seed: u64) {
    match spans.write_chrome(&format!("{workload}-seed{seed}"), out_dir) {
        Ok(path) => report
            .notes
            .push(format!("benchmark spans written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("could not write benchmark spans: {e}")),
    }
}
