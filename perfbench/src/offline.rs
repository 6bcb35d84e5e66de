//! The `offline_grid` workload: the paper's repeated-trial experiments
//! through `run_experiment_on` in-process, on engines at host threads.
//!
//! The closed loop is one caller running the workload's cycle of units
//! (each unit: both algorithm families' experiments on one replica) back to
//! back, whole cycles only.  Every closed cycle runs on a fresh engine set
//! up outside the timed region, so each experiment computes its own
//! artifacts and reuses them only across its own trials and grid, as in the
//! paper.  The open phases send single in-process selections on the same
//! replicas to one long-lived engine from two caller threads following a
//! schedule: the engine taking arrivals with no server in front of it.

use crate::layers::{KernelInput, Spans};
use crate::report::Report;
use crate::served::{self, ProfileAgg};
use crate::stats::{self, Timed};
use crate::workload::{self, OfflineUnit, Spec, OFFLINE_FRACTION, OFFLINE_TRIALS};
use cvcp_core::json::{Json, ToJson};
use cvcp_core::{
    chrome_trace_json, graph_profile_json, run_experiment_on, run_selection_request,
    run_selection_request_traced, Algorithm, CvcpConfig, Engine, ExperimentConfig, GraphProfile,
    SelectionRequest, SideInfoSpec,
};
use cvcp_data::replicas::replica_by_name;
use cvcp_data::Dataset;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed cycles per round.  A cycle's rate swings by a tenth or more from
/// one cycle to the next on a shared host, so `throughput_rps` is the
/// median of several cycles per round.
const CYCLES_PER_ROUND: usize = 2;

/// Set-ups timed each time an engine is built (before each closed cycle
/// and once for the open phases' engine); `setup_s` is the median over all
/// of them, so it samples the host over the whole run.
const SETUP_REPEATS: usize = 5;

/// Rounds of the traced-versus-untraced selection comparison.
const OVERHEAD_ROUNDS: usize = 3;

fn config(unit: &OfflineUnit) -> ExperimentConfig {
    ExperimentConfig {
        n_trials: OFFLINE_TRIALS,
        cvcp: CvcpConfig {
            n_folds: 5,
            stratified: true,
        },
        params: Vec::new(),
        seed: unit.seed,
        with_silhouette: true,
        n_threads: crate::host_threads(),
    }
}

/// Runs one unit; returns its outcomes rendered so two runs compare bit for
/// bit (`{:?}` prints every f64 in its shortest round-trip form).
fn run_unit(engine: &Engine, unit: &OfflineUnit, data: &Dataset) -> String {
    let spec = SideInfoSpec::LabelFraction(OFFLINE_FRACTION);
    let fosc = run_experiment_on(
        engine,
        &*Algorithm::Fosc.method(),
        data,
        spec,
        &config(unit),
    );
    let mpck = run_experiment_on(
        engine,
        &*Algorithm::MpckMeans.method(),
        data,
        spec,
        &config(unit),
    );
    format!("{fosc:?}{mpck:?}")
}

/// One open-loop selection: realised and run in-process, rendered.
fn run_selection(engine: &Engine, req: &SelectionRequest) -> String {
    let selection = req.realize().expect("valid selection").select(engine);
    format!("{selection:?}")
}

/// The unit as a single selection request per algorithm family (same
/// replica and side information, default grid), for the traced profile.
fn unit_requests(unit: &OfflineUnit) -> [SelectionRequest; 2] {
    [Algorithm::Fosc, Algorithm::MpckMeans].map(|algorithm| SelectionRequest {
        id: format!("{}-{}", unit.dataset, algorithm.name()),
        algorithm,
        params: Vec::new(),
        ..workload::offline_selection(&unit.dataset, unit.data_seed, OFFLINE_FRACTION)
    })
}

/// Engine construction plus replica realisation.
fn set_up(units: &[OfflineUnit]) -> (Engine, Vec<Dataset>, f64) {
    let start = Instant::now();
    let engine = Engine::new(crate::host_threads());
    let data = units
        .iter()
        .map(|u| replica_by_name(&u.dataset, u.data_seed).expect("known replica"))
        .collect();
    (engine, data, start.elapsed().as_secs_f64())
}

/// Sets up [`SETUP_REPEATS`] times, recording each time in `setups`, and
/// keeps the last engine and replicas.
fn set_up_repeated(units: &[OfflineUnit], setups: &mut Vec<f64>) -> (Engine, Vec<Dataset>) {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (engine, data, s) = set_up(units);
        setups.push(s);
        last = Some((engine, data));
    }
    last.expect("set up at least once")
}

struct Done {
    job: usize,
    timed: Timed,
    result: String,
}

/// Closed loop: one caller runs one whole cycle of units back to back.
fn cycle(
    engine: &Engine,
    units: &[OfflineUnit],
    data: &[Dataset],
    mut spans: Option<&mut Spans>,
) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        let sent = start.elapsed().as_secs_f64();
        let result = match spans.as_deref_mut() {
            Some(s) => s.time("core.run_experiment_on", |_| {
                run_unit(engine, unit, &data[i])
            }),
            None => run_unit(engine, unit, &data[i]),
        };
        let done = start.elapsed().as_secs_f64();
        out.push(Done {
            job: i,
            timed: Timed {
                due: sent,
                sent,
                done: Some(done),
            },
            result,
        });
    }
    (out, start.elapsed().as_secs_f64())
}

/// Open loop: two callers, `n` selections due at `rate` per second,
/// cycling through `requests`.
fn open(engine: &Engine, requests: &[SelectionRequest], rate: f64, n: usize) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..crate::host_threads().min(2) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let due = i as f64 / rate;
                let ahead = due - start.elapsed().as_secs_f64();
                if ahead > 0.0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(ahead));
                }
                let sent = start.elapsed().as_secs_f64();
                let job = i % requests.len();
                let result = run_selection(engine, &requests[job]);
                let done = start.elapsed().as_secs_f64();
                out.lock().expect("open-loop results").push(Done {
                    job,
                    timed: Timed {
                        due,
                        sent,
                        done: Some(done),
                    },
                    result,
                });
            });
        }
    });
    out.into_inner().expect("open-loop results")
}

/// Whole cycles of `per_cycle` jobs due at `rate` over about `seconds`.
fn whole_cycles(rate: f64, seconds: f64, per_cycle: usize) -> usize {
    ((rate * seconds / per_cycle as f64).round() as usize).max(1) * per_cycle
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter()
        .filter_map(|d| d.timed.due_latency())
        .map(|s| s * 1e3)
        .collect()
}

fn timed(done: &[Done]) -> Vec<Timed> {
    done.iter().map(|d| d.timed).collect()
}

/// Checks every recorded result against a 1-thread engine's, computed
/// after the timed phases.  Returns `(attempted, mismatches)`.
fn verify(
    units: &[OfflineUnit],
    data: &[Dataset],
    experiments: &[&[Done]],
    requests: &[SelectionRequest],
    selections: &[&[Done]],
) -> (u64, u64) {
    let reference = Engine::new(1);
    let unit_refs: Vec<String> = units
        .iter()
        .zip(data)
        .map(|(u, d)| run_unit(&reference, u, d))
        .collect();
    let selection_refs: Vec<String> = requests
        .iter()
        .map(|r| run_selection(&reference, r))
        .collect();
    let mut attempted = 0;
    let mut mismatches = 0;
    for (phases, refs) in [(experiments, &unit_refs), (selections, &selection_refs)] {
        for d in phases.iter().flat_map(|p| p.iter()) {
            attempted += 1;
            if d.result != refs[d.job] {
                mismatches += 1;
            }
        }
    }
    (attempted, mismatches)
}

fn selection_requests(units: &[OfflineUnit]) -> Vec<SelectionRequest> {
    workload::OFFLINE_SELECTION_FRACTIONS
        .iter()
        .flat_map(|&f| {
            units
                .iter()
                .map(move |u| workload::offline_selection(&u.dataset, u.data_seed, f))
        })
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let units = workload::offline_units(seed);
    let requests = selection_requests(&units);
    let mut setups = Vec::new();
    // The open phases' engine, warmed by one cycle so the replicas' data
    // artifacts are cached before the first open phase.
    let (engine, data) = set_up_repeated(&units, &mut setups);
    let mut report = Report::default();

    let (warm, _) = cycle(&engine, &units, &data, None);
    let n = requests.len();
    let (idle_s, load_s) = (0.05 * seconds, 0.04 * seconds);
    let (mut rps, mut closed_lat, mut idle_lat, mut load_lat) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut experiments: Vec<Vec<Done>> = Vec::new();
    let mut selections: Vec<Vec<Done>> = Vec::new();
    for _ in 0..served::ROUNDS {
        // Whole cycles of units, each on a fresh engine.
        for _ in 0..CYCLES_PER_ROUND {
            let (fresh, fresh_data) = set_up_repeated(&units, &mut setups);
            let (done, elapsed) = cycle(&fresh, &units, &fresh_data, None);
            drop(fresh);
            rps.push(done.len() as f64 / elapsed);
            closed_lat.push(latencies(&done));
            experiments.push(done);
        }
        let done = open(
            &engine,
            &requests,
            spec.idle_rate,
            whole_cycles(spec.idle_rate, idle_s, n),
        );
        idle_lat.push(latencies(&done));
        selections.push(done);
        let done = open(
            &engine,
            &requests,
            spec.load_rate,
            whole_cycles(spec.load_rate, load_s, n),
        );
        load_lat.push(latencies(&done));
        selections.push(done);
    }
    let sustained = served::run_ladder(spec, 0.04 * seconds, &mut report.notes, |rate, secs| {
        let done = open(&engine, &requests, rate, whole_cycles(rate, secs, n));
        let out = (timed(&done), latencies(&done), true);
        selections.push(done);
        Ok(out)
    })?;
    let peak_rss = crate::server::peak_rss_mib("/proc/self/status");

    experiments.push(warm);
    let experiments: Vec<&[Done]> = experiments.iter().map(Vec::as_slice).collect();
    let selections: Vec<&[Done]> = selections.iter().map(Vec::as_slice).collect();
    let (attempted, mismatches) = verify(&units, &data, &experiments, &requests, &selections);
    report.attempted = attempted;
    report.failed = mismatches;
    report.mismatches = mismatches;

    report
        .notes
        .push(format!("closed-loop units/s per cycle: {rps:.3?}"));
    let setup = served::setup_summary(&setups);
    report.push_detail(
        "setup_s",
        setup.0,
        "s",
        format!(
            "median of {} set-ups over the run, in-run spread {:.3}",
            setups.len(),
            setup.1
        ),
    );
    report.push_detail(
        "throughput_rps",
        stats::median(&rps).unwrap_or(0.0),
        "1/s",
        format!("units per second (FOSC and MPCK experiments, {OFFLINE_TRIALS} trials each, fresh engine per cycle), 1 caller, median of {} cycles", rps.len()),
    );
    report.push_rounds("closed_p50_ms", "closed_p99_ms", &closed_lat, 0.99);
    report.push_rounds("load_p50_ms", "load_p99_ms", &load_lat, 0.99);
    report.push_rounds("idle_p50_ms", "idle_p90_ms", &idle_lat, 0.90);
    report.push_detail(
        "sustained_rps",
        sustained,
        "1/s",
        format!(
            "in-process selections, ladder {:?}/s, limit {} ms",
            spec.ladder, spec.latency_limit_ms
        ),
    );
    report.push_detail(
        "failed_frac",
        report.failed_frac(),
        "fraction",
        format!("{} of {}", report.failed, report.attempted),
    );
    report.push("peak_rss_mib", peak_rss, "MiB");
    Ok(report)
}

fn hist_json(count: u64, mean_ns: u64) -> Json {
    Json::obj([("count", count.to_json()), ("mean_ns", mean_ns.to_json())])
}

/// The engine's counters in the server's `stats` / `metrics` JSON shapes.
fn snapshots(engine: &Engine) -> (Json, Json) {
    let cache = engine.cache_stats();
    let stats = Json::obj([(
        "cache",
        Json::obj([
            ("hits", cache.hits.to_json()),
            ("misses", cache.misses.to_json()),
            ("evictions", cache.evictions.to_json()),
            ("evicted_bytes", cache.evicted_bytes.to_json()),
            ("peak_resident_bytes", cache.peak_resident_bytes.to_json()),
        ]),
    )]);
    let snap = engine.metrics_snapshot();
    let kinds = engine
        .cache()
        .kind_latency_snapshots()
        .iter()
        .map(|k| {
            Json::obj([
                ("kind", k.kind.to_json()),
                ("get", hist_json(k.get.count(), k.get.mean_nanos())),
                (
                    "compute",
                    hist_json(k.compute.count(), k.compute.mean_nanos()),
                ),
            ])
        })
        .collect();
    let metrics = Json::obj([(
        "engine",
        Json::obj([
            (
                "graph_queue_wait",
                Json::Arr(
                    snap.graph_queue_wait
                        .iter()
                        .map(|h| hist_json(h.count(), h.mean_nanos()))
                        .collect(),
                ),
            ),
            ("cache_kinds", Json::Arr(kinds)),
        ]),
    )]);
    (stats, metrics)
}

/// The traced run: every per-layer metric.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Result<Report, String> {
    let units = workload::offline_units(seed);
    let requests = selection_requests(&units);
    let mut spans = Spans::default();
    let mut report = Report::default();

    // A warm-up cycle, then one cycle with spans, each on a fresh engine;
    // the cache and queue counters cover the spanned cycle.
    let (engine, data, _) = set_up(&units);
    let (warm, _) = cycle(&engine, &units, &data, None);
    let (engine, data, _) = set_up(&units);
    let (stats0, metrics0) = snapshots(&engine);
    let (cycle, _) = cycle(&engine, &units, &data, Some(&mut spans));
    let (stats1, metrics1) = snapshots(&engine);
    drop(engine);

    // Tracing overhead and the engine profile: each unit's selections, one
    // per algorithm family, run untraced and traced on fresh engines,
    // alternating which goes first from round to round.
    let mut prof = ProfileAgg::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for round in 0..OVERHEAD_ROUNDS {
        for unit in &units {
            for req in unit_requests(unit) {
                for traced in [round % 2 == 1, round % 2 == 0] {
                    let fresh = Engine::new(crate::host_threads());
                    let t = Instant::now();
                    if traced {
                        let (_, trace) = run_selection_request_traced(&fresh, &req, None, |_| {})
                            .map_err(|e| e.to_string())?;
                        traced_s += t.elapsed().as_secs_f64();
                        let trace = trace.ok_or("traced selection returned no trace")?;
                        prof.add(
                            &graph_profile_json(&GraphProfile::from_trace(&trace)),
                            Some(chrome_trace_json(&trace)),
                        );
                    } else {
                        run_selection_request(&fresh, &req, None, |_| {})
                            .map_err(|e| e.to_string())?;
                        untraced_s += t.elapsed().as_secs_f64();
                    }
                }
            }
        }
    }

    // `realize` and in-process `select_model_with` on a fresh engine.
    let mut realize_ms = Vec::new();
    let mut select_ms = Vec::new();
    let mut kernel_inputs = Vec::new();
    for unit in &units {
        let mut ks = Vec::new();
        for req in unit_requests(unit) {
            let t = Instant::now();
            let realized = spans.time("core.realize", |_| req.realize().expect("valid unit"));
            realize_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if req.algorithm == Algorithm::MpckMeans {
                ks = realized.params.clone();
            }
            let fresh = Engine::new(crate::host_threads());
            let t = Instant::now();
            spans.time("core.select", |_| realized.select(&fresh));
            select_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        kernel_inputs.push(KernelInput {
            request: workload::offline_selection(&unit.dataset, unit.data_seed, OFFLINE_FRACTION),
            min_pts: Algorithm::Fosc.method().default_parameter_range(0),
            ks,
        });
    }

    report.push_detail(
        "server.served_p50_ms",
        0.0,
        "ms",
        "no server in this workload".into(),
    );
    report.push_detail(
        "server.overhead_p50_ms",
        0.0,
        "ms",
        "no server in this workload".into(),
    );
    served::push_queue_waits(&mut report, [&stats0, &stats1], [&metrics0, &metrics1]);
    for code in served::REFUSAL_CODES {
        report.push(format!("server.refusals.{code}"), 0.0, "count");
    }
    report.push_detail(
        "protocol.encode_us",
        0.0,
        "us",
        "no wire messages in this workload".into(),
    );
    report.push_detail(
        "protocol.decode_us",
        0.0,
        "us",
        "no wire messages in this workload".into(),
    );
    report.push("core.realize_ms", stats::mean(&realize_ms), "ms");
    report.push("core.select_ms", stats::mean(&select_ms), "ms");
    prof.push(&mut report);
    served::push_cache(&mut report, [&stats0, &stats1], [&metrics0, &metrics1]);
    served::kernels(&mut report, &mut spans, &kernel_inputs, 0.1 * seconds);
    report.push_detail(
        "obs.trace_overhead_frac",
        1.0 - untraced_s / traced_s.max(1e-9),
        "fraction",
        format!(
            "selections on fresh engines, {OVERHEAD_ROUNDS} interleaved rounds: untraced {:.1} ms vs traced {:.1} ms in total",
            untraced_s * 1e3,
            traced_s * 1e3
        ),
    );
    let (attempted, mismatches) = verify(&units, &data, &[&warm, &cycle], &requests, &[]);
    report.attempted = attempted;
    report.failed = mismatches;
    report.mismatches = mismatches;
    served::finish_spans(&mut report, &spans, out_dir, spec.name, seed);
    Ok(report)
}
