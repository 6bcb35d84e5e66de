//! `perfbench` — the CVCP service benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload served_warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `served_warm` (the `serve` binary over loopback) and
//! `offline_grid` (`run_experiment_on` in-process);
//! `perfbench/registry.json` describes each.  With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` a
//! separate traced run reports the per-layer metrics.  Every metric is
//! printed by name with its unit, then the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Every served result is checked bit for bit against the in-process
//! reference, every offline result against a 1-thread engine; the process
//! exits with code 1 after printing if any result differed, and with code 2
//! without a result if the run could not be made.

mod generator;
mod layers;
mod offline;
mod report;
mod served;
mod server;
mod stats;
mod workload;

use cvcp_core::json::{Json, ToJson};
use report::Report;
use std::process::ExitCode;

/// Threads available to this process (the generator and the engines stay
/// at or below it).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// End-to-end metrics, with `--trace 0`.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "throughput_rps",
    "closed_p50_ms",
    "closed_p99_ms",
    "load_p50_ms",
    "load_p99_ms",
    "idle_p50_ms",
    "idle_p90_ms",
    "sustained_rps",
    "peak_rss_mib",
];

/// Per-layer metrics, with `--trace 1`.
pub fn per_layer() -> Vec<String> {
    let mut names: Vec<String> = [
        "server.served_p50_ms",
        "server.overhead_p50_ms",
        "server.queue_wait_mean_ms",
        "server.graph_queue_wait_mean_ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend(
        served::REFUSAL_CODES
            .iter()
            .map(|c| format!("server.refusals.{c}")),
    );
    names.extend(
        [
            "protocol.encode_us",
            "protocol.decode_us",
            "core.realize_ms",
            "core.select_ms",
        ]
        .map(String::from),
    );
    names.extend(
        [
            "engine.jobs_per_selection",
            "engine.wall_ms",
            "engine.critical_path_ms",
        ]
        .map(String::from),
    );
    names.extend(
        layers::JOB_NAMES
            .iter()
            .map(|j| format!("engine.critical_path_ms.{j}")),
    );
    names.extend(
        [
            "engine.parallelism",
            "engine.worker_busy_frac",
            "engine.steal_ratio",
            "engine.schedule_overhead",
            "cache.hit_rate",
            "cache.misses",
            "cache.evictions",
            "cache.evicted_mib",
            "cache.peak_resident_mib",
        ]
        .map(String::from),
    );
    for kind in served::CACHE_KINDS {
        names.push(format!("cache.get_mean_us.{kind}"));
        names.push(format!("cache.compute_mean_ms.{kind}"));
    }
    for (kernel, unit) in layers::KERNELS {
        names.push(format!("{kernel}_{unit}"));
        names.push(format!("{kernel}.ops_computed"));
        names.push(format!("{kernel}.bytes_computed"));
    }
    names.push("kmeans.mpck_iterations".into());
    names.push("obs.trace_overhead_frac".into());
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if workload::spec(&args.workload).is_none() {
        return Err(format!(
            "unknown --workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let spec = workload::spec(&args.workload).expect("validated workload");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("cannot locate the build directory")?
        .join("perfbench");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    match (spec.kind, args.trace) {
        (workload::Kind::OfflineGrid, false) => offline::run(&spec, args.seed, args.seconds),
        (workload::Kind::OfflineGrid, true) => {
            offline::run_traced(&spec, args.seed, args.seconds, &out_dir)
        }
        (_, trace) => {
            let serve = server::build_serve()?;
            if trace {
                served::run_traced(&spec, args.seed, args.seconds, &serve, &out_dir)
            } else {
                served::run(&spec, args.seed, args.seconds, &serve)
            }
        }
    }
}

/// Host meta: `cvcp_bench::bench_meta` (commit, host and available
/// threads) plus the rustc version.
fn meta(args: &Args) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut meta = cvcp_bench::bench_meta(&[("seconds", args.seconds as usize)]);
    if let Json::Obj(fields) = &mut meta {
        fields.push(("rustc".into(), rustc.to_json()));
    }
    meta
}

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Milliseconds a fixed single-threaded integer loop takes: a reading of
/// the host's speed at the start of the run, for comparing runs.
fn calibrate() -> f64 {
    let start = std::time::Instant::now();
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let ticks = cpu_ticks();
    let calibration_ms = calibrate();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wanted: Vec<String> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} host_threads={} held_out_seed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads(),
        workload::HELD_OUT_SEED
    );
    println!("  # meta {}", meta(&args).compact());
    let steal = ticks
        .zip(cpu_ticks())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    println!(
        "  # host: calibration loop {calibration_ms:.1} ms, CPU steal during the run {}",
        steal.map_or("unknown".to_string(), |s| format!("{:.1}%", s * 100.0))
    );
    for m in &report.metrics {
        println!(
            "  {:<44} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
    for note in &report.notes {
        println!("  # {note}");
    }
    let mut metrics = Vec::new();
    for name in &wanted {
        let Some(m) = report.metrics.iter().find(|m| &m.name == name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::from(2);
        };
        metrics.push((
            name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", m.unit.to_json())]),
        ));
    }
    let correct = report.mismatches == 0 && report.failed == 0 && report.attempted > 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), report.attempted.to_json()),
        ("failed".into(), report.failed.to_json()),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    if report.mismatches > 0 {
        eprintln!(
            "perfbench: {} results differed from the reference",
            report.mismatches
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root registers exactly the
    /// metrics and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = server::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), per_layer());
        assert_eq!(names("workloads"), workload::NAMES.to_vec());
    }

    /// `registry.json` lists every metric the program prints and the
    /// settings each workload runs with.
    #[test]
    fn registry_matches_the_program() {
        let path = server::repo_root().join("perfbench").join("registry.json");
        let text = std::fs::read_to_string(&path).expect("registry.json is readable");
        let doc = Json::parse(&text).expect("registry.json parses");
        let metrics: Vec<String> = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .expect("metrics")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let mut expected: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        expected.push("failed_frac".into());
        expected.extend(per_layer());
        assert_eq!(metrics, expected);
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), workload::NAMES.len());
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            let spec = workload::spec(name).expect("registered workload exists");
            let num = |k: &str| w.get(k).and_then(Json::as_f64).expect(k);
            assert_eq!(num("load_rate_per_s"), spec.load_rate, "{name}");
            assert_eq!(num("idle_rate_per_s"), spec.idle_rate, "{name}");
            assert_eq!(num("latency_limit_ms"), spec.latency_limit_ms, "{name}");
            assert_eq!(num("closed_window") as usize, spec.closed_window, "{name}");
            let ladder: Vec<f64> = w
                .get("ladder_per_s")
                .and_then(Json::as_arr)
                .expect("ladder")
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            assert_eq!(ladder, spec.ladder.to_vec(), "{name}");
            let env: Vec<(String, String)> = match w.get("server_env") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().expect("string").to_string()))
                    .collect(),
                _ => Vec::new(),
            };
            let spec_env: Vec<(String, String)> = spec
                .server_env
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            assert_eq!(env, spec_env, "{name}");
        }
    }
}
