//! Per-layer measurement from the benchmark's own files: an in-memory span
//! recorder with self-time accounting and Chrome trace export, the kernel
//! timings on a workload's own replicas, and the job-name breakdown of a
//! traced graph's critical path.

use cvcp_constraints::folds::label_scenario_folds;
use cvcp_constraints::{ConstraintSet, SideInformation};
use cvcp_core::json::Json;
use cvcp_core::{GraphTrace, SelectionRequest};
use cvcp_data::distance::{pairwise_matrix, Euclidean};
use cvcp_density::{
    core_distances, mutual_reachability_mst, CondensedTree, Dendrogram, FoscOpticsDend,
    OpticsOrdering,
};
use cvcp_engine::JobSpan;
use cvcp_kmeans::MpckMeans;
use cvcp_metrics::constraint_fmeasure;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `density.mr_mst`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A single-threaded, in-memory span recorder: spans nest by a stack and
/// are written out only when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested in the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Per name: number of spans and mean self time in nanoseconds (a
    /// span's duration minus the durations of its direct children, which
    /// nest inside it and do not overlap on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut acc: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64;
            let e = acc.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += own;
        }
        for v in acc.values_mut() {
            v.1 /= v.0 as f64;
        }
        acc
    }

    /// Writes the spans as a Chrome trace (the program's own exporter;
    /// a span's parent is recorded as its dependency).
    pub fn write_chrome(&self, name: &str, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        let trace = GraphTrace {
            name: name.to_string(),
            n_jobs: self.spans.len(),
            n_workers: 1,
            wall_ns: self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0),
            spans: self
                .spans
                .iter()
                .enumerate()
                .map(|(job, s)| JobSpan {
                    job,
                    label: s.name.to_string(),
                    worker: Some(0),
                    lane: 0,
                    enqueue_ns: s.start_ns,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    enqueued_by: None,
                    cache_hits: 0,
                    cache_misses: 0,
                })
                .collect(),
            deps: self
                .spans
                .iter()
                .map(|s| s.parent.into_iter().collect())
                .collect(),
        };
        cvcp_core::write_chrome_trace(&trace, dir)
    }
}

/// The kernels timed per replica, with the metric each feeds.
pub const KERNELS: [(&str, &str); 9] = [
    ("data.pairwise", "ms"),
    ("density.core_distance", "ms"),
    ("density.mr_mst", "ms"),
    ("density.condensed_tree", "ms"),
    ("density.fosc_extract", "ms"),
    ("density.optics", "ms"),
    ("kmeans.mpck_fit", "ms"),
    ("metrics.fold_score", "us"),
    ("constraints.folds", "us"),
];

/// Computed (not counted) work of the kernel calls, summed per kernel.
#[derive(Debug, Default, Clone)]
pub struct Work {
    /// Kernel name → (calls, operations, bytes).
    pub per_kernel: BTreeMap<&'static str, (u64, f64, f64)>,
    /// MPCKMeans EM iterations, summed.
    pub mpck_iterations: u64,
}

impl Work {
    fn add(&mut self, kernel: &'static str, ops: f64, bytes: f64) {
        let e = self.per_kernel.entry(kernel).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += ops;
        e.2 += bytes;
    }
}

/// One replica's kernel inputs: a valid selection request (its replica,
/// side information and folds) plus the grids to time.
pub struct KernelInput {
    /// The request whose realisation supplies data and side information.
    pub request: SelectionRequest,
    /// `MinPts` values for the density kernels.
    pub min_pts: Vec<usize>,
    /// `k` values for MPCKMeans.
    pub ks: Vec<usize>,
}

/// Times every kernel once per grid value on one replica, inside spans.
pub fn time_kernels(spans: &mut Spans, input: &KernelInput, work: &mut Work) {
    spans.time("replica", |spans| {
        let realized = spans.time("core.realize", |_| {
            input.request.realize().expect("valid request")
        });
        let data = realized.dataset.matrix();
        let (n, d) = (data.n_rows() as f64, data.n_cols() as f64);
        let SideInformation::Labels(labeled) = &realized.side else {
            panic!("kernel inputs use label side information");
        };
        let mut rng = realized.rng.clone();
        let folds = spans.time("constraints.folds", |_| {
            black_box(label_scenario_folds(
                labeled,
                input.request.n_folds,
                true,
                &mut rng,
            ))
        });
        let l = labeled.len() as f64;
        work.add("constraints.folds", l * l / 2.0, l * l / 2.0 * 24.0);
        let train: ConstraintSet = folds[0].training.as_constraints();
        let test = &folds[0].test_constraints;
        let (c, t) = (train.len() as f64, test.len() as f64);

        let dist = spans.time("data.pairwise", |_| {
            black_box(pairwise_matrix(data, &Euclidean))
        });
        let pairs = n * (n - 1.0) / 2.0;
        work.add(
            "data.pairwise",
            pairs * 3.0 * d,
            pairs * 16.0 * d + n * n * 8.0,
        );
        for &m in &input.min_pts {
            spans.time("density.core_distance", |_| {
                black_box(core_distances(&dist, m))
            });
            work.add("density.core_distance", n * n * n.log2(), n * n * 8.0);
            let mst = spans.time("density.mr_mst", |_| {
                black_box(mutual_reachability_mst(data, &Euclidean, m))
            });
            work.add(
                "density.mr_mst",
                pairs * 3.0 * d + n * n * n.log2() + 2.0 * n * n,
                pairs * 16.0 * d + 3.0 * n * n * 8.0,
            );
            let dendrogram = Dendrogram::from_mst(data.n_rows(), &mst);
            let tree = spans.time("density.condensed_tree", |_| {
                black_box(CondensedTree::build(&dendrogram, m.max(2)))
            });
            work.add("density.condensed_tree", n * n.log2(), n * 48.0);
            let fosc = FoscOpticsDend::new(m.max(2));
            let selection = spans.time("density.fosc_extract", |_| {
                black_box(fosc.extract_on_tree(&tree, &train))
            });
            work.add(
                "density.fosc_extract",
                2.0 * n * c.max(1.0),
                2.0 * n * 48.0 + c * 16.0,
            );
            spans.time("density.optics", |_| {
                black_box(OpticsOrdering::run_on_distances(&dist, m))
            });
            work.add(
                "density.optics",
                n * n * n.log2() + n * n,
                2.0 * n * n * 8.0,
            );
            spans.time("metrics.fold_score", |_| {
                black_box(constraint_fmeasure(&selection.partition, test))
            });
            work.add("metrics.fold_score", t, t * 16.0 + n * 8.0);
        }
        for &k in &input.ks {
            let mut rng = cvcp_data::rng::SeededRng::new(input.request.seed ^ k as u64);
            let fit = spans.time("kmeans.mpck_fit", |_| {
                black_box(MpckMeans::new(k).fit(data, &train, &mut rng))
            });
            let it = fit.iterations as f64;
            work.mpck_iterations += fit.iterations as u64;
            work.add(
                "kmeans.mpck_fit",
                it * (n * k as f64 * d * 3.0 + c * k as f64),
                it * (n * d * 8.0 + c * 16.0),
            );
            spans.time("metrics.fold_score", |_| {
                black_box(constraint_fmeasure(&fit.partition, test))
            });
            work.add("metrics.fold_score", t, t * 16.0 + n * 8.0);
        }
    });
}

/// The job names a traced graph's critical path is broken down by.
pub const JOB_NAMES: [&str; 9] = [
    "artifact", "fold", "cell", "fused", "progress", "external", "reduce", "report", "other",
];

/// Maps a plan job label (`artifact/p3`, `t0/fold1`, `t0/p3/f0`,
/// `t0/p3/fused`, `progress/p3`, `external/t0/p3`, `reduce/t0`, or the
/// unlabelled report job) to its job name.
pub fn job_name(label: &str) -> &'static str {
    if label.is_empty() || label.starts_with("job ") {
        return "report";
    }
    let coord = |s: &str, p: char| {
        s.strip_prefix(p)
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    };
    let head = label
        .split('/')
        .find(|s| !coord(s, 't') && !coord(s, 'p'))
        .unwrap_or("");
    if coord(head, 'f') {
        return "cell";
    }
    let base = head.trim_end_matches(|c: char| c.is_ascii_digit());
    JOB_NAMES
        .iter()
        .copied()
        .find(|&n| n == base)
        .unwrap_or("other")
}

/// Sums the critical path's job durations by job name, in milliseconds.
/// `jobs` maps a job index to its (label, duration in ms).
pub fn critical_path_by_name(
    critical: &[usize],
    jobs: &BTreeMap<usize, (String, f64)>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for j in critical {
        if let Some((label, ms)) = jobs.get(j) {
            *out.entry(job_name(label)).or_insert(0.0) += ms;
        }
    }
    out
}

/// Job index → (label, duration ms) from a Chrome trace file the server
/// wrote for a traced request.
pub fn jobs_from_chrome(doc: &Json) -> BTreeMap<usize, (String, f64)> {
    let mut out = BTreeMap::new();
    for ev in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let job = ev
            .get("args")
            .and_then(|a| a.get("job"))
            .and_then(Json::as_usize);
        let name = ev.get("name").and_then(Json::as_str);
        let dur_us = ev.get("dur").and_then(Json::as_f64);
        if let (Some(job), Some(name), Some(dur_us)) = (job, name, dur_us) {
            out.insert(job, (name.to_string(), dur_us / 1e3));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_labels_map_to_names() {
        for (label, name) in [
            ("artifact/p3", "artifact"),
            ("t0/fold1", "fold"),
            ("t0/p3/f0", "cell"),
            ("t1/p12/fused", "fused"),
            ("progress/p9", "progress"),
            ("external/t0/p3", "external"),
            ("reduce/t0", "reduce"),
            ("", "report"),
            ("job 41", "report"),
            ("mystery/p3", "other"),
        ] {
            assert_eq!(job_name(label), name, "{label}");
        }
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut spans = Spans::default();
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let st = spans.self_times();
        let outer_ms = st["outer"].1 / 1e6;
        let inner_ms = st["inner"].1 / 1e6;
        assert!(inner_ms >= 20.0, "inner {inner_ms}");
        assert!(
            (5.0..20.0).contains(&outer_ms),
            "outer self time {outer_ms}"
        );
        assert_eq!(spans.spans[1].parent, Some(0));
    }

    #[test]
    fn critical_path_is_summed_by_job_name() {
        let mut jobs = BTreeMap::new();
        jobs.insert(0, ("artifact/p3".to_string(), 2.0));
        jobs.insert(4, ("t0/p3/f0".to_string(), 1.5));
        jobs.insert(5, ("t0/p3/f1".to_string(), 1.0));
        jobs.insert(9, (String::new(), 0.25));
        let by = critical_path_by_name(&[0, 4, 9], &jobs);
        assert_eq!(by["artifact"], 2.0);
        assert_eq!(by["cell"], 1.5);
        assert_eq!(by["report"], 0.25);
        assert!(!by.contains_key("fold"));
    }
}
