//! MPCKMeans — Metric Pairwise Constrained K-Means (Bilenko, Basu & Mooney,
//! ICML 2004).
//!
//! The semi-supervised partitional clustering algorithm evaluated by the CVCP
//! paper.  It integrates constraints and metric learning in an EM-style loop:
//!
//! * **Initialisation**: cluster centroids are seeded from the must-link
//!   neighbourhood sets (transitive closure of the must-links), topped up /
//!   reduced via weighted farthest-first traversal
//!   ([`crate::init::neighborhood_centroids`]).
//! * **E-step**: objects are assigned greedily, in random order, to the
//!   cluster minimising their contribution to the objective: the metric
//!   distance to the centroid, minus the metric's log-determinant, plus
//!   penalties for must-link / cannot-link violations with respect to the
//!   objects assigned earlier in the pass.
//! * **M-step**: centroids are recomputed, and each cluster's *diagonal*
//!   Mahalanobis metric `A_h` is re-estimated from the within-cluster scatter
//!   plus the scatter of violated constraints involving that cluster.
//!
//! The objective minimised is
//!
//! ```text
//!   Σ_x ( ‖x − μ_{l_x}‖²_{A_{l_x}} − log det A_{l_x} )
//! + Σ_{(i,j)∈ML, l_i≠l_j} w  · ½ ( f_ML^{A_{l_i}}(i,j) + f_ML^{A_{l_j}}(i,j) )
//! + Σ_{(i,j)∈CL, l_i=l_j} w̄ · f_CL^{A_{l_i}}(i,j)
//! ```
//!
//! with `f_ML(i,j) = ‖x_i − x_j‖²_A` and
//! `f_CL(i,j) = d_max²_A − ‖x_i − x_j‖²_A` (violating a cannot-link between
//! close objects is penalised more).
//!
//! ## Per-iteration invariants
//!
//! CVCP runs one fit per (parameter × fold × trial) cell, so the fit is the
//! hot kernel of every MPCKMeans selection.  The metrics `A_h` change only
//! in the M-step, which makes several terms of the E-step and the objective
//! constant within an iteration; the fit computes each of them once where
//! it becomes valid instead of once per use:
//!
//! * `log det A_h` and the cannot-link offset `d_max²_{A_h}` — once per
//!   cluster per iteration (`ClusterTerms`), not once per (object,
//!   cluster) pair;
//! * a must-link neighbour's `f_ML^{A_{l_j}}` term — once per (object,
//!   neighbour), not once per candidate cluster;
//! * the visiting order, the partial assignment, the metric scatter and
//!   the centroid sums — buffers allocated once per fit and reused by every
//!   iteration.
//!
//! ## Bulk distances
//!
//! Almost all of the fit's arithmetic is weighted squared distances
//! `‖x − y‖²_A`, each a serial chain of additions over the dimensions.
//! The fit evaluates them in bulk, many independent chains at a time, with
//! the kernels of the private `bulk` module:
//!
//! * **Centroid tile.**  After every M-step (and once before the first
//!   E-step) the fit computes all `n × k` distances `‖x_i − μ_c‖²_{A_c}` in
//!   one pass over a column-major copy of the data, the lanes running
//!   across points.  The objective reads each object's entry of its own
//!   cluster; the next E-step, whose centroids and metrics are the same,
//!   reads the whole tile, and so does its re-seeding of empty clusters.
//! * **Must-link distances.**  A visited object's already-assigned
//!   must-link neighbour needs its distance under every cluster's metric
//!   (`f_there` for the neighbour's cluster, `f_here` for the others).  The
//!   fit computes them as one row, the lanes running across clusters of a
//!   transposed copy of the metrics refreshed after each M-step.
//! * **M-step.**  The centroid sums and the metric scatter accumulate into
//!   flat `k × dims` buffers over zipped rows.
//!
//! Cannot-link distances (one per already-assigned neighbour, each under
//! its own cluster's metric) and the objective's violated-pair distances
//! stay one [`weighted_sq_dist`] at a time: their lanes would differ in
//! both operands and metric, and gathering them costs what the lanes save.
//!
//! ## Bit identity
//!
//! Every floating-point expression keeps its operands and operation order:
//! each bulk lane starts from `0.0` and adds `(w * d) * d` over the
//! dimensions in order, exactly as [`weighted_sq_dist`] does, and
//! interleaving independent sums cannot change any of them; the flat
//! accumulators add the same values per (cluster, dimension) cell in the
//! same object order.  The result is therefore bit-identical to
//! recomputing each term in place.  A differential test pins the fit to
//! that literal formulation (the test-only `reference` module), and
//! another pins every bulk kernel to [`weighted_sq_dist`].

use crate::init::{centroids_from_candidates, neighborhood_candidates};
use crate::objective::{recompute_centroids_with, weighted_sq_dist};
use bulk::{MetricPanels, PointPanels};
use cvcp_constraints::closure::transitive_closure;
use cvcp_constraints::{Constraint, ConstraintKind, ConstraintSet};
use cvcp_data::rng::SeededRng;
use cvcp_data::{DataMatrix, Partition};
use cvcp_engine::ArtifactSize;

mod bulk;
#[cfg(test)]
mod reference;

/// The `k`-invariant seeding structures of an MPCKMeans run: the (optionally
/// transitively closed) working constraint set and the must-link
/// neighbourhood centroid candidates.
///
/// Both depend only on the data and the constraint realisation, so one
/// seeding serves every cluster count of a parameter sweep — this is the
/// artifact the engine's cache shares across the CVCP grid (keyed by
/// `ArtifactKey::MpckSeeding`).
#[derive(Debug, Clone, PartialEq)]
pub struct MpckSeeding {
    /// The working constraint set (the transitive closure of the input when
    /// `use_closure` was requested, the input itself otherwise).
    pub working: ConstraintSet,
    /// Must-link neighbourhood centroids and sizes
    /// (see [`neighborhood_candidates`]).
    pub candidates: Vec<(Vec<f64>, usize)>,
}

impl MpckSeeding {
    /// Computes the seeding structures for `data` and `constraints`.
    ///
    /// `use_closure` must match the [`MpckMeans::use_closure`] flag of the
    /// configuration the seeding will be used with.
    pub fn compute(data: &DataMatrix, constraints: &ConstraintSet, use_closure: bool) -> Self {
        let working = if use_closure {
            transitive_closure(constraints)
        } else {
            constraints.clone()
        };
        let candidates = neighborhood_candidates(data, &working);
        Self {
            working,
            candidates,
        }
    }
}

impl ArtifactSize for MpckSeeding {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.working.len() * std::mem::size_of::<Constraint>()
            + self
                .candidates
                .iter()
                .map(|(centroid, _)| std::mem::size_of::<(Vec<f64>, usize)>() + centroid.len() * 8)
                .sum::<usize>()
    }
}

/// Configuration for MPCKMeans.
#[derive(Debug, Clone)]
pub struct MpckMeans {
    /// Number of clusters (the parameter CVCP selects).
    pub k: usize,
    /// Weight `w` of a must-link violation.
    pub must_link_weight: f64,
    /// Weight `w̄` of a cannot-link violation.
    pub cannot_link_weight: f64,
    /// Maximum number of EM iterations.
    pub max_iter: usize,
    /// Whether per-cluster diagonal metrics are learned (disable to obtain
    /// PCKMeans behaviour).
    pub learn_metric: bool,
    /// Lower clamp applied to learned metric weights (numerical safety).
    pub min_weight: f64,
    /// Upper clamp applied to learned metric weights.
    pub max_weight: f64,
    /// Whether to take the transitive closure of the must-link constraints
    /// before clustering (the original algorithm does).
    pub use_closure: bool,
}

/// Result of an MPCKMeans run.
#[derive(Debug, Clone)]
pub struct MpckMeansResult {
    /// Final cluster assignment (no noise objects).
    pub partition: Partition,
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Final per-cluster diagonal metric weights.
    pub metrics: Vec<Vec<f64>>,
    /// Final objective value.
    pub objective: f64,
    /// Number of EM iterations executed.
    pub iterations: usize,
    /// Number of constraint violations in the final assignment.
    pub violations: usize,
}

impl MpckMeans {
    /// Creates an MPCKMeans configuration with the defaults used throughout
    /// the suite's experiments: violation weights 1, at most 50 EM
    /// iterations, metric learning enabled.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            must_link_weight: 1.0,
            cannot_link_weight: 1.0,
            max_iter: 50,
            learn_metric: true,
            min_weight: 1e-3,
            max_weight: 1e3,
            use_closure: true,
        }
    }

    /// Sets the constraint-violation weights.
    pub fn with_weights(mut self, must_link: f64, cannot_link: f64) -> Self {
        self.must_link_weight = must_link;
        self.cannot_link_weight = cannot_link;
        self
    }

    /// Enables or disables metric learning.
    pub fn with_metric_learning(mut self, enabled: bool) -> Self {
        self.learn_metric = enabled;
        self
    }

    /// Sets the maximum number of EM iterations.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Runs MPCKMeans on `data` with the given constraints.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the number of objects.
    pub fn fit(
        &self,
        data: &DataMatrix,
        constraints: &ConstraintSet,
        rng: &mut SeededRng,
    ) -> MpckMeansResult {
        let seeding = MpckSeeding::compute(data, constraints, self.use_closure);
        self.fit_seeded(data, &seeding, rng)
    }

    /// Runs MPCKMeans on precomputed seeding structures — **bit-identical**
    /// to [`Self::fit`] when `seeding` was computed from the same data and
    /// constraints with a matching `use_closure` flag.  This is the entry
    /// point of the cache-aware path: one [`MpckSeeding`] is shared by every
    /// `k` of a parameter sweep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the number of objects.
    pub fn fit_seeded(
        &self,
        data: &DataMatrix,
        seeding: &MpckSeeding,
        rng: &mut SeededRng,
    ) -> MpckMeansResult {
        let n = data.n_rows();
        let dims = data.n_cols();
        assert!(
            self.k >= 1 && self.k <= n,
            "k = {} invalid for {n} objects",
            self.k
        );

        let working = &seeding.working;
        // Index constraints per object for the greedy assignment step.
        let mut ml_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut cl_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut ml_pairs: Vec<(usize, usize)> = Vec::new();
        let mut cl_pairs: Vec<(usize, usize)> = Vec::new();
        for c in working.iter() {
            match c.kind {
                ConstraintKind::MustLink => {
                    ml_of[c.a].push(c.b);
                    ml_of[c.b].push(c.a);
                    ml_pairs.push((c.a, c.b));
                }
                ConstraintKind::CannotLink => {
                    cl_of[c.a].push(c.b);
                    cl_of[c.b].push(c.a);
                    cl_pairs.push((c.a, c.b));
                }
            }
        }

        let k = self.k;
        let mut centroids = centroids_from_candidates(data, &seeding.candidates, k, rng);
        let mut metrics: Vec<Vec<f64>> = vec![vec![1.0; dims]; k];
        let mut assignment: Vec<usize> = vec![0; n];
        let mut objective = f64::INFINITY;
        let mut iterations = 0;

        let (mins, maxs) = data.column_min_max();
        let ranges_sq: Vec<f64> = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| {
                let range = hi - lo;
                range * range
            })
            .collect();
        let mut terms = ClusterTerms::default();
        terms.refresh(&metrics, &mins, &maxs);
        let mut buffers = FitBuffers::new(data, k);
        buffers
            .metric_panels
            .pack(metrics.iter().map(Vec::as_slice));
        buffers
            .point_panels
            .centroid_tile(&centroids, &metrics, &mut buffers.tile);

        for it in 0..self.max_iter {
            iterations = it + 1;

            // ---------------- E-step: greedy ordered assignment ----------------
            // `tile` holds every point-to-centroid distance under the
            // current centroids and metrics.
            let FitBuffers {
                metric_panels,
                tile,
                order,
                assigned,
                next,
                ml,
                ml_dists,
                cl,
                ..
            } = &mut buffers;
            for (slot, i) in order.iter_mut().zip(0..) {
                *slot = i;
            }
            rng.shuffle(order);
            assigned.fill(None);
            for &i in order.iter() {
                let row = data.row(i);
                // Each already-assigned must-link neighbour's distance under
                // every cluster's metric, in one bulk pass: its own cluster's
                // entry is f_there, the others are f_here.
                ml.clear();
                ml_dists.clear();
                for &j in &ml_of[i] {
                    if let Some(cj) = assigned[j] {
                        ml.push(cj);
                        let start = ml_dists.len();
                        ml_dists.resize(start + k, 0.0);
                        metric_panels.dists(row, data.row(j), &mut ml_dists[start..]);
                    }
                }
                // Each already-assigned cannot-link neighbour's distance under
                // its cluster's metric.
                cl.clear();
                for &j in &cl_of[i] {
                    if let Some(cj) = assigned[j] {
                        cl.push((cj, weighted_sq_dist(row, data.row(j), &metrics[cj])));
                    }
                }

                let mut best_c = 0usize;
                let mut best_cost = f64::INFINITY;
                for (c, &to_centroid) in tile[i * k..][..k].iter().enumerate() {
                    let mut cost = to_centroid - terms.log_det[c];
                    // must-link violations w.r.t. already-assigned neighbours
                    for (&cj, f) in ml.iter().zip(ml_dists.chunks_exact(k)) {
                        if cj != c {
                            cost += self.must_link_weight * 0.5 * (f[c] + f[cj]);
                        }
                    }
                    // cannot-link violations
                    for &(cj, f) in cl.iter() {
                        if cj == c {
                            let f = terms.diameter_sq[c] - f;
                            cost += self.cannot_link_weight * f.max(0.0);
                        }
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        best_c = c;
                    }
                }
                assigned[i] = Some(best_c);
            }
            for (slot, a) in next.iter_mut().zip(assigned.iter()) {
                *slot = a.expect("assigned");
            }

            // Re-seed empty clusters with the point farthest from its centroid.
            for c in 0..k {
                if !next.contains(&c) {
                    let (far, _) = (0..n)
                        .map(|i| (i, tile[i * k + next[i]]))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .expect("non-empty data");
                    next[far] = c;
                }
            }

            // ---------------- M-step: centroids ----------------
            let Scatter { sums, counts } = &mut buffers.scatter;
            recompute_centroids_with(data, &buffers.next, &mut centroids, sums, counts);

            // ---------------- M-step: metrics ----------------
            if self.learn_metric {
                self.update_metrics(
                    data,
                    &buffers.next,
                    &centroids,
                    &ml_pairs,
                    &cl_pairs,
                    &ranges_sq,
                    &mut buffers.scatter,
                    &mut metrics,
                );
                terms.refresh(&metrics, &mins, &maxs);
                buffers
                    .metric_panels
                    .pack(metrics.iter().map(Vec::as_slice));
            }
            // The tile of the new state: the objective reads its assigned
            // entries, the next E-step all of them.
            buffers
                .point_panels
                .centroid_tile(&centroids, &metrics, &mut buffers.tile);

            // ---------------- Objective & convergence ----------------
            let new_objective = self.objective(
                data,
                &buffers.next,
                &buffers.tile,
                &metrics,
                &terms,
                &ml_pairs,
                &cl_pairs,
            );
            let converged = buffers.next == assignment
                || (objective - new_objective).abs() <= 1e-9 * objective.abs().max(1.0);
            std::mem::swap(&mut assignment, &mut buffers.next);
            objective = new_objective;
            if converged && it > 0 {
                break;
            }
        }

        let violations = ml_pairs
            .iter()
            .filter(|&&(a, b)| assignment[a] != assignment[b])
            .count()
            + cl_pairs
                .iter()
                .filter(|&&(a, b)| assignment[a] == assignment[b])
                .count();

        MpckMeansResult {
            partition: Partition::from_cluster_ids(&assignment),
            centroids,
            metrics,
            objective,
            iterations,
            violations,
        }
    }

    /// Re-estimates the per-cluster diagonal metric weights from the
    /// assignment and its freshly recomputed centroids, accumulating into the
    /// fit's reused `scatter` buffers (whose `counts` already hold the
    /// cluster sizes).
    ///
    /// For cluster `h` and dimension `d`:
    /// `a_{h,d} = N_h / ( Σ_{x∈h}(x_d−μ_d)² + ½ w Σ_{violated ML touching h}(x_i,d−x_j,d)²
    ///                   + w̄ Σ_{violated CL inside h} (range_d² − (x_i,d−x_j,d)²) )`,
    /// clamped to `[min_weight, max_weight]`.
    #[allow(clippy::too_many_arguments)]
    fn update_metrics(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        ranges_sq: &[f64],
        scatter: &mut Scatter,
        metrics: &mut [Vec<f64>],
    ) {
        let dims = data.n_cols();
        let Scatter { sums, counts } = scatter;
        sums.clear();
        sums.resize(centroids.len() * dims, 0.0);

        for (i, &c) in assignment.iter().enumerate() {
            let sum = &mut sums[c * dims..][..dims];
            for ((s, x), mu) in sum.iter_mut().zip(data.row(i)).zip(&centroids[c]) {
                let diff = x - mu;
                *s += diff * diff;
            }
        }
        // Violated must-links contribute half their scatter to both clusters.
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                let (sum_a, sum_b) = two_rows_mut(sums, dims, ca, cb);
                for (((sa, sb), x), y) in sum_a
                    .iter_mut()
                    .zip(sum_b.iter_mut())
                    .zip(data.row(a))
                    .zip(data.row(b))
                {
                    let diff = x - y;
                    let v = 0.5 * self.must_link_weight * diff * diff;
                    *sa += v;
                    *sb += v;
                }
            }
        }
        // Violated cannot-links contribute (range² − diff²) to their cluster.
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                let sum = &mut sums[ca * dims..][..dims];
                for (((s, x), y), range_sq) in sum
                    .iter_mut()
                    .zip(data.row(a))
                    .zip(data.row(b))
                    .zip(ranges_sq)
                {
                    let diff = x - y;
                    *s += self.cannot_link_weight * (range_sq - diff * diff).max(0.0);
                }
            }
        }

        for (c, (weights, &count)) in metrics.iter_mut().zip(counts.iter()).enumerate() {
            if count == 0 {
                continue;
            }
            for (w, s) in weights.iter_mut().zip(&sums[c * dims..][..dims]) {
                *w = (count as f64 / s.max(1e-12)).clamp(self.min_weight, self.max_weight);
            }
        }
    }

    /// Evaluates the full MPCKMeans objective for a given state, reading
    /// each object's centroid distance from `tile` (the centroid tile of
    /// the same centroids and metrics) and each cluster's log-determinant
    /// and diameter from `terms`.
    #[allow(clippy::too_many_arguments)]
    fn objective(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        tile: &[f64],
        metrics: &[Vec<f64>],
        terms: &ClusterTerms,
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
    ) -> f64 {
        let k = metrics.len();
        let mut obj = 0.0;
        for (i, &c) in assignment.iter().enumerate() {
            obj += tile[i * k + c] - terms.log_det[c];
        }
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                let f = 0.5
                    * (weighted_sq_dist(data.row(a), data.row(b), &metrics[ca])
                        + weighted_sq_dist(data.row(a), data.row(b), &metrics[cb]));
                obj += self.must_link_weight * f;
            }
        }
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                let f = terms.diameter_sq[ca]
                    - weighted_sq_dist(data.row(a), data.row(b), &metrics[ca]);
                obj += self.cannot_link_weight * f.max(0.0);
            }
        }
        obj
    }
}

/// The per-cluster terms of the objective that depend on the cluster's
/// metric only.  Metrics change in the M-step alone, so these are
/// refreshed once per iteration and read by every (point, cluster) pair of
/// the next E-step and by the objective.
#[derive(Debug, Default)]
struct ClusterTerms {
    /// `log det A_h` per cluster.
    log_det: Vec<f64>,
    /// The cannot-link offset `d_max²_{A_h}` per cluster.
    diameter_sq: Vec<f64>,
}

impl ClusterTerms {
    fn refresh(&mut self, metrics: &[Vec<f64>], mins: &[f64], maxs: &[f64]) {
        self.log_det.clear();
        self.log_det.extend(metrics.iter().map(|w| log_det(w)));
        self.diameter_sq.clear();
        self.diameter_sq
            .extend(metrics.iter().map(|w| diameter_sq(w, mins, maxs)));
    }
}

/// Working buffers of one fit, allocated once and reused by every
/// iteration.
struct FitBuffers {
    /// The data in column-major panels, for the centroid tile.
    point_panels: PointPanels,
    /// The current metrics transposed, for the must-link distances.
    metric_panels: MetricPanels,
    /// Point-major `n × k` point-to-centroid distances under the current
    /// centroids and metrics.
    tile: Vec<f64>,
    /// The E-step's random visiting order.
    order: Vec<usize>,
    /// Clusters of the objects already visited in the current E-step.
    assigned: Vec<Option<usize>>,
    /// The assignment the current iteration produces.
    next: Vec<usize>,
    /// Clusters of the visited object's already-assigned must-link
    /// neighbours.
    ml: Vec<usize>,
    /// Each of those neighbours' distances under every cluster's metric,
    /// `k` per neighbour.
    ml_dists: Vec<f64>,
    /// `(cluster, distance)` of the visited object's already-assigned
    /// cannot-link neighbours.
    cl: Vec<(usize, f64)>,
    /// The M-step's accumulators.
    scatter: Scatter,
}

/// Accumulators of the M-step, reset by every update.
struct Scatter {
    /// Flat `k × dims` per-cluster sums: the centroid coordinate sums, then
    /// the metric scatter.
    sums: Vec<f64>,
    /// Per-cluster object counts.
    counts: Vec<usize>,
}

impl FitBuffers {
    fn new(data: &DataMatrix, k: usize) -> Self {
        let (n, dims) = (data.n_rows(), data.n_cols());
        Self {
            point_panels: PointPanels::of(data),
            metric_panels: MetricPanels::new(k, dims),
            tile: vec![0.0; n * k],
            order: vec![0; n],
            assigned: vec![None; n],
            next: vec![0; n],
            ml: Vec::new(),
            ml_dists: Vec::new(),
            cl: Vec::new(),
            scatter: Scatter {
                sums: Vec::new(),
                counts: Vec::new(),
            },
        }
    }
}

/// Disjoint mutable rows `a` and `b` (`a ≠ b`) of a flat matrix with `dims`
/// columns.
fn two_rows_mut(flat: &mut [f64], dims: usize, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (low, high) = flat.split_at_mut(b * dims);
        (&mut low[a * dims..][..dims], &mut high[..dims])
    } else {
        let (low, high) = flat.split_at_mut(a * dims);
        (&mut high[..dims], &mut low[b * dims..][..dims])
    }
}

/// The cannot-link offset `f_CL` is measured from.  The maximum squared
/// pairwise distance per metric is expensive to track exactly; the squared
/// diameter of the data bounding box under the metric preserves the "close
/// violated cannot-links cost more" behaviour.
fn diameter_sq(weights: &[f64], mins: &[f64], maxs: &[f64]) -> f64 {
    mins.iter()
        .zip(maxs)
        .zip(weights)
        .map(|((lo, hi), w)| {
            let d = hi - lo;
            w * d * d
        })
        .sum()
}

/// Sum of log weights (log-determinant of the diagonal metric).
fn log_det(weights: &[f64]) -> f64 {
    weights.iter().map(|w| w.max(1e-12).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_constraints::generate::constraint_pool;
    use cvcp_data::synthetic::{gaussian_mixture, separated_blobs, ClusterSpec};
    use cvcp_metrics::{adjusted_rand_index, constraint_fmeasure};
    use proptest::prelude::*;

    /// Asserts two fits are identical bit for bit in every output.
    fn assert_bit_identical(fast: &MpckMeansResult, reference: &MpckMeansResult) {
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(fast.partition, reference.partition);
        assert_eq!(bits(&fast.centroids), bits(&reference.centroids));
        assert_eq!(bits(&fast.metrics), bits(&reference.metrics));
        assert_eq!(fast.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(fast.iterations, reference.iterations);
        assert_eq!(fast.violations, reference.violations);
    }

    proptest! {
        /// The hoisted, bulk-distance fit (per-cluster terms once per
        /// iteration, the centroid tile, blocked constraint distances,
        /// reused buffers, borrowed seeding candidates) equals the literal
        /// reference bit for bit on random data, cluster counts, must-link
        /// and cannot-link sets, weights, closure and metric-learning
        /// settings.
        #[test]
        fn fit_seeded_matches_the_reference_bit_for_bit(
            (n, dims, k_draw) in (4usize..40, 1usize..25, 0usize..64),
            (n_ml, n_cl) in (0usize..40, 0usize..40),
            (flags, seed) in (0usize..16, 0u64..1_000_000),
        ) {
            let mut rng = SeededRng::new(seed);
            // A few offset groups, so the data has cluster structure.
            let groups = 1 + rng.index(4);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let offset = 4.0 * (i % groups) as f64;
                    (0..dims).map(|_| offset + rng.uniform_in(-2.0, 2.0)).collect()
                })
                .collect();
            let data = DataMatrix::from_rows(&rows);
            let mut constraints = ConstraintSet::new(n);
            for kind in [ConstraintKind::MustLink, ConstraintKind::CannotLink] {
                let count = if kind == ConstraintKind::MustLink { n_ml } else { n_cl };
                for _ in 0..count {
                    let a = rng.index(n);
                    let b = rng.index(n);
                    if a != b {
                        constraints.add(Constraint::new(a, b, kind));
                    }
                }
            }
            let k = 1 + k_draw % n.min(6);
            let weights = [0.5, 1.0, 2.0];
            let mut config = MpckMeans::new(k)
                .with_metric_learning(flags & 1 == 1)
                .with_weights(weights[rng.index(3)], weights[rng.index(3)]);
            config.use_closure = flags & 2 == 2;
            if flags & 4 == 4 {
                config = config.with_max_iter(1 + rng.index(4));
            }
            let seeding = MpckSeeding::compute(&data, &constraints, config.use_closure);
            let fast = config.fit_seeded(&data, &seeding, &mut SeededRng::new(seed ^ 0x5EED));
            let reference =
                config.fit_reference(&data, &seeding, &mut SeededRng::new(seed ^ 0x5EED));
            assert_bit_identical(&fast, &reference);
        }
    }

    /// The oracle comparison at the paper's shape: an ALOI replica
    /// (125 × 144, five classes), constraints from a 20% label sample,
    /// closure and metric learning on, over the whole default `k` range.
    #[test]
    fn fit_seeded_matches_the_reference_on_an_aloi_replica() {
        let ds = cvcp_data::aloi::aloi_k5_dataset(20140324, 0);
        assert_eq!((ds.matrix().n_rows(), ds.matrix().n_cols()), (125, 144));
        let pool = constraint_pool(ds.labels(), 0.2, 2, &mut SeededRng::new(5));
        let seeding = MpckSeeding::compute(ds.matrix(), &pool, true);
        for k in 2..=10 {
            let config = MpckMeans::new(k);
            let fast = config.fit_seeded(ds.matrix(), &seeding, &mut SeededRng::new(k as u64));
            let reference =
                config.fit_reference(ds.matrix(), &seeding, &mut SeededRng::new(k as u64));
            assert_bit_identical(&fast, &reference);
        }
    }

    #[test]
    fn recovers_separated_blobs_without_constraints() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 25, 4, 10.0, &mut rng);
        let result = MpckMeans::new(3).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
        let ari = adjusted_rand_index(&result.partition, ds.labels());
        assert!(ari > 0.9, "ARI = {ari}");
        assert_eq!(result.partition.n_noise(), 0);
        assert_eq!(result.violations, 0);
    }

    #[test]
    fn constraints_improve_overlapping_clusters() {
        // Two overlapping clusters: constraints should push the solution
        // towards the ground truth.
        let specs = vec![
            ClusterSpec::spherical(vec![0.0, 0.0], 1.4, 40),
            ClusterSpec::spherical(vec![2.2, 0.0], 1.4, 40),
        ];
        let mut scores_with = Vec::new();
        let mut scores_without = Vec::new();
        for seed in 0..5u64 {
            let mut rng = SeededRng::new(seed);
            let ds = gaussian_mixture(&specs, &mut rng);
            let pool = constraint_pool(ds.labels(), 0.4, 2, &mut rng);
            let with = MpckMeans::new(2).fit(ds.matrix(), &pool, &mut rng);
            let without =
                MpckMeans::new(2).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
            scores_with.push(adjusted_rand_index(&with.partition, ds.labels()));
            scores_without.push(adjusted_rand_index(&without.partition, ds.labels()));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&scores_with) >= mean(&scores_without) - 0.02,
            "with constraints {:?} vs without {:?}",
            scores_with,
            scores_without
        );
    }

    #[test]
    fn satisfies_most_constraints_on_easy_data() {
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(3, 20, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.4, 2, &mut rng);
        let result = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut rng);
        let f = constraint_fmeasure(&result.partition, &pool);
        assert!(f > 0.9, "constraint F-measure = {f}");
    }

    #[test]
    fn produces_exactly_k_or_fewer_clusters() {
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(2, 20, 3, 8.0, &mut rng);
        for k in [1usize, 2, 3, 5, 8] {
            let result =
                MpckMeans::new(k).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
            assert!(result.partition.n_clusters() <= k);
            assert!(result.partition.n_clusters() >= 1);
            assert_eq!(result.partition.len(), ds.len());
        }
    }

    #[test]
    fn metric_learning_adapts_to_feature_scales() {
        // One informative dimension, one heavily scaled noise dimension:
        // with metric learning the noise dimension should receive a much
        // smaller weight than the informative one within each cluster.
        let mut specs = Vec::new();
        for &c in &[0.0f64, 8.0] {
            specs.push(ClusterSpec {
                center: vec![c, 0.0],
                std_devs: vec![0.5, 25.0],
                size: 40,
                elongation: 0.0,
            });
        }
        let mut rng = SeededRng::new(5);
        let ds = gaussian_mixture(&specs, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result = MpckMeans::new(2).fit(ds.matrix(), &pool, &mut rng);
        for m in &result.metrics {
            assert!(
                m[0] > m[1],
                "informative dimension should get larger weight: {m:?}"
            );
        }
    }

    #[test]
    fn shared_seeding_is_bit_identical_across_k() {
        // One MpckSeeding serves every k of a parameter sweep and must
        // reproduce the direct fit exactly (the cache trades time, never
        // results).
        let mut rng = SeededRng::new(10);
        let ds = separated_blobs(3, 15, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let seeding = MpckSeeding::compute(ds.matrix(), &pool, true);
        assert!(seeding.artifact_bytes() > 0);
        for k in [2usize, 3, 5] {
            let direct = MpckMeans::new(k).fit(ds.matrix(), &pool, &mut SeededRng::new(77));
            let seeded =
                MpckMeans::new(k).fit_seeded(ds.matrix(), &seeding, &mut SeededRng::new(77));
            assert_eq!(direct.partition, seeded.partition);
            assert_eq!(direct.objective, seeded.objective);
            assert_eq!(direct.centroids, seeded.centroids);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(3, 15, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let a = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut SeededRng::new(9));
        let b = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut SeededRng::new(9));
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn disabling_metric_learning_keeps_unit_weights() {
        let mut rng = SeededRng::new(7);
        let ds = separated_blobs(2, 15, 3, 8.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result =
            MpckMeans::new(2)
                .with_metric_learning(false)
                .fit(ds.matrix(), &pool, &mut rng);
        for m in &result.metrics {
            assert!(m.iter().all(|&w| (w - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn k_zero_panics() {
        let data = DataMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        let mut rng = SeededRng::new(8);
        let _ = MpckMeans::new(0).fit(&data, &ConstraintSet::new(2), &mut rng);
    }

    #[test]
    fn k_one_puts_everything_together() {
        let mut rng = SeededRng::new(9);
        let ds = separated_blobs(2, 10, 2, 8.0, &mut rng);
        let result = MpckMeans::new(1).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
        assert_eq!(result.partition.n_clusters(), 1);
    }
}
