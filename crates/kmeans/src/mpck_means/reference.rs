//! The literal, un-hoisted MPCKMeans iteration, kept as a test oracle.
//!
//! [`MpckMeans::fit_seeded`] computes each cluster's log-determinant and
//! cannot-link diameter once per iteration, each must-link neighbour's
//! `f_there` once per point, reuses its buffers across iterations and
//! copies only the chosen seeding candidates.  This module keeps the
//! original formulation — every term recomputed where the objective names
//! it, and the seeding candidates cloned whole — so a differential test
//! can check that the hoisted fit is bit-identical to it.

use super::{log_det, MpckMeans, MpckMeansResult, MpckSeeding};
use crate::init::kmeanspp_centroids;
use crate::objective::{recompute_centroids, sq_dist, weighted_sq_dist};
use cvcp_constraints::ConstraintKind;
use cvcp_data::rng::SeededRng;
use cvcp_data::{DataMatrix, Partition};

impl MpckMeans {
    /// The original [`MpckMeans::fit_seeded`], term for term.
    pub(super) fn fit_reference(
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

        let mut centroids =
            centroids_from_candidates_reference(data, seeding.candidates.clone(), self.k, rng);
        let mut metrics: Vec<Vec<f64>> = vec![vec![1.0; dims]; self.k];
        let mut assignment: Vec<usize> = vec![0; n];
        let mut objective = f64::INFINITY;
        let mut iterations = 0;

        // Maximum squared pairwise distance per metric is expensive to track
        // exactly; we use the squared diameter of the data bounding box under
        // the current metric as the f_CL offset, which preserves the "close
        // violated cannot-links cost more" behaviour.
        let (mins, maxs) = data.column_min_max();
        let diameter_sq = |weights: &[f64]| -> f64 {
            mins.iter()
                .zip(&maxs)
                .zip(weights)
                .map(|((lo, hi), w)| {
                    let d = hi - lo;
                    w * d * d
                })
                .sum()
        };

        for it in 0..self.max_iter {
            iterations = it + 1;

            // ---------------- E-step: greedy ordered assignment ----------------
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut assigned: Vec<Option<usize>> = vec![None; n];
            for &i in &order {
                let row = data.row(i);
                let mut best_c = 0usize;
                let mut best_cost = f64::INFINITY;
                for c in 0..self.k {
                    let w = &metrics[c];
                    let mut cost = weighted_sq_dist(row, &centroids[c], w) - log_det(w);
                    // must-link violations w.r.t. already-assigned neighbours
                    for &j in &ml_of[i] {
                        if let Some(cj) = assigned[j] {
                            if cj != c {
                                let f_here = weighted_sq_dist(row, data.row(j), w);
                                let f_there = weighted_sq_dist(row, data.row(j), &metrics[cj]);
                                cost += self.must_link_weight * 0.5 * (f_here + f_there);
                            }
                        }
                    }
                    // cannot-link violations
                    for &j in &cl_of[i] {
                        if let Some(cj) = assigned[j] {
                            if cj == c {
                                let f = diameter_sq(w) - weighted_sq_dist(row, data.row(j), w);
                                cost += self.cannot_link_weight * f.max(0.0);
                            }
                        }
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        best_c = c;
                    }
                }
                assigned[i] = Some(best_c);
            }
            let new_assignment: Vec<usize> =
                assigned.into_iter().map(|a| a.expect("assigned")).collect();

            // Re-seed empty clusters with the point farthest from its centroid.
            let mut final_assignment = new_assignment;
            for c in 0..self.k {
                if !final_assignment.contains(&c) {
                    let (far, _) = (0..n)
                        .map(|i| {
                            (
                                i,
                                weighted_sq_dist(
                                    data.row(i),
                                    &centroids[final_assignment[i]],
                                    &metrics[final_assignment[i]],
                                ),
                            )
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .expect("non-empty data");
                    final_assignment[far] = c;
                }
            }

            // ---------------- M-step: centroids ----------------
            recompute_centroids(data, &final_assignment, &mut centroids);

            // ---------------- M-step: metrics ----------------
            if self.learn_metric {
                self.update_metrics_reference(
                    data,
                    &final_assignment,
                    &centroids,
                    &ml_pairs,
                    &cl_pairs,
                    &mins,
                    &maxs,
                    &mut metrics,
                );
            }

            // ---------------- Objective & convergence ----------------
            let new_objective = self.objective_reference(
                data,
                &final_assignment,
                &centroids,
                &metrics,
                &ml_pairs,
                &cl_pairs,
                &diameter_sq,
            );
            let converged = final_assignment == assignment
                || (objective - new_objective).abs() <= 1e-9 * objective.abs().max(1.0);
            assignment = final_assignment;
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

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)] // per-dimension scatter accumulation
    fn update_metrics_reference(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        mins: &[f64],
        maxs: &[f64],
        metrics: &mut [Vec<f64>],
    ) {
        let dims = data.n_cols();
        let k = centroids.len();
        let mut scatter = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0usize; k];

        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            let row = data.row(i);
            for d in 0..dims {
                let diff = row[d] - centroids[c][d];
                scatter[c][d] += diff * diff;
            }
        }
        // Violated must-links contribute half their scatter to both clusters.
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                for d in 0..dims {
                    let diff = data.get(a, d) - data.get(b, d);
                    let v = 0.5 * self.must_link_weight * diff * diff;
                    scatter[ca][d] += v;
                    scatter[cb][d] += v;
                }
            }
        }
        // Violated cannot-links contribute (range² − diff²) to their cluster.
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                for d in 0..dims {
                    let diff = data.get(a, d) - data.get(b, d);
                    let range = maxs[d] - mins[d];
                    let v = self.cannot_link_weight * (range * range - diff * diff).max(0.0);
                    scatter[ca][d] += v;
                }
            }
        }

        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for d in 0..dims {
                let denom = scatter[c][d].max(1e-12);
                metrics[c][d] = (counts[c] as f64 / denom).clamp(self.min_weight, self.max_weight);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn objective_reference<F: Fn(&[f64]) -> f64>(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        metrics: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        diameter_sq: &F,
    ) -> f64 {
        let mut obj = 0.0;
        for (i, &c) in assignment.iter().enumerate() {
            obj += weighted_sq_dist(data.row(i), &centroids[c], &metrics[c]) - log_det(&metrics[c]);
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
                let f = diameter_sq(&metrics[ca])
                    - weighted_sq_dist(data.row(a), data.row(b), &metrics[ca]);
                obj += self.cannot_link_weight * f.max(0.0);
            }
        }
        obj
    }
}

/// The owning formulation of `centroids_from_candidates`, fed a whole
/// clone of the seeding candidates.
#[allow(clippy::needless_range_loop)] // dist2[i] updates in lock-step with data.row(i)
fn centroids_from_candidates_reference(
    data: &DataMatrix,
    mut candidates: Vec<(Vec<f64>, usize)>,
    k: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<f64>> {
    assert!(
        k >= 1 && k <= data.n_rows(),
        "invalid k = {k} for {} rows",
        data.n_rows()
    );
    if candidates.is_empty() {
        return kmeanspp_centroids(data, k, rng);
    }

    if candidates.len() <= k {
        let mut centroids: Vec<Vec<f64>> = candidates.into_iter().map(|(c, _)| c).collect();
        // Fill the rest with k-means++ draws conditioned on existing centroids.
        let n = data.n_rows();
        let mut dist2: Vec<f64> = (0..n)
            .map(|i| {
                centroids
                    .iter()
                    .map(|c| sq_dist(data.row(i), c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        while centroids.len() < k {
            let total: f64 = dist2.iter().sum();
            let next = if total <= f64::EPSILON {
                rng.index(n)
            } else {
                let mut target = rng.uniform() * total;
                let mut chosen = n - 1;
                for (i, &d) in dist2.iter().enumerate() {
                    target -= d;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.push(data.row(next).to_vec());
            for i in 0..n {
                let d = sq_dist(data.row(i), data.row(next));
                if d < dist2[i] {
                    dist2[i] = d;
                }
            }
        }
        return centroids;
    }

    // More neighbourhoods than clusters: weighted farthest-first traversal.
    // Start from the largest neighbourhood.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.1));
    let mut chosen: Vec<(Vec<f64>, usize)> = vec![candidates.remove(0)];
    while chosen.len() < k {
        // pick the candidate maximising (min distance to chosen) * size
        let (best_idx, _) = candidates
            .iter()
            .enumerate()
            .map(|(idx, (c, size))| {
                let min_d = chosen
                    .iter()
                    .map(|(cc, _)| sq_dist(c, cc))
                    .fold(f64::INFINITY, f64::min);
                (idx, min_d * *size as f64)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .expect("candidates non-empty");
        chosen.push(candidates.remove(best_idx));
    }
    chosen.into_iter().map(|(c, _)| c).collect()
}
