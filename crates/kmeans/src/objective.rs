//! Shared centroid / objective helpers for the k-means family.

use cvcp_data::DataMatrix;

/// Computes the centroid (mean vector) of the given objects.
///
/// Returns a zero vector when `members` is empty (callers re-seed empty
/// clusters explicitly).
pub fn centroid_of(data: &DataMatrix, members: &[usize]) -> Vec<f64> {
    let dims = data.n_cols();
    let mut c = vec![0.0; dims];
    if members.is_empty() {
        return c;
    }
    for &i in members {
        for (j, v) in data.row(i).iter().enumerate() {
            c[j] += v;
        }
    }
    for v in &mut c {
        *v /= members.len() as f64;
    }
    c
}

/// Recomputes all `k` centroids from an assignment vector.  Clusters with no
/// members keep their previous centroid.
pub fn recompute_centroids(data: &DataMatrix, assignment: &[usize], centroids: &mut [Vec<f64>]) {
    recompute_centroids_with(
        data,
        assignment,
        centroids,
        &mut Vec::new(),
        &mut Vec::new(),
    );
}

/// [`recompute_centroids`] accumulating into caller-owned buffers, so an
/// iterative fit allocates them once: `sums` becomes the flat `k × dims`
/// per-cluster coordinate sums and `counts` the cluster sizes, which the
/// caller may read afterwards.
pub fn recompute_centroids_with(
    data: &DataMatrix,
    assignment: &[usize],
    centroids: &mut [Vec<f64>],
    sums: &mut Vec<f64>,
    counts: &mut Vec<usize>,
) {
    let dims = data.n_cols();
    sums.clear();
    sums.resize(centroids.len() * dims, 0.0);
    counts.clear();
    counts.resize(centroids.len(), 0);
    for (i, &c) in assignment.iter().enumerate() {
        counts[c] += 1;
        for (sum, v) in sums[c * dims..][..dims].iter_mut().zip(data.row(i)) {
            *sum += v;
        }
    }
    for (c, (centroid, &count)) in centroids.iter_mut().zip(counts.iter()).enumerate() {
        if count > 0 {
            for (x, sum) in centroid.iter_mut().zip(&sums[c * dims..][..dims]) {
                *x = sum / count as f64;
            }
        }
    }
}

/// Squared Euclidean distance between a data row and a centroid.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Weighted (diagonal-metric) squared distance.
#[inline]
pub fn weighted_sq_dist(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), weights.len());
    let mut acc = 0.0;
    for ((x, y), w) in a.iter().zip(b).zip(weights) {
        let d = x - y;
        acc += w * d * d;
    }
    acc
}

/// The within-cluster sum of squared distances (the k-means objective).
pub fn inertia(data: &DataMatrix, assignment: &[usize], centroids: &[Vec<f64>]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(i, &c)| sq_dist(data.row(i), &centroids[c]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> DataMatrix {
        DataMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![10.0, 10.0],
            vec![12.0, 10.0],
        ])
    }

    #[test]
    fn centroid_of_members() {
        let d = data();
        assert_eq!(centroid_of(&d, &[0, 1]), vec![1.0, 0.0]);
        assert_eq!(centroid_of(&d, &[2, 3]), vec![11.0, 10.0]);
        assert_eq!(centroid_of(&d, &[]), vec![0.0, 0.0]);
    }

    #[test]
    fn recompute_handles_empty_clusters() {
        let d = data();
        let mut centroids = vec![vec![5.0, 5.0], vec![7.0, 7.0], vec![-1.0, -1.0]];
        recompute_centroids(&d, &[0, 0, 1, 1], &mut centroids);
        assert_eq!(centroids[0], vec![1.0, 0.0]);
        assert_eq!(centroids[1], vec![11.0, 10.0]);
        // cluster 2 had no members: unchanged
        assert_eq!(centroids[2], vec![-1.0, -1.0]);
    }

    #[test]
    fn reused_buffers_reproduce_nested_sums_bit_for_bit() {
        // The literal nested formulation the flat accumulation replaced.
        let literal = |data: &DataMatrix, assignment: &[usize], centroids: &mut [Vec<f64>]| {
            let mut sums = vec![vec![0.0; data.n_cols()]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for (j, v) in data.row(i).iter().enumerate() {
                    sums[c][j] += v;
                }
            }
            for c in 0..centroids.len() {
                if counts[c] > 0 {
                    for j in 0..data.n_cols() {
                        centroids[c][j] = sums[c][j] / counts[c] as f64;
                    }
                }
            }
        };
        let mut rng = cvcp_data::rng::SeededRng::new(12);
        let (mut sums, mut counts) = (Vec::new(), Vec::new());
        for (n, dims, k) in [(0, 3, 2), (7, 0, 3), (13, 5, 4), (40, 17, 6)] {
            let flat = (0..n * dims).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
            let d = DataMatrix::from_flat(flat, n, dims);
            let assignment: Vec<usize> = (0..n).map(|_| rng.index(k)).collect();
            let start: Vec<Vec<f64>> = (0..k).map(|c| vec![c as f64; dims]).collect();
            let (mut fast, mut slow) = (start.clone(), start);
            recompute_centroids_with(&d, &assignment, &mut fast, &mut sums, &mut counts);
            literal(&d, &assignment, &mut slow);
            let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                rows.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&fast), bits(&slow));
            for (c, &count) in counts.iter().enumerate() {
                assert_eq!(count, assignment.iter().filter(|&&a| a == c).count());
            }
        }
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(
            weighted_sq_dist(&[0.0, 0.0], &[3.0, 4.0], &[1.0, 1.0]),
            25.0
        );
        assert_eq!(
            weighted_sq_dist(&[0.0, 0.0], &[3.0, 4.0], &[2.0, 0.0]),
            18.0
        );
    }

    #[test]
    fn inertia_of_perfect_assignment() {
        let d = data();
        let centroids = vec![vec![1.0, 0.0], vec![11.0, 10.0]];
        let val = inertia(&d, &[0, 0, 1, 1], &centroids);
        assert_eq!(val, 4.0);
    }
}
