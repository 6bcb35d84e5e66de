//! Bulk weighted-distance kernels of the MPCKMeans fit.
//!
//! Every distance the fit needs is a [`weighted_sq_dist`]: a sum over the
//! dimensions, in order, starting from `0.0`, of the terms `(w * d) * d`
//! with `d = x − y`.  Evaluated one at a time that sum is a serial chain of
//! dependent additions.  The kernels here evaluate many *independent* sums
//! together — one accumulator per lane, every lane stepping through the
//! dimensions in the same order — over operands laid out so the lanes are
//! adjacent in memory, which lets the compiler vectorise across them.  Each
//! lane performs exactly the operations of [`weighted_sq_dist`] on its own
//! operands, so every result is bit-identical to it; only the interleaving
//! of independent sums changes.
//!
//! * [`PointPanels::centroid_tile`] — every point-to-centroid distance, the
//!   lanes running across the points of a column-major panel of the data;
//! * [`MetricPanels::dists`] — one pair of points under every cluster's
//!   metric, the lanes running across the clusters of a column-major panel
//!   of the metrics.
//!
//! A partial panel or block is padded with zeros, and the padding lanes'
//! results are discarded.
//!
//! [`weighted_sq_dist`]: crate::objective::weighted_sq_dist

use cvcp_data::DataMatrix;

/// Points per panel of a [`PointPanels`].
const PANEL: usize = 8;

/// Clusters per block of a [`MetricPanels`].
const BLOCK: usize = 4;

/// Rows of `dims` values stored column-major in blocks of `W` rows: value
/// `d` of row `b·W + l` is at `(b·dims + d)·W + l`, so the `W` rows of a
/// block are adjacent at every dimension.  The last block is padded with
/// zeros.
#[derive(Debug)]
pub(super) struct Panels<const W: usize> {
    values: Vec<f64>,
    rows: usize,
    dims: usize,
}

/// The data, one lane per point, for the centroid tile.
pub(super) type PointPanels = Panels<PANEL>;

/// The per-cluster diagonal metrics, one lane per cluster, for the
/// distances of one pair under every metric.
pub(super) type MetricPanels = Panels<BLOCK>;

impl<const W: usize> Panels<W> {
    /// Zeroed panels for `rows` rows of `dims` values.
    pub(super) fn new(rows: usize, dims: usize) -> Self {
        Self {
            values: vec![0.0; rows.div_ceil(W) * W * dims],
            rows,
            dims,
        }
    }

    /// Copies `rows` (as many as the panels hold, `dims` values each) into
    /// the panels.
    pub(super) fn pack<'a>(&mut self, rows: impl ExactSizeIterator<Item = &'a [f64]>) {
        debug_assert_eq!(rows.len(), self.rows);
        let block = W * self.dims;
        for (r, row) in rows.enumerate() {
            let panel = &mut self.values[(r / W) * block..][..block];
            for (slot, &x) in panel.iter_mut().skip(r % W).step_by(W).zip(row) {
                *slot = x;
            }
        }
    }
}

impl PointPanels {
    /// Packs the rows of `data`.
    pub(super) fn of(data: &DataMatrix) -> Self {
        let mut panels = Self::new(data.n_rows(), data.n_cols());
        panels.pack((0..data.n_rows()).map(|i| data.row(i)));
        panels
    }

    /// Fills the point-major `n × k` tile with every point-to-centroid
    /// distance: `tile[i·k + c] = weighted_sq_dist(row i, centroids[c],
    /// metrics[c])`.
    pub(super) fn centroid_tile(
        &self,
        centroids: &[Vec<f64>],
        metrics: &[Vec<f64>],
        tile: &mut [f64],
    ) {
        let k = centroids.len();
        debug_assert_eq!(metrics.len(), k);
        debug_assert_eq!(tile.len(), self.rows * k);
        let stride = PANEL * self.dims;
        for (p, rows) in tile.chunks_mut(PANEL * k).enumerate() {
            let (columns, _) = self.values[p * stride..][..stride].as_chunks::<PANEL>();
            for (c, (centroid, weights)) in centroids.iter().zip(metrics).enumerate() {
                let (centroid, weights) = (&centroid[..self.dims], &weights[..self.dims]);
                let mut acc = [0.0f64; PANEL];
                for ((xs, &mu), &w) in columns.iter().zip(centroid).zip(weights) {
                    for (acc, &x) in acc.iter_mut().zip(xs) {
                        let d = x - mu;
                        *acc += w * d * d;
                    }
                }
                for (row, &dist) in rows.chunks_exact_mut(k).zip(&acc) {
                    row[c] = dist;
                }
            }
        }
    }
}

impl MetricPanels {
    /// Fills `out[c] = weighted_sq_dist(x, y, metrics[c])` for every
    /// cluster `c` of the packed metrics.
    pub(super) fn dists(&self, x: &[f64], y: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rows);
        let (x, y) = (&x[..self.dims], &y[..self.dims]);
        let stride = BLOCK * self.dims;
        for (b, out) in out.chunks_mut(BLOCK).enumerate() {
            let (columns, _) = self.values[b * stride..][..stride].as_chunks::<BLOCK>();
            let mut acc = [0.0f64; BLOCK];
            for ((ws, &xd), &yd) in columns.iter().zip(x).zip(y) {
                let d = xd - yd;
                for (acc, &w) in acc.iter_mut().zip(ws) {
                    *acc += w * d * d;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::weighted_sq_dist;
    use cvcp_data::rng::SeededRng;
    use proptest::prelude::*;

    /// A value drawn to exercise signs, zeros and a wide exponent range.
    fn value(rng: &mut SeededRng) -> f64 {
        match rng.index(8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.uniform_in(-1e6, 1e6),
            _ => rng.uniform_in(-3.0, 3.0),
        }
    }

    proptest! {
        /// Every bulk kernel equals `weighted_sq_dist` bit for bit, on
        /// shapes that leave partial point panels and partial metric blocks
        /// (n not a multiple of the panel width, k below and off multiples
        /// of four, no dimensions at all).
        #[test]
        fn bulk_kernels_match_weighted_sq_dist_bit_for_bit(
            (n, k, dims) in (0usize..41, 1usize..12, 0usize..161),
            (n_pairs, seed) in (0usize..41, 0u64..1_000_000),
        ) {
            let mut rng = SeededRng::new(seed);
            let flat: Vec<f64> = (0..n * dims).map(|_| value(&mut rng)).collect();
            let data = DataMatrix::from_flat(flat, n, dims);
            let centroids: Vec<Vec<f64>> =
                (0..k).map(|_| (0..dims).map(|_| value(&mut rng)).collect()).collect();
            let metrics: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..dims).map(|_| rng.uniform_in(1e-3, 1e3)).collect())
                .collect();

            let mut tile = vec![f64::NAN; n * k];
            PointPanels::of(&data).centroid_tile(&centroids, &metrics, &mut tile);
            for i in 0..n {
                for c in 0..k {
                    let expected = weighted_sq_dist(data.row(i), &centroids[c], &metrics[c]);
                    prop_assert_eq!(tile[i * k + c].to_bits(), expected.to_bits());
                }
            }

            let mut panels = MetricPanels::new(k, dims);
            panels.pack(metrics.iter().map(Vec::as_slice));
            let mut out = vec![f64::NAN; k];
            for _ in 0..if n == 0 { 0 } else { n_pairs } {
                let (a, b) = (data.row(rng.index(n)), data.row(rng.index(n)));
                panels.dists(a, b, &mut out);
                for c in 0..k {
                    let expected = weighted_sq_dist(a, b, &metrics[c]);
                    prop_assert_eq!(out[c].to_bits(), expected.to_bits());
                }
            }
        }
    }
}
