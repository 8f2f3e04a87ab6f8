//! Sparsity-threshold analysis (paper Figure 11, left).
//!
//! The detector's threshold trades off two quantities: a higher threshold
//! makes the sparse portion *sparser* (better sparse-engine efficiency) but
//! routes fewer channels to it (worse engine balance). The paper selects
//! 30% as the balance point.

use crate::classify::ChannelPartition;
use crate::trace::TemporalTrace;
use serde::{Deserialize, Serialize};
use sqdm_tensor::parallel;

/// One row of the threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// The classification threshold swept.
    pub threshold: f64,
    /// Mean fraction of channels classified sparse.
    pub sparse_channel_fraction: f64,
    /// Mean true sparsity of the sparse portion.
    pub sparse_portion_sparsity: f64,
    /// Mean true sparsity of the dense portion.
    pub dense_portion_sparsity: f64,
    /// Dense-engine work fraction (of the full dense workload).
    pub dense_work: f64,
    /// Sparse-engine work fraction (zeros skipped).
    pub sparse_work: f64,
    /// |dense − sparse| work imbalance; 0 is perfectly balanced engines.
    pub imbalance: f64,
}

/// Sweeps classification thresholds over a recorded trace, averaging each
/// metric over all time steps.
///
/// An empty trace yields an empty sweep: there are no statistics to
/// average, and fabricating all-zero points would let
/// [`best_balanced_threshold`] report a fake "perfectly balanced"
/// threshold (`imbalance == 0`) that no data supports.
///
/// Sweep points are independent, so they are computed in parallel over
/// the [`sqdm_tensor::parallel`] worker pool, in input order.
pub fn threshold_sweep(trace: &TemporalTrace, thresholds: &[f64]) -> Vec<ThresholdPoint> {
    if trace.steps() == 0 {
        return Vec::new();
    }
    let point_work = trace.steps() * trace.channels() * 8;
    parallel::par_map_indexed(thresholds.len(), point_work, |ti| {
        let th = thresholds[ti];
        let mut frac = 0.0;
        let mut sparse_sp = 0.0;
        let mut dense_sp = 0.0;
        let mut dwork = 0.0;
        let mut swork = 0.0;
        for step in 0..trace.steps() {
            let p = ChannelPartition::classify(trace.step(step), th);
            frac += p.sparse_fraction();
            sparse_sp += p.sparse_portion_sparsity();
            dense_sp += p.dense_portion_sparsity();
            let (d, s) = p.work_split();
            dwork += d;
            swork += s;
        }
        let n = trace.steps() as f64;
        ThresholdPoint {
            threshold: th,
            sparse_channel_fraction: frac / n,
            sparse_portion_sparsity: sparse_sp / n,
            dense_portion_sparsity: dense_sp / n,
            dense_work: dwork / n,
            sparse_work: swork / n,
            imbalance: (dwork / n - swork / n).abs(),
        }
    })
}

/// Picks the threshold with the smallest dense/sparse work imbalance — the
/// selection criterion the paper describes for its 30% choice.
pub fn best_balanced_threshold(points: &[ThresholdPoint]) -> Option<ThresholdPoint> {
    points
        .iter()
        .copied()
        .min_by(|a, b| a.imbalance.total_cmp(&b.imbalance))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic trace with half very-sparse and half mostly-dense
    /// channels.
    fn bimodal_trace() -> TemporalTrace {
        let mut tr = TemporalTrace::new(8);
        for step in 0..10 {
            let wiggle = 0.02 * (step % 3) as f64;
            let mut s = vec![0.85 + wiggle, 0.8, 0.75, 0.9];
            s.extend([0.05, 0.1 + wiggle, 0.15, 0.02]);
            tr.push_step(s);
        }
        tr
    }

    #[test]
    fn sparse_portion_sparsity_rises_with_threshold() {
        let tr = bimodal_trace();
        let pts = threshold_sweep(&tr, &[0.1, 0.3, 0.5, 0.7]);
        for w in pts.windows(2) {
            assert!(
                w[1].sparse_portion_sparsity >= w[0].sparse_portion_sparsity - 1e-9,
                "{pts:?}"
            );
        }
    }

    #[test]
    fn sparse_fraction_falls_with_threshold() {
        let tr = bimodal_trace();
        let pts = threshold_sweep(&tr, &[0.01, 0.3, 0.95]);
        assert!(pts[0].sparse_channel_fraction > pts[1].sparse_channel_fraction);
        assert!(pts[1].sparse_channel_fraction > pts[2].sparse_channel_fraction);
        assert_eq!(pts[2].sparse_channel_fraction, 0.0);
    }

    #[test]
    fn mid_threshold_balances_bimodal_engines() {
        // For the bimodal trace, classifying the sparse half sparse gives
        // dense work 0.5, sparse work ≈ 0.5·(1−0.82) ≈ 0.09... the best
        // balance is *not* at the extremes.
        let tr = bimodal_trace();
        let pts = threshold_sweep(&tr, &[0.01, 0.3, 0.99]);
        let best = best_balanced_threshold(&pts).unwrap();
        assert_eq!(best.threshold, 0.3, "{pts:?}");
    }

    #[test]
    fn work_conservation() {
        // dense_work + sparse_work + skipped == 1 where skipped is the
        // sparse-portion's zero fraction share.
        let tr = bimodal_trace();
        for p in threshold_sweep(&tr, &[0.3]) {
            let skipped: f64 = p.sparse_channel_fraction * p.sparse_portion_sparsity;
            assert!(
                (p.dense_work + p.sparse_work + skipped - 1.0).abs() < 1e-9,
                "{p:?}"
            );
        }
    }

    #[test]
    fn empty_trace_yields_empty_sweep() {
        // Regression: the sweep used to divide by `steps.max(1)` and emit
        // all-zero points for an empty trace, whose `imbalance == 0` made
        // `best_balanced_threshold` report a fake perfectly-balanced
        // threshold. An empty trace must produce no points at all.
        let tr = TemporalTrace::new(4);
        let pts = threshold_sweep(&tr, &[0.1, 0.3, 0.9]);
        assert!(pts.is_empty(), "{pts:?}");
        assert!(best_balanced_threshold(&pts).is_none());
        assert!(best_balanced_threshold(&[]).is_none());
    }

    #[test]
    fn sweep_is_identical_at_any_thread_count() {
        let tr = bimodal_trace();
        let ths: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
        let serial = parallel::with_threads(1, || threshold_sweep(&tr, &ths));
        for t in [2, 7] {
            // A one-unit grain makes this small sweep split across the pool.
            let (par, regions) = parallel::with_grain(1, || {
                parallel::with_threads(t, || {
                    let before = parallel::regions_opened();
                    let par = threshold_sweep(&tr, &ths);
                    (par, parallel::regions_opened() - before)
                })
            });
            assert!(regions > 0, "thread count {t}: the sweep ran inline");
            assert_eq!(serial, par, "thread count {t}");
        }
    }
}
