//! Descriptive statistics: histograms, moments, feature covariances.
//!
//! Backs the activation-distribution analysis of the paper's Figure 5 and the
//! Gaussian fits of the sFID metric.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A fixed-range histogram over scalar samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `bins == 0` or
    /// `lo >= hi`.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Result<Self> {
        // `partial_cmp` keeps the NaN-rejecting behavior of `!(lo < hi)`.
        if bins == 0 || lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return Err(TensorError::InvalidArgument {
                op: "Histogram::new",
                reason: format!("need bins > 0 and lo < hi, got bins={bins} lo={lo} hi={hi}"),
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f32) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let t = (x - self.lo) / (self.hi - self.lo);
            let b = ((t * self.counts.len() as f32) as usize).min(self.counts.len() - 1);
            self.counts[b] += 1;
        }
    }

    /// Adds every element of a tensor.
    pub fn add_tensor(&mut self, t: &Tensor) {
        for &x in t.as_slice() {
            self.add(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples observed (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f32 {
        let w = (self.hi - self.lo) / self.counts.len() as f32;
        self.lo + (i as f32 + 0.5) * w
    }

    /// Fraction of in-range samples falling in bin `i` (0 if empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Renders the histogram as ASCII bars, for the report binaries.
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut s = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c as usize * width) / max as usize);
            s.push_str(&format!("{:>9.3} | {}\n", self.bin_center(i), bar));
        }
        s
    }
}

/// Summary moments of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Sample count.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population variance (division by N).
    pub variance: f64,
    /// Minimum sample.
    pub min: f32,
    /// Maximum sample.
    pub max: f32,
}

impl Moments {
    /// Computes moments over all elements of a tensor.
    pub fn of(t: &Tensor) -> Moments {
        let n = t.len();
        if n == 0 {
            return Moments {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mut sum = 0.0f64;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in t.as_slice() {
            sum += x as f64;
            min = min.min(x);
            max = max.max(x);
        }
        let mean = sum / n as f64;
        let mut var = 0.0f64;
        for &x in t.as_slice() {
            let d = x as f64 - mean;
            var += d * d;
        }
        Moments {
            count: n,
            mean,
            variance: var / n as f64,
            min,
            max,
        }
    }

    /// Standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Arithmetic mean of `values`, [`f64::NAN`] when there are none, and
/// never outside the `[min, max]` of the values.
///
/// The plain `sum / n` can round past the inputs' range: seven copies of
/// `0.4987012987012987` sum and divide to `0.49870129870129876`, one ulp
/// above the maximum. The quotient is therefore clamped to the observed
/// range, which leaves every in-range result unchanged. A NaN among the
/// values makes the mean NaN.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::stats::bounded_mean;
/// let v = 0.4987012987012987;
/// assert_eq!(bounded_mean(std::iter::repeat_n(v, 7)), v);
/// assert_eq!(bounded_mean([1.0, 2.0, 6.0]), 3.0);
/// assert!(bounded_mean(std::iter::empty()).is_nan());
/// ```
pub fn bounded_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        sum += v;
        n += 1;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let mean = sum / n as f64;
    if mean.is_nan() || lo > hi {
        // No values (0 / 0), a NaN value, or +inf beside -inf.
        return f64::NAN;
    }
    mean.clamp(lo, hi)
}

/// Mean vector and covariance matrix of a feature matrix `[n_samples, dim]`.
///
/// Returns `(mean [dim], covariance [dim, dim])` using the population
/// convention (division by N).
///
/// # Errors
///
/// Returns an error if `features` is not rank 2 or has zero samples.
pub fn mean_and_covariance(features: &Tensor) -> Result<(Tensor, Tensor)> {
    if features.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "mean_and_covariance",
            expected: 2,
            actual: features.rank(),
        });
    }
    let (n, d) = (features.dims()[0], features.dims()[1]);
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op: "mean_and_covariance",
            reason: "need at least one sample".into(),
        });
    }
    let fv = features.as_slice();
    let mut mean = vec![0.0f64; d];
    for i in 0..n {
        for j in 0..d {
            mean[j] += fv[i * d + j] as f64;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut cov = vec![0.0f64; d * d];
    for i in 0..n {
        for a in 0..d {
            let da = fv[i * d + a] as f64 - mean[a];
            for b in a..d {
                let db = fv[i * d + b] as f64 - mean[b];
                cov[a * d + b] += da * db;
            }
        }
    }
    for a in 0..d {
        for b in a..d {
            let v = cov[a * d + b] / n as f64;
            cov[a * d + b] = v;
            cov[b * d + a] = v;
        }
    }
    Ok((
        Tensor::from_vec(mean.iter().map(|&x| x as f32).collect(), [d])?,
        Tensor::from_vec(cov.iter().map(|&x| x as f32).collect(), [d, d])?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn bounded_mean_stays_within_the_inputs() {
        for v in [0.4987012987012987, 0.1, 1.0 / 3.0, 0.7] {
            for n in 1..=64 {
                let m = bounded_mean(std::iter::repeat_n(v, n));
                assert_eq!(m, v, "{n} copies of {v}");
            }
        }
        let mixed = [0.3, 0.1, 0.2];
        let m = bounded_mean(mixed);
        assert!((0.1..=0.3).contains(&m));
        assert!((m - 0.2).abs() < 1e-15);
        assert!(bounded_mean([1.0, f64::NAN]).is_nan());
        assert!(bounded_mean([f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert_eq!(bounded_mean([f64::INFINITY, 1.0]), f64::INFINITY);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        for x in [-0.5, 0.0, 0.1, 0.3, 0.6, 0.99, 1.0, 2.0] {
            h.add(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 8);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-6);
    }

    #[test]
    fn histogram_rejects_degenerate() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 0.0, 4).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
    }

    #[test]
    fn moments_of_known_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let m = Moments::of(&t);
        assert_eq!(m.count, 4);
        assert!((m.mean - 2.5).abs() < 1e-9);
        assert!((m.variance - 1.25).abs() < 1e-6);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
    }

    #[test]
    fn moments_of_empty() {
        let m = Moments::of(&Tensor::zeros([0]));
        assert_eq!(m.count, 0);
        assert_eq!(m.mean, 0.0);
    }

    #[test]
    fn covariance_of_standard_normal_is_near_identity() {
        let mut rng = Rng::seed_from(40);
        let f = Tensor::randn([4000, 3], &mut rng);
        let (mean, cov) = mean_and_covariance(&f).unwrap();
        for &m in mean.as_slice() {
            assert!(m.abs() < 0.1, "mean {m}");
        }
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = cov.get(&[i, j]).unwrap();
                assert!((got - want).abs() < 0.12, "cov[{i},{j}] = {got}");
            }
        }
    }

    #[test]
    fn covariance_is_symmetric_psd_diag() {
        let f = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0, 5.0, 10.0], [3, 2]).unwrap();
        let (_, cov) = mean_and_covariance(&f).unwrap();
        assert!((cov.get(&[0, 1]).unwrap() - cov.get(&[1, 0]).unwrap()).abs() < 1e-6);
        assert!(cov.get(&[0, 0]).unwrap() >= 0.0);
        assert!(cov.get(&[1, 1]).unwrap() >= 0.0);
    }

    #[test]
    fn ascii_render_nonempty() {
        let mut h = Histogram::new(-1.0, 1.0, 3).unwrap();
        h.add(0.0);
        let s = h.ascii(20);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 3);
    }
}
