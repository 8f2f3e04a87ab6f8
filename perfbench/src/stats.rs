//! The benchmark's own arithmetic: order statistics, the tail rule,
//! open-loop lateness and backlog, and rank correlation.

/// Sorted copy of `xs` (NaNs last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads printed here match the
/// ones computed over repeated runs. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of a sorted sample: the value at 1-based rank
/// `ceil(pct/100 · n)`. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, pct).clamp(1, n) - 1])
}

/// 1-based nearest rank `ceil(pct/100 · n)`, robust to the binary
/// representation of `pct` (99 % of 1000 is rank 990, not 991).
fn rank(n: usize, pct: f64) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The nearest-rank `pct` of a sample when at least [`MIN_BEYOND`]
/// samples lie beyond it, otherwise the highest percentile that still has
/// that many beyond it. Returns `(percentile, value)`, or `None` when
/// fewer than `MIN_BEYOND + 1` samples exist.
pub fn tail(xs: &[f64], pct: f64) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let r = rank(n, pct).clamp(1, n - MIN_BEYOND);
    Some((100.0 * r as f64 / n as f64, v[r - 1]))
}

/// Open-loop accounting of one load phase. Every time is seconds from a
/// common origin; a request that was never sent or never completed is
/// `None`.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// When each request was due to be sent.
    pub due: Vec<f64>,
    /// When the sender actually started sending it.
    pub sent: Vec<Option<f64>>,
    /// When its result was decoded and checked.
    pub done: Vec<Option<f64>>,
}

impl Phase {
    /// How late the generator ran for each sent request, in seconds.
    pub fn lateness(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .filter_map(|(d, s)| s.map(|s| (s - d).max(0.0)))
            .collect()
    }

    /// Latency of each completed request, timed from when it was due (not
    /// when it was sent), so a stall is charged to every request it delays.
    pub fn latencies(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(d, c)| c.map(|c| c - d))
            .collect()
    }

    /// End of the phase: its last due time.
    pub fn end(&self) -> f64 {
        self.due.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Requests sent but not completed at time `t`.
    pub fn backlog_at(&self, t: f64) -> usize {
        let sent = self.sent.iter().flatten().filter(|&&s| s <= t).count();
        let done = self.done.iter().flatten().filter(|&&c| c <= t).count();
        sent.saturating_sub(done)
    }

    /// Throughput while working off the phase: requests completed over
    /// the time from the first due time to the last completion.
    pub fn drain_rate(&self) -> f64 {
        let start = self.due.iter().copied().fold(f64::INFINITY, f64::min);
        let done: Vec<f64> = self.done.iter().flatten().copied().collect();
        let last = done.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        done.len() as f64 / (last - start)
    }
}

/// Ranks with ties given their mean rank (1-based).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let mean = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = mean;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation (Pearson correlation of the ranks).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman needs paired samples");
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
    }
    sab / (saa * sbb).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&xs, 99.5), Some(100.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 and leaves exactly 10 beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.0), Some((99.0, 990.0)));
        assert_eq!(tail(&big, 95.0), Some((95.0, 950.0)));
        // 999 samples cannot support p99 (rank 990 leaves 9 beyond).
        assert_eq!(
            tail(&big[..999], 99.0),
            Some((100.0 * 989.0 / 999.0, 989.0))
        );
        // 40 samples: p95 falls back to rank 30, the last with 10 beyond.
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&small, 95.0), Some((75.0, 30.0)));
        assert_eq!(tail(&small, 50.0), Some((50.0, 20.0)));
        assert_eq!(tail(&small[..10], 50.0), None);
        assert_eq!(tail(&small[..11], 99.0), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_delayed_request() {
        // Due every 10 ms; the sender stalls 35 ms on the first send.
        let phase = Phase {
            due: vec![0.00, 0.01, 0.02, 0.03, 0.04, 0.05],
            sent: vec![
                Some(0.00),
                Some(0.035),
                Some(0.036),
                Some(0.037),
                Some(0.04),
                None,
            ],
            done: vec![
                Some(0.034),
                Some(0.040),
                Some(0.041),
                Some(0.042),
                Some(0.045),
                None,
            ],
        };
        let late: Vec<f64> = phase.lateness().iter().map(|l| (l * 1e3).round()).collect();
        assert_eq!(late, vec![0.0, 25.0, 16.0, 7.0, 0.0]);
        let lat: Vec<f64> = phase
            .latencies()
            .iter()
            .map(|l| (l * 1e3).round())
            .collect();
        // Measured from the due time, request 1 waited 30 ms, not 5 ms.
        assert_eq!(lat, vec![34.0, 30.0, 21.0, 12.0, 5.0]);
        assert_eq!(phase.end(), 0.05);
        assert_eq!(phase.backlog_at(0.036), 2);
        assert_eq!(phase.backlog_at(0.05), 0);
        // Five completions from the first due time (0) to the last (45 ms).
        assert!((phase.drain_rate() - 5.0 / 0.045).abs() < 1e-9);
    }

    #[test]
    fn spearman_handles_order_and_ties() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(ranks(&[5.0, 1.0, 5.0]), vec![2.5, 1.0, 2.5]);
    }
}
