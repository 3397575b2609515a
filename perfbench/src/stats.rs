//! The benchmark's own arithmetic: percentiles, the tail-percentile
//! rule, open-loop latency and failure tallies. Everything here is pure
//! so the tests below can pin it down.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile.
const BEYOND: f64 = 10.0;

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= BEYOND - 1e-9)
}

/// The `p`-th percentile (0..=100) of `values`, interpolating linearly
/// between closest ranks. Infinite values (failed operations) sort last,
/// so a percentile that reaches them is infinite. `NaN` for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || v[hi] == v[lo] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The Harrell–Davis estimate of the `p`-th percentile: a weighted mean
/// of every order statistic, with Beta(p(n+1), (1-p)(n+1)) weights.
/// Completion waits on a fixed polling tick quantize operation times,
/// so a plain sample quantile jumps a whole tick when a few operations
/// slip across a tick edge; this estimate moves with them smoothly.
/// Infinite for any infinite value (a failed operation), `NaN` for none.
pub fn hd_percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = (p / 100.0).clamp(0.0, 1.0);
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// The regularized incomplete beta function I_x(a, b), by Lentz's
/// continued fraction.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(1.0 - x, b, a);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut f = d;
    for m in 1..500 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    ln_front.exp() * f / a
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let s: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// Latency of one open-loop request, timed from when it was *due* to be
/// sent rather than from when the generator got round to sending it, so
/// a stall in the generator or the server shows in every request it
/// delays. A request that never completed has infinite latency: it
/// misses any latency limit.
pub fn open_loop_latency(due: f64, seen: Option<f64>) -> f64 {
    seen.map_or(f64::INFINITY, |s| s - due)
}

/// Operations attempted and failed. An operation fails when it errored,
/// was rejected, timed out or returned a wrong result.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not produce a correct result.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is whether it produced a correct result.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed over attempted (0 for nothing attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&[4.0, 1.0], 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Symmetric samples: the median estimate is the centre.
        assert!(close(hd_percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0));
        assert!(close(hd_percentile(&[7.0; 12], 90.0), 7.0));
        // n = 2, p = 50: Beta(1.5, 1.5) puts half its weight below 1/2.
        assert!(close(hd_percentile(&[0.0, 10.0], 50.0), 5.0));
        // n = 1 is the sample itself.
        assert!(close(hd_percentile(&[4.5], 90.0), 4.5));
        assert!(close(beta_cdf(0.3, 1.0, 1.0), 0.3));
        assert!(close(beta_cdf(0.5, 2.0, 3.0), 0.6875));
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(hd_percentile(&[], 50.0).is_nan());
        assert_eq!(hd_percentile(&[1.0, f64::INFINITY], 50.0), f64::INFINITY);
    }

    #[test]
    fn harrell_davis_moves_smoothly_across_a_tick() {
        // Operations land on 160 ms or 180 ms ticks. As one operation at
        // a time slips to the later tick, the sample median jumps a whole
        // tick at once; the estimate moves a fraction of it each time.
        let mut prev = hd_percentile(&[160.0; 41], 50.0);
        for slipped in 1..=41 {
            let mut v = vec![160.0; 41 - slipped];
            v.extend(vec![180.0; slipped]);
            let now = hd_percentile(&v, 50.0);
            assert!(
                now >= prev && now - prev < 5.0,
                "{slipped}: {prev} -> {now}"
            );
            prev = now;
        }
        assert!((prev - 180.0).abs() < 1e-9);
    }

    #[test]
    fn failed_operations_sit_in_the_tail() {
        let mut v = vec![1.0; 9];
        v.push(f64::INFINITY);
        assert_eq!(median(&v), 1.0);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
    }

    #[test]
    fn a_stall_inflates_later_latencies_from_their_due_time() {
        // Requests due every 10 ms; each takes 2 ms once sent. The
        // generator stalls 50 ms before request 3, then sends the backlog
        // back to back.
        let due: Vec<f64> = (0..8).map(|i| 10.0 * i as f64).collect();
        let mut sent = Vec::new();
        let mut free = 0.0f64;
        for (i, &d) in due.iter().enumerate() {
            let ready = if i == 3 { d + 50.0 } else { d };
            let s = ready.max(free);
            sent.push(s);
            free = s + 2.0;
        }
        let seen: Vec<f64> = sent.iter().map(|s| s + 2.0).collect();
        let lat: Vec<f64> = due
            .iter()
            .zip(&seen)
            .map(|(&d, &s)| open_loop_latency(d, Some(s)))
            .collect();
        // Before the stall every request takes its 2 ms.
        assert_eq!(&lat[..3], &[2.0, 2.0, 2.0]);
        // The stall delays request 3 and every request queued behind it,
        // although each took only 2 ms from when it was sent.
        assert_eq!(lat[3], 52.0);
        assert!(lat[4] > 2.0 && lat[5] > 2.0);
        assert!(sent.iter().zip(&seen).all(|(s, e)| e - s == 2.0));
        assert!(median(&lat) > 2.0);
    }

    #[test]
    fn a_request_that_never_completes_misses_every_limit() {
        assert_eq!(open_loop_latency(5.0, None), f64::INFINITY);
        assert_eq!(open_loop_latency(5.0, Some(7.5)), 2.5);
    }

    #[test]
    fn tally_counts_failures_over_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
