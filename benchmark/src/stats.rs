//! Sample statistics and the seeded schedules the workloads are driven by.

use lusail_benchdata::common::Rng;

/// The `p`-th percentile (0–100) of an ascending slice, interpolating
/// linearly between the two closest ranks. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The fast decile: interference on a shared runner only ever adds time,
/// so the 10th percentile is the steadiest estimate of what the code costs.
pub fn p10(values: &[f64]) -> f64 {
    percentile(&sorted(values), 10.0)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Geometric mean of strictly positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), so the number reads the same as the one the
/// acceptance rule is stated in. Fewer than two values have no spread.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = percentile(&s, 50.0);
    if s.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let len = s.len();
    let quartile = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

/// Fisher–Yates shuffle driven by the workload generator's own RNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds from the start of the run.
    pub due_ns: u64,
    /// Index into the rate table of the slice the arrival falls in.
    pub rate: usize,
}

/// A Poisson arrival schedule: `slices` consecutive one-second slices, the
/// `i`-th at `rates[i % rates.len()]` requests per second, so every rate is
/// exposed to the same stretch of wall time.
pub fn poisson_schedule(seed: u64, rates: &[f64], slices: usize) -> Vec<Arrival> {
    const SLICE_NS: f64 = 1e9;
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for slice in 0..slices {
        let rate = slice % rates.len();
        let start = slice as f64 * SLICE_NS;
        let mut t = start;
        loop {
            // 53 random bits -> uniform in [0, 1); inverse CDF of Exp(rate).
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rates[rate] * SLICE_NS;
            if t >= start + SLICE_NS {
                break;
            }
            out.push(Arrival {
                due_ns: t as u64,
                rate,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 50.0), 6.0);
        assert_eq!(percentile(&v, 100.0), 11.0);
        assert!((percentile(&[1.0, 2.0], 10.0) - 1.1).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p10_ignores_slow_outliers() {
        let mut v = vec![10.0; 90];
        v.extend([500.0; 10]);
        assert_eq!(p10(&v), 10.0);
        assert_eq!(median(&v), 10.0);
    }

    #[test]
    fn geomean_weights_light_and_heavy_alike() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 200.0]) - 20.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn spread_uses_pythons_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([9, 10, 11], n=4) == [9.0, 10.0, 11.0]
        assert!((spread(&[11.0, 9.0, 10.0]) - 0.2).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        shuffle(&mut a, &mut Rng::new(3));
        shuffle(&mut b, &mut Rng::new(3));
        shuffle(&mut c, &mut Rng::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn poisson_schedule_repeats_per_seed_and_tracks_its_rates() {
        let rates = [200.0, 400.0, 800.0];
        let a = poisson_schedule(1, &rates, 30);
        assert_eq!(a, poisson_schedule(1, &rates, 30));
        assert_ne!(a, poisson_schedule(2, &rates, 30));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        for (rate, want) in rates.iter().enumerate() {
            let n = a.iter().filter(|x| x.rate == rate).count() as f64;
            // 10 slices per rate: within 15 % of the offered count.
            assert!((n / (want * 10.0) - 1.0).abs() < 0.15, "{n} at {want}/s");
        }
        // Every arrival sits inside a slice running at its own rate.
        assert!(a
            .iter()
            .all(|x| (x.due_ns / 1_000_000_000) as usize % 3 == x.rate));
    }
}
