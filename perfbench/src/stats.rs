//! Order statistics and process measurements.

use std::time::Instant;

/// Median of `xs` (the mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail the benchmark prints: the highest percentile with at least ten
/// samples beyond it — p99 from 1000 samples on; below that no percentile
/// is a tail, and the slowest sample is printed. Returns the value and its
/// label.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    if xs.len() >= 1000 {
        (quantile(xs, 0.99), "p99")
    } else {
        (xs.iter().copied().fold(0.0, f64::max), "max")
    }
}

/// [`tail`] of each round, and the median over rounds: a slow stretch of
/// the machine that spans a minority of rounds does not move it.
pub fn round_tail(rounds: &[Vec<f64>]) -> (f64, &'static str) {
    let tails: Vec<(f64, &'static str)> = rounds.iter().map(|r| tail(r)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let label = tails.iter().map(|t| t.1).min().unwrap_or("max");
    (median(&values), label)
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&few), (10.0, "max"));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, label) = tail(&many);
        assert_eq!(label, "p99");
        assert!(many.iter().filter(|&&x| x > v).count() >= 10);
        let rounds = vec![few.clone(), vec![1.0, 30.0], few];
        assert_eq!(round_tail(&rounds), (10.0, "max"));
    }
}
