//! Order statistics over timing samples, and the metric-name rule.

/// Percentiles the benchmark may report for a tail, lowest first.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie strictly above a percentile before it may be
/// reported: fewer would make the figure a statement about one or two
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps p99.9 of 10000 at rank 9990 despite 99.9 having
    // no exact binary form.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, as `(p, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers cannot rely on sorted input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: p50 is rank 10 with 9 beyond, so nothing qualifies.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 99 samples: p90 is rank 90 with 9 beyond, so p50 it is.
        assert_eq!(tail(&ramp(99)), Some((50.0, 50.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p99 has 1 beyond.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 is rank 9990 with 10 beyond.
        assert_eq!(tail(&ramp(10000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "sim.infer_ms.GRU",
            "fleet.run_ms.diurnal.cost_aware",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok} should be valid");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "uni\u{e9}",
            too_long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
        }
    }
}
