//! Order statistics and metric-name rules shared by every workload.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples a percentile must leave beyond it before it is reported as
/// measured rather than extrapolated.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest whole percentile of `n` samples that still has
/// [`SAMPLES_BEYOND`] samples above its nearest-rank position (`None`
/// when `n` is too small for any). 100 samples support p90.
pub fn supported_percentile(n: usize) -> Option<u32> {
    let p = 100 * n.checked_sub(SAMPLES_BEYOND)? / n;
    (p >= 1).then_some(p as u32)
}

/// `n` samples of `what`, and the highest percentile they support.
pub fn supported(what: &str, n: usize) -> String {
    match supported_percentile(n) {
        Some(p) => format!("{n} {what} samples support p{p}"),
        None => format!("{n} {what} samples support no percentile"),
    }
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn is_metric_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(11), Some(9));
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(0), None);
        // The highest one: it leaves ten samples beyond, one more does not.
        for n in 11..500usize {
            let p = supported_percentile(n).expect("n > 10 supports some percentile");
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let beyond = |p: f64| {
                let cut = percentile(&samples, p);
                samples.iter().filter(|&&s| s > cut).count()
            };
            assert!(beyond(f64::from(p)) >= SAMPLES_BEYOND, "n={n} p={p}");
            assert!(
                beyond(f64::from(p + 1)) < SAMPLES_BEYOND,
                "n={n} p={}",
                p + 1
            );
        }
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        assert!(is_metric_name("spice.newton_us"));
        assert!(is_metric_name("campaign_p90_s"));
        assert!(is_metric_name("a-b.c_9"));
        assert!(!is_metric_name(""));
        assert!(!is_metric_name(".leading_dot"));
        assert!(!is_metric_name("has space"));
        assert!(!is_metric_name("unit/s"));
        assert!(!is_metric_name(&"x".repeat(65)));
    }
}
