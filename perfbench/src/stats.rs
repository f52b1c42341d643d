//! Order statistics, the failure-rate bound and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `values` by nearest rank (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().clamp(1.0, v.len() as f64) as usize;
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Upper end of the 95% Wilson score interval for a failure probability
/// observed as `failed` out of `n`. With no failures it is
/// `z² / (n + z²)`, the smallest rate the sample can rule out, so a clean
/// run reads as its resolution instead of 0.
pub fn wilson_upper(failed: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    const Z: f64 = 1.959_964;
    let n = n as f64;
    let p = (failed as f64 / n).min(1.0);
    let z2 = Z * Z;
    let centre = p + z2 / (2.0 * n);
    let margin = Z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + margin) / (1.0 + z2 / n)).min(1.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (interactions, rounds or probe calls).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Latency samples of failed interactions are `INFINITY` (they miss every
/// limit); JSON has no infinity, so such a percentile prints as this.
const NOT_FINITE: f64 = 1e12;

fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { NOT_FINITE };
    format!("{v:?}")
}

/// Print every metric as a readable line, then the one-line JSON result
/// (always the last line of standard output).
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<32} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.2), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn wilson_bound_is_positive_and_grows_with_failures() {
        let clean = wilson_upper(0, 10_000);
        assert!((clean - 3.84 / 10_003.84).abs() < 1e-5);
        assert!(wilson_upper(5, 10_000) > clean);
        assert!(wilson_upper(5, 10_000) > 5.0 / 10_000.0);
    }
}
