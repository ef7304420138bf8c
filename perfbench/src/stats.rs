//! Order statistics over measured samples.

use std::time::Duration;

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorts a copy of `xs` ascending (NaN-free input assumed; +inf sorts
/// last, which is how refused or failed requests are counted).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail of a timing: the p90, or with fewer than 100 samples the
/// highest percentile that still has at least ten samples beyond it.
/// Capping at p90 keeps the tail off the rare host stalls a shared
/// machine injects, which otherwise decide any higher percentile.
/// Returns `(value, percentile, n)`, or `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let v = sorted(xs);
    let rank = ((0.9 * n as f64).ceil() as usize).min(n - 10);
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64, n))
}
