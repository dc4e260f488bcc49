//! Order statistics over host-time samples.

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The host time of a deterministic operation: the fastest of its
/// repetitions. Every repetition does identical work, so on a shared host
/// noise only ever adds time, and the minimum is the estimate of the
/// program's own cost that stays steady from run to run.
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The `q`-quantile, over kinds, of each kind's [`fastest`] time: the
/// latency distribution of an operation that comes in several kinds (each
/// scenario of a pass, each grid of a pair), each one deterministic.
pub fn across_kinds(kinds: &[Vec<f64>], q: f64) -> f64 {
    let per_kind: Vec<f64> = kinds.iter().map(|k| fastest(k)).collect();
    quantile(&per_kind, q)
}

/// The sum over kinds of each kind's [`fastest`] time: one pass through
/// every kind with each at its own cost. Short operations find a quiet
/// moment of a shared host more often than one long pass does.
pub fn composite(kinds: &[Vec<f64>]) -> f64 {
    kinds.iter().map(|k| fastest(k)).sum()
}

/// Milliseconds in a `Duration`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
