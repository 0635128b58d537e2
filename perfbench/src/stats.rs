//! Order statistics over timing samples.

/// The `q`-quantile of `samples` (linear interpolation between order
/// statistics), or 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The largest of `samples`, or 0 for an empty sample: the tail of a batch
/// workload, whose handful of requests supports no percentile above the
/// median.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Splits `span` seconds into equal windows of about `width` seconds (at
/// least one) and returns the values of the `(t, value)` samples whose `t`
/// falls in each window; samples outside `[0, span)` are dropped. A
/// statistic taken per window and then its median over the windows is not
/// moved by a slow spell of the host shorter than half the span.
pub fn windows(samples: &[(f64, f64)], span: f64, width: f64) -> Vec<Vec<f64>> {
    let count = ((span / width).round() as usize).max(1);
    let width = span / count as f64;
    let mut out = vec![Vec::new(); count];
    for &(t, value) in samples {
        let k = (t / width).floor();
        if k >= 0.0 && (k as usize) < count {
            out[k as usize].push(value);
        }
    }
    out
}

/// The mean of `samples`, or 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_split_the_span_evenly() {
        let samples = [
            (0.1, 1.0),
            (0.6, 2.0),
            (1.4, 3.0),
            (2.9, 4.0),
            (3.1, 5.0),
            (-0.1, 6.0),
        ];
        assert_eq!(
            windows(&samples, 3.0, 1.1),
            vec![vec![1.0, 2.0], vec![3.0], vec![4.0]]
        );
        assert_eq!(windows(&samples, 0.5, 1.0), vec![vec![1.0]]);
    }

    #[test]
    fn max_of_a_sample() {
        assert_eq!(max(&[2.0, 5.0, 1.0]), 5.0);
        assert_eq!(max(&[]), 0.0);
    }
}
