//! Order statistics for the reported metrics.

/// The median of `values` (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The smallest number of samples a percentile needs beyond it before it
/// is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Does a sample of `n` values support the `p`-th quantile (`0 < p < 1`),
/// i.e. lie at least [`MIN_SAMPLES_BEYOND`] samples below the maximum?
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th quantile in `n` sorted samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The relative nudge keeps `0.999 * 10_000` from ceiling to 9991 when
    // the product lands a rounding error above the whole number.
    let rank = p * n as f64;
    ((rank - rank * 1e-12).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `p`-th quantile of an ascending slice, or `None` when
/// the sample is too small to support it (see [`supports`]).
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !supports(sorted.len(), p) {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile needs sorted input");
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Per-event samples as a probe child hands them to the parent:
/// little-endian `u64`s.
pub fn samples_to_bytes(samples: &[u64]) -> Vec<u8> {
    samples.iter().flat_map(|s| s.to_le_bytes()).collect()
}

/// The inverse of [`samples_to_bytes`]; `None` for a truncated buffer.
pub fn samples_from_bytes(bytes: &[u8]) -> Option<Vec<u64>> {
    let chunks = bytes.chunks_exact(8);
    if !chunks.remainder().is_empty() {
        return None;
    }
    Some(chunks.map(|c| u64::from_le_bytes(c.try_into().expect("chunks of 8 bytes"))).collect())
}

/// Lower each of `fastest`'s readings to the same event's reading in
/// `next`. `false`, and `fastest` untouched, when the two differ in length.
pub fn keep_fastest(fastest: &mut [u64], next: &[u64]) -> bool {
    if fastest.len() != next.len() {
        return false;
    }
    for (f, n) in fastest.iter_mut().zip(next) {
        *f = (*f).min(*n);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_and_merge_per_event() {
        let a = [5, 1, u64::MAX, 7];
        assert_eq!(samples_from_bytes(&samples_to_bytes(&a)), Some(a.to_vec()));
        assert_eq!(samples_from_bytes(&[0; 9]), None);
        let mut fastest = a.to_vec();
        assert!(keep_fastest(&mut fastest, &[6, 0, 3, 7]));
        assert_eq!(fastest, vec![5, 0, 3, 7]);
        assert!(!keep_fastest(&mut fastest, &[1, 1, 1]));
        assert_eq!(fastest, vec![5, 0, 3, 7]);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500));
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        // p99.9 of 1000 samples leaves one sample beyond it: unsupported.
        assert_eq!(percentile(&sorted, 0.999), None);
    }

    #[test]
    fn sample_count_rule() {
        // p99.9 needs 10 000 samples to leave 10 beyond it.
        assert!(!supports(9_999, 0.999));
        assert!(supports(10_000, 0.999));
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        // The benchmark's smallest full-size probe (`weighted`) pools three
        // policies' 60k events, less each pass's first.
        assert_eq!(samples_beyond(179_997, 0.999), 179);
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        let sorted: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&sorted, 0.999), Some(9_990));
    }
}
