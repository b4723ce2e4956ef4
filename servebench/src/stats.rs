//! Order statistics and process memory.

/// Nearest-rank percentile `p` (0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Median, over `blocks` consecutive equal blocks of `values`, of each
/// block's `p`-th percentile: a burst of machine noise that spoils one
/// block does not move it.
pub fn blocked_percentile(values: &[f64], p: f64, blocks: usize) -> Option<f64> {
    let size = values.len() / blocks.max(1);
    let per_block: Vec<f64> =
        values.chunks(size.max(1)).take(blocks.max(1)).filter_map(|b| percentile(b, p)).collect();
    median(&per_block)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&[], 50.0), None);
        // One stalled block out of five moves the plain p90, not the
        // blocked one.
        let mut stalled = vec![1.0; 100];
        stalled[..20].fill(50.0);
        assert_eq!(percentile(&stalled, 90.0), Some(50.0));
        assert_eq!(blocked_percentile(&stalled, 90.0, 5), Some(1.0));
    }
}
