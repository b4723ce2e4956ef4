//! Hamming ranking over a code database, and the one top-`n` select that
//! every retrieval path (offline metrics, the serve shards) runs through.

use crate::bitcode::hamming_scan;
use crate::BitCodes;

/// Ranks database codes by Hamming distance from query codes.
///
/// Because distances are integers in `0..=bits`, ranking is a counting sort:
/// `O(n + k)` per query with stable (index-ascending) order inside each
/// distance bucket — deterministic tie-breaking matters for reproducible
/// MAP numbers.
#[derive(Debug, Clone)]
pub struct HammingRanker {
    db: BitCodes,
}

impl HammingRanker {
    /// Build a ranker over `db`.
    pub fn new(db: BitCodes) -> Self {
        Self { db }
    }

    /// The database codes.
    pub fn database(&self) -> &BitCodes {
        &self.db
    }

    /// Distances from query `qi` of `queries` to every database code.
    pub fn distances(&self, queries: &BitCodes, qi: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.db.len()];
        self.distances_into(queries, qi, &mut out);
        out
    }

    /// [`Self::distances`] into a caller-provided buffer, so per-query loops
    /// (MAP, P@N, PR curves) reuse one allocation across the whole query set.
    ///
    /// # Panics
    /// Panics on code-length mismatch or if `out.len() != self.database().len()`.
    pub(crate) fn distances_into(&self, queries: &BitCodes, qi: usize, out: &mut [u32]) {
        hamming_scan::scan_into(queries, qi, &self.db, out);
    }

    /// Database indices sorted by ascending Hamming distance (stable).
    pub fn rank(&self, queries: &BitCodes, qi: usize) -> Vec<u32> {
        let dists = self.distances(queries, qi);
        counting_rank(&dists, self.db.bits())
    }

    /// The first `n` entries of [`Self::rank`] without materializing the
    /// full ranking, via the bucket select of [`select_top_n`]. Tie-breaking
    /// is identical to the counting sort — ascending distance, then
    /// ascending database index.
    pub fn rank_top_n(&self, queries: &BitCodes, qi: usize, n: usize) -> Vec<u32> {
        self.rank_top_n_with_dist(queries, qi, n).into_iter().map(|(_, j)| j).collect()
    }

    /// [`Self::rank_top_n`] with the Hamming distance attached: the first
    /// `n` `(distance, index)` pairs in ascending `(distance, index)` order.
    /// This is the candidate format the online shard-merge
    /// ([`merge_top_n`]) consumes, so sharded serving can reproduce the
    /// offline ranking bit-for-bit. The whole database is one band of
    /// [`select_top_n`]; a request for most of it degrades gracefully into
    /// the select's counting-sort finish.
    pub fn rank_top_n_with_dist(&self, queries: &BitCodes, qi: usize, n: usize) -> Vec<(u32, u32)> {
        select_top_n(queries, qi, [(0, &self.db)], n, |_| false)
    }

    /// Per-distance histogram of database points: `hist[d]` = how many
    /// database codes lie at exactly distance `d`. Used by the hash-lookup
    /// protocol (PR curves over Hamming radii).
    pub fn distance_histogram(&self, queries: &BitCodes, qi: usize) -> Vec<u32> {
        let mut hist = vec![0u32; self.db.bits() + 1];
        for d in self.distances(queries, qi) {
            hist[d as usize] += 1;
        }
        hist
    }
}

/// Merge per-shard top-`n` candidate lists into the global top-`n`.
///
/// Each shard list holds `(distance, global_index)` pairs — that shard's
/// best `min(n, shard_len)` candidates, e.g. from
/// [`HammingRanker::rank_top_n_with_dist`] over a contiguous slice of the
/// database with the slice offset added to every index. The merged result
/// is ordered by ascending `(distance, index)` — exactly the counting-sort
/// tie-breaking contract of [`HammingRanker::rank`] — so a sharded deployment
/// returns bitwise-identical rankings to a single-shard one, for any shard
/// count, as long as the shards partition the database into contiguous
/// index ranges.
pub fn merge_top_n(shards: &[Vec<(u32, u32)>], n: usize) -> Vec<(u32, u32)> {
    let mut all: Vec<(u32, u32)> = shards.concat();
    // Indices are unique across shards, so the lexicographic key is unique
    // and an unstable sort is deterministic.
    all.sort_unstable();
    all.truncate(n);
    all
}

/// Distances scanned per group before the group's minimum is compared with
/// the select's bound: 16 lanes fold to one `min` in a few vector ops.
const SELECT_GROUP: usize = 16;

/// The first `n` `(distance, global_index)` pairs, in ascending
/// `(distance, index)` order, over every code of `bands` whose global index
/// `is_skipped` does not reject.
///
/// `bands` yields `(offset, codes)` blocks whose local index `i` is global
/// index `offset + i`, in ascending, non-overlapping offset order, so
/// candidates arrive in ascending global index. A new candidate then loses
/// every distance tie with what is held, and it can enter the current top
/// `n` only if fewer than `n` held candidates lie at its distance or below.
/// The select keeps `bound`, the smallest distance with `n` held
/// candidates at or below it, and admits only `d < bound`. A rejected
/// candidate is worse than the running `n`-th best of a prefix, so it can
/// never enter the global top `n`: the result is exact, with no heap and
/// no sort.
///
/// Admitted candidates go to one flat buffer with a count per distance,
/// and the output is their counting sort by distance (arrival order is
/// already tie-break order). The bound carries across bands, so almost
/// every 16-distance group of a scanned block soon has its minimum at or
/// above it and is skipped after one vector `min`; `is_skipped`
/// (tombstones) is consulted only for candidates below the bound. The
/// buffer is compacted back to `n` entries whenever it reaches `2n`, so
/// its size follows what it holds, never `n` alone.
///
/// # Panics
/// Panics if a band's code width differs from the query's.
pub fn select_top_n<'a>(
    queries: &BitCodes,
    qi: usize,
    bands: impl IntoIterator<Item = (u32, &'a BitCodes)>,
    n: usize,
    is_skipped: impl Fn(u32) -> bool,
) -> Vec<(u32, u32)> {
    let mut select = BucketSelect::new(queries.bits(), n);
    let mut block = [0u32; hamming_scan::SCAN_BLOCK];
    for (offset, codes) in bands {
        let mut start = 0;
        // At `bound == 0` the top `n` are exact matches: nothing later can
        // enter, so the scan stops (at once for `n == 0`).
        while start < codes.len() && select.bound > 0 {
            let end = (start + hamming_scan::SCAN_BLOCK).min(codes.len());
            let len = end - start;
            hamming_scan::scan_range_into(queries, qi, codes, start..end, &mut block[..len]);
            let padded = len.next_multiple_of(SELECT_GROUP);
            block[len..padded].fill(u32::MAX);
            let mut global = offset + start as u32;
            for group in block[..padded].chunks_exact(SELECT_GROUP) {
                if group.iter().fold(u32::MAX, |m, &d| m.min(d)) < select.bound {
                    for (&d, j) in group.iter().zip(global..) {
                        if d < select.bound && !is_skipped(j) {
                            select.push(d, j);
                        }
                    }
                }
                global += SELECT_GROUP as u32;
            }
            start = end;
        }
    }
    select.finish()
}

/// The running state of [`select_top_n`].
struct BucketSelect {
    n: usize,
    /// Candidates with `d < bound` are admitted; `bound` only ever falls.
    bound: u32,
    /// Held candidates at `d < bound`; always `< n`.
    below: usize,
    /// Held candidates per distance (exact for every `d ≤ bound`).
    counts: Vec<usize>,
    /// `(distance, global_index)` in arrival (= ascending index) order.
    held: Vec<(u32, u32)>,
}

impl BucketSelect {
    fn new(bits: usize, n: usize) -> Self {
        let bound = if n == 0 { 0 } else { bits as u32 + 1 };
        Self { n, bound, below: 0, counts: vec![0; bits + 1], held: Vec::new() }
    }

    /// Admit a candidate with `d < bound`, then lower the bound to the
    /// smallest distance at or below which `n` candidates are held.
    fn push(&mut self, d: u32, j: u32) {
        self.held.push((d, j));
        if let Some(count) = self.counts.get_mut(d as usize) {
            *count += 1;
        }
        self.below += 1;
        while self.below >= self.n {
            self.bound -= 1;
            self.below -= self.counts.get(self.bound as usize).copied().unwrap_or(0);
        }
        if self.held.len() >= self.n.saturating_mul(2) {
            self.compact();
        }
    }

    /// Drop every held candidate that can no longer make the top `n`:
    /// those beyond the bound, and the latest arrivals at the bound past
    /// the `n - below` that fill the output.
    fn compact(&mut self) {
        let (bound, room) = (self.bound, self.n.saturating_sub(self.below));
        let mut at_bound = 0;
        self.held.retain(|&(d, _)| {
            if d == bound {
                at_bound += 1;
                at_bound <= room
            } else {
                d < bound
            }
        });
        if let Some(count) = self.counts.get_mut(bound as usize) {
            *count = at_bound.min(room);
        }
    }

    /// Counting-sort the held candidates by distance into the final
    /// `min(n, held)` ascending `(distance, index)` pairs.
    fn finish(mut self) -> Vec<(u32, u32)> {
        let last = (self.bound as usize).min(self.counts.len() - 1);
        let mut next = 0;
        for c in self.counts.iter_mut().take(last + 1) {
            next += std::mem::replace(c, next);
        }
        let len = next.min(self.n);
        let mut out = vec![(0, 0); len];
        for &(d, j) in &self.held {
            if d as usize > last {
                continue;
            }
            if let Some(slot) = self.counts.get_mut(d as usize) {
                if let Some(o) = out.get_mut(*slot) {
                    *o = (d, j);
                    *slot += 1;
                }
            }
        }
        out
    }
}

/// Counting sort of indices by distance value.
fn counting_rank(dists: &[u32], max_dist: usize) -> Vec<u32> {
    let mut buckets = vec![0u32; max_dist + 2];
    for &d in dists {
        buckets[d as usize + 1] += 1;
    }
    for i in 1..buckets.len() {
        buckets[i] += buckets[i - 1];
    }
    let mut out = vec![0u32; dists.len()];
    for (idx, &d) in dists.iter().enumerate() {
        let slot = &mut buckets[d as usize];
        out[*slot as usize] = idx as u32;
        *slot += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::Matrix;

    fn codes(rows: &[Vec<f64>]) -> BitCodes {
        BitCodes::from_real(&Matrix::from_rows(rows))
    }

    #[test]
    fn rank_orders_by_distance() {
        let db = codes(&[
            vec![1.0, 1.0, 1.0, 1.0],     // d=4 from query
            vec![-1.0, -1.0, -1.0, -1.0], // d=0
            vec![1.0, -1.0, -1.0, -1.0],  // d=1
        ]);
        let q = codes(&[vec![-1.0, -1.0, -1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        assert_eq!(ranker.rank(&q, 0), vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_index() {
        let db = codes(&[
            vec![1.0, -1.0],  // d=1
            vec![-1.0, 1.0],  // d=1
            vec![-1.0, -1.0], // d=0
        ]);
        let q = codes(&[vec![-1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        assert_eq!(ranker.rank(&q, 0), vec![2, 0, 1]);
    }

    #[test]
    fn top_n_breaks_ties_like_full_rank() {
        // Six codes, all tied at distance 1 except one exact match — the
        // select must order ties by ascending index just like the counting
        // sort, at every depth.
        let db = codes(&[
            vec![1.0, -1.0, -1.0],  // d=1
            vec![-1.0, 1.0, -1.0],  // d=1
            vec![-1.0, -1.0, -1.0], // d=0
            vec![-1.0, -1.0, 1.0],  // d=1
            vec![1.0, -1.0, -1.0],  // d=1 (duplicate of 0)
            vec![-1.0, 1.0, -1.0],  // d=1 (duplicate of 1)
        ]);
        let q = codes(&[vec![-1.0, -1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        let full = ranker.rank(&q, 0);
        assert_eq!(full, vec![2, 0, 1, 3, 4, 5]);
        for n in 0..=6 {
            assert_eq!(ranker.rank_top_n(&q, 0, n), full[..n].to_vec(), "n={n}");
        }
    }

    #[test]
    fn top_n_small_n_matches_counting_sort() {
        // 16 codes with many duplicate distances; a small n lowers the
        // select's bound (and compacts its buffer) several times and must
        // still reproduce the stable prefix.
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| (0..4).map(|b| if (i >> b) & 1 == 1 { 1.0 } else { -1.0 }).collect())
            .collect();
        let db = codes(&rows);
        let q = codes(&[vec![-1.0, -1.0, -1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        let full = ranker.rank(&q, 0);
        for n in [1usize, 2, 3] {
            assert_eq!(ranker.rank_top_n(&q, 0, n), full[..n].to_vec(), "n={n}");
        }
    }

    /// Global top-n via `shards` contiguous slices + [`merge_top_n`].
    fn sharded_top_n(db: &BitCodes, q: &BitCodes, shards: usize, n: usize) -> Vec<(u32, u32)> {
        let bands = uhscm_linalg::par::partition(db.len(), shards);
        let per_shard: Vec<Vec<(u32, u32)>> = bands
            .into_iter()
            .map(|r| {
                let offset = r.start as u32;
                let local = HammingRanker::new(db.slice(r));
                local
                    .rank_top_n_with_dist(q, 0, n)
                    .into_iter()
                    .map(|(d, j)| (d, j + offset))
                    .collect()
            })
            .collect();
        merge_top_n(&per_shard, n)
    }

    #[test]
    fn sharded_merge_matches_single_shard_on_crafted_ties() {
        // 24 codes built so nearly everything ties: only 3 bits => distances
        // in 0..=3, eight codes per distance bucket on average. Tie-breaking
        // by ascending global index is the whole test.
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|i| (0..3).map(|b| if (i >> b) & 1 == 1 { 1.0 } else { -1.0 }).collect())
            .collect();
        let db = codes(&rows);
        let q = codes(&[vec![-1.0, 1.0, -1.0]]);
        let ranker = HammingRanker::new(db.clone());
        for n in [0usize, 1, 3, 5, 8, 24, 30] {
            let oracle = ranker.rank_top_n_with_dist(&q, 0, n);
            assert_eq!(
                oracle.iter().map(|&(_, j)| j).collect::<Vec<_>>(),
                ranker.rank_top_n(&q, 0, n),
                "with_dist must agree with rank_top_n at n={n}"
            );
            for shards in [1usize, 2, 4] {
                assert_eq!(
                    sharded_top_n(&db, &q, shards, n),
                    oracle,
                    "shards={shards} n={n} must be bit-for-bit identical"
                );
            }
        }
    }

    #[test]
    fn sharded_merge_handles_duplicate_codes_across_shard_boundaries() {
        // Every code identical: all distances tie, so the merged ranking
        // must be exactly 0..n in index order for any shard count.
        let db = codes(&vec![vec![1.0, -1.0, 1.0, 1.0]; 10]);
        let q = codes(&[vec![-1.0, -1.0, 1.0, 1.0]]);
        let ranker = HammingRanker::new(db.clone());
        for shards in [1usize, 2, 4] {
            let merged = sharded_top_n(&db, &q, shards, 7);
            assert_eq!(merged, ranker.rank_top_n_with_dist(&q, 0, 7), "shards={shards}");
            assert_eq!(
                merged.iter().map(|&(_, j)| j).collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4, 5, 6]
            );
        }
    }

    #[test]
    fn select_carries_the_bound_across_bands_and_skips() {
        // Distance pattern 2,1,0,1,2 repeated over three bands of 5; with
        // one skipped exact match the top 3 are the two remaining zeros and
        // the first live one, whatever band each sits in.
        let rows: Vec<Vec<f64>> = (0..15)
            .map(|i| match i % 5 {
                2 => vec![-1.0, -1.0],
                1 | 3 => vec![1.0, -1.0],
                _ => vec![1.0, 1.0],
            })
            .collect();
        let db = codes(&rows);
        let q = codes(&[vec![-1.0, -1.0]]);
        let bands: Vec<(u32, BitCodes)> =
            [0..5, 5..10, 10..15].into_iter().map(|r| (r.start as u32, db.slice(r))).collect();
        let got = select_top_n(&q, 0, bands.iter().map(|(o, c)| (*o, c)), 3, |j| j == 7);
        assert_eq!(got, vec![(0, 2), (0, 12), (1, 1)]);
        // Without the skip, three exact matches end the scan early.
        let got = select_top_n(&q, 0, bands.iter().map(|(o, c)| (*o, c)), 3, |_| false);
        assert_eq!(got, vec![(0, 2), (0, 7), (0, 12)]);
        assert_eq!(select_top_n(&q, 0, bands.iter().map(|(o, c)| (*o, c)), 0, |_| false), vec![]);
    }

    #[test]
    fn merge_top_n_orders_by_distance_then_index() {
        let a = vec![(0u32, 4u32), (2, 5)];
        let b = vec![(0u32, 1u32), (2, 2)];
        assert_eq!(merge_top_n(&[a, b], 3), vec![(0, 1), (0, 4), (2, 2)]);
        assert_eq!(merge_top_n(&[], 3), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn histogram_counts_all_points() {
        let db = codes(&[vec![1.0, 1.0], vec![1.0, -1.0], vec![-1.0, -1.0], vec![-1.0, 1.0]]);
        let q = codes(&[vec![1.0, 1.0]]);
        let ranker = HammingRanker::new(db);
        let hist = ranker.distance_histogram(&q, 0);
        assert_eq!(hist, vec![1, 2, 1]);
        assert_eq!(hist.iter().sum::<u32>(), 4);
    }

    #[test]
    fn rank_is_permutation() {
        let db = codes(&[
            vec![1.0, -1.0, 1.0],
            vec![-1.0, -1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![-1.0, 1.0, -1.0],
            vec![1.0, 1.0, -1.0],
        ]);
        let q = codes(&[vec![1.0, 1.0, 1.0]]);
        let ranker = HammingRanker::new(db);
        let mut r = ranker.rank(&q, 0);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3, 4]);
    }
}
