//! Top-k retrieval inspection (Figure 6 of the paper).
//!
//! The paper's Figure 6 shows, for a panel of queries, the top-10 retrieved
//! images framed green (relevant) or red (irrelevant). Without pixels we
//! report the same information structurally: ranked neighbour indices,
//! Hamming distances and relevance flags.

use crate::{BitCodes, HammingRanker};

/// One retrieved neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrievalHit {
    /// Database index of the neighbour.
    pub index: usize,
    /// Hamming distance from the query.
    pub distance: u32,
    /// Whether the neighbour shares a label with the query.
    pub relevant: bool,
}

/// Top-`k` neighbours of query `qi`, with relevance flags.
///
/// Uses the bucket select behind [`HammingRanker::rank_top_n`], so a small
/// `k` over a large database never sorts (or even allocates) the full
/// ranking; tie-breaking matches the full sort exactly.
pub fn top_k(
    ranker: &HammingRanker,
    queries: &BitCodes,
    qi: usize,
    relevant: &dyn Fn(usize, usize) -> bool,
    k: usize,
) -> Vec<RetrievalHit> {
    let ranked = ranker.rank_top_n(queries, qi, k);
    ranked
        .iter()
        .map(|&db_idx| RetrievalHit {
            index: db_idx as usize,
            distance: queries.hamming(qi, ranker.database(), db_idx as usize),
            relevant: relevant(qi, db_idx as usize),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::Matrix;

    #[test]
    fn top_k_returns_sorted_hits() {
        let db = BitCodes::from_real(&Matrix::from_rows(&[
            vec![1.0, 1.0],   // d=2
            vec![-1.0, -1.0], // d=0
            vec![1.0, -1.0],  // d=1
        ]));
        let q = BitCodes::from_real(&Matrix::from_rows(&[vec![-1.0, -1.0]]));
        let ranker = HammingRanker::new(db);
        let rel = |_q: usize, d: usize| d == 1;
        let hits = top_k(&ranker, &q, 0, &rel, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], RetrievalHit { index: 1, distance: 0, relevant: true });
        assert_eq!(hits[1], RetrievalHit { index: 2, distance: 1, relevant: false });
    }

    #[test]
    fn top_k_clamps_to_database_size() {
        let db = BitCodes::from_real(&Matrix::from_rows(&[vec![1.0]]));
        let q = BitCodes::from_real(&Matrix::from_rows(&[vec![1.0]]));
        let ranker = HammingRanker::new(db);
        let hits = top_k(&ranker, &q, 0, &|_, _| true, 10);
        assert_eq!(hits.len(), 1);
    }
}
