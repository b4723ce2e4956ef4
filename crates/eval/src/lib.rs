//! Retrieval evaluation for hashing methods (§4.2 of the paper).
//!
//! * [`bitcode`] — bit-packed binary hash codes with fast XOR/popcount
//!   Hamming distance,
//! * [`ranking`] — Hamming-ranking (counting-sort by distance) and
//!   per-distance histograms for the hash-lookup protocol,
//! * [`metrics`] — MAP@n (Eq. 12), precision@N curves (Figure 2) and
//!   precision-recall curves over Hamming radii (Figure 3),
//! * [`sampled`] — seeded query-subsampled MAP/P@N estimates with
//!   confidence intervals, keeping eval tractable at million-item scale,
//! * [`tsne`] — exact t-SNE for the qualitative study of Figure 5,
//! * [`retrieval`] — top-k inspection with relevance flags (Figure 6),
//! * [`index`] — a bucketed multi-probe Hamming index, the data structure a
//!   production deployment of the hash-lookup protocol uses.

pub mod bitcode;
pub mod index;
pub mod metrics;
pub mod ranking;
pub mod retrieval;
pub mod sampled;
pub mod tsne;

pub use bitcode::BitCodes;
pub use index::HashIndex;
pub use metrics::{mean_average_precision, pr_curve, precision_at_n, PrPoint};
pub use ranking::{merge_top_n, select_top_n, HammingRanker};
pub use retrieval::{top_k, RetrievalHit};
pub use sampled::{estimate_from_samples, sample_indices, sampled_map, SampledMetric};
pub use tsne::{cluster_separation, tsne_2d, TsneConfig};
